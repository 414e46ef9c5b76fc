"""Transform-domain message passing for linear-Gaussian estimation.

The package solves y = A x + n three ways (per-element stepsizes, scalar
stepsizes, and iteration on the unitarily transformed model), and certifies
the transform-domain variant's convergence from the spectrum of its frozen
iteration matrix.
"""

from .denoisers import (
    BernoulliGaussianPrior,
    DenoiserOutput,
    GaussianPrior,
    bg_denoise,
    gaussian_denoise,
)
from .ensembles import ENSEMBLE_KINDS, EnsembleSpec, circulant_taps, generate_matrix, stream, synthesize_instance
from .matrixio import load_matrix, load_vector, save_matrix, save_vector
from .model import (
    DftFactorization,
    Factorization,
    FactorizationError,
    LinearModel,
    SvdFactorization,
    TransformedModel,
    circulant_factorize,
    scaled_gram_diagonal,
    svd_factorize,
)
from .solvers import (
    ALGORITHMS,
    SolverState,
    StepScratch,
    Trace,
    initial_state,
    lmmse_solve,
    lmmse_transformed,
    run,
    scalar_amp_step,
    ut_amp_step,
    vector_amp_step,
)
from .spectral import (
    ConvergenceCertificate,
    SpectralCoefficients,
    UnsupportedPriorError,
    VarianceFixedPoint,
    certify,
    closed_form_eigenvalues,
    eigenvalue_discrepancy,
    numeric_iteration_matrix,
    spectral_coefficients,
    variance_fixed_point,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ENSEMBLE_KINDS",
    "BernoulliGaussianPrior",
    "ConvergenceCertificate",
    "DenoiserOutput",
    "DftFactorization",
    "EnsembleSpec",
    "Factorization",
    "FactorizationError",
    "GaussianPrior",
    "LinearModel",
    "SolverState",
    "SpectralCoefficients",
    "StepScratch",
    "SvdFactorization",
    "Trace",
    "TransformedModel",
    "UnsupportedPriorError",
    "VarianceFixedPoint",
    "bg_denoise",
    "certify",
    "circulant_factorize",
    "circulant_taps",
    "closed_form_eigenvalues",
    "eigenvalue_discrepancy",
    "gaussian_denoise",
    "generate_matrix",
    "initial_state",
    "lmmse_solve",
    "lmmse_transformed",
    "load_matrix",
    "load_vector",
    "numeric_iteration_matrix",
    "run",
    "save_matrix",
    "save_vector",
    "scalar_amp_step",
    "scaled_gram_diagonal",
    "spectral_coefficients",
    "stream",
    "svd_factorize",
    "synthesize_instance",
    "ut_amp_step",
    "variance_fixed_point",
    "vector_amp_step",
]
