"""Transform-domain message passing for linear-Gaussian estimation.

The package solves y = A x + n three ways (per-element stepsizes, scalar
stepsizes, and iteration on the unitarily transformed model), and certifies
the transform-domain variant's convergence from the spectrum of its frozen
iteration matrix.
"""

# Each module's __all__ is the one list of its public names; the package
# republishes them as its own.
from . import denoisers, ensembles, matrixio, model, solvers, spectral
from .denoisers import *  # noqa: F403
from .ensembles import *  # noqa: F403
from .matrixio import *  # noqa: F403
from .model import *  # noqa: F403
from .solvers import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = denoisers.__all__ + ensembles.__all__ + matrixio.__all__ + model.__all__ + solvers.__all__ + spectral.__all__
