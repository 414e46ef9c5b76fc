"""Convergence certification for the transform-domain solver.

Under a Gaussian prior with one variance tau0 the stepsize recursion
decouples from the estimates, so its fixed point (tau_x, tau_q) can be
solved for ahead of time.  With the stepsizes there, ut_amp_step is an
affine map of the stacked state (s, x), whose Jacobian has closed-form
eigenvalues driven by two ingredients:

  beta_i = tau_x |lam_i|^2 / (tau_x |lam_i|^2 + sigma2)   per singular value,
  alpha  = mean of the beta_i padded with zeros to length N (the denoiser's gain).

Each singular direction contributes the two roots of
eta^2 - alpha * eta + alpha * beta_i; leftover measurement directions
contribute zeros and leftover estimate directions contribute alpha.  The
certificate reports the spectral radius and whether it is below one, which
holds for every matrix since alpha * beta_i < 1.  The numeric cross-check
densifies the Jacobian one ut_amp_step call per unit vector, so it checks
the closed form against the step run() executes, plus the M - k zeros of
the measurement directions it does not hold.  A radius taken at a
stepsize fixed point that did not converge certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoisers import GaussianPrior
from .model import Factorization, LinearModel, _noise_variance, svd_factorize
from .solvers import SolverState, ut_amp_step

__all__ = [
    "UnsupportedPriorError",
    "VarianceFixedPoint",
    "SpectralCoefficients",
    "ConvergenceCertificate",
    "variance_fixed_point",
    "spectral_coefficients",
    "closed_form_eigenvalues",
    "numeric_iteration_matrix",
    "eigenvalue_discrepancy",
    "certify",
]


# variance_fixed_point's bracket closes at this relative width, within this many evaluations
_FIXED_POINT_TOL, _FIXED_POINT_MAX_EVALS = 1e-14, 200


class UnsupportedPriorError(TypeError):
    """The certification analysis only covers Gaussian priors."""


@dataclass(eq=False)
class VarianceFixedPoint:
    """Limit of the stepsize recursion.  tau_q is +inf when the matrix is
    identically zero (no information ever flows back)."""

    tau_x: float
    tau_q: float
    iterations: int
    converged: bool


@dataclass(eq=False)
class SpectralCoefficients:
    """alpha and the per-singular-value betas (length min(M, N))."""

    alpha: float
    betas: np.ndarray
    shape: tuple[int, int]
    tau_x: float
    sigma2: float


@dataclass(eq=False)
class ConvergenceCertificate:
    fixed_point: VarianceFixedPoint
    coefficients: SpectralCoefficients
    eigenvalues: np.ndarray
    spectral_radius: float
    converges: bool
    case: str
    numeric_discrepancy: float | None = None

    def report(self) -> str:
        c = self.coefficients
        m, n = c.shape
        lines = [
            "transform-domain convergence certificate",
            f"  shape: {m} x {n} ({self.case})",
            f"  noise variance: {c.sigma2:.6g}",
            f"  stepsize fixed point: tau_x = {self.fixed_point.tau_x:.6g}, "
            f"tau_q = {self.fixed_point.tau_q:.6g} "
            f"({self.fixed_point.iterations} evaluations"
            f"{'' if self.fixed_point.converged else ', NOT converged'})",
            f"  alpha = {format_radius(c.alpha)}",
            f"  spectral radius = {format_radius(self.spectral_radius)} "
            f"({self.eigenvalues.size} closed-form eigenvalues)",
        ]
        if self.numeric_discrepancy is not None:
            lines.append(f"  numeric cross-check: max eigenvalue discrepancy {self.numeric_discrepancy:.3g}")
        if self.converges:
            verdict = "converges (spectral radius < 1)"
        elif not self.fixed_point.converged:
            verdict = "NOT certified (stepsize fixed point did not converge)"
        else:
            verdict = "NOT certified (spectral radius >= 1)"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def format_radius(radius: float) -> str:
    """The radius (or alpha) to 6 significant digits, or as 1 - gap within
    1e-6 below 1, where 6 digits would print a contraction as 1."""
    gap = 1.0 - radius
    return f"1 - {gap:.3g}" if 0.0 < gap <= 1e-6 else f"{radius:.6g}"


def variance_fixed_point(
    lam,
    sigma2: float,
    prior: GaussianPrior,
    shape: tuple[int, int],
) -> VarianceFixedPoint:
    """Solve the stepsize recursion for its fixed point.

    The recursion sends tau_x to tau_q = N / sum_i |lam_i|^2 / (tau_x
    |lam_i|^2 + sigma2) and tau_q to H(tau_q), the mean of the posterior
    variances tau0_j tau_q / (tau0_j + tau_q).  The fixed point is the root
    in tau_q of

        mean_j tau_q / (tau0_j + tau_q) = (N - k + sum_i gamma_i) / N,
        gamma_i = sigma2 / (H(tau_q) |lam_i|^2 + sigma2),

    whose sides move in opposite directions, so unlike tau_x - H(tau_q) it
    keeps its sign to within a few ulps of the root, also on square
    high-SNR spectra where iterating the recursion converges sublinearly.
    Bisecting [tau_q(tau_x = 0), tau_q(tau_x = mean(tau0))] at geometric
    midpoints closes it to _FIXED_POINT_TOL (relative) in about 60
    evaluations, and stops after _FIXED_POINT_MAX_EVALS; iterations counts
    them, and converged means the bracket closed.
    """
    if not isinstance(prior, GaussianPrior):
        raise UnsupportedPriorError(f"need a Gaussian prior, got {type(prior).__name__}")
    m, n = shape
    lam2 = np.abs(np.asarray(lam)) ** 2
    if lam2.size != min(m, n):
        raise ValueError(f"expected {min(m, n)} singular values for shape {shape}, got {lam2.size}")
    sigma2 = _noise_variance(sigma2)
    tau0 = prior.variance_vector(n)

    if not np.any(lam2 > 0):
        return VarianceFixedPoint(tau_x=float(np.mean(tau0)), tau_q=np.inf, iterations=0, converged=True)

    def tau_q_of(tau_x):
        return n / float(np.sum(lam2 / (tau_x * lam2 + sigma2)))

    def tau_x_of(tau_q):
        return float(np.mean(tau0 * tau_q / (tau0 + tau_q)))

    def below_root(tau_q):
        # the root equation above, times N
        gamma = sigma2 / (tau_x_of(tau_q) * lam2 + sigma2)
        return float(np.sum(tau_q / (tau0 + tau_q))) < n - lam2.size + float(np.sum(gamma))

    lo, hi = tau_q_of(0.0), tau_q_of(float(np.mean(tau0)))
    evals = 0
    while hi - lo > _FIXED_POINT_TOL * lo and evals < _FIXED_POINT_MAX_EVALS:
        mid = np.sqrt(lo) * np.sqrt(hi)
        lo, hi = (mid, hi) if below_root(mid) else (lo, mid)
        evals += 1
    tau_x = tau_x_of(np.sqrt(lo) * np.sqrt(hi))
    return VarianceFixedPoint(tau_x, tau_q_of(tau_x), iterations=evals, converged=hi - lo <= _FIXED_POINT_TOL * lo)


def spectral_coefficients(
    fp: VarianceFixedPoint, lam, sigma2: float, shape: tuple[int, int]
) -> SpectralCoefficients:
    """beta_i per singular value and their zero-padded mean alpha."""
    m, n = shape
    lam2 = np.abs(np.asarray(lam)) ** 2
    if lam2.size != min(m, n):
        raise ValueError(f"expected {min(m, n)} singular values for shape {shape}, got {lam2.size}")
    betas = fp.tau_x * lam2 / (fp.tau_x * lam2 + sigma2)
    alpha = float(np.sum(betas)) / n
    return SpectralCoefficients(alpha=alpha, betas=betas, shape=(m, n), tau_x=fp.tau_x, sigma2=float(sigma2))


def closed_form_eigenvalues(coeff: SpectralCoefficients) -> np.ndarray:
    """All M + N eigenvalues of the frozen-stepsize iteration matrix.

    Per singular value the quadratic eta^2 - alpha*eta + alpha*beta_i has
    roots (alpha +- sqrt(alpha^2 - 4*alpha*beta_i)) / 2; a negative
    discriminant yields a conjugate pair of modulus sqrt(alpha * beta_i).
    Measurement directions beyond the rank contribute eigenvalue 0,
    estimate directions beyond the rank contribute alpha.
    """
    m, n = coeff.shape
    k = min(m, n)
    alpha = coeff.alpha
    disc = np.asarray(alpha * alpha - 4.0 * alpha * coeff.betas, dtype=complex)
    root = np.sqrt(disc)
    pairs = np.concatenate([(alpha + root) / 2.0, (alpha - root) / 2.0])
    extras = np.concatenate([np.zeros(m - k, dtype=complex), np.full(n - k, alpha, dtype=complex)])
    return np.concatenate([pairs, extras])


def numeric_iteration_matrix(fact: Factorization, coeff: SpectralCoefficients, prior: GaussianPrior) -> np.ndarray:
    """The Jacobian of ut_amp_step at the stepsize fixed point, dense and
    (k + N)-square on the stacked (s, x) state, k = min(M, N).  With r = 0
    and the prior's mean set to 0, the Gaussian step from tau_x =
    coeff.tau_x is linear in (s, x) and leaves tau_x at its fixed point, so
    column j is one step from the j-th unit vector.  The gain tau0 / (tau0 +
    tau_q) reads the prior's tau0, also a per-element one, which the closed
    form does not cover."""
    k, n = fact.lam.size, fact.N
    tmodel = LinearModel(fact, np.zeros(fact.M), coeff.sigma2).transformed
    centered = GaussianPrior(tau0=prior.tau0)

    def column(e):
        new, _ = ut_amp_step(SolverState(x=e[k:], tau_x=coeff.tau_x, s=e[:k]), tmodel, centered)
        return np.concatenate([new.s, new.x])

    return np.column_stack([column(e) for e in np.eye(k + n)])


def eigenvalue_discrepancy(a, b) -> float:
    """Max absolute difference under the optimal one-to-one matching of two
    eigenvalue multisets (they come in arbitrary order)."""
    from scipy.optimize import linear_sum_assignment  # slow import, --check-numeric only
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError(f"eigenvalue counts differ: {a.size} vs {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _case(m: int, n: int) -> str:
    if m == n:
        return "square"
    return "tall" if m > n else "wide"


def certify(
    target,
    prior: GaussianPrior,
    sigma2: float | None = None,
    check_numeric: bool = False,
) -> ConvergenceCertificate:
    """Build the convergence certificate for a matrix.

    target may be a model (its factorization, and its noise variance
    unless sigma2 overrides it), a factorization, or a raw matrix (thin
    SVD); the latter two require sigma2.  check_numeric additionally
    eigendecomposes the dense iteration matrix and records the worst
    matched eigenvalue discrepancy.
    """
    if not isinstance(prior, GaussianPrior):
        raise UnsupportedPriorError(
            f"certification covers Gaussian priors only, got {type(prior).__name__}"
        )
    if prior.tau0.ndim != 0:
        # the closed form has one denoiser gain; a tau0 per entry gives each its own
        raise UnsupportedPriorError("certification needs one prior variance, got a per-element tau0")
    if isinstance(target, LinearModel):
        fact = target.fact
        if sigma2 is None:
            sigma2 = target.sigma2
    elif isinstance(target, Factorization):
        fact = target
    else:
        fact = svd_factorize(np.asarray(target))
    if sigma2 is None:
        raise ValueError("sigma2 is required when certifying a bare matrix or factorization")

    fp = variance_fixed_point(fact.lam, sigma2, prior, fact.shape)
    coeff = spectral_coefficients(fp, fact.lam, sigma2, fact.shape)
    eigs = closed_form_eigenvalues(coeff)
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    cert = ConvergenceCertificate(
        fixed_point=fp,
        coefficients=coeff,
        eigenvalues=eigs,
        spectral_radius=radius,
        converges=bool(radius < 1.0 and fp.converged),
        case=_case(*fact.shape),
    )
    if check_numeric:
        dense = numeric_iteration_matrix(fact, coeff, prior)
        # the M - k measurement directions that the step does not hold are exact zeros
        numeric = np.concatenate([np.linalg.eigvals(dense), np.zeros(fact.M - fact.lam.size)])
        cert.numeric_discrepancy = eigenvalue_discrepancy(eigs, numeric)
    return cert
