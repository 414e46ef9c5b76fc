"""Test-matrix families and instance synthesis.

Reproducibility contract: every random draw comes from a Philox counter
stream keyed by (seed, domain), so the matrix, the signal, and the noise of
an instance are independent streams of one 64-bit seed, and generating the
matrix alone never perturbs the signal draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Factorization, LinearModel, _noise_variance, circulant_matrix

__all__ = ["ENSEMBLE_KINDS", "EnsembleSpec", "stream", "circulant_taps", "generate_matrix", "synthesize_instance"]

ENSEMBLE_KINDS = (
    "iid_gaussian",
    "nonzero_mean",
    "ill_conditioned",
    "rank_deficient",
    "column_correlated",
    "circulant",
)

# domain tags for the (seed, domain) stream split
DOMAIN_MATRIX = 0
DOMAIN_SIGNAL = 1
DOMAIN_NOISE = 2


def stream(seed: int, domain: int) -> np.random.Generator:
    """Independent generator for (seed, domain)."""
    key = (int(seed) % 2**64) + (int(domain) << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(eq=False)
class EnsembleSpec:
    """What to draw: a family, a shape, a seed, and family-specific knobs.

    Unused knobs are ignored; None means "family default" (mean_shift 10,
    condition_number 1e6 for ill_conditioned and 1 for rank_deficient,
    rank min(M, N) // 2, correlation 0.9, taps drawn at random).
    """

    kind: str
    M: int
    N: int
    seed: int = 0
    mean_shift: float | None = None
    condition_number: float | None = None
    rank: int | None = None
    correlation: float | None = None
    taps: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}, expected one of {ENSEMBLE_KINDS}")
        self.M = int(self.M)
        self.N = int(self.N)
        if self.M < 1 or self.N < 1:
            raise ValueError(f"dimensions must be positive, got {self.M} x {self.N}")
        if self.kind == "circulant" and self.M != self.N:
            raise ValueError(f"circulant matrices are square, got {self.M} x {self.N}")
        if self.condition_number is not None and not 1.0 <= self.condition_number < np.inf:
            raise ValueError(f"condition_number must be >= 1 and finite, got {self.condition_number}")
        if self.mean_shift is not None and not np.isfinite(self.mean_shift):
            raise ValueError(f"mean_shift must be finite, got {self.mean_shift}")
        if self.rank is not None and not 1 <= self.rank <= min(self.M, self.N):
            raise ValueError(f"rank must lie in [1, {min(self.M, self.N)}], got {self.rank}")
        if self.correlation is not None and not 0.0 <= self.correlation < 1.0:
            raise ValueError(f"correlation must lie in [0, 1), got {self.correlation}")
        if self.taps is not None:
            self.taps = np.asarray(self.taps, dtype=float)
            if self.taps.shape != (self.N,):
                raise ValueError(f"taps must have length N = {self.N}, got shape {self.taps.shape}")


def _haar_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # QR of a Gaussian block with the usual sign fix gives Haar-distributed
    # orthonormal columns
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _spread_spectrum(kappa: float, count: int) -> np.ndarray:
    # log-spaced from 1 down to 1/kappa, rescaled to unit mean square so the
    # matrix scale stays comparable across condition numbers
    if count == 1:
        return np.ones(1)
    s = np.logspace(0.0, -np.log10(kappa), count)
    return s / np.sqrt(np.mean(s**2))


def circulant_taps(spec: EnsembleSpec) -> np.ndarray:
    """First column of the circulant matrix described by spec, drawn from
    the same stream as generate_matrix, without forming the matrix."""
    if spec.kind != "circulant":
        raise ValueError(f"taps belong to the circulant ensemble, got {spec.kind!r}")
    if spec.taps is not None:
        return spec.taps
    return stream(spec.seed, DOMAIN_MATRIX).standard_normal(spec.N) / np.sqrt(spec.N)


def generate_matrix(spec: EnsembleSpec) -> np.ndarray:
    """Draw the matrix described by spec, deterministically in spec.seed."""
    rng = stream(spec.seed, DOMAIN_MATRIX)
    m, n = spec.M, spec.N
    k = min(m, n)

    if spec.kind == "iid_gaussian":
        return rng.standard_normal((m, n)) / np.sqrt(m)

    if spec.kind == "nonzero_mean":
        shift = 10.0 if spec.mean_shift is None else float(spec.mean_shift)
        return rng.standard_normal((m, n)) / np.sqrt(m) + shift

    if spec.kind in ("ill_conditioned", "rank_deficient"):
        # Haar U and V around a log-spaced spectrum: full rank with kappa 1e6
        # by default, or rank r (min(M, N) // 2 by default) with a flat one
        full = spec.kind == "ill_conditioned"
        r = k if full else (max(1, k // 2) if spec.rank is None else int(spec.rank))
        kappa = (1e6 if full else 1.0) if spec.condition_number is None else float(spec.condition_number)
        u = _haar_columns(rng, m, r)
        v = _haar_columns(rng, n, r)
        return (u * _spread_spectrum(kappa, r)) @ v.T

    if spec.kind == "column_correlated":
        rho = 0.9 if spec.correlation is None else float(spec.correlation)
        cov = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        w, q = np.linalg.eigh(cov)
        half = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T
        g = rng.standard_normal((m, n)) / np.sqrt(m)
        return g @ half

    if spec.kind == "circulant":
        return circulant_matrix(circulant_taps(spec))

    raise AssertionError(f"unhandled kind {spec.kind}")


def synthesize_instance(A, prior, sigma2: float, seed: int = 0, factorize=None) -> LinearModel:
    """Draw x from the prior and noise from N(0, sigma2), return the model.

    A is a dense matrix or a Factorization (A x by its matvec), which gives
    a matrix-free model; factorize goes to LinearModel.  The signal and
    noise streams depend only on (seed, domain), never on the matrix, so
    regenerating A with different knobs keeps the same x and n.
    Complex matrices or priors get circularly-symmetric complex noise.
    """
    sigma2 = _noise_variance(sigma2)  # checked before it scales the noise
    if not isinstance(A, Factorization):
        A = np.asarray(A)
    m, n = A.shape
    x = prior.sample(n, stream(seed, DOMAIN_SIGNAL))
    ax = A.matvec(x) if isinstance(A, Factorization) else A @ x
    rng = stream(seed, DOMAIN_NOISE)
    if np.iscomplexobj(ax):
        noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    else:
        noise = np.sqrt(sigma2) * rng.standard_normal(m)
    return LinearModel(A=A, y=ax + noise, sigma2=sigma2, x_true=x, factorize=factorize)
