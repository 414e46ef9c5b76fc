"""Scalar-separable MMSE denoisers.

Each denoiser consumes a pseudo-observation q = x + e with e ~ N(0, tau_q)
(elementwise; tau_q may be a scalar or a per-element vector) and returns the
posterior mean and posterior variance of x under the prior.  The posterior
variance equals tau_q times the derivative of the posterior mean in q, so a
single output serves both the stepsize update and the error estimate.

tau_q = +inf is the "no observation" limit and returns the prior mean and
variance; mixed finite/infinite vectors are handled per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "GaussianPrior",
    "BernoulliGaussianPrior",
    "DenoiserOutput",
    "gaussian_denoise",
    "bg_denoise",
]


@dataclass(eq=False)
class DenoiserOutput:
    """Posterior summary: elementwise mean and variance."""

    mean: np.ndarray
    var: np.ndarray

    @cached_property
    def var_scalar(self) -> float:
        """Variances averaged over elements (scalar-stepsize view)."""
        return float(np.mean(self.var))


def _check_tau_q(tau_q, n):
    tau_q = np.asarray(tau_q, dtype=float)
    if tau_q.ndim == 0:
        tau_q = np.full(n, float(tau_q))
    if tau_q.shape != (n,):
        raise ValueError(f"tau_q must be scalar or length-{n}, got shape {tau_q.shape}")
    if np.any(np.isnan(tau_q)) or np.any(tau_q <= 0):
        raise ValueError("tau_q entries must be positive (inf allowed)")
    return tau_q


@dataclass(eq=False)
class GaussianPrior:
    """Independent Gaussian prior x_i ~ N(x0_i, tau0_i).

    x0 and tau0 may be scalars or length-N vectors; scalars broadcast.
    complex_valued selects circularly-symmetric complex sampling (the
    denoising formulas themselves are the same in both cases).
    """

    x0: np.ndarray | float = 0.0
    tau0: np.ndarray | float = 1.0
    complex_valued: bool = False

    def __post_init__(self):
        self.x0 = np.asarray(self.x0)
        self.tau0 = np.asarray(self.tau0, dtype=float)
        if np.any(self.tau0 <= 0) or not np.all(np.isfinite(self.tau0)):
            raise ValueError("tau0 entries must be positive and finite")
        if np.iscomplexobj(self.x0):
            self.complex_valued = True

    @classmethod
    def iid(cls, mean=0.0, var=1.0, complex_valued=False):
        return cls(x0=mean, tau0=var, complex_valued=complex_valued)

    def mean_vector(self, n: int) -> np.ndarray:
        return np.broadcast_to(self.x0, (n,)).astype(self.x0.dtype, copy=True)

    def variance_vector(self, n: int) -> np.ndarray:
        return np.broadcast_to(self.tau0, (n,)).astype(float, copy=True)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        sd = np.sqrt(self.variance_vector(n))
        if self.complex_valued:
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return self.mean_vector(n) + sd * z / np.sqrt(2.0)
        return self.mean_vector(n) + sd * rng.standard_normal(n)

    def denoise(self, q, tau_q) -> DenoiserOutput:
        return gaussian_denoise(q, tau_q, self)


def gaussian_denoise(q, tau_q, prior: GaussianPrior) -> DenoiserOutput:
    """Conjugate update: posterior mean interpolates between q and the prior
    mean with weight tau0 / (tau0 + tau_q); the variance is the parallel sum
    tau0 tau_q / (tau0 + tau_q)."""
    q = np.asarray(q)
    n = q.shape[0]
    tau_q = _check_tau_q(tau_q, n)
    x0 = prior.mean_vector(n)
    tau0 = prior.variance_vector(n)

    finite = np.isfinite(tau_q)
    tq = np.where(finite, tau_q, 1.0)
    gain = np.where(finite, tau0 / (tau0 + tq), 0.0)
    mean = x0 + gain * (q - x0)
    var = np.where(finite, tau0 * tq / (tau0 + tq), tau0)
    return DenoiserOutput(mean=mean, var=var)


@dataclass(eq=False)
class BernoulliGaussianPrior:
    """Spike-and-slab prior: x_i = 0 w.p. 1 - rho, else drawn from the slab
    N(mu, v) (or the circular complex Gaussian when complex_valued)."""

    rho: float
    mu: complex | float = 0.0
    v: float = 1.0
    complex_valued: bool = False

    def __post_init__(self):
        self.rho = float(self.rho)
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        self.v = float(self.v)
        if not self.v > 0:
            raise ValueError(f"slab variance v must be positive, got {self.v}")
        if isinstance(self.mu, complex) and self.mu.imag != 0:
            self.complex_valued = True
        else:
            self.mu = complex(self.mu).real if not self.complex_valued else complex(self.mu)

    def mean_vector(self, n: int) -> np.ndarray:
        return np.full(n, self.rho * self.mu)

    def variance_vector(self, n: int) -> np.ndarray:
        var = self.rho * (self.v + abs(self.mu) ** 2) - abs(self.rho * self.mu) ** 2
        return np.full(n, var)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        active = rng.random(n) < self.rho
        if self.complex_valued:
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            slab = self.mu + np.sqrt(self.v / 2.0) * z
        else:
            slab = self.mu + np.sqrt(self.v) * rng.standard_normal(n)
        return np.where(active, slab, 0.0 * slab)

    def denoise(self, q, tau_q) -> DenoiserOutput:
        return bg_denoise(q, tau_q, self)


def _log_gauss_mag2(mag2, variance, complex_valued):
    # log density evaluated through the squared distance to the mean;
    # the real and circular-complex normalizers differ
    if complex_valued:
        return -np.log(np.pi * variance) - mag2 / variance
    return -0.5 * np.log(2.0 * np.pi * variance) - 0.5 * mag2 / variance


def _sigmoid(t):
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def bg_denoise(q, tau_q, prior: BernoulliGaussianPrior) -> DenoiserOutput:
    """Spike-and-slab posterior.

    The activation probability comes from the log odds of the two marginal
    likelihoods q ~ N(mu, v + tau_q) versus q ~ N(0, tau_q), evaluated in the
    log domain so extreme odds saturate to exactly 0 or 1 instead of
    overflowing.  Conditional on activity the update is the conjugate
    Gaussian one.
    """
    q = np.asarray(q)
    n = q.shape[0]
    tau_q = _check_tau_q(tau_q, n)
    rho, mu, v = prior.rho, prior.mu, prior.v
    cplx = prior.complex_valued

    finite = np.isfinite(tau_q)
    tq = np.where(finite, tau_q, 1.0)

    if rho == 0.0:
        zero = np.zeros(n, dtype=q.dtype)
        return DenoiserOutput(mean=zero, var=np.zeros(n))

    # conditional-on-active posterior
    m_act = np.where(finite, (v * q + tq * mu) / (v + tq), mu + 0.0 * q)
    v_act = np.where(finite, v * tq / (v + tq), v)

    if rho == 1.0:
        pi = np.ones(n)
    else:
        log_slab = _log_gauss_mag2(np.abs(q - mu) ** 2, v + tq, cplx)
        log_spike = _log_gauss_mag2(np.abs(q) ** 2, tq, cplx)
        t = np.log(rho) - np.log1p(-rho) + log_slab - log_spike
        t = np.where(finite, t, np.log(rho) - np.log1p(-rho))
        pi = _sigmoid(t)

    mean = pi * m_act
    var = pi * v_act + pi * (1.0 - pi) * np.abs(m_act) ** 2
    return DenoiserOutput(mean=mean, var=var)
