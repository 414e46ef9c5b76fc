"""Scalar-separable MMSE denoisers.

Each denoiser consumes a pseudo-observation q = x + e with e ~ N(0, tau_q)
(elementwise; tau_q may be a scalar or a per-element vector) and returns the
posterior mean and posterior variance of x under the prior.  The posterior
variance equals tau_q times the derivative of the posterior mean in q, so a
single output serves both the stepsize update and the error estimate.

A scalar tau_q (and a scalar prior parameter) stays scalar: it broadcasts
against q instead of being copied to length n, so a denoiser call costs a
few elementwise passes over q.  The output mean and var are always length n.

tau_q = +inf is the "no observation" limit and returns the prior mean and
variance; mixed finite/infinite vectors are handled per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._threads import _blockwise

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
    # a scalar comes back as a Python float, whose arithmetic costs no numpy
    # call; NaN fails the comparison, so one test rejects it too
    tau_q = np.asarray(tau_q, dtype=float)
    if tau_q.ndim == 0:
        tau_q = float(tau_q)
        positive = tau_q > 0
    elif tau_q.shape != (n,):
        raise ValueError(f"tau_q must be scalar or length-{n}, got shape {tau_q.shape}")
    else:
        positive = (tau_q > 0).all()
    if not positive:
        raise ValueError("tau_q entries must be positive (inf allowed)")
    return tau_q


def _conjugate(tau_q, tau0):
    """Gain and shrink factor (posterior over prior variance) of the
    posterior of x ~ N(x0, tau0) given q = x + N(0, tau_q): its mean is
    gain q + shrink x0 (the product taken in the mean's dtype) and its
    variance tau0 shrink.  Floats give scalars, arrays per-element values.
    tau_q = inf gives back the prior: tau0 / inf is gain 0, and the shrink
    inf / inf = nan is taken as 1 by fmin, which leaves every finite shrink
    (at most 1) alone."""
    with np.errstate(invalid="ignore"):
        return tau0 / (tau0 + tau_q), np.fmin(tau_q / (tau0 + tau_q), 1.0)


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
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 entries must be finite")
        if np.iscomplexobj(self.x0):
            self.complex_valued = True

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
    x0, tau0 = prior.x0, prior.tau0
    out = DenoiserOutput(mean=np.empty(n, np.result_type(q, x0, np.float64)), var=np.empty(n))
    scalar = _conjugate(tau_q, float(tau0)) if isinstance(tau_q, float) and tau0.ndim == 0 else None

    def block(b):
        x0_b, tau0_b = (a[b] if a.ndim else a for a in (x0, tau0))
        tau_q_b = tau_q if isinstance(tau_q, float) else tau_q[b]
        gain, shrink = scalar if scalar is not None else _conjugate(tau_q_b, tau0_b)
        mean = out.mean[b]
        np.multiply(gain, q[b], out=mean, dtype=mean.dtype)
        mean += shrink * x0_b
        np.multiply(tau0_b, shrink, out=out.var[b])

    _blockwise(block, n)
    return out


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
        if not 0 < self.v < np.inf:
            raise ValueError(f"slab variance v must be positive and finite, got {self.v}")
        if isinstance(self.mu, complex) and self.mu.imag != 0:
            self.complex_valued = True
        else:
            self.mu = complex(self.mu).real if not self.complex_valued else complex(self.mu)
        if not np.isfinite(self.mu):
            raise ValueError(f"slab mean mu must be finite, got {self.mu}")

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


def bg_denoise(q, tau_q, prior: BernoulliGaussianPrior) -> DenoiserOutput:
    """Spike-and-slab posterior.

    Conditional on activity the update is the conjugate Gaussian one,
    N(m, v s) with shrink s = tau_q / (v + tau_q).  The activation
    probability is the sigmoid of the log odds of the two marginal
    likelihoods q ~ N(mu, v + tau_q) versus q ~ N(0, tau_q).  Completing the
    square writes them through the same |m|^2 the variance needs:

        t = log(rho / (1 - rho)) + k (log s - |mu|^2 / v + |m|^2 / (v s)),

    with k = 1/2 for real and 1 for circular complex q.  The normalizers
    are scalars when tau_q is, and extreme odds saturate the activation to
    exactly 0 or 1 instead of overflowing.
    """
    q = np.asarray(q)
    n = q.shape[0]
    tau_q = _check_tau_q(tau_q, n)
    rho, mu, v = prior.rho, prior.mu, prior.v
    if rho == 0.0:
        return DenoiserOutput(mean=np.zeros(n, dtype=q.dtype), var=np.zeros(n))
    k = 1.0 if prior.complex_valued else 0.5

    def slab(tq):
        # gain, shrink and variance v s of the slab's conjugate update, and
        # the scale and offset of -t = offset - scale |m|^2
        gain, shrink = _conjugate(tq, v)
        v_act = v * shrink
        if rho == 1.0:
            return gain, shrink, v_act, None, None
        return gain, shrink, v_act, k / v_act, np.log1p(-rho) - np.log(rho) - k * (np.log(shrink) - abs(mu) ** 2 / v)

    out = DenoiserOutput(mean=np.empty(n, np.result_type(q, mu, np.float64)), var=np.empty(n))
    scalar = slab(tau_q) if isinstance(tau_q, float) else None

    def block(b):
        gain, shrink, v_act, scale, offset = scalar if scalar is not None else slab(tau_q[b])
        m_act, var = out.mean[b], out.var[b]
        np.multiply(gain, q[b], out=m_act, dtype=m_act.dtype)
        m_act += shrink * mu
        m2 = np.abs(m_act)
        np.square(m2, out=m2)
        if rho == 1.0:
            pi = 1.0
        else:
            # one work array holds -t, then exp(-t), then pi = 1 / (1 + exp(-t))
            pi = np.multiply(scale, m2)
            np.subtract(offset, pi, out=pi)
            # exp(-t) = inf below t = -709 gives pi = 0, the exact limit
            with np.errstate(over="ignore"):
                np.exp(pi, out=pi)
            pi += 1.0
            np.reciprocal(pi, out=pi)
        np.subtract(1.0, pi, out=var)
        var *= m2
        var += v_act
        var *= pi
        np.multiply(pi, m_act, out=m_act)

    _blockwise(block, n)
    return out
