import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from utamp import (
    BernoulliGaussianPrior,
    GaussianPrior,
    bg_denoise,
    gaussian_denoise,
)
from utamp import _threads


# ---------------------------------------------------------------- oracles


def gauss_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def gaussian_posterior_quadrature(q, tau_q, x0, tau0):
    """Posterior moments of x ~ N(x0, tau0) given q = x + N(0, tau_q),
    by direct numerical integration."""
    lo = min(q, x0) - 12.0 * np.sqrt(tau0 + tau_q)
    hi = max(q, x0) + 12.0 * np.sqrt(tau0 + tau_q)

    def weight(x):
        return gauss_pdf(x, x0, tau0) * gauss_pdf(q, x, tau_q)

    z = quad(weight, lo, hi, limit=200)[0]
    m = quad(lambda x: x * weight(x), lo, hi, limit=200)[0] / z
    e2 = quad(lambda x: x * x * weight(x), lo, hi, limit=200)[0] / z
    return m, e2 - m * m


def bg_posterior_quadrature(q, tau_q, rho, mu, v):
    """Spike-and-slab posterior moments; the point mass at zero is handled
    analytically, the slab by quadrature."""
    lo = min(q, mu) - 12.0 * np.sqrt(v + tau_q)
    hi = max(q, mu) + 12.0 * np.sqrt(v + tau_q)

    def slab_weight(x):
        return gauss_pdf(x, mu, v) * gauss_pdf(q, x, tau_q)

    z_slab = quad(slab_weight, lo, hi, limit=200)[0]
    z = (1.0 - rho) * gauss_pdf(q, 0.0, tau_q) + rho * z_slab
    m1 = rho * quad(lambda x: x * slab_weight(x), lo, hi, limit=200)[0] / z
    m2 = rho * quad(lambda x: x * x * slab_weight(x), lo, hi, limit=200)[0] / z
    return m1, m2 - m1 * m1


# ---------------------------------------------------------------- gaussian


def test_gaussian_denoise_known_values():
    # q = 2, tau_q = 0.5, prior N(1, 2): mean 1.8, variance 0.4
    out = gaussian_denoise(np.array([2.0]), 0.5, GaussianPrior(x0=1.0, tau0=2.0))
    assert np.isclose(out.mean[0], 1.8)
    assert np.isclose(out.var[0], 0.4)


def test_gaussian_denoise_matches_quadrature():
    prior = GaussianPrior(x0=0.3, tau0=1.7)
    qs = np.array([-3.0, -0.2, 0.0, 1.4, 8.0])
    out = gaussian_denoise(qs, 0.6, prior)
    for i, q in enumerate(qs):
        m, var = gaussian_posterior_quadrature(q, 0.6, 0.3, 1.7)
        assert np.isclose(out.mean[i], m, atol=1e-10), f"mean mismatch at q={q}"
        assert np.isclose(out.var[i], var, atol=1e-10), f"var mismatch at q={q}"


def test_gaussian_denoise_vector_tau_q():
    prior = GaussianPrior(x0=0.0, tau0=2.0)
    q = np.array([1.0, 1.0, 1.0])
    tau_q = np.array([0.5, 2.0, np.inf])
    out = gaussian_denoise(q, tau_q, prior)
    assert np.allclose(out.mean, [2.0 / 2.5, 0.5, 0.0])
    assert np.allclose(out.var, [2.0 * 0.5 / 2.5, 1.0, 2.0])


def test_gaussian_denoise_infinite_tau_q_returns_prior():
    prior = GaussianPrior(x0=1.5, tau0=0.7)
    out = gaussian_denoise(np.array([99.0, -99.0]), np.inf, prior)
    assert np.allclose(out.mean, 1.5)
    assert np.allclose(out.var, 0.7)


def test_gaussian_denoise_heterogeneous_prior():
    prior = GaussianPrior(x0=np.array([0.0, 1.0]), tau0=np.array([1.0, 4.0]))
    out = gaussian_denoise(np.array([2.0, 2.0]), 1.0, prior)
    assert np.allclose(out.mean, [1.0, 1.0 + 4.0 / 5.0 * 1.0])
    assert np.allclose(out.var, [0.5, 0.8])


def test_gaussian_prior_validation():
    with pytest.raises(ValueError):
        GaussianPrior(tau0=0.0)
    with pytest.raises(ValueError):
        GaussianPrior(tau0=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        gaussian_denoise(np.ones(2), -1.0, GaussianPrior())
    for bad in (np.nan, np.inf, [0.0, -np.inf], complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="^x0 entries must be finite"):
            GaussianPrior(x0=bad)
    with pytest.raises(ValueError):
        gaussian_denoise(np.ones(2), np.ones(3), GaussianPrior())


# ---------------------------------------------------------------- spike-slab


def test_bg_denoise_matches_quadrature():
    prior = BernoulliGaussianPrior(rho=0.2, mu=0.4, v=1.3)
    tau_q = 0.35
    qs = np.array([-2.5, -0.6, 0.0, 0.3, 1.1, 4.0])
    out = bg_denoise(qs, tau_q, prior)
    for i, q in enumerate(qs):
        m, var = bg_posterior_quadrature(q, tau_q, 0.2, 0.4, 1.3)
        assert np.isclose(out.mean[i], m, atol=1e-8), f"mean mismatch at q={q}"
        assert np.isclose(out.var[i], var, atol=1e-8), f"var mismatch at q={q}"


def test_bg_denoise_variance_is_tau_q_times_derivative():
    # posterior variance equals tau_q * d(mean)/dq: finite-difference check
    prior = BernoulliGaussianPrior(rho=0.15, mu=-0.2, v=0.9)
    tau_q = 0.4
    h = 1e-6
    for q in [-1.3, 0.05, 0.8, 2.7]:
        up = bg_denoise(np.array([q + h]), tau_q, prior).mean[0]
        dn = bg_denoise(np.array([q - h]), tau_q, prior).mean[0]
        var = bg_denoise(np.array([q]), tau_q, prior).var[0]
        assert np.isclose(var, tau_q * (up - dn) / (2 * h), atol=1e-5), f"q={q}"


def test_gaussian_denoise_variance_is_tau_q_times_derivative():
    prior = GaussianPrior(x0=0.1, tau0=2.3)
    tau_q = 0.7
    h = 1e-6
    up = gaussian_denoise(np.array([1.0 + h]), tau_q, prior).mean[0]
    dn = gaussian_denoise(np.array([1.0 - h]), tau_q, prior).mean[0]
    var = gaussian_denoise(np.array([1.0]), tau_q, prior).var[0]
    assert np.isclose(var, tau_q * (up - dn) / (2 * h), atol=1e-8)


def test_bg_denoise_endpoints():
    q = np.array([0.7, -1.2])
    all_spike = bg_denoise(q, 0.5, BernoulliGaussianPrior(rho=0.0))
    assert np.allclose(all_spike.mean, 0.0)
    assert np.allclose(all_spike.var, 0.0)
    all_slab = bg_denoise(q, 0.5, BernoulliGaussianPrior(rho=1.0, mu=0.2, v=1.5))
    ref = gaussian_denoise(q, 0.5, GaussianPrior(x0=0.2, tau0=1.5))
    assert np.allclose(all_slab.mean, ref.mean)
    assert np.allclose(all_slab.var, ref.var)


def test_bg_denoise_extreme_inputs_stay_finite():
    prior = BernoulliGaussianPrior(rho=0.1, mu=0.0, v=1.0)
    q = np.array([-1e8, -30.0, 0.0, 30.0, 1e8])
    out = bg_denoise(q, 0.5, prior)
    assert np.all(np.isfinite(out.mean))
    assert np.all(np.isfinite(out.var))
    # huge |q| means certainly active: posterior tracks the slab update
    gain = 1.0 / (1.0 + 0.5)
    assert np.isclose(out.mean[-1], gain * 1e8, rtol=1e-12)


def test_bg_denoise_infinite_tau_q_returns_prior():
    prior = BernoulliGaussianPrior(rho=0.3, mu=0.5, v=2.0)
    out = bg_denoise(np.array([4.0, -4.0]), np.inf, prior)
    assert np.allclose(out.mean, prior.mean_vector(2))
    assert np.allclose(out.var, prior.variance_vector(2))
    mixed = bg_denoise(np.array([4.0, -4.0]), np.array([0.5, np.inf]), prior)
    assert np.isclose(mixed.mean[1], 0.3 * 0.5)


def test_bg_complex_rotation_equivariance():
    # with mu = 0 the circular slab makes the posterior mean equivariant and
    # the variance invariant under phase rotation of q
    prior = BernoulliGaussianPrior(rho=0.25, mu=0.0, v=1.0, complex_valued=True)
    q = np.array([0.8 + 0.3j, -1.1 + 2.0j])
    phase = np.exp(1j * 0.7)
    base = bg_denoise(q, 0.6, prior)
    rot = bg_denoise(phase * q, 0.6, prior)
    assert np.allclose(rot.mean, phase * base.mean, atol=1e-12)
    assert np.allclose(rot.var, base.var, atol=1e-12)


def test_bg_complex_matches_hermite_quadrature():
    # circular complex slab: integrate over the complex plane with a
    # Gauss-Hermite product rule
    rho, mu, v, tau_q = 0.3, 0.2 + 0.1j, 1.4, 0.5
    prior = BernoulliGaussianPrior(rho=rho, mu=mu, v=v, complex_valued=True)
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    u1, u2 = np.meshgrid(nodes, nodes)
    w = np.outer(weights, weights) / (2.0 * np.pi)
    x = mu + np.sqrt(v / 2.0) * (u1 + 1j * u2)  # samples of the slab

    def noise_pdf(e):
        return np.exp(-np.abs(e) ** 2 / tau_q) / (np.pi * tau_q)

    for q in [0.4 - 0.9j, 1.5 + 0.2j]:
        like = noise_pdf(q - x)
        z_slab = np.sum(w * like)
        z = (1 - rho) * noise_pdf(q) + rho * z_slab
        m = rho * np.sum(w * x * like) / z
        e2 = rho * np.sum(w * np.abs(x) ** 2 * like) / z
        out = bg_denoise(np.array([q]), tau_q, prior)
        assert np.isclose(out.mean[0], m, atol=1e-8), f"q={q}"
        assert np.isclose(out.var[0], e2 - np.abs(m) ** 2, atol=1e-8), f"q={q}"


def test_bg_prior_validation():
    with pytest.raises(ValueError):
        BernoulliGaussianPrior(rho=-0.1)
    with pytest.raises(ValueError):
        BernoulliGaussianPrior(rho=1.2)
    with pytest.raises(ValueError):
        BernoulliGaussianPrior(rho=0.5, v=0.0)
    with pytest.raises(ValueError, match="^slab variance v must be positive and finite"):
        BernoulliGaussianPrior(rho=0.5, v=np.inf)
    for bad in (np.nan, np.inf, complex(1.0, np.inf)):
        with pytest.raises(ValueError, match="^slab mean mu must be finite"):
            BernoulliGaussianPrior(rho=0.5, mu=bad)


# ---------------------------------------------------------------- shared


def test_prior_sampling_moments():
    rng = np.random.default_rng(42)
    g = GaussianPrior(x0=2.0, tau0=0.5).sample(200000, rng)
    assert abs(np.mean(g) - 2.0) < 0.01
    assert abs(np.var(g) - 0.5) < 0.01

    bg = BernoulliGaussianPrior(rho=0.2, mu=1.0, v=0.3)
    s = bg.sample(200000, rng)
    assert abs(np.mean(s != 0) - 0.2) < 0.005
    assert abs(np.mean(s) - 0.2) < 0.01
    assert abs(np.var(s) - bg.variance_vector(1)[0]) < 0.01


def test_complex_prior_sampling():
    rng = np.random.default_rng(43)
    g = GaussianPrior(x0=1.0 + 1.0j, tau0=2.0).sample(200000, rng)
    assert np.iscomplexobj(g)
    assert abs(np.mean(g) - (1 + 1j)) < 0.02
    assert abs(np.mean(np.abs(g - np.mean(g)) ** 2) - 2.0) < 0.02
    # real and imaginary parts carry half the variance each
    assert abs(np.var(g.real) - 1.0) < 0.02


# ---------------------------------------------------------------- properties
#
# The oracles below are the direct per-element posterior formulas
# (spike-and-slab log odds as the difference of the two log marginal
# likelihoods), evaluated in 60-digit decimal arithmetic.  In float64 those
# formulas cancel catastrophically for large |q| and tau_q (|q|^2 / tau_q
# against |q - mu|^2 / (v + tau_q)), so only an exact evaluation can check
# the fused library code to 1e-12.

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
RTOL = 1e-12
ATOL = 1e-290  # below this the exact posterior mean is subnormal


def _decimal_parts(z):
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def _exact_elementwise(q, tau_q, posterior):
    """Map posterior(qr, qi, tau_q or None) -> (mean_re, mean_im, var) over
    the elements in 60-digit arithmetic; tau_q is None when infinite."""
    tau_q = np.broadcast_to(np.asarray(tau_q, dtype=float), q.shape)
    mean = np.zeros(q.shape, dtype=complex)
    var = np.zeros(q.shape)
    with localcontext() as ctx:
        ctx.prec = 60
        for i, (qq, tq) in enumerate(zip(q, tau_q)):
            mr, mi, vv = posterior(*_decimal_parts(qq), None if np.isinf(tq) else Decimal(tq))
            mean[i] = complex(float(mr), float(mi))
            var[i] = float(vv)
    return mean, var


def gaussian_exact(q, tau_q, x0, tau0):
    x0r, x0i = _decimal_parts(x0)
    tau0 = Decimal(tau0)

    def posterior(qr, qi, tq):
        if tq is None:
            return x0r, x0i, tau0
        gain = tau0 / (tau0 + tq)
        return x0r + gain * (qr - x0r), x0i + gain * (qi - x0i), tau0 * tq / (tau0 + tq)

    return _exact_elementwise(q, tau_q, posterior)


def bg_exact(q, tau_q, rho, mu, v, complex_valued):
    rho, v = Decimal(rho), Decimal(v)
    mur, mui = _decimal_parts(mu)

    def log_gauss(mag2, variance):
        if complex_valued:
            return -(_PI * variance).ln() - mag2 / variance
        return -(2 * _PI * variance).ln() / 2 - mag2 / (2 * variance)

    def posterior(qr, qi, tq):
        t = rho.ln() - (1 - rho).ln()
        if tq is None:
            mr, mi, v_act = mur, mui, v
        else:
            mr, mi = (v * qr + tq * mur) / (v + tq), (v * qi + tq * mui) / (v + tq)
            v_act = v * tq / (v + tq)
            t += log_gauss((qr - mur) ** 2 + (qi - mui) ** 2, v + tq) - log_gauss(qr**2 + qi**2, tq)
        pi = 1 / (1 + (-t).exp()) if t >= 0 else t.exp() / (1 + t.exp())
        return pi * mr, pi * mi, pi * v_act + pi * (1 - pi) * (mr**2 + mi**2)

    return _exact_elementwise(q, tau_q, posterior)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


TAU_Q = st.one_of(_log_uniform(1e-12, 1e12), st.just(np.inf))
COORD = st.floats(-1e8, 1e8)


@st.composite
def observations(draw):
    """(q, tau_q): real or complex q with |q| up to about 1e8, and tau_q a
    log-uniform scalar in [1e-12, 1e12], inf, or a mixed vector of those."""
    n = draw(st.integers(1, 6))
    cplx = draw(st.booleans())
    re = draw(st.lists(COORD, min_size=n, max_size=n))
    q = np.array(re)
    if cplx:
        q = q + 1j * np.array(draw(st.lists(COORD, min_size=n, max_size=n)))
    tau_q = draw(st.one_of(TAU_Q, st.lists(TAU_Q, min_size=n, max_size=n).map(np.array)))
    return q, tau_q


def _slab_mean(complex_valued):
    real = st.floats(-3.0, 3.0)
    if complex_valued:
        return st.one_of(st.just(0.0), st.builds(complex, real, real))
    return st.one_of(st.just(0.0), real)


@st.composite
def bg_priors(draw, complex_valued):
    return BernoulliGaussianPrior(
        rho=draw(st.floats(1e-6, 1.0 - 1e-6)),
        mu=draw(_slab_mean(complex_valued)),
        v=draw(_log_uniform(0.1, 10.0)),
        complex_valued=complex_valued,
    )


def _check_scalar_broadcast(denoise, q, tau_q, prior):
    # a scalar tau_q is the same as its length-n copy
    if np.ndim(tau_q) == 0:
        full = denoise(q, np.full(q.shape, tau_q), prior)
        out = denoise(q, tau_q, prior)
        np.testing.assert_allclose(out.mean, full.mean, rtol=1e-15, atol=ATOL)
        np.testing.assert_allclose(out.var, full.var, rtol=1e-15, atol=ATOL)


def _check_sane(out, n):
    assert out.mean.shape == (n,) and out.var.shape == (n,)
    assert np.all(np.isfinite(out.mean)) and np.all(np.isfinite(out.var))
    assert np.all(out.var >= 0)


@given(observations(), st.data())
def test_bg_denoise_matches_exact_posterior(obs, data):
    q, tau_q = obs
    prior = data.draw(bg_priors(np.iscomplexobj(q)))
    out = bg_denoise(q, tau_q, prior)
    _check_sane(out, q.size)
    mean, var = bg_exact(q, tau_q, prior.rho, prior.mu, prior.v, prior.complex_valued)
    np.testing.assert_allclose(out.mean, mean if np.iscomplexobj(out.mean) else mean.real, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(out.var, var, rtol=RTOL, atol=ATOL)
    _check_scalar_broadcast(bg_denoise, q, tau_q, prior)


@given(observations(), st.data())
def test_gaussian_denoise_matches_exact_posterior(obs, data):
    q, tau_q = obs
    x0 = data.draw(_slab_mean(np.iscomplexobj(q)))
    prior = GaussianPrior(x0=x0, tau0=data.draw(_log_uniform(1e-2, 1e2)))
    out = gaussian_denoise(q, tau_q, prior)
    _check_sane(out, q.size)
    mean, var = gaussian_exact(q, tau_q, x0, float(prior.tau0))
    np.testing.assert_allclose(out.mean, mean if np.iscomplexobj(out.mean) else mean.real, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(out.var, var, rtol=RTOL, atol=ATOL)
    _check_scalar_broadcast(gaussian_denoise, q, tau_q, prior)


def test_check_tau_q_rejects_bad_stepsizes():
    q = np.ones(3)
    for bad in [np.nan, 0.0, -1.0, np.array([1.0, np.nan, 1.0]), np.array([1.0, 0.0, 1.0])]:
        for denoise, prior in [(gaussian_denoise, GaussianPrior()), (bg_denoise, BernoulliGaussianPrior(rho=0.3))]:
            with pytest.raises(ValueError):
                denoise(q, bad, prior)
    with pytest.raises(ValueError):
        bg_denoise(q, np.ones((3, 1)), BernoulliGaussianPrior(rho=0.3))


# ---------------------------------------------------------------- allocation


@pytest.mark.parametrize(
    "denoise,prior,limit",
    [(bg_denoise, BernoulliGaussianPrior(rho=0.1), 2), (gaussian_denoise, GaussianPrior(), 4)],
    ids=["bg", "gaussian"],
)
def test_scalar_stepsize_denoise_allocation(monkeypatch, denoise, prior, limit):
    # a scalar tau_q and scalar prior parameters are never copied to length
    # n: the peak of one call on complex q stays below limit * 16n bytes.
    # mean and var take 1.5 x 16n; bg adds two real work arrays per block
    # of 2^16 entries (0.25 x 16n here), which it held full-length before
    # (2.5 x 16n).  Each further worker adds a block's work arrays, so the
    # count is pinned.
    monkeypatch.setattr(_threads, "_workers", lambda: 1)
    n = 2**18
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        out = denoise(q, 0.3, prior)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.mean.shape == out.var.shape == (n,)
    assert peak < limit * 16 * n, f"peak {peak / (16 * n):.2f} x 16n bytes"


def test_saturated_odds_raise_no_warning_on_the_worker_threads(monkeypatch):
    # numpy's error state does not follow a block onto a worker thread, so
    # each block enters its own.  With the slab at 1e8 and tau_q = v, q =
    # -1e8 gives m = 0 and exp(-t) overflows to inf (pi = 0, the exact
    # limit); q = 1e8 gives pi = 1.  Both sit in every block.
    monkeypatch.setattr(_threads, "_workers", lambda: 2)
    n = 2**17
    q = np.tile([1e8, -1e8], n // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = bg_denoise(q, 1.0, BernoulliGaussianPrior(rho=0.1, mu=1e8))
    assert np.all(np.isfinite(out.mean)) and np.all(np.isfinite(out.var))
    assert np.array_equal(out.mean, np.where(q > 0, 1e8, 0.0))
    assert np.array_equal(out.var, np.where(q > 0, 0.5, 0.0))
