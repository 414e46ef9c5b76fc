import numpy as np
import pytest
from scipy.integrate import quad

from utamp import (
    BernoulliGaussianPrior,
    GaussianPrior,
    bg_denoise,
    gaussian_denoise,
)


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
