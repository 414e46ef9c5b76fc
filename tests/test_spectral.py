import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import utamp.spectral as spectral
from utamp import (
    BernoulliGaussianPrior,
    EnsembleSpec,
    GaussianPrior,
    LinearModel,
    UnsupportedPriorError,
    VarianceFixedPoint,
    certify,
    circulant_factorize,
    closed_form_eigenvalues,
    eigenvalue_discrepancy,
    generate_matrix,
    numeric_iteration_matrix,
    run,
    spectral_coefficients,
    svd_factorize,
    synthesize_instance,
    variance_fixed_point,
)


# ------------------------------------------------------------- fixed point


def test_fixed_point_golden_ratio():
    # flat unit spectrum, sigma2 = 1, unit prior variance: the recursion
    # solves tau = 1 / (1 + tau), whose positive root is (sqrt(5) - 1) / 2
    fp = variance_fixed_point(np.ones(8), 1.0, GaussianPrior(), (8, 8))
    assert fp.converged
    assert abs(fp.tau_x - (np.sqrt(5.0) - 1.0) / 2.0) < 1e-12
    assert abs(fp.tau_q - (np.sqrt(5.0) + 1.0) / 2.0) < 1e-11


def test_fixed_point_satisfies_recursion():
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.1, 3.0, 12)
    prior = GaussianPrior(tau0=np.linspace(0.5, 2.5, 20))
    fp = variance_fixed_point(lam, 0.3, prior, (12, 20))
    assert fp.converged
    inv_tau_q = np.sum(lam**2 / (fp.tau_x * lam**2 + 0.3)) / 20
    assert np.isclose(1.0 / inv_tau_q, fp.tau_q, rtol=1e-10)
    tau0 = np.linspace(0.5, 2.5, 20)
    tau_x_next = np.mean(tau0 * fp.tau_q / (tau0 + fp.tau_q))
    assert np.isclose(tau_x_next, fp.tau_x, rtol=1e-10), "not a fixed point"


def test_fixed_point_zero_matrix():
    fp = variance_fixed_point(np.zeros(4), 1.0, GaussianPrior(tau0=2.0), (4, 4))
    assert fp.converged
    assert np.isinf(fp.tau_q)
    assert np.isclose(fp.tau_x, 2.0)


def test_fixed_point_input_validation():
    with pytest.raises(UnsupportedPriorError):
        variance_fixed_point(np.ones(3), 1.0, BernoulliGaussianPrior(rho=0.5), (3, 3))
    with pytest.raises(ValueError):
        variance_fixed_point(np.ones(3), 1.0, GaussianPrior(), (4, 4))
    with pytest.raises(ValueError):
        variance_fixed_point(np.ones(3), 0.0, GaussianPrior(), (3, 3))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^sigma2 must be positive and finite"):
            variance_fixed_point(np.ones(3), bad, GaussianPrior(), (3, 3))


# ------------------------------------------------------------- coefficients


def test_coefficients_hand_case():
    # tau_x = 1, lam = [1, 2], sigma2 = 1, shape (2, 3):
    # betas = [1/2, 4/5], alpha = (0.5 + 0.8) / 3
    fp = VarianceFixedPoint(tau_x=1.0, tau_q=1.0, iterations=0, converged=True)
    c = spectral_coefficients(fp, np.array([1.0, 2.0]), 1.0, (2, 3))
    assert np.allclose(c.betas, [0.5, 0.8])
    assert np.isclose(c.alpha, 1.3 / 3.0)
    assert c.shape == (2, 3)
    with pytest.raises(ValueError, match="expected 2 singular values"):
        spectral_coefficients(fp, np.array([1.0, 2.0, 3.0]), 1.0, (2, 3))


def test_alpha_equals_stepsize_ratio_at_fixed_point():
    # two characterizations of the same constant: mean of the betas, and
    # tau_x / tau_q at the fixed point
    rng = np.random.default_rng(1)
    for shape in [(10, 10), (15, 10), (10, 15)]:
        lam = rng.uniform(0.05, 2.0, min(shape))
        fp = variance_fixed_point(lam, 0.2, GaussianPrior(), shape)
        c = spectral_coefficients(fp, lam, 0.2, shape)
        assert np.isclose(c.alpha, fp.tau_x / fp.tau_q, atol=1e-10), shape


# ------------------------------------------------------------- eigenvalues


def test_closed_form_complex_pair_modulus():
    # alpha = beta = 1/2: discriminant is negative, the conjugate pair has
    # modulus sqrt(alpha * beta) = 1/2
    from utamp import SpectralCoefficients

    c = SpectralCoefficients(alpha=0.5, betas=np.array([0.5]), shape=(1, 1), tau_x=1.0, sigma2=1.0)
    eigs = closed_form_eigenvalues(c)
    assert eigs.shape == (2,)
    assert np.allclose(eigs.real, 0.25)
    assert np.allclose(np.abs(eigs), 0.5)
    assert np.allclose(sorted(eigs.imag), [-np.sqrt(0.75) / 2, np.sqrt(0.75) / 2])


def test_closed_form_zero_beta_gives_zero_and_alpha():
    from utamp import SpectralCoefficients

    c = SpectralCoefficients(alpha=0.4, betas=np.array([0.0]), shape=(1, 1), tau_x=1.0, sigma2=1.0)
    eigs = closed_form_eigenvalues(c)
    assert np.allclose(sorted(np.abs(eigs)), [0.0, 0.4])


@pytest.mark.parametrize("shape", [(6, 6), (9, 6), (6, 9)])
def test_closed_form_eigenvalue_count_and_padding(shape):
    rng = np.random.default_rng(sum(shape))
    lam = rng.uniform(0.1, 2.0, min(shape))
    fp = variance_fixed_point(lam, 0.5, GaussianPrior(), shape)
    c = spectral_coefficients(fp, lam, 0.5, shape)
    eigs = closed_form_eigenvalues(c)
    m, n = shape
    k = min(shape)
    assert eigs.shape == (m + n,)
    # measurement directions beyond the rank contribute exact zeros,
    # estimate directions beyond the rank contribute exactly alpha
    zeros = np.sum(np.isclose(eigs, 0.0, atol=1e-15))
    alphas = np.sum(np.isclose(eigs, c.alpha, atol=1e-15))
    assert zeros >= m - k
    assert alphas >= n - k


ADVERSARIAL_SPECTRA = [
    np.ones(5) * 1e6,
    np.ones(5) * 1e-6,
    np.logspace(0, -12, 8),
    np.concatenate([np.ones(3), np.zeros(4)]),
    np.array([1e8, 1.0, 1e-8]),
]


def test_spectral_radius_below_one_for_adversarial_spectra():
    for lam in ADVERSARIAL_SPECTRA:
        for sigma2 in [1e-8, 1.0, 1e6]:
            n = lam.size
            fp = variance_fixed_point(lam, sigma2, GaussianPrior(), (n, n))
            assert fp.converged, f"lam={lam}, sigma2={sigma2}"
            c = spectral_coefficients(fp, lam, sigma2, (n, n))
            rho = np.max(np.abs(closed_form_eigenvalues(c)))
            assert rho < 1.0, f"lam={lam}, sigma2={sigma2}: rho={rho}"


def iterated_fixed_point(lam, sigma2, tau0, n, tol=1e-14, max_iters=1000):
    """The stepsize recursion iterated from tau_x = tau0 until the relative
    change drops to tol; returns (tau_x, converged)."""
    lam2 = np.abs(lam) ** 2
    tau_x = tau0
    for _ in range(max_iters):
        tau_q = n / np.sum(lam2 / (tau_x * lam2 + sigma2))
        nxt = tau0 * tau_q / (tau0 + tau_q)
        done = abs(nxt - tau_x) <= tol * tau_x
        tau_x = nxt
        if done:
            return tau_x, True
    return tau_x, False


def test_fixed_point_root_matches_iteration_where_it_converges():
    # the bracketed root agrees with the plain iteration wherever that
    # settles quickly; slow cases are pinned by the closed form below
    checked = 0
    for lam in ADVERSARIAL_SPECTRA:
        for sigma2 in [1e-8, 1.0, 1e6]:
            n = lam.size
            want, converged = iterated_fixed_point(lam, sigma2, 1.0, n)
            if converged:
                fp = variance_fixed_point(lam, sigma2, GaussianPrior(), (n, n))
                assert fp.tau_x == pytest.approx(want, rel=1e-12), f"lam={lam}, sigma2={sigma2}"
                checked += 1
    assert checked >= 12


def flat_spectrum_root(lam, sigma2):
    # flat square spectrum, unit prior: tau_q = tau_x + e with e = sigma2 /
    # lam^2, so tau_x = tau_q / (1 + tau_q) is the root of
    # tau_x^2 + e tau_x - e = 0, written without cancellation
    e = sigma2 / lam**2
    return 2.0 * e / (e + np.sqrt(e * e + 4.0 * e))


@pytest.mark.parametrize("lam,sigma2", [(1e6, 1e-8), (1e6, 1.0), (1e6, 1e6), (1.0, 1e-8), (1e-6, 1.0)])
def test_fixed_point_flat_spectrum_closed_form(lam, sigma2):
    fp = variance_fixed_point(np.full(5, lam), sigma2, GaussianPrior(), (5, 5))
    assert fp.converged
    assert fp.tau_x == pytest.approx(flat_spectrum_root(lam, sigma2), rel=1e-12)
    assert fp.iterations <= 64


def test_certify_high_snr_square_spectrum_converges():
    # iterating the stepsize recursion converges only sublinearly here
    cert = certify(1e6 * np.eye(5), GaussianPrior(), sigma2=1e-8)
    assert cert.fixed_point.tau_x == pytest.approx(flat_spectrum_root(1e6, 1e-8), rel=1e-12)
    assert cert.fixed_point.converged
    assert cert.converges
    assert "verdict: converges" in cert.report()


@given(
    st.sampled_from([(12, 12), (20, 8), (8, 20)]),
    st.lists(st.floats(-8.0, 8.0), min_size=20, max_size=20),
    st.floats(-10.0, 6.0),
    st.floats(-2.0, 2.0),
)
def test_fixed_point_satisfies_recursion_across_spectra(shape, log_lam, log_sigma2, log_tau0):
    m, n = shape
    lam = 10.0 ** np.array(log_lam[: min(shape)])
    sigma2, tau0 = 10.0**log_sigma2, 10.0**log_tau0
    fp = variance_fixed_point(lam, sigma2, GaussianPrior(tau0=tau0), shape)
    assert fp.converged and fp.iterations <= 64
    assert fp.tau_q == pytest.approx(n / np.sum(lam**2 / (fp.tau_x * lam**2 + sigma2)), rel=1e-12)
    assert fp.tau_x == pytest.approx(tau0 * fp.tau_q / (tau0 + fp.tau_q), rel=1e-12)


def iteration_matrix_oracle(A, tau_x, alpha, sigma2):
    """Dense iteration matrix assembled from scratch with full matrices,
    independent of the library's diagonal shortcuts."""
    m, n = A.shape
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    lam = np.zeros((m, n), dtype=complex)
    lam[: min(m, n), : min(m, n)] = np.diag(s)
    d = np.linalg.inv(tau_x * lam @ lam.conj().T + sigma2 * np.eye(m))
    lv = lam @ vh
    top = np.hstack([tau_x * d @ lam @ lam.conj().T, -d @ lv])
    bot = np.hstack(
        [tau_x**2 * lv.conj().T @ d @ lam @ lam.conj().T, alpha * np.eye(n) - tau_x * lv.conj().T @ d @ lv]
    )
    return np.vstack([top, bot])


@pytest.mark.parametrize(
    "kind,shape",
    [
        ("iid_gaussian", (8, 8)),
        ("iid_gaussian", (12, 8)),
        ("iid_gaussian", (8, 12)),
        ("ill_conditioned", (10, 10)),
        ("rank_deficient", (10, 7)),
    ],
)
def test_numeric_matrix_matches_independent_construction(kind, shape):
    A = generate_matrix(EnsembleSpec(kind=kind, M=shape[0], N=shape[1], seed=5))
    fact = svd_factorize(A)
    prior = GaussianPrior()
    fp = variance_fixed_point(fact.lam, 0.3, prior, shape)
    c = spectral_coefficients(fp, fact.lam, 0.3, shape)
    lib = numeric_iteration_matrix(fact, c, prior)
    oracle = iteration_matrix_oracle(A, fp.tau_x, c.alpha, 0.3)
    # the step holds s on the k rows that Lam reaches; the oracle's rows and
    # columns of the measurement directions past k are zero
    (m, n), k = shape, min(shape)
    keep, dropped = np.r_[0:k, m : m + n], np.r_[k:m]
    assert lib.shape == (k + n, k + n)
    assert np.allclose(lib, oracle[np.ix_(keep, keep)], atol=1e-10), f"{kind} {shape}"
    assert np.max(np.abs(oracle[dropped]), initial=0.0) <= 1e-12
    assert np.max(np.abs(oracle[:, dropped]), initial=0.0) <= 1e-12


def test_closed_form_matches_dense_eigendecomposition_complex():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(12)
    fact = circulant_factorize(c)  # complex eigenvalues, complex V
    prior = GaussianPrior()
    fp = variance_fixed_point(fact.lam, 0.05, prior, (12, 12))
    coeff = spectral_coefficients(fp, fact.lam, 0.05, (12, 12))
    closed = closed_form_eigenvalues(coeff)
    numeric = np.linalg.eigvals(numeric_iteration_matrix(fact, coeff, prior))
    assert eigenvalue_discrepancy(closed, numeric) < 1e-10


def test_certify_needs_one_prior_variance():
    # the closed form has one denoiser gain; a tau0 per entry gives each its
    # own, and then the step's Jacobian, which run() follows, contracts more
    # slowly than the closed form would certify
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 20)) / np.sqrt(30)
    prior = GaussianPrior(tau0=np.linspace(0.2, 3, 20))
    with pytest.raises(UnsupportedPriorError, match="one prior variance"):
        certify(A, prior, sigma2=0.05)
    fact = svd_factorize(A)
    fp = variance_fixed_point(fact.lam, 0.05, prior, (30, 20))
    coeff = spectral_coefficients(fp, fact.lam, 0.05, (30, 20))
    closed = np.max(np.abs(closed_form_eigenvalues(coeff)))
    jacobian = np.max(np.abs(np.linalg.eigvals(numeric_iteration_matrix(fact, coeff, prior))))
    assert closed == pytest.approx(0.836, abs=1e-3)
    assert jacobian == pytest.approx(0.896, abs=1e-3)
    # run()'s iterates shrink at the Jacobian's rate (the window averages
    # out the oscillation of its complex eigenvalues)
    model = synthesize_instance(A, prior, sigma2=0.05, seed=1)
    rel = run("utamp", model, prior, max_iters=200, x_tol=1e-13)[1].column("rel_change")
    rate = (rel[200] / rel[50]) ** (1 / 150)
    assert abs(rate - jacobian) < 0.01 and rate - closed > 0.05


def _unitary(rng, n, complex_valued):
    z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_valued else 0)
    return np.linalg.qr(z)[0]


@given(
    st.sampled_from(["svd", "circulant"]),
    st.integers(1, 12),
    st.integers(1, 12),
    st.booleans(),
    st.lists(st.one_of(st.just(None), st.floats(-12.0, 0.0)), min_size=12, max_size=12),
    st.floats(-10.0, 6.0),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_closed_form_is_the_jacobian_of_the_step(kind, m, n, complex_valued, log_s, log_sigma2, log_tau0, seed):
    # the linearized theorem: at the stepsize fixed point the eigenvalues of
    # ut_amp_step's Jacobian are the closed form's, and all lie inside the
    # unit circle; s is log-uniform down to 1e-12, None an exact zero
    rng = np.random.default_rng(seed)
    if kind == "circulant":
        taps = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_valued else 0)
        target = circulant_factorize(taps)
    else:
        k = min(m, n)
        s = np.array([0.0 if e is None else 10.0**e for e in log_s[:k]])
        target = (_unitary(rng, m, complex_valued)[:, :k] * s) @ _unitary(rng, n, complex_valued)[:k]
    cert = certify(target, GaussianPrior(tau0=10.0**log_tau0), sigma2=10.0**log_sigma2, check_numeric=True)
    if cert.fixed_point.converged:
        assert cert.numeric_discrepancy <= 1e-10
        assert cert.spectral_radius < 1.0


# ------------------------------------------------------------- certify


@pytest.mark.parametrize("shape", [(12, 8), (24, 8), (30, 20)])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_numeric_check_runs_on_the_k_rows_that_lam_reaches(shape, complex_valued):
    # gesdd's route and the QR route: the step's Jacobian is (k + N)-square,
    # and with the M - k zeros of the other measurement directions its
    # eigenvalues are the closed form's M + N
    rng = np.random.default_rng(8)
    (m, n), k = shape, min(shape)
    A = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_valued else 0)
    fact = svd_factorize(A / np.sqrt(m))
    prior = GaussianPrior()
    cert = certify(fact, prior, sigma2=0.05, check_numeric=True)
    assert numeric_iteration_matrix(fact, cert.coefficients, prior).shape == (k + n, k + n)
    assert cert.eigenvalues.size == m + n
    assert cert.numeric_discrepancy <= 1e-12


def test_certify_accepts_model_factorization_and_array():
    A = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=10, N=8, seed=2))
    prior = GaussianPrior()
    model = LinearModel(A, np.zeros(10) + 1.0, 0.25)
    c1 = certify(model, prior)
    c2 = certify(svd_factorize(A), prior, sigma2=0.25)
    c3 = certify(A, prior, sigma2=0.25)
    for c in (c2, c3):
        assert np.isclose(c.spectral_radius, c1.spectral_radius, atol=1e-12)
    assert c1.converges
    assert c1.case == "tall"
    # model's own sigma2 can be overridden
    c4 = certify(model, prior, sigma2=1e-6)
    assert c4.spectral_radius != c1.spectral_radius


def test_certify_requires_sigma2_for_bare_targets():
    A = np.eye(3)
    with pytest.raises(ValueError):
        certify(A, GaussianPrior())
    with pytest.raises(ValueError):
        certify(svd_factorize(A), GaussianPrior())


def test_certify_rejects_non_gaussian_prior():
    with pytest.raises(UnsupportedPriorError):
        certify(np.eye(3), BernoulliGaussianPrior(rho=0.5), sigma2=0.1)


def test_certify_zero_matrix():
    c = certify(np.zeros((4, 6)), GaussianPrior(), sigma2=0.1)
    assert c.converges
    assert c.spectral_radius == 0.0
    assert np.isinf(c.fixed_point.tau_q)


def test_certify_numeric_check_and_report():
    A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=12, N=9, seed=3))
    cert = certify(A, GaussianPrior(), sigma2=0.02, check_numeric=True)
    assert cert.numeric_discrepancy is not None
    assert cert.numeric_discrepancy < 1e-8
    text = cert.report()
    for needle in ["12 x 9", "tall", "alpha", "spectral radius", "discrepancy", "converges"]:
        assert needle in text, f"report is missing {needle!r}:\n{text}"
    # without the flag the field stays unset
    assert certify(A, GaussianPrior(), sigma2=0.02).numeric_discrepancy is None


def test_certify_unconverged_fixed_point_is_not_a_verdict(monkeypatch):
    # a radius taken at a stepsize fixed point that did not converge
    # certifies nothing, however small it is
    def unconverged(lam, sigma2, prior, shape):
        return VarianceFixedPoint(tau_x=0.5, tau_q=1.0, iterations=200, converged=False)

    monkeypatch.setattr(spectral, "variance_fixed_point", unconverged)
    cert = certify(np.eye(5), GaussianPrior(), sigma2=1.0)
    assert cert.spectral_radius < 1.0
    assert not cert.fixed_point.converged
    assert not cert.converges
    text = cert.report()
    assert "NOT converged" in text
    assert "verdict: NOT certified (stepsize fixed point did not converge)" in text


def test_certified_radius_is_at_most_sqrt_alpha():
    # |roots| <= sqrt(alpha * beta_i) <= sqrt(alpha) since beta < 1, and the
    # padding eigenvalues are 0 and alpha <= sqrt(alpha)
    rng = np.random.default_rng(11)
    for trial in range(10):
        m, n = rng.integers(4, 20, 2)
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        cert = certify(A, GaussianPrior(tau0=float(rng.uniform(0.2, 4.0))), sigma2=float(rng.uniform(1e-4, 1.0)))
        alpha = cert.coefficients.alpha
        assert cert.spectral_radius <= np.sqrt(alpha) + 1e-12
        assert cert.converges


# ------------------------------------------------------------- matching


def test_eigenvalue_discrepancy_matching():
    a = np.array([1.0 + 1j, 2.0, 3.0 - 0.5j])
    perm = a[[2, 0, 1]]
    assert eigenvalue_discrepancy(a, perm) < 1e-15
    shifted = perm + 1e-3
    assert np.isclose(eigenvalue_discrepancy(a, shifted), 1e-3, rtol=1e-6)
    with pytest.raises(ValueError):
        eigenvalue_discrepancy(a, a[:2])
