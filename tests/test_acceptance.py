"""Acceptance gate: one test per headline claim, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every oracle here is computed inside the test (dense normal
equations, dense eigendecompositions, numerical quadrature, finite
differences) so the checks stay independent of the library's own shortcuts.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment

import utamp.solvers as solvers
from utamp import (
    BernoulliGaussianPrior,
    EnsembleSpec,
    GaussianPrior,
    LinearModel,
    certify,
    circulant_factorize,
    closed_form_eigenvalues,
    bg_denoise,
    gaussian_denoise,
    generate_matrix,
    initial_state,
    run,
    scalar_amp_step,
    scaled_gram_diagonal,
    spectral_coefficients,
    svd_factorize,
    synthesize_instance,
    ut_amp_step,
    variance_fixed_point,
)


def lmmse_oracle(A, y, sigma2, x0, tau0):
    lhs = A.conj().T @ A / sigma2 + np.diag(1.0 / tau0)
    rhs = A.conj().T @ y / sigma2 + x0 / tau0
    return np.linalg.solve(lhs, rhs)


# (kind, M, N, seed, sigma2, extra-knobs): every family, every shape regime
INSTANCES = [
    ("iid_gaussian", 64, 64, 0, 0.1, {}),
    ("iid_gaussian", 96, 64, 1, 0.05, {}),
    ("iid_gaussian", 64, 96, 2, 0.05, {}),
    ("iid_gaussian", 48, 48, 3, 0.01, {}),
    ("nonzero_mean", 64, 48, 4, 0.05, {}),
    ("nonzero_mean", 80, 64, 5, 0.1, {}),
    ("nonzero_mean", 48, 64, 6, 0.05, {}),
    ("ill_conditioned", 64, 48, 7, 0.05, {"condition_number": 1e3}),
    ("ill_conditioned", 64, 64, 8, 0.1, {"condition_number": 1e6}),
    ("ill_conditioned", 48, 64, 9, 0.05, {"condition_number": 1e6}),
    ("rank_deficient", 64, 48, 10, 0.05, {}),
    ("rank_deficient", 64, 64, 11, 0.1, {"rank": 16}),
    ("rank_deficient", 48, 64, 12, 0.02, {}),
    ("column_correlated", 64, 48, 13, 0.05, {}),
    ("column_correlated", 96, 64, 14, 0.1, {"correlation": 0.95}),
    ("column_correlated", 64, 64, 15, 0.05, {}),
    ("circulant", 64, 64, 16, 0.1, {}),
    ("circulant", 64, 64, 17, 0.05, {"taps": np.r_[2.0, 1.0, np.zeros(61), 1.0]}),
    ("circulant", 96, 96, 18, 0.1, {}),
    ("iid_gaussian", 32, 128, 19, 0.01, {}),
]


def make_instance(kind, m, n, seed, sigma2, kw, prior):
    A = generate_matrix(EnsembleSpec(kind=kind, M=m, N=n, seed=seed, **kw))
    return synthesize_instance(A, prior, sigma2=sigma2, seed=seed)


def test_criterion_1_transform_solver_reaches_lmmse_on_all_families():
    """Gaussian prior: the transform-domain solver converges within 500
    iterations and lands on the exact posterior, on 20 instances covering
    all six matrix families."""
    prior = GaussianPrior()
    worst_gap = 0.0
    worst_iters = 0
    for kind, m, n, seed, sigma2, kw in INSTANCES:
        model = make_instance(kind, m, n, seed, sigma2, kw, prior)
        state, trace = run("utamp", model, prior, max_iters=500, x_tol=1e-10)
        assert trace.status == "converged", f"{kind} {m}x{n} seed={seed}: {trace.status}"
        xstar = lmmse_oracle(model.A, model.y, sigma2, np.zeros(n), np.ones(n))
        gap = float(np.max(np.abs(state.x - xstar)))
        assert gap <= 1e-6, f"{kind} {m}x{n} seed={seed}: posterior gap {gap:.2e}"
        worst_gap = max(worst_gap, gap)
        worst_iters = max(worst_iters, state.t)
    print(
        f"\nPASS criterion 1: exact posterior on {len(INSTANCES)} instances, "
        f"worst gap {worst_gap:.2e} (<= 1e-6), worst iteration count {worst_iters} (<= 500)"
    )


def iteration_matrix_oracle(A, tau_x, alpha, sigma2):
    # dense from-scratch assembly with full (rectangular) matrices
    m, n = A.shape
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    lam = np.zeros((m, n), dtype=complex)
    lam[: min(m, n), : min(m, n)] = np.diag(s)
    d = np.linalg.inv(tau_x * lam @ lam.conj().T + sigma2 * np.eye(m))
    lv = lam @ vh
    top = np.hstack([tau_x * d @ lam @ lam.conj().T, -d @ lv])
    bot = np.hstack(
        [tau_x**2 * lv.conj().T @ d @ lam @ lam.conj().T,
         alpha * np.eye(n) - tau_x * lv.conj().T @ d @ lv]
    )
    return np.vstack([top, bot])


def matched_max_difference(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_criterion_2_closed_form_eigenvalues_match_dense_solver():
    """Closed-form iteration-matrix eigenvalues agree with a dense
    eigendecomposition of an independently assembled matrix, across six
    shape/conditioning regimes, to 1e-8."""
    prior = GaussianPrior()
    shapes = [
        ("square iid", generate_matrix(EnsembleSpec(kind="iid_gaussian", M=24, N=24, seed=0)), 0.1),
        ("tall iid", generate_matrix(EnsembleSpec(kind="iid_gaussian", M=36, N=24, seed=1)), 0.05),
        ("wide iid", generate_matrix(EnsembleSpec(kind="iid_gaussian", M=24, N=36, seed=2)), 0.05),
        ("rank deficient", generate_matrix(EnsembleSpec(kind="rank_deficient", M=24, N=24, seed=3)), 0.1),
        ("ill conditioned", generate_matrix(EnsembleSpec(kind="ill_conditioned", M=30, N=20, seed=4, condition_number=1e8)), 0.02),
        ("complex circulant", None, 0.05),
    ]
    worst = 0.0
    for name, A, sigma2 in shapes:
        if A is None:
            c = np.random.default_rng(5).standard_normal(24)
            fact = circulant_factorize(c)
            idx = (np.arange(24)[:, None] - np.arange(24)[None, :]) % 24
            A = c[idx].astype(complex)
        else:
            fact = svd_factorize(A)
        fp = variance_fixed_point(fact.lam, sigma2, prior, A.shape)
        coeff = spectral_coefficients(fp, fact.lam, sigma2, A.shape)
        closed = closed_form_eigenvalues(coeff)
        dense = iteration_matrix_oracle(A, fp.tau_x, coeff.alpha, sigma2)
        numeric = np.linalg.eigvals(dense)
        diff = matched_max_difference(closed, numeric)
        assert diff <= 1e-8, f"{name}: eigenvalue mismatch {diff:.2e}"
        worst = max(worst, diff)
    print(f"\nPASS criterion 2: closed-form vs dense eigenvalues on 6 regimes, worst mismatch {worst:.2e} (<= 1e-8)")


def test_criterion_3_error_contracts_at_certified_rate():
    """The observed per-iteration error contraction stays within 0.05 of the
    certified spectral radius."""
    prior = GaussianPrior()
    cases = [
        ("iid_gaussian", 64, 64, 9, 0.1, {}),
        ("iid_gaussian", 96, 64, 3, 0.05, {}),
        ("column_correlated", 64, 64, 4, 0.1, {}),
        ("ill_conditioned", 80, 64, 5, 0.2, {}),
    ]
    for kind, m, n, seed, sigma2, kw in cases:
        model = make_instance(kind, m, n, seed, sigma2, kw, prior)
        cert = certify(model, prior)
        xstar = lmmse_oracle(model.A, model.y, sigma2, np.zeros(n), np.ones(n))
        tm = model.transformed
        state = initial_state("utamp", n, tm.r.size, prior)
        errs = []
        for _ in range(120):
            state, _ = ut_amp_step(state, tm, prior)
            errs.append(float(np.linalg.norm(state.x - xstar)))
        errs = np.array(errs)
        # least-squares slope of log error over the clean decay window
        # (after the transient, before the numeric floor)
        lo = 5
        hi = int(np.argmax(errs < 1e-11 * errs[0])) or len(errs)
        t = np.arange(lo, hi)
        rate = float(np.exp(np.polyfit(t, np.log(errs[lo:hi]), 1)[0]))
        assert rate <= cert.spectral_radius + 0.05, (
            f"{kind} {m}x{n}: empirical rate {rate:.4f} vs certified {cert.spectral_radius:.4f}"
        )
    print("\nPASS criterion 3: empirical contraction within +0.05 of the certified spectral radius (4 instances)")


def test_criterion_4_scalar_solver_is_invariant_under_unitary_mixing():
    """Left-multiplying (A, y) by a unitary matrix leaves every scalar-stepsize
    iterate unchanged to 1e-12 over 50 iterations."""
    prior = GaussianPrior()
    model = make_instance("iid_gaussian", 80, 60, 7, 0.05, {}, prior)
    rng = np.random.default_rng(77)
    q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    mixed = LinearModel(q.T @ model.A, q.T @ model.y, model.sigma2, model.x_true)

    s1 = initial_state("scalar", 60, 80, prior)
    s2 = initial_state("scalar", 60, 80, prior)
    worst = 0.0
    for t in range(50):
        s1, _ = scalar_amp_step(s1, model, prior)
        s2, _ = scalar_amp_step(s2, mixed, prior)
        dx = float(np.max(np.abs(s1.x - s2.x)))
        dtau = abs(s1.tau_x - s2.tau_x)
        assert dx <= 1e-12, f"iterate {t}: estimates differ by {dx:.2e}"
        assert dtau <= 1e-12, f"iterate {t}: stepsizes differ by {dtau:.2e}"
        worst = max(worst, dx)
    print(f"\nPASS criterion 4: scalar solver invariant under unitary mixing, worst deviation {worst:.2e} (<= 1e-12, 50 iterations)")


def test_criterion_5_circulant_fft_route_equals_dense_route():
    """On a circulant matrix the FFT-backed factorization reproduces the
    dense-SVD iterates to 1e-10 and both reach the posterior to 1e-6."""
    prior = GaussianPrior()
    A = generate_matrix(EnsembleSpec(kind="circulant", M=64, N=64, seed=5))
    model = synthesize_instance(A, prior, sigma2=0.02, seed=5)

    fft_model = LinearModel(circulant_factorize(A[:, 0]), model.y, model.sigma2, model.x_true)
    tm_fft = fft_model.transformed
    tm_svd = model.transformed
    s_fft = initial_state("utamp", 64, 64, prior, dtype=complex)
    s_svd = initial_state("utamp", 64, 64, prior)
    worst = 0.0
    for _ in range(60):
        s_fft, _ = ut_amp_step(s_fft, tm_fft, prior)
        s_svd, _ = ut_amp_step(s_svd, tm_svd, prior)
        worst = max(worst, float(np.max(np.abs(s_fft.x - s_svd.x))))
    assert worst <= 1e-10, f"route divergence {worst:.2e}"

    xstar = lmmse_oracle(A, model.y, 0.02, np.zeros(64), np.ones(64))
    state, trace = run("utamp", fft_model, prior, max_iters=500, x_tol=1e-12)
    gap = float(np.max(np.abs(state.x - xstar)))
    assert trace.status == "converged" and gap <= 1e-6, f"fft route gap {gap:.2e}"
    print(f"\nPASS criterion 5: FFT route matches dense route to {worst:.2e} (<= 1e-10), posterior gap {gap:.2e} (<= 1e-6)")


def test_criterion_6_variance_propagation_identity():
    """diag(C Diag(d) C^H) == |C|^2 d on 100 random real and complex cases,
    to 1e-12."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        C = rng.standard_normal((m, n))
        if trial % 2:
            C = C + 1j * rng.standard_normal((m, n))
        d = rng.uniform(0.05, 3.0, n)
        direct = np.real(np.diag(C @ np.diag(d) @ C.conj().T))
        diff = float(np.max(np.abs(scaled_gram_diagonal(C, d) - direct)))
        assert diff <= 1e-12, f"trial {trial}: {diff:.2e}"
        worst = max(worst, diff)
    print(f"\nPASS criterion 6: variance propagation identity on 100 cases, worst deviation {worst:.2e} (<= 1e-12)")


def test_criterion_7_denoisers_match_quadrature_and_derivative():
    """Posterior means match numerical quadrature to 1e-8 and variances to
    1e-6, for both priors; variances equal tau_q times the numerical
    derivative of the mean to 1e-5."""

    def gauss_pdf(x, mean, var):
        return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)

    worst_mean = worst_var = worst_fd = 0.0

    gp = GaussianPrior(x0=0.4, tau0=1.8)
    for q in [-4.0, -1.0, 0.0, 0.7, 3.2]:
        for tau_q in [0.2, 1.0, 5.0]:
            lo, hi = -40.0, 40.0
            w = lambda x: gauss_pdf(x, 0.4, 1.8) * gauss_pdf(q, x, tau_q)
            z = quad(w, lo, hi, limit=300)[0]
            m = quad(lambda x: x * w(x), lo, hi, limit=300)[0] / z
            v = quad(lambda x: x * x * w(x), lo, hi, limit=300)[0] / z - m * m
            out = gaussian_denoise(np.array([q]), tau_q, gp)
            worst_mean = max(worst_mean, abs(out.mean[0] - m))
            worst_var = max(worst_var, abs(out.var[0] - v))

    bp = BernoulliGaussianPrior(rho=0.25, mu=0.3, v=1.1)
    for q in [-3.0, -0.5, 0.0, 0.4, 2.5]:
        for tau_q in [0.3, 1.5]:
            lo, hi = -40.0, 40.0
            sw = lambda x: gauss_pdf(x, 0.3, 1.1) * gauss_pdf(q, x, tau_q)
            z_slab = quad(sw, lo, hi, limit=300)[0]
            z = 0.75 * gauss_pdf(q, 0.0, tau_q) + 0.25 * z_slab
            m = 0.25 * quad(lambda x: x * sw(x), lo, hi, limit=300)[0] / z
            e2 = 0.25 * quad(lambda x: x * x * sw(x), lo, hi, limit=300)[0] / z
            out = bg_denoise(np.array([q]), tau_q, bp)
            worst_mean = max(worst_mean, abs(out.mean[0] - m))
            worst_var = max(worst_var, abs(out.var[0] - (e2 - m * m)))

    assert worst_mean <= 1e-8, f"mean vs quadrature: {worst_mean:.2e}"
    assert worst_var <= 1e-6, f"variance vs quadrature: {worst_var:.2e}"

    h = 1e-6
    for prior, dn in [(gp, gaussian_denoise), (bp, bg_denoise)]:
        for q in [-2.0, 0.1, 1.3]:
            tau_q = 0.8
            up = dn(np.array([q + h]), tau_q, prior).mean[0]
            dnm = dn(np.array([q - h]), tau_q, prior).mean[0]
            var = dn(np.array([q]), tau_q, prior).var[0]
            fd = abs(var - tau_q * (up - dnm) / (2 * h))
            assert fd <= 1e-5, f"{type(prior).__name__} at q={q}: {fd:.2e}"
            worst_fd = max(worst_fd, fd)
    print(
        f"\nPASS criterion 7: denoisers vs quadrature (means {worst_mean:.2e} <= 1e-8, "
        f"variances {worst_var:.2e} <= 1e-6) and derivative identity ({worst_fd:.2e} <= 1e-5)"
    )


def test_criterion_8_flat_spectrum_fixed_point_is_golden_ratio():
    """Unit spectrum, unit noise, unit prior variance: the stepsize fixed
    point is (sqrt(5) - 1) / 2, to 1e-9."""
    fp = variance_fixed_point(np.ones(16), 1.0, GaussianPrior(), (16, 16))
    err = abs(fp.tau_x - (np.sqrt(5.0) - 1.0) / 2.0)
    assert fp.converged and err <= 1e-9, f"fixed point off by {err:.2e}"
    print(f"\nPASS criterion 8: flat-spectrum fixed point = golden ratio - 1 within {err:.2e} (<= 1e-9)")


def test_criterion_9_robustness_report():
    """Observational sweep: every solver on every family.  The
    transform-domain solver must converge everywhere; the classic kernels'
    outcomes are reported for the record (they diverge on the mean-shifted,
    ill-conditioned, and correlated families)."""
    prior = GaussianPrior()
    families = [
        ("iid_gaussian", {}),
        ("nonzero_mean", {}),
        ("ill_conditioned", {"condition_number": 1e6}),
        ("rank_deficient", {}),
        ("column_correlated", {}),
        ("circulant", {}),
    ]
    lines = [f"{'family':20s} {'amp-vec':>12s} {'amp-scalar':>12s} {'utamp':>12s}"]
    for kind, kw in families:
        m, n = (64, 64) if kind == "circulant" else (64, 48)
        model = make_instance(kind, m, n, 1, 0.05, kw, prior)
        row = [f"{kind:20s}"]
        for alg in ("vector", "scalar", "utamp"):
            _, trace = run(alg, model, prior, max_iters=500)
            row.append(f"{trace.status:>12s}")
            if alg == "utamp":
                assert trace.status == "converged", f"transform solver failed on {kind}"
        lines.append(" ".join(row))
    report = "\n".join(lines)
    print("\n" + report)
    print("PASS criterion 9: transform-domain solver converged on all six families (classic kernels reported above)")
