import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from utamp import (
    ALGORITHMS,
    EnsembleSpec,
    Factorization,
    GaussianPrior,
    BernoulliGaussianPrior,
    DftFactorization,
    LinearModel,
    RealDftFactorization,
    certify,
    circulant_taps,
    TransformedModel,
    circulant_factorize,
    generate_matrix,
    initial_state,
    lmmse_solve,
    lmmse_transformed,
    run,
    scalar_amp_step,
    svd_factorize,
    synthesize_instance,
    ut_amp_step,
    variance_fixed_point,
    vector_amp_step,
)
from utamp import _threads, solvers
from utamp.model import circulant_matrix


def lmmse_oracle(A, y, sigma2, x0, tau0):
    # normal equations written out independently of the library routine
    lhs = A.conj().T @ A / sigma2 + np.diag(1.0 / tau0)
    rhs = A.conj().T @ y / sigma2 + x0 / tau0
    return np.linalg.solve(lhs, rhs)


# ---------------------------------------------------------------- single steps


def test_vector_step_matches_manual_computation():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 4))
    prior = GaussianPrior(x0=0.2, tau0=1.5)
    model = LinearModel(A, rng.standard_normal(5), 0.3)
    state = initial_state("vector", 4, 5, prior)
    state.x = rng.standard_normal(4)
    state.tau_x = rng.uniform(0.2, 1.0, 4)
    state.s = rng.standard_normal(5)

    new, got_tau_q = vector_amp_step(state, model, prior)

    abs2 = np.abs(A) ** 2
    tau_p = abs2 @ state.tau_x
    p = A @ state.x - tau_p * state.s
    tau_s = 1.0 / (tau_p + 0.3)
    s = tau_s * (model.y - p)
    tau_q = 1.0 / (abs2.T @ tau_s)
    q = state.x + tau_q * (A.T @ s)
    gain = 1.5 / (1.5 + tau_q)
    mean = 0.2 + gain * (q - 0.2)
    var = 1.5 * tau_q / (1.5 + tau_q)

    assert np.allclose(got_tau_q, tau_q)
    assert np.allclose(new.x, mean)
    assert np.allclose(new.tau_x, var)
    assert new.t == state.t + 1
    assert np.allclose(new.s, s), "dual variable must carry to the next step"


def test_scalar_step_matches_manual_computation():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 4))
    prior = GaussianPrior()
    model = LinearModel(A, rng.standard_normal(6), 0.2)
    state = initial_state("scalar", 4, 6, prior)
    state.x = rng.standard_normal(4)
    state.s = rng.standard_normal(6)

    new, got_tau_q = scalar_amp_step(state, model, prior)

    frob2 = np.sum(A**2)
    tau_p = frob2 / 6 * 1.0
    p = A @ state.x - tau_p * state.s
    tau_s = 1.0 / (tau_p + 0.2)
    s = tau_s * (model.y - p)
    tau_q = 1.0 / (frob2 / 4 * tau_s)
    q = state.x + tau_q * (A.T @ s)
    var = 1.0 * tau_q / (1.0 + tau_q)

    assert np.isclose(got_tau_q, tau_q)
    assert np.allclose(new.s, s)
    assert np.allclose(new.x, q * 1.0 / (1.0 + tau_q))
    assert np.isclose(new.tau_x, var)
    assert np.isscalar(new.tau_x) or np.ndim(new.tau_x) == 0


def test_ut_step_matches_manual_computation():
    rng = np.random.default_rng(3)
    for m, n in [(5, 7), (7, 5)]:
        A = rng.standard_normal((m, n))
        prior = GaussianPrior(tau0=2.0)
        model = LinearModel(A, rng.standard_normal(m), 0.4)
        tm = model.transformed
        fact = model.fact
        k = min(m, n)
        state = initial_state("utamp", n, k, prior)
        state.x = rng.standard_normal(n)
        state.s = rng.standard_normal(k)

        new, got_tau_q = ut_amp_step(state, tm, prior)

        # full unitary factors: the library's thin ones (U_R is U_k off the
        # QR route) completed by the trailing singular vectors of a
        # test-local full SVD
        assert fact._qr is None
        u_full, _, vh_full = np.linalg.svd(A, full_matrices=True)
        U = np.hstack([fact._UR, u_full[:, k:]])
        V = np.vstack([fact._V, vh_full[k:]])
        assert np.allclose(U.T @ U, np.eye(m), atol=1e-12)
        assert np.allclose(V @ V.T, np.eye(n), atol=1e-12)
        lam_full = np.zeros((m, n))
        lam_full[:k, :k] = np.diag(fact.lam)
        assert np.allclose(U @ lam_full @ V, A)

        lam_p = np.sum(lam_full**2, axis=1)
        tau_p = 2.0 * lam_p  # tau_x = mean prior variance = 2.0
        # the dual variable is zero past k: those rows of Lam are zero
        p = lam_full @ (V @ state.x) - tau_p * np.pad(state.s, (0, m - k))
        tau_s = 1.0 / (tau_p + 0.4)
        s = tau_s * (U.T @ model.y - p)
        tau_q = n / np.dot(lam_p, tau_s)
        q = state.x + tau_q * (V.conj().T @ (lam_full.T @ s))
        var = 2.0 * tau_q / (2.0 + tau_q)

        # s past row k is the out-of-range residual, which the step does not
        # carry; only its norm is basis-free, and outside holds its square
        assert new.s.shape == (k,) and np.allclose(new.s, s[:k])
        assert np.isclose(np.linalg.norm(s[k:]) ** 2, tm.outside / 0.4**2)
        assert np.isclose(got_tau_q, tau_q)
        assert np.allclose(new.x, 2.0 / (2.0 + tau_q) * q)
        assert np.isclose(new.tau_x, var)


def test_ut_step_dft_equals_svd_route():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(16)
    idx = (np.arange(16)[:, None] - np.arange(16)[None, :]) % 16
    A = c[idx]
    prior = GaussianPrior()
    model = synthesize_instance(A, prior, sigma2=0.1, seed=4)

    td = LinearModel(circulant_factorize(c), model.y, model.sigma2).transformed
    ts = model.transformed
    sd = initial_state("utamp", 16, 16, prior, dtype=complex)
    ss = initial_state("utamp", 16, 16, prior)
    for _ in range(10):
        sd, _ = ut_amp_step(sd, td, prior)
        ss, _ = ut_amp_step(ss, ts, prior)
        assert np.allclose(sd.x, ss.x, atol=1e-11)
        assert np.isclose(sd.tau_x, ss.tau_x)


class _FullSVD(Factorization):
    """Test-local full-SVD transform: U is M x M and V is N x N, so r = U^H y
    is the plain unitary transform.  The oracle for the thin factorization:
    it overrides the two applies with dense products."""

    def __init__(self, A):
        self.U, lam, self.V = np.linalg.svd(A, full_matrices=True)
        super().__init__(lam=lam, shape=A.shape)
        k = min(A.shape)
        self.lam_full = np.zeros(A.shape)
        self.lam_full[:k, :k] = np.diag(lam)

    def apply_av(self, x, then=None):
        z = self.lam_full @ (self.V @ x)
        if then is not None:
            then(slice(0, z.size), z)
        return z

    def apply_avh(self, s, out=None):
        return self.V.conj().T @ (self.lam_full.T @ s)


def _ut_iterates(tm, model, prior, max_iters, x_tol):
    # the run() loop for utamp, keeping every iterate
    dtype = np.result_type(tm.r.dtype, float)
    state = initial_state("utamp", model.N, tm.r.size, prior, dtype=dtype)
    xs = [state.x]
    for _ in range(max_iters):
        prev = state.x
        state, _ = ut_amp_step(state, tm, prior)
        xs.append(state.x)
        rel = np.linalg.norm(state.x - prev) / max(np.linalg.norm(state.x), 1e-300)
        if rel <= x_tol:
            return xs, "converged"
    return xs, "max_iters"


def _oracle_case(name):
    rng = np.random.default_rng(17)
    prior = GaussianPrior()
    if name == "complex":
        A = (rng.standard_normal((30, 20)) + 1j * rng.standard_normal((30, 20))) / np.sqrt(60)
        prior = GaussianPrior(complex_valued=True)
    elif name == "rank_deficient":
        A = generate_matrix(EnsembleSpec(kind="rank_deficient", M=40, N=30, rank=10, seed=2))
    elif name == "ill_conditioned":
        A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=40, N=30, condition_number=1e10, seed=3))
    else:
        m, n = {"tall": (40, 25), "wide": (25, 40), "square": (30, 30)}[name]
        A = generate_matrix(EnsembleSpec(kind="column_correlated", M=m, N=n, seed=1))
    return synthesize_instance(A, prior, sigma2=0.01, seed=5), prior


@pytest.mark.parametrize("case", ["tall", "wide", "square", "rank_deficient", "ill_conditioned", "complex"])
def test_utamp_matches_full_svd_oracle(case):
    model, prior = _oracle_case(case)
    full = _FullSVD(model.A)
    oracle = TransformedModel(
        fact=full,
        r=full.U.conj().T @ model.y,
        sigma2=model.sigma2,
        lam_p=np.sum(full.lam_full**2, axis=1),
    )
    want, want_status = _ut_iterates(oracle, model, prior, max_iters=500, x_tol=1e-12)
    thin = model.transformed
    got, got_status = _ut_iterates(thin, model, prior, max_iters=500, x_tol=1e-12)

    assert want_status == got_status == "converged"
    assert len(got) == len(want)
    for t, (a, b) in enumerate(zip(got, want)):
        assert np.max(np.abs(a - b)) <= 1e-12, f"iterate {t} differs by {np.max(np.abs(a - b)):.2e}"

    state, trace = run("utamp", model, prior, max_iters=500, x_tol=1e-12)
    assert trace.status == want_status and state.t == len(want) - 1
    assert np.max(np.abs(state.x - want[-1])) <= 1e-12
    direct = [np.linalg.norm(model.y - model.A @ x) for x in want]
    assert np.allclose(trace.column("residual"), direct, rtol=1e-12, atol=0.0)


def test_matrix_free_circulant_matches_dense_model():
    # the model synthesized matrix-free against the dense draw's y on the
    # FFT factorization of the dense A's first column
    spec = EnsembleSpec(kind="circulant", M=48, N=48, seed=11)
    prior = GaussianPrior(x0=0.3, tau0=2.0)
    free = synthesize_instance(circulant_factorize(circulant_taps(spec)), prior, sigma2=0.02, seed=4)
    A = generate_matrix(spec)
    drawn = synthesize_instance(A, prior, sigma2=0.02, seed=4)
    dense = LinearModel(circulant_factorize(A[:, 0]), drawn.y, drawn.sigma2, drawn.x_true)

    got, got_status = _ut_iterates(free.transformed, free, prior, 500, 1e-12)
    want, want_status = _ut_iterates(dense.transformed, dense, prior, 500, 1e-12)
    assert got_status == want_status == "converged" and len(got) == len(want)
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(got, want))
    assert worst <= 1e-12, f"iterates differ by {worst:.2e}"

    s_free, t_free = run("utamp", free, prior, max_iters=500, x_tol=1e-12)
    s_dense, t_dense = run("utamp", dense, prior, max_iters=500, x_tol=1e-12)
    assert t_free.status == t_dense.status == "converged" and s_free.t == s_dense.t == len(got) - 1
    assert np.max(np.abs(s_free.x - s_dense.x)) <= 1e-12
    assert np.allclose(t_free.column("residual"), t_dense.column("residual"), rtol=1e-12, atol=1e-14)
    assert "A" not in vars(free), "the utamp route must not densify a matrix-free model"


def test_run_and_certify_reuse_the_model_factorization(monkeypatch):
    spec = EnsembleSpec(kind="circulant", M=32, N=32, seed=2)
    prior = GaussianPrior()
    model = synthesize_instance(circulant_factorize(circulant_taps(spec)), prior, sigma2=0.05, seed=2)

    def no_svd(*args, **kwargs):
        raise AssertionError("a model holding a factorization must not be factorized again")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    state, trace = run("utamp", model, prior)
    cert = certify(model, prior)
    monkeypatch.undo()
    assert trace.status == "converged" and cert.converges
    assert "A" not in vars(model)
    want = certify(generate_matrix(spec), prior, sigma2=0.05)
    assert abs(cert.spectral_radius - want.spectral_radius) <= 1e-12


def test_a_dense_model_is_factorized_once(monkeypatch):
    # the certificate, two utamp runs and the transform-coordinate oracle
    # share the model's one thin SVD
    prior = GaussianPrior()
    A = generate_matrix(EnsembleSpec(kind="column_correlated", M=60, N=40, seed=3))
    model = synthesize_instance(A, prior, sigma2=0.05, seed=3)
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a[0].shape) or real_svd(*a, **kw))
    cert = certify(model, prior)
    first, _ = run("utamp", model, prior, max_iters=30)
    second, _ = run("utamp", model, prior, max_iters=30)
    xstar = lmmse_transformed(model, prior)
    assert calls == [(60, 40)], f"{len(calls)} SVDs of one model"
    assert cert.converges and np.array_equal(first.x, second.x)
    assert np.max(np.abs(xstar - lmmse_solve(model, prior))) <= 1e-10


def _lmmse_case(name):
    if name == "circulant":
        fact = circulant_factorize(circulant_taps(EnsembleSpec(kind="circulant", M=40, N=40, seed=6)))
        prior = GaussianPrior(x0=1.5, tau0=0.5)
        return synthesize_instance(fact, prior, sigma2=0.01, seed=5), prior
    model, prior = _oracle_case(name)
    prior = GaussianPrior(x0=1.5, tau0=0.5, complex_valued=prior.complex_valued)
    return synthesize_instance(model.A, prior, sigma2=0.01, seed=5), prior


@pytest.mark.parametrize("case", ["tall", "wide", "square", "rank_deficient", "ill_conditioned", "complex", "circulant"])
def test_transform_coordinate_oracle_matches_dense_lmmse(case):
    model, prior = _lmmse_case(case)
    got = lmmse_transformed(model, prior)
    want = lmmse_solve(model, prior)
    gap = float(np.max(np.abs(got - want)))
    assert gap <= 1e-10, f"{case}: transform-coordinate oracle differs by {gap:.2e}"


def test_transform_coordinate_oracle_needs_scalar_gaussian_prior():
    model, _ = _oracle_case("tall")
    with pytest.raises(ValueError):
        lmmse_transformed(model, GaussianPrior(tau0=np.linspace(0.5, 2.0, model.N)))
    with pytest.raises(TypeError):
        lmmse_transformed(model, BernoulliGaussianPrior(rho=0.5))


# ---------------------------------------------------------------- run loop


def test_run_zero_iterations_returns_initial_state():
    prior = GaussianPrior(x0=0.5, tau0=2.0)
    A = np.eye(3)
    model = LinearModel(A, np.array([1.0, 2.0, 3.0]), 0.1)
    state, trace = run("utamp", model, prior, max_iters=0)
    assert state.t == 0
    assert np.allclose(state.x, 0.5)
    assert np.isclose(state.tau_x, 2.0)
    assert trace.status == "max_iters"
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec["t"] == 0 and rec["tau_q"] is None and rec["rel_change"] is None
    assert np.isclose(rec["residual"], np.linalg.norm(model.y - 0.5))


def test_run_argument_validation():
    model = LinearModel(np.eye(2), np.ones(2), 0.1)
    prior = GaussianPrior()
    with pytest.raises(ValueError):
        run("vector", model, prior, max_iters=-1)
    for x_tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="x_tol"):
            run("vector", model, prior, x_tol=x_tol)
    with pytest.raises(ValueError):
        run("newton", model, prior)


@pytest.mark.parametrize("algorithm", ["vector", "scalar", "utamp"])
def test_run_reaches_gaussian_posterior(algorithm):
    prior = GaussianPrior()
    A = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=40, N=30, seed=6))
    model = synthesize_instance(A, prior, sigma2=0.05, seed=6)
    state, trace = run(algorithm, model, prior, max_iters=500, x_tol=1e-12)
    assert trace.status == "converged", f"{algorithm} did not converge"
    xstar = lmmse_oracle(A, model.y, 0.05, np.zeros(30), np.ones(30))
    err = np.max(np.abs(state.x - xstar))
    assert err < 1e-9, f"{algorithm}: posterior gap {err:.2e}"


def test_lmmse_solve_matches_oracle_heterogeneous():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((9, 6))
    prior = GaussianPrior(x0=np.linspace(-1, 1, 6), tau0=np.linspace(0.5, 3.0, 6))
    model = synthesize_instance(A, prior, sigma2=0.2, seed=8)
    got = lmmse_solve(model, prior)
    want = lmmse_oracle(A, model.y, 0.2, np.linspace(-1, 1, 6), np.linspace(0.5, 3.0, 6))
    assert np.allclose(got, want, atol=1e-12)
    with pytest.raises(TypeError):
        lmmse_solve(model, BernoulliGaussianPrior(rho=0.5))


def test_run_statuses():
    prior = GaussianPrior()
    shifted, plain = (
        synthesize_instance(generate_matrix(EnsembleSpec(kind=kind, M=30, N=20, seed=1)), prior, sigma2=0.01, seed=1)
        for kind in ("nonzero_mean", "iid_gaussian")
    )
    cases = [
        # the stepsizes that couple through |A|^2 break down on a mean-shifted
        # matrix, the transform-domain kernel converges there
        *((alg, shifted, {"max_iters": 200}, "diverged") for alg in ("vector", "scalar")),
        ("utamp", shifted, {"max_iters": 400}, "converged"),
        *((alg, plain, {"max_iters": 400}, "converged") for alg in ("vector", "scalar")),
        # capped short, and not run at all
        *((alg, plain, {"max_iters": 3, "x_tol": 1e-14}, "max_iters") for alg in ALGORITHMS),
        *((alg, plain, {"max_iters": 0}, "max_iters") for alg in ALGORITHMS),
    ]
    for alg, model, kw, status in cases:
        state, tr = run(alg, model, prior, **kw)
        assert tr.status == status, (alg, kw)
        assert status != "max_iters" or state.t == kw["max_iters"]
        # one record per state, the initial one included
        assert len(tr.records) == state.t + 1
        assert [r["t"] for r in tr.records] == list(range(state.t + 1))
        assert [r["tau_q"] is None for r in tr.records] == [True] + [False] * state.t
        assert [r["rel_change"] is None for r in tr.records] == [True] + [False] * state.t
        direct = np.linalg.norm(model.y - model.A @ state.x)
        np.testing.assert_allclose(tr.last()["residual"], direct, rtol=1e-12, atol=0.0, err_msg=f"{alg} {kw}")


def _zero_mode_problem(route):
    # (fact, y, the row of r at a zero of lam, k): a zero singular value or
    # eigenvalue whose direction carries 10 of y beside a random A x
    rng = np.random.default_rng(0)
    if route == "svd":
        # a zero column; off the QR route U_R is U_k, whose last column is
        # the zero singular value's
        A = rng.standard_normal((6, 4))
        A[:, -1] = 0.0
        fact = svd_factorize(A)
        assert fact._qr is None and fact.lam[-1] == 0.0
        return fact, A @ rng.standard_normal(4) + 10.0 * fact._UR[:, -1], 3, 4
    # taps [1, -1, 0, ...]: lam[0], the sum of the taps, is 0 and its
    # eigenvector is the constant vector; a complex y takes the complex route
    taps = np.zeros(8)
    taps[:2] = 1.0, -1.0
    fact = circulant_factorize(taps)
    assert fact.lam[0] == 0.0 and fact.half_spectrum().lam[0] == 0.0
    y = circulant_matrix(taps) @ rng.standard_normal(8) + 10.0 * np.ones(8) / np.sqrt(8)
    return (fact, y.astype(complex), 0, 8) if route == "dft" else (fact, y, 0, 5)


def test_run_reads_a_non_finite_dual_variable_as_divergence():
    # the zero keeps a row of r where tau_p = 0; with sigma2 the smallest
    # normal float, tau_s = 1 / sigma2 there times an r of 10 overflows s on
    # that row.  The run must stop there, not go on to max_iters; the row's
    # 0 * inf reaches x through V^H in the same step, so x cannot stay
    # finite, and the norm test ends the run
    for route in ("svd", "dft", "half_spectrum"):
        fact, y, zero, k = _zero_mode_problem(route)
        model = LinearModel(fact, y, np.finfo(float).tiny)
        with np.errstate(over="ignore", invalid="ignore"):
            state, tr = run("utamp", model, GaussianPrior(), max_iters=50)
        assert tr.status == "diverged" and state.t == 1, route
        assert state.s.shape == (k,) and np.isinf(state.s[zero]), route
        assert np.all(np.isfinite(np.delete(state.s, zero))), route
    # the AMP baselines' s reaches x through A^H s.  A zero row of A keeps
    # the vector kernel's tau_p = 0 on that row, so with sigma2 the
    # smallest normal float s = y / sigma2 overflows there; the scalar
    # kernel's tau_p is a mean over the rows and is 0 only for a zero A.
    # Either way the row's 0 * inf makes x non-finite in the same step
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    A[2] = 0.0
    y = A @ rng.standard_normal(4)
    y[2] = 10.0
    for alg, A in (("vector", A), ("vector", 0.0 * A), ("scalar", 0.0 * A)):
        model = LinearModel(A, y, np.finfo(float).tiny)
        with np.errstate(over="ignore", invalid="ignore"):
            state, tr = run(alg, model, GaussianPrior(), max_iters=50)
        assert tr.status == "diverged" and state.t == 1, alg
        assert np.isinf(state.s[2]), alg
        assert not np.any(np.isfinite(state.x)), alg


def test_tall_run_with_the_smallest_normal_sigma2_stays_finite():
    # r holds only the k rows that Lam reaches, so the energy of y outside
    # the range of A, tau_s = 1 / sigma2 there, never meets s: no floating
    # point exception, and at sigma2 -> 0 the step's Jacobian has eigenvalues
    # exp(+-i pi / 3), so x lands on the least-squares solution every third
    # iteration, t = 2, 5, ..., 50
    rng = np.random.default_rng(0)
    model = LinearModel(rng.standard_normal((6, 4)), 10 * rng.standard_normal(6), np.finfo(float).tiny)
    with np.errstate(all="raise"):
        state, tr = run("utamp", model, GaussianPrior(), max_iters=50)
    assert tr.status != "diverged" and state.t == 50
    assert np.all(np.isfinite(state.s))
    ls = np.linalg.lstsq(model.A, model.y, rcond=None)[0]
    assert np.linalg.norm(state.x - ls) <= 1e-12 * np.linalg.norm(ls)


def test_identity_matrix_hits_posterior_within_three_iterations():
    prior = GaussianPrior()
    model = synthesize_instance(np.eye(16), prior, sigma2=0.5, seed=3)
    xstar = lmmse_oracle(np.eye(16), model.y, 0.5, np.zeros(16), np.ones(16))
    tm = model.transformed
    state = initial_state("utamp", 16, 16, prior)
    errs = []
    for _ in range(3):
        state, _ = ut_amp_step(state, tm, prior)
        errs.append(np.max(np.abs(state.x - xstar)))
    assert min(errs) < 1e-12, f"posterior not reached in 3 iterations: {errs}"


def test_ut_amp_tau_x_converges_to_fixed_point():
    prior = GaussianPrior()
    A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=32, N=24, seed=5))
    model = synthesize_instance(A, prior, sigma2=0.1, seed=5)
    state, trace = run("utamp", model, prior, max_iters=300, x_tol=1e-13)
    fact = model.fact
    fp = variance_fixed_point(fact.lam, 0.1, prior, (32, 24))
    assert np.isclose(state.tau_x, fp.tau_x, atol=1e-10)
    assert np.isclose(trace.last()["tau_q"], fp.tau_q, atol=1e-8)


def test_zero_matrix_returns_prior_mean_without_nans():
    prior = GaussianPrior(x0=0.7, tau0=1.0)
    model = LinearModel(np.zeros((4, 3)), np.zeros(4) + 1.0, 0.1)
    for algorithm in ["vector", "scalar", "utamp"]:
        state, trace = run(algorithm, model, prior, max_iters=5)
        assert np.all(np.isfinite(state.x)), algorithm
        assert np.allclose(state.x, 0.7), algorithm
        assert trace.status == "converged"


def test_zero_column_is_handled_per_element():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((8, 5))
    A[:, 2] = 0.0
    prior = GaussianPrior(x0=0.3, tau0=1.0)
    model = synthesize_instance(A, prior, sigma2=0.1, seed=9)
    state, trace = run("vector", model, prior, max_iters=100)
    assert np.all(np.isfinite(state.x))
    # nothing is ever observed about x_2: it must sit at the prior mean
    assert np.isclose(state.x[2], 0.3)


def test_bg_prior_recovery_and_nonzero_mean_robustness():
    prior = BernoulliGaussianPrior(rho=0.15, mu=0.0, v=1.0)
    A = generate_matrix(EnsembleSpec(kind="nonzero_mean", M=120, N=200, seed=22))
    model = synthesize_instance(A, prior, sigma2=1e-4, seed=22)
    state, trace = run("utamp", model, prior, max_iters=300)
    assert trace.status == "converged"
    nmse = np.sum((state.x - model.x_true) ** 2) / np.sum(model.x_true**2)
    assert nmse < 1e-3, f"sparse recovery failed: nmse={nmse:.2e}"


# ---------------------------------------------------------------- traces


def test_trace_csv_schema(tmp_path):
    prior = GaussianPrior()
    A = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=10, N=8, seed=2))
    model = synthesize_instance(A, prior, sigma2=0.1, seed=2)
    state, trace = run("scalar", model, prior, max_iters=7, x_tol=1e-14)
    text = trace.to_csv_string()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["t", "tau_x", "tau_q", "residual", "rel_change", "mse"]
    assert len(rows) == 2 + 7  # header + initial record + 7 iterations
    assert rows[1][0] == "0" and rows[1][2] == "" and rows[1][4] == ""
    for row in rows[2:]:
        assert float(row[2]) > 0
        assert float(row[5]) >= 0
    # residual at t=0 is ||y - A x0||
    assert np.isclose(float(rows[1][3]), np.linalg.norm(model.y))

    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_text() == text


def test_trace_mse_empty_without_ground_truth():
    A = np.eye(4)
    model = LinearModel(A, np.ones(4), 0.1)  # no x_true
    _, trace = run("utamp", model, GaussianPrior(), max_iters=4, x_tol=1e-14)
    rows = list(csv.reader(io.StringIO(trace.to_csv_string())))
    assert all(row[5] == "" for row in rows[1:])
    assert trace.column("mse") == [None] * 5


# ---------------------------------------------------------------- in-place transform-domain step


def _factorizations():
    rng = np.random.default_rng(21)
    n = 12
    return {
        "dft_real_taps": circulant_factorize(rng.standard_normal(n)),
        "dft_complex_taps": circulant_factorize(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        "svd_tall": svd_factorize(rng.standard_normal((9, 6))),
        "svd_wide": svd_factorize(rng.standard_normal((6, 9))),
        "svd_complex": svd_factorize(rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))),
        # a four-step FFT length, where the first pass reads x, y and the taps in place
        "dft_four_step": circulant_factorize(rng.standard_normal(2**16) / 2**8),
    }


def _frozen(*arrays):
    return [(a.dtype, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("name", list(_factorizations()))
def test_applies_and_step_leave_their_inputs_unchanged(name):
    fact = _factorizations()[name]
    (m, n), k = fact.shape, fact.lam.size
    rng = np.random.default_rng(22)
    for x, s, y in [
        (rng.standard_normal(n), rng.standard_normal(k), rng.standard_normal(m)),
        (rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(k) + 1j * rng.standard_normal(k),
         rng.standard_normal(m) + 1j * rng.standard_normal(m)),
    ]:
        before = _frozen(x, s, y)
        fact.apply_av(x)
        fact.apply_avh(s)
        fact.apply_uh(y)
        if isinstance(fact, DftFactorization):
            fact.matvec(x)
        assert _frozen(x, s, y) == before
    if isinstance(fact, DftFactorization):
        before = _frozen(fact.column)
        circulant_factorize(fact.column)
        assert _frozen(fact.column) == before

    prior = BernoulliGaussianPrior(rho=0.3)
    tm = LinearModel(fact, rng.standard_normal(m), 0.1).transformed
    state = initial_state("utamp", n, k, prior, dtype=tm.r.dtype)
    for _ in range(3):
        before = _frozen(state.x, state.s, tm.r, tm.lam_p)
        new, _ = ut_amp_step(state, tm, prior)
        assert _frozen(state.x, state.s, tm.r, tm.lam_p) == before
        state = new


def _reference_conjugate(q, tau_q, x0, tau0):
    finite = np.isfinite(tau_q)
    tq = np.where(finite, tau_q, 1.0)
    gain = np.where(finite, tau0 / (tau0 + tq), 0.0)
    shrink = np.where(finite, tq / (tau0 + tq), 1.0)
    return gain * q + shrink * x0, shrink


def _reference_denoise(q, tau_q, prior):
    # the denoisers as they were before they wrote into their outputs
    tau_q = np.asarray(tau_q, dtype=float)
    if isinstance(prior, GaussianPrior):
        mean, shrink = _reference_conjugate(q, tau_q, prior.x0, prior.tau0)
        var = prior.tau0 * shrink
        return mean, var if np.ndim(var) else np.full(q.shape[0], var)
    rho, mu, v = prior.rho, prior.mu, prior.v
    m_act, shrink = _reference_conjugate(q, tau_q, mu, v)
    v_act = v * shrink
    m2 = np.abs(m_act) ** 2
    if rho == 1.0:
        pi = 1.0
    else:
        k = 1.0 if prior.complex_valued else 0.5
        neg_t = np.log1p(-rho) - np.log(rho) - k * (np.log(shrink) - abs(mu) ** 2 / v) - (k / v_act) * m2
        with np.errstate(over="ignore"):
            pi = 1.0 / (1.0 + np.exp(neg_t))
    return pi * m_act, pi * (v_act + (1.0 - pi) * m2)


@pytest.mark.parametrize(
    "prior",
    [BernoulliGaussianPrior(rho=0.3), BernoulliGaussianPrior(rho=0.3, mu=1j), BernoulliGaussianPrior(rho=1.0, mu=-0.5),
     GaussianPrior(x0=1j, tau0=2.0), GaussianPrior(x0=np.linspace(-1, 1, 64), tau0=np.linspace(0.5, 2, 64))],
    ids=["bg", "bg_complex_mu", "bg_rho1", "gauss_complex_x0", "gauss_vectors"],
)
def test_denoisers_are_bit_identical_to_the_out_of_place_formulas(prior):
    rng = np.random.default_rng(26)
    q = rng.standard_normal(64)
    q[::5], q[1::9] = 0.0, -0.0
    for q in (q, q + 1j * rng.standard_normal(64)):
        for tau_q in (0.3, np.inf, np.where(rng.random(64) < 0.25, np.inf, 0.7)):
            out = prior.denoise(q, tau_q)
            mean, var = _reference_denoise(q, tau_q, prior)
            assert out.mean.dtype == mean.dtype and out.mean.tobytes() == mean.tobytes()
            assert out.var.tobytes() == np.broadcast_to(var, (64,)).astype(float).tobytes()


def _reference_product(F, z):
    # a real factor meets a complex vector as two real products, as it does
    # in the library, where casting F to complex would copy it per call
    if np.isrealobj(F) and np.iscomplexobj(z):
        return F @ z.real + 1j * (F @ z.imag)
    return F @ z


def _reference_ut_step(state, tm, prior):
    # the step as it was before it built p, s and q in place, with fresh
    # temporaries, Lam^H formed per call, F^H applied as F.conj().T and each
    # FFT (_threads._fft, in its order) a pass of its own; the residual's
    # partial sums are taken over blocks of _FOUR_STEP_MIN, added in order
    fact = tm.fact
    dft = isinstance(fact, DftFactorization)
    tau_x = float(np.mean(state.tau_x))
    tau_p = tau_x * tm.lam_p
    vx = _threads._fft(np.array(state.x, complex)) if dft else _reference_product(fact._V, state.x)
    # vx is named: numpy would multiply an unnamed temporary as vx * lam, in
    # place, and a complex product rounds differently with its factors swapped
    z = fact.lam * vx
    d = (tm.r - z).astype(np.result_type(z, state.s, tm.r))
    block = _threads._FOUR_STEP_MIN
    residual = math.sqrt(sum((solvers._sumsq(d[i : i + block], fact, i) for i in range(0, d.size, block)), tm.outside))
    p = z - tau_p * state.s
    tau_s = 1.0 / (tau_p + tm.sigma2)
    s = tau_s * (tm.r - p)
    # the reduction is the one deliberate change: np.dot ran through BLAS
    denom = float(np.einsum("i,i", tm.lam_p, tau_s))
    tau_q = tm.N / denom if denom > 0 else np.inf
    z = np.conj(fact.lam) * s
    corr = _threads._fft(z, inverse=True) if dft else _reference_product(fact._V.conj().T, z)
    q = state.x + tau_q * corr if np.isfinite(tau_q) else state.x + 0.0 * corr
    mean, var = _reference_denoise(q, tau_q, prior)
    return [mean, float(np.mean(var)), s, tau_q], residual


def _step_cases():
    # (factorization, prior, state dtype, y or None for a real random y)
    rng = np.random.default_rng(23)
    fs = _factorizations()
    a_real = svd_factorize(rng.standard_normal((7, 5)))
    y_complex = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    bg_complex = BernoulliGaussianPrior(rho=0.2, mu=0.5, complex_valued=True)
    cases = {
        "dft_real_bg": (fs["dft_real_taps"], BernoulliGaussianPrior(rho=0.2), complex, None),
        "dft_complex_bg_complex": (fs["dft_complex_taps"], bg_complex, complex, None),
        "svd_tall_gauss": (fs["svd_tall"], GaussianPrior(x0=0.3, tau0=1.5), float, None),
        "svd_wide_bg_rho1": (fs["svd_wide"], BernoulliGaussianPrior(rho=1.0, mu=1.0), float, None),
        "svd_complex_vector_tau0": (fs["svd_complex"], GaussianPrior(tau0=np.linspace(0.5, 2.0, 6)), complex, None),
        "real_a_complex_prior": (a_real, BernoulliGaussianPrior(rho=0.3, complex_valued=True), float, None),
        "real_a_complex_y": (a_real, GaussianPrior(), float, y_complex),
        "zero_taps_bg": (circulant_factorize(np.zeros(8)), BernoulliGaussianPrior(rho=0.2), complex, None),
        "zero_taps_gauss": (circulant_factorize(np.zeros(8)), GaussianPrior(x0=0.5), complex, None),
    }
    # four-step lengths, where the Lam multiplies and the chain run in the
    # FFTs' row passes, in blocks of _FOUR_STEP_MIN
    for n in (2**16, 3 * 2**17):
        taps = rng.standard_normal(n) / np.sqrt(n)
        cases[f"dft_{n}_real_bg"] = (circulant_factorize(taps), BernoulliGaussianPrior(rho=0.2), complex, None)
        taps = taps + 1j * rng.standard_normal(n) / np.sqrt(n)
        cases[f"dft_{n}_complex_bg_complex"] = (circulant_factorize(taps), bg_complex, complex, None)
    return cases


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", list(_step_cases()))
def test_ut_step_is_bit_identical_to_the_out_of_place_step(monkeypatch, case, workers):
    monkeypatch.setattr(_threads, "_workers", lambda: workers)
    fact, prior, dtype, y = _step_cases()[case]
    m, n = fact.shape
    rng = np.random.default_rng(24)
    y = rng.standard_normal(m) if y is None else y
    tm = LinearModel(fact, y, 0.05).transformed
    state = initial_state("utamp", n, tm.r.size, prior, dtype=dtype)
    residual = np.empty(1)
    for _ in range(4):
        want, want_residual = _reference_ut_step(state, tm, prior)
        for got in (ut_amp_step(state, tm, prior), ut_amp_step(state, tm, prior, residual=residual)):
            new, tau_q = got
            for name, g, w in zip(["x", "tau_x", "s", "tau_q"], [new.x, new.tau_x, new.s, tau_q], want):
                g, w = np.asarray(g), np.asarray(w)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
        assert residual[0] == want_residual
        state = new
    if case.startswith("zero_taps"):
        assert tau_q == np.inf and np.array_equal(new.x, prior.mean_vector(n))


def _bg_dft_problem(n):
    rng = np.random.default_rng(25)
    fact = circulant_factorize(rng.standard_normal(n) / np.sqrt(n))
    prior = BernoulliGaussianPrior(rho=0.1)
    y = fact.matvec(prior.sample(n, rng)) + 0.03 * rng.standard_normal(n)
    tm = LinearModel(fact, y, 1e-3).transformed
    state, _ = ut_amp_step(initial_state("utamp", n, n, prior, dtype=complex), tm, prior)
    return state, tm, prior


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ut_step_allocates_little_beyond_what_it_returns(monkeypatch):
    # one DFT step at n = 2^18 on a complex state with a BG prior: Lam V x,
    # tau_s and s come to 2.5 x 16n bytes until the reduction frees tau_s;
    # then s, q (built in Lam V x's buffer) and the denoiser's mean and var
    # come to 3.5 x 16n, and the denoiser's two real work arrays per block
    # of 2^16 entries to 0.25 x 16n more per worker, so the count is pinned
    # (3.78 x 16n measured, as when q had a buffer of its own, allocated
    # after p was freed).  With full-length tau_p, p and tau_s kept to the
    # end the step peaked at 5.78 x 16n, with full-length work arrays at
    # 6.5 x 16n, and out of place at 8.5 x 16n
    monkeypatch.setattr(_threads, "_workers", lambda: 1)
    n = 2**18
    state, tm, prior = _bg_dft_problem(n)
    peak = _traced_peak(lambda: ut_amp_step(state, tm, prior))
    assert peak < 3.8 * 16 * n, f"peak {peak / (16 * n):.2f} x 16n bytes"


def test_ut_step_loop_holds_no_intermediate_across_steps(monkeypatch):
    # a loop that keeps the step's pair while the next step runs holds the
    # old x and s (2 x 16n) on top of one step's 3.78 x 16n (5.78 measured);
    # a pair that carried the step's tau_p, p, tau_s and q as well peaked at
    # 10.78 x 16n
    monkeypatch.setattr(_threads, "_workers", lambda: 1)
    n = 2**18
    state, tm, prior = _bg_dft_problem(n)

    def steps():
        nonlocal state
        for t in range(3):
            state, _ = ut_amp_step(state, tm, prior)

    peak = _traced_peak(steps)
    assert peak < 5.8 * 16 * n, f"peak {peak / (16 * n):.2f} x 16n bytes"


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from utamp import BernoulliGaussianPrior, LinearModel, circulant_factorize, initial_state, ut_amp_step
n = 2**16
rng = np.random.default_rng(5)
fact = circulant_factorize(rng.standard_normal(n) / np.sqrt(n))
prior = BernoulliGaussianPrior(rho=0.1)
y = fact.matvec(prior.sample(n, rng)) + 0.03 * rng.standard_normal(n)
tm = LinearModel(fact, y, 1e-3).transformed
state = initial_state("utamp", n, n, prior, dtype=complex)
for _ in range(5):
    state, _ = ut_amp_step(state, tm, prior)
print(hashlib.sha256(state.x.tobytes()).hexdigest())
"""


def test_ut_step_iterate_does_not_depend_on_blas_threads():
    # <lam_p, tau_s> summed by a threaded BLAS dot changes in its last bits
    # with the thread count, and so would every later iterate
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], capture_output=True, text=True, env=env, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_ut_steps_on_the_four_step_fft_match_pocketfft(monkeypatch):
    n = 2**18
    assert n >= _threads._FOUR_STEP_MIN
    rng = np.random.default_rng(27)
    taps = rng.standard_normal(n) / np.sqrt(n)
    prior = BernoulliGaussianPrior(rho=0.1)
    y = np.fft.ifft(np.fft.fft(taps) * np.fft.fft(prior.sample(n, rng))).real + 0.03 * rng.standard_normal(n)

    def iterate():
        fact = circulant_factorize(taps)
        tm = LinearModel(fact, y, 1e-3).transformed
        state = initial_state("utamp", n, n, prior, dtype=complex)
        for _ in range(20):
            state, _ = ut_amp_step(state, tm, prior)
        return state.x

    got = iterate()
    monkeypatch.setattr(_threads, "_FOUR_STEP_MIN", 2**62)
    want = iterate()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# (kernel, dtype of A): a complex A must not be conjugated into a copy, and a
# real A meeting a complex y must not be cast to complex128
_AMP_COPY_CASES = {
    "vector": ("vector", complex),
    "scalar": ("scalar", complex),
    "vector-real_a_complex_y": ("vector", float),
    "scalar-real_a_complex_y": ("scalar", float),
}


@pytest.mark.parametrize("case", list(_AMP_COPY_CASES))
def test_amp_step_does_not_copy_a_complex_a(case):
    algorithm, a_dtype = _AMP_COPY_CASES[case]
    rng = np.random.default_rng(28)
    A = rng.standard_normal((800, 400))
    if a_dtype is complex:
        A = A + 1j * rng.standard_normal((800, 400))
    model = LinearModel(A, rng.standard_normal(800) + 1j * rng.standard_normal(800), 0.1)
    model.abs2, model.frob2  # cached on first read, as in run()
    prior = GaussianPrior()
    step = {"vector": vector_amp_step, "scalar": scalar_amp_step}[algorithm]
    state, _ = step(initial_state(algorithm, 400, 800, prior, dtype=complex), model, prior)
    tracemalloc.start()
    try:
        step(state, model, prior)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A.nbytes / 4, f"peak {peak / A.nbytes:.2f} x A's bytes"


# ---------------------------------------------------------------- two applies per iteration, real half spectrum


def _circulant_model(n, seed, prior, complex_taps=False, complex_y=False, sigma2=0.01):
    # y = A x + n for the circulant A with random taps, made by a dense product
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(n) / np.sqrt(n) + (1j * rng.standard_normal(n) / np.sqrt(n) if complex_taps else 0)
    x = prior.sample(n, rng)
    y = np.fft.ifft(np.fft.fft(taps) * np.fft.fft(x)) + np.sqrt(sigma2) * rng.standard_normal(n)
    y = y if complex_taps or np.iscomplexobj(x) else y.real
    y = y.astype(complex) if complex_y else y
    return LinearModel(circulant_factorize(taps), y, sigma2, x), taps


def _count_applies(monkeypatch):
    from utamp.model import Factorization

    calls = []
    for name in ("apply_av", "apply_avh"):
        original = getattr(Factorization, name)
        monkeypatch.setattr(
            Factorization, name, lambda self, v, _f=original, _n=name, **kw: calls.append(_n) or _f(self, v, **kw)
        )
    return calls


@pytest.mark.parametrize("case", ["real_circulant", "complex_circulant", "svd"])
@pytest.mark.parametrize("max_iters", [0, 7, 500])
def test_utamp_run_makes_two_applies_per_iteration(monkeypatch, case, max_iters):
    # the step's own Lam V x gives the previous state's residual; only the
    # last state's residual costs an apply of its own (a separate residual
    # apply made three per iteration)
    prior = GaussianPrior()
    if case == "svd":
        model, _ = _oracle_case("tall")
    else:
        model, _ = _circulant_model(48, 3, prior, complex_taps=case == "complex_circulant")
    model.transformed  # r = U^H y is no apply
    calls = _count_applies(monkeypatch)
    state, trace = run("utamp", model, prior, max_iters=max_iters, x_tol=1e-12)
    assert max_iters == 0 or state.t > 5
    assert len(calls) == 2 * state.t + 1, (calls.count("apply_av"), calls.count("apply_avh"), state.t)
    assert calls.count("apply_avh") == state.t


def _spied_run(model, prior, **kw):
    # run() with every state the utamp step starts from, and the transformed
    # model it steps on
    seen, steps = [], []
    original = solvers.ut_amp_step

    def spy(state, tmodel, *args, **kwargs):
        seen.append(state.x)
        steps.append(tmodel)
        return original(state, tmodel, *args, **kwargs)

    solvers.ut_amp_step = spy
    try:
        state, trace = run("utamp", model, prior, **kw)
    finally:
        solvers.ut_amp_step = original
    return state, trace, seen + [state.x], steps


@settings(max_examples=40)
@given(
    n=st.integers(1, 40),
    bg=st.booleans(),
    seed=st.integers(0, 2**16),
    sigma2=st.sampled_from([1e-4, 1e-2, 1.0]),
)
@example(n=1, bg=False, seed=0, sigma2=1e-2)
@example(n=2, bg=True, seed=1, sigma2=1e-2)
@example(n=7, bg=False, seed=2, sigma2=1e-4)
@example(n=7, bg=True, seed=3, sigma2=1e-2)
@example(n=2**17, bg=True, seed=4, sigma2=1e-3)  # blocked chains and sums on the workers
def test_real_circulant_runs_on_the_half_spectrum_like_the_complex_route(n, bg, seed, sigma2):
    prior = BernoulliGaussianPrior(rho=0.3) if bg else GaussianPrior(x0=0.2, tau0=1.5)
    model, taps = _circulant_model(n, seed, prior, sigma2=sigma2)
    # the same problem with y cast to complex takes the complex route
    twin = LinearModel(model.fact, model.y.astype(complex), sigma2, model.x_true)
    kw = dict(max_iters=8 if n > 4096 else 200, x_tol=1e-9)
    state, trace, xs, steps = _spied_run(model, prior, **kw)
    want, want_trace = run("utamp", twin, prior, **kw)

    assert all(isinstance(tm.fact, RealDftFactorization) for tm in steps)
    assert state.x.dtype == np.float64 and state.s.shape == (n // 2 + 1,)
    assert (trace.status, state.t) == (want_trace.status, want.t)
    scale = max(float(np.max(np.abs(want.x))), 1e-300)
    assert np.max(np.abs(state.x - want.x.real)) <= 1e-12 * scale
    for name in ("tau_x", "tau_q", "mse"):
        got, ref = trace.column(name)[1:], want_trace.column(name)[1:]
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0, err_msg=name)
    if n <= 4096:
        A = circulant_matrix(taps)
        direct = [np.linalg.norm(model.y - A @ x) for x in xs]
    else:
        direct = [np.linalg.norm(model.y - model.fact.matvec(x)) for x in xs]
    # both sides round r - Lam V x (or y - A x) to within a few eps ||y||,
    # which a residual that nearly cancels y turns into more than rtol
    np.testing.assert_allclose(trace.column("residual"), direct, rtol=1e-12, atol=1e-14 * np.linalg.norm(model.y))


def _manual_utamp(model, prior, max_iters, x_tol):
    # the complex route as run() took it before the half spectrum: the
    # model's own transformed model and a state of r's dtype
    tm = model.transformed
    state = initial_state("utamp", model.N, tm.r.size, prior, dtype=np.result_type(tm.r.dtype, float))
    for _ in range(max_iters):
        prev = state.x
        state, tau_q = ut_amp_step(state, tm, prior)
        if np.linalg.norm(state.x - prev) / max(np.linalg.norm(state.x), 1e-300) <= x_tol:
            break
    return state


@pytest.mark.parametrize("case", ["complex_taps", "complex_y", "complex_prior", "complex_x0"])
def test_complex_circulant_problems_stay_on_the_complex_route_bit_for_bit(case):
    prior = {
        "complex_prior": BernoulliGaussianPrior(rho=0.3, mu=0.5, complex_valued=True),
        "complex_x0": GaussianPrior(x0=0.3 + 0.1j),
    }.get(case, BernoulliGaussianPrior(rho=0.3))
    model, _ = _circulant_model(32, 5, prior, complex_taps=case == "complex_taps", complex_y=case == "complex_y")
    state, trace, _, steps = _spied_run(model, prior, max_iters=60, x_tol=1e-12)
    assert all(type(tm.fact) is DftFactorization for tm in steps) and steps[0] is model.transformed
    want = _manual_utamp(model, prior, 60, 1e-12)
    assert state.t == want.t
    for got, ref in [(state.x, want.x), (state.s, want.s), (np.asarray(state.tau_x), np.asarray(want.tau_x))]:
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_a_hand_built_transformed_model_still_steps():
    # the custom-loop route as perfbench/child.py's fft_op builds it, at
    # N = 4096: circulant_factorize, r from apply_uh, TransformedModel from
    # (fact, r, sigma2, lam_p), a complex s of length N from initial_state,
    # and the bare step, which must step as the model's own transformed
    # model does, bit for bit
    n, sigma2 = 4096, 1e-3
    rng = np.random.default_rng(6)
    taps = rng.standard_normal(n) / np.sqrt(n)
    prior = BernoulliGaussianPrior(rho=0.1)
    x = prior.sample(n, rng)
    y = np.fft.ifft(np.fft.fft(taps) * np.fft.fft(x)).real + np.sqrt(sigma2) * rng.standard_normal(n)
    fact = circulant_factorize(taps)
    lam_p = np.abs(fact.lam) ** 2
    tm = TransformedModel(fact=fact, r=fact.apply_uh(y), sigma2=sigma2, lam_p=lam_p)
    ref = LinearModel(fact, y, sigma2).transformed
    a = b = initial_state("utamp", n, n, prior, dtype=complex)
    for _ in range(20):
        a, tau_a = ut_amp_step(a, tm, prior)
        b, tau_b = ut_amp_step(b, ref, prior)
        assert a.x.tobytes() == b.x.tobytes() and a.s.tobytes() == b.s.tobytes() and tau_a == tau_b
    assert a.s.dtype == np.complex128 and np.all(np.isfinite(a.x))


def test_ut_step_rejects_a_dual_variable_of_the_wrong_length():
    # a tall problem's r holds its k = N rows; an s of M entries is not cut
    # to k, and a shorter one is named rather than failing to broadcast
    prior = GaussianPrior()
    model = synthesize_instance(generate_matrix(EnsembleSpec(kind="iid_gaussian", M=20, N=12, seed=4)), prior, 0.05, seed=4)
    for m in (20, 11):
        with pytest.raises(ValueError, match=f"^s has length {m}, but r has length 12$"):
            ut_amp_step(initial_state("utamp", 12, m, prior), model.transformed, prior)


@pytest.mark.parametrize("algorithm", ["vector", "scalar", "utamp"])
def test_a_step_reports_the_residual_of_the_state_it_was_given(algorithm):
    prior = GaussianPrior()
    model = synthesize_instance(generate_matrix(EnsembleSpec(kind="iid_gaussian", M=20, N=12, seed=4)), prior, 0.05, seed=4)
    problem = model.transformed if algorithm == "utamp" else model
    step = {"vector": vector_amp_step, "scalar": scalar_amp_step, "utamp": ut_amp_step}[algorithm]
    state = initial_state(algorithm, 12, 12 if algorithm == "utamp" else 20, prior)
    residual = np.empty(1)
    for _ in range(3):
        new, tau_q = step(state, problem, prior, residual=residual)
        assert np.isclose(residual[0], np.linalg.norm(model.y - model.A @ state.x), rtol=1e-12, atol=0.0)
        plain, plain_tau_q = step(state, problem, prior)
        assert new.x.tobytes() == plain.x.tobytes() and new.s.tobytes() == plain.s.tobytes()
        state = new
