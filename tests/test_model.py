import contextlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from utamp import (
    BernoulliGaussianPrior,
    DftFactorization,
    Factorization,
    FactorizationError,
    GaussianPrior,
    LinearModel,
    RealDftFactorization,
    SvdFactorization,
    bg_denoise,
    circulant_factorize,
    initial_state,
    lmmse_transformed,
    load_matrix,
    load_vector,
    run,
    save_matrix,
    save_vector,
    scaled_gram_diagonal,
    svd_factorize,
    ut_amp_step,
)
from utamp import matrixio
from utamp import _threads
from utamp.model import circulant_matrix


def test_linear_model_validation():
    A = np.ones((3, 2))
    y = np.ones(3)
    m = LinearModel(A, y, 0.5)
    assert m.M == 3 and m.N == 2
    with pytest.raises(ValueError):
        LinearModel(A, np.ones(2), 0.5)
    with pytest.raises(ValueError):
        LinearModel(A, y, 0.0)
    with pytest.raises(ValueError):
        LinearModel(A, y, -1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^sigma2 must be positive and finite"):
            LinearModel(A, y, bad)
    # 1 / sigma2 overflows below the smallest normal float
    with pytest.raises(ValueError, match="^sigma2 must not be subnormal"):
        LinearModel(A, y, 1e-320)
    assert LinearModel(A, y, np.finfo(float).tiny).sigma2 == np.finfo(float).tiny
    with pytest.raises(ValueError):
        LinearModel(A, y, 0.5, x_true=np.ones(3))
    with pytest.raises(ValueError):
        LinearModel(np.ones(3), y, 0.5)


@pytest.mark.parametrize("field", ["A", "y", "x_true"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_model_rejects_non_finite(field, bad):
    fields = {"A": np.ones((3, 2)), "y": np.ones(3), "x_true": np.ones(2)}
    fields[field][1] = bad
    with pytest.raises(ValueError, match=f"^{field} has non-finite"):
        LinearModel(fields["A"], fields["y"], 0.5, x_true=fields["x_true"])


def test_nan_in_y_is_rejected_before_run():
    # a NaN used to come back from run() as status "diverged"
    y = np.array([1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="^y has non-finite"):
        run("utamp", LinearModel(np.eye(3), y, 0.1), GaussianPrior())
    with pytest.raises(ValueError, match="^y has non-finite"):
        LinearModel(circulant_factorize([2.0, 1.0, 0.0]), y, 0.1)


def test_matrix_free_model_densifies_on_demand():
    rng = np.random.default_rng(2)
    c = rng.standard_normal(6)
    dense = c[(np.arange(6)[:, None] - np.arange(6)[None, :]) % 6]
    fact = circulant_factorize(c)
    model = LinearModel(fact, rng.standard_normal(6), 0.3)
    assert model.fact is fact and (model.M, model.N) == (6, 6)
    assert "A" not in vars(model), "a matrix-free model must not hold A until it is read"
    assert model.A.dtype == np.float64, "real taps densify to a real matrix"
    assert np.max(np.abs(model.A - dense)) <= 1e-15
    assert np.isclose(model.frob2, np.sum(dense**2))

    cplx = c + 1j * rng.standard_normal(6)
    model_c = LinearModel(circulant_factorize(cplx), np.ones(6), 0.3)
    assert np.allclose(model_c.A, cplx[(np.arange(6)[:, None] - np.arange(6)[None, :]) % 6], atol=1e-15)

    A = rng.standard_normal((7, 4))
    model_s = LinearModel(svd_factorize(A), rng.standard_normal(7), 0.3, x_true=np.zeros(4))
    assert (model_s.M, model_s.N) == (7, 4)
    assert np.allclose(model_s.A, A, atol=1e-13)
    dense = LinearModel(A, np.ones(7), 0.3)
    assert "fact" not in vars(dense), "a dense model must factorize only when fact is read"
    assert isinstance(dense.fact, SvdFactorization) and dense.fact is dense.fact
    assert np.allclose(dense.fact.reconstruct(), A, atol=1e-13)


def test_linear_model_cached_quantities():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    m = LinearModel(A, rng.standard_normal(4), 1.0)
    assert np.allclose(m.abs2, np.abs(A) ** 2)
    assert np.isclose(m.frob2, np.linalg.norm(A, "fro") ** 2)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_abs2_is_bit_identical_in_one_array(complex_entries):
    # below numpy's 256 KiB threshold for reusing a temporary, so that
    # np.abs(A) ** 2 would allocate a second array
    rng = np.random.default_rng(8)
    A = rng.standard_normal((120, 100))
    if complex_entries:
        A = A + 1j * rng.standard_normal((120, 100))
    model = LinearModel(A, np.ones(120), 1.0)
    tracemalloc.start()
    try:
        abs2 = model.abs2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs2.tobytes() == (np.abs(A) ** 2).tobytes()
    assert peak < 1.5 * abs2.nbytes, f"peak {peak / abs2.nbytes:.2f} x the result's bytes"


def _dense_u(fact):
    # U_k of an SvdFactorization from the factors it holds, which the library
    # forms only inside reconstruct: U_R, after Q on the QR route
    return fact._UR if fact._qr is None else np.linalg.qr(fact._qr[0])[0] @ fact._UR


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_svd_factorization_identities(shape, complex_entries):
    rng = np.random.default_rng(hash(shape) % 2**32)
    A = rng.standard_normal(shape)
    if complex_entries:
        A = A + 1j * rng.standard_normal(shape)
    f = svd_factorize(A)
    m, n = shape
    k = min(shape)

    # thin storage: U_k is M x k, V_k is k x N, both with orthonormal rows/columns
    U, V = _dense_u(f), f._V
    assert U.shape == (m, k) and V.shape == (k, n)
    assert np.allclose(U.conj().T @ U, np.eye(k), atol=1e-12)
    assert np.allclose(V @ V.conj().T, np.eye(k), atol=1e-12)
    assert np.allclose(f.reconstruct(), A), "U_k Lam V_k must reproduce A"

    x = rng.standard_normal(n)
    y = rng.standard_normal(m)
    assert np.allclose(U @ (f.lam * (V @ x)), f.reconstruct() @ x)
    # Lam V x lives in the transform domain on the k rows that Lam reaches:
    # no part of A x lies outside the range of U_k, and lifting Lam V x back
    # with U_k gives A x
    lvx = f.apply_av(x)
    assert lvx.shape == (k,)
    assert np.sqrt(f.project(A @ x)[1]) <= 1e-8
    assert np.allclose(U @ lvx, A @ x)
    assert np.allclose(f.apply_uh(A @ x), lvx)
    # adjoint identity <s, Lam V x> = <V^H Lam^H s, x>, and both against A
    s = rng.standard_normal(k)
    lhs = np.vdot(s, lvx)
    rhs = np.vdot(f.apply_avh(s), x)
    assert np.isclose(lhs, rhs), f"adjoint mismatch {lhs} vs {rhs}"
    assert np.isclose(np.vdot(y, A @ x), np.vdot(f.apply_avh(f.apply_uh(y)), x))
    assert np.allclose(f.apply_avh(f.apply_uh(y)), A.conj().T @ y)


@st.composite
def _spectral_problems(draw):
    """(A, y, x): a tall (M >= 2N, the QR route), less tall, square or wide
    A up to 60 x 60, real or complex, with singular values log-uniform in
    [1e-12, 1] and some of them exactly zero."""
    kind = draw(st.sampled_from(["tall", "less_tall", "square", "wide"]))
    if kind == "tall":
        n = draw(st.integers(1, 30))
        m = draw(st.integers(2 * n, 60))
    elif kind == "less_tall":
        n = draw(st.integers(2, 30))
        m = draw(st.integers(n + 1, 2 * n - 1))
    elif kind == "square":
        m = n = draw(st.integers(1, 60))
    else:
        m = draw(st.integers(1, 30))
        n = draw(st.integers(m + 1, 60))
    complex_entries = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(m, n)
    s = 10.0 ** (-12.0 * rng.random(k))
    s[: draw(st.integers(0, k))] = 0.0  # rank deficient, down to A = 0

    def orthonormal(rows, cols):
        g = rng.standard_normal((rows, cols))
        if complex_entries:
            g = g + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(g)[0]

    A = (orthonormal(m, k) * rng.permutation(s)) @ orthonormal(n, k).conj().T
    y = rng.standard_normal(m)
    x = rng.standard_normal(n)
    return A, y, x


@given(_spectral_problems(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_svd_factorize_matches_gesdd_on_every_route(problem, bad):
    A, y, x = problem
    m, n = A.shape
    k = min(m, n)
    f = svd_factorize(A)
    assert (f._qr is not None) == (m >= 2 * n)
    # gesdd itself goes QR first from M = 11N/6 (17N/9 complex), so the QR
    # route (M >= 2N) returns its singular values and V_k bit for bit; below
    # 2N the route is gesdd's own
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    assert np.array_equal(f.lam, s) and np.array_equal(f._V, vh)
    scale = max(s[0], np.finfo(float).tiny)

    U = _dense_u(f)
    assert np.linalg.norm(U.conj().T @ U - np.eye(k)) <= 1e-13
    assert np.linalg.norm(f.reconstruct() - A) <= 1e-13 * scale
    r, outside = f.project(y)
    assert r.shape == (k,) and (outside == 0.0 if m == k else outside >= 0.0)
    assert abs(np.hypot(np.linalg.norm(r), np.sqrt(outside)) - np.linalg.norm(y)) <= 1e-13 * np.linalg.norm(y)
    gap = abs(np.hypot(np.linalg.norm(r - f.apply_av(x)), np.sqrt(outside)) - np.linalg.norm(y - A @ x))
    assert gap <= 1e-13 * (np.linalg.norm(y) + scale * np.linalg.norm(x))

    # UT-AMP and the transform-coordinate oracle on the parent's dense U_k
    prior = GaussianPrior()
    gesdd = SvdFactorization(lam=s, shape=A.shape, _UR=u, _V=vh)
    tms = [LinearModel(fact, y, 1e-3).transformed for fact in (f, gesdd)]
    states = [initial_state("utamp", n, k, prior, dtype=tm.r.dtype) for tm in tms]
    for _ in range(50):
        states = [ut_amp_step(state, tm, prior)[0] for state, tm in zip(states, tms)]
        got, want = states[0].x, states[1].x
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    got, want = (lmmse_transformed(LinearModel(fact, y, 1e-3), prior) for fact in (f, gesdd))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    A = A.copy()
    A[m // 2, n // 2] = bad
    with pytest.raises(FactorizationError):
        svd_factorize(A)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_tall_svd_factorize_peaks_near_two_copies_of_a():
    # a fresh process's peak RSS, from VmHWM: ru_maxrss would start at the
    # RSS of the process that forked it, this one.  gesdd forming U_k read
    # 3.9-4.0 x the bytes of a 4000 x 500 A here, the QR route 2.25-2.37 x
    code = "\n".join([
        "import re",
        "import numpy as np",
        "from utamp import svd_factorize",
        "def peak():",
        "    with open('/proc/self/status') as f:",
        "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1)) * 1024",
        "svd_factorize(np.ones((400, 100)))  # LAPACK and BLAS buffers",
        "A = np.random.default_rng(0).standard_normal((4000, 500))",
        "before = peak()",
        "f = svd_factorize(A)",
        "print((peak() - before) / A.nbytes)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ratio = float(done.stdout)
    assert ratio < 2.6, f"the factorization grew the peak RSS by {ratio:.2f} x A.nbytes"


def test_svd_factorize_rejects_bad_input():
    with pytest.raises(FactorizationError):
        svd_factorize(np.ones(4))


def test_circulant_eigenvalues_known_column():
    # first column [2, 1, 0, 1]: eigenvalues are the DFT of it
    f = circulant_factorize([2.0, 1.0, 0.0, 1.0])
    assert np.allclose(sorted(f.lam.real), [0.0, 2.0, 2.0, 4.0])
    assert np.allclose(f.lam.imag, 0.0, atol=1e-14)
    assert np.allclose(f.lam, np.array([4.0, 2.0, 0.0, 2.0]))


def test_circulant_factorization_matches_dense():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8)
    f = circulant_factorize(c)
    idx = (np.arange(8)[:, None] - np.arange(8)[None, :]) % 8
    A = c[idx]
    assert np.allclose(f.reconstruct(), A, atol=1e-12)

    fs = svd_factorize(A)
    x = rng.standard_normal(8)
    s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    # both routes must represent the same operator; U = V^H, V the
    # normalized DFT matrix with rows in _fft's order
    V = np.fft.fft(np.eye(8), axis=0, norm="ortho")[_threads._order(8)]
    assert np.allclose(V.conj().T @ f.apply_av(x), A @ x)
    assert np.allclose(f.apply_avh(f.apply_uh(A @ x)), fs.apply_avh(fs.apply_uh(A @ x)))
    assert np.allclose(np.sort(np.abs(f.lam)), np.sort(fs.lam), atol=1e-12)
    # adjoint identity holds for the FFT route too
    lhs = np.vdot(s, f.apply_av(x))
    rhs = np.vdot(f.apply_avh(s), x)
    assert np.isclose(lhs, rhs)
    # A x from two FFTs, real exactly when the taps and x are
    assert f.matvec(x).dtype == np.float64
    assert np.allclose(f.matvec(x), f.reconstruct() @ x, atol=1e-12)
    assert np.allclose(f.matvec(s), A @ s, atol=1e-12)
    fc = circulant_factorize(c + 1j * rng.standard_normal(8))
    assert fc.reconstruct().dtype == np.complex128
    assert np.allclose(fc.matvec(x), fc.reconstruct() @ x, atol=1e-12)
    assert np.allclose(fc.matvec(s), fc.reconstruct() @ s, atol=1e-12)


def test_dft_reconstruct_densifies_from_first_column():
    n = 2048
    taps = np.random.default_rng(4).standard_normal(n)
    f = circulant_factorize(taps)
    tracemalloc.start()
    try:
        dense = f.reconstruct()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.dtype == np.float64, "real taps densify to a real matrix"
    assert np.array_equal(dense, circulant_matrix(taps))
    # the result and one index array; the DFT matrix route takes 8 of these
    assert peak < 3 * n * n * 8, f"peak allocation {peak / 2**20:.1f} MiB"


def test_circulant_factorization_keeps_the_taps_it_was_given():
    # a tiny imaginary part is part of A, not FFT rounding to round away
    taps = np.array([1.0, 0.5, 0.25, 0.1], dtype=complex)
    taps[1] += 1e-14j
    f = circulant_factorize(taps)
    assert f.column is taps, "a contiguous complex128 vector is held, not copied"
    assert np.array_equal(f.reconstruct(), circulant_matrix(taps))
    # every row of A sums the taps, so A 1 keeps the 1e-14j
    assert np.allclose(f.matvec(np.ones(4)).imag, 1e-14, rtol=0.0, atol=1e-15)
    # a strided view is copied, so the factorization does not keep its base alive
    A = circulant_matrix(np.arange(1.0, 6.0))
    f = circulant_factorize(A[:, 0])
    assert f.column.flags.c_contiguous and f.column.base is None
    assert np.array_equal(f.reconstruct(), A)


def test_applies_live_on_the_base_class():
    # a tracer that wraps Factorization.apply_* must see every subclass's calls
    for name in ("apply_av", "apply_avh", "apply_uh"):
        assert name in vars(Factorization)
        assert name not in vars(SvdFactorization) and name not in vars(DftFactorization)
    assert isinstance(svd_factorize(np.eye(3)), SvdFactorization)
    assert isinstance(circulant_factorize(np.ones(3)), DftFactorization)


def test_circulant_factorize_rejects_bad_input():
    with pytest.raises(FactorizationError):
        circulant_factorize(np.ones((2, 2)))
    with pytest.raises(FactorizationError):
        circulant_factorize(np.array([]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^first column has non-finite"):
            circulant_factorize([1.0, bad, 0.0])


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
def test_project_keeps_the_k_rows_that_lam_reaches(shape):
    rng = np.random.default_rng(5)
    A = rng.standard_normal(shape)
    model = LinearModel(A, rng.standard_normal(shape[0]), 0.1)
    t = model.transformed
    f = model.fact
    assert t.fact is f
    k = min(shape)
    assert t.lam_p.shape == (k,)
    assert np.allclose(t.lam_p, f.lam**2)
    # project(y) is U_k^H y and the energy of the part of y outside the
    # range of U_k, nothing when M = k; the transformed model keeps both
    r, outside = f.project(model.y)
    assert outside >= 0.0 and (outside == 0.0) == (shape[0] == k)
    assert t.r.shape == (k,) and np.array_equal(t.r, r) and t.outside == outside
    assert np.allclose(t.r, _dense_u(f).conj().T @ model.y)
    assert np.isclose(np.linalg.norm(t.r) ** 2 + t.outside, np.linalg.norm(model.y) ** 2)
    for _ in range(3):
        x = rng.standard_normal(shape[1])
        assert np.isclose(np.linalg.norm(t.r - f.apply_av(x)) ** 2 + t.outside, np.linalg.norm(model.y - A @ x) ** 2)
    # row sums of |Lam|^2 in matrix form: lam_p is the first k, the rest are zero
    lam_full = np.zeros(shape)
    lam_full[:k, :k] = np.diag(f.lam)
    rows = np.sum(lam_full**2, axis=1)
    assert np.allclose(t.lam_p, rows[:k]) and np.all(rows[k:] == 0.0)


def _project_cases():
    # (factorization, complex x and y): the QR route (M >= 2N) and gesdd's
    # own, wide, square and complex SVDs, the DFT and the half spectrum at
    # an even and an odd N
    rng = np.random.default_rng(32)
    complex_tall = rng.standard_normal((40, 10)) + 1j * rng.standard_normal((40, 10))
    return {
        "svd_tall_qr": (svd_factorize(rng.standard_normal((40, 10))), False),
        "svd_tall": (svd_factorize(rng.standard_normal((30, 20))), False),
        "svd_wide": (svd_factorize(rng.standard_normal((10, 25))), False),
        "svd_square": (svd_factorize(rng.standard_normal((15, 15))), False),
        "svd_complex": (svd_factorize(complex_tall), True),
        "dft": (circulant_factorize(rng.standard_normal(16) + 1j * rng.standard_normal(16)), True),
        "half_spectrum_even": (circulant_factorize(rng.standard_normal(16)).half_spectrum(), False),
        "half_spectrum_odd": (circulant_factorize(rng.standard_normal(15)).half_spectrum(), False),
    }


@pytest.mark.parametrize("case", list(_project_cases()))
def test_project_accounts_for_all_of_y(case):
    # ||r - Lam V x||^2 + outside = ||y - A x||^2, the sum over r taken with
    # the factorization's bin weights; apply_uh is project's r
    fact, complex_entries = _project_cases()[case]
    m, n = fact.shape
    rng = np.random.default_rng(33)
    A = fact.reconstruct()
    for _ in range(3):
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        if complex_entries:
            x, y = x + 1j * rng.standard_normal(n), y + 1j * rng.standard_normal(m)
        r, outside = fact.project(y)
        assert r.shape == fact.lam.shape and isinstance(outside, float)
        d = r - fact.apply_av(x)
        got = fact.bin_sum(np.vdot(d, d).real, lambda i: abs(d[i]) ** 2) + outside
        want = np.vdot(y - A @ x, y - A @ x).real
        assert abs(got - want) <= 1e-12 * want
        assert fact.apply_uh(y).tobytes() == r.tobytes()


# the QR route (M >= 2N) real and complex, and gesdd's own route; M x 8
# bytes is what the zero-padded length-M Lam V x alone took
@pytest.mark.parametrize("shape,complex_entries", [((400, 20), False), ((400, 20), True), ((300, 200), False)])
def test_tall_svd_iterates_on_the_k_rows_that_lam_reaches(shape, complex_entries):
    rng = np.random.default_rng(31)
    (m, n), k = shape, min(shape)
    A, y = rng.standard_normal(shape), rng.standard_normal(m)
    if complex_entries:
        A, y = A + 1j * rng.standard_normal(shape), y + 1j * rng.standard_normal(m)
    fact = svd_factorize(A)
    x = rng.standard_normal(n)
    fact.apply_av(x)
    tracemalloc.start()
    try:
        lvx = fact.apply_av(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lvx.shape == (k,) and peak < m * 8

    model = LinearModel(fact, y, 0.1)
    t = model.transformed
    assert t.r.shape == t.lam_p.shape == (k,)
    U = _dense_u(fact)
    rest = y - U @ (U.conj().T @ y)
    want = np.vdot(rest, rest).real
    assert abs(t.outside - want) <= 1e-12 * want
    state, trace = run("utamp", model, GaussianPrior(complex_valued=complex_entries), max_iters=3)
    assert state.s.shape == (k,)
    assert np.isclose(trace.last()["residual"], np.linalg.norm(y - A @ state.x), rtol=1e-12)


def test_scaled_gram_diagonal_matches_dense():
    rng = np.random.default_rng(7)
    C = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    d = rng.uniform(0.1, 2.0, 8)
    direct = np.real(np.diag(C @ np.diag(d) @ C.conj().T))
    assert np.allclose(scaled_gram_diagonal(C, d), direct, atol=1e-13)


def test_scaled_gram_diagonal_shape_errors():
    with pytest.raises(ValueError):
        scaled_gram_diagonal(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        scaled_gram_diagonal(np.ones(3), np.ones(3))


def test_matrix_io_roundtrip_real(tmp_path):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 3)) * 10.0**rng.integers(-8, 8, (5, 3))
    path = tmp_path / "a.txt"
    save_matrix(path, A)
    B = load_matrix(path)
    assert B.dtype == np.float64
    assert np.array_equal(A, B), "17 significant digits must round-trip float64 exactly"
    head = path.read_text().splitlines()[0]
    assert head == "5 3 real"


def test_matrix_io_roundtrip_complex(tmp_path):
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    path = tmp_path / "a.txt"
    save_matrix(path, A)
    B = load_matrix(path)
    assert B.dtype == np.complex128
    assert np.array_equal(A, B)
    assert path.read_text().splitlines()[0] == "3 4 complex"


def test_vector_io_roundtrip(tmp_path):
    v = np.array([1.5, -2.25, 3.0])
    path = tmp_path / "v.txt"
    save_vector(path, v)
    assert path.read_text().splitlines()[0] == "3 1 real"
    assert np.array_equal(load_vector(path), v)
    with pytest.raises(ValueError):
        save_vector(tmp_path / "w.txt", np.ones((2, 2)))


def test_load_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix(path, np.ones((2, 2)))
    with pytest.raises(ValueError, match="single-column"):
        load_vector(path)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty file"),
        ("2 2 float\n1 2\n3 4\n", "bad header"),
        ("x 2 real\n1 2\n3 4\n", "must be integers"),
        ("0 2 real\n", "must be positive"),
        ("2 2 real\n1 2\n", "expected 2 data rows"),
        ("2 2 real\n1 2\n3\n", "line 3"),
        ("2 2 real\n1 2\n3 oops\n", "line 3"),
        ("1 2 complex\n1 2 3\n", "expected 4 numbers"),
        ("1 2 real\n1 2\n3 4\n", "expected 1 data rows, found 2"),
        # blank lines are skipped but still counted in line numbers
        ("2 2 real\n\n1 2\n\n3 oops\n", "line 5: could not convert string to float: 'oops'"),
        # '#' is not a comment
        ("1 2 real\n1 # 2\n", "line 2: expected 2 numbers, found 3"),
        ("1 2 real\n1 #2\n", "line 2: could not convert"),
        # float() takes underscores, numpy's parser does not: its message is kept
        ("1 1 real\n1_000\n", "could not convert string '1_000'"),
    ],
)
def test_load_matrix_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError) as err:
        load_matrix(path)
    assert fragment in str(err.value), f"expected {fragment!r} in {err.value}"


def test_load_matrix_reads_crlf_tabs_and_blank_lines(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"\r\n2 2 real\r\n1\t2\r\n\r\n  3 \t 4  \r\n\r\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_load_matrix_complex_keeps_signed_zero_and_inf(tmp_path):
    # each part is read as written: no 1j * im product turns 0 * inf into NaN
    path = tmp_path / "c.txt"
    path.write_text("1 2 complex\n1 inf -0 2\n")
    z = load_matrix(path)
    assert z.dtype == np.complex128 and z.shape == (1, 2)
    want = np.array([1.0, np.inf, -0.0, 2.0])
    assert np.array_equal(z.view(np.uint64), want.view(np.uint64)[None, :])
    assert np.signbit(z[0, 1].real) and z[0, 0].imag == np.inf


_SPECIAL_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308, 1.7976931348623157e308])


def _matrices(floats):
    """Real (m, n) or complex (m, n) matrices, 1 <= m, n <= 6, with entries
    drawn from ``floats`` (a complex matrix is a float block viewed as complex)."""
    return st.tuples(st.integers(1, 6), st.integers(1, 6), st.booleans()).flatmap(
        lambda t: arrays(np.float64, (t[0], 2 * t[1] if t[2] else t[1]), elements=floats).map(
            lambda a: a.view(np.complex128) if t[2] else a
        )
    )


def _per_element_format(a) -> str:
    """The text save_matrix wrote before rows were %-formatted whole."""
    m, n = a.shape
    kind = "complex" if np.iscomplexobj(a) else "real"
    lines = [f"{m} {n} {kind}"]
    for row in a:
        if kind == "complex":
            parts = [f"{z.real:.17g} {z.imag:.17g}" for z in row]
        else:
            parts = [f"{float(v):.17g}" for v in row]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@given(_matrices(st.floats() | _SPECIAL_FLOATS))
def test_save_matrix_bytes_match_per_element_format(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("save") / "a.txt"
    save_matrix(path, a)
    assert path.read_bytes() == _per_element_format(a).encode()


# the format writes every NaN as "nan", which reads back as np.nan, so that is
# the one NaN drawn; every other float64 must come back bit for bit
@given(_matrices(st.floats(allow_nan=False) | _SPECIAL_FLOATS))
def test_matrix_io_roundtrip_is_bit_exact(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("roundtrip") / "a.txt"
    save_matrix(path, a)
    b = load_matrix(path)
    assert b.dtype == a.dtype and b.shape == a.shape
    assert np.array_equal(b.view(np.uint64), a.view(np.uint64))


def test_load_matrix_peak_memory_is_near_its_result(tmp_path):
    path = tmp_path / "a.txt"
    save_matrix(path, np.random.default_rng(3).standard_normal((2000, 500)))
    tracemalloc.start()
    try:
        a = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (2000, 500)
    assert peak < 2 * a.nbytes, f"peak {peak / a.nbytes:.2f} x the array's bytes"


# The forked path (matrixio: one row range per CPU from _FORK_MIN numbers up,
# on Linux).  These tests force it on small files.

needs_fork = pytest.mark.skipif(not matrixio._CAN_FORK, reason="the forked path runs on Linux only")


@contextlib.contextmanager
def _forking(workers):
    """matrixio's forked path at `workers` processes; at 1 it is the one-pass reader."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixio, "_FORK_MIN", 1)
        mp.setattr(_threads, "_workers", lambda: workers)
        yield


def _load(path, workers):
    with _forking(workers):
        return load_matrix(path)


def _load_counting_parses(path, workers):
    """_load, and how many parses this process ran: 1 when one pass or the
    forked path read the file, 2 when the forked path fell back to one pass."""
    calls, real_parse = [], matrixio._parse
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixio, "_parse", lambda text: calls.append(text) or real_parse(text))
        return _load(path, workers), len(calls)


def _load_error(path, workers):
    with _forking(workers), pytest.raises(ValueError) as err:
        load_matrix(path)
    return str(err.value)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@given(_matrices(st.floats() | _SPECIAL_FLOATS), st.sampled_from([1, 2, 3]))
def test_forked_save_and_load_match_one_pass(tmp_path_factory, a, workers):
    path = tmp_path_factory.mktemp("forked") / "a.txt"
    with _forking(workers):
        save_matrix(path, a)
    assert path.read_bytes() == _per_element_format(a).encode()
    (got, parses), want = _load_counting_parses(path, workers), _load(path, 1)
    _assert_no_children()
    assert parses == 1
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("pad", range(6))
def test_forked_load_reads_crlf_tabs_and_blank_lines_across_cuts(tmp_path, workers, pad):
    # the padding moves the cuts through blank lines, tabs, CRLFs and lone CRs
    body = b"\r\n" * pad + b"1\t2\r\n\r\n\r\n  3 \t 4  \r\n\t\r\n\n5 6\n" + b" \r\n" * (5 - pad) + b"7 8\r1 2\r"
    path = tmp_path / "a.txt"
    path.write_bytes(b"\r\n5 2 real\r\n" + body)
    got, parses = _load_counting_parses(path, workers)
    _assert_no_children()
    assert parses == 1
    assert np.array_equal(got, [[1, 2], [3, 4], [5, 6], [7, 8], [1, 2]])
    assert np.array_equal(got, _load(path, 1))


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "content",
    [
        "10 2 real\n" + "1 2\n" * 9 + "3 oops\n",
        "10 2 real\n" + "1 2\n" * 9 + "3\n",
        "10 2 real\n" + "1 2\n" * 4 + "\n\n" + "1 2\n" * 4 + "1 2 3\n",
        "10 2 real\n" + "1 2\n" * 9 + "1_000 2\n",
        "10 2 real\n" + "1 2\n" * 11,
        "10 2 real\n" + "1 2\n" * 9,
        "10 2 real\n" + "oops 2\n" + "1 2\n" * 9,
        "4 2 complex\n" + "1 2 3 4\n" * 3 + "1 2 3\n",
        # a range whose rows all lack a number, a child's and this process's
        "6 2 real\n" + "1.2345678901234567 1.2345678901234567\n" * 2 + "1.2345678901234567\n" * 4,
        "6 2 real\n" + "1.2345678901234567\n" * 4 + "1.2345678901234567 1.2345678901234567\n" * 2,
    ],
)
def test_forked_load_errors_match_one_pass(tmp_path, workers, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    assert _load_error(path, workers) == _load_error(path, 1)
    _assert_no_children()


@needs_fork
@pytest.mark.parametrize(
    "content",
    [
        "1 1 real\n5\n",  # the first range, this process's, is empty
        "1 2 real\n1 2\n" + "\n" * 40,  # the children's ranges hold blank lines only
        "2 1 real\n-0\n  \n\ninf",  # no newline at the end
    ],
)
def test_forked_load_handles_ranges_without_rows(tmp_path, content):
    path = tmp_path / "a.txt"
    path.write_text(content)
    (got, parses), want = _load_counting_parses(path, 3), _load(path, 1)
    _assert_no_children()
    assert parses == 1
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@needs_fork
@pytest.mark.parametrize("workers", [2, 3, 5])
def test_forked_load_finds_cuts_in_rows_longer_than_a_read(tmp_path, workers):
    # each row is about 0.8 MB, so the newline after a cut lies beyond the
    # first 64 KiB read
    a = np.random.default_rng(5).standard_normal((3, 40000))
    path = tmp_path / "a.txt"
    save_matrix(path, a)
    got, parses = _load_counting_parses(path, workers)
    _assert_no_children()
    assert parses == 1
    assert np.array_equal(got.view(np.uint64), a.view(np.uint64))


@needs_fork
def test_forked_io_does_the_work_of_a_child_that_fails(tmp_path, monkeypatch):
    a = np.random.default_rng(5).standard_normal((9, 4)) * 1e-300
    path = tmp_path / "a.txt"
    real_parse, parent = matrixio._parse, os.getpid()

    def parse_fails_in_children(text):
        if os.getpid() != parent:
            raise ValueError("a child's range")
        return real_parse(text)

    def no_fork():
        raise OSError("no processes left")

    with _forking(3):
        with monkeypatch.context() as mp:
            mp.setattr(matrixio, "_MAX_FIELD", 1)  # a child's text overflows its map
            save_matrix(path, a)
        assert path.read_bytes() == _per_element_format(a).encode()
        with monkeypatch.context() as mp:
            mp.setattr(matrixio, "_parse", parse_fails_in_children)
            assert np.array_equal(load_matrix(path), a)
        with monkeypatch.context() as mp:
            mp.setattr(os, "fork", no_fork)
            save_matrix(path, a)
            assert np.array_equal(load_matrix(path), a)
    assert path.read_bytes() == _per_element_format(a).encode()
    _assert_no_children()


@needs_fork
def test_forked_children_are_killed_when_the_parent_fails(tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    save_matrix(path, np.ones((8, 2)))
    real_parse, parent = matrixio._parse, os.getpid()

    def parse(text):
        if os.getpid() == parent:
            raise RuntimeError("the parent's range")
        time.sleep(60)
        return real_parse(text)

    monkeypatch.setattr(matrixio, "_parse", parse)
    start = time.perf_counter()
    with _forking(3), pytest.raises(RuntimeError, match="the parent's range"):
        load_matrix(path)
    assert time.perf_counter() - start < 30, "the children were waited for, not killed"
    _assert_no_children()


@needs_fork
def test_forked_load_prints_nothing_twice(tmp_path, capfd):
    path = tmp_path / "a.txt"
    save_matrix(path, np.ones((8, 2)))
    print("printed once")
    with open(1, "w", closefd=False) as out:  # a buffered stream the children inherit unflushed
        out.write("written once\n")
        a = _load(path, 3)
        with _forking(3):
            save_matrix(path, a)
    captured = capfd.readouterr().out
    assert captured.count("printed once") == 1 and captured.count("written once") == 1, captured
    _assert_no_children()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_matrix_io_on_one_cpu_never_forks(tmp_path):
    # pins only the child interpreter it starts
    code = "\n".join([
        "import os, sys",
        "import numpy as np",
        "from utamp import load_matrix, matrixio, save_matrix",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
        "matrixio._FORK_MIN = 1",
        "def no_fork():",
        "    raise AssertionError('forked on one CPU')",
        "os.fork = no_fork",
        "a = np.random.default_rng(0).standard_normal((300, 40))",
        "save_matrix(sys.argv[1], a)",
        "assert np.array_equal(load_matrix(sys.argv[1]), a)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "a.txt")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_model_and_svd_hold_float64_a_without_copying(monkeypatch):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    model = LinearModel(A, y, 0.1)
    assert np.shares_memory(model.A, A) and np.shares_memory(model.y, y)

    seen = []
    real_svd = np.linalg.svd

    def spy_svd(a, *args, **kwargs):
        seen.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    model.fact
    assert len(seen) == 1 and np.shares_memory(seen[0], A)


def test_real_svd_factor_applies_complex_vectors_without_casting():
    rng = np.random.default_rng(31)
    fact = svd_factorize(rng.standard_normal((2000, 600)))
    m, n = fact.shape
    k = fact.lam.size
    V = fact._V.astype(complex)
    _, h, tau = fact._qr
    h, U_R = h.astype(complex), fact._UR.astype(complex)

    def uh_cast(y):
        # U_R^H (Q^H y)[:k], the reflectors applied in the order project applies them
        w = y.copy()
        for j in range(k):
            v = h[j, j:].copy()
            v[0] = 1.0
            w[j:] -= (np.conj(tau[j]) * np.vdot(v, w[j:])) * v
        return U_R.conj().T @ w[:k]

    cases = [
        (fact._v, rng.standard_normal(n) + 1j * rng.standard_normal(n), lambda x: V @ x),
        (fact._vh, rng.standard_normal(k) + 1j * rng.standard_normal(k), lambda z: V.conj().T @ z),
        (fact.apply_uh, rng.standard_normal(m) + 1j * rng.standard_normal(m), uh_cast),
    ]
    for apply, vec, cast_product in cases:
        want = cast_product(vec)
        tracemalloc.start()
        try:
            got = apply(vec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want), apply.__name__
        # a complex cast of either factor alone takes twice its bytes, and
        # V (600 x 600) is the smaller
        assert peak < fact._V.nbytes / 4, f"{apply.__name__}: peak {peak} bytes"
    x = rng.standard_normal(n)
    assert fact._v(x).tobytes() == (fact._V @ x).tobytes()


# ------------------------------------------------------------- FFT kernel

# a power of two, a composite length and a prime (pocketfft's fallback), all
# at or above the four-step threshold
_KERNEL_LENGTHS = [2**18, 3 * 2**17, 65_537]


@pytest.mark.parametrize("n", _KERNEL_LENGTHS)
def test_fft_kernel_matches_numpy(n):
    assert n >= _threads._FOUR_STEP_MIN
    assert (_threads._four_step_plan(n) is None) == (n == 65_537)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # the forward result is in _order's order, and the inverse takes its
    # input in that order
    order = _threads._order(n)
    for norm in ("ortho", "backward"):
        want = np.fft.fft(x, norm=norm)[order]
        got = _threads._fft(x.copy(), norm=norm)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (False, norm)
        want = np.fft.ifft(x, norm=norm)
        got = _threads._fft(x[order].copy(), inverse=True, norm=norm)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (True, norm)


@pytest.mark.parametrize("route", ["forward", "inverse", "real_source", "complex_source"])
def test_fft_kernel_allocates_no_length_n_array(route):
    # the four-step works in place in both directions: no transposed result
    # and no reversal buffer, each of which took 16 n bytes; a forward that
    # reads a source allocates only its output, and no complex copy of the
    # source
    n = 2**17
    assert _threads._four_step_plan(n) is not None  # built outside the trace
    z = np.random.default_rng(37).standard_normal(n) + 1j
    src = {"real_source": z.real.copy(), "complex_source": z.copy()}.get(route)
    frozen = None if src is None else src.tobytes()
    tracemalloc.start()
    try:
        if src is None:
            got = _threads._fft(z, inverse=route == "inverse")
        else:
            got = _threads._fft(np.empty(n, np.complex128), src=src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if src is None:
        assert got is z
        assert peak < z.nbytes / 4, f"peak {peak / z.nbytes:.2f} x 16 n bytes"
    else:
        assert src.tobytes() == frozen
        assert peak < got.nbytes * 1.25, f"peak {peak / got.nbytes:.2f} x 16 n bytes"
        want = np.fft.fft(src, norm="ortho")[_threads._order(n)]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", _KERNEL_LENGTHS + [100_000])
def test_fft_kernel_runs_each_on_aligned_blocks_in_cache(monkeypatch, n):
    # each sees a forward block once the transform has written it and an
    # inverse block before the transform reads it, on blocks that start at
    # multiples of their length whatever the number of workers: 2^16 entries
    # where n1 divides it, 262 rows of 250 at n = 100_000, _blockwise's
    # blocks for a prime n
    rng = np.random.default_rng(n + 2)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    order = _threads._order(n)
    want = np.fft.fft(x, norm="ortho")[order]
    results = {}
    for count in (1, 3):
        monkeypatch.setattr(_threads, "_workers", lambda: count)
        z, seen = np.empty(n, np.complex128), {}
        _threads._fft(z, src=x, each=lambda b: seen.__setitem__((b.start, b.stop), z[b].copy()))
        assert np.max(np.abs(z - want)) <= 1e-13 * np.max(np.abs(want))
        assert all(np.array_equal(block, z[lo:hi]) for (lo, hi), block in seen.items())
        back = np.empty(n, np.complex128)
        inverse_blocks = []

        def fill(b):
            inverse_blocks.append((b.start, b.stop))
            back[b] = z[b]

        _threads._fft(back, inverse=True, each=fill)
        assert np.max(np.abs(back - x)) <= 1e-13 * np.max(np.abs(x))
        results[count] = sorted(seen), sorted(inverse_blocks)
    blocks = results[1][0]
    size = blocks[0][1]
    assert blocks == [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    assert size == (65_500 if n == 100_000 else _threads._FOUR_STEP_MIN)
    assert results[1] == results[3] == (blocks, blocks)


def test_blocks_on_the_workers_run_under_the_callers_errstate(monkeypatch):
    # a thread does not inherit np.errstate, so _split hands the caller's to
    # every worker: a block there raises, warns or stays silent as it would
    # on the calling thread
    monkeypatch.setattr(_threads, "_workers", lambda: 3)
    n = 4 * _threads._FOUR_STEP_MIN
    big = np.full(n, 1e300)
    with np.errstate(over="raise"):
        assert set(_threads._blockwise(lambda b: np.geterr()["over"], n)) == {"raise"}
        seen = []
        _threads._fft(np.ones(n, complex), each=lambda b: seen.append(np.geterr()["over"]))
        assert seen == ["raise"] * 4
        with pytest.raises(FloatingPointError):
            _threads._blockwise(lambda b: big[b] * big[b], n)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.isinf(v).all() for v in _threads._blockwise(lambda b: big[b] * big[b], n))


@pytest.mark.parametrize("complex_taps", [False, True])
def test_circulant_column_and_matvec_at_a_four_step_length(complex_taps):
    # lam is in _fft's order there; column and matvec give DFT-order results
    n = 2**17
    assert _threads._four_step_plan(n) is not None
    rng = np.random.default_rng(38)
    c = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_taps else 0)
    x = rng.standard_normal(n)
    fact = circulant_factorize(c)
    want = np.fft.fft(c)[_threads._order(n)]
    assert np.max(np.abs(fact.lam - want)) <= 1e-13 * np.max(np.abs(want))
    assert fact.column.dtype == c.dtype
    assert np.max(np.abs(fact.column - c)) <= 1e-13 * np.max(np.abs(c))
    want = np.fft.ifft(np.fft.fft(c) * np.fft.fft(x))
    got = fact.matvec(x)
    assert got.dtype == (np.complex128 if complex_taps else np.float64)
    assert np.max(np.abs(got - (want if complex_taps else want.real))) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", _KERNEL_LENGTHS)
def test_large_dft_applies_are_adjoint_and_keep_their_contract(n):
    rng = np.random.default_rng(n + 1)
    fact = circulant_factorize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    frozen = x.tobytes(), s.tobytes()
    ax, ahs = fact.apply_av(x), fact.apply_avh(s)
    assert (x.tobytes(), s.tobytes()) == frozen
    assert not np.shares_memory(ax, x) and not np.shares_memory(ahs, s)
    assert abs(np.vdot(s, ax) - np.vdot(ahs, x)) <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(ax)

    # _v leaves its argument alone and returns a fresh array, the DFT in
    # _order's order; _vh may overwrite its argument, taken in that order
    order = _threads._order(n)
    for vec in (x, x.real.copy()):
        frozen = vec.tobytes()
        z = fact._v(vec)
        assert vec.tobytes() == frozen and not np.shares_memory(z, vec)
        assert np.max(np.abs(z - np.fft.fft(vec, norm="ortho")[order])) <= 1e-13 * np.max(np.abs(z))
    z = s[order].copy()
    back = fact._vh(z)
    assert np.max(np.abs(back - np.fft.ifft(s, norm="ortho"))) <= 1e-13 * np.max(np.abs(back))


@pytest.mark.parametrize("workers", [2, 5])
def test_fft_kernel_does_not_depend_on_the_worker_count(monkeypatch, workers):
    # every transform of a batch is computed whole by one thread, and every
    # elementwise pass of a step gives the same bits on any slice, so the
    # split changes no bit of a transform or of a step; 5 workers is more
    # than this machine's cores
    n = 3 * 2**17
    x = np.random.default_rng(32).standard_normal(n) + 1j * np.random.default_rng(33).standard_normal(n)
    rng = np.random.default_rng(34)
    fact = circulant_factorize(rng.standard_normal(n) / np.sqrt(n))
    tm = LinearModel(fact, fact.matvec(x.real) + 0.03 * rng.standard_normal(n), 1e-3).transformed
    priors = [
        BernoulliGaussianPrior(rho=0.1),
        BernoulliGaussianPrior(rho=0.1, mu=0.5, complex_valued=True),
        GaussianPrior(x0=0.2, tau0=np.linspace(0.5, 2.0, n)),
    ]
    results = {}
    for count in (1, workers):
        monkeypatch.setattr(_threads, "_workers", lambda: count)
        results[count] = [_threads._fft(x.copy(), inverse=inverse).tobytes() for inverse in (False, True)]
        for prior in priors:
            # the second step meets a nonzero s
            state = initial_state("utamp", n, n, prior, dtype=complex)
            for _ in range(2):
                state, tau_q = ut_amp_step(state, tm, prior)
            fields = [state.x, state.tau_x, state.s, tau_q]
            results[count] += [np.asarray(f).tobytes() for f in fields]
    assert results[1] == results[workers]


def test_fft_kernel_serves_concurrent_callers(monkeypatch):
    monkeypatch.setattr(_threads, "_workers", lambda: 3)
    n = 2**16
    rng = np.random.default_rng(34)
    xs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(4)]
    results = [[] for _ in xs]

    def call(i):
        for _ in range(5):
            results[i].append(_threads._fft(xs[i].copy()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for x, got in zip(xs, results):
        want = np.fft.fft(x, norm="ortho")[_threads._order(n)]
        assert len(got) == 5
        assert all(np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want)) for g in got)


def test_blocked_denoiser_serves_concurrent_callers(monkeypatch):
    # two callers share the pool; a block never submits work, so neither
    # can wait on a thread that waits on it
    n = 2**16
    rng = np.random.default_rng(36)
    qs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]
    prior = BernoulliGaussianPrior(rho=0.1)
    monkeypatch.setattr(_threads, "_workers", lambda: 1)
    want = [bg_denoise(q, 0.3, prior) for q in qs]
    monkeypatch.setattr(_threads, "_workers", lambda: 3)
    results = [[] for _ in qs]

    def call(i):
        for _ in range(5):
            results[i].append(bg_denoise(qs[i], 0.3, prior))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(qs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w, got in zip(want, results):
        assert len(got) == 5
        assert all(g.mean.tobytes() == w.mean.tobytes() and g.var.tobytes() == w.var.tobytes() for g in got)


def _transform_in_forked_child():
    n = 2**17
    x = np.random.default_rng(35).standard_normal(n) + 0j
    got = _threads._fft(x.copy())
    if not np.max(np.abs(got - np.fft.fft(x, norm="ortho")[_threads._order(n)])) <= 1e-13 * np.max(np.abs(got)):
        raise SystemExit(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
def test_fft_kernel_runs_in_a_forked_child(monkeypatch):
    # the child inherits the parent's executor but none of its threads; a
    # transform handed to that executor would never finish
    monkeypatch.setattr(_threads, "_workers", lambda: 2)
    _threads._fft(np.ones(2**17, complex))
    assert _threads._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_transform_in_forked_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's transform did not finish within 60 s")
    assert child.exitcode == 0


# ------------------------------------------------------------- the half spectrum


# small, even and odd; even and odd with 2^16 + 1 bins, where the Lam
# multiplies of the applies run in blocks on the workers
_REAL_LENGTHS = [1, 2, 7, 4096, 2**17, 2**17 + 1]


@pytest.mark.parametrize("n", _REAL_LENGTHS)
def test_half_spectrum_applies_are_adjoint_under_the_weights(n):
    rng = np.random.default_rng(n + 3)
    full = circulant_factorize(rng.standard_normal(n))
    fact = full.half_spectrum()
    assert isinstance(fact, RealDftFactorization) and fact.column is full.column
    assert fact.lam.size == n // 2 + 1 and fact.shape == (n, n)
    # bins 1 .. (n-1)//2 stand for two entries; bin n/2 of an even n for one
    assert fact.unpaired == ((0, n // 2) if n % 2 == 0 else (0,))
    w = np.full(fact.lam.size, 2.0)
    w[list(fact.unpaired)] = 1.0
    assert w.sum() == n
    v = rng.standard_normal(fact.lam.size)
    assert np.isclose(fact.bin_sum(v.sum(), lambda i: v[i]), w @ v, rtol=1e-12)
    # a block that starts at bin 1 corrects only the unpaired bins it holds
    assert fact.bin_sum(v[1:].sum(), lambda i: v[i], 1, fact.lam.size) == 2.0 * v[1:].sum() - (v[-1] if n % 2 == 0 and n > 1 else 0.0)
    want = np.fft.rfft(full.column)
    assert np.max(np.abs(fact.lam - want)) <= 1e-13 * np.max(np.abs(want))

    x = rng.standard_normal(n)
    s = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    frozen = x.tobytes(), s.tobytes()
    ax, ahs = fact.apply_av(x), fact.apply_avh(s)
    assert (x.tobytes(), s.tobytes()) == frozen
    assert ax.shape == (n // 2 + 1,) and ahs.dtype == np.float64 and ahs.shape == (n,)
    # <s, Lam V x> over the n entries of U^H y is the weighted sum over the bins
    lhs = float(np.sum(w * (s.conj() * ax).real))
    assert abs(lhs - ahs @ x) <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(ax) * np.sqrt(2)
    # the bins of the complex factorization's Lam V x, weighted, keep its norm
    full_ax = full.apply_av(x)
    assert np.isclose(np.sum(w * np.abs(ax) ** 2), np.sum(np.abs(full_ax) ** 2), rtol=1e-12)
    y = rng.standard_normal(n)
    assert np.max(np.abs(LinearModel(fact, y, 0.1).transformed.r - np.fft.rfft(y, norm="ortho"))) <= 1e-13 * np.linalg.norm(y)


def test_half_spectrum_needs_real_taps():
    with pytest.raises(FactorizationError):
        circulant_factorize(np.ones(4) + 1j).half_spectrum()


@pytest.mark.parametrize("n", [5, 2**16, 5 * 2**16 + 7])
def test_aligned_blockwise_slices_do_not_depend_on_the_worker_count(monkeypatch, n):
    # partial sums added in slice order give the same bits on any machine
    got = {}
    for count in (1, 2, 3, 7):
        monkeypatch.setattr(_threads, "_workers", lambda: count)
        got[count] = _threads._blockwise(lambda b: (b.start, b.stop), n, aligned=True)
    step = _threads._FOUR_STEP_MIN
    want = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    assert all(v == want for v in got.values()), got


def test_unaligned_split_keeps_its_parts_even(monkeypatch):
    # the four-step column pass and the unaligned elementwise chains split
    # as evenly as they can: the 256 columns at 2^16 and a chain one entry
    # past the threshold both run on two workers in halves (the row pass is
    # aligned for its per-block function, and runs as one block at 2^16)
    monkeypatch.setattr(_threads, "_workers", lambda: 2)
    assert _threads._split(lambda c: (c.start, c.stop), 256) == [(0, 128), (128, 256)]
    n = _threads._FOUR_STEP_MIN + 1
    assert _threads._blockwise(lambda b: (b.start, b.stop), n) == [(0, n // 2), (n // 2, n)]
