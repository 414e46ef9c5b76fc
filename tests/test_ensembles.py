import numpy as np
import pytest

from utamp import (
    EnsembleSpec,
    ENSEMBLE_KINDS,
    GaussianPrior,
    BernoulliGaussianPrior,
    circulant_factorize,
    circulant_taps,
    generate_matrix,
    svd_factorize,
    stream,
    synthesize_instance,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(kind="butterfly", M=4, N=4)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="iid_gaussian", M=0, N=4)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="circulant", M=4, N=6)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="ill_conditioned", M=4, N=4, condition_number=0.5)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="rank_deficient", M=4, N=4, rank=5)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="column_correlated", M=4, N=4, correlation=1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(kind="circulant", M=4, N=4, taps=np.ones(3))
    # a non-finite kappa or mean shift is named here, not later as "A has
    # non-finite entries"
    for knob, kind in (("condition_number", "ill_conditioned"), ("mean_shift", "nonzero_mean")):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{knob} must be"):
                EnsembleSpec(kind=kind, M=4, N=4, **{knob: bad})


def test_streams_are_reproducible_and_independent():
    a = stream(123, 0).standard_normal(8)
    b = stream(123, 0).standard_normal(8)
    assert np.array_equal(a, b)
    c = stream(123, 1).standard_normal(8)
    d = stream(124, 0).standard_normal(8)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_generation_is_deterministic_in_seed():
    for kind in ENSEMBLE_KINDS:
        spec = EnsembleSpec(kind=kind, M=12, N=12, seed=7)
        A1 = generate_matrix(spec)
        A2 = generate_matrix(EnsembleSpec(kind=kind, M=12, N=12, seed=7))
        assert np.array_equal(A1, A2), kind
        A3 = generate_matrix(EnsembleSpec(kind=kind, M=12, N=12, seed=8))
        assert not np.allclose(A1, A3), kind


def test_iid_gaussian_moments():
    A = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=200, N=300, seed=0))
    se = np.sqrt(1.0 / 200) / np.sqrt(200 * 300)
    assert abs(A.mean()) < 3 * se
    assert abs(A.var() - 1.0 / 200) < 3 * (1.0 / 200) * np.sqrt(2.0 / (200 * 300))


def test_nonzero_mean_shift():
    A = generate_matrix(EnsembleSpec(kind="nonzero_mean", M=200, N=300, seed=1))
    se = np.sqrt(1.0 / 200) / np.sqrt(200 * 300)
    assert abs(A.mean() - 10.0) < 3 * se, "entrywise mean must sit at the default shift 10"
    B = generate_matrix(EnsembleSpec(kind="nonzero_mean", M=200, N=300, seed=1, mean_shift=2.5))
    assert abs(B.mean() - 2.5) < 3 * se


@pytest.mark.parametrize("shape", [(40, 40), (60, 40), (40, 60)])
def test_ill_conditioned_spectrum(shape):
    kappa = 1e5
    A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=shape[0], N=shape[1], seed=2, condition_number=kappa))
    s = np.linalg.svd(A, compute_uv=False)
    assert np.isclose(s[0] / s[-1], kappa, rtol=1e-8), "condition number is exact by construction"
    assert np.isclose(np.mean(s**2), 1.0, rtol=1e-10), "spectrum is normalized to unit mean square"


def test_ill_conditioned_default_kappa():
    A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=30, N=30, seed=3))
    s = np.linalg.svd(A, compute_uv=False)
    assert np.isclose(s[0] / s[-1], 1e6, rtol=1e-6)


def test_rank_deficient_rank():
    A = generate_matrix(EnsembleSpec(kind="rank_deficient", M=24, N=18, seed=4))
    s = np.linalg.svd(A, compute_uv=False)
    r = 18 // 2
    assert np.all(s[:r] > 1e-8)
    assert np.all(s[r:] < 1e-12), "singular values beyond the target rank must vanish"
    B = generate_matrix(EnsembleSpec(kind="rank_deficient", M=24, N=18, seed=4, rank=5))
    sb = np.linalg.svd(B, compute_uv=False)
    assert np.sum(sb > 1e-10) == 5
    # default within-rank spectrum is flat
    assert np.isclose(sb[0] / sb[4], 1.0, rtol=1e-10)
    # rank 1 is one singular value, whatever kappa asks of the spread
    C = generate_matrix(EnsembleSpec(kind="rank_deficient", M=24, N=18, seed=4, rank=1, condition_number=1e3))
    sc = np.linalg.svd(C, compute_uv=False)
    assert np.isclose(sc[0], 1.0, rtol=1e-12) and np.all(sc[1:] < 1e-12)


def test_column_correlated_structure():
    rho = 0.8
    n = 24
    A = generate_matrix(EnsembleSpec(kind="column_correlated", M=20000, N=n, seed=5, correlation=rho))
    gram = A.T @ A  # rows are iid with covariance R / M, so E[A^T A] = R
    want = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    assert np.max(np.abs(gram - want)) < 0.06, "empirical column gram must approach rho^|i-j|"


def test_circulant_structure_and_taps():
    taps = np.array([2.0, 1.0, 0.0, 1.0])
    A = generate_matrix(EnsembleSpec(kind="circulant", M=4, N=4, taps=taps))
    idx = (np.arange(4)[:, None] - np.arange(4)[None, :]) % 4
    assert np.array_equal(A, taps[idx])
    assert np.array_equal(A[:, 0], taps)
    # every row is a cyclic shift of the previous one
    assert np.array_equal(np.roll(A[0], 1), A[1])
    B = generate_matrix(EnsembleSpec(kind="circulant", M=6, N=6, seed=9))
    assert np.array_equal(B[:, 0][(np.arange(6)[:, None] - np.arange(6)[None, :]) % 6], B)


def test_circulant_taps_are_the_generated_first_column():
    for spec in (EnsembleSpec(kind="circulant", M=9, N=9, seed=4),
                 EnsembleSpec(kind="circulant", M=4, N=4, taps=[2.0, 1.0, 0.0, 1.0])):
        assert np.array_equal(circulant_taps(spec), generate_matrix(spec)[:, 0])
    with pytest.raises(ValueError):
        circulant_taps(EnsembleSpec(kind="iid_gaussian", M=3, N=3))


@pytest.mark.parametrize("case", ["dft", "dft_complex_taps", "dft_complex_prior", "half_spectrum", "svd", "svd_tall_qr"])
def test_synthesize_from_factorization_matches_dense_route(case, monkeypatch):
    # same signal and noise draws as the dense route; only A x is formed,
    # by the factorization's matvec, so y agrees to rounding and keeps its
    # dtype, and no class densifies A.  The DFT classes form it by FFTs, the
    # QR-route SVD as the A it holds times x, the dense route's bits
    spec = EnsembleSpec(kind="circulant", M=64, N=64, seed=3)
    A = generate_matrix(spec)
    taps = circulant_taps(spec)
    prior = GaussianPrior(x0=0.5)
    if case == "dft_complex_taps":
        taps = taps + 1j * np.random.default_rng(1).standard_normal(64) / 8.0
        A = taps[(np.arange(64)[:, None] - np.arange(64)[None, :]) % 64]
    if case == "dft_complex_prior":
        prior = GaussianPrior(complex_valued=True)
    if case.startswith("svd"):
        A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=80 if case == "svd_tall_qr" else 50, N=30, seed=2))
        fact = svd_factorize(A)
        assert (fact._qr is not None) == (case == "svd_tall_qr")
    else:
        fact = circulant_factorize(taps)
    if case == "half_spectrum":
        fact = fact.half_spectrum()
    monkeypatch.setattr(type(fact), "reconstruct", lambda self: pytest.fail("A was densified"))
    dense = synthesize_instance(A, prior, sigma2=0.1, seed=8)
    free = synthesize_instance(fact, prior, sigma2=0.1, seed=8)
    assert free.fact is fact and "A" not in vars(free)
    assert np.array_equal(free.x_true, dense.x_true)
    assert free.y.dtype == dense.y.dtype == (float if case in ("dft", "half_spectrum", "svd", "svd_tall_qr") else complex)
    assert np.linalg.norm(free.y - dense.y) <= 1e-13 * np.linalg.norm(dense.y)
    if case == "svd_tall_qr":
        assert free.y.tobytes() == dense.y.tobytes()


def test_synthesize_instance_reproducible_and_consistent():
    A = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=300, N=200, seed=6))
    prior = GaussianPrior()
    m1 = synthesize_instance(A, prior, sigma2=0.25, seed=11)
    m2 = synthesize_instance(A, prior, sigma2=0.25, seed=11)
    assert np.array_equal(m1.y, m2.y)
    assert np.array_equal(m1.x_true, m2.x_true)
    m3 = synthesize_instance(A, prior, sigma2=0.25, seed=12)
    assert not np.allclose(m1.y, m3.y)
    # noise level: ||y - A x||^2 / M concentrates near sigma2
    resid = m1.y - A @ m1.x_true
    assert abs(np.mean(resid**2) - 0.25) < 0.25 * 5 * np.sqrt(2.0 / 300)


def test_signal_does_not_depend_on_matrix():
    prior = BernoulliGaussianPrior(rho=0.3)
    A1 = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=10, N=8, seed=0))
    A2 = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=10, N=8, seed=99))
    m1 = synthesize_instance(A1, prior, sigma2=0.1, seed=5)
    m2 = synthesize_instance(A2, prior, sigma2=0.1, seed=5)
    assert np.array_equal(m1.x_true, m2.x_true), "signal stream is keyed by seed, not by the matrix"


def test_synthesize_complex_matrix_gets_complex_noise():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((400, 4)) + 1j * rng.standard_normal((400, 4))
    prior = GaussianPrior(complex_valued=True)
    m = synthesize_instance(A, prior, sigma2=0.5, seed=1)
    assert np.iscomplexobj(m.y)
    assert np.iscomplexobj(m.x_true)
    resid = m.y - A @ m.x_true
    # circular noise: each part carries sigma2 / 2
    assert abs(np.mean(resid.real**2) - 0.25) < 0.08
    assert abs(np.mean(resid.imag**2) - 0.25) < 0.08


def test_haar_factors_are_orthonormal():
    # the rotation factors of the spread-spectrum families must be exactly
    # orthonormal, or the prescribed spectrum would be distorted
    A = generate_matrix(EnsembleSpec(kind="ill_conditioned", M=16, N=12, seed=13, condition_number=10.0))
    s = np.linalg.svd(A, compute_uv=False)
    expect = np.logspace(0.0, -1.0, 12)
    expect = expect / np.sqrt(np.mean(expect**2))
    assert np.allclose(np.sort(s), np.sort(expect), atol=1e-10)
