import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from utamp import DftFactorization, SvdFactorization, certify, circulant_factorize, load_matrix, save_matrix, save_vector, generate_matrix, EnsembleSpec, svd_factorize
import utamp
from utamp import VarianceFixedPoint, cli, denoisers, ensembles, matrixio, model, solvers, spectral
from utamp.cli import main, parse_ensemble, parse_prior, CliError
from utamp.denoisers import BernoulliGaussianPrior, GaussianPrior


# ------------------------------------------------------------- parsing


def test_parse_prior_forms():
    g = parse_prior("gauss")
    assert isinstance(g, GaussianPrior)
    g2 = parse_prior("gauss:mean=1.5,var=0.25")
    assert np.isclose(g2.x0, 1.5) and np.isclose(g2.tau0, 0.25)
    bg = parse_prior("bg:rho=0.2,mu=0.3,v=2.0")
    assert isinstance(bg, BernoulliGaussianPrior)
    assert bg.rho == 0.2 and bg.mu == 0.3 and bg.v == 2.0
    for bad in ["laplace", "bg", "bg:rho=2", "gauss:scale=1", "gauss:var=oops", "bg:rho=0.1,foo=1"]:
        with pytest.raises(CliError):
            parse_prior(bad)


def test_parse_ensemble_forms():
    spec = parse_ensemble(["ill_conditioned", "20", "10", "kappa=1e3", "seed=4"])
    assert spec.kind == "ill_conditioned" and spec.M == 20 and spec.N == 10
    assert spec.condition_number == 1e3 and spec.seed == 4
    spec2 = parse_ensemble(["circulant", "4", "4", "taps=2,1,0,1"])
    assert np.array_equal(spec2.taps, [2.0, 1.0, 0.0, 1.0])
    for bad in [["iid_gaussian"], ["mystery", "4", "4"], ["iid_gaussian", "a", "4"],
                ["iid_gaussian", "4", "4", "flavor=hot"], ["iid_gaussian", "4", "4", "seed"],
                ["ill_conditioned", "4", "4", "kappa=abc"]]:
        with pytest.raises(CliError):
            parse_ensemble(bad)


# ------------------------------------------------------------- gen


def test_gen_writes_loadable_matrix(tmp_path, capsys):
    out = tmp_path / "A.txt"
    code = main(["gen", "ill_conditioned", "16", "12", "kappa=100", "seed=2", "--out", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert "16 x 12" in msg and "condition number" in msg
    A = load_matrix(out)
    assert A.shape == (16, 12)
    s = np.linalg.svd(A, compute_uv=False)
    assert np.isclose(s[0] / s[-1], 100.0, rtol=1e-6)


def test_gen_matches_library_generation(tmp_path):
    out = tmp_path / "A.txt"
    main(["gen", "iid_gaussian", "8", "6", "seed=3", "--out", str(out)])
    want = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=8, N=6, seed=3))
    assert np.allclose(load_matrix(out), want, atol=1e-15)


# ------------------------------------------------------------- solve


def test_solve_ensemble_writes_traces(tmp_path, capsys):
    code = main([
        "solve", "iid_gaussian", "30", "20", "seed=1",
        "--sigma2", "0.05", "--algorithms", "all", "--out", str(tmp_path / "tr"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "utamp" in out and "amp-vec" in out and "amp-scalar" in out
    for name in ["utamp", "amp-vec", "amp-scalar"]:
        path = tmp_path / "tr" / f"trace_{name}.csv"
        assert path.exists(), name
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["t", "tau_x", "tau_q", "residual", "rel_change", "mse"]
        assert len(rows) > 2


def test_solve_matrix_file_with_observations(tmp_path, capsys):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 6)) / 3.0
    y = rng.standard_normal(10)
    save_matrix(tmp_path / "A.txt", A)
    save_vector(tmp_path / "y.txt", y)
    code = main([
        "solve", "--matrix", str(tmp_path / "A.txt"), "--observations", str(tmp_path / "y.txt"),
        "--sigma2", "0.1", "--algorithms", "utamp", "--out", str(tmp_path / "tr"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "file:" in out
    rows = list(csv.reader((tmp_path / "tr" / "trace_utamp.csv").open()))
    assert all(row[5] == "" for row in rows[1:]), "mse column must stay empty without ground truth"


def test_solve_exit_two_when_everything_diverges(tmp_path):
    code = main([
        "solve", "nonzero_mean", "30", "20", "--sigma2", "0.01",
        "--algorithms", "amp-vec,amp-scalar", "--max-iters", "100",
    ])
    assert code == 2


def test_solve_circulant_uses_fft_route(capsys):
    code = main(["solve", "circulant", "32", "32", "seed=5", "--sigma2", "0.05", "--algorithms", "utamp"])
    assert code == 0


def test_solve_circulant_never_forms_an_n_by_n_array(capsys):
    n = 4096
    tracemalloc.start()
    try:
        code = main(["solve", "circulant", str(n), str(n), "seed=1", "--seed", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    # one N x N float64 array is n * n * 8 bytes
    assert peak < n * n * 8 / 8, f"peak allocation {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("extra", [[], ["--factorization", "svd"], ["--factorization", "dft"]])
def test_solve_circulant_all_algorithms(extra, capsys):
    # the AMP baselines densify the matrix-free model on demand
    code = main(["solve", "circulant", "32", "32", "seed=3", "--algorithms", "all", *extra])
    assert code == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:]]
    assert [r[0] for r in rows] == ["amp-vec", "amp-scalar", "utamp"]
    for r in rows:
        assert r[1] == "converged" and float(r[5]) < 1e-8, r


@pytest.mark.parametrize("choice", ["auto", "dft"])
def test_circulant_matrix_file_is_checked_once(tmp_path, capsys, monkeypatch, choice):
    A = generate_matrix(EnsembleSpec(kind="circulant", M=16, N=16, seed=2))
    # within the check's tolerance: still taken as circulant
    A[3, 5] += 1e-14
    save_matrix(tmp_path / "A.txt", A)
    calls = []
    real_check = cli._is_circulant

    def counting_check(M):
        calls.append(M.shape)
        return real_check(M)

    factorized = []

    def counting_factorize(c):
        factorized.append(c)
        return circulant_factorize(c)

    monkeypatch.setattr(cli, "_is_circulant", counting_check)
    monkeypatch.setattr(cli, "circulant_factorize", counting_factorize)
    code = main(["solve", "--matrix", str(tmp_path / "A.txt"), "--factorization", choice])
    assert code == 0
    assert calls == [(16, 16)], f"_is_circulant ran {len(calls)} times"
    assert len(factorized) == 1, "a circulant file must take the FFT route"
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "compare", "certify"])
def test_circulant_matrix_file_takes_fft_route_by_default(tmp_path, capsys, monkeypatch, command):
    A = generate_matrix(EnsembleSpec(kind="circulant", M=16, N=16, seed=4))
    save_matrix(tmp_path / "A.txt", A)
    calls = []
    real_check = cli._is_circulant
    monkeypatch.setattr(cli, "_is_circulant", lambda M: calls.append(M.shape) or real_check(M))

    def no_svd(*args, **kwargs):
        raise AssertionError("a circulant file must not be factorized by SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert main([command, "--matrix", str(tmp_path / "A.txt")]) == 0
    assert calls == [(16, 16)], f"_is_circulant ran {len(calls)} times"
    capsys.readouterr()


@pytest.mark.parametrize("prior", ["gauss", "bg:rho=0.2"])
def test_circulant_file_and_ensemble_write_identical_traces(tmp_path, capsys, prior):
    # both are built on the DFT factorization of the same first column, so
    # the signal, the noise and every iterate agree bit for bit
    save_matrix(tmp_path / "A.txt", generate_matrix(EnsembleSpec(kind="circulant", M=24, N=24, seed=7)))
    common = ["--algorithms", "all", "--prior", prior, "--max-iters", "40", "--out"]
    assert main(["solve", "circulant", "24", "24", "seed=7", *common, str(tmp_path / "ens")]) in (0, 2)
    assert main(["solve", "--matrix", str(tmp_path / "A.txt"), *common, str(tmp_path / "file")]) in (0, 2)
    for name in ("utamp", "amp-vec", "amp-scalar"):
        ens = (tmp_path / "ens" / f"trace_{name}.csv").read_bytes()
        assert (tmp_path / "file" / f"trace_{name}.csv").read_bytes() == ens, name
    capsys.readouterr()


def test_complex_circulant_file_gets_a_complex_prior(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(9)
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    save_matrix(tmp_path / "A.txt", c[(np.arange(12)[:, None] - np.arange(12)[None, :]) % 12])
    seen = []
    real_synthesize = cli.synthesize_instance

    def spy(A, prior, **kw):
        seen.append((A, prior.complex_valued))
        return real_synthesize(A, prior, **kw)

    monkeypatch.setattr(cli, "synthesize_instance", spy)
    assert main(["solve", "--matrix", str(tmp_path / "A.txt"), "--prior", "bg:rho=0.3", "--max-iters", "20"]) in (0, 2)
    [(A, complex_prior)] = seen
    assert isinstance(A, DftFactorization) and complex_prior
    capsys.readouterr()


def test_complex_observations_get_a_complex_prior(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(10)
    save_matrix(tmp_path / "A.txt", rng.standard_normal((12, 8)))
    save_vector(tmp_path / "y.txt", rng.standard_normal(12) + 1j * rng.standard_normal(12))
    seen = []
    real_run = cli.run

    def spy(algorithm, model, prior, **kw):
        seen.append(prior.complex_valued)
        return real_run(algorithm, model, prior, **kw)

    monkeypatch.setattr(cli, "run", spy)
    assert main(["solve", "--matrix", str(tmp_path / "A.txt"), "--observations", str(tmp_path / "y.txt"),
                 "--prior", "bg:rho=0.2", "--max-iters", "20"]) in (0, 2)
    assert seen == [True]
    capsys.readouterr()


def test_amp_baseline_solve_with_a_bg_prior_factorizes_nothing(capsys, monkeypatch):
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a[0].shape) or real_svd(*a, **kw))
    code = main(["solve", "iid_gaussian", "80", "60", "--algorithms", "amp-vec", "--prior", "bg:rho=0.1"])
    assert code in (0, 2) and "amp-vec" in capsys.readouterr().out
    assert calls == [], "no solver of this run reads a factorization"


def test_square_non_circulant_file_keeps_the_svd_route(tmp_path, capsys, monkeypatch):
    save_matrix(tmp_path / "A.txt", generate_matrix(EnsembleSpec(kind="iid_gaussian", M=12, N=12, seed=6)))
    dft = []
    monkeypatch.setattr(cli, "circulant_factorize", lambda c: dft.append(c))
    assert main(["solve", "--matrix", str(tmp_path / "A.txt")]) == 0
    assert dft == []
    capsys.readouterr()


def test_solve_rejects_non_finite_input(tmp_path, capsys):
    A = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=6, N=4, seed=1))
    save_matrix(tmp_path / "A.txt", A)
    (tmp_path / "y.txt").write_text("6 1 real\n1\n2\nnan\n4\n5\n6\n")
    code = main(["solve", "--matrix", str(tmp_path / "A.txt"), "--observations", str(tmp_path / "y.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("utamp: error: y has non-finite"), err
    assert main(["solve", "circulant", "3", "3", "taps=1,nan,0"]) == 1
    assert capsys.readouterr().err.startswith("utamp: error: first column has non-finite")


@pytest.mark.parametrize("sigma2", ["inf", "-1"])
@pytest.mark.parametrize("command", ["solve", "certify"])
def test_non_finite_or_negative_sigma2_is_one_error_line(command, sigma2, capsys):
    # an infinite sigma2 used to surface as "y has non-finite entries" from
    # solve and as a ZeroDivisionError traceback from certify
    assert main([command, "iid_gaussian", "20", "10", "--sigma2", sigma2]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"utamp: error: sigma2 must be positive and finite, got {float(sigma2)}"]


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_subnormal_sigma2_is_one_error_line(command, capsys):
    # 1 / sigma2 overflowed, <lam_p, tau_s> went NaN and solve reported
    # "converged" after one iteration, with lmmse_gap 1.75
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "iid_gaussian", "6", "4", "--sigma2", "1e-320"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()], captured.err
    assert captured.err.startswith("utamp: error: sigma2 must not be subnormal"), captured.err
    assert "converged" not in captured.out


@pytest.mark.parametrize("x_tol", ["inf", "0", "nan"])
def test_bad_x_tol_exits_1(x_tol, capsys):
    # an infinite tolerance used to report "converged" after one iteration
    assert main(["solve", "iid_gaussian", "20", "10", "--x-tol", x_tol]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"utamp: error: x_tol must be positive and finite, got {float(x_tol)}"]
    assert "converged" not in captured.out


@pytest.mark.parametrize("option", [["--max-iters", "-1"], ["--x-tol", "0"], ["--x-tol", "nan"], ["--x-tol", "inf"]])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_solver_option_fails_before_the_problem_is_built(tmp_path, monkeypatch, capsys, option, source):
    # the options went unchecked until run(): compare --matrix parsed and
    # factorized the file and printed its problem line before exiting 1
    save_matrix(tmp_path / "A.txt", np.eye(3))
    monkeypatch.setattr(cli, "load_matrix", lambda *a, **kw: pytest.fail("the matrix was read"))
    argv = ["compare", "--matrix", str(tmp_path / "A.txt")]
    if source == "flag":
        argv += option
    else:
        value = int(option[1]) if option[0] == "--max-iters" else float(option[1])
        (tmp_path / "conf.json").write_text(json.dumps({option[0][2:].replace("-", "_"): value}))
        argv += ["--config", str(tmp_path / "conf.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    name = option[0][2:].replace("-", "_")
    assert captured.err.splitlines() == [captured.err.strip()] and captured.err.startswith(f"utamp: error: {name} must be"), captured.err


@pytest.mark.parametrize(
    "knob, field", [("kappa=inf", "condition_number"), ("kappa=nan", "condition_number"), ("mu_a=inf", "mean_shift"), ("mu_a=nan", "mean_shift")]
)
def test_non_finite_ensemble_knob_is_one_error_line(knob, field, capsys):
    # these used to print a numpy RuntimeWarning, then "A has non-finite entries"
    kind = "ill_conditioned" if field == "condition_number" else "nonzero_mean"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", kind, "20", "10", knob]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith(f"utamp: error: {field} must be"), err


@pytest.mark.parametrize("prior", ["gauss:mean=nan", "bg:rho=0.1,mu=nan", "bg:rho=0.1,v=inf"])
def test_non_finite_prior_is_bad_input_not_divergence(prior, tmp_path, capsys):
    # with --observations these priors used to run, diverge and exit 2
    rng = np.random.default_rng(0)
    save_matrix(tmp_path / "A.txt", rng.standard_normal((10, 6)))
    save_vector(tmp_path / "y.txt", rng.standard_normal(10))
    argv = ["solve", "--matrix", str(tmp_path / "A.txt"), "--observations", str(tmp_path / "y.txt"), "--prior", prior]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()], captured.err
    assert captured.err.startswith(f"utamp: error: bad prior {prior!r}: "), captured.err
    assert "diverged" not in captured.out


def test_solve_dft_on_noncirculant_fails(tmp_path, capsys):
    rng = np.random.default_rng(1)
    save_matrix(tmp_path / "A.txt", rng.standard_normal((6, 6)))
    code = main([
        "solve", "--matrix", str(tmp_path / "A.txt"), "--factorization", "dft", "--algorithms", "utamp",
    ])
    assert code == 1
    assert "circulant" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "compare", "certify"])
def test_matrix_file_prints_the_same_on_a_parse_a_cache_miss_and_a_hit(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    cache = tmp_path / "xdg" / "utamp"
    path = tmp_path / "A.txt"  # 2^16 numbers, the fewest the cache keeps
    save_matrix(path, generate_matrix(EnsembleSpec(kind="iid_gaussian", M=512, N=128, seed=1)))
    argv = [command, "--matrix", str(path), "--sigma2", "0.01"]
    factorized = []
    monkeypatch.setattr(cli, "svd_factorize", lambda a: factorized.append(a.shape) or svd_factorize(a))

    def table():
        # one factorization per problem on a miss, none on a hit
        del factorized[:]
        code = main(argv)
        # the seconds column is the one that changes from run to run
        return code, [line.rsplit(None, 1)[0] if line.startswith(("amp", "utamp")) else line
                      for line in capsys.readouterr().out.splitlines()], len(factorized)

    with monkeypatch.context() as mp:
        mp.setattr(cli, "load_matrix", lambda p: (matrixio.load_matrix(p), None))
        parsed = table()
    assert not cache.exists() and parsed[2] == 1
    assert table() == parsed  # a miss of both entries
    assert sorted(name.rsplit(".", 1)[1] for name in os.listdir(cache)) == ["npy", "svd"]
    monkeypatch.setattr(matrixio, "load_matrix", lambda path: pytest.fail("the file was parsed"))
    assert table()[:2] == parsed[:2] and not factorized  # a hit of both
    for entry in cache.glob("*.svd"):
        entry.unlink()
    assert table() == parsed  # a matrix hit, a factorization miss
    assert len(os.listdir(cache)) == 2


def test_amp_baselines_on_a_matrix_file_store_no_factorization(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    path = tmp_path / "A.txt"
    save_matrix(path, generate_matrix(EnsembleSpec(kind="iid_gaussian", M=512, N=128, seed=1)))
    monkeypatch.setattr(cli, "svd_factorize", lambda a: pytest.fail("A was factorized"))
    argv = ["solve", "--matrix", str(path), "--prior", "bg:rho=0.1", "--algorithms", "amp-vec,amp-scalar"]
    assert main(argv) in (0, 2) and "amp-scalar" in capsys.readouterr().out
    assert [name.rsplit(".", 1)[1] for name in os.listdir(tmp_path / "xdg" / "utamp")] == ["npy"]


def test_solve_input_errors(tmp_path, capsys):
    assert main(["solve", "--matrix", str(tmp_path / "missing.txt")]) == 1
    assert main(["solve"]) == 1
    assert main(["solve", "iid_gaussian", "8", "8", "--algorithms", "sorcery"]) == 1
    assert main(["solve", "iid_gaussian", "8", "8", "--matrix", "x.txt"]) == 1
    assert main(["solve", "iid_gaussian", "8", "8", "--algorithms", ","]) == 1
    save_vector(tmp_path / "y.txt", np.ones(7))
    assert main(["solve", "iid_gaussian", "8", "8", "--observations", str(tmp_path / "y.txt")]) == 1
    err = capsys.readouterr().err
    assert "empty algorithm list" in err and "observations have length 7, matrix has 8 rows" in err


def test_solve_bg_prior(capsys):
    code = main([
        "solve", "iid_gaussian", "60", "100", "seed=2", "--prior", "bg:rho=0.1",
        "--sigma2", "1e-4", "--algorithms", "utamp",
    ])
    assert code == 0
    assert "converged" in capsys.readouterr().out


# ------------------------------------------------------------- certify


def test_certify_prints_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["certify", "ill_conditioned", "12", "9", "kappa=1e4", "--sigma2", "0.02",
                 "--check-numeric", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "spectral radius" in text and "verdict: converges" in text
    assert "discrepancy" in text
    assert out.read_text().strip() in text


def test_certify_circulant_never_forms_an_n_by_n_array(capsys):
    n = 4096
    tracemalloc.start()
    try:
        code = main(["certify", "circulant", str(n), str(n), "seed=1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "verdict: converges" in capsys.readouterr().out
    # one N x N float64 array is n * n * 8 bytes
    assert peak < n * n * 8 / 8, f"peak allocation {peak / 2**20:.1f} MiB"


def test_certify_circulant_matches_dense_certificate(capsys, monkeypatch):
    spec = EnsembleSpec(kind="circulant", M=64, N=64, seed=3)
    targets, certs = [], []
    real_certify = cli.certify

    def spy_certify(target, *args, **kwargs):
        targets.append(target)
        certs.append(real_certify(target, *args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(cli, "certify", spy_certify)
    assert main(["certify", "circulant", "64", "64", "seed=3", "--sigma2", "0.05"]) == 0
    assert len(certs) == 1
    assert isinstance(targets[0], DftFactorization), "certify must take the FFT route"
    want = certify(generate_matrix(spec), GaussianPrior(), sigma2=0.05)
    assert abs(certs[0].spectral_radius - want.spectral_radius) <= 1e-12
    assert f"spectral radius = {want.spectral_radius:.6g}" in capsys.readouterr().out


def test_certify_matrix_file(tmp_path, capsys):
    A = generate_matrix(EnsembleSpec(kind="iid_gaussian", M=8, N=8, seed=1))
    save_matrix(tmp_path / "A.txt", A)
    assert main(["certify", "--matrix", str(tmp_path / "A.txt"), "--sigma2", "0.1"]) == 0
    capsys.readouterr()


def test_certify_rejects_bg_prior(capsys):
    assert main(["certify", "iid_gaussian", "8", "8", "--prior", "bg:rho=0.5"]) == 1
    assert "Gaussian" in capsys.readouterr().err


# ------------------------------------------------------------- compare


def test_compare_writes_summary(tmp_path, capsys):
    code = main([
        "compare", "ill_conditioned", "24", "18", "kappa=1e4", "seed=3",
        "--sigma2", "0.05", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "certificate" in out, "gaussian-prior comparison must include the certificate"
    path = tmp_path / "compare.csv"
    rows = list(csv.DictReader(path.open()))
    assert {r["algorithm"] for r in rows} == {"utamp", "amp-vec", "amp-scalar"}
    ut = next(r for r in rows if r["algorithm"] == "utamp")
    assert ut["status"] == "converged"
    assert float(ut["lmmse_gap"]) < 1e-6


def test_compare_matrix_file_factorizes_once(tmp_path, capsys, monkeypatch):
    A = generate_matrix(EnsembleSpec(kind="column_correlated", M=60, N=30, seed=4))
    path = tmp_path / "A.txt"
    save_matrix(path, A)

    svd_calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svd_calls.append(kwargs)
        return real_svd(*args, **kwargs)

    certs = []
    real_certify = cli.certify

    def spy_certify(*args, **kwargs):
        certs.append(real_certify(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(cli, "certify", spy_certify)
    code = main(["compare", "--matrix", str(path), "--sigma2", "0.01", "--seed", "2"])
    monkeypatch.undo()

    assert code == 0
    assert len(svd_calls) == 1, f"expected one SVD per problem, got {len(svd_calls)}"
    want = certify(A, GaussianPrior(), sigma2=0.01).spectral_radius
    assert len(certs) == 1
    assert abs(certs[0].spectral_radius - want) <= 1e-12
    assert f"certificate: spectral radius {want:.6g} (contractive)" in capsys.readouterr().out


def test_compare_matrix_file_transforms_once(tmp_path, monkeypatch):
    # run("utamp") and the LMMSE oracle share the model's one r = U_k^H y
    path = tmp_path / "A.txt"
    save_matrix(path, generate_matrix(EnsembleSpec(kind="column_correlated", M=60, N=30, seed=4)))
    calls = []
    real_project = SvdFactorization.project

    def counting_project(self, y):
        calls.append(y.shape)
        return real_project(self, y)

    monkeypatch.setattr(SvdFactorization, "project", counting_project)
    assert main(["compare", "--matrix", str(path), "--sigma2", "0.01", "--seed", "2"]) == 0
    assert calls == [(60,)]


def test_radius_near_one_prints_its_gap(tmp_path, capsys):
    # the radius is 1 - 1e-10; six significant digits would print it as 1
    cert = certify(1e6 * np.eye(5), GaussianPrior(), sigma2=1e-8)
    assert "spectral radius = 1 - 1e-10 (" in cert.report()
    assert "  alpha = 1 - 1e-10\n" in cert.report()
    save_matrix(tmp_path / "A.txt", 1e6 * np.eye(5))
    main(["compare", "--matrix", str(tmp_path / "A.txt"), "--sigma2", "1e-8",
          "--algorithms", "utamp,amp-scalar", "--max-iters", "5"])
    assert "certificate: spectral radius 1 - 1e-10 (contractive)" in capsys.readouterr().out


def test_compare_names_an_unconverged_fixed_point(capsys, monkeypatch):
    # the README quotes this line: a radius from such a fixed point is no verdict
    def unconverged(lam, sigma2, prior, shape):
        return VarianceFixedPoint(tau_x=0.5, tau_q=1.0, iterations=200, converged=False)

    monkeypatch.setattr(spectral, "variance_fixed_point", unconverged)
    main(["compare", "iid_gaussian", "12", "8", "--algorithms", "utamp,amp-vec"])
    assert "(NOT contractive: stepsize fixed point did not converge)" in capsys.readouterr().out


def test_package_republishes_each_module_all():
    # each module's __all__ is the one list of its public names
    assert len(utamp.__all__) == len(set(utamp.__all__))
    for module in (denoisers, ensembles, matrixio, model, solvers, spectral):
        for name in module.__all__:
            assert getattr(utamp, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_cli_import_does_not_load_scipy():
    code = "import sys, utamp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]", out.stdout


@pytest.mark.parametrize("prior", ["gauss", "bg:rho=0.1"], ids=["gauss", "bg"])
def test_small_circulant_solve_starts_no_fft_threads(prior):
    # N = 4096 stays on pocketfft, and the step's and the denoiser's
    # elementwise chains run inline: no executor, and concurrent.futures
    # (about 6 ms to import) is never loaded
    code = (
        "import sys, utamp.cli\n"
        "before = 'concurrent.futures' in sys.modules\n"
        f"code = utamp.cli.main(['solve', 'circulant', '4096', '4096', 'seed=2', '--seed', '2', '--prior', {prior!r}])\n"
        "print('RESULT', code, before, 'concurrent.futures' in sys.modules, utamp._threads._pool)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip().splitlines()[-1] == "RESULT 0 False False None", out.stdout[-500:]


def test_compare_needs_two_algorithms(capsys):
    assert main(["compare", "iid_gaussian", "8", "8", "--algorithms", "utamp"]) == 1
    capsys.readouterr()


def test_compare_exit_two_when_all_diverge(capsys):
    code = main([
        "compare", "nonzero_mean", "30", "20", "--sigma2", "0.01",
        "--algorithms", "amp-vec,amp-scalar", "--max-iters", "80",
    ])
    assert code == 2
    capsys.readouterr()


# ------------------------------------------------------------- misc


@pytest.mark.parametrize("placement", ["after", "after=", "abbreviated", "before"])
def test_config_file_supplies_defaults(tmp_path, capsys, placement):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"sigma2": 0.5, "max_iters": 5}))
    flag = {"after": ["--config", str(conf)], "after=": [f"--config={conf}"],
            "abbreviated": ["--conf", str(conf)], "before": []}[placement]
    command = ["solve", "iid_gaussian", "10", "8", *flag, "--algorithms", "utamp"]
    code = main(["--config", str(conf), *command] if placement == "before" else command)
    assert code == 2  # no solver converged within 5 iterations
    out = capsys.readouterr().out
    assert "sigma2 = 0.5" in out
    assert "max_iters" in out  # capped run reports max_iters status


def test_config_flag_is_overridden_by_cli(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"sigma2": 0.5}))
    main(["solve", "iid_gaussian", "10", "8", "--config", str(conf), "--sigma2", "0.125",
          "--algorithms", "utamp"])
    assert "sigma2 = 0.125" in capsys.readouterr().out


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "iid_gaussian", "8", "8", "--config", str(bad)]) == 1
    bad2 = tmp_path / "list.json"
    bad2.write_text("[1, 2]")
    assert main(["solve", "iid_gaussian", "8", "8", "--config", str(bad2)]) == 1
    assert main(["solve", "iid_gaussian", "8", "8", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("values", [
    {"max_iters": 10.5},
    {"sigma2": None},
    {"prior": 3},
    {"algorithms": ["utamp"]},
    {"check_numeric": 0},
    {"factorization": "bogus"},  # outside its choices; argparse checks them on the command line only
])
def test_config_value_of_the_wrong_type_is_one_error_line(tmp_path, capsys, values):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(values))
    try:
        code = main(["solve", "iid_gaussian", "10", "8", "--config", str(conf)])
    except SystemExit as exc:  # argparse's own message
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and err.splitlines()[-1].startswith("utamp")


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc2:
        main(["gen", "iid_gaussian", "4", "4"])  # missing --out
    assert exc2.value.code == 1
