"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench/tests"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402
from spans import Tracer, install  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


# -- percentile / tail rule ----------------------------------------------------


def test_tail_is_max_below_eleven_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail(range(10)) == (9, 100.0, 10)


def test_tail_leaves_exactly_ten_samples_beyond():
    value, pct, n = stats.tail(range(11))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100.0 / 11)
    value, pct, n = stats.tail(range(100, 0, -1))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in range(100, 0, -1)) == 10


def test_tail_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.tail([])


# -- failure counting ----------------------------------------------------------


def _op(seconds, ok, rss=100.0):
    return {"seconds": seconds, "ok": ok, "rss_mb": rss}


def test_failed_ops_are_counted_and_left_out_of_timings():
    out = stats.summarize_ops([_op(1.0, True), _op(0.01, False, rss=900.0), _op(3.0, True), _op(2.0, True)])
    assert (out["attempted"], out["failed"]) == (4, 1)
    assert out["fail_frac"] == 0.25
    assert out["p50"] == 2.0
    assert (out["tail"], out["tail_pct"], out["n"]) == (3.0, 100.0, 3)
    assert out["peak_rss_mb"] == 900.0


def test_all_failed_still_reports_timings_of_all_ops():
    out = stats.summarize_ops([_op(1.0, False), _op(2.0, False)])
    assert out["fail_frac"] == 1.0
    assert out["p50"] == 1.5


def test_check_cli_op_counts_each_failure_kind():
    good = (DATA / "compare_dense.txt").read_text()
    assert stats.check_cli_op(0, good, need_certificate=True) == []
    assert stats.check_cli_op(2, good, need_certificate=True) == ["exit code 2"]
    assert stats.check_cli_op(0, good.replace("utamp        converged", "utamp        max_iters "), True)
    assert stats.check_cli_op(0, good.replace("6.660e-10", "2.000e-08"), True)
    assert stats.check_cli_op(0, good.replace("(contractive)", "(NOT contractive)"), True)
    no_cert = "\n".join(ln for ln in good.splitlines() if not ln.startswith("certificate"))
    assert stats.check_cli_op(0, no_cert, need_certificate=True)
    assert stats.check_cli_op(0, no_cert, need_certificate=False) == []
    assert stats.check_cli_op(0, "", need_certificate=False) == ["no utamp row in the output"]


def test_check_fft_op():
    assert stats.check_fft_op(True, -28.1, -25.0) == []
    assert stats.check_fft_op(True, -20.0, -25.0)
    assert stats.check_fft_op(False, None, -25.0) == ["non-finite iterate"]


# -- output table parser -------------------------------------------------------


def test_parse_compare_sample():
    rows, cert = stats.parse_table((DATA / "compare_dense.txt").read_text())
    assert list(rows) == ["amp-vec", "amp-scalar", "utamp"]
    u = rows["utamp"]
    assert (u["status"], u["iters"]) == ("converged", 132)
    assert u["residual"] == 5.986 and u["nmse_db"] == -10.2
    assert u["lmmse_gap"] == 6.660e-10 and u["seconds"] == 0.160
    assert rows["amp-vec"]["status"] == "diverged"
    assert cert == {"radius": 0.86083, "contractive": True}


def test_parse_reads_columns_from_the_header():
    text = (DATA / "compare_dense.txt").read_text()
    text = text.replace("seconds\n", "seconds extra\n").replace("0.160\n", "0.160 7\n")
    rows, _ = stats.parse_table(text)
    assert list(rows) == ["utamp"] and rows["utamp"]["extra"] == 7
    assert stats.check_cli_op(0, text, need_certificate=True) == []


def test_parse_solve_sample_and_dashes():
    text = (DATA / "solve_circulant.txt").read_text()
    rows, cert = stats.parse_table(text)
    assert list(rows) == ["utamp"] and cert is None
    assert rows["utamp"]["lmmse_gap"] == 6.801e-10
    rows, _ = stats.parse_table(text.replace("-13.1   6.801e-10", "    -           -"))
    assert rows["utamp"]["nmse_db"] is None and rows["utamp"]["lmmse_gap"] is None


# -- self-time arithmetic ------------------------------------------------------


def _span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": 0, **attrs}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "spectral.certify", 2.0, 6.0, 0),
        _span(2, "model.svd_factorize", 2.5, 5.5, 1, mb=1.0),
        _span(3, "solvers.lmmse_solve", 7.0, 8.0, 0),
    ]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "a", 0.0, 10.0), _span(1, "b", 1.0, 4.0, 0), _span(2, "c", 3.0, 5.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(6.0)


def test_op_layer_metrics_from_a_small_trace():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "solvers.run", 1.0, 5.0, 0),
        _span(2, "solvers.step.utamp", 1.0, 2.0, 1),
        _span(3, "model.apply_av", 1.1, 1.3, 2, mb=2.0),
        _span(4, "denoisers.gaussian", 1.5, 1.9, 2, mb=3.0),
        _span(5, "model.apply_av", 2.0, 2.5, 1, mb=2.0),  # residual, loop overhead
        _span(6, "solvers.step.utamp", 3.0, 4.0, 1),
        _span(7, "spectral.certify", 6.0, 9.0, 0),
        _span(8, "model.svd_factorize", 6.0, 8.0, 7, mb=128.0),
        _span(9, "spectral.variance_fixed_point", 8.0, 8.5, 7, iterations=40, converged=True),
    ]
    m = stats.op_layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert m["solvers.run_self_s"] == pytest.approx(4.0 - 2.0)  # minus the steps, apply kept
    assert m["solvers.step_s.utamp"] == pytest.approx(1.0)
    assert m["solvers.iters.utamp"] == 2 and m["solvers.iters.vector"] == 0
    assert m["solvers.step_s.vector"] == 0.0
    assert m["model.apply_calls"] == 2 and m["model.apply_av_s"] == pytest.approx(0.7)
    assert m["denoisers.calls"] == 1 and m["denoisers.s_per_call.gaussian"] == pytest.approx(0.4)
    assert m["model.svd_calls"] == 1 and m["model.factor_mb"] == 128.0
    assert m["spectral.certify_self_s"] == pytest.approx(0.5)
    assert m["spectral.fixed_point_iters"] == 40 and m["spectral.fixed_point_converged"] == 1.0
    assert stats.coverage(spans, 12.5) == pytest.approx(0.8)


def test_median_metrics():
    assert stats.median_metrics([{"a": 1.0}, {"a": 5.0}, {"a": 2.0}]) == {"a": 2.0}


# -- tracer --------------------------------------------------------------------


def test_tracer_records_nesting_and_restores_patches():
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    tracer.op = 7
    tracer.patch(mod, "inner", "m.inner", lambda args, result: {"mb": float(result)})
    tracer.patch(mod, "outer", "m.outer")
    original_inner = tracer._patches[0][2]
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is original_inner
    inner, outer = sorted(tracer.spans, key=lambda s: s["name"])
    assert outer["name"] == "m.outer" and inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["mb"] == 2.0 and inner["op"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_install_skips_sites_absent_at_this_commit():
    def module(name, **attrs):
        return types.SimpleNamespace(__name__=name, **attrs)

    fake = module(
        "utamp",
        cli=module("utamp.cli", run=lambda: "ran"),
        spectral=module("utamp.spectral"),
        solvers=module("utamp.solvers"),
        denoisers=module("utamp.denoisers"),
        Factorization=type("Factorization", (), {}),
    )
    tracer = Tracer()
    skipped = install(tracer, fake)
    assert "utamp.cli.run" not in skipped and "utamp.cli.load_matrix" in skipped
    assert "Factorization.apply_av" in skipped
    assert fake.cli.run() == "ran" and [s["name"] for s in tracer.spans] == ["solvers.run"]
    tracer.uninstall()
