"""Pure arithmetic of the benchmark: timing summaries, answer checks, the
parser for the ``utamp solve``/``compare`` table, and per-layer metrics
computed from recorded spans.

Nothing here starts a process or touches a file, so the tests in
``perfbench/tests`` exercise it directly.
"""

from __future__ import annotations

import re
import statistics

# -- op timing summaries ----------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    With n >= 11 samples that is the 11th largest value, at percentile
    100 (n - 10) / n; with fewer samples it is the maximum.  Returns
    (value, percentile, n).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def summarize_ops(ops):
    """Summarize timed ops, each a dict with ``seconds``, ``ok``, ``rss_mb``.

    Timing statistics cover the ops that passed their answer check (all ops
    when none passed); a failed op is counted in ``failed`` and
    ``fail_frac``.
    """
    attempted = len(ops)
    if attempted == 0:
        raise ValueError("no ops were attempted")
    good = [op for op in ops if op["ok"]]
    failed = attempted - len(good)
    secs = [op["seconds"] for op in (good or ops)]
    value, pct, n = tail(secs)
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "p50": statistics.median(secs),
        "tail": value,
        "tail_pct": pct,
        "n": n,
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }


# -- the solve/compare output table -----------------------------------------

_RADIUS = re.compile(r"spectral radius ([-+0-9.eE]+)")


def _value(token):
    if token == "-":
        return None
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def parse_table(text):
    """Parse the stdout of ``utamp solve`` or ``utamp compare``.

    Columns are read from the header line, so an added column does not break
    the parse.  Returns (rows, certificate): rows maps algorithm name to its
    columns ("-" reads None), certificate is None or a dict with
    ``contractive`` and ``radius`` (None when the line gives none).
    """
    rows, cert, columns = {}, None, None
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["algorithm"]:
            columns = tokens
        elif line.startswith("certificate:"):
            radius = _RADIUS.search(line)
            cert = {
                "contractive": "contractive" in line and "NOT contractive" not in line,
                "radius": float(radius.group(1)) if radius else None,
            }
        elif columns and len(tokens) == len(columns):
            row = dict(zip(columns, map(_value, tokens)))
            rows[str(row["algorithm"])] = row
    return rows, cert


GAP_LIMIT = 1e-8


def check_cli_op(exit_code, stdout, need_certificate):
    """Problems with one CLI op's answer; an empty list means it passed.

    The utamp row must be converged with an LMMSE gap at most GAP_LIMIT,
    and with need_certificate the certificate line must read contractive.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    rows, cert = parse_table(stdout)
    row = rows.get("utamp")
    if row is None:
        return ["no utamp row in the output"]
    problems = []
    if row.get("status") != "converged":
        problems.append(f"utamp status {row.get('status')}")
    gap = row.get("lmmse_gap")
    if gap is None or not gap <= GAP_LIMIT:
        problems.append(f"utamp lmmse_gap {gap} above {GAP_LIMIT}")
    if need_certificate and (cert is None or not cert["contractive"]):
        problems.append("certificate missing or not contractive")
    return problems


def check_fft_op(finite, nmse_db, limit_db):
    """Problems with one fft_steps op: the iterate must be finite and reach
    an NMSE at or below limit_db."""
    if not finite:
        return ["non-finite iterate"]
    if not nmse_db <= limit_db:
        return [f"nmse {nmse_db:.2f} dB above {limit_db} dB"]
    return []


# -- spans ------------------------------------------------------------------
#
# A span is a dict with at least id, name, start, end, parent (an id or
# None) and op (the op it belongs to).  Span names are "<module>.<function>".


def self_times(spans):
    """Map span id to its duration minus the part its direct children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _duration(s):
    return s["end"] - s["start"]


def coverage(spans, wall):
    """Share of an op's wall time covered by its top-level spans."""
    top = sum(_duration(s) for s in spans if s["parent"] is None)
    return top / wall


STEP_KERNELS = ("utamp", "vector", "scalar")

def op_layer_metrics(spans):
    """Layer metrics of one op from its spans.

    Times without a call read 0.0.  solvers.run_self_s is run() minus its
    child spans other than apply_av/apply_avh: those children are the
    residual the loop computes itself, so they count as loop overhead.
    """
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_duration(s) for s in calls(name))

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    ids = {s["id"]: s for s in spans}
    run_self = 0.0
    for s in calls("solvers.run"):
        run_self += own[s["id"]]
    for s in spans:
        parent = ids.get(s["parent"])
        if parent is not None and parent["name"] == "solvers.run" and s["name"].startswith("model.apply_av"):
            run_self += _duration(s)

    applies = calls("model.apply_av") + calls("model.apply_avh")
    denoises = calls("denoisers.gaussian") + calls("denoisers.bg")
    fixed = calls("spectral.variance_fixed_point")
    out = {
        "cli.self_s": sum(own[s["id"]] for s in calls("cli.main")),
        "matrixio.load_s": total("matrixio.load_matrix"),
        "matrixio.load_bytes": float(sum(s.get("bytes", 0) for s in calls("matrixio.load_matrix"))),
        "ensembles.generate_s": total("ensembles.generate_matrix"),
        "ensembles.synthesize_s": total("ensembles.synthesize_instance"),
        "model.svd_s": total("model.svd_factorize"),
        "model.svd_calls": float(len(calls("model.svd_factorize"))),
        "model.factor_mb": max((s.get("mb", 0.0) for s in calls("model.svd_factorize")), default=0.0),
        "model.dft_s": total("model.circulant_factorize"),
        "model.transform_s": total("model.transform"),
        "model.apply_av_s": total("model.apply_av"),
        "model.apply_avh_s": total("model.apply_avh"),
        "model.apply_calls": float(len(applies)),
        "model.apply_mb_per_call": mean(s.get("mb", 0.0) for s in applies),
        "solvers.run_self_s": run_self,
        "solvers.init_s": total("solvers.initial_state"),
        "solvers.lmmse_s": total("solvers.lmmse_solve"),
        "denoisers.calls": float(len(denoises)),
        "denoisers.s_per_call.gaussian": mean(_duration(s) for s in calls("denoisers.gaussian")),
        "denoisers.s_per_call.bg": mean(_duration(s) for s in calls("denoisers.bg")),
        "denoisers.mb_per_call": mean(s.get("mb", 0.0) for s in denoises),
        "spectral.certify_self_s": sum(own[s["id"]] for s in calls("spectral.certify")),
        "spectral.fixed_point_s": total("spectral.variance_fixed_point"),
        "spectral.fixed_point_iters": float(sum(s.get("iterations", 0) for s in fixed)),
        "spectral.fixed_point_converged": mean(float(s.get("converged", False)) for s in fixed),
    }
    for k in STEP_KERNELS:
        steps = calls(f"solvers.step.{k}")
        out[f"solvers.step_s.{k}"] = mean(_duration(s) for s in steps)
        out[f"solvers.iters.{k}"] = float(len(steps))
    return out


def median_metrics(per_op):
    """Median of each metric over a list of per-op metric dicts."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}

