"""End-to-end benchmark of utamp, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is used from source (``src`` on
PYTHONPATH), one closed-loop client with one op in flight.  Workloads:

* dense_file     ``utamp compare --matrix FILE --seed s`` on a 4000 x 500
                 column_correlated matrix written to a text file at set-up
* circulant_cli  ``utamp solve circulant 4096 4096 seed=s --seed s``
* fft_steps      N = 2^20 circulant, 20 transform-domain steps in a loop the
                 benchmark writes from utamp's exported names, inside one
                 worker process

Every op's answer is checked.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics listed in BENCHMARK.json; with ``--trace 1``
every second op runs traced and the line carries the per-layer metrics.
Records, spans included, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import child
import machine
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
# every run, set-up included, must end well inside three minutes
DEADLINE_S = 170
MB = 1e6

# computed working sets, compared in the report with the measured L3
_M, _N = child.DENSE_SHAPE
WORKING_SET_MB = {
    # A and |A|^2, the full M x M U and the N x N V
    "dense_file": (2 * _M * _N + _M**2 + _N**2) * 8 / MB,
    # dense A plus the index and gathered N x N arrays of the circulant check
    "circulant_cli": 3 * child.CIRCULANT_N**2 * 8 / MB,
    # about 12 complex length-N vectors live within one step
    "fft_steps": 12 * child.FFT_N * 16 / MB,
}


@dataclass
class Completed:
    seconds: float
    code: int
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def spawn(cmd, env, scratch):
    """Run cmd to completion from the repository root; time it from the
    parent and take its peak RSS and CPU time from wait4."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(
        seconds, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
        out_path.read_text(), err_path.read_text(),
    )


def checked(done, what):
    if done.code != 0:
        raise RuntimeError(f"{what} exited {done.code}: {done.stderr.strip()[-2000:]}")
    return done


class Workload:
    def __init__(self, name, seed, seconds, trace):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.scratch = OUT / f"{name}-seed{seed}-trace{trace}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        # children cache bytecode as an installed package would, whatever
        # the caller's setting
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.setup_s = []
        self.setup_spans = []
        self.ops = []  # dicts: seconds, cpu_s, rss_mb, traced, problems, spans
        self.skipped = set()  # trace sites absent at this commit

    def child_cmd(self, *args):
        return [sys.executable, str(HERE / "child.py"), *map(str, args)]

    def setup_rep(self):
        """One fresh-process preparation of the workload's inputs."""
        raise NotImplementedError

    def run(self):
        for _ in range(SETUP_REPS):
            done = self.setup_rep()
            self.setup_s.append(done.seconds)
        self.measure()

    def keep_going(self, start):
        traced = sum(op["traced"] for op in self.ops)
        return time.perf_counter() - start < self.seconds or (self.trace and traced == 0)


class CliWorkload(Workload):
    """Each op is ``python -m utamp ARGS`` in a fresh process; a traced op
    runs the same arguments under ``child.py cli``."""

    need_certificate = False

    def op_argv(self, index):
        raise NotImplementedError

    def measure(self):
        spans_path = self.scratch / "spans.json"
        start = time.perf_counter()
        while self.keep_going(start):
            argv = self.op_argv(len(self.ops))
            traced = bool(self.trace) and len(self.ops) % 2 == 1
            if traced:
                cmd = self.child_cmd("cli", "--spans", spans_path, "--", *argv)
            else:
                cmd = [sys.executable, "-m", "utamp", *argv]
            done = spawn(cmd, self.env, self.scratch)
            op = {
                "argv": argv,
                "seconds": done.seconds,
                "cpu_s": done.cpu_s,
                "rss_mb": done.rss_mb,
                "traced": traced,
                "problems": stats.check_cli_op(done.code, done.stdout, self.need_certificate),
            }
            if traced:
                traced_run = json.loads(spans_path.read_text())
                op["spans"] = traced_run["spans"]
                for s in op["spans"]:
                    s["op"] = len(self.ops)
                self.skipped.update(traced_run["skipped"])
            self.ops.append(op)


class DenseFile(CliWorkload):
    need_certificate = True

    def __init__(self, *args):
        super().__init__(*args)
        self.matrix = self.scratch / "matrix.txt"

    def setup_rep(self):
        done = checked(spawn(self.child_cmd("setup", "dense_file", "--seed", self.seed, "--matrix", self.matrix),
                             self.env, self.scratch), "dense_file set-up")
        self.setup_spans += json.loads(done.stdout)
        return done

    def op_argv(self, index):
        path = self.matrix.relative_to(ROOT)
        return ["compare", "--matrix", str(path), "--seed", str(child.derive_seed(self.seed, "op", index))]


class CirculantCli(CliWorkload):
    def setup_rep(self):
        # a small warm-up op: starts the interpreter, imports utamp and
        # runs the same CLI path
        s = str(child.derive_seed(self.seed, "warmup"))
        done = spawn([sys.executable, "-m", "utamp", "solve", "circulant", "256", "256", f"seed={s}", "--seed", s],
                     self.env, self.scratch)
        problems = stats.check_cli_op(done.code, done.stdout, False)
        if problems:
            raise RuntimeError(f"circulant_cli warm-up failed: {problems} {done.stderr.strip()[-2000:]}")
        return done

    def op_argv(self, index):
        s = str(child.derive_seed(self.seed, "op", index))
        n = str(child.CIRCULANT_N)
        return ["solve", "circulant", n, n, f"seed={s}", "--seed", s]


class FftSteps(Workload):
    def setup_rep(self):
        done = checked(spawn(self.child_cmd("setup", "fft_steps", "--seed", self.seed), self.env, self.scratch),
                       "fft_steps set-up")
        self.setup_spans += json.loads(done.stdout)
        return done

    def measure(self):
        result_path = self.scratch / "fft.json"
        cmd = self.child_cmd("fft", "--seed", self.seed, "--seconds", self.seconds,
                             "--trace", self.trace, "--result", result_path)
        checked(spawn(cmd, self.env, self.scratch), "fft_steps worker")
        result = json.loads(result_path.read_text())
        # the worker's own import belongs to its set-up
        self.setup_spans += [s for s in result["spans"] if s["op"] is None]
        self.skipped.update(result["skipped"])
        for index, op in enumerate(result["ops"]):
            op["rss_mb"] = result["rss_mb"]
            op["spans"] = [s for s in result["spans"] if s["op"] == index]
            self.ops.append(op)


WORKLOADS = {"dense_file": DenseFile, "circulant_cli": CirculantCli, "fft_steps": FftSteps}


def end_to_end(w):
    summary = stats.summarize_ops([{**op, "ok": not op["problems"]} for op in w.ops])
    metrics = {
        "op_s.p50": summary["p50"],
        "op_s.tail": summary["tail"],
        "setup_s": statistics.median(w.setup_s),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    notes = [
        f"ops: {summary['attempted']} attempted, {summary['failed']} failed, fail_frac {summary['fail_frac']:.3g}",
        f"op_s.tail is p{summary['tail_pct']:.4g} of {summary['n']} samples",
    ]
    return metrics, notes


def per_layer(w):
    traced = [op for op in w.ops if op["traced"]]
    plain = [op for op in w.ops if not op["traced"]]
    metrics = stats.median_metrics([stats.op_layer_metrics(op["spans"]) for op in traced])
    # every fresh-process import of utamp the run made, set-up included
    all_spans = [s for op in traced for s in op["spans"]] + w.setup_spans
    imports = [s["end"] - s["start"] for s in all_spans if s["name"] == "import"]
    saves = [s["end"] - s["start"] for s in w.setup_spans if s["name"] == "matrixio.save_matrix"]
    traced_p50 = statistics.median(op["seconds"] for op in traced)
    metrics.update({
        "import.s": statistics.median(imports),
        "matrixio.save_s": statistics.median(saves) if saves else 0.0,
        "process.cpu_s": statistics.median(op["cpu_s"] for op in plain),
        "trace.op_s.p50": traced_p50,
        "trace.overhead_s": traced_p50 - statistics.median(op["seconds"] for op in plain),
        "trace.coverage": statistics.median(stats.coverage(op["spans"], op["seconds"]) for op in traced),
    })
    notes = [f"traced ops: {len(traced)}, untraced ops: {len(plain)}"]
    if w.skipped:
        notes.append(f"not traced at this commit (their metrics read 0): {', '.join(sorted(w.skipped))}")
    return metrics, notes


def main(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "utamp" / "__init__.py").is_file():
        print(f"perfbench: no utamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)

    env = machine.describe(ROOT)
    warnings = machine.differences(env, HERE / "baseline_env.json")
    for line in warnings:
        print(f"perfbench: warning: environment differs from the baseline: {line}", file=sys.stderr)

    w = WORKLOADS[args.workload](args.workload, args.seed, args.seconds, args.trace)
    try:
        w.run()
    finally:
        for leftover in ("matrix.txt", "child.out", "child.err", "spans.json", "fft.json"):
            (w.scratch / leftover).unlink(missing_ok=True)
    metrics, notes = (per_layer if args.trace else end_to_end)(w)
    metrics = {key: float(value) for key, value in metrics.items()}
    signal.alarm(0)

    bad = [m["name"] for m in wanted if not math.isfinite(metrics.get(m["name"], math.nan))]
    if bad:
        raise RuntimeError(f"metrics missing or not finite: {bad}")
    failed = sum(bool(op["problems"]) for op in w.ops)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "env_differences": warnings, "untraced_sites": sorted(w.skipped),
        "working_set_mb_computed": WORKING_SET_MB[args.workload],
        "setup_s": w.setup_s, "metrics": metrics,
        "ops": [{k: v for k, v in op.items() if k != "spans"} for op in w.ops],
        "spans": [s for op in w.ops for s in op.get("spans", [])] + w.setup_spans,
    }
    (w.scratch / "record.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace} ({args.seconds:g} s closed loop, 1 client)")
    print(f"machine: {env['cpu_model']}, nproc {env['nproc']}, L3 {env['l3_mb']} MiB, RAM {env['ram_gb']} GiB; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']} with {env['blas_threads']} threads; commit {env['commit']}")
    print(f"working set: {WORKING_SET_MB[args.workload]:.0f} MB (computed) against L3 {env['l3_mb']} MiB (measured)")
    print(f"set-up: {SETUP_REPS} fresh-process reps, {', '.join(f'{s:.3f}' for s in w.setup_s)} s")
    for op in w.ops:
        if op["problems"]:
            print(f"FAILED op: {'; '.join(op['problems'])}")
    for line in notes:
        print(line)
    for m in wanted:
        print(f"{m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(w.ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
