"""Child processes of the benchmark.

Run as ``python perfbench/child.py MODE ...`` with ``src`` on PYTHONPATH:

* ``setup dense_file --seed S --matrix PATH``  draw the dense matrix, write it
* ``setup fft_steps --seed S``                 synthesize the FFT instance
* ``cli --spans PATH -- ARGS...``              one traced ``utamp ARGS`` op
* ``fft --seed S --seconds T --trace 0|1 --result PATH``
                                               the fft_steps worker

Setup modes print their spans as JSON on stdout.  Importing this module
imports neither numpy nor utamp; the modes do.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import random
import resource
import sys
import time

from spans import Tracer, install
from stats import check_fft_op

DENSE_SHAPE = (4000, 500)
CIRCULANT_N = 4096
FFT_N = 2**20
FFT_STEPS = 20
FFT_WARMUP_STEPS = 2
FFT_SIGMA2 = 1e-3
FFT_RHO = 0.1
# seed-commit ops reach about -28 dB after 20 steps; 3 dB of margin
FFT_NMSE_LIMIT_DB = -25.0


def derive_seed(seed, tag, index=0):
    """Deterministic 31-bit seed for one input of a workload run."""
    return random.Random(f"{seed}:{tag}:{index}").randrange(2**31)


def _import_utamp(tracer):
    with tracer.span("import"):
        import utamp
        import utamp.cli  # noqa: F401  (``python -m utamp`` imports it too)
    return utamp


def fft_inputs(utamp, seed):
    """Seeded taps, Bernoulli-Gaussian signal and y = taps (*) x + noise, by FFT."""
    import numpy as np

    rng = np.random.default_rng(derive_seed(seed, "fft"))
    n = FFT_N
    taps = rng.standard_normal(n) / np.sqrt(n)
    prior = utamp.BernoulliGaussianPrior(rho=FFT_RHO)
    x = prior.sample(n, rng)
    y = np.fft.ifft(np.fft.fft(taps) * np.fft.fft(x)).real + np.sqrt(FFT_SIGMA2) * rng.standard_normal(n)
    return {"taps": taps, "x": x, "y": y, "prior": prior}


def fft_op(utamp, inputs, span, steps=FFT_STEPS):
    """The documented custom-loop route: factorize, transform, then a fixed
    budget of transform-domain steps.  Returns the final iterate."""
    import numpy as np

    n, prior = FFT_N, inputs["prior"]
    fact = utamp.circulant_factorize(inputs["taps"])
    with span("model.transform"):
        lam2 = np.abs(fact.lam) ** 2
        fields = dict(fact=fact, r=fact.apply_uh(inputs["y"]), sigma2=FFT_SIGMA2, lam_p=lam2, lam_s=lam2)
        # pass only the fields this commit's TransformedModel has (lam_s is
        # slated for removal)
        known = {f.name for f in dataclasses.fields(utamp.TransformedModel)}
        tmodel = utamp.TransformedModel(**{k: v for k, v in fields.items() if k in known})
    state = utamp.initial_state("utamp", n, n, prior, dtype=complex)
    for _ in range(steps):
        state, _ = utamp.ut_amp_step(state, tmodel, prior)
    return state.x


def nospan(name):
    return contextlib.nullcontext()


def nmse_db(x, x_true):
    import numpy as np

    return float(10.0 * np.log10(np.sum(np.abs(x - x_true) ** 2) / np.sum(np.abs(x_true) ** 2)))


def setup_main(args):
    tracer = Tracer()
    utamp = _import_utamp(tracer)
    if args.workload == "dense_file":
        m, n = DENSE_SHAPE
        spec = utamp.EnsembleSpec(kind="column_correlated", M=m, N=n, seed=derive_seed(args.seed, "matrix"))
        with tracer.span("ensembles.generate_matrix"):
            a = utamp.generate_matrix(spec)
        with tracer.span("matrixio.save_matrix"):
            utamp.save_matrix(args.matrix, a)
    elif args.workload == "fft_steps":
        with tracer.span("fft.synthesize"):
            fft_inputs(utamp, args.seed)
    else:
        raise SystemExit(f"no setup mode for {args.workload}")
    print(json.dumps(tracer.spans))


def cli_main(args):
    tracer = Tracer()
    tracer.op = 0
    utamp = _import_utamp(tracer)
    skipped = install(tracer, utamp)
    try:
        with tracer.span("cli.main"):
            code = utamp.cli.main(args.argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.spans, "skipped": skipped}, fh)
    return code


def fft_main(args):
    """Closed loop of fft_steps ops in this process; with --trace 1 every
    second op is traced.  Writes ops, spans and peak RSS to --result."""
    import numpy as np

    tracer = Tracer()
    utamp = _import_utamp(tracer)
    inputs = fft_inputs(utamp, args.seed)
    x_true = inputs["x"]
    warm = fft_op(utamp, inputs, nospan, steps=FFT_WARMUP_STEPS)
    if not np.all(np.isfinite(warm)):
        raise SystemExit("fft_steps warm-up op produced a non-finite iterate")

    ops, skipped = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (args.trace and len(ops) < 2):
        traced = bool(args.trace) and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            skipped = install(tracer, utamp)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            x = fft_op(utamp, inputs, tracer.span if traced else nospan)
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.uninstall()
        finite = bool(np.all(np.isfinite(x)))
        nmse = nmse_db(x, x_true) if finite else None
        ops.append({
            "seconds": t1 - t0,
            "cpu_s": c1 - c0,
            "traced": traced,
            "nmse_db": nmse,
            "problems": check_fft_op(finite, nmse, FFT_NMSE_LIMIT_DB),
        })
    result = {
        "ops": ops,
        "spans": tracer.spans,
        "skipped": skipped,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("workload")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--matrix")
    c = sub.add_parser("cli")
    c.add_argument("--spans", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    f = sub.add_parser("fft")
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--seconds", type=float, required=True)
    f.add_argument("--trace", type=int, choices=(0, 1), default=0)
    f.add_argument("--result", required=True)
    args = p.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"setup": setup_main, "cli": cli_main, "fft": fft_main}[args.mode](args) or 0


if __name__ == "__main__":
    sys.exit(main())
