"""Command-line harness.

Subcommands:

* gen      draw a matrix from a named ensemble and write it to a text file
* solve    run one or more solvers on an instance, write iteration traces
* certify  print the transform-domain convergence certificate for a matrix
* compare  run several solvers on one instance and tabulate the outcomes

Problems come either from a matrix file (--matrix, optionally --observations
for a measured y) or from an ensemble description given as positional tokens,
e.g. ``ill_conditioned 80 60 kappa=1e4 seed=3``.  The transform is the DFT
for circulant input (a circulant ensemble, or a square matrix file found to
be circulant, unless --factorization svd) and the SVD otherwise; certify
uses it too, so a circulant ensemble is never densified.  Exit codes: 0 on
success, 1 on invalid input or usage, 2 when no requested solver reached
status converged (solve, compare; max_iters counts as not converged) or the
certificate is not contractive (certify).

A --matrix text file of 2^16 numbers or more is parsed once: later runs on
the same bytes read the parsed array from $XDG_CACHE_HOME/utamp
(~/.cache/utamp when unset); deleting that directory clears the cache.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .denoisers import BernoulliGaussianPrior, GaussianPrior
from .ensembles import ENSEMBLE_KINDS, EnsembleSpec, circulant_taps, generate_matrix, synthesize_instance
# --matrix files are read through the cache.  The name load_matrix is kept
# for the call site that perfbench times as matrixio.load_s, which so
# includes the cache's hashing and, on a hit, its np.load.
from .matrixio import load_cached as load_matrix
from .matrixio import load_vector, save_matrix
from .model import FactorizationError, LinearModel, circulant_factorize
from .solvers import _check_max_iters, _check_x_tol, lmmse_transformed, run
from .spectral import UnsupportedPriorError, certify, format_radius

__all__ = ["main", "console_main", "build_parser"]

# CLI algorithm names -> library kernel names
_ALGO_NAMES = {"amp-vec": "vector", "amp-scalar": "scalar", "utamp": "utamp"}


class _Parser(argparse.ArgumentParser):
    # invalid usage exits 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    """Input problems discovered after argument parsing."""


def _solver_option(convert, check):
    """An argparse type that rejects a value run() would reject, before any
    problem is built; argparse applies it to a --config string too.  A value
    that does not parse is argparse's usage error; one out of range is a
    CliError, which argparse lets through to main's one error line."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        try:
            return check(value)
        except ValueError as exc:
            raise CliError(str(exc)) from None

    return parse


def _parse_kv(token: str, context: str) -> tuple[str, str]:
    if "=" not in token:
        raise CliError(f"{context}: expected key=value, got {token!r}")
    key, _, value = token.partition("=")
    return key.strip(), value.strip()


def parse_prior(text: str):
    """'gauss[:mean=0,var=1]' or 'bg:rho=0.1[,mu=0,v=1]'."""
    name, _, params = text.partition(":")
    name = name.strip().lower()
    kv = {}
    if params:
        for tok in params.split(","):
            k, v = _parse_kv(tok, f"prior {text!r}")
            kv[k] = v
    try:
        if name in ("gauss", "gaussian"):
            allowed = {"mean", "var"}
            extra = set(kv) - allowed
            if extra:
                raise CliError(f"unknown gaussian prior parameters: {sorted(extra)}")
            return GaussianPrior(x0=float(kv.get("mean", 0.0)), tau0=float(kv.get("var", 1.0)))
        if name in ("bg", "bernoulli-gaussian"):
            allowed = {"rho", "mu", "v"}
            extra = set(kv) - allowed
            if extra:
                raise CliError(f"unknown bernoulli-gaussian prior parameters: {sorted(extra)}")
            if "rho" not in kv:
                raise CliError("bernoulli-gaussian prior needs rho, e.g. bg:rho=0.1")
            return BernoulliGaussianPrior(
                rho=float(kv["rho"]), mu=float(kv.get("mu", 0.0)), v=float(kv.get("v", 1.0))
            )
    except ValueError as exc:
        raise CliError(f"bad prior {text!r}: {exc}") from None
    raise CliError(f"unknown prior {name!r}, expected 'gauss' or 'bg'")


_ENSEMBLE_ALIASES = {
    "kappa": "condition_number",
    "condition_number": "condition_number",
    "rank": "rank",
    "r": "rank",
    "rho_c": "correlation",
    "correlation": "correlation",
    "mean_shift": "mean_shift",
    "mu_a": "mean_shift",
    "seed": "seed",
    "taps": "taps",
}


def parse_ensemble(tokens: list[str]) -> EnsembleSpec:
    """Positional form: KIND M N [key=value ...]."""
    if len(tokens) < 3:
        raise CliError("ensemble description needs at least: KIND M N")
    kind = tokens[0]
    if kind not in ENSEMBLE_KINDS:
        raise CliError(f"unknown ensemble kind {kind!r}, expected one of {ENSEMBLE_KINDS}")
    try:
        m, n = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise CliError(f"M and N must be integers, got {tokens[1]!r} {tokens[2]!r}") from None
    kw: dict = {}
    for tok in tokens[3:]:
        key, value = _parse_kv(tok, "ensemble option")
        if key not in _ENSEMBLE_ALIASES:
            raise CliError(f"unknown ensemble option {key!r}")
        field = _ENSEMBLE_ALIASES[key]
        try:
            if field == "seed" or field == "rank":
                kw[field] = int(value)
            elif field == "taps":
                kw[field] = np.array([float(v) for v in value.split(",")])
            else:
                kw[field] = float(value)
        except ValueError:
            raise CliError(f"bad value for {key}: {value!r}") from None
    try:
        return EnsembleSpec(kind=kind, M=m, N=n, **kw)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _is_circulant(A: np.ndarray) -> bool:
    # square A; row i of a circulant is its first row rolled right by i.
    # Row by row, so a non-circulant A is usually rejected at row 1 without
    # an N x N temporary.
    return all(np.allclose(A[i], np.roll(A[0], i), rtol=1e-10, atol=1e-12) for i in range(1, A.shape[0]))


def _load_operator(args, prior):
    """Return (A, label): A is the DFT factorization of a circulant input,
    else the dense matrix of --matrix or of an ensemble.

    A circulant ensemble is circulant by construction, and a square dense A
    is checked once; unless --factorization svd asks for a dense SVD, either
    becomes the DFT factorization of its first column, and a circulant
    ensemble forms no N x N array.  A complex A makes the prior complex.
    """
    choice = getattr(args, "factorization", "auto")
    if args.matrix is not None:
        if args.ensemble:
            raise CliError("give either --matrix or an ensemble description, not both")
        A, label = load_matrix(args.matrix), f"file:{args.matrix}"
    elif not args.ensemble:
        raise CliError("need a problem: either --matrix FILE or an ensemble description (KIND M N ...)")
    else:
        spec = parse_ensemble(args.ensemble)
        if spec.kind == "circulant" and choice != "svd":
            return circulant_factorize(circulant_taps(spec)), spec.kind
        A, label = generate_matrix(spec), spec.kind
    if np.iscomplexobj(A):
        prior.complex_valued = True
    if choice != "svd" and A.shape[0] == A.shape[1] and _is_circulant(A):
        return circulant_factorize(A[:, 0]), label
    if choice == "dft":
        raise CliError("--factorization dft needs a circulant matrix (first column must generate it)")
    return A, label


def _resolve_problem(args, prior):
    """Build (model, label): the problem and its name."""
    A, label = _load_operator(args, prior)
    if args.observations:
        y = load_vector(args.observations)
        if y.shape[0] != A.shape[0]:
            raise CliError(f"observations have length {y.shape[0]}, matrix has {A.shape[0]} rows")
        if np.iscomplexobj(y):
            prior.complex_valued = True
        model = LinearModel(A=A, y=y, sigma2=args.sigma2, x_true=None)
    else:
        model = synthesize_instance(A, prior, sigma2=args.sigma2, seed=args.seed)
    return model, label


def _parse_algorithms(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise CliError("empty algorithm list")
    if names == ["all"]:
        names = list(_ALGO_NAMES)
    out = []
    for name in names:
        if name not in _ALGO_NAMES:
            raise CliError(f"unknown algorithm {name!r}, expected one of {sorted(_ALGO_NAMES)} or 'all'")
        if name not in out:
            out.append(name)
    return out


def _nmse_db(x, x_true):
    if x_true is None:
        return None
    num = float(np.sum(np.abs(x - x_true) ** 2))
    den = float(np.sum(np.abs(x_true) ** 2))
    if den == 0:
        return None
    return 10.0 * np.log10(max(num / den, 1e-300))


def _run_algorithms(model, prior, names, args, out_dir):
    xstar = lmmse_transformed(model, prior) if isinstance(prior, GaussianPrior) else None
    rows = []
    for name in names:
        kernel = _ALGO_NAMES[name]
        t0 = time.perf_counter()
        state, trace = run(kernel, model, prior, max_iters=args.max_iters, x_tol=args.x_tol)
        elapsed = time.perf_counter() - t0
        finite = bool(np.all(np.isfinite(state.x)))
        row = {
            "algorithm": name,
            "status": trace.status,
            "iterations": state.t,
            "residual": trace.last()["residual"],
            "nmse_db": _nmse_db(state.x, model.x_true) if finite else None,
            "lmmse_gap": float(np.max(np.abs(state.x - xstar))) if (xstar is not None and finite) else None,
            "seconds": elapsed,
        }
        rows.append(row)
        if out_dir is not None:
            trace.to_csv(out_dir / f"trace_{name}.csv")
    return rows


def _print_rows(rows):
    def fmt(v, spec=".3e"):
        return "-" if v is None else f"{v:{spec}}"

    header = f"{'algorithm':<12} {'status':<10} {'iters':>6} {'residual':>11} {'nmse_db':>9} {'lmmse_gap':>11} {'seconds':>8}"
    print(header)
    for r in rows:
        print(
            f"{r['algorithm']:<12} {r['status']:<10} {r['iterations']:>6d} "
            f"{fmt(r['residual']):>11} {fmt(r['nmse_db'], '.1f'):>9} "
            f"{fmt(r['lmmse_gap']):>11} {r['seconds']:>8.3f}"
        )


def cmd_gen(args) -> int:
    spec = parse_ensemble(args.ensemble)
    A = generate_matrix(spec)
    save_matrix(args.out, A)
    s = np.linalg.svd(A, compute_uv=False)
    tol = s.max() * max(A.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int(np.sum(s > tol))
    cond = s[0] / s[rank - 1] if rank else np.inf
    print(f"wrote {A.shape[0]} x {A.shape[1]} {spec.kind} matrix to {args.out}")
    print(f"  seed {spec.seed}, rank {rank}, condition number {cond:.6g}")
    return 0


def _solve(args, names, compare):
    """The shared body of solve and compare; exit 2 unless some solver converged."""
    prior = parse_prior(args.prior)
    model, label = _resolve_problem(args, prior)
    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    print(f"problem: {label}, {model.M} x {model.N}, sigma2 = {model.sigma2:.6g}")
    rows = _run_algorithms(model, prior, names, args, out_dir)
    _print_rows(rows)
    if compare and isinstance(prior, GaussianPrior) and "utamp" in names:
        cert = certify(model, prior)
        verdict = "contractive" if cert.converges else "NOT contractive"
        if not cert.fixed_point.converged:
            verdict += ": stepsize fixed point did not converge"
        print(f"certificate: spectral radius {format_radius(cert.spectral_radius)} ({verdict})")
    if out_dir is not None and compare:
        path = out_dir / "compare.csv"
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            w.writeheader()
            for r in rows:
                w.writerow({k: ("" if v is None else v) for k, v in r.items()})
        print(f"summary written to {path}")
    elif out_dir is not None:
        print(f"traces written to {out_dir}")
    return 0 if any(r["status"] == "converged" for r in rows) else 2


def cmd_solve(args) -> int:
    return _solve(args, _parse_algorithms(args.algorithms), compare=False)


def cmd_certify(args) -> int:
    prior = parse_prior(args.prior)
    if not isinstance(prior, GaussianPrior):
        raise CliError("certification needs a Gaussian prior (--prior gauss[:mean=..,var=..])")
    A, _ = _load_operator(args, prior)
    cert = certify(A, prior, sigma2=args.sigma2, check_numeric=args.check_numeric)
    report = cert.report()
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
    return 0 if cert.converges else 2


def cmd_compare(args) -> int:
    names = _parse_algorithms(args.algorithms)
    if len(names) < 2:
        raise CliError("compare needs at least two algorithms")
    return _solve(args, names, compare=True)


def _add_problem_arguments(p, with_solver_options):
    p.add_argument("ensemble", nargs="*", default=[], metavar="ENSEMBLE",
                   help="ensemble description: KIND M N [key=value ...]")
    p.add_argument("--matrix", help="read the matrix from this text file instead")
    p.add_argument("--sigma2", type=float, default=0.01, help="noise variance (default 0.01)")
    p.add_argument("--prior", default="gauss",
                   help="prior: gauss[:mean=..,var=..] or bg:rho=..[,mu=..,v=..] (default gauss)")
    if with_solver_options:
        p.add_argument("--observations", help="read y from this vector file (skips synthesis)")
        p.add_argument("--seed", type=int, default=0, help="seed for signal and noise synthesis")
        p.add_argument("--factorization", choices=("auto", "svd", "dft"), default="auto",
                       help="transform used by utamp (auto picks dft when the input is circulant)")
        p.add_argument("--max-iters", type=_solver_option(int, _check_max_iters), default=1000)
        p.add_argument("--x-tol", type=_solver_option(float, _check_x_tol), default=1e-10)
        p.add_argument("--out", help="directory for iteration trace CSV files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="utamp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # name -> subcommand parser, whose defaults --config sets

    p_gen = sub.add_parser("gen", help="generate a test matrix and write it to a file")
    p_gen.add_argument("ensemble", nargs="+", metavar="ENSEMBLE", help="KIND M N [key=value ...]")
    p_gen.add_argument("--out", required=True, help="output matrix file")

    p_solve = sub.add_parser("solve", help="run solvers on one instance")
    _add_problem_arguments(p_solve, with_solver_options=True)
    p_solve.add_argument("--algorithms", default="utamp",
                         help="comma-separated subset of utamp,amp-vec,amp-scalar or 'all' (default utamp)")

    p_cert = sub.add_parser("certify", help="print the convergence certificate for a matrix")
    _add_problem_arguments(p_cert, with_solver_options=False)
    p_cert.add_argument("--check-numeric", action="store_true",
                        help="cross-check closed-form eigenvalues against a dense eigendecomposition")
    p_cert.add_argument("--out", help="also write the report to this file")

    p_cmp = sub.add_parser("compare", help="run several solvers on the same instance")
    _add_problem_arguments(p_cmp, with_solver_options=True)
    p_cmp.add_argument("--algorithms", default="all",
                       help="comma-separated list, at least two (default all)")

    for sp in (p_gen, p_solve, p_cert, p_cmp):
        # SUPPRESS: an absent --config here leaves one given before the command
        sp.add_argument("--config", default=argparse.SUPPRESS, help="JSON file with default option values")
    return parser


def _apply_config(parser, args):
    # --config JSON supplies the chosen command's defaults; explicit flags still win
    path = args.config
    try:
        with open(path) as fh:
            values = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise CliError(f"config {path} must hold a JSON object")
    # a switch of any command takes only true or false, since str(0) is truthy
    for sp in parser.commands.values():
        for key, v in values.items():
            if isinstance(sp.get_default(key), bool) and not isinstance(v, bool):
                raise CliError(f"config {path}: {key} must be true or false, got {v!r}")
    # argparse converts only string defaults, so each value goes in as the
    # string its flag would read (a list of strings for the positional ensemble)
    sp = parser.commands[args.command]
    defaults = {}
    for key in values.keys() & (vars(args).keys() - {"command", "config"}):
        v, default = values[key], sp.get_default(key)
        if not isinstance(default, bool):
            v = [str(t) for t in v] if isinstance(default, list) and isinstance(v, list) else str(v)
        # argparse checks choices on the command line only, not on a default
        choices = next(a.choices for a in sp._actions if a.dest == key)
        if choices is not None and v not in choices:
            allowed = ", ".join(map(repr, choices))
            raise CliError(f"config {path}: {key}: invalid choice: {v!r} (choose from {allowed})")
        defaults[key] = v
    sp.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        handler = {"gen": cmd_gen, "solve": cmd_solve, "certify": cmd_certify, "compare": cmd_compare}[args.command]
        return handler(args)
    except (CliError, FactorizationError, UnsupportedPriorError, ValueError, OSError) as exc:
        print(f"utamp: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
