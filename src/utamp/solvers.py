"""Message-passing solvers for y = A x + n.

Three step kernels share one loop driver:

* vector stepsize: per-element variances, couples through |A|^2 matvecs;
* scalar stepsize: |A|^2 collapsed to its average via the Frobenius norm,
  one variance scalar per side;
* transform domain: scalar variances on the estimate, per-element variances
  in the measurement domain, iterating on r = U_k^H y = Lam V x + w so the
  per-iteration cost is two unitary applies (FFTs in the circulant case,
  real FFTs on the N//2 + 1 bins of the half spectrum when the circulant,
  y and the prior are real).

All kernels are plain functions from (state, problem, prior) to
(state, tau_q): the new state and the pseudo-observation variance the
denoiser was given.  A step keeps none of its other intermediates.  Asked
for it, a step also reports ||y - A x|| of the state it was given, from the
product A x (Lam V x) it computes anyway, so run() pays for no third apply.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .denoisers import GaussianPrior
from ._threads import _blockwise
from .model import DftFactorization, LinearModel, TransformedModel, _matmul, _matmul_h

__all__ = [
    "ALGORITHMS",
    "SolverState",
    "Trace",
    "vector_amp_step",
    "scalar_amp_step",
    "ut_amp_step",
    "initial_state",
    "run",
    "lmmse_solve",
    "lmmse_transformed",
]

ALGORITHMS = ("vector", "scalar", "utamp")


@dataclass(eq=False)
class SolverState:
    """x is the current estimate, tau_x its error variance (length-N vector
    for the vector kernel, scalar otherwise), s the dual variable carried
    across iterations, t the number of completed iterations."""

    x: np.ndarray
    tau_x: np.ndarray | float
    s: np.ndarray
    t: int = 0

    def tau_x_mean(self) -> float:
        return _mean(self.tau_x)


def _mean(v) -> float:
    # np.mean of a Python float costs microseconds a call; a float is its own mean
    return float(np.mean(v)) if isinstance(v, np.ndarray) else float(v)


def _guarded_correction(x, tau_q, corr):
    # x + tau_q * corr with tau_q = inf treated as "no update" so that
    # inf * 0 never produces a nan; a scalar tau_q overwrites corr with it
    if isinstance(tau_q, np.ndarray):
        finite = np.isfinite(tau_q)
        return x + np.where(finite, tau_q, 0.0) * np.where(finite, corr, 0.0 * corr)
    scale = float(tau_q) if math.isfinite(tau_q) else 0.0
    _blockwise(lambda b: np.add(x[b], np.multiply(scale, (c := corr[b]), out=c), out=c), corr.size)
    return corr


def _sumsq(d: np.ndarray, fact=None, start=0) -> float:
    """The sum of |d_i|^2 over d, the block of a vector from index start,
    with fact's bin weights (fact.bin_sum) when d lives on its bins.  The
    plain sum is an einsum on d's float view, numpy's own loop, so no BLAS
    call runs on a worker thread."""
    v = d.view(np.float64)
    total = float(np.einsum("i,i", v, v))
    if fact is None:
        return total
    return fact.bin_sum(total, lambda i: abs(d[i - start]) ** 2, start, start + d.size)


def _norm(d: np.ndarray, fact=None, outside=0.0) -> float:
    """sqrt(_sumsq(d, fact) + outside) in one blocked pass, the blocks' sums
    added in block order, so the result does not depend on the number of CPUs."""
    return math.sqrt(sum(_blockwise(lambda b: _sumsq(d[b], fact, b.start), d.size, aligned=True), outside))


def vector_amp_step(
    state: SolverState, model: LinearModel, prior, *, residual=None
) -> tuple[SolverState, np.ndarray | float]:
    """One iteration with per-element variances.

    Variance propagation uses |A|^2 as the coupling matrix in both
    directions; the pseudo-observation variance is the elementwise
    reciprocal of |A^H|^2 tau_s.  residual, when given, is a length-1 float
    array set to ||y - A x|| of state.x, from the step's A x.
    """
    A = model.A
    tau_p = model.abs2 @ np.asarray(state.tau_x, dtype=float)
    ax = _matmul(A, state.x)
    if residual is not None:
        residual[0] = _norm(model.y - ax)
    p = ax - tau_p * state.s
    tau_s = 1.0 / (tau_p + model.sigma2)
    s = tau_s * (model.y - p)
    col = model.abs2.T @ tau_s
    with np.errstate(divide="ignore"):
        tau_q = np.where(col > 0, 1.0 / np.where(col > 0, col, 1.0), np.inf)
    q = _guarded_correction(state.x, tau_q, _matmul_h(A, s))
    out = prior.denoise(q, tau_q)
    new = SolverState(x=out.mean, tau_x=out.var, s=s, t=state.t + 1)
    return new, tau_q


def scalar_amp_step(state: SolverState, model: LinearModel, prior, *, residual=None) -> tuple[SolverState, float]:
    """One iteration with |A|^2 replaced by its mean: row sums become
    ||A||_F^2 / M, column sums ||A||_F^2 / N, making every stepsize a
    scalar.  residual as for vector_amp_step."""
    A = model.A
    tau_x = state.tau_x_mean()
    tau_p = model.frob2 / model.M * tau_x
    ax = _matmul(A, state.x)
    if residual is not None:
        residual[0] = _norm(model.y - ax)
    p = ax - tau_p * state.s
    tau_s = 1.0 / (tau_p + model.sigma2)
    s = tau_s * (model.y - p)
    denom = model.frob2 / model.N * tau_s
    tau_q = 1.0 / denom if denom > 0 else np.inf
    q = _guarded_correction(state.x, tau_q, _matmul_h(A, s))
    out = prior.denoise(q, tau_q)
    new = SolverState(x=out.mean, tau_x=out.var_scalar, s=s, t=state.t + 1)
    return new, tau_q


def ut_amp_step(state: SolverState, tmodel: TransformedModel, prior, *, residual=None) -> tuple[SolverState, float]:
    """One transform-domain iteration on tmodel, a TransformedModel on a Factorization.

    The estimate-side variance is a scalar, but the measurement-side
    variances stay per element: tau_p = tau_x * lam_p, where lam_p holds the
    k = min(M, N) squared singular values, as long as r and s.  The
    pseudo-observation variance is N / <lam_p, tau_s>, the sum taken with
    the factorization's bin weights (fact.bin_sum; 1, 2, ..., 2, 1 on the
    half spectrum of RealDftFactorization).

    Outside the denoiser the step holds at most three arrays of length k
    of its own: Lam V x (the output of apply_av), tau_s and s until the
    reduction, then s and q.  The chain (tau_p, p = Lam V x - tau_p s,
    tau_s, s and the residual's block sum) is apply_av's then: it runs on
    each block of Lam V x right after Lam scales it, inside the FFT's row
    pass on the DFT route, and keeps tau_p and p one block at a time.  Lam^H s
    is built in Lam V x's dead buffer (apply_avh's out), and so is q on the
    DFT route, where V^H applies in place.  The elementwise chains here, in the
    applies and in the denoiser run on every CPU from 2^16 entries up
    (_threads); the reductions stay whole, or add the blocks' sums in block
    order, so the iterate does not depend on the number of CPUs.

    residual, when given, is a length-1 float array set to ||y - A x|| of
    state.x, from ||r - Lam V x||^2, reduced block by block in the chain,
    plus tmodel.outside.  An s whose length is not r's raises ValueError.
    """
    if state.s.size != tmodel.r.size:
        raise ValueError(f"s has length {state.s.size}, but r has length {tmodel.r.size}")
    fact = tmodel.fact
    tau_x = state.tau_x_mean()
    # the dtype of p = Lam V x - tau_p s, known before apply_av returns Lam V x:
    # V is complex only where U, and so r, is
    dtype = np.result_type(state.x, state.s, tmodel.r, fact.lam)
    tau_s, s = np.empty(state.s.size), np.empty(state.s.size, dtype)
    parts = {}

    def chain(b, lvx_b):
        tau_s_b, s_b = tau_s[b], s[b]
        if residual is not None:
            # r - Lam V x in s's block, before s is built there
            parts[b.start] = _sumsq(np.subtract(tmodel.r[b], lvx_b, out=s_b), fact, b.start)
        tau_p_b = np.multiply(tau_x, tmodel.lam_p[b])
        np.multiply(tau_p_b, state.s[b], out=s_b, dtype=dtype)
        np.subtract(lvx_b, s_b, out=s_b)  # p
        np.add(tau_p_b, tmodel.sigma2, out=tau_s_b)
        np.reciprocal(tau_s_b, out=tau_s_b)
        np.subtract(tmodel.r[b], s_b, out=s_b)
        np.multiply(tau_s_b, s_b, out=s_b)

    lvx = fact.apply_av(state.x, then=chain)
    if residual is not None:
        residual[0] = math.sqrt(sum((parts[i] for i in sorted(parts)), tmodel.outside))
    # einsum sums in numpy, not in BLAS, so the iterate does not depend on
    # the number of BLAS threads
    denom = fact.bin_sum(float(np.einsum("i,i", tmodel.lam_p, tau_s)), lambda i: tmodel.lam_p[i] * tau_s[i])
    del tau_s
    tau_q = tmodel.N / denom if denom > 0 else np.inf
    # Lam V x is dead: Lam^H s is built in it, and on the DFT route q as well
    q = _guarded_correction(state.x, tau_q, fact.apply_avh(s, out=lvx if lvx.dtype == dtype else None))
    del lvx
    out = prior.denoise(q, tau_q)
    new = SolverState(x=out.mean, tau_x=out.var_scalar, s=s, t=state.t + 1)
    return new, tau_q


@dataclass(eq=False)
class Trace:
    """Iteration history plus the final status.

    One record per recorded state: the initial state at t = 0 (tau_q and
    rel_change undefined there) and one per completed iteration.  status is
    "converged", "max_iters", or "diverged".
    """

    columns = ("t", "tau_x", "tau_q", "residual", "rel_change", "mse")

    records: list[dict] = field(default_factory=list)
    status: str = "max_iters"

    def append(self, **kw) -> None:
        self.records.append(kw)

    def last(self) -> dict:
        return self.records[-1]

    def column(self, name: str) -> list:
        return [r.get(name) for r in self.records]

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        for r in self.records:
            row = []
            for c in self.columns:
                v = r.get(c)
                if v is None:
                    row.append("")
                elif c == "t":
                    row.append(str(int(v)))
                else:
                    row.append(f"{v:.17g}")
            w.writerow(row)
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_string())


def initial_state(algorithm: str, n: int, m: int, prior, dtype=float) -> SolverState:
    """Prior-mean start: x = E[x], tau_x = Var[x] (per element or averaged),
    dual variable zero, of length m: M, or tmodel.r.size for utamp."""
    x = prior.mean_vector(n).astype(np.result_type(dtype, prior.mean_vector(1).dtype))
    var = prior.variance_vector(n)
    if algorithm == "vector":
        tau_x = var
    else:
        tau_x = float(np.mean(var))
    s = np.zeros(m, dtype=np.result_type(dtype, float))
    return SolverState(x=x, tau_x=tau_x, s=s, t=0)


_DIVERGENCE_NORM = 1e12  # an iterate whose norm passes this has diverged


def _check_max_iters(max_iters: int) -> int:
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    return max_iters


def _check_x_tol(x_tol: float) -> float:
    if not 0.0 < x_tol < np.inf:
        raise ValueError(f"x_tol must be positive and finite, got {x_tol}")
    return x_tol


def run(
    algorithm: str,
    model: LinearModel,
    prior,
    *,
    max_iters: int = 1000,
    x_tol: float = 1e-10,
) -> tuple[SolverState, Trace]:
    """Drive one of the three kernels to termination.

    utamp iterates on the model's factorization (model.fact), on its
    transformed model; a circulant model (DftFactorization) with a real first
    column, a real y and a real prior iterates on the N//2 + 1 bins of the
    half spectrum instead (RealDftFactorization) and returns a real x.

    Stops when the relative change of x drops to x_tol (converged), after
    max_iters iterations (max_iters), or when the estimate goes non-finite
    or its norm passes _DIVERGENCE_NORM (diverged); a non-finite dual
    variable reaches the estimate in the same step.  max_iters = 0 is valid
    and returns the initial state untouched.  The initial state and every iterate are recorded alike;
    each record's residual is ||y - A x||, which utamp reads off its
    transformed model.  The step that starts from x reports that residual
    from the product A x it computes anyway, so its record is completed one
    step late, and an iteration costs two applies (utamp) or two products
    with A; the last state's residual costs one more product.  rel_change,
    mse and the norm take one blocked pass each, through buffers allocated
    once per call.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    _check_max_iters(max_iters)
    _check_x_tol(x_tol)

    weights, outside = None, 0.0  # target's bin weights, if any, and the part of ||y - A x||^2 it misses
    if algorithm == "utamp":
        fact = model.fact
        real = (
            isinstance(fact, DftFactorization)
            and np.isrealobj(fact.column)
            and np.isrealobj(model.y)
            and not getattr(prior, "complex_valued", True)
        )
        problem = LinearModel(fact.half_spectrum(), model.y, model.sigma2).transformed if real else model.transformed
        target, product, weights, outside = problem.r, problem.fact.apply_av, problem.fact, problem.outside
        dtype = float if real else np.result_type(problem.r.dtype, float)
        step = ut_amp_step
    else:
        problem = model
        target, product = model.y, lambda x: _matmul(model.A, x)
        dtype = np.result_type(model.A.dtype, model.y.dtype)
        step = vector_amp_step if algorithm == "vector" else scalar_amp_step

    state = initial_state(algorithm, model.N, target.size, prior, dtype=dtype)
    n, x_true = model.N, model.x_true
    diff = np.empty(n, np.result_type(state.x, state.x if x_true is None else x_true))
    residual = np.empty(1)

    def sq_distance(a, c):  # ||a - c||^2 in one blocked pass through diff
        return sum(_blockwise(lambda b: _sumsq(np.subtract(a[b], c[b], out=diff[b])), n, aligned=True))

    trace, tau_q, rel = Trace(), None, None
    while True:
        x = state.x
        trace.append(
            t=state.t,
            tau_x=state.tau_x_mean(),
            tau_q=tau_q,
            residual=None,
            rel_change=rel,
            mse=None if x_true is None else sq_distance(x, x_true) / n,
        )
        # a non-finite x has a non-finite norm
        if state.t and not norm <= _DIVERGENCE_NORM:
            trace.status = "diverged"
        elif state.t and rel <= x_tol:
            trace.status = "converged"
        elif state.t == max_iters:
            trace.status = "max_iters"
        else:
            state, tau_q = step(state, problem, prior, residual=residual)
            trace.last()["residual"] = float(residual[0])
            norm = _norm(state.x)
            rel = math.sqrt(sq_distance(state.x, x)) / max(norm, 1e-300)
            tau_q = _mean(tau_q)
            continue
        # the one product no step shares
        trace.last()["residual"] = _norm(target - product(x), weights, outside)
        return state, trace


def lmmse_solve(model: LinearModel, prior: GaussianPrior) -> np.ndarray:
    """Exact Gaussian posterior mean by dense linear solve.

    Solves (Diag(1/tau0) + A^H A / sigma2) x = A^H y / sigma2 + x0 / tau0,
    which is the stationarity condition of the Gaussian posterior and the
    fixed point the solvers should reach under a Gaussian prior.
    """
    if not isinstance(prior, GaussianPrior):
        raise TypeError("lmmse_solve needs a Gaussian prior")
    A, y, sigma2 = model.A, model.y, model.sigma2
    n = model.N
    tau0 = prior.variance_vector(n)
    x0 = prior.mean_vector(n)
    lhs = A.conj().T @ A / sigma2
    lhs[np.diag_indices(n)] += 1.0 / tau0
    rhs = A.conj().T @ y / sigma2 + x0 / tau0
    return np.linalg.solve(lhs, rhs)


def lmmse_transformed(model: LinearModel, prior: GaussianPrior) -> np.ndarray:
    """Gaussian posterior mean in transform coordinates, for a scalar tau0,
    on the model's factorization.

    With A = U Lam V the posterior mean x0 + tau0 A^H (tau0 A A^H +
    sigma2 I)^{-1} (y - A x0) becomes a diagonal solve,
    x0 + tau0 V^H Lam^H (r - Lam V x0) / (tau0 lam_p + sigma2): two applies
    instead of a dense O(N^3) solve, on the k rows of r.  Heterogeneous
    priors need lmmse_solve.
    """
    if not isinstance(prior, GaussianPrior):
        raise TypeError("lmmse_transformed needs a Gaussian prior")
    if prior.tau0.ndim != 0:
        raise ValueError("lmmse_transformed needs a scalar prior variance; use lmmse_solve")
    tmodel = model.transformed
    fact, tau0 = tmodel.fact, float(prior.tau0)
    x0 = prior.mean_vector(tmodel.N)
    return x0 + tau0 * fact.apply_avh((tmodel.r - fact.apply_av(x0)) / (tau0 * tmodel.lam_p + tmodel.sigma2))
