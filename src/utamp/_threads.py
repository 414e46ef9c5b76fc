"""The worker threads of the package and the FFT that runs on them.

_fft is the one FFT kernel of the DFT route; a long transform runs as a
threaded four-step FFT, in place and in its own output order (_order).  The
threads (_split) also run a step's long elementwise chains in cache-sized
blocks (_blockwise); matrixio's forked file I/O reads _workers as well.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache

import numpy as np

# From this length up, _fft runs a four-step FFT on every CPU of the process;
# below it one pocketfft call is faster.  Pocketfft against four-step on a
# 2-core VM: 0.55 against 0.66 ms at 2^15, 1.45 against 1.09 ms at 2^16,
# 45 against 20-23 ms at 2^20.  It is also _blockwise's threshold and block
# length; the BG denoiser at 2^20 on that VM takes 24 ms in blocks of 2^12,
# 8.4-8.8 ms at 2^15, 7.4-7.8 ms at 2^16 and 7.8-8.3 ms at 2^18-2^20.
_FOUR_STEP_MIN = 2**16

_pool = None  # (pid, executor) of _split's worker threads
_pool_lock = threading.Lock()


def _fft(z: np.ndarray, inverse: bool = False, norm: str = "ortho") -> np.ndarray:
    """The DFT (or its inverse) of the complex128 vector z, in place, for norm
    "ortho" or "backward"; returns z.  The forward result is in _order's
    order and the inverse takes its input in that order."""
    plan = _four_step_plan(z.size) if z.size >= _FOUR_STEP_MIN else None
    if plan is None:
        return (np.fft.ifft if inverse else np.fft.fft)(z, norm=norm, out=z)
    return _four_step(z, *plan, norm, inverse)


def _order(n: int):
    """The index that puts the DFT in _fft's order: _fft(z) is
    np.fft.fft(z)[_order(z.size)]; slice(None) where no four-step runs."""
    plan = _four_step_plan(n) if n >= _FOUR_STEP_MIN else None
    if plan is None:
        return slice(None)
    n1, n2, _ = plan
    return np.add.outer(np.arange(n2), n2 * np.arange(n1)).ravel()


@lru_cache(maxsize=2)
def _four_step_plan(n: int):
    """(n1, n2, twiddles) for n = n1 n2 with n1 the divisor of n nearest
    sqrt(n), or None when n is prime.  The table is read-only and shared."""
    d = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    if d == 1:
        return None
    n1 = d if math.sqrt(n) - d <= n // d - math.sqrt(n) else n // d
    n2 = n // n1
    # exact integer phases (k2 j1) % n (products stay below 2^53), so the
    # angle is rounded once
    angle = np.multiply.outer(np.arange(n2, dtype=float), np.arange(n1, dtype=float))
    np.fmod(angle, n, out=angle)
    angle *= -2.0 * np.pi / n
    tw = np.empty(angle.shape, np.complex128)
    np.cos(angle, out=tw.real)
    np.sin(angle, out=tw.imag)
    tw.flags.writeable = False
    return n1, n2, tw


def _four_step(z: np.ndarray, n1: int, n2: int, tw: np.ndarray, norm: str, inverse: bool) -> np.ndarray:
    """The DFT of z (length n = n1 n2) in place by Bailey's four-step FFT without
    its transpose: length-n2 column FFTs, twiddles, length-n1 row FFTs, so that
    X[k2 + n2 k1] lands in z[k1 + n1 k2]; the inverse runs the steps backwards, to
    natural order.  The workers split each batch (the rows in cache-sized blocks),
    and each transform runs whole on one thread, so no bit depends on their number."""
    a = z.reshape(n2, n1)  # a[j2, j1] = z[j1 + n1 j2]
    fft = np.fft.ifft if inverse else np.fft.fft

    def columns(c):
        fft(a[:, c], axis=0, norm=norm, out=a[:, c])

    def rows(r):
        ar = a[r]
        if inverse:
            fft(ar, axis=1, norm=norm, out=ar)
            # a conj(tw) as conj(conj(a) tw): the same bits, and no conjugated table
            np.conjugate(ar, out=ar)
            np.multiply(ar, tw[r], out=ar)
            np.conjugate(ar, out=ar)
        else:
            np.multiply(ar, tw[r], out=ar)
            fft(ar, axis=1, norm=norm, out=ar)

    passes = [(columns, n1, 0), (rows, n2, max(1, _FOUR_STEP_MIN // n1))]
    for fn, m, step in passes[::-1] if inverse else passes:
        _split(fn, m, step)
    return z


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(fn, m: int, step: int = 0, aligned: bool = False) -> list:
    """Call fn on slices of range(m), one part per worker (the caller takes the
    first), each walked at most step at a time (whole when 0), and return fn's
    results in slice order.  aligned starts every part at a multiple of step,
    so that the slices do not depend on the number of workers, at the price of
    uneven parts; else the parts are as even as m allows.  fn must not call
    _split: the pool has one thread fewer than the workers, so nesting can
    deadlock."""
    if aligned:
        blocks = -(-m // step)
        k = min(_workers(), blocks)
        bounds = [min(m, step * (blocks * i // k)) for i in range(k + 1)]
    else:
        k = min(_workers(), m)
        bounds = [m * i // k for i in range(k + 1)]

    def walk(lo, hi):
        size = step or hi - lo
        return [fn(slice(b, min(b + size, hi))) for b in range(lo, hi, size)]

    futures = [_executor().submit(walk, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]
    try:
        results = walk(bounds[0], bounds[1])
    finally:
        for f in futures:
            f.exception()  # wait for every worker before z is freed
    for f in futures:
        results += f.result()
    return results


def _blockwise(fn, n: int, aligned: bool = False) -> list:
    """Call fn on consecutive slices of range(n), at most _FOUR_STEP_MIN long,
    so that a chain of elementwise passes runs on a slice while it is in
    cache: on the workers (_split) from _FOUR_STEP_MIN up, else inline, and
    return fn's results in slice order.  A reduction passes aligned, which
    starts the slices at multiples of _FOUR_STEP_MIN whatever the number of
    workers, so that its partial sums, added in order, do not depend on it.
    A worker does not inherit the caller's np.errstate; fn enters its own.
    fn takes each view once, so numpy skips its overlap check on out=."""
    if n < _FOUR_STEP_MIN:
        return [fn(slice(0, n))]
    return _split(fn, n, _FOUR_STEP_MIN, aligned)


def _executor():
    """_split's threads, started on first use.  A forked child inherits the
    executor but none of its threads, so a new process starts its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            workers = max(1, _workers() - 1)
            _pool = (os.getpid(), ThreadPoolExecutor(workers, thread_name_prefix="utamp"))
        return _pool[1]
