"""The worker threads of the package and the FFT that runs on them.

_fft is the one FFT kernel of the DFT route; it runs a long transform as a
threaded four-step FFT.  Its worker threads (_split) also run a step's long
elementwise chains in cache-sized blocks (_blockwise), and _workers is the
CPU count that matrixio's forked file I/O reads as well.
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
    """np.fft.fft (or ifft) of the complex128 vector z, for norm "ortho" or
    "backward".  z may be overwritten; the result is z or a fresh array."""
    plan = _four_step_plan(z.size) if z.size >= _FOUR_STEP_MIN else None
    if plan is None:
        return (np.fft.ifft if inverse else np.fft.fft)(z, norm=norm, out=z)
    return _four_step(z, *plan, norm, inverse)


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
    angle *= 2.0 * np.pi / n
    tw = np.empty(angle.shape, np.complex128)
    np.cos(angle, out=tw.real)
    np.sin(angle, out=tw.imag)
    np.negative(tw.imag, out=tw.imag)
    tw.flags.writeable = False
    return n1, n2, tw


def _four_step(z: np.ndarray, n1: int, n2: int, tw: np.ndarray, norm: str, inverse: bool) -> np.ndarray:
    """The DFT of z (length n = n1 n2) as n1 length-n2 transforms, the
    twiddles, then n2 length-n1 transforms written transposed into a fresh
    result (Bailey's four-step FFT); z is overwritten.  Each batch is split
    across the worker threads; every transform is computed whole by one
    thread, so the result does not depend on their number."""
    n = z.size
    a = z.reshape(n2, n1)  # a[j2, j1] = z[j1 + n1 j2]
    if inverse:
        # ifft(z)[k] = fft(z)[(n - k) % n] / n: the forward transform is
        # written backwards into a buffer one entry longer, so its entry 0
        # lands in buf[n] and is moved to the front at the end
        buf = np.empty(n + 1, np.complex128)
        out, dst = buf[:n], buf[::-1][:n]
        norm = {"ortho": "ortho", "backward": "forward"}[norm]
    else:
        out = dst = np.empty(n, np.complex128)
    o = dst.reshape(n1, n2).T  # o[k2, k1] = dst[k2 + n2 k1]

    def columns(c):
        np.fft.fft(a[:, c], axis=0, norm=norm, out=a[:, c])

    def rows(c):
        np.multiply(a[c], tw[c], out=a[c])
        np.fft.fft(a[c], axis=1, norm=norm, out=o[c])

    _split(columns, n1)
    _split(rows, n2)
    if inverse:
        out[0] = buf[n]
    return out


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(fn, m: int) -> None:
    """Call fn on contiguous slices of range(m), one per worker; the calling
    thread takes the first.  fn must not call _split: the pool has one
    thread fewer than there are workers, so a nested call can deadlock."""
    k = min(_workers(), m)
    bounds = [m * i // k for i in range(k + 1)]
    parts = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    futures = [_executor().submit(fn, part) for part in parts[1:]]
    try:
        fn(parts[0])
    finally:
        for f in futures:
            f.exception()  # wait for every worker before z or out is freed
    for f in futures:
        f.result()


def _blockwise(fn, n: int) -> None:
    """Call fn on consecutive slices of range(n), at most _FOUR_STEP_MIN long,
    so that a chain of elementwise passes runs on a slice while it is in
    cache: on the workers (_split) from _FOUR_STEP_MIN up, else inline.  A
    worker does not inherit the caller's np.errstate; fn enters its own.  fn
    takes each view once, so numpy skips its overlap check on out=."""
    if n < _FOUR_STEP_MIN:
        fn(slice(0, n))
        return

    def walk(part):
        for lo in range(part.start, part.stop, _FOUR_STEP_MIN):
            fn(slice(lo, min(lo + _FOUR_STEP_MIN, part.stop)))

    _split(walk, n)


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
