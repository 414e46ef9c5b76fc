"""Plain-text storage for matrices and vectors.

Layout: a header line ``M N real`` or ``M N complex`` followed by M data
rows of whitespace-separated numbers.  Real entries are single floats;
complex entries are written as ``re im`` pairs, so a complex row carries 2N
numbers, and it is read as that float block viewed as complex, so no part is
rounded or rebuilt.  Vectors are stored as single-column matrices.

Blank lines are skipped, and ``#`` is not a comment.  The rows are read by
numpy's float parser, not by Python's ``float``: it returns the same bits
for everything ``save_matrix`` writes (NaN, +-inf, -0 and subnormals
included), but rejects ``1_000``-style underscores and non-ASCII digits.

From _FORK_MIN numbers up, on Linux, a matrix is parsed and written on every
CPU this process may run on.  The body is cut at newlines into contiguous
row ranges; this process takes the first range and a forked child each of
the others, which hands back its parsed rows, or its formatted text, through
a shared anonymous map.  Every range goes through the same parser or the
same row format, so the result has the same bits and the file the same
bytes as one pass gives.  A range that fails to parse sends the whole file
through the one-pass reader, so the messages stay the same too.  No child
outlives the call.

A file that starts with numpy's ``.npy`` magic is read by ``np.load``
instead, pickles refused; it must hold a 2-D float64 or complex128 array.

load_cached reads a text matrix of _FORK_MIN numbers or more (M N, or 2 M N
for complex, from its header; a smaller one parses in about 30 ms or less)
through a content-addressed cache, so a file is parsed once.

- Key: the SHA-256 of _CACHE_FORMAT followed by the file's bytes, hashed
  in chunks.  _CACHE_FORMAT is bumped whenever load_matrix changes what it
  accepts or returns, so no entry outlives the parser that made it.
- Location: ``$XDG_CACHE_HOME/utamp``, or ``~/.cache/utamp`` when that is
  unset, one ``<sha256>.npy`` per file.  Deleting the directory clears it.
- A hit reads the entry with the ``.npy`` reader above and touches its
  mtime.  A miss parses as load_matrix does; then, if the file hashes the
  same as before the parse, np.save writes the array to a temporary file
  that ``os.replace`` moves into place.
- Budget: _CACHE_BUDGET bytes, the least recently used entries deleted
  first.
- Fallbacks: the cache is best effort.  A directory that cannot be made or
  written, that another user owns or that others may write, a full disk,
  and an entry that does not read back with the header's shape and kind
  all fall back to the parse, silently, and a bad entry is replaced.  A
  pipe, and text read under a locale encoding other than UTF-8, go to
  load_matrix as they are.
"""

from __future__ import annotations

import codecs
import io
import os
import stat
import sys
import warnings

import numpy as np

from . import _threads

__all__ = ["load_matrix", "load_cached", "save_matrix", "load_vector", "save_vector"]

# the fewest numbers worth forking for: a child costs about 2 ms, parsing
# 2^16 numbers about 30 ms and formatting them about 50 ms
_FORK_MIN = 1 << 16
_CAN_FORK = sys.platform == "linux" and hasattr(os, "fork")
# the cache's size limit, in bytes of its files
_CACHE_BUDGET = 1 << 30
# hashed ahead of a file's bytes: bump it when load_matrix's reading changes
_CACHE_FORMAT = b"utamp matrix text 1\n"
_NPY_MAGIC = b"\x93NUMPY"
# the widest %.17g float64 (e.g. -2.2250738585072014e-308) and a separator
_MAX_FIELD = 25


def save_matrix(path, a) -> None:
    """Write a 2-D array to ``path`` in the text format above."""
    a = np.atleast_2d(np.asarray(a))
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    m, n = a.shape
    kind = "complex" if np.iscomplexobj(a) else "real"
    # a complex row is written through its interleaved (re, im) float view
    rows = np.ascontiguousarray(a, dtype=np.complex128 if kind == "complex" else np.float64).view(np.float64)
    fmt = " ".join(["%.17g"] * rows.shape[1]) + "\n"

    def write(lo, hi):
        for row in rows[lo:hi]:
            fh.write(fmt % tuple(row.tolist()))

    def format_rows(lo, hi):
        def job(buf):
            buf.seek(8)
            for row in rows[lo:hi]:
                buf.write((fmt % tuple(row.tolist())).encode())
            buf[:8] = buf.tell().to_bytes(8, "little")

        return job, 8 + (hi - lo) * rows.shape[1] * _MAX_FIELD

    with open(path, "w") as fh:
        fh.write(f"{m} {n} {kind}\n")
        k = _fork_count(fh, m, rows.size)
        bounds = [m * i // k for i in range(k + 1)]
        ranges = list(zip(bounds, bounds[1:]))
        _, bufs = _forked(lambda: write(*ranges[0]), [format_rows(*r) for r in ranges[1:]])
        for (lo, hi), buf in zip(ranges[1:], bufs):
            if buf is None:  # the child failed: format its rows here
                write(lo, hi)
            else:
                fh.flush()
                fh.buffer.write(memoryview(buf)[8 : int.from_bytes(buf[:8], "little")])


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`, or a ``.npy`` file.

    The data rows are parsed by ``np.loadtxt``, straight from the open file,
    in one pass or one row range per CPU (see the module docstring).  Raises
    ValueError with the offending line number on any malformed header or row.
    """
    with open(path) as fh:
        if _is_npy(fh):
            return _read_npy(path)
        head_no, m, n, is_complex = _header(fh, path)
        per_row = 2 * n if is_complex else n
        block = _load_forked(fh, m, per_row)
        if block is None:
            try:
                block = _parse(fh)
            except ValueError as exc:
                _raise_row_error(path, head_no, m, per_row, exc)
    if block.shape != (m, per_row):
        _raise_row_error(path, head_no, m, per_row, None)
    return block.view(np.complex128) if is_complex else block


def load_cached(path) -> np.ndarray:
    """load_matrix(path), through the cache for a text matrix of _FORK_MIN
    numbers or more (see the module docstring): the same bits, the same
    errors."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe can be read only once
        return load_matrix(path)
    with open(path) as fh:
        if _is_npy(fh) or codecs.lookup(fh.encoding).name != "utf-8":
            return load_matrix(path)
        _, m, n, is_complex = _header(fh, path)
        cache = _cache_dir() if m * n * (1 + is_complex) >= _FORK_MIN else None
        if cache is None:
            return load_matrix(path)
        key = _sha256(fh.fileno())  # fh is not read again
    entry = os.path.join(cache, key + ".npy")
    try:
        a = _read_npy(entry)
        if a.shape == (m, n) and a.dtype == (np.complex128 if is_complex else np.float64):
            os.utime(entry)
            return a
    except (OSError, ValueError):
        pass
    a = load_matrix(path)
    if a.nbytes <= _CACHE_BUDGET:
        with open(path, "rb") as fh:
            same = _sha256(fh.fileno()) == key
        if same:
            _store(entry, a)
    return a


def _header(fh, path) -> tuple[int, int, int, bool]:
    """Read the header of the open text file fh: (its line number, M, N,
    whether it is complex); ValueError naming path when it is malformed."""
    head_no, head = 0, ""
    while not head:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: line 1: empty file, expected 'M N real|complex' header")
        head_no, head = head_no + 1, line.strip()
    fields = head.split()
    if len(fields) != 3 or fields[2] not in ("real", "complex"):
        raise ValueError(f"{path}: line {head_no}: bad header {head!r}, expected 'M N real|complex'")
    try:
        m, n = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"{path}: line {head_no}: bad header {head!r}, M and N must be integers") from None
    if m < 1 or n < 1:
        raise ValueError(f"{path}: line {head_no}: dimensions must be positive, got {m} x {n}")
    return head_no, m, n, fields[2] == "complex"


def _is_npy(fh) -> bool:
    """Whether the text file fh, not yet read, starts with numpy's magic."""
    return fh.buffer.peek(len(_NPY_MAGIC)).startswith(_NPY_MAGIC)


def _read_npy(path) -> np.ndarray:
    """The 2-D float64 or complex128 array in the .npy file at path;
    ValueError naming path for any other file, shape or dtype."""
    with open(path, "rb") as fh:
        if fh.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
            raise ValueError(f"{path}: not a .npy file")
        fh.seek(0)
        try:
            a = np.load(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if a.ndim != 2 or 0 in a.shape or a.dtype not in (np.float64, np.complex128):
        raise ValueError(f"{path}: expected a 2-D float64 or complex128 array, got {a.dtype} of shape {a.shape}")
    return a


def _sha256(fd: int) -> str:
    """The cache key of the whole file open on fd, read in chunks from its
    start; moves fd's position."""
    import hashlib  # imported here: only a cached load pays for it

    h, buf = hashlib.sha256(_CACHE_FORMAT), bytearray(1 << 20)
    with open(fd, "rb", buffering=0, closefd=False) as raw:
        raw.seek(0)
        while n := raw.readinto(buf):
            h.update(memoryview(buf)[:n])
    return h.hexdigest()


def _cache_dir() -> str | None:
    """The cache directory, made (mode 0700) if missing; None when there is
    no directory that only this user may write."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the spec's default
        root = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(root, "utamp")
    if not os.path.isabs(cache):  # no home directory
        return None
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
    except OSError:
        return None
    mine = not hasattr(os, "getuid") or st.st_uid == os.getuid()
    if not stat.S_ISDIR(st.st_mode) or not mine or st.st_mode & 0o022:
        return None
    return cache


def _store(entry: str, a: np.ndarray) -> None:
    """Write a to entry through a temporary file, after deleting the least
    recently used files of its directory that leave no room for it under
    _CACHE_BUDGET; gives up silently on any OSError."""
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        _evict(os.path.dirname(entry), _CACHE_BUDGET - a.nbytes)
        try:
            # np.save writes to a real file with tofile: no copy of a
            with open(tmp, "wb") as fh:
                np.save(fh, a, allow_pickle=False)
            os.replace(tmp, entry)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass


def _evict(cache: str, budget: int) -> None:
    """Delete the files of cache, least recently modified first, until the
    rest take at most budget bytes."""
    files = []
    with os.scandir(cache) as it:
        for e in it:
            if e.is_file(follow_symlinks=False):
                st = e.stat(follow_symlinks=False)
                files.append((st.st_mtime_ns, st.st_size, e.path))
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= budget:
            break
        try:
            os.unlink(path)
        except FileNotFoundError:  # another process evicted it first
            pass
        total -= size


def _parse(text) -> np.ndarray:
    """The rows of an open text file, from its position on, as a 2-D float
    array; no rows gives shape (0, 1)."""
    with warnings.catch_warnings():
        # an empty body is reported by the caller as a row count, not warned about
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(text, dtype=float, comments=None, ndmin=2)


def _raise_row_error(path, head_no: int, m: int, per_row: int, error: ValueError | None):
    """Rescan the data rows of a file the parser rejected, only to name the
    first bad line; the parser's own message is the fallback."""
    with open(path) as fh:
        body = [(no, line.split()) for no, line in enumerate(fh, 1) if no > head_no and line.strip()]
    if len(body) != m:
        raise ValueError(f"{path}: expected {m} data rows, found {len(body)}")
    for no, toks in body:
        if len(toks) != per_row:
            raise ValueError(f"{path}: line {no}: expected {per_row} numbers, found {len(toks)}")
        for tok in toks:
            try:
                float(tok)
            except ValueError as exc:
                raise ValueError(f"{path}: line {no}: {exc}") from None
    raise ValueError(f"{path}: {error or f'expected {m} x {per_row} numbers'}") from error


def _fork_count(fh, rows: int, numbers: int) -> int:
    """How many processes share the rows of the open text file fh: one per
    CPU, with a row each, from _FORK_MIN numbers up, on Linux, and only for
    an encoding in which every newline byte ends a line; else 1."""
    if not _CAN_FORK or numbers < _FORK_MIN or codecs.lookup(fh.encoding).name not in ("ascii", "utf-8"):
        return 1
    return min(_threads._workers(), rows)


def _forked(own, jobs):
    """Call own() here while each job(buf) of jobs, a list of (job, nbytes),
    runs in a forked child that writes its output into buf, a fresh shared
    anonymous map of nbytes.  Returns own's result and, per job, its map, or
    None where the child failed or could not start.  Every child is reaped
    before this returns, and killed first when this process is unwinding."""
    # imported here, not with utamp, which they would cost about 1 ms and
    # 0.1 MiB at every CLI start
    import mmap
    import signal

    pids, bufs = [], []
    try:
        for job, nbytes in jobs:
            try:
                buf = mmap.mmap(-1, nbytes)
                pid = os.fork()
            except OSError:  # out of memory or processes: the caller does the rest
                break
            if pid == 0:
                # the child never returns: os._exit skips the atexit handlers
                # and the stdio buffers it inherited, so nothing prints twice
                try:
                    job(buf)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            bufs.append(buf)
        mine = own()
        done = []
        while pids:
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            done.append(bufs[len(done)] if os.waitstatus_to_exitcode(status) == 0 else None)
        return mine, done + [None] * (len(jobs) - len(done))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _load_forked(fh, m: int, per_row: int) -> np.ndarray | None:
    """The data rows of fh, positioned after its header, parsed one row
    range per CPU; None where the one-pass reader must read them (see
    _fork_count, and a header whose byte offset the text layer cannot give)
    or when a range does not parse to whole rows of per_row numbers.  The
    caller checks the row count."""
    k = _fork_count(fh, m, m * per_row)
    if k < 2 or not fh.seekable():
        return None
    start = fh.tell()
    if start >> 64:  # the decoder holds state, after a header ending in a lone '\r'
        return None
    fd = fh.fileno()
    cuts = _line_cuts(fd, start, os.fstat(fd).st_size, k)

    def parse(lo, hi):
        block = _parse(io.TextIOWrapper(io.BufferedReader(_Range(fd, lo, hi), 1 << 16), fh.encoding, fh.errors))
        if block.size == 0:
            return block.reshape(0, per_row)
        if block.shape[1] != per_row:
            raise ValueError(f"expected {per_row} numbers per row, found {block.shape[1]}")
        return block

    def parse_into(lo, hi):
        # a row of per_row numbers takes at least 2 per_row - 1 bytes
        cap = min(m, (hi - lo + 1) // (2 * per_row))

        def job(buf):
            block = parse(lo, hi)
            buf[:8] = len(block).to_bytes(8, "little")  # more rows than cap raise below
            np.frombuffer(buf, np.float64, block.size, 8)[:] = block.ravel()

        return job, 8 + 8 * cap * per_row

    try:
        first, bufs = _forked(lambda: parse(cuts[0], cuts[1]), [parse_into(lo, hi) for lo, hi in zip(cuts[1:], cuts[2:])])
    except ValueError:
        return None
    if any(buf is None for buf in bufs):
        return None
    counts = [int.from_bytes(buf[:8], "little") for buf in bufs]
    rest = [np.frombuffer(buf, np.float64, c * per_row, 8).reshape(c, per_row) for buf, c in zip(bufs, counts)]
    return np.concatenate([first, *rest])


def _line_cuts(fd: int, start: int, end: int, k: int) -> list[int]:
    """k + 1 byte offsets from start to end that cut the body into k ranges
    of about equal size, each starting a line."""
    cuts = [start]
    for i in range(1, k):
        pos = max(cuts[-1], start + (end - start) * i // k)
        cuts.append(_next_line(fd, pos - 1, end) if pos > cuts[-1] else pos)
    return cuts + [end]


def _next_line(fd: int, pos: int, end: int) -> int:
    """The offset after the first newline at or after pos, else end."""
    while pos < end:
        chunk = os.pread(fd, 1 << 16, pos)
        if not chunk:
            break
        i = chunk.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(chunk)
    return end


class _Range(io.RawIOBase):
    """Bytes [pos, end) of the file open on fd.  It reads by offset, so the
    processes that share fd never move each other's position."""

    def __init__(self, fd: int, pos: int, end: int):
        self.fd, self.pos, self.end = fd, pos, end

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = os.preadv(self.fd, [memoryview(b)[: self.end - self.pos]], self.pos)
        self.pos += n
        return n


def save_vector(path, v) -> None:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {v.shape}")
    save_matrix(path, v[:, None])


def load_vector(path) -> np.ndarray:
    a = load_matrix(path)
    if a.shape[1] != 1:
        raise ValueError(f"{path}: expected a single-column vector file, got shape {a.shape}")
    return a[:, 0]
