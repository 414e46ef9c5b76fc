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
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["load_matrix", "save_matrix", "load_vector", "save_vector"]


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
    with open(path, "w") as fh:
        fh.write(f"{m} {n} {kind}\n")
        for row in rows:
            fh.write(fmt % tuple(row.tolist()))


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`.

    The data rows are parsed in one pass by ``np.loadtxt``, straight from the
    open file.  Raises ValueError with the offending line number on any
    malformed header or row.
    """
    with open(path) as fh:
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
        is_complex = fields[2] == "complex"
        per_row = 2 * n if is_complex else n
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as a row count, not warned about
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
        except ValueError as exc:
            _raise_row_error(path, head_no, m, per_row, exc)
    if block.shape != (m, per_row):
        _raise_row_error(path, head_no, m, per_row, None)
    return block.view(np.complex128) if is_complex else block


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
