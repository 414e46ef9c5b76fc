"""matrixio's .npy input, load_cached's content-addressed cache and the
factorizations cached_svd keeps beside its entries."""

import hashlib
import os
import pickle
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from utamp import _threads, cached_svd, load_cached, load_matrix, matrixio, save_matrix, svd_factorize

_SPECIALS = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072e-308, 1.7976931348623157e308, 0.0])


def _with_specials(m, n, complex_entries, seed=0):
    """A random (m, n) matrix, real or complex, whose first and last float
    entries are -0.0, +-inf, nan, subnormals and the extremes."""
    block = np.random.default_rng(seed).standard_normal((m, 2 * n if complex_entries else n))
    flat = block.reshape(-1)
    flat[: _SPECIALS.size] = _SPECIALS
    flat[-_SPECIALS.size :] = _SPECIALS[::-1]
    return block.view(np.complex128) if complex_entries else block


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh cache directory (not yet made) for one test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "utamp"


def _entries(cache):
    return sorted(os.listdir(cache)) if cache.exists() else []


def _key(path):
    return hashlib.sha256(matrixio._CACHE_FORMAT + path.read_bytes()).hexdigest() + ".npy"


def _large(tmp_path, name="a.txt", complex_entries=False, seed=0):
    """A text matrix file of exactly _FORK_MIN numbers, and its parse."""
    path = tmp_path / name
    save_matrix(path, _with_specials(256, 128 if complex_entries else 256, complex_entries, seed))
    return path, load_matrix(path)


def _no_parse(*args):
    pytest.fail("the file was parsed")


# ------------------------------------------------------------- .npy input


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_load_matrix_reads_npy_bit_exact(tmp_path, complex_entries):
    a = _with_specials(5, 3, complex_entries)
    path = tmp_path / "a.dat"  # told apart by its magic bytes, not its name
    with open(path, "wb") as fh:
        np.save(fh, a)
    assert _same_bits(load_matrix(path), a)
    got, key = load_cached(path)
    assert _same_bits(got, a) and key is None


@pytest.mark.parametrize(
    "stored",
    [np.array([[1.0, None]], dtype=object), np.ones(3), np.ones((2, 2, 2)), np.ones((2, 2), dtype=np.int64),
     np.ones((2, 2), dtype=np.float32), np.ones((0, 2))],
    ids=["object", "1-D", "3-D", "int64", "float32", "empty"],
)
def test_load_matrix_refuses_other_npy_arrays(tmp_path, stored):
    path = tmp_path / "a.npy"
    np.save(path, stored, allow_pickle=True)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_matrix(path)


def test_load_matrix_refuses_a_pickle(tmp_path):
    path = tmp_path / "a.pkl"
    path.write_bytes(pickle.dumps(np.ones((2, 2))))
    with pytest.raises(ValueError):
        load_matrix(path)


# ------------------------------------------------------------- the cache


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_cache_hit_is_bit_identical_to_the_parse(tmp_path, monkeypatch, cache, complex_entries):
    path, want = _large(tmp_path, complex_entries=complex_entries)
    assert _entries(cache) == [], "load_matrix keeps no cache"
    miss, miss_key = load_cached(path)
    assert _entries(cache) == [_key(path)] and miss_key + ".npy" == _key(path)
    assert oct(cache.stat().st_mode & 0o777) == oct(0o700)
    entry = cache / _key(path)
    os.utime(entry, (1, 1))
    monkeypatch.setattr(matrixio, "load_matrix", _no_parse)
    hit, hit_key = load_cached(path)
    assert _same_bits(miss, want) and _same_bits(hit, want) and hit_key == miss_key
    assert entry.stat().st_mtime > 1, "a hit marks its entry as recently used"


def test_an_edit_of_the_same_size_and_mtime_misses(tmp_path, cache):
    path = tmp_path / "a.txt"
    save_matrix(path, np.random.default_rng(1).standard_normal((256, 256)))
    first, first_key = load_cached(path)
    st = path.stat()
    text = bytearray(path.read_bytes())
    text[-2] = ord("1") if text[-2] != ord("1") else ord("2")  # the last digit of the last number
    path.write_bytes(text)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    got, key = load_cached(path)
    assert _same_bits(got, load_matrix(path)) and not np.array_equal(got, first) and key != first_key
    assert len(_entries(cache)) == 2


@pytest.mark.parametrize("damage", ["empty", "truncated", "garbage", "shape", "kind"])
def test_bad_entries_are_reparsed_and_replaced(tmp_path, cache, damage):
    path, want = _large(tmp_path)
    load_cached(path)
    entry = cache / _key(path)
    if damage == "empty":
        entry.write_bytes(b"")
    elif damage == "truncated":
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    elif damage == "garbage":
        entry.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 100)
    elif damage == "shape":  # as many floats, another shape
        np.save(entry, np.zeros((want.shape[1] // 2, want.shape[0] * 2)))
    else:  # the header's shape, the other kind
        np.save(entry, want.astype(np.complex128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, key = load_cached(path)
    assert _same_bits(got, want) and key + ".npy" == entry.name
    assert _entries(cache) == [entry.name] and _same_bits(np.load(entry), want), "the bad entry is replaced"


def test_unwritable_cache_path_still_loads(tmp_path, monkeypatch):
    path, want = _large(tmp_path)
    (tmp_path / "xdg").write_text("a regular file, not a directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            got, key = load_cached(path)
            assert _same_bits(got, want) and key is None


def test_a_directory_others_may_write_is_neither_read_nor_written(tmp_path, cache):
    path, want = _large(tmp_path)
    cache.mkdir(parents=True)
    cache.chmod(0o777)
    planted = cache / _key(path)
    np.save(planted, np.zeros_like(want))
    got, key = load_cached(path)
    assert _same_bits(got, want) and key is None
    assert _entries(cache) == [planted.name] and not np.load(planted).any()


def test_small_and_malformed_files_leave_no_entry_and_keep_their_messages(tmp_path, cache):
    small = tmp_path / "small.txt"
    save_matrix(small, np.ones((255, 256)))  # one row short of _FORK_MIN numbers
    got, key = load_cached(small)
    assert _same_bits(got, load_matrix(small)) and key is None
    assert _entries(cache) == []

    rows = "\n".join(" ".join(["1.5"] * 256) for _ in range(256))
    for content in ["", "x 256 real\n", "256 256 real\n" + rows.replace("1.5", "oops", 1) + "\n",
                    "256 256 real\n" + rows + "\n1.5\n", "256 256 real\n" + rows[:-4] + "\n"]:
        bad = tmp_path / "bad.txt"
        bad.write_text(content)
        with pytest.raises(ValueError) as parsed:
            load_matrix(bad)
        with pytest.raises(ValueError) as cached:
            load_cached(bad)
        assert str(cached.value) == str(parsed.value)
    assert _entries(cache) == []


def test_a_pipe_is_parsed_without_the_cache(tmp_path, cache):
    path, want = _large(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        got, key = load_cached(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert _same_bits(got, want) and key is None and _entries(cache) == []


def test_the_budget_evicts_the_least_recently_used_entry(tmp_path, monkeypatch, cache):
    paths = [_large(tmp_path, f"a{i}.txt", seed=i)[0] for i in range(3)]
    load_cached(paths[0])
    load_cached(paths[1])
    entries = [cache / _key(p) for p in paths]
    os.utime(entries[0], (1000, 1000))
    os.utime(entries[1], (2000, 2000))
    size = entries[0].stat().st_size
    monkeypatch.setattr(matrixio, "_CACHE_BUDGET", 2 * size + size // 2)
    load_cached(paths[0])  # a hit: entry 0 is now the most recently used
    load_cached(paths[2])
    assert _entries(cache) == sorted([entries[0].name, entries[2].name])


def test_cached_load_peak_memory_is_near_its_result(tmp_path, cache):
    path = tmp_path / "a.txt"
    save_matrix(path, np.random.default_rng(3).standard_normal((2000, 500)))
    for label in ("miss", "hit"):
        tracemalloc.start()
        try:
            a, _ = load_cached(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.shape == (2000, 500)
        assert peak < 2 * a.nbytes, f"{label}: peak {peak / a.nbytes:.2f} x the array's bytes"
        assert len(_entries(cache)) == 1


def test_a_new_cache_format_misses_and_keeps_the_old_entry_apart(tmp_path, monkeypatch, cache):
    path, want = _large(tmp_path)
    load_cached(path)
    old = _key(path)
    monkeypatch.setattr(matrixio, "_CACHE_FORMAT", matrixio._CACHE_FORMAT + b"next\n")
    parsed = []
    monkeypatch.setattr(matrixio, "load_matrix", lambda p: parsed.append(p) or load_matrix(p))
    assert _same_bits(load_cached(path)[0], want) and parsed == [path]
    assert _entries(cache) == sorted([old, _key(path)])


def test_the_cache_needs_no_offset_reads(tmp_path, monkeypatch, cache):
    # as on a platform without os.preadv, where the parse never forks either
    path, want = _large(tmp_path)
    monkeypatch.setattr(matrixio, "_CAN_FORK", False)
    monkeypatch.delattr(os, "preadv")
    assert _same_bits(load_cached(path)[0], want)  # a miss
    monkeypatch.setattr(matrixio, "load_matrix", _no_parse)
    assert _same_bits(load_cached(path)[0], want) and _entries(cache) == [_key(path)]  # a hit



# ------------------------------------------------- the cached factorization


def _factor_parts(f):
    """The arrays of an SvdFactorization that svd_factorize computes."""
    return [f.lam, f._UR, f._V, *(f._qr[1:] if f._qr else ())]


def _same_factors(got, want):
    return len(_factor_parts(got)) == len(_factor_parts(want)) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.strides == w.strides and g.tobytes() == w.tobytes()
        for g, w in zip(_factor_parts(got), _factor_parts(want))
    )


def _counting_svd():
    calls = []

    def factorize(a):
        calls.append(a.shape)
        return svd_factorize(a)

    return factorize, calls


def _svd_entries(cache):
    return [name for name in _entries(cache) if name.endswith(".svd")]


def _tall(tmp_path, name="a.txt", seed=0):
    """A 512 x 128 real text matrix file, _FORK_MIN numbers on the QR route."""
    path = tmp_path / name
    save_matrix(path, np.random.default_rng(seed).standard_normal((512, 128)))
    return path


@pytest.mark.parametrize(
    "shape, complex_entries",
    [((512, 128), False), ((128, 512), False), ((256, 256), False), ((256, 128), True)],
    ids=["tall-qr", "wide", "square", "complex-qr"],
)
def test_a_cached_svd_hit_is_bit_identical_to_svd_factorize(tmp_path, monkeypatch, cache, shape, complex_entries):
    path = tmp_path / "a.txt"
    rng = np.random.default_rng(5)
    a = rng.standard_normal(shape)
    save_matrix(path, a + 1j * rng.standard_normal(shape) if complex_entries else a)
    factorize, calls = _counting_svd()
    a, key = load_cached(path)
    miss = cached_svd(key, a, factorize)
    want = svd_factorize(a)
    assert calls == [shape] and len(_svd_entries(cache)) == 1
    monkeypatch.setattr(matrixio, "load_matrix", _no_parse)
    a, key = load_cached(path)
    hit = cached_svd(key, a, factorize)
    assert calls == [shape], "a hit factorizes nothing"
    assert _same_factors(miss, want) and _same_factors(hit, want)
    assert (hit._qr is None) == (shape[0] < 2 * shape[1]) and (hit._qr is None or hit._qr[0] is a)
    assert hit.shape == shape and len(_entries(cache)) == 2


def test_without_a_key_cached_svd_only_factorizes(tmp_path, cache):
    factorize, calls = _counting_svd()
    a = np.random.default_rng(2).standard_normal((40, 10))
    assert _same_factors(cached_svd(None, a, factorize), svd_factorize(a))
    assert calls == [(40, 10)] and _entries(cache) == []


@pytest.mark.parametrize("damage", ["empty", "truncated", "garbage", "pickle", "shape", "extra", "missing"])
def test_bad_factorization_entries_are_recomputed_and_replaced(tmp_path, cache, damage):
    a, key = load_cached(_tall(tmp_path))
    want = cached_svd(key, a, svd_factorize)
    (entry,) = (cache / name for name in _svd_entries(cache))
    parts = _factor_parts(want)
    if damage == "empty":
        entry.write_bytes(b"")
    elif damage == "truncated":
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size - 100])
    elif damage == "garbage":
        entry.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 100)
    elif damage == "pickle":
        entry.write_bytes(pickle.dumps(parts))
    else:
        if damage == "shape":  # U_R cut to half its columns
            parts = [parts[0], parts[1][:, :64].copy(), parts[2], *parts[3:]]
        elif damage == "extra":
            parts = parts + [parts[0]]
        else:
            parts = parts[:4]
        with open(entry, "wb") as fh:
            for p in parts:
                np.save(fh, p)
    factorize, calls = _counting_svd()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cached_svd(key, a, factorize)
    assert calls == [a.shape] and _same_factors(got, want)
    assert _svd_entries(cache) == [entry.name]
    assert _same_factors(cached_svd(key, a, _no_parse), want), "the bad entry is replaced"


@pytest.mark.parametrize("change", ["workers", "openblas", "openblas-empty", "format"])
def test_another_thread_setting_or_format_misses_and_keeps_the_other_entry(tmp_path, monkeypatch, cache, change):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    a, key = load_cached(_tall(tmp_path))
    cached_svd(key, a, svd_factorize)
    (first,) = _svd_entries(cache)
    factorize, calls = _counting_svd()
    with monkeypatch.context() as mp:
        if change == "workers":
            mp.setattr(_threads, "_workers", lambda workers=_threads._workers(): workers + 1)
        elif change == "openblas":
            mp.setenv("OPENBLAS_NUM_THREADS", "1")
        elif change == "openblas-empty":  # set but empty is not unset
            mp.setenv("OPENBLAS_NUM_THREADS", "")
        else:
            mp.setattr(matrixio, "_SVD_FORMAT", matrixio._SVD_FORMAT + " next")
        cached_svd(key, a, factorize)
    assert calls == [a.shape]
    assert first in _svd_entries(cache) and len(_svd_entries(cache)) == 2 and len(_entries(cache)) == 3
    cached_svd(key, a, _no_parse)  # the first setting still reads its own entry


@pytest.mark.parametrize("older", ["matrix", "factorization"])
def test_the_budget_counts_both_kinds_of_entry(tmp_path, monkeypatch, cache, older):
    a0, key0 = load_cached(_tall(tmp_path, "a0.txt", seed=0))
    cached_svd(key0, a0, svd_factorize)
    matrix0, (svd0,) = cache / _key(tmp_path / "a0.txt"), [cache / n for n in _svd_entries(cache)]
    os.utime(matrix0, (1000, 1000) if older == "matrix" else (2000, 2000))
    os.utime(svd0, (2000, 2000) if older == "matrix" else (1000, 1000))
    a1, key1 = load_cached(_tall(tmp_path, "a1.txt", seed=1))
    matrix1 = cache / _key(tmp_path / "a1.txt")
    # room for all four entries' files but one byte: storing the last
    # evicts the oldest
    size = 2 * (matrix0.stat().st_size + svd0.stat().st_size)
    monkeypatch.setattr(matrixio, "_CACHE_BUDGET", size - 1)
    cached_svd(key1, a1, svd_factorize)
    gone = matrix0 if older == "matrix" else svd0
    kept = svd0 if older == "matrix" else matrix0
    assert not gone.exists() and kept.exists() and matrix1.exists() and len(_entries(cache)) == 3
    assert sum(f.stat().st_size for f in cache.iterdir()) <= matrixio._CACHE_BUDGET


def test_a_file_that_changes_during_the_parse_stores_no_factorization(tmp_path, monkeypatch, cache):
    path = _tall(tmp_path)

    def parse_then_edit(p):
        a = load_matrix(p)
        save_matrix(p, 2 * a)
        return a

    monkeypatch.setattr(matrixio, "load_matrix", parse_then_edit)
    a, key = load_cached(path)
    factorize, calls = _counting_svd()
    cached_svd(key, a, factorize)
    assert key is None and calls == [a.shape] and _entries(cache) == []


def test_cached_svd_hit_peak_memory_is_near_its_entry(tmp_path, cache):
    path = tmp_path / "a.txt"
    save_matrix(path, np.random.default_rng(3).standard_normal((2000, 500)))
    a, key = load_cached(path)
    cached_svd(key, a, svd_factorize)
    (entry,) = (cache / name for name in _svd_entries(cache))
    tracemalloc.start()
    try:
        fact = cached_svd(key, a, _no_parse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(p.nbytes for p in _factor_parts(fact))
    assert held < entry.stat().st_size < held + 4096
    assert peak < 1.05 * entry.stat().st_size, f"peak {peak / entry.stat().st_size:.2f} x the entry's bytes"
