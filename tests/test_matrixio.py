"""matrixio's .npy input and load_cached's content-addressed cache."""

import hashlib
import os
import pickle
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from utamp import load_cached, load_matrix, matrixio, save_matrix

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
    assert _same_bits(load_cached(path), a)


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
    miss = load_cached(path)
    assert _entries(cache) == [_key(path)]
    assert oct(cache.stat().st_mode & 0o777) == oct(0o700)
    entry = cache / _key(path)
    os.utime(entry, (1, 1))
    monkeypatch.setattr(matrixio, "load_matrix", _no_parse)
    hit = load_cached(path)
    assert _same_bits(miss, want) and _same_bits(hit, want)
    assert entry.stat().st_mtime > 1, "a hit marks its entry as recently used"


def test_an_edit_of_the_same_size_and_mtime_misses(tmp_path, cache):
    path = tmp_path / "a.txt"
    save_matrix(path, np.random.default_rng(1).standard_normal((256, 256)))
    first = load_cached(path)
    st = path.stat()
    text = bytearray(path.read_bytes())
    text[-2] = ord("1") if text[-2] != ord("1") else ord("2")  # the last digit of the last number
    path.write_bytes(text)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    got = load_cached(path)
    assert _same_bits(got, load_matrix(path)) and not np.array_equal(got, first)
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
        got = load_cached(path)
    assert _same_bits(got, want)
    assert _entries(cache) == [entry.name] and _same_bits(np.load(entry), want), "the bad entry is replaced"


def test_unwritable_cache_path_still_loads(tmp_path, monkeypatch):
    path, want = _large(tmp_path)
    (tmp_path / "xdg").write_text("a regular file, not a directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_bits(load_cached(path), want)
        assert _same_bits(load_cached(path), want)


def test_a_directory_others_may_write_is_neither_read_nor_written(tmp_path, cache):
    path, want = _large(tmp_path)
    cache.mkdir(parents=True)
    cache.chmod(0o777)
    planted = cache / _key(path)
    np.save(planted, np.zeros_like(want))
    assert _same_bits(load_cached(path), want)
    assert _entries(cache) == [planted.name] and not np.load(planted).any()


def test_small_and_malformed_files_leave_no_entry_and_keep_their_messages(tmp_path, cache):
    small = tmp_path / "small.txt"
    save_matrix(small, np.ones((255, 256)))  # one row short of _FORK_MIN numbers
    assert _same_bits(load_cached(small), load_matrix(small))
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
        got = load_cached(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert _same_bits(got, want) and _entries(cache) == []


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
            a = load_cached(path)
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
    assert _same_bits(load_cached(path), want) and parsed == [path]
    assert _entries(cache) == sorted([old, _key(path)])


def test_the_cache_needs_no_offset_reads(tmp_path, monkeypatch, cache):
    # as on a platform without os.preadv, where the parse never forks either
    path, want = _large(tmp_path)
    monkeypatch.setattr(matrixio, "_CAN_FORK", False)
    monkeypatch.delattr(os, "preadv")
    assert _same_bits(load_cached(path), want)  # a miss
    monkeypatch.setattr(matrixio, "load_matrix", _no_parse)
    assert _same_bits(load_cached(path), want) and _entries(cache) == [_key(path)]  # a hit

