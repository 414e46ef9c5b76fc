"""The machine and software a run measured on, and how it differs from the
baseline recorded in ``perfbench/baseline_env.json``."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

# keys that must match the baseline for figures to be comparable
COMPARED = ("cpu_model", "nproc", "l3_mb", "ram_gb", "python", "numpy", "scipy", "blas", "blas_threads")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_mb():
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = Path(path, "level").read_text().strip()
            size = Path(path, "size").read_text().strip()
        except OSError:
            continue
        if level == "3" and size.endswith("K"):
            return int(size[:-1]) / 1024.0
    return None


def _blas(np):
    """Name, version and live thread count of numpy's BLAS."""
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _commit(root):
    """git HEAD when the checkout is a repository, else a hash of src/."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(Path(root).resolve().parent)},
        )
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(Path(root, "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def describe(root):
    import numpy as np
    import scipy

    blas, threads = _blas(np)
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_mb": _l3_mb(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": _commit(root),
    }


def differences(env, baseline_path):
    """Human-readable lines for each compared key that differs."""
    baseline = json.loads(Path(baseline_path).read_text())
    return [
        f"{key}: {env.get(key)!r} here, {baseline.get(key)!r} in the baseline"
        for key in COMPARED
        if env.get(key) != baseline.get(key)
    ]
