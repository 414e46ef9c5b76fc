"""Smoke test: the demos run to completion.

Each demo runs in its own interpreter and must exit 0.  fft_circulant.py is
left out: its timing half takes a 4096 x 4096 dense SVD (about half a
minute), and its other half, the FFT route reproducing the SVD route
iterate for iterate, is covered by
test_solvers.py::test_ut_step_dft_equals_svd_route.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["quickstart", "certificates", "difficult_matrices", "sparse_recovery"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
