"""The quick demos run to completion as scripts.

Each runs in a fresh interpreter from a temporary directory, so files a demo
writes (demo 02's message trace) land there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", [
    "01_random_edge_sampling.py",
    "02_stochastic_filters_distributed.py",
    "03_variance_bounds.py",
])
def test_demo_exits_cleanly(tmp_path, name):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
