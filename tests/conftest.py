"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# one BLAS thread, set before any test imports numpy: with two OpenBLAS
# threads the joint-space eigh test ran 2.4 times slower on an idle two-core
# box, and 20 to 35 times slower with the other core busy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def fresh_python():
    """Run ``python -c program *args`` in a new interpreter that imports this ``src``.

    The pytest process has numpy loaded already, so only a new process shows
    which modules a call imports.
    """

    def run(program, *args):
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-c", program, *args], capture_output=True, text=True, env=env
        )

    return run
