"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
