"""Shared test set-up: the interpreters that tests start import k3z3 from src/.

pyproject.toml puts src/ on the path of the pytest process itself; the
CLI and `python -O` tests run child interpreters, which read PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield
