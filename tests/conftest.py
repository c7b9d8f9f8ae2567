"""Shared test set-up: the benchmark's common module, and `run_python`, the one
way tests start an interpreter: in `perfbench/common.child_env()`, the checkout's
src/ on PYTHONPATH and no other PYTHON* variable, whatever the shell exports.
"""

import importlib.util
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def bench_common():
    """perfbench/common.py, read in place without writing bytecode."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_common", PERFBENCH / "common.py")
        common = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(common)
    return common


@pytest.fixture(scope="session")
def run_python(bench_common):
    """`run_python(arg_lists, stdout=PIPE)` runs `python *args` for each of `arg_lists`,
    two at a time, with stderr captured, as text: the completed processes, in order."""

    def run(arg_lists: list, stdout=subprocess.PIPE) -> list:
        env = bench_common.child_env()

        def one(args):
            argv = [sys.executable, *args]
            return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)

        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(one, arg_lists))

    return run
