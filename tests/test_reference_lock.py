"""Behaviour lock: solver and dense-oracle tasks against the benchmark reference.

Each task runs through the benchmark's own ``run_task`` (the CLI's exit-code
contract) and is checked by its ``Checker`` against ``perfbench/reference.json``:
booleans, integers and strings exactly, floats to their recorded per-field
tolerance.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tasks = _load("tasks")
check = _load("check")
CHECKER = check.Checker()


@pytest.mark.parametrize("config", [
    {"command": "conjtest", "order_one": True},
    {"command": "conjtest", "order_one": False},
    {"command": "solve", "preset": "xdep", "seed": 0, "n_lattice": 256},
    {"command": "solve", "preset": "holder_k", "seed": 0, "n_lattice": 256},
    {"command": "solve", "preset": "wave_t2", "seed": 0, "n_lattice": 1024},
    {"command": "study-h", "preset": "xdep", "seed": 0},
    {"command": "study-parabolic", "preset": "xdep", "seed": 0},
    {"command": "solve", "preset": "xdep", "seed": 0, "n_lattice": 1024},
], ids=["conjtest-order-one", "conjtest-order-zero", "solve-xdep", "solve-holder_k",
        "solve-wave_t2-1024", "study-h-xdep", "study-parabolic-xdep", "solve-xdep-1024"])
def test_task_matches_reference(config, tmp_path):
    result = tasks.run_task(config, str(tmp_path))
    verdict, problems = CHECKER.check(config, result)
    assert verdict == "ok", problems
