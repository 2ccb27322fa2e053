"""Behaviour lock: every timed benchmark task against the benchmark reference.

Each task of every workload's seed-0 pass (scan, oracle and evolve; 32 tasks)
runs through the benchmark's own ``run_task`` (the CLI's exit-code contract)
and is checked by its ``Checker`` against ``perfbench/reference.json``:
booleans, integers and strings exactly, floats to their recorded per-field
tolerance, error fields to their criterion.  Nothing under ``perfbench/`` is
written.
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


def _task_name(config):
    """``solve-wave_t2-1024``: the command, then what tells its tasks apart."""
    parts = [config["command"], config.get("preset"), config.get("mode")]
    if "order_one" in config:
        parts.append("order-one" if config["order_one"] else "order-zero")
    if config.get("n_lattice", 256) != 256:
        parts.append(str(config["n_lattice"]))
    return "-".join(part for part in parts if part)


TASKS = []
for workload in tasks.WORKLOADS:
    for config in tasks.timed_tasks(workload, 0):
        if config not in TASKS:
            TASKS.append(config)


@pytest.mark.parametrize("config", TASKS, ids=[_task_name(c) for c in TASKS])
def test_task_matches_reference(config, tmp_path):
    result = tasks.run_task(config, str(tmp_path))
    verdict, problems = CHECKER.check(config, result)
    assert verdict == "ok", problems
