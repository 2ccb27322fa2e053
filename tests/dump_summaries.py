"""Dump the outputs of every distinct benchmark task config to one JSON file.

Usage (from a checkout's root)::

    PYTHONPATH=src python tests/dump_summaries.py OUT.json

It runs each distinct timed and defect task of ``perfbench/tasks.py``
(every workload, input seeds 0 to SEED_POOL_SIZE - 1) through the benchmark's
own ``run_task`` and writes, for each, the config, the exit status, the
message and the summary, with keys sorted.  Running it on two checkouts and
diffing the files shows which outputs a change moved.  Nothing under
``perfbench/`` is written; each run's artifacts go to a temporary directory
that is removed.
"""

import importlib.util
import json
import os
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load_tasks():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tasks", os.path.join(PERFBENCH, "tasks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def distinct_configs(tasks) -> list[dict]:
    configs = []
    for workload in tasks.WORKLOADS:
        for seed in range(tasks.SEED_POOL_SIZE):
            for config in tasks.timed_tasks(workload, seed) + tasks.defect_tasks(workload, seed):
                if config not in configs:
                    configs.append(config)
    return configs


def main(path: str) -> int:
    tasks = _load_tasks()
    rows = []
    with tempfile.TemporaryDirectory() as work_root:
        for config in distinct_configs(tasks):
            result = tasks.run_task(config, work_root)
            rows.append({"config": config, "status": result["status"],
                         "message": result["message"], "summary": result["summary"]})
    with open(path, "w") as fh:
        json.dump(rows, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")
    print(f"{len(rows)} configs written to {path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
