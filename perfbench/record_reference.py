"""Record ``reference.json``: the outputs every benchmark task must reproduce.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Every task of every workload is run once per input seed of the pool.  The
tolerance of each float field is written beside the values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import tasks  # noqa: E402

# Relative tolerance per float field; the absolute floor is 1e-12 throughout.
# 1e-6 leaves room for rounding differences between BLAS kernels and for an
# equally accurate integrator (halving the solver's dt moves the Gevrey
# radius fits by 2e-8) and is far below any change of behaviour.  The symbol
# probe fits slopes to second differences of R with a relative step of 1e-3,
# which amplify rounding a millionfold, so those fields get 1e-4.
DEFAULT_REL = 1e-6
REL_BY_FIELD = {
    "symbol_rows.*.fitted": 1e-4,
    "symbol_rows.*.residual": 1e-4,
    "symbol_rows.*.a_power_fitted": 1e-4,
}
ABS_FLOOR = 1e-12

# Tasks that fail at the reference commit for a known reason.  They are
# expected to pass; the benchmark counts them as failed until they do.
KNOWN_DEFECTS = {"gevrey weight overflow"}


def all_tasks() -> list[dict]:
    seen, out = set(), []
    for workload in tasks.WORKLOADS:
        for seed in range(tasks.SEED_POOL_SIZE):
            for cfg in tasks.timed_tasks(workload, seed) + tasks.defect_tasks(workload, seed):
                key = check.task_id(cfg)
                if key not in seen:
                    seen.add(key)
                    out.append(cfg)
    return out


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported, by run_task
    entries, tolerances = {}, {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for cfg in all_tasks():
            res = tasks.run_task(cfg, work)
            key = check.task_id(cfg)
            if res["status"] != 0:
                defect = next((d for d in KNOWN_DEFECTS if d in res["message"]), None)
                if defect is None:
                    print(f"unexpected failure: {key}: {res['message']}", file=sys.stderr)
                    return 1
                entries[key] = {"expect_status": 0, "seed_status": res["status"],
                                "known_defect": defect}
                print(f"known defect   {key}", flush=True)
                continue
            values = check.compared_leaves(res["summary"])
            for path, value in values.items():
                if isinstance(value, float):
                    pattern = check.field_pattern(path)
                    tolerances[pattern] = {"rel": REL_BY_FIELD.get(pattern, DEFAULT_REL),
                                           "abs": ABS_FLOOR}
            entries[key] = {"expect_status": 0, "values": values}
            print(f"{res['elapsed']:8.2f} s  {key}", flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                            capture_output=True, text=True).stdout.strip()
    doc = {"recorded_at": commit,
           "tolerances": dict(sorted(tolerances.items())),
           "tasks": entries}
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
