"""Workload task lists for the hypersym benchmark.

A task is one ``runner.run`` config.  The benchmark seed selects one of
``SEED_POOL_SIZE`` input seeds, which feed the ``nuij`` and ``solve``
families; reference outputs for every pool seed live in
``reference.json``.  Every other task is seed independent.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import traceback

SEED_POOL_SIZE = 8

PRESETS = ("block_direct_sum", "diag_sym", "holder_k", "jordan_lower",
           "wave_t2", "wave_x2", "xdep")

WHY = {
    "scan": "many short certify/theta/nuij/conjtest/plan tasks on tiny matrices: "
            "rootsplit, certification and theta work that the oracle and solver "
            "speed-ups must leave unchanged",
    "oracle": "symmetrize on every preset: the quadrature oracle's large expm "
              "stacks, which cheaper exponentials should speed up; the solver is unused",
    "evolve": "truncated RK4 solves and studies: TruncatedGenerator.apply and radius "
              "fits, which cutoff-aware evolution should speed up; the oracle is unused",
}

# Nominal pass length at the reference commit on a 2-CPU x86-64 box.  The
# pass count of a run is derived from --seconds with these, so it is a
# fixed number for given settings and the task percentiles keep their rank.
# At least three passes make the pass median a true median.
NOMINAL_PASS_S = {"scan": 5.0, "oracle": 9.5, "evolve": 13.5}
MIN_PASSES = 3


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def input_seed(seed: int) -> int:
    return seed % SEED_POOL_SIZE


def timed_tasks(workload: str, seed: int) -> list[dict]:
    """Tasks of one timed pass, in run order."""
    s = input_seed(seed)
    if workload == "scan":
        tasks = []
        for p in PRESETS:
            tasks += [{"command": "certify", "preset": p},
                      {"command": "theta", "preset": p}]
        return tasks + [
            {"command": "nuij", "seed": s},
            {"command": "conjtest", "order_one": True},
            {"command": "conjtest", "order_one": False},
            {"command": "plan", "theta": 1, "mode": "lipschitz"},
            {"command": "plan", "theta": 0, "mode": "holder", "kappa": "1/2"},
        ]
    if workload == "oracle":
        return [{"command": "symmetrize", "preset": p} for p in PRESETS]
    if workload == "evolve":
        return [
            {"command": "solve", "preset": "xdep", "seed": s, "n_lattice": 256},
            {"command": "solve", "preset": "xdep", "seed": s, "n_lattice": 1024},
            {"command": "solve", "preset": "wave_t2", "seed": s, "n_lattice": 1024},
            {"command": "solve", "preset": "holder_k", "seed": s, "n_lattice": 256},
            {"command": "study-parabolic", "preset": "xdep", "seed": s},
            {"command": "study-h", "preset": "xdep", "seed": s},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def defect_tasks(workload: str, seed: int) -> list[dict]:
    """Correctness-only tasks, run once per run and never timed.

    wave_t2 at n_lattice 4096 is admissible but aborts with a Gevrey weight
    overflow at the reference commit; it stays in the benchmark so that the
    failure is counted until the program is fixed.
    """
    if workload == "evolve":
        return [{"command": "solve", "preset": "wave_t2", "seed": input_seed(seed),
                 "n_lattice": 4096}]
    return []


WORKLOADS = tuple(WHY)


def run_task(config: dict, work_root: str) -> dict:
    """Run one task through ``runner.run`` as the CLI would.

    Exit status follows the CLI contract: the status ``runner.run`` returns,
    2 for a configuration error and 3 for any other hypersym error.  Any
    other exception is recorded, not raised.  ``solve`` writes its run
    directory under ``work_root``; its size is recorded and it is removed.
    """
    from hypersym import errors, runner

    cfg = dict(config, schema_version="1")
    out_dir = tempfile.mkdtemp(dir=work_root) if cfg["command"] == "solve" else None
    summary, message = None, ""
    t0 = time.perf_counter()
    try:
        status, summary = runner.run(cfg, out_dir)
    except errors.ConfigError as exc:
        status, message = 2, f"config error: {exc}"
    except errors.HypersymError as exc:
        status, message = 3, f"numeric abort: {exc}"
    except Exception:  # the benchmark counts the failure and goes on
        status, message = None, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    artifact_bytes = 0
    if out_dir is not None:
        for name in os.listdir(out_dir):
            artifact_bytes += os.path.getsize(os.path.join(out_dir, name))
        shutil.rmtree(out_dir)
    return {"status": status, "summary": summary, "message": message,
            "elapsed": elapsed, "artifact_bytes": artifact_bytes}
