"""Record this checkout's wall times in ``BENCH_<short-sha>.json`` at the repo root.

Usage (from a checkout's root, with its code committed)::

    python tests/bench_record.py

The file holds, for the commit at HEAD (``sha``, with ``parent`` its first
parent and ``dirty`` whether the working tree differed from it):

- ``commands``: every CLI command at its defaults on each preset (``solve``
  at n_lattice 256, 1024 and 4096), and after those ``study-parabolic`` at
  n_lattice 4096 on each preset, run in this process through
  ``perfbench/tasks.run_task`` in ``RUNS`` rounds after one warm-up round,
  each config once a round.  Each entry gives the median and IQR of its wall
  times in seconds (``elapsed_s``), the same of those times scaled by
  perfbench's reference clock (``elapsed_ref_s``), and its exit status.
  ``report`` aggregates a ``solve`` run directory written beforehand;
- ``refclock``: the reference clock's nominal kernel time and the median and
  IQR of its kernel readings.  ``refclock.RefClock`` times a fixed NumPy and
  interpreter kernel before the first run and after each one, and a run's
  scaled time is its wall time times ``NOMINAL_S`` over the mean of the two
  readings on either side of it, so that files recorded while the host ran
  at different speeds compare by ``elapsed_ref_s``;
- ``perfbench``: the median and IQR of ``wall_s`` over ``PERF_RUNS`` runs of
  ``perfbench/run.py --seconds 30 --trace 0`` per workload, each a fresh
  process, and whether every run was correct;
- ``tier1``: the wall time of one tier-1 pytest run and its summary line;
- ``host``: the host name, CPU, CPU count, Python and numpy versions, numpy's
  BLAS and the BLAS thread variables, which are pinned to 1 here as
  perfbench pins them.

The rounds, the perfbench runs and the seed (of ``nuij``, the solves, the
studies and perfbench) are fixed, so every file is comparable with the last.
pytest does not collect this file.  Nothing under ``perfbench/`` is written
but its own ``.out`` scratch directory.
"""

import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SOLVE_LATTICES = (256, 1024, 4096)
STUDY_LATTICE = 4096  # where a solve's Gevrey weight passes EXP_BUDGET on four presets
RUNS, PERF_RUNS, SEED = 5, 5, 3


def _load_perfbench(name: str):
    """perfbench's module ``name``, imported from its file and left as it is."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "n": len(values)}


def command_configs(presets, seed: int, report_dir: str) -> list[dict]:
    configs = []
    for preset in presets:
        configs += [{"command": c, "preset": preset} for c in ("certify", "theta", "symmetrize")]
        configs += [{"command": "solve", "preset": preset, "seed": seed, "n_lattice": n}
                    for n in SOLVE_LATTICES]
        configs += [{"command": c, "preset": preset, "seed": seed}
                    for c in ("study-h", "study-parabolic")]
    return configs + [
        {"command": "nuij", "seed": seed},
        {"command": "conjtest"},
        {"command": "conjtest", "order_one": False},
        {"command": "plan", "theta": 1},
        {"command": "plan", "theta": 0, "mode": "holder", "kappa": "1/2"},
        {"command": "report", "run_dir": report_dir},
    ] + [{"command": "study-parabolic", "preset": preset, "seed": seed,
          "n_lattice": STUDY_LATTICE} for preset in presets]


def time_commands(tasks, clock) -> list[dict]:
    from hypersym import runner

    work = tempfile.mkdtemp()
    report_dir = os.path.join(work, "report_run")
    runner.run({"command": "solve", "schema_version": "1", "preset": "wave_t2", "seed": SEED,
                "n_lattice": 256}, report_dir)
    configs = command_configs(tasks.PRESETS, SEED, report_dir)
    times, scaled = [[] for _ in configs], [[] for _ in configs]
    status = [None] * len(configs)
    clock.lap()  # a reading right before the first run
    for round_ in range(RUNS + 1):  # round 0 warms imports and caches
        for i, config in enumerate(configs):
            res = tasks.run_task(config, work)
            scale = clock.lap()
            status[i] = res["status"]
            if round_:
                times[i].append(res["elapsed"])
                scaled[i].append(res["elapsed"] * scale)
    shutil.rmtree(work)
    next(c for c in configs if c["command"] == "report")["run_dir"] = \
        "a solve of wave_t2 at n_lattice 256"
    return [{"config": config, "status": st, "elapsed_s": _stats(ts),
             "elapsed_ref_s": _stats(ref)}
            for config, st, ts, ref in zip(configs, status, times, scaled)]


def time_perfbench(tasks) -> dict:
    out = {}
    for workload in tasks.WORKLOADS:
        walls, correct = [], True
        for _ in range(PERF_RUNS):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                 "--seconds", "30", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            walls.append(doc["metrics"]["wall_s"]["value"])
            correct &= doc["correct"]
        out[workload] = {"wall_s": _stats(walls), "correct": correct, "seconds": 30, "seed": SEED}
    return out


def time_tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [ln for ln in proc.stdout.splitlines() if " passed" in ln or " failed" in ln]
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def host_facts() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"node": platform.node(), "machine": platform.machine(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS}}


def main() -> int:
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tasks, refclock = _load_perfbench("tasks"), _load_perfbench("refclock")
    clock = refclock.RefClock()
    sha = _git("rev-parse", "HEAD")
    doc = {"sha": sha, "parent": _git("rev-parse", "HEAD^"),
           "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
           "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "host": host_facts(),
           "commands": time_commands(tasks, clock),
           "refclock": {"nominal_s": refclock.NOMINAL_S, "kernel_s": _stats(clock.readings)},
           "perfbench": time_perfbench(tasks), "tier1": time_tier1()}
    path = os.path.join(ROOT, f"BENCH_{sha[:7]}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
