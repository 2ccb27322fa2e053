"""hypersym benchmark: checked verification workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {scan,oracle,evolve} --seed N \\
        --seconds S --trace {0,1}

One caller in one process runs the workload's tasks back to back through
``runner.run`` (a closed loop, one client), checks every task's output
against ``reference.json`` and repeats the pass a fixed number of times
derived from ``--seconds``.  BLAS threads are pinned to 1.  End-to-end
times are read on the reference clock of ``refclock.py``, which removes the
host's speed drift; the measured times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
task untraced and traced, reports the per-layer table from the traced runs
and writes their spans under ``perfbench/.out/``.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when any task's output disagrees with its reference; a known defect
(a task that aborts as it did at the reference commit) counts as failed,
not as wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import check
import tasks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
PINNED_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = PINNED_VARS + ("HYPERSYM_THREADS",)
SETUP_REPEATS = 5


def measure_setup(clock) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter importing the CLI and runner: (raw, scaled)."""
    cmd = [sys.executable, "-c", "import hypersym.cli, hypersym.runner"]
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # may compile bytecode
    clock.lap()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * clock.lap())
    return raw, scaled


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, n - 10)  # 1-based rank with n - rank samples above it
    return xs[rank - 1], 100.0 * rank / n, n


class Bench:
    def __init__(self, workload: str, seed: int):
        self.tasks = tasks.timed_tasks(workload, seed)
        self.defects = tasks.defect_tasks(workload, seed)
        self.checker = check.Checker()
        self.attempted = self.failed = self.wrong = 0

    def run_one(self, config: dict) -> dict:
        """Run and check one task; ``interval`` is the wall time of both."""
        t0 = time.perf_counter()
        res = tasks.run_task(config, OUT)
        verdict, problems = self.checker.check(config, res)
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
            self.wrong += verdict == "wrong"
            print(f"  {verdict.upper()}: {check.task_id(config)}: "
                  + "; ".join(problems[:5]), flush=True)
        res["interval"] = time.perf_counter() - t0
        return res


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, n_passes: int) -> dict:
    """End-to-end metrics in reference seconds (see refclock.py)."""
    import refclock

    clock = refclock.RefClock()
    setup_raw, setup = measure_setup(clock)
    raw_walls, walls, task_times = [], [], []
    for _ in range(n_passes):
        raw_wall = wall = 0.0
        for cfg in bench.tasks:
            res = bench.run_one(cfg)
            f = clock.lap()
            raw_wall += res["interval"]
            wall += res["interval"] * f
            task_times.append(res["elapsed"] * f)
        raw_walls.append(raw_wall)
        walls.append(wall)
    for cfg in bench.defects:
        bench.run_one(cfg)
    tail_s, q, n = tail(task_times)
    print(f"passes {n_passes}: measured wall_s {_fmt(raw_walls)}, scaled {_fmt(walls)}")
    print(f"measured setup_s {_fmt(setup_raw)}; reference kernel median "
          f"{statistics.median(clock.readings):.4f} s against {refclock.NOMINAL_S} s nominal")
    print(f"task_tail_s is p{q:.1f} of {n} task times (10 beyond it)")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "task_p50_s": metric(statistics.median(task_times), "s"),
        "task_tail_s": metric(tail_s, "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MiB"),
    }


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def per_layer(bench: Bench, workload: str, n_passes: int) -> dict:
    """Per-layer table from traced runs of every task.

    Each task runs untraced and traced back to back, so that both see the
    same machine state and their difference is the tracing overhead.  The
    order alternates from task to task and pass to pass, because the second
    run of a pair is the faster one.
    """
    import tracer

    tr = tracer.Tracer()

    def run(cfg: dict, traced: bool) -> dict:
        if not traced:
            return bench.run_one(cfg)
        tr.install()
        try:
            return bench.run_one(cfg)
        finally:
            tr.uninstall()

    plain, traced, artifact_bytes = [], [], 0
    for p in range(n_passes):
        plain.append(0.0)
        traced.append(0.0)
        for k, cfg in enumerate(bench.tasks):
            for on in ((False, True) if (p + k) % 2 == 0 else (True, False)):
                res = run(cfg, on)
                if on:
                    traced[-1] += res["elapsed"]
                    artifact_bytes += res["artifact_bytes"]
                else:
                    plain[-1] += res["elapsed"]
    n_spans = len(tr.spans)
    defect_s = sum(run(cfg, True)["elapsed"] for cfg in bench.defects)
    tr.write(os.path.join(OUT, f"spans-{workload}.jsonl"))
    # the defect task's spans are in the file but not in the per-pass table
    spans = tr.spans[:n_spans]
    profile = tracer.Profile(spans)
    out = {name: metric(v, unit)
           for name, (v, unit) in tracer.layer_metrics(profile, n_passes).items()}
    plain_s = statistics.median(plain)
    overhead_s = statistics.median(t - u for t, u in zip(traced, plain))
    non_runner = sum(v for k, v in profile.layer_self.items() if k != "runner")
    out.update({
        "runner.artifact_bytes": metric(artifact_bytes / n_passes, "bytes"),
        "trace.wall_s": metric(statistics.median(traced), "s"),
        "trace.overhead_s": metric(overhead_s, "s"),
        "trace.overhead_frac": metric(overhead_s / plain_s, "ratio"),
        "trace.non_runner_self_frac": metric(non_runner / sum(traced), "ratio"),
        "trace.spans_per_pass": metric(len(spans) / n_passes, "count"),
        "trace.span_cost_us": metric(tracer.span_cost_us(), "us"),
        "tasks.defect_s": metric(defect_s, "s"),
        "tasks.failed_frac": metric(bench.failed / bench.attempted, "ratio"),
    })
    estimate = len(spans) / n_passes * out["trace.span_cost_us"]["value"] * 1e-6 / plain_s
    print(f"{n_passes} passes, each task untraced and traced back to back; task time "
          f"per pass {plain_s:.3f} s untraced; span cost x spans puts the overhead "
          f"at {estimate:.2%}")
    for name, m in out.items():
        tag = "  (exact count)" if name in tracer.EXACT_COUNTS else ""
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}{tag}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypersym", "runner.py")):
        print(f"error: no hypersym sources under {SRC}", file=sys.stderr)
        return 2
    for var in PINNED_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    n_passes = tasks.passes_for(args.workload, args.seconds)
    bench = Bench(args.workload, args.seed)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(f"workload {args.workload} (seed {args.seed} -> input seed "
          f"{tasks.input_seed(args.seed)}): {tasks.WHY[args.workload]}")
    if args.trace:
        # each traced pass runs every task twice; half the passes keep the
        # run about as long as an untraced one
        metrics = per_layer(bench, args.workload, max(2, (n_passes + 1) // 2))
    else:
        metrics = end_to_end(bench, n_passes)
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:12.6g} {m['unit']}")
    print(f"tasks attempted {bench.attempted}, failed {bench.failed} "
          f"(failed_frac {bench.failed / bench.attempted:.4g}), wrong outputs {bench.wrong}")
    print(json.dumps({"correct": bench.wrong == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
