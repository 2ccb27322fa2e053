"""Dump the outputs of every distinct benchmark task config to one JSON file,
or compare two such dumps.

Usage (from a checkout's root)::

    PYTHONPATH=src python tests/dump_summaries.py OUT.json
    python tests/dump_summaries.py --diff OLD.json NEW.json

It runs each distinct timed and defect task of ``perfbench/tasks.py``
(every workload, input seeds 0 to SEED_POOL_SIZE - 1) through the benchmark's
own ``run_task`` and writes, for each, the config, the exit status, the
message and the summary, with keys sorted.  A ``solve`` config also records
the sha256 of each artifact it writes (``trajectory.bin``,
``energy_trace.csv``, ``trajectory_meta.json``), from a second run into a
directory of its own, since ``run_task`` removes its run directory.  Running it on two checkouts and
comparing the files with ``--diff`` shows which outputs a change moved: it
prints how many configs are byte-identical and then, for each config that
moved, every moved leaf with its old value, new value and relative move,
the changes that are not float moves first (a moved artifact as its old
and new hash), and then, per field pattern
(list indices as ``[*]``), the largest relative move and its config.  It
exits 1 when any config, leaf or artifact hash moved and 0 when none did.  A
reader that closes the pipe early (``| head``) ends it quietly.  Nothing
under ``perfbench/`` is written; each run's artifacts go to a temporary
directory that is removed.
"""

import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
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


ARTIFACTS = ("trajectory.bin", "energy_trace.csv", "trajectory_meta.json")


def artifact_hashes(config: dict, work_root: str) -> dict:
    """``{name: sha256}`` of each of ``ARTIFACTS`` that ``runner.run`` writes
    for ``config``; a run that raises writes none of them."""
    from hypersym import errors, runner

    out_dir = tempfile.mkdtemp(dir=work_root)
    try:
        runner.run(dict(config, schema_version="1"), out_dir)
    except errors.HypersymError:
        pass
    hashes = {}
    for name in ARTIFACTS:
        if os.path.exists(os.path.join(out_dir, name)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                hashes[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    shutil.rmtree(out_dir)
    return hashes


MISSING = "<missing>"


def _leaves(value, path=""):
    """``{path: leaf}`` of a JSON value, paths like ``summary.rows[0].fitted``;
    an empty object or list is a leaf."""
    if isinstance(value, dict) and value:
        return {k: v for key, item in value.items()
                for k, v in _leaves(item, f"{path}.{key}" if path else key).items()}
    if isinstance(value, list) and value:
        return {k: v for i, item in enumerate(value)
                for k, v in _leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def moved_leaves(old_row: dict, new_row: dict) -> list[tuple]:
    """(path, old, new, relative move) of each leaf that differs, the changes
    that are not float-to-float first; the move is None for those."""
    old, new = _leaves(old_row), _leaves(new_row)
    moves = []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, MISSING), new.get(path, MISSING)
        if json.dumps(a) == json.dumps(b):  # NaN equals NaN, 1 differs from 1.0 and True
            continue
        rel = None
        if isinstance(a, float) and isinstance(b, float):
            rel = abs(b - a) / abs(a) if a else math.inf
        moves.append((path, a, b, rel))
    return sorted(moves, key=lambda move: move[3] is not None)


def compare(old_rows: list, new_rows: list) -> tuple[int, int, list]:
    """(byte-identical configs, configs, [(config, moved leaves)]) of two dumps,
    rows matched by config; a config in one dump alone moves every leaf."""
    old = {json.dumps(row["config"], sort_keys=True): row for row in old_rows}
    new = {json.dumps(row["config"], sort_keys=True): row for row in new_rows}
    configs = list(old) + [k for k in new if k not in old]
    moved = [(k, moved_leaves(old.get(k, {}), new.get(k, {}))) for k in configs]
    moved = [(k, leaves) for k, leaves in moved if leaves]
    return len(configs) - len(moved), len(configs), moved


def largest_moves(moved: list) -> dict:
    """``{pattern: (relative move, config)}``: per field pattern (a leaf path
    with its list indices as ``[*]``), the largest float move and the config
    where it sits, patterns in sorted order."""
    largest = {}
    for config, leaves in moved:
        for path, _, _, rel in leaves:
            pattern = re.sub(r"\[\d+\]", "[*]", path)
            if rel is not None and rel > largest.get(pattern, (-1.0,))[0]:
                largest[pattern] = (rel, config)
    return dict(sorted(largest.items()))


def diff(old_path: str, new_path: str) -> int:
    """Print the report of two dumps; 1 when anything moved, else 0."""
    with open(old_path) as fh:
        old_rows = json.load(fh)
    with open(new_path) as fh:
        new_rows = json.load(fh)
    same, total, moved = compare(old_rows, new_rows)
    print(f"{same} of {total} configs are byte-identical")
    hashes = sum(len(row.get("artifacts", {})) for row in new_rows)
    if hashes:
        kept = hashes - sum(path.startswith("artifacts.") for _, leaves in moved
                            for path, *_ in leaves)
        print(f"{kept} of {hashes} solve artifacts are byte-identical")
    for config, leaves in moved:
        print(config)
        for path, a, b, rel in leaves:
            tail = "" if rel is None else f"  ({rel:.2g})"
            print(f"  {path}: {a!r} -> {b!r}{tail}")
    for pattern, (rel, config) in largest_moves(moved).items():
        print(f"largest {pattern}: {rel:.2g} at {config}")
    return 1 if moved else 0


def main(path: str) -> int:
    tasks = _load_tasks()
    rows = []
    with tempfile.TemporaryDirectory() as work_root:
        for config in distinct_configs(tasks):
            result = tasks.run_task(config, work_root)
            row = {"config": config, "status": result["status"],
                   "message": result["message"], "summary": result["summary"]}
            if config["command"] == "solve":
                row["artifacts"] = artifact_hashes(config, work_root)
            rows.append(row)
    with open(path, "w") as fh:
        json.dump(rows, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")
    print(f"{len(rows)} configs written to {path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--diff":
        try:
            status = diff(sys.argv[2], sys.argv[3])
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (``--diff ... | head``): stop quietly,
            # with stdout on devnull so that the exit's flush writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            status = 0
        sys.exit(status)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
