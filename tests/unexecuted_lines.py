"""List the lines of ``src/hypersym`` that no tier-1 test, or no benchmark
task, executes.

Usage, from the repository root:

    python tests/unexecuted_lines.py [pytest arguments]
    python tests/unexecuted_lines.py --tasks

Runs the suite (``tests/`` with ``-q --continue-on-collection-errors``
unless other pytest arguments are given) in this process under
``sys.settrace``, and prints ``path:line: source`` for every line of a
module under ``src/hypersym`` that has bytecode and that no test reached,
then their count.  ``PYTHONPATH`` gains ``src`` for the tests that start a
subprocess; what runs there is not traced, so a line reached only in a
child process (``cli.py``'s ``__main__`` call, say) is listed.  Exits with
pytest's status: a list from a failing run undercounts.

With ``--tasks`` it runs, in place of the suite, every distinct timed and
defect task config of ``perfbench/tasks.py`` (the configs that
``dump_summaries.py`` dumps) through the benchmark's ``run_task``, and lists
the lines that no task reached: the benchmark's traffic.  Tasks go through
the runner, never the CLI, so all of ``cli.py`` is listed.  Exits 1 when a
task raised an exception that is not a hypersym error.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "hypersym")


def executable_lines(path: str) -> set[int]:
    """The lines of the module at ``path`` that carry bytecode, nested
    functions, classes and comprehensions included; not line 0, the
    module's preamble, which holds no source."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_tasks() -> int:
    """Run every distinct benchmark task config through ``run_task``; 1 when
    a task ended in an exception outside hypersym's, else 0."""
    import dump_summaries

    tasks = dump_summaries._load_tasks()
    configs = dump_summaries.distinct_configs(tasks)
    with tempfile.TemporaryDirectory() as work_root:
        statuses = [tasks.run_task(config, work_root)["status"] for config in configs]
    print(f"{len(configs)} task configs run")
    return int(None in statuses)


def main(argv: list[str]) -> int:
    modules = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    hits: dict[str, set[int]] = {path: set() for path in modules}
    seen: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None outside src

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = hits.get(os.path.realpath(name))
        if seen[name] is None:
            return None
        seen[name].add(frame.f_lineno)
        return local

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, SRC)
    if argv == ["--tasks"]:
        run, args = run_tasks, ()
    else:
        import pytest

        run, args = pytest.main, (argv or [os.path.join(ROOT, "tests"), "-q",
                                           "--continue-on-collection-errors"],)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = run(*args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    count = 0
    for path in modules:
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - hits[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} lines of src/hypersym that no {'task' if run is run_tasks else 'test'} "
          "executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
