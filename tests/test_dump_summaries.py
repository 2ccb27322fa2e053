"""The ``--diff`` report of tests/dump_summaries.py on small synthetic dumps."""

import json
import math
import os
import subprocess
import sys

from dump_summaries import MISSING, compare, diff, largest_moves


def _row(command, **summary):
    return {"config": {"command": command}, "status": 0, "message": "",
            "summary": {"passed": True, **summary}}


def test_compare_counts_identical_rows_and_lists_each_moved_leaf():
    old = [_row("a", x=1.0, rows=[{"v": 2.0}]), _row("b", x=1.0, n=3, flag=True),
           _row("c", x=1.0, gone=0.5)]
    new = [_row("a", x=1.0, rows=[{"v": 2.0}]), _row("b", x=1.0 + 3e-16, n=3, flag=False),
           _row("c", x=1.0)]
    same, total, moved = compare(old, new)
    assert (same, total) == (1, 3)
    (config_b, leaves_b), (config_c, leaves_c) = moved
    assert json.loads(config_b) == {"command": "b"}
    # the bool flip comes before the float move, which carries its relative move
    assert leaves_b[0] == ("summary.flag", True, False, None)
    path, a, b, rel = leaves_b[1]
    assert (path, a, b) == ("summary.x", 1.0, 1.0 + 3e-16)
    assert math.isclose(rel, 2.220446049250313e-16)
    assert json.loads(config_c) == {"command": "c"}
    assert leaves_c == [("summary.gone", 0.5, MISSING, None)]


def test_compare_reads_a_config_in_one_dump_alone_and_nan_as_equal():
    old = [_row("a", x=math.nan)]
    new = [_row("a", x=math.nan), _row("d", x=1)]
    same, total, moved = compare(old, new)
    assert (same, total) == (1, 2)
    (config, leaves), = moved
    assert json.loads(config) == {"command": "d"}
    assert ("summary.x", MISSING, 1, None) in leaves


def test_diff_prints_the_report(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps([_row("a", x=1.0), _row("b", x=4.0, k="s")]))
    new.write_text(json.dumps([_row("a", x=1.0), _row("b", x=5.0, k="t")]))
    assert diff(str(old), str(new)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["1 of 2 configs are byte-identical", '{"command": "b"}',
                     "  summary.k: 's' -> 't'", "  summary.x: 4.0 -> 5.0  (0.25)",
                     'largest summary.x: 0.25 at {"command": "b"}']


def test_largest_moves_per_field_pattern():
    # list indices fold into one pattern; each pattern keeps its largest
    # float move and the config where it sits; non-float changes have none
    old = [_row("a", rows=[{"v": 1.0}, {"v": 1.0}], y=2.0), _row("b", rows=[{"v": 1.0}], k="s")]
    new = [_row("a", rows=[{"v": 1.5}, {"v": 3.0}], y=2.0), _row("b", rows=[{"v": 2.5}], k="t")]
    largest = largest_moves(compare(old, new)[2])
    assert list(largest) == ["summary.rows[*].v"]
    rel, config = largest["summary.rows[*].v"]
    assert rel == 2.0 and json.loads(config) == {"command": "a"}


def test_diff_exits_quietly_on_a_closed_pipe(tmp_path):
    # ``--diff ... | head``: the reader closes the pipe before the report is
    # written, and the script stops without a traceback
    old = [_row(f"c{i}", x=1.0) for i in range(3000)]
    new = [_row(f"c{i}", x=2.0) for i in range(3000)]
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, rows in zip(paths, (old, new)):
        path.write_text(json.dumps(rows))
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dump_summaries.py")
    proc = subprocess.Popen([sys.executable, script, "--diff", *map(str, paths)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""
