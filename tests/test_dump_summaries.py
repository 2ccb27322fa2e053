"""The ``--diff`` report of tests/dump_summaries.py on small synthetic dumps."""

import json
import math

from dump_summaries import MISSING, compare, diff


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
                     "  summary.k: 's' -> 't'", "  summary.x: 4.0 -> 5.0  (0.25)"]
