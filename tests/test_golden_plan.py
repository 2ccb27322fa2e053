"""Golden ``plan`` summaries: the exact thresholds and their parameter templates.

``golden/plan_thresholds.json`` holds the config, the exit status and the
summary of ``plan`` for theta 0..8 in Lipschitz mode and for theta 0..3 in
Hoelder mode at kappa 1/2, 1/3, 9/10 and 99/100 (at theta >= 1, kappa 9/10
and 99/100 leave the Lipschitz estimate binding).  Every value is an exact
rational or the double nearest one, so the summaries must be equal, floats
included.
"""

import json
import os

import pytest

from hypersym.runner import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "plan_thresholds.json")

with open(GOLDEN) as _fh:
    RECORDS = json.load(_fh)


def _label(record) -> str:
    cfg = record["config"]
    return f"{cfg['mode']}-theta{cfg['theta']}" + (
        f"-kappa{cfg['kappa'].replace('/', '_')}" if "kappa" in cfg else "")


@pytest.mark.parametrize("golden", RECORDS, ids=[_label(r) for r in RECORDS])
def test_plan_matches_golden(golden):
    status, got = run(dict(golden["config"]))
    got.pop("config")
    assert status == golden["status"]
    assert got == golden["summary"]
