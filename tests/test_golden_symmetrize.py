"""Golden ``symmetrize`` summaries of every preset at the default config.

``golden/symmetrize_presets.json`` holds, per preset, the config, the exit
status and the summary of a default ``symmetrize`` run: the planned
parameters, R's invariants and lower bound, the quadrature check and the
seven symbol-probe rows.  Floats must agree to 1e-10 relative and everything
else exactly, as in ``test_golden_solve.py``.  The quadrature agreement, the
Lyapunov residual and the hermitian defect are rounding-level errors, so
they are held to the criteria the command applies (1e-6, 1e-8 and 1e-10)
rather than to the recorded values; a more accurate solve may move them.
"""

import copy
import json
import os

import pytest

from hypersym.runner import run
from support import golden_problems

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "symmetrize_presets.json")

with open(GOLDEN) as _fh:
    RECORDS = {record["config"]["preset"]: record for record in json.load(_fh)}

# (section, key) of each field held to its criterion, and the criterion
CRITERIA = {(None, "quadrature_agreement"): 1e-6,
            ("invariants", "max_lyapunov_residual_rel"): 1e-8,
            ("invariants", "max_hermitian_defect"): 1e-10}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_symmetrize_matches_golden(name):
    golden = RECORDS[name]
    want = copy.deepcopy(golden["summary"])
    status, got = run(dict(golden["config"]))
    got.pop("config")
    for (section, key), limit in CRITERIA.items():
        got_part = got[section] if section else got
        want_part = want[section] if section else want
        assert got_part.pop(key) <= limit, (section, key)
        want_part.pop(key)
    problems = golden_problems(got, want)
    assert status == golden["status"]
    assert not problems, problems
