"""Golden summary of a ``solve`` whose result depends on the evolved modes.

xdep at n_lattice 256 with h = 1/64 has 127 active modes (|xi| < 64), so
the final Gevrey radius fit and the second estimate constant read the
evolved band, not only the data left untouched outside it.  The summary in
``golden/solve_xdep_h64.json`` was recorded with the full-lattice time loop
that evolved every mode.  Floats must agree to 1e-10 relative: the band
loop performs the same arithmetic on the active modes, so only a changed
summation order may move the last digits, while a generator off by one part
in a thousand moves ``gevrey_c_final`` in the fourth digit.  Everything
else must be equal.
"""

import json
import math
import os

from hypersym.runner import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "solve_xdep_h64.json")


def _compare(got, want, path, problems):
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            problems.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}", problems)
    elif isinstance(want, float) and isinstance(got, float):
        if not math.isclose(got, want, rel_tol=1e-10, abs_tol=0.0):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def test_solve_xdep_small_h_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    status, summary = run(dict(golden["config"]))
    summary.pop("config")
    problems = []
    _compare(summary, golden["summary"], "summary", problems)
    assert status == golden["status"]
    assert not problems, problems
