"""Golden summary of a ``solve`` whose result depends on the evolved modes.

xdep at n_lattice 256 with h = 1/64 has 127 active modes (|xi| < 64), so
the final Gevrey radius fit and the second estimate constant read the
evolved band, not only the data left untouched outside it.  The summary in
``golden/solve_xdep_h64.json`` was recorded with the full-lattice time loop
that evolved every mode, and re-recorded when the samples moved to the
fixed grid of N_SAMPLES + 1 times, which rounds the step count up to a
multiple of N_SAMPLES and so moves dt.  Floats must agree to 1e-10
relative: the band loop performs the same arithmetic on the active modes,
so only a changed summation order may move the last digits, while a
generator off by one part in a thousand moves ``gevrey_c_final`` in the
fourth digit.  Everything else must be equal.
"""

import json
import os

from hypersym.runner import run
from support import golden_problems

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "solve_xdep_h64.json")


def test_solve_xdep_small_h_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    status, summary = run(dict(golden["config"]))
    summary.pop("config")
    problems = golden_problems(summary, golden["summary"])
    assert status == golden["status"]
    assert not problems, problems
