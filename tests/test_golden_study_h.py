"""Golden results of the h-uniformity study, which evolves its cutoffs together.

``golden/study_h.json`` holds two studies, recorded when each cutoff had a
solve of its own, and re-recorded when the samples moved to the fixed grid
of N_SAMPLES + 1 times.  One is the benchmark's ``study-h`` on xdep (seed 0, the
defaults), with its bands of 127, 255 and 256 modes.  The other is criterion
09's wave_t2 study, whose constants and curves are read directly from
``h_uniformity_study``.  Floats must agree to 1e-10 relative, and everything
else must be equal: the joint band evolves each cutoff's modes with the
arithmetic of that cutoff's own solve.
"""

import dataclasses
import json
import os

from hypersym.presets import get_preset
from hypersym.runner import run
from hypersym.solver import CauchyProblem, gevrey_data, h_uniformity_study
from support import capped_params, golden_problems

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "study_h.json")


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_study_h_command_matches_golden():
    golden = _golden()["study_h"]
    status, summary = run(dict(golden["config"]))
    summary.pop("config")
    assert status == golden["status"]
    problems = golden_problems(summary, golden["summary"])
    assert not problems, problems


def test_criterion_09_wave_t2_study_matches_golden():
    # criterion 09's wave_t2 problem, as tests/test_acceptance.py builds it
    params = capped_params("wave_t2", ell=4.0)
    g = gevrey_data(256, 2, 8.0 / 7.0, 1.5, seed=11)
    horizon = (float(params.T) - float(params.c1)) / float(params.a)
    prob = CauchyProblem(get_preset("wave_t2").coeffs, g, horizon=horizon,
                         gevrey_s=8.0 / 7.0, gevrey_c0=1.5)
    st = h_uniformity_study(prob, params, [1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0])
    problems = golden_problems(dataclasses.asdict(st), _golden()["criterion_09_wave_t2"])
    assert not problems, problems
