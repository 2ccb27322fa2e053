"""Golden ``plan`` summaries: the exact thresholds and their parameter templates.

``golden/plan_thresholds.json`` holds the config, the exit status and the
summary of ``plan`` for theta 0..8 in Lipschitz mode and for theta 0..3 in
Hoelder mode at kappa 1/2, 1/3, 9/10 and 99/100 (at theta >= 1, kappa 9/10
and 99/100 leave the Lipschitz estimate binding).  Every value is an exact
rational or the double nearest one, so the summaries must be equal, floats
included.

``golden/plan_capped.json`` holds, for every bank preset at ``ell_max`` 64
and 128, the preset's calibration and ``run_params`` on it with ell capped,
in the mode and at the kappa that ``solve`` and the studies plan in.  Those
plans, and the uncapped template that ``symmetrize`` plans (pinned in
``golden/symmetrize_presets.json``), must meet every constraint exactly
against the constants the calibration certified.
"""

import functools
import json
import os
from dataclasses import asdict
from fractions import Fraction

import pytest

from hypersym.planner import validate_params
from hypersym.presets import get_preset, preset_names
from hypersym.runner import calibrate, run, run_params

_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(_DIR, "plan_thresholds.json")) as _fh:
    RECORDS = json.load(_fh)
with open(os.path.join(_DIR, "plan_capped.json")) as _fh:
    CAPPED = json.load(_fh)
with open(os.path.join(_DIR, "symmetrize_presets.json")) as _fh:
    TEMPLATES = {r["config"]["preset"]: r["summary"]["params"] for r in json.load(_fh)}


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


@functools.cache
def _calibration(name):
    pre = get_preset(name)
    return calibrate(pre.coeffs, pre.theta)


def _capped(record):
    kappa = record["kappa"]
    return run_params(_calibration(record["preset"]), record["mode"],
                      None if kappa is None else Fraction(kappa), record["ell_max"])


def test_capped_plans_cover_the_bank():
    assert sorted((r["preset"], r["ell_max"]) for r in CAPPED) == [
        (name, ell) for name in sorted(preset_names()) for ell in (64.0, 128.0)]
    assert sorted(TEMPLATES) == sorted(preset_names())


@pytest.mark.parametrize("golden", CAPPED, ids=[f"{r['preset']}-ell{r['ell_max']:g}"
                                                for r in CAPPED])
def test_capped_plan_matches_golden(golden):
    assert asdict(_calibration(golden["preset"])) == golden["calibration"]
    assert _capped(golden).to_json() == golden["params"]


@pytest.mark.parametrize("name", preset_names())
def test_golden_plans_meet_their_calibration_exactly(name):
    # every golden plan of the preset, checked against the calibrated floats
    # themselves; the uncapped template floors a0 at 1, the capped plan does not
    cal = _calibration(name)
    template = run_params(cal)
    assert template.to_json() == TEMPLATES[name]
    assert (template.c_spec, template.a0, template.eps0) == (cal.c, max(cal.a0, 1.0), cal.eps0)
    assert validate_params(template) == []
    for record in (r for r in CAPPED if r["preset"] == name):
        capped = _capped(record)
        assert (capped.c_spec, capped.a0, capped.eps0) == (cal.c, cal.a0, cal.eps0)
        assert validate_params(capped) == [], record["ell_max"]
