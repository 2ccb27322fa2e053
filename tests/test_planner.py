"""Exact index formulas and admissibility checks.

The planner derives every threshold from one exponent, s0 = 1/rho; the
paper's s0 formulas and the mollifier's constraint lines in ``support`` are
its independent references.
"""

import re
from fractions import Fraction as F

import pytest

from hypersym.errors import ConfigError
from hypersym.planner import DELTA, ParameterSet, _le_pow, plan, rho_required, validate_params
from support import mollifier_lines, s0_holder_reference, s0_lipschitz_reference


def test_s0_lipschitz_values():
    assert plan(0).s0 == s0_lipschitz_reference(0) == F(2)
    assert plan(1).s0 == s0_lipschitz_reference(1) == F(7, 6)
    assert plan(2).s0 == s0_lipschitz_reference(2) == F(11, 10)  # max{14/13, 11/10}


def test_s0_holder_values():
    assert plan(0, "holder", F(1, 2)).s0 == F(4, 3)  # 2/(2 - kappa)
    assert plan(1, "holder", F(99, 100)).s0 == min(F(200, 101), F(7, 6))
    assert plan(1, "holder", F(1, 2)).s0 == F(10, 9)
    for theta, kappa in ((0, F(1, 2)), (1, F(99, 100)), (1, F(1, 2))):
        assert plan(theta, "holder", kappa).s0 == s0_holder_reference(theta, kappa)


def test_rho_required():
    assert rho_required(0, "lipschitz") == (F(1, 2), "first-estimate")
    assert rho_required(1, "lipschitz") == (F(6, 7), "second-estimate")
    assert rho_required(1, "holder", F(1, 2)) == (F(9, 10), "holder-mollifier")
    assert rho_required(0, "holder", F(1, 2)) == (F(3, 4), "holder-mollifier")


def test_reciprocal_identity_up_to_theta_eight():
    for theta in range(9):
        assert s0_lipschitz_reference(theta) * rho_required(theta, "lipschitz")[0] == 1
        assert plan(theta).s0 == s0_lipschitz_reference(theta)


def test_holder_never_exceeds_lipschitz():
    for theta in range(4):
        for kappa in (F(1, 10), F(1, 2), F(9, 10), F(99, 100)):
            s0 = plan(theta, "holder", kappa).s0
            assert s0 == s0_holder_reference(theta, kappa)
            assert s0 <= plan(theta).s0


def test_monotonicity_in_theta():
    s_vals = [plan(t).s0 for t in range(8)]
    r_vals = [rho_required(t, "lipschitz")[0] for t in range(8)]
    assert all(b < a for a, b in zip(s_vals, s_vals[1:]))
    assert all(b > a for a, b in zip(r_vals, r_vals[1:]))


def test_feasible_region_vertex():
    assert DELTA == 1
    for theta, kappa in ((0, F(1)), (1, F(1, 2)), (3, F(2, 3))):
        # both constraint lines meet at the planner's delta exactly
        smoothing, dt_line = mollifier_lines(theta, kappa, DELTA)
        assert smoothing == dt_line == (F(3 * theta + 2) - kappa) / (3 * theta + 2)
        if kappa < 1:
            pr = plan(theta, "holder", kappa)
            assert pr.delta == pr.params.delta == DELTA
            assert pr.rho_required == smoothing
    assert mollifier_lines(0, F(1), DELTA)[0] == F(1, 2)
    assert plan(1, "holder", F(1, 2)).rho_required == F(9, 10)


@pytest.mark.parametrize("kappa", [F(0), F(1), F(-1, 2), F(3, 2), 1.0])
def test_holder_kappa_outside_open_unit_interval_is_refused(kappa):
    # the planner's one kappa check, behind plan and run_params alike, names the value
    refusal = re.escape(f"kappa = {kappa}: kappa must lie in (0, 1)")
    with pytest.raises(ConfigError, match=refusal):
        rho_required(0, "holder", kappa)
    with pytest.raises(ConfigError, match=refusal):
        plan(0, "holder", kappa)


def test_rho_required_refuses_holder_without_kappa_and_negative_theta():
    with pytest.raises(ConfigError, match="holder mode requires kappa"):
        rho_required(0, "holder")
    with pytest.raises(ConfigError, match="theta must be a nonnegative integer"):
        rho_required(-1, "lipschitz")


def test_le_pow_on_nonpositive_sides():
    # a nonpositive lhs is below every power; a nonpositive base has no
    # power at or above a positive lhs
    assert _le_pow(F(-1), F(2), F(1, 2)) and _le_pow(F(0), F(0), F(1, 2))
    assert not _le_pow(F(1, 1000), F(0), F(1, 2))
    assert not _le_pow(F(1, 1000), F(-4), F(1, 2))


def _pset(rho, a, ell, tau=F(1, 2), big_t=F(2), c1=F(1, 8), a0=1, eps0=F(1, 2)):
    return ParameterSet(rho=rho, a=a, ell=ell, tau=tau, T=big_t, c1=c1,
                        theta=0, a0=a0, eps0=eps0, c_spec=F(1, 2))


def test_validate_boundary_case_passes():
    assert validate_params(_pset(F(1, 2), 4, 16)) == []


def test_validate_weight_window_violation():
    out = validate_params(_pset(F(1, 2), 5, 16))
    assert any("aellconstraint" in v for v in out)


def test_validate_damping_window_violation():
    out = validate_params(_pset(F(1, 2), 4, 16, tau=F(5), big_t=F(2), eps0=F(4)))
    assert any("rangetau" in v for v in out)


def test_validate_rho_range_violation():
    for rho in (F(0), F(1), F(3, 2)):
        out = validate_params(_pset(rho, 4, 16))
        assert "rho must lie in (0, 1)" in out


def test_validate_damping_slope_violation():
    # T = 5 past a / (2 c) = 4
    out = validate_params(_pset(F(1, 2), 4, 16, big_t=F(5)))
    assert out == ["rangetau: need 2*c*T <= a"]


def test_validate_taylor_scale_violation():
    out = validate_params(_pset(F(1, 2), 4, 16, tau=F(3, 2), big_t=F(2), eps0=F(1, 4)))
    assert any("constraint6" in v for v in out)


def test_validate_damping_floor_violation():
    out = validate_params(_pset(F(1, 2), 4, 16, a0=4))
    assert any("constraint8" in v for v in out)


def test_plan_emits_admissible_template():
    for theta in (0, 1, 2):
        pr = plan(theta, "lipschitz")
        assert pr.s0 * pr.rho_required == 1
        assert pr.s0 == s0_lipschitz_reference(theta)
        assert (pr.params.c_spec, pr.params.a0, pr.params.eps0) == (F(1, 2), 1, F(1, 2))
        assert validate_params(pr.params) == []
    pr = plan(1, "holder", F(1, 2))
    assert pr.rho_required == F(9, 10)
    assert pr.delta == 1
    assert pr.params.delta == 1


def test_plan_json_round_trip_fields():
    doc = plan(1, "lipschitz").to_json()
    assert doc["s0"] == "7/6"
    assert doc["rho"] == "6/7"
    assert doc["binding"] == "second-estimate"
    p = ParameterSet(**{k: v for k, v in doc["params"].items() if k != "nu"})  # nu is derived
    assert p.nu == doc["params"]["nu"]
    assert validate_params(p) == []
