"""Exact index formulas and admissibility checks."""

from fractions import Fraction as F

from hypersym.planner import (
    feasible_region,
    plan,
    rho_required,
    s0_holder,
    s0_lipschitz,
    validate_params,
)
from hypersym.symmetrizer import ParameterSet


def test_s0_lipschitz_values():
    assert s0_lipschitz(0) == F(2)
    assert s0_lipschitz(1) == F(7, 6)
    assert s0_lipschitz(2) == F(11, 10)  # max{14/13, 11/10}


def test_s0_holder_values():
    assert s0_holder(0, F(1, 2)) == F(4, 3)  # 2/(2 - kappa)
    assert s0_holder(1, F(99, 100)) == min(F(200, 101), F(7, 6))
    assert s0_holder(1, F(1, 2)) == F(10, 9)


def test_rho_required():
    assert rho_required(0, "lipschitz") == (F(1, 2), "first-estimate")
    assert rho_required(1, "lipschitz") == (F(6, 7), "second-estimate")
    assert rho_required(1, "holder", F(1, 2)) == (F(9, 10), "holder-mollifier")
    assert rho_required(0, "holder", F(1, 2)) == (F(3, 4), "holder-mollifier")


def test_reciprocal_identity_up_to_theta_eight():
    for theta in range(9):
        assert s0_lipschitz(theta) * rho_required(theta, "lipschitz")[0] == 1


def test_holder_never_exceeds_lipschitz():
    for theta in range(4):
        for kappa in (F(1, 10), F(1, 2), F(9, 10), F(99, 100)):
            assert s0_holder(theta, kappa) <= s0_lipschitz(theta)


def test_monotonicity_in_theta():
    s_vals = [s0_lipschitz(t) for t in range(8)]
    r_vals = [rho_required(t, "lipschitz")[0] for t in range(8)]
    assert all(b < a for a, b in zip(s_vals, s_vals[1:]))
    assert all(b > a for a, b in zip(r_vals, r_vals[1:]))


def test_feasible_region_vertex():
    for theta, kappa in ((0, F(1)), (1, F(1, 2)), (3, F(2, 3))):
        fr = feasible_region(theta, kappa)
        assert fr.vertex_delta == 1
        assert fr.vertex_rho == (F(3 * theta + 2) - kappa) / (3 * theta + 2)
        # both constraint lines meet at the vertex exactly
        smoothing = (F(fr.line_a_num) - fr.kappa * fr.vertex_delta) / fr.denom
        dt_line = (F(fr.line_b_num) + (1 - fr.kappa) * fr.vertex_delta) / fr.denom
        assert smoothing == dt_line == fr.vertex_rho
    assert feasible_region(0, 1).vertex_rho == F(1, 2)
    assert feasible_region(1, F(1, 2)).vertex_rho == F(9, 10)


def _pset(rho, a, ell, tau=F(1, 2), big_t=F(2), c1=F(1, 8)):
    return ParameterSet(rho=rho, a=a, ell=ell, tau=tau, T=big_t, c1=c1,
                        theta=0)


def test_validate_boundary_case_passes():
    p = _pset(F(1, 2), 4, 16)
    assert validate_params(p, c=F(1, 2), a0=1, eps0=F(1, 2)) == []


def test_validate_weight_window_violation():
    p = _pset(F(1, 2), 5, 16)
    out = validate_params(p, c=F(1, 2), a0=1, eps0=F(1, 2))
    assert any("aellconstraint" in v for v in out)


def test_validate_damping_window_violation():
    p = _pset(F(1, 2), 4, 16, tau=F(5), big_t=F(2))
    out = validate_params(p, c=F(1, 2), a0=1, eps0=F(4))
    assert any("rangetau" in v for v in out)


def test_validate_taylor_scale_violation():
    p = _pset(F(1, 2), 4, 16, tau=F(3, 2), big_t=F(2))
    out = validate_params(p, c=F(1, 2), a0=1, eps0=F(1, 4))
    assert any("constraint6" in v for v in out)


def test_validate_damping_floor_violation():
    p = _pset(F(1, 2), 4, 16)
    out = validate_params(p, c=F(1, 2), a0=4, eps0=F(1, 2))
    assert any("constraint8" in v for v in out)


def test_plan_emits_admissible_template():
    for theta in (0, 1, 2):
        pr = plan(theta, "lipschitz")
        assert pr.s0 * pr.rho_required == 1
        assert validate_params(pr.params, c=F(1, 2), a0=1, eps0=F(1, 2)) == []
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
    assert validate_params(p, c=doc["params"]["c_spec"], a0=doc["params"]["a0"],
                           eps0=doc["params"]["eps0"]) == []
