"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v``; a per-criterion PASS/FAIL
table is printed in the terminal summary.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from hypersym import solver
from hypersym.engine import conjugation_remainder_probe
from hypersym.matkernel import estimate_theta, spectral_bound_certify
from hypersym.planner import ParameterSet, plan, rho_required
from hypersym.presets import get_preset
from hypersym.rootsplit import expand_roots, nuij_constant, nuij_split, random_real_rooted
from hypersym.solver import CauchyProblem, gevrey_data, h_uniformity_study, \
    parabolic_study, solve_cauchy
from hypersym.symmetrizer import (
    _lyap_solve_batch,
    build_field,
    lower_bound_check,
    quadrature_R,
    symbol_estimate_probe,
)

from conftest import ACCEPTANCE_LINES
from support import (
    capped_params,
    gevrey_certificate_holds,
    holder_difference_probe,
    mollifier_lines,
    s0_holder_reference,
    s0_lipschitz_reference,
    stack_blocks,
)

BANK = ("diag_sym", "wave_t2", "jordan_lower", "xdep", "holder_k",
        "block_direct_sum")


def _report(num: int, desc: str, passed: bool, detail: str = ""):
    line = f"criterion {num:02d} {'PASS' if passed else 'FAIL'}  {desc}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert passed, line


def _params_for(preset_name: str) -> ParameterSet:
    pre = get_preset(preset_name)
    if pre.coeffs.t_regularity == "holder":
        return plan(pre.theta, "holder", F(1, 2)).params
    return plan(pre.theta, "lipschitz").params


def _solve_every(monkeypatch, prob, params, cutoffs, grid_steps: int):
    """``solve_cauchy`` sampled every ``grid_steps`` steps of the default grid:
    a first solve with a single sample interval reads the grid's step count,
    and N_SAMPLES is set so that an interval holds ``grid_steps`` of them."""
    monkeypatch.setattr(solver, "N_SAMPLES", 1)
    n_steps = solve_cauchy(prob, params, cutoffs).per
    monkeypatch.setattr(solver, "N_SAMPLES", math.ceil(n_steps / grid_steps))
    res = solve_cauchy(prob, params, cutoffs)
    assert res.per == grid_steps
    return res


def test_criterion_01_lyapunov_identity():
    # >= 500 nodes per preset; residual <= 1e-8 * a mu; solve vs quadrature 1e-6
    worst_resid = 0.0
    worst_agree = 0.0
    ts = np.linspace(0.0, 1.0, 5)
    xs = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    xis = np.geomspace(4.0, 4096.0, 13)
    for name in BANK:
        pre = get_preset(name)
        field = build_field(pre.coeffs, _params_for(name), ts, xs, xis)
        inv = field.check_invariants()
        assert inv["n_nodes"] >= 500
        worst_resid = max(worst_resid, inv["max_lyapunov_residual_rel"])
        rhs = np.broadcast_to(field.rhs, field.M.shape[:-2])
        quad = quadrature_R(field.M, rhs, pre.coeffs.blocks, tol=1e-7)
        agree = float(np.max(
            np.linalg.norm(quad - field.R, axis=(-2, -1))
            / np.linalg.norm(field.R, axis=(-2, -1))
        ))
        worst_agree = max(worst_agree, agree)
    _report(
        1, "Lyapunov identity + method equivalence over the bank",
        worst_resid <= 1e-8 and worst_agree <= 1e-6,
        f"max residual {worst_resid:.2e}, max disagreement {worst_agree:.2e}",
    )


def test_criterion_02_closed_form_symmetrizers():
    a, mu = 2.0, 5.0
    scalar = np.array([[[-a * mu]]])
    r_scalar = _lyap_solve_batch(scalar, [a * mu], stack_blocks(scalar))[0]
    scalar_err = abs(r_scalar[0, 0] - 0.5)
    lam = 3.0
    m = np.array([[-a * mu, 1j * lam], [0.0, -a * mu]])
    closed = np.array(
        [[0.5, 1j * lam / (4 * a * mu)],
         [-1j * lam / (4 * a * mu), 0.5 + lam**2 / (4 * a**2 * mu**2)]]
    )
    jordan_err = np.linalg.norm(
        _lyap_solve_batch(m[None], [a * mu], stack_blocks(m))[0] - closed, 2)
    _report(
        2, "closed-form symmetrizers (scalar 1e-12, Jordan 1e-10)",
        scalar_err <= 1e-12 and jordan_err <= 1e-10,
        f"scalar {scalar_err:.2e}, jordan {jordan_err:.2e}",
    )


def test_criterion_03_nuij_separation():
    s_values = np.geomspace(1e-3, 1.0, 7)
    violations = 0
    worst = math.inf
    for m in range(2, 7):
        rows = expand_roots(random_real_rooted(m, 3.0, 40_000 + 163 * m + np.arange(200)))
        slack = nuij_split(rows[:, None, :], s_values).min_gap - nuij_constant(m) * s_values
        worst = min(worst, float(slack.min()))
        violations += int(np.count_nonzero(slack < -1e-9))
    assert nuij_constant(1) == pytest.approx(1.0)
    assert nuij_constant(2) == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-12)
    _report(
        3, "Nuij separation, 200 polynomials per degree <= 6",
        violations == 0,
        f"violations {violations}, worst slack {worst:.2e}",
    )


def test_criterion_04_spectral_bound():
    ts = np.linspace(0.0, 1.0, 3)
    xs = np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
    ys = [1.0, 0.5, -1.0]
    s_values = np.geomspace(1e-4, 1e-1, 7)
    all_pass = True
    details = []
    for name in BANK + ("wave_x2",):
        pre = get_preset(name)
        rep = spectral_bound_certify(pre.coeffs, ts, xs, ys, s_values)
        all_pass &= rep.passed
        details.append(f"{name} ratio {rep.max_ratio:.3f}")
    wx = get_preset("wave_x2")
    point = spectral_bound_certify(wx.coeffs, [0.0], [0.0], [1.0], s_values)
    analytic = all(abs(im / s - 1.0) <= 1e-8 for s, im in point.table)
    _report(
        4, "spectral bound: bounded ratios, spread <= 2x, analytic x^2 case",
        all_pass and analytic,
        "; ".join(details[:3]) + f"; x2-ratio-err {max(abs(im/s-1) for s, im in point.table):.1e}",
    )


def test_criterion_05_symbol_estimates():
    xis = np.geomspace(2.0**4, 2.0**12, 9)
    ok = True
    details = []
    for name, theta in (("diag_sym", 0), ("wave_x2", 1), ("wave_t2", 1)):
        pre = get_preset(name)
        params = plan(theta, "lipschitz").params
        rep = symbol_estimate_probe(pre.coeffs, params, xis)
        rows_ok = all(
            (r.fitted is None) or (r.fitted <= r.target + 0.15) or r.inconclusive
            for r in rep.rows
        )
        conclusive = all(not r.inconclusive for r in rep.rows)
        field = build_field(pre.coeffs, params, [0.1], [0.0, 1.0, 2.0], xis)
        lb = lower_bound_check(field)
        ok &= rows_ok and conclusive and lb.passed
        details.append(f"{name} lb_exp {lb.exponent:+.2f}")
    _report(
        5, "symbol estimates |a+b| <= 2 and dt row within target + 0.15; "
           "lower bound >= -2nu - 0.1",
        ok, "; ".join(details),
    )


def test_criterion_06_conjugation():
    rho, ell, nx = 0.75, 1.0, 256
    # the symbols e^{ix} <xi>_ell and, x-independent, <xi>_ell
    rep = conjugation_remainder_probe(1, 1, 1.5, rho, ell, [0, 1, 2], nx, two_sided=True)
    fits = [r.fitted for r in rep.rows]
    targets = [r.target for r in rep.rows]
    within = all(abs(f - t) <= 0.2 for f, t in zip(fits, targets))
    monotone = all(b <= a + 0.1 for a, b in zip(fits, fits[1:]))
    # exact-zero cases
    rep_x = conjugation_remainder_probe(0, 1, 1.5, rho, ell, [0], nx)
    zero_x = np.max(rep_x.rows[0].band_norms) <= 1e-12
    rep_t0 = conjugation_remainder_probe(1, 1, 0.0, rho, ell, [0], nx)
    zero_t = np.max(rep_t0.rows[0].band_norms) <= 1e-14
    _report(
        6, "conjugation remainder orders at rho = 3/4, N = 256",
        within and monotone and zero_x and zero_t,
        "fits " + ", ".join(f"{f:+.3f}/{t:+.3f}" for f, t in zip(fits, targets)),
    )


def test_criterion_07_planner_exactness():
    # the planner's s0 = 1/rho and delta against the paper's formulas, written here
    checks = [
        plan(0).s0 == F(2),
        plan(1).s0 == F(7, 6),
        plan(0, "holder", F(1, 2)).s0 == F(2) / (F(2) - F(1, 2)),
        plan(0, "holder", F(1, 3)).s0 == F(2) / (F(2) - F(1, 3)),
        all(
            s0_lipschitz_reference(t) * rho_required(t, "lipschitz")[0] == 1
            for t in range(9)
        ),
    ]
    for theta in (0, 1, 2, 3):
        for kappa in (F(1, 2), F(1, 3), F(9, 10)):
            pr = plan(theta, "holder", kappa)
            smoothing, dt_line = mollifier_lines(theta, kappa, pr.delta)
            checks.append(pr.delta == pr.params.delta == 1 and smoothing == dt_line)
            checks.append(pr.s0 == s0_holder_reference(theta, kappa))
    _report(7, "planner exact rational thresholds", all(checks),
            f"{sum(bool(c) for c in checks)}/{len(checks)} identities")


def test_criterion_08_weighted_wellposedness_run(monkeypatch):
    pre = get_preset("wave_t2")
    params = plan(1, "lipschitz").params  # rho = 6/7, a = 2, ell = 128, T = 2
    assert float(params.rho) == pytest.approx(6.0 / 7.0)
    s = 8.0 / 7.0
    assert s < float(plan(1, "lipschitz").s0)
    c0 = 2.7
    g = gevrey_data(256, 2, s, c0, seed=7)
    horizon = (float(params.T) - float(params.c1)) / float(params.a)
    prob = CauchyProblem(pre.coeffs, g, horizon=horizon, gevrey_s=s,
                         gevrey_c0=c0)
    assert gevrey_certificate_holds(prob.g, prob.gevrey_s, prob.gevrey_c0)
    # sampled at every grid step, each increment held to one step's eta
    res = _solve_every(monkeypatch, prob, params, (1.0 / 256.0,), 1)
    tr = res.traces[0]
    eta = res.dt**2 + 1e-8
    increments = tr.increments[1:]
    monotone = bool(np.all(increments <= eta))
    c_t = tr.gevrey_c
    a = float(params.a)
    radius = bool(
        np.all(np.isfinite(c_t))
        and np.all(c_t >= c_t[0] - a * tr.times * 1.1 - 1e-9)
        and np.all(c_t > 0)
    )
    _report(
        8, "wave_t2 weighted run: E_R nonincreasing per step, radius kept",
        tr.er_mode == "multiplier" and monotone and radius,
        f"max inc {np.max(increments):.2e} vs eta {eta:.2e}; "
        f"c: {c_t[0]:.3f} -> {c_t[-1]:.3f}",
    )


def test_criterion_09_h_uniformity():
    h_list = [1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0]
    ok = True
    details = []
    for name, s in (("wave_t2", 8.0 / 7.0), ("xdep", 1.5)):
        params = capped_params(name, ell=4.0)
        pre = get_preset(name)
        g = gevrey_data(256, 2, s, 1.5, seed=11)
        horizon = (float(params.T) - float(params.c1)) / float(params.a)
        prob = CauchyProblem(pre.coeffs, g, horizon=horizon, gevrey_s=s,
                             gevrey_c0=1.5)
        st = h_uniformity_study(prob, params, h_list)
        ok &= st.passed
        details.append(
            f"{name} spreads {st.spread_first:.1e}/{st.spread_second:.1e}"
            f"/{st.curve_spread:.1e}"
        )
    _report(9, "h-uniformity of estimate constants across h in {1/64..1/256}",
            ok, "; ".join(details))


def test_criterion_10_parabolic_regularization():
    ok = True
    details = []
    for name in ("xdep", "diag_sym"):
        params = capped_params(name, ell=4.0)
        pre = get_preset(name)
        g = gevrey_data(128, 2, 1.8, 1.5, seed=13)
        horizon = (float(params.T) - float(params.c1)) / float(params.a)
        prob = CauchyProblem(pre.coeffs, g, horizon=horizon)
        st = parabolic_study(prob, params, [1e-2, 1e-3, 1e-4])
        ok &= st.passed
        details.append(f"{name} rate {st.rate:.2f} spread {st.energy_spread:.1e}")
    _report(10, "parabolic regularization: uniform energies, 1st-order "
                "self-convergence", ok, "; ".join(details))


def test_criterion_11_holder_mode(monkeypatch):
    pre = get_preset("holder_k")
    pr = plan(0, "holder", F(1, 2))
    params = pr.params
    assert pr.rho_required == F(3, 4)
    nu, rho = params.nu, float(params.rho)
    pairs = [(0.1, 0.1 + 4.0**-k) for k in range(1, 6)]
    fit = holder_difference_probe(pre.coeffs, params, pairs,
                                  np.geomspace(16, 4096, 9))
    probe_ok = fit.passed and (
        fit.exponent is None or fit.exponent <= 3 * nu + 1 - rho + 0.15
    )
    s, c0 = 1.25, 2.0
    g = gevrey_data(256, 2, s, c0, seed=21)
    horizon = (float(params.T) - float(params.c1)) / float(params.a)
    prob = CauchyProblem(pre.coeffs, g, horizon=horizon, gevrey_s=s,
                         gevrey_c0=c0)
    # sampled every 4 grid steps, each increment held to 4 steps' eta
    res = _solve_every(monkeypatch, prob, params, (1.0 / 64.0,), 4)
    tr = res.traces[0]
    eta = (res.dt**2 + 1e-8) * 4
    monotone = bool(np.all(tr.increments[1:] <= eta))
    c_t = tr.gevrey_c
    radius = bool(np.all(np.isfinite(c_t)) and np.all(c_t > 0)
                  and np.all(c_t >= c_t[0] - float(params.a) * tr.times * 1.1 - 1e-9))
    _report(
        11, "Hoelder mode: difference probe and mollified-R energy run",
        probe_ok and tr.er_mode == "mollified" and monotone and radius,
        f"probe exp {fit.exponent if fit.exponent is not None else 'zero':.3}"
        if fit.exponent is not None else "probe exp zero",
    )


def test_criterion_12_theta_estimation():
    expected = {"diag_sym": 0, "block_direct_sum": 0, "wave_t2": 1,
                "jordan_lower": 1}
    ok = True
    details = []
    for name, want in expected.items():
        pre = get_preset(name)
        te = estimate_theta(
            pre.coeffs, np.geomspace(1e-3, 1e-1, 9),
            t_values=np.linspace(0.0, 1.0, 4),
            x_values=np.linspace(0.0, 2 * math.pi, 4, endpoint=False),
        )
        good = te.theta_hat == want and te.residual <= 0.25
        ok &= good
        details.append(f"{name}:{te.theta_hat} (r={te.residual:.3f})")
    _report(12, "bank theta self-consistency with residual <= 0.25", ok,
            "; ".join(details))
