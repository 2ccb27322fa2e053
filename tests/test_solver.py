"""Evolution loop, energy traces, radius fits, studies."""

import math

import numpy as np
import pytest

from hypersym.engine import lattice, squared_moduli
from hypersym.errors import ConfigError
from hypersym.matkernel import expm_batched
from hypersym.presets import get_preset
from hypersym.planner import plan
from hypersym.solver import (
    CauchyProblem,
    TruncatedGenerator,
    gevrey_data,
    gevrey_radius_fit,
    solve_cauchy,
    step_rk4,
)
from hypersym.symmetrizer import ParameterSet
from hypersym.weights import bracket, gevrey_weight, smooth_cutoff
from support import (allocating_rhs, constant_system, from_physical, generator_matrix,
                     is_conjugate_symmetric, rk4_step)


def _single_mode(n, m, mode, comp=0, value=1.0):
    coeffs = np.zeros((m, n), dtype=complex)
    idx = int(np.where(lattice(n).astype(int) == mode)[0][0])
    coeffs[comp, idx] = value
    return coeffs


# ---------------------------------------------------------------------------
# TruncatedGenerator.apply


def test_rhs_constant_diagonal_no_cutoff():
    cs = constant_system(np.diag([1.0, -2.0]))
    st = _single_mode(32, 2, 5)
    gen = TruncatedGenerator(cs, st.shape[1], 0.0, 0.0)
    out = allocating_rhs(gen)(0.0, st[:, gen.index])
    # i A(xi) u_hat per mode: component 0 gets i * 1 * 5
    np.testing.assert_allclose(out[0], 5j * st[0, gen.index], atol=1e-14)


def test_rhs_pure_heat():
    cs = constant_system(np.zeros((1, 1)))
    st = _single_mode(32, 1, 4)
    gen = TruncatedGenerator(cs, st.shape[1], 0.0, 0.3)
    out = allocating_rhs(gen)(0.0, st[:, gen.index])
    np.testing.assert_allclose(out, -0.3 * 16.0 * st[:, gen.index], atol=1e-14)


def test_rhs_cutoff_annihilates_high_modes():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    st = _single_mode(64, 2, 30)
    # mode 30 is beyond the cutoff support 1/h = 8: outside the active band,
    # which is |xi| < 1/h
    gen = TruncatedGenerator(cs, st.shape[1], 1.0 / 8.0, 0.0)
    assert 30 not in gen.xi
    assert np.max(np.abs(gen.xi)) < 8


# ---------------------------------------------------------------------------
# The reference RK4 step


def test_rk4_zero_rhs():
    st = _single_mode(16, 1, 2)
    out = rk4_step(lambda t, u: np.zeros_like(u), st, 0.0, 0.1)
    np.testing.assert_array_equal(out, st)


def test_rk4_scalar_amplification_polynomial():
    st = _single_mode(16, 1, 0, value=1.0)
    dt = 0.3
    out = rk4_step(lambda t, u: -u, st, 0.0, dt)
    expected = 1 - dt + dt**2 / 2 - dt**3 / 6 + dt**4 / 24
    assert out[0, 0].real == pytest.approx(expected, rel=1e-14)


def test_rk4_matches_matrix_exponential_order():
    # constant system: one RK4 step vs expm over dt has O(dt^5) error
    a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    cs = constant_system(a1)
    st = _single_mode(16, 2, 3)
    gen = TruncatedGenerator(cs, 16, 0.0, 0.0)
    idx = int(np.where(gen.xi == 3)[0][0])
    errs = []
    dts = [0.1, 0.05, 0.025]
    for dt in dts:
        out = rk4_step(allocating_rhs(gen), st[:, gen.index], 0.0, dt)
        exact = expm_batched(1j * a1 * 3.0 * dt) @ st[:, [gen.index[idx]]]
        errs.append(np.max(np.abs(out[:, [idx]] - exact)))
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert order >= 4.5


def test_rk4_budget_refused():
    # lam_bound = |xi|max ||A|| = 32 on 64 modes: dt lam is 2 at dt = 1/16
    # (inside the budget 2.5) and 4 at dt = 1/8
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob = CauchyProblem(cs, gevrey_data(64, 2, 2.0, 2.0, seed=2), horizon=0.5)
    solve_cauchy(prob, _quick_params(), h=0.25, dt=1 / 16, track_energy=False)
    with pytest.raises(ConfigError, match="stability budget"):
        solve_cauchy(prob, _quick_params(), h=0.25, dt=1 / 8, track_energy=False)


# ---------------------------------------------------------------------------
# Full solves


def _quick_params():
    return ParameterSet(rho=0.5, a=1.8, ell=4.0, tau=0.9, T=1.8, c1=0.225,
                        theta=0, a0=0.5, eps0=0.5, c_spec=0.5)


def test_zero_system_constant_state():
    cs = constant_system(np.zeros((2, 2)))
    g = gevrey_data(64, 2, 2.0, 1.5, seed=1)
    prob = CauchyProblem(cs, g, horizon=0.5)
    res = solve_cauchy(prob, _quick_params(), h=0.25, stride=4)
    assert np.max(np.abs(res.states[-1] - g)) <= 1e-12


def test_weighted_norm_examples():
    # the trace's norms are ||<xi>_ell^sigma v|| of v = e^{(T - a t) <xi>_ell^rho} u;
    # on the zero system u stays the data at every sample
    params = _quick_params()
    big_t, a, rho, ell = params.T, params.a, float(params.rho), params.ell
    cs = constant_system(np.zeros((2, 2)))
    g = gevrey_data(64, 2, 2.0, 1.5, seed=1)
    res = solve_cauchy(CauchyProblem(cs, g, horizon=0.5), params, h=0.0, stride=4,
                       track_energy=False)
    times, sigmas = res.trace.times, np.array(res.trace.sigmas)
    # with nu = 0, column 3 is the plain norm of v
    assert sigmas[3] == 0.0
    plain = [np.linalg.norm(g * gevrey_weight(lattice(64), big_t - a * t, rho, ell))
             for t in times]
    np.testing.assert_allclose(res.trace.norms[:, 3], plain, rtol=1e-13)
    # a single mode of amplitude 2 at xi = 5, at t = 0 and along the run
    single = _single_mode(64, 2, 5, comp=1, value=2.0)
    res = solve_cauchy(CauchyProblem(cs, single, horizon=0.5), params, h=0.0, stride=4,
                       track_energy=False)
    br = bracket(5.0, ell)
    np.testing.assert_allclose(res.trace.norms[0], 2.0 * br**sigmas * np.exp(big_t * br**rho),
                               rtol=1e-13)
    np.testing.assert_allclose(res.trace.norms,
                               res.trace.norms[0] * np.exp(-a * times[:, None] * br**rho),
                               rtol=1e-13)


def test_skew_system_norm_conserved():
    # symmetric A1, no cutoff damping inside the band: plain norm conserved
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = gevrey_data(64, 2, 2.0, 2.0, seed=2)
    prob = CauchyProblem(cs, g, horizon=0.5)
    res = solve_cauchy(prob, _quick_params(), h=0.25, stride=4,
                       track_energy=False)
    norm0 = np.linalg.norm(g)
    assert np.linalg.norm(res.states[-1]) == pytest.approx(norm0, abs=1e-8 * norm0)


def test_linearity():
    pre = get_preset("wave_t2")
    params = ParameterSet(rho=6.0 / 7.0, a=1.2, ell=4.0, tau=0.5, T=1.2,
                          c1=0.125, theta=1, a0=0.0, eps0=0.5, c_spec=0.5)
    g = gevrey_data(64, 2, 8.0 / 7.0, 1.5, seed=3)
    prob1 = CauchyProblem(pre.coeffs, g, horizon=0.4)
    prob2 = CauchyProblem(pre.coeffs, 2.5 * g, horizon=0.4)
    r1 = solve_cauchy(prob1, params, h=0.25, stride=8, track_energy=False)
    r2 = solve_cauchy(prob2, params, h=0.25, stride=8, track_energy=False)
    assert np.max(np.abs(r2.states[-1] - 2.5 * r1.states[-1])) <= 1e-12 * max(
        1.0, np.max(np.abs(r2.states[-1]))
    )


def test_reality_preserved():
    pre = get_preset("xdep")
    g = gevrey_data(64, 2, 2.0, 1.5, seed=4)
    assert is_conjugate_symmetric(g)
    prob = CauchyProblem(pre.coeffs, g, horizon=0.5)
    res = solve_cauchy(prob, _quick_params(), h=0.25, stride=8,
                       track_energy=False)
    assert is_conjugate_symmetric(res.states[-1], tol=1e-12)


def test_truncation_consistency():
    # halving h changes the solution by at most the data tail beyond the
    # coarser plateau
    pre = get_preset("xdep")
    g = gevrey_data(128, 2, 2.0, 2.5, seed=5)
    prob = CauchyProblem(pre.coeffs, g, horizon=0.4)
    params = _quick_params()
    r1 = solve_cauchy(prob, params, h=1 / 16, stride=16, track_energy=False)
    r2 = solve_cauchy(prob, params, h=1 / 32, stride=16, track_energy=False)
    xi = lattice(g.shape[1])
    tail_mask = np.abs(xi) >= 8.0  # coarser plateau edge 1/(2h) = 8
    tail_mass = float(np.sqrt(np.sum(np.abs(g[:, tail_mask]) ** 2)))
    diff = np.linalg.norm(r1.states[-1] - r2.states[-1])
    growth_budget = 10.0  # crude operator-growth allowance over the horizon
    assert diff <= growth_budget * max(tail_mass, 1e-14)


def test_stability_budget_enforced():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = gevrey_data(64, 2, 2.0, 1.5, seed=6)
    prob = CauchyProblem(cs, g, horizon=0.5)
    with pytest.raises(ConfigError):
        solve_cauchy(prob, _quick_params(), h=0.25, dt=1.0)


def test_param_validation_enforced():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = gevrey_data(64, 2, 2.0, 1.5, seed=7)
    prob = CauchyProblem(cs, g, horizon=0.5)
    bad = ParameterSet(rho=0.5, a=5.0, ell=16.0, tau=0.9, T=1.8, c1=0.225,
                       theta=0, a0=0.5, eps0=0.5, c_spec=0.5)
    with pytest.raises(ConfigError):
        solve_cauchy(prob, bad, h=1 / 16)


def test_h_range_enforced():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = gevrey_data(64, 2, 2.0, 1.5, seed=8)
    prob = CauchyProblem(cs, g, horizon=0.5)
    with pytest.raises(ConfigError):
        solve_cauchy(prob, _quick_params(), h=0.5)  # above 1/ell = 0.25


# ---------------------------------------------------------------------------
# Gevrey radius


def test_radius_fit_exact_synthetic():
    n = 256
    xi = lattice(n)
    s = 1.5
    coeffs = np.exp(-2.0 * np.hypot(xi, 1.0) ** (1.0 / s))[None, :].astype(complex)
    c_fit, resid = gevrey_radius_fit(squared_moduli(coeffs), s)
    assert c_fit == pytest.approx(2.0, abs=0.05)
    assert resid <= 1e-6


def test_radius_fit_gaussian():
    n = 256
    x = 2 * np.pi * np.arange(n) / n
    sigma = 0.25
    u = np.exp(-((x - np.pi) ** 2) / (2 * sigma**2))
    st = from_physical(u[None, :])
    c_fit, _ = gevrey_radius_fit(squared_moduli(st), 2.0)
    # gaussian tail: |u_hat| ~ e^{-sigma^2 xi^2 / 2}; in <xi>^(1/2)
    # coordinates the fitted c is finite and positive over the band
    assert c_fit > 0


def test_radius_fit_folds_by_max_amplitude():
    # +-xi fold to |xi| keeping the larger amplitude; the dict loop it
    # replaced is the reference, and the fit must not see which side held it
    n = 256
    xi = lattice(n)
    amp = np.exp(-2.0 * np.hypot(xi, 1.0) ** (1.0 / 1.5))
    amp *= np.random.default_rng(31).uniform(0.5, 1.0, n)
    folded = {}
    for i in np.argsort(np.abs(xi), kind="stable"):
        key = abs(int(xi[i]))
        folded[key] = max(folded.get(key, 0.0), float(amp[i]))
    one_sided = np.zeros(n)
    one_sided[list(folded)] = list(folded.values())  # |xi| = n/2 sits at xi = -n/2
    assert gevrey_radius_fit(amp**2, 1.5) == gevrey_radius_fit(one_sided**2, 1.5)


def test_radius_fit_requires_tail():
    # an inconclusive fit reads NaN
    st = _single_mode(64, 1, 2)
    assert np.all(np.isnan(gevrey_radius_fit(squared_moduli(st), 1.5)))


# ---------------------------------------------------------------------------
# Energy trace on a weighted run


def test_energy_monotone_wave_t2_quick():
    pre = get_preset("wave_t2")
    pr = plan(1, "lipschitz")
    params = pr.params
    g = gevrey_data(128, 2, 8.0 / 7.0, 2.2, seed=9)
    horizon = (float(params.T) - float(params.c1)) / float(params.a)
    prob = CauchyProblem(pre.coeffs, g, horizon=horizon, gevrey_s=8.0 / 7.0,
                         gevrey_c0=2.2)
    res = solve_cauchy(prob, params, h=1 / 128, stride=4)
    tr = res.trace
    assert tr.er_mode == "multiplier"
    eta = (res.dt**2 + 1e-8) * 4
    assert np.all(tr.increments[1:] <= eta)
    assert np.all(np.isfinite(tr.e_r))
    assert np.all(np.diff(tr.times) > 0)


def test_both_apriori_constants_finite_at_weaker_rho():
    # the second-form estimate admits rho = 6/7 < 7/8 for theta = 1; a run at
    # 6/7 must produce finite, stable constants for both forms
    from fractions import Fraction as F

    from hypersym.planner import rho_required
    from hypersym.solver import energy_residual

    assert rho_required(1, "lipschitz")[0] == F(6, 7) < F(7, 8)
    pre = get_preset("wave_t2")
    params = plan(1, "lipschitz").params
    g = gevrey_data(128, 2, 8.0 / 7.0, 2.2, seed=14)
    horizon = (float(params.T) - float(params.c1)) / float(params.a)
    prob = CauchyProblem(pre.coeffs, g, horizon=horizon)
    res = solve_cauchy(prob, params, h=1 / 128, stride=8, track_energy=False)
    rep = energy_residual(res.trace)
    assert np.isfinite(rep.c_first) and rep.c_first > 0
    assert np.isfinite(rep.c_second) and rep.c_second > 0


def test_scalar_transport_empirical_constant_one():
    # scalar transport: |u_hat| is conserved mode by mode, so the weighted
    # estimate is saturated at t = 0 with constant exactly 1 (theta = 0)
    from hypersym.solver import energy_residual

    cs = constant_system(np.array([[1.0]]))
    params = _quick_params()
    g = gevrey_data(64, 1, 2.0, 1.5, seed=15)
    prob = CauchyProblem(cs, g, horizon=0.5)
    res = solve_cauchy(prob, params, h=1 / 16, stride=8, track_energy=False)
    rep = energy_residual(res.trace)
    assert rep.c_first == pytest.approx(1.0, abs=1e-10)


def test_negative_eps_par_is_a_config_error():
    # an anti-dissipative regularization makes the off-band modes grow past
    # what the stability scale bounds; the solver refuses it, as the CLI does
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob = CauchyProblem(cs, gevrey_data(64, 2, 2.0, 1.5, seed=18), horizon=2.0)
    with pytest.raises(ConfigError, match="eps_par = -20.0"):
        solve_cauchy(prob, _quick_params(), h=1 / 16, eps_par=-20.0, dt=2.4 / 205.0,
                     track_energy=False)


@pytest.mark.parametrize("eps_par", [0.0, 1e-2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_off_band_data_aborts_at_first_step(eps_par, bad):
    # off-band modes never grow, so only u0 can make them non-finite: the
    # solve aborts at the first step, with t = 0 the last healthy time
    from hypersym.errors import NumericAbortError

    prob, params, h, _ = _band_case("xdep-eps")
    n_x = prob.g.shape[1]
    g = prob.g.copy()
    g[1, n_x // 2] = bad  # |xi| = n_x/2, off the band |xi| < 1/h
    prob = CauchyProblem(prob.coeffs, g, horizon=prob.horizon)
    with pytest.raises(NumericAbortError) as err:
        solve_cauchy(prob, params, h=h, eps_par=eps_par, stride=4, track_energy=False)
    dt = solve_cauchy(CauchyProblem(prob.coeffs, np.zeros_like(g), horizon=prob.horizon),
                      params, h=h, eps_par=eps_par, stride=4, track_energy=False).dt
    assert err.value.last_time == 0.0
    assert str(err.value) == f"evolution lost finiteness at t = {dt:.6g}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_band_first_between_samples():
    # anti-damping B blows up the band while the off-band modes stay put;
    # the band is checked once per interval between samples, and the abort
    # must still name the step inside the interval that lost finiteness
    from hypersym.errors import NumericAbortError

    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]), 200.0 * np.eye(2))
    prob = CauchyProblem(cs, gevrey_data(64, 2, 2.0, 1.5, seed=18), horizon=5.0)
    dt, stride = 2.4 / 232.0, 7  # lam_bound = 32 ||A|| + ||B|| = 232
    with pytest.raises(NumericAbortError) as err:
        solve_cauchy(prob, _quick_params(), h=1 / 16, dt=dt, stride=stride,
                     track_energy=False)
    n_steps = math.ceil(prob.horizon / dt)
    _, last_time = _full_lattice_loop(prob, 1 / 16, 0.0, n_steps)
    assert last_time is not None and 0.0 < last_time < prob.horizon
    assert err.value.last_time == last_time
    step = round(last_time / (prob.horizon / n_steps)) + 1
    assert step % stride != 0 and step < n_steps


def test_off_band_modes_match_step_by_step_product():
    # with eps_par > 0 each off-band mode takes the RK4 factor amp once per
    # step; the solver sets sample k to u0 amp^k with one power.  Against the
    # k rounded products, per real component and with u = 2^-53: the products
    # are off u0 amp^k by at most gamma_k = k u / (1 - k u) relative, the
    # power (within one ulp, 2u) and its product with u0 by 3u + 2u^2, and
    # each rounding below the normal range adds at most 2^-1075, never
    # amplified since amp <= 1 and |u0| <= 1.  For k u <= 1e-3 that gives
    # |product - solver| <= (k + 4) u |u0| amp^k + (k + 2) 2^-1074 in modulus.
    prob, params, h, eps_par = _band_case("xdep-eps")
    res = solve_cauchy(prob, params, h=h, eps_par=eps_par, stride=4, track_energy=False)
    n_x = prob.g.shape[1]
    off_index = np.setdiff1d(np.arange(n_x), TruncatedGenerator(prob.coeffs, n_x, h, 0.0).index)
    z = -res.dt * eps_par * lattice(n_x)[off_index] ** 2
    amp = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    off = prob.g[:, off_index]
    expect = {0: off}
    n_steps = round(prob.horizon / res.dt)
    for k in range(1, n_steps + 1):
        off = off * amp
        expect[k] = off
    u = 2.0**-53
    assert np.max(np.abs(prob.g)) <= 1.0 and n_steps * u <= 1e-3
    for t, st in zip(res.trace.times, res.states):
        k = round(t / res.dt)
        bound = (k + 4) * u * np.abs(prob.g[:, off_index]) * amp**k + (k + 2) * 2.0**-1074
        assert np.all(np.abs(st[:, off_index] - expect[k]) <= bound)
    assert n_steps % 4 != 0 and not np.array_equal(off, prob.g[:, off_index])


@pytest.mark.parametrize("preset,eps_par", [("xdep", 0.05), ("wave_t2", 0.0)])
def test_step_rk4_work_buffers_match_allocating_form(preset, eps_par):
    # the buffered step repeats the allocating step's operations in order,
    # so the two agree bit for bit, also when out is u
    coeffs = get_preset(preset).coeffs
    gen = TruncatedGenerator(coeffs, 128, 1 / 16, eps_par)
    dt = 0.01
    stages = [generator_matrix(gen, t) for t in (0.0, dt / 2.0, dt)]
    rng = np.random.default_rng(44)
    u = rng.normal(size=(coeffs.m, gen.xi.size)) + 1j * rng.normal(size=(coeffs.m, gen.xi.size))
    ref = rk4_step(allocating_rhs(gen), u, 0.0, dt)
    work = [np.empty_like(u) for _ in range(5)]
    out = np.empty_like(u)
    assert np.array_equal(step_rk4(gen.apply, u, stages, dt, out, work), ref)
    assert np.array_equal(out, ref)
    u2 = u.copy()
    step_rk4(gen.apply, u2, stages, dt, u2, work)
    assert np.array_equal(u2, ref)


# ---------------------------------------------------------------------------
# The band evolution against the full-lattice loop it replaced


def _full_lattice_loop(problem, h, eps_par, n_steps):
    """RK4 over every lattice mode in FFT order: (final coeffs, None), or
    (None, last finite time) when the state loses finiteness.

    The generator applies each term's harmonic by index maps on the whole
    lattice (``xi -> xi + k``, dropping modes that leave it) and evaluates the
    time coefficients at each call, as the solver did before it evolved the band.
    After every step the state is rescaled by a power of two, which is exact,
    so no stage overflows: the state is lost at the first step whose true
    magnitude, the largest modulus times the scale, is past the largest
    double.
    """
    coeffs, n_x = problem.coeffs, problem.g.shape[1]
    xi = lattice(n_x)
    chi = smooth_cutoff(h * xi)
    half = n_x // 2

    def rhs(t, u):
        v = u * chi[None, :]
        out = np.zeros_like(u)
        for fld, w in ((coeffs.a_field, 1j * xi[None, :] * v), (coeffs.b_field, v)):
            for term in fld.terms:
                k = term.x_freq
                src = np.flatnonzero((xi + k >= -half) & (xi + k <= half - 1))
                out[:, (xi[src].astype(int) + k) % n_x] += term.g(t) * term.matrix @ w[:, src]
        out *= chi[None, :]
        if eps_par:
            out -= eps_par * xi[None, :] ** 2 * u
        return out

    dt = problem.horizon / n_steps
    u, t, exponent = problem.g, 0.0, 0  # the true state is u 2^exponent
    for k in range(n_steps):
        u = rk4_step(rhs, u, t, dt)
        t = (k + 1) * dt
        peak = float(np.max(np.abs(u)))
        if not np.isfinite(np.ldexp(peak, exponent)):
            return None, t - dt
        shift = math.frexp(peak)[1]
        u = u * 2.0**-shift
        exponent += shift
    return u * 2.0**exponent, None


# kind: (h, eps_par).  h = 0 is chi = 1, so the band is the whole lattice.
_BAND_CASES = {"xdep-eps": (1 / 16, 1e-2), "unforced": (1 / 16, 0.0),
               "whole": (0.0, 0.0), "whole-eps": (0.0, 1e-2)}


def _band_case(kind):
    h, eps_par = _BAND_CASES[kind]
    if kind == "unforced":
        prob = CauchyProblem(constant_system(np.array([[0.0, 1.0], [1.0, 0.0]])),
                             gevrey_data(64, 2, 2.0, 1.5, seed=16), horizon=0.5)
    else:
        prob = CauchyProblem(get_preset("xdep").coeffs, gevrey_data(128, 2, 2.0, 1.5, seed=19),
                             horizon=0.5)
    return prob, _quick_params(), h, eps_par


@pytest.mark.parametrize("kind", list(_BAND_CASES))
def test_band_evolution_matches_full_lattice_loop(kind):
    prob, params, h, eps_par = _band_case(kind)
    res = solve_cauchy(prob, params, h=h, eps_par=eps_par, track_energy=False)
    ref, last_time = _full_lattice_loop(prob, h, eps_par, round(prob.horizon / res.dt))
    assert last_time is None
    assert np.max(np.abs(res.states[-1] - ref)) <= 1e-12 * np.max(np.abs(ref))
    off = np.setdiff1d(np.arange(prob.g.shape[1]),
                       TruncatedGenerator(prob.coeffs, prob.g.shape[1], h, eps_par).index)
    if h == 0:
        assert off.size == 0
    elif eps_par:
        # modes off the active band move, by the RK4 decay factor
        assert np.max(np.abs(ref[:, off] - prob.g[:, off])) > 1e-6
    else:
        # off the band the generator is zero, so those modes keep u0 exactly
        assert off.size and np.array_equal(res.states[-1][:, off], prob.g[:, off])


def test_generator_matches_quantized_symbol():
    # the term-shift application, collapsed per x-harmonic, must equal the
    # oversampled-grid Kohn-Nirenberg quantization of i A + B projected to
    # the lattice, with cutoffs applied
    from hypersym.coeffs import CoeffTerm, MatrixField, SystemCoefficients, cosine_terms
    from hypersym.weights import smooth_cutoff
    from kn_reference import generator_symbol, kn_apply
    from support import sine_terms

    a_terms = [CoeffTerm(0, "1", np.array([[0.0, 1.0], [0.25, 0.0]], dtype=complex))]
    a_terms += cosine_terms(1, np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex))
    a_terms += sine_terms(2, np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex))
    b_terms = cosine_terms(1, np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex))
    cs = SystemCoefficients(m=2, a_field=MatrixField(2, a_terms),
                            b_field=MatrixField(2, b_terms))
    # "1" and "t" terms at one harmonic, plus a B term at another
    two_t = SystemCoefficients(
        m=2,
        a_field=MatrixField(2, [
            CoeffTerm(1, "1", np.array([[0.3, 1.0], [0.0, -0.2]], dtype=complex)),
            CoeffTerm(1, "t", np.array([[0.0, 0.5], [0.7, 0.1]], dtype=complex)),
        ]),
        b_field=MatrixField(2, [
            CoeffTerm(-2, "1", np.array([[0.4, 0.0], [0.2, -0.3]], dtype=complex)),
        ]),
    )
    rng = np.random.default_rng(23)
    st = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    for coeffs, t in ((cs, 0.0), (two_t, 0.37)):
        # on the active band, and with h = 0 (chi = 1) on the whole lattice in
        # centered order, where the shifts reach the lattice edge
        for h in (1.0 / 8.0, 0.0):
            chi = smooth_cutoff(h * lattice(st.shape[1]))
            quantized = kn_apply(generator_symbol(coeffs, t), st * chi[None, :])
            expected = quantized * chi[None, :]
            gen = TruncatedGenerator(coeffs, st.shape[1], h, 0.0)
            out = allocating_rhs(gen)(t, st[:, gen.index])
            assert np.max(np.abs(out - expected[:, gen.index])) <= 1e-11 * max(
                1.0, np.max(np.abs(expected))
            )
            off = np.setdiff1d(np.arange(st.shape[1]), gen.index)
            if h:  # chi = 0 off the band, so nothing is left out there
                assert off.size and np.all(expected[:, off] == 0)
            else:
                assert off.size == 0


def test_certificate_rejects_fat_tails():
    g = gevrey_data(64, 1, 2.0, 0.5, seed=30)
    bad = CauchyProblem(constant_system(np.zeros((1, 1))), g, horizon=0.1,
                        gevrey_s=2.0, gevrey_c0=5.0)
    assert not bad.check_certificate()
    good = CauchyProblem(constant_system(np.zeros((1, 1))), g, horizon=0.1,
                         gevrey_s=2.0, gevrey_c0=0.5)
    assert good.check_certificate()


def test_solve_artifacts_deterministic(tmp_path):
    from hypersym.runner import run

    cfg = {"command": "solve", "schema_version": "1", "seed": 3,
           "preset": "wave_t2", "n_lattice": 64, "stride": 8}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(dict(cfg), out_dir=str(d1))
    run(dict(cfg), out_dir=str(d2))
    for name in ("summary.json", "energy_trace.csv", "trajectory.bin"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
