"""Evolution loop, energy traces, radius fits, studies."""

import math

import numpy as np
import pytest

from hypersym.coeffs import constant_system
from hypersym.engine import SpectralState, lattice
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
from hypersym.weights import smooth_cutoff


def _single_mode(n, m, mode, comp=0, value=1.0):
    coeffs = np.zeros((m, n), dtype=complex)
    idx = int(np.where(lattice(n).astype(int) == mode)[0][0])
    coeffs[comp, idx] = value
    return SpectralState(coeffs)


# ---------------------------------------------------------------------------
# TruncatedGenerator.apply


def test_rhs_constant_diagonal_no_cutoff():
    cs = constant_system(np.diag([1.0, -2.0]))
    st = _single_mode(32, 2, 5)
    gen = TruncatedGenerator(cs, st.n_x, 0.0, 0.0)
    gen.compile([0.0])
    out = gen.apply(0.0, st.coeffs[:, gen.index])
    # i A(xi) u_hat per mode: component 0 gets i * 1 * 5
    np.testing.assert_allclose(out[0], 5j * st.coeffs[0, gen.index], atol=1e-14)


def test_rhs_pure_heat():
    cs = constant_system(np.zeros((1, 1)))
    st = _single_mode(32, 1, 4)
    gen = TruncatedGenerator(cs, st.n_x, 0.0, 0.3)
    gen.compile([0.0])
    out = gen.apply(0.0, st.coeffs[:, gen.index])
    np.testing.assert_allclose(out, -0.3 * 16.0 * st.coeffs[:, gen.index], atol=1e-14)


def test_rhs_cutoff_annihilates_high_modes():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    st = _single_mode(64, 2, 30)
    # mode 30 is beyond the cutoff support 1/h = 8: outside the active band,
    # and annihilated by chi when the whole lattice is evolved
    assert 30 not in TruncatedGenerator(cs, st.n_x, 1.0 / 8.0, 0.0).xi
    gen = TruncatedGenerator(cs, st.n_x, 1.0 / 8.0, 0.0, whole_lattice=True)
    gen.compile([0.0])
    out = gen.apply(0.0, st.coeffs[:, gen.index])
    assert np.max(np.abs(out)) <= 1e-14


# ---------------------------------------------------------------------------
# step_rk4


def test_rk4_zero_rhs():
    st = _single_mode(16, 1, 2)
    out = step_rk4(lambda t, u: np.zeros_like(u), st.coeffs, 0.0, 0.1)
    np.testing.assert_array_equal(out, st.coeffs)


def test_rk4_scalar_amplification_polynomial():
    st = _single_mode(16, 1, 0, value=1.0)
    dt = 0.3
    out = step_rk4(lambda t, u: -u, st.coeffs, 0.0, dt)
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
        gen.compile([0.0, dt / 2.0, dt])
        out = step_rk4(gen.apply, st.coeffs[:, gen.index], 0.0, dt)
        exact = expm_batched(1j * a1 * 3.0 * dt) @ st.coeffs[:, [gen.index[idx]]]
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
    assert np.max(np.abs(res.final.coeffs - g.coeffs)) <= 1e-12


def test_skew_system_norm_conserved():
    # symmetric A1, no cutoff damping inside the band: plain norm conserved
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = gevrey_data(64, 2, 2.0, 2.0, seed=2)
    prob = CauchyProblem(cs, g, horizon=0.5)
    res = solve_cauchy(prob, _quick_params(), h=0.25, stride=4,
                       track_energy=False)
    assert res.final.norm() == pytest.approx(g.norm(), abs=1e-8 * g.norm())


def test_linearity():
    pre = get_preset("wave_t2")
    params = ParameterSet(rho=6.0 / 7.0, a=1.2, ell=4.0, tau=0.5, T=1.2,
                          c1=0.125, theta=1, a0=0.0, eps0=0.5, c_spec=0.5)
    g = gevrey_data(64, 2, 8.0 / 7.0, 1.5, seed=3)
    prob1 = CauchyProblem(pre.coeffs, g, horizon=0.4)
    prob2 = CauchyProblem(pre.coeffs, g.scaled(2.5), horizon=0.4)
    r1 = solve_cauchy(prob1, params, h=0.25, stride=8, track_energy=False)
    r2 = solve_cauchy(prob2, params, h=0.25, stride=8, track_energy=False)
    assert np.max(np.abs(r2.final.coeffs - 2.5 * r1.final.coeffs)) <= 1e-12 * max(
        1.0, np.max(np.abs(r2.final.coeffs))
    )


def test_reality_preserved():
    pre = get_preset("xdep")
    g = gevrey_data(64, 2, 2.0, 1.5, seed=4)
    assert g.is_conjugate_symmetric()
    prob = CauchyProblem(pre.coeffs, g, horizon=0.5)
    res = solve_cauchy(prob, _quick_params(), h=0.25, stride=8,
                       track_energy=False)
    assert res.final.is_conjugate_symmetric(tol=1e-12)


def test_truncation_consistency():
    # halving h changes the solution by at most the data tail beyond the
    # coarser plateau
    pre = get_preset("xdep")
    g = gevrey_data(128, 2, 2.0, 2.5, seed=5)
    prob = CauchyProblem(pre.coeffs, g, horizon=0.4)
    params = _quick_params()
    r1 = solve_cauchy(prob, params, h=1 / 16, stride=16, track_energy=False)
    r2 = solve_cauchy(prob, params, h=1 / 32, stride=16, track_energy=False)
    xi = g.xi
    tail_mask = np.abs(xi) >= 8.0  # coarser plateau edge 1/(2h) = 8
    tail_mass = float(np.sqrt(np.sum(np.abs(g.coeffs[:, tail_mask]) ** 2)))
    diff = (r1.final - r2.final).norm()
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
    st = SpectralState(coeffs)
    c_fit, resid = gevrey_radius_fit(st.coeffs, s)
    assert c_fit == pytest.approx(2.0, abs=0.05)
    assert resid <= 1e-6


def test_radius_fit_gaussian():
    n = 256
    x = 2 * np.pi * np.arange(n) / n
    sigma = 0.25
    u = np.exp(-((x - np.pi) ** 2) / (2 * sigma**2))
    st = SpectralState.from_physical(u[None, :])
    c_fit, _ = gevrey_radius_fit(st.coeffs, 2.0)
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
    assert gevrey_radius_fit(amp[None, :], 1.5) == gevrey_radius_fit(one_sided[None, :], 1.5)


def test_radius_fit_requires_tail():
    # an inconclusive fit reads NaN
    st = _single_mode(64, 1, 2)
    assert np.all(np.isnan(gevrey_radius_fit(st.coeffs, 1.5)))


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
    rep = energy_residual(res)
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
    rep = energy_residual(res)
    assert rep.c_first == pytest.approx(1.0, abs=1e-10)


def test_forced_run_duhamel_denominator():
    from hypersym.solver import energy_residual

    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    params = _quick_params()
    g = gevrey_data(64, 2, 2.0, 1.5, seed=16)
    f0 = gevrey_data(64, 2, 2.0, 2.0, seed=17)

    def forcing(t):
        return f0.scaled(math.cos(t))

    prob = CauchyProblem(cs, g, horizon=0.5, forcing=forcing)
    res = solve_cauchy(prob, params, h=1 / 16, stride=8, track_energy=False)
    rep = energy_residual(res)
    assert np.isfinite(rep.c_first) and rep.c_first > 0
    # zero data, forced: constant still finite thanks to the Duhamel term
    prob0 = CauchyProblem(cs, SpectralState(np.zeros((2, 64), dtype=complex)),
                          horizon=0.5, forcing=forcing)
    res0 = solve_cauchy(prob0, params, h=1 / 16, stride=8, track_energy=False)
    rep0 = energy_residual(res0)
    assert np.isfinite(rep0.c_first)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_carries_last_time():
    from hypersym.errors import NumericAbortError

    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    params = _quick_params()
    g = gevrey_data(64, 2, 2.0, 1.5, seed=18)
    prob = CauchyProblem(cs, g, horizon=2.0)
    # anti-dissipative regularization blows up fast, off the band first
    dt = 2.4 / 205.0
    with pytest.raises(NumericAbortError) as err:
        solve_cauchy(prob, params, h=1 / 16, eps_par=-20.0, dt=dt,
                     track_energy=False)
    n_steps = math.ceil(prob.horizon / dt)
    _, last_time = _full_lattice_loop(prob, 1 / 16, -20.0, n_steps)
    assert last_time is not None and 0.0 < last_time < prob.horizon
    assert err.value.last_time == last_time


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
    # with eps_par > 0 each off-band mode takes the RK4 factor once per
    # step; the solver multiplies an interval's steps after its band steps
    prob, params, h, eps_par = _band_case("xdep-eps")
    res = solve_cauchy(prob, params, h=h, eps_par=eps_par, stride=4, track_energy=False)
    n_x = prob.g.n_x
    off_index = np.setdiff1d(np.arange(n_x), TruncatedGenerator(prob.coeffs, n_x, h, 0.0).index)
    z = -res.dt * eps_par * lattice(n_x)[off_index] ** 2
    amp = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    off = prob.g.coeffs[:, off_index]
    expect = {0: off}
    n_steps = round(prob.horizon / res.dt)
    for k in range(1, n_steps + 1):
        off = off * amp
        expect[k] = off
    for t, st in zip(res.times, res.states):
        assert np.array_equal(st.coeffs[:, off_index], expect[round(t / res.dt)])
    assert np.array_equal(res.final.coeffs[:, off_index], off)
    assert n_steps % 4 != 0 and not np.array_equal(off, prob.g.coeffs[:, off_index])


@pytest.mark.parametrize("preset,eps_par", [("xdep", 0.05), ("wave_t2", 0.0)])
def test_step_rk4_work_buffers_match_allocating_form(preset, eps_par):
    # the buffered step repeats the allocating step's operations in order,
    # so the two agree bit for bit, also when out is u
    coeffs = get_preset(preset).coeffs
    gen = TruncatedGenerator(coeffs, 128, 1 / 16, eps_par)
    dt = 0.01
    gen.compile([0.0, dt / 2.0, dt])
    rng = np.random.default_rng(44)
    u = rng.normal(size=(coeffs.m, gen.xi.size)) + 1j * rng.normal(size=(coeffs.m, gen.xi.size))
    ref = step_rk4(lambda t, v: gen.apply(t, v), u, 0.0, dt)
    work = [np.empty_like(u) for _ in range(5)]
    out = np.empty_like(u)
    assert np.array_equal(step_rk4(gen.apply, u, 0.0, dt, out, work), ref)
    assert np.array_equal(out, ref)
    u2 = u.copy()
    step_rk4(gen.apply, u2, 0.0, dt, u2, work)
    assert np.array_equal(u2, ref)
    assert np.array_equal(gen.apply(dt, u, out), gen.apply(dt, u))


# ---------------------------------------------------------------------------
# The band evolution against the full-lattice loop it replaced


def _full_lattice_loop(problem, h, eps_par, n_steps):
    """RK4 over every lattice mode in FFT order: (final coeffs, None), or
    (None, last finite time) when the state loses finiteness.

    The generator applies each harmonic by index maps on the whole lattice
    (``xi -> xi + k``, dropping modes that leave it) and evaluates the time
    coefficients at each call, as the solver did before it evolved the band.
    """
    coeffs, n_x = problem.coeffs, problem.g.n_x
    xi = lattice(n_x)
    chi = smooth_cutoff(h * xi)
    half = n_x // 2

    def rhs(t, u):
        v = u * chi[None, :]
        out = np.zeros_like(u)
        for fld, w in ((coeffs.a_field, 1j * xi[None, :] * v), (coeffs.b_field, v)):
            for k, mat in fld.harmonic_matrices(t).items():
                src = np.flatnonzero((xi + k >= -half) & (xi + k <= half - 1))
                out[:, (xi[src].astype(int) + k) % n_x] += mat[0] @ w[:, src]
        out *= chi[None, :]
        if eps_par:
            out -= eps_par * xi[None, :] ** 2 * u
        if problem.forcing is not None:
            out = out + problem.forcing(t).coeffs
        return out

    dt = problem.horizon / n_steps
    u, t = problem.g.coeffs, 0.0
    for k in range(n_steps):
        u = step_rk4(rhs, u, t, dt)
        t = (k + 1) * dt
        if not np.isfinite(float(np.max(np.abs(u)))):
            return None, t - dt
    return u, None


def _band_case(kind):
    params = _quick_params()
    if kind == "xdep-eps":  # off-band modes decay by the RK4 factor
        prob = CauchyProblem(get_preset("xdep").coeffs, gevrey_data(128, 2, 2.0, 1.5, seed=19),
                             horizon=0.5)
        return prob, params, 1 / 16, 1e-2
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    f0 = gevrey_data(64, 2, 2.0, 2.0, seed=17)
    prob = CauchyProblem(cs, gevrey_data(64, 2, 2.0, 1.5, seed=16), horizon=0.5,
                         forcing=lambda t: f0.scaled(math.cos(t)))
    return prob, params, 1 / 16, 0.0


@pytest.mark.parametrize("kind", ["xdep-eps", "forced"])
def test_band_evolution_matches_full_lattice_loop(kind):
    prob, params, h, eps_par = _band_case(kind)
    res = solve_cauchy(prob, params, h=h, eps_par=eps_par, track_energy=False)
    ref, last_time = _full_lattice_loop(prob, h, eps_par, round(prob.horizon / res.dt))
    assert last_time is None
    assert np.max(np.abs(res.final.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))
    # modes off the active band move, by the RK4 decay factor or the forcing
    off = np.setdiff1d(np.arange(prob.g.n_x),
                       TruncatedGenerator(prob.coeffs, prob.g.n_x, h, eps_par).index)
    assert np.max(np.abs(ref[:, off] - prob.g.coeffs[:, off])) > 1e-6


def test_generator_matches_quantized_symbol():
    # the term-shift application, collapsed per x-harmonic, must equal the
    # oversampled-grid Kohn-Nirenberg quantization of i A + B projected to
    # the lattice, with cutoffs applied
    from hypersym.coeffs import CoeffTerm, MatrixField, SystemCoefficients, \
        cosine_terms, sine_terms
    from hypersym.weights import smooth_cutoff
    from kn_reference import generator_symbol, kn_apply

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
    st = SpectralState(rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64)))
    h = 1.0 / 8.0
    chi = smooth_cutoff(h * st.xi)
    for coeffs, t in ((cs, 0.0), (two_t, 0.37)):
        quantized = kn_apply(generator_symbol(coeffs, t), st.coeffs * chi[None, :])
        expected = quantized * chi[None, :]
        # on the active band, and on the whole lattice in centered order
        for whole in (False, True):
            gen = TruncatedGenerator(coeffs, st.n_x, h, 0.0, whole_lattice=whole)
            gen.compile([t])
            out = gen.apply(t, st.coeffs[:, gen.index])
            assert np.max(np.abs(out - expected[:, gen.index])) <= 1e-11 * max(
                1.0, np.max(np.abs(expected))
            )
            if not whole:  # chi = 0 off the band, so nothing is left out there
                off = np.setdiff1d(np.arange(st.n_x), gen.index)
                assert off.size and np.all(expected[:, off] == 0)


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
