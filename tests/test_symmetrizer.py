"""Symmetrizer construction, oracles, and estimate probes."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hypersym.errors import StabilityMarginError
from hypersym.matkernel import expm_batched, taylor_order, taylor_symbol
from hypersym import symmetrizer
from hypersym.presets import get_preset, preset_names
from hypersym.planner import ParameterSet, plan
from hypersym.runner import calibrate, run_params
from hypersym.symmetrizer import (
    _PROBE_T0,
    _ROWS,
    _fit_window,
    _lyap_solve_batch,
    _stencil_derivatives,
    build_field,
    damped_generator,
    lower_bound_check,
    mollify_path,
    quadrature_R,
    hn_over_lattice,
    symbol_estimate_probe,
)
from hypersym.weights import bracket, poly_bump
from support import (constant_system, field_dx, holder_difference_probe,
                     per_row_stencil_derivatives, stack_blocks)


def _solve_one(m_mat, s):
    """R of one node by the batched Lyapunov kernel, on the node's own partition."""
    m_mat = np.asarray(m_mat)
    return _lyap_solve_batch(m_mat[None], [s], stack_blocks(m_mat))[0]


def _quad(m_mat, rhs, tol=1e-8):
    """The quadrature oracle on the stack's own partition."""
    m_mat = np.asarray(m_mat)
    return quadrature_R(m_mat, rhs, stack_blocks(m_mat), tol=tol)


def _params(theta=0, rho=0.5, a=2.0, ell=4.0, tau=0.5, big_t=2.0):
    return ParameterSet(rho=rho, a=a, ell=ell, tau=tau, T=big_t, c1=0.1,
                        theta=theta, a0=0.5, eps0=0.5, c_spec=0.5)


# ---------------------------------------------------------------------------
# M assembly


def test_build_m_scalar():
    cs = constant_system(np.array([[0.0]]))
    p = _params()
    xi = 3.0
    m, rhs = damped_generator(cs, p, 0.0, 0.0, xi)
    mu = bracket(xi, 4.0) ** 0.5
    np.testing.assert_allclose(m, [[-2.0 * mu]], atol=1e-14)
    assert rhs == 2.0 * mu


def test_build_m_jordan_assembly():
    cs = constant_system(np.array([[0.0, 1.0], [0.0, 0.0]]))
    p = _params()
    xi = 2.0
    m, _ = damped_generator(cs, p, 0.0, 0.0, xi)
    mu = bracket(xi, 4.0) ** 0.5
    np.testing.assert_allclose(m, [[-2 * mu, 2j], [0, -2 * mu]], atol=1e-13)


def test_build_m_constant_in_x_equals_symbol():
    cs = constant_system(np.array([[0.1, 1.0], [1.0, -0.1]]))
    p = _params()
    m, _ = damped_generator(cs, p, 0.0, 0.0, 5.0)
    mu = bracket(5.0, 4.0) ** 0.5
    expected = 1j * taylor_symbol(cs, 0, 0, 5.0, 0.0, order=0) - 2.0 * mu * np.eye(2)
    np.testing.assert_allclose(m, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# Lyapunov solve vs quadrature


def test_scalar_closed_form_exact():
    a, mu = 2.0, 7.0
    r = _solve_one(np.array([[-a * mu]]), a * mu)
    assert abs(r[0, 0] - 0.5) <= 1e-12


def test_jordan_closed_form():
    a, mu, lam = 2.0, 5.0, 3.0
    m = np.array([[-a * mu, 1j * lam], [0.0, -a * mu]])
    closed = np.array(
        [[0.5, 1j * lam / (4 * a * mu)],
         [-1j * lam / (4 * a * mu), 0.5 + lam**2 / (4 * a**2 * mu**2)]]
    )
    r = _solve_one(m, a * mu)
    assert np.linalg.norm(r - closed, 2) <= 1e-10
    rq = _quad(m, a * mu, tol=1e-9)
    assert np.linalg.norm(rq - closed, 2) <= 1e-7


def test_methods_agree_on_random_stable():
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = x - (np.max(np.abs(np.linalg.eigvals(x).real)) + 1.0) * np.eye(3)
        r1 = _solve_one(m, 1.0)
        r2 = _quad(m, 1.0, tol=1e-8)
        rel = np.linalg.norm(r1 - r2, 2) / np.linalg.norm(r1, 2)
        assert rel <= 1e-6


def test_solve_refuses_marginal_matrix():
    with pytest.raises(StabilityMarginError):
        _quad(np.array([[0.0]]), 1.0)


def _jordan(k):
    # M = [[-1, i k], [0, -1]]: unit margin, phase rate ~ k, transient ~ k
    m = np.array([[-1.0, 1j * k], [0.0, -1.0]])
    closed = np.array([[0.5, 1j * k / 4], [-1j * k / 4, 0.5 + k**2 / 4]])
    return m, closed


def test_quadrature_expm_count_independent_of_panels(monkeypatch):
    import hypersym.symmetrizer as sym

    sizes = []

    def counting(a, blocks):
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return expm_batched(a, blocks)

    monkeypatch.setattr(sym, "expm_batched", counting)
    tol = 1e-8
    r_max = max(6.0, 0.85 * np.log(1.0 / tol))
    panels = []
    for k in (10.0, 200.0):
        sizes.clear()
        m, _ = _jordan(k)
        _quad(m, 1.0, tol=tol)
        panels.append(2 ** math.ceil(math.log2(r_max * np.linalg.norm(m))))  # unit margin
        # one exponential over the first panel's 8 Gauss nodes, one for the panel step
        assert sizes == [8, 1]
    assert panels[1] >= 16 * panels[0]
    # a stack of mixed phase rates shares one panel grid, set by the fastest
    stack = np.array([_jordan(k)[0] for k in (1.0, 10.0, 200.0, 1000.0)])
    sizes.clear()
    _quad(stack, 1.0, tol=tol)
    assert sizes == [8 * len(stack), len(stack)]


def _plain_rule(m_mat, rhs, tol=1e-8):
    """The oracle's rule without its doublings: every Gauss node of all 2^k
    panels exponentiated on its own and summed directly."""
    margins = -np.max(np.linalg.eigvals(m_mat).real, axis=-1)
    scaled = m_mat / margins[:, None, None]
    r_max = max(6.0, 0.85 * math.log(1.0 / tol))
    omega = np.max(np.linalg.norm(m_mat, axis=(1, 2)) / margins)
    n = 2 ** math.ceil(math.log2(r_max * max(omega, 1.0)))
    w = r_max / n
    x, wts = np.polynomial.legendre.leggauss(8)
    nodes = w * (np.arange(n)[:, None] + (1.0 + x) / 2.0)
    e = expm_batched(nodes.reshape(-1, 1, 1, 1) * scaled[None], stack_blocks(m_mat))
    total = np.einsum("j,jnik->nik", np.tile(w / 2.0 * wts, n), e.conj().swapaxes(-1, -2) @ e)
    return total * (rhs / margins)[:, None, None]


def test_quadrature_doubling_matches_plain_sum():
    # random Hurwitz stacks of each size, and a non-normal Jordan block whose
    # exponential grows ~37x before it decays
    rng = np.random.default_rng(11)
    stacks = []
    for m in range(1, 5):
        x = rng.normal(size=(6, m, m)) + 1j * rng.normal(size=(6, m, m))
        margin = np.max(np.linalg.eigvals(x).real, axis=-1) + rng.uniform(0.2, 2.0, 6)
        stacks.append(x - margin[:, None, None] * np.eye(m))
    stacks.append(_jordan(100.0)[0][None])
    for stack in stacks:
        rhs = rng.uniform(0.5, 2.0, len(stack))
        ref = _plain_rule(stack, rhs)
        err = np.linalg.norm(_quad(stack, rhs) - ref, axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=(-2, -1))), stack.shape


def test_quadrature_nonnormal_jordan_closed_form():
    # lam / (a mu) = 1e2, 1e3 and 1e4: transient growth of e^{sM} by ~k
    for k, tol in ((1e2, 1e-9), (1e3, 1e-9), (1e4, 1e-12)):
        m, closed = _jordan(k)
        a_mu = 3.0
        r = _quad(a_mu * m, a_mu, tol=tol)
        assert np.linalg.norm(r - closed, 2) <= tol * np.linalg.norm(closed, 2), k


def test_quadrature_stack_spanning_phase_rates():
    # phase rates ~k / margin for k = 1, 10, 100, 1000 on one panel grid, set
    # by the fastest: the slow nodes take panels far finer than they need
    rng = np.random.default_rng(3)
    stack, rhs = [], []
    for k in (1.0, 10.0, 100.0, 1000.0):
        for _ in range(3):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            margin = rng.uniform(0.5, 4.0)
            m = np.triu(x, 1) + np.diag(1j * k * rng.uniform(1.0, 2.0, 3) - margin)
            stack.append(m)
            rhs.append(rng.uniform(0.5, 2.0))
    stack = np.array(stack).reshape(4, 3, 3, 3)
    rhs = np.array(rhs).reshape(4, 3)
    quad = _quad(stack, rhs)
    assert quad.shape == stack.shape
    for idx in np.ndindex(4, 3):
        ref = _solve_one(stack[idx], rhs[idx])
        rel = np.linalg.norm(quad[idx] - ref, 2) / np.linalg.norm(ref, 2)
        assert rel <= 1e-6


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("mu", [-0.5, -3.0, -1.0 + 40.0j])
def test_quadrature_truncation_error_is_its_tail(mu, tol):
    # M = mu, rhs = -2 Re mu: R = -2 Re mu int_0^inf e^{2 s Re mu} ds = 1, and
    # the integral cut at r_max (unit decay rate) misses exactly e^{-2 r_max};
    # a cut one panel earlier misses e^{2 w} times more
    r_max = max(6.0, 0.85 * math.log(1.0 / tol))
    tail = math.exp(-2.0 * r_max)
    err = 1.0 - _quad(np.array([[mu]]), -2.0 * mu.real, tol=tol)[0, 0].real
    assert 0.5 * tail <= err <= 2.0 * tail, err / tail


def test_monotone_damping_closed_forms():
    # scalar and Jordan: stability margin grows and ||R|| does not grow in a
    mu, lam = 4.0, 2.0
    prev_norm = None
    prev_margin = None
    for a in (2.0, 4.0, 8.0):
        m = np.array([[-a * mu, 1j * lam], [0.0, -a * mu]])
        margin = -np.max(np.linalg.eigvals(m).real)
        r = _solve_one(m, a * mu)
        if prev_norm is not None:
            assert margin >= prev_margin - 1e-12
            assert np.linalg.norm(r, 2) <= prev_norm + 1e-12
        prev_norm = np.linalg.norm(r, 2)
        prev_margin = margin


def test_scaled_identity_reproduction():
    # H_N == 0 gives R = I/2 exactly at every frequency
    cs = constant_system(np.zeros((3, 3)))
    p = _params()
    field = build_field(cs, p, [0.0], [0.0], [1.0, 4.0, 64.0])
    np.testing.assert_allclose(
        field.R, np.broadcast_to(np.eye(3) / 2, field.R.shape), atol=1e-12
    )


# ---------------------------------------------------------------------------
# Field invariants


def test_field_invariants_on_presets():
    xis = np.geomspace(4.0, 1024.0, 6)
    for name in ("diag_sym", "wave_t2", "jordan_lower"):
        pre = get_preset(name)
        pr = plan(pre.theta, "lipschitz")
        field = build_field(pre.coeffs, pr.params, [0.0, 0.5], [0.0, 1.0], xis)
        inv = field.check_invariants()
        assert inv["max_hermitian_defect"] <= 1e-12
        assert inv["min_eigenvalue"] > 0.0
        assert inv["max_lyapunov_residual_rel"] <= 1e-8


@pytest.mark.parametrize("name", preset_names())
def test_field_is_exactly_hermitian(name):
    # the invariants and the lower bound share eigvalsh(R), which reads one
    # triangle of R: the solve must return R hermitian bit for bit
    pre = get_preset(name)
    params = run_params(calibrate(pre.coeffs, pre.theta))
    field = build_field(pre.coeffs, params, np.linspace(0.0, 1.0, 4),
                        np.linspace(0.0, 2 * math.pi, 5, endpoint=False),
                        np.geomspace(16.0, 2.0**12, 9))
    assert np.array_equal(field.R, field.R.conj().swapaxes(-1, -2))
    assert field.check_invariants()["max_hermitian_defect"] == 0.0


@pytest.mark.parametrize("name", ["xdep", "holder_k", "block_direct_sum"])
def test_build_field_matches_per_node_loop(name):
    # the (t, x) grid in one damped_generator call against one call per node
    pre = get_preset(name)
    p = _params(theta=pre.theta)
    ts, xs, xis = [0.0, 0.35, 0.9], [0.0, 1.3], np.geomspace(4.0, 512.0, 4)
    field = build_field(pre.coeffs, p, ts, xs, xis)
    for it, t in enumerate(ts):
        for ix, x in enumerate(xs):
            m_stack, rhs = damped_generator(pre.coeffs, p, t, x, xis)
            assert np.array_equal(field.M[it, ix], m_stack)
            assert np.array_equal(field.R[it, ix],
                                  _lyap_solve_batch(m_stack, rhs, pre.coeffs.blocks))


def test_damped_generator_array_tau_matches_per_time_calls():
    # tau = T - a t along a path, as the mollified solve passes it: one call
    # with (n, 1) arrays equals one replace(params, tau=...) call per time
    from fractions import Fraction

    pre = get_preset("holder_k")
    params = plan(0, "holder", Fraction(1, 2)).params
    big_t, a = float(params.T), float(params.a)
    ts = np.array([-0.3, 0.0, 0.0625, 0.71])
    xis = np.array([-5.0, 1.0, 16.0, 200.0])
    chi2 = np.array([1.0, 0.5, 0.25, 0.0])
    m_all, rhs_all = damped_generator(pre.coeffs, replace(params, tau=big_t - a * ts[:, None]),
                                      ts[:, None], 0.0, xis, chi2)
    assert m_all.shape == (len(ts), len(xis), pre.coeffs.m, pre.coeffs.m)
    for i, t in enumerate(ts):
        m_one, rhs_one = damped_generator(pre.coeffs, replace(params, tau=big_t - a * float(t)),
                                          float(t), 0.0, xis, chi2)
        assert np.array_equal(m_all[i], m_one)
        assert np.array_equal(rhs_all, rhs_one)


def test_quadrature_field_matches_lyapunov_field():
    pre = get_preset("xdep")
    pr = plan(0, "lipschitz")
    xis = np.geomspace(4.0, 256.0, 4)
    f1 = build_field(pre.coeffs, pr.params, [0.2], [0.0, 2.0], xis)
    quad = quadrature_R(f1.M, np.broadcast_to(f1.rhs, f1.M.shape[:-2]), pre.coeffs.blocks,
                        tol=1e-8)
    rel = np.max(
        np.linalg.norm(f1.R - quad, axis=(-2, -1))
        / np.linalg.norm(f1.R, axis=(-2, -1))
    )
    assert rel <= 1e-6


def test_lower_bound_scalar():
    cs = constant_system(np.array([[0.0]]))
    p = _params()
    field = build_field(cs, p, [0.0], [0.0], np.geomspace(4, 4096, 7))
    rep = lower_bound_check(field)
    assert rep.passed
    assert rep.exponent == pytest.approx(0.0, abs=1e-8)
    assert rep.c_prime == pytest.approx(0.5, rel=1e-10)


def test_lower_bound_below_the_fit_window_fits_no_slope():
    # below xi = ell the fit window falls back to every node; one frequency,
    # or brackets within 0.1% of each other, leave no slope to fit
    cs = constant_system(np.array([[0.0]]))
    p = _params()  # ell = 4
    assert _fit_window(np.array([1.0, 8.0]), 4.0).all()
    for xis in ([2.0], [0.0, 0.01]):
        rep = lower_bound_check(build_field(cs, p, [0.0], [0.0], np.array(xis)))
        assert rep.exponent == 0.0 and rep.passed
        assert rep.c_prime == pytest.approx(0.5, rel=1e-10)


def test_lower_bound_jordan_theta_one():
    pre = get_preset("jordan_lower")
    pr = plan(1, "lipschitz")
    field = build_field(pre.coeffs, pr.params, [0.0], [0.0],
                        np.geomspace(16, 4096, 9))
    rep = lower_bound_check(field)
    assert rep.passed
    nu = pr.params.nu
    assert -2 * nu - 0.1 <= rep.exponent <= 0.05


# ---------------------------------------------------------------------------
# Symbol estimates


def test_symbol_probe_scalar_trivial():
    cs = constant_system(np.array([[0.0]]))
    p = _params()
    rep = symbol_estimate_probe(cs, p, np.geomspace(16, 1024, 5))
    # every xi and x order up to two, then the time derivative
    assert [(row.alpha, row.beta, row.dt) for row in rep.rows] == [
        (0, 0, False), (0, 1, False), (0, 2, False), (1, 0, False), (1, 1, False),
        (2, 0, False), (0, 0, True)]
    for row in rep.rows:
        assert row.passed


def test_symbol_probe_presets_quick():
    xis = np.geomspace(2.0**4, 2.0**10, 6)
    for name, theta in (("diag_sym", 0), ("wave_x2", 1)):
        pre = get_preset(name)
        pr = plan(theta, "lipschitz")
        rep = symbol_estimate_probe(pre.coeffs, pr.params, xis)
        assert rep.passed
        for row in rep.rows:
            assert row.inconclusive or row.fitted is None or \
                row.fitted <= row.target + 0.15


def test_symbol_probe_one_frequency_is_inconclusive():
    # a single distinct abscissa gives no slope: rows with a signal are
    # inconclusive and unfitted, rows at the noise floor pass as before.
    # geomspace(64, 64, 9), the symmetrize grid at xi_lo = xi_hi, differs
    # from 64 by an ulp at some points, which the log takes back to one value
    pre = get_preset("diag_sym")
    pr = plan(0, "lipschitz")
    for xis in (np.full(3, 64.0), np.geomspace(64.0, 64.0, 9)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = symbol_estimate_probe(pre.coeffs, pr.params, xis)
        assert all(row.fitted is None for row in rep.rows)
        assert any(row.inconclusive for row in rep.rows)
        assert all(row.inconclusive != row.passed for row in rep.rows)
        assert rep.passed


@pytest.mark.parametrize("name", preset_names())
def test_probe_batch_matches_per_row_stencils(name, monkeypatch):
    # the probe's one batch over every row reads the same node values, bit
    # for bit, as one generator call and solve per row
    pre = get_preset(name)
    params = run_params(calibrate(pre.coeffs, pre.theta))
    seen = []

    def spy(coeffs, params, x_values, xi_values):
        derivs = _stencil_derivatives(coeffs, params, x_values, xi_values)
        seen.append((params, x_values, xi_values, derivs))
        return derivs

    monkeypatch.setattr(symmetrizer, "_stencil_derivatives", spy)
    symbol_estimate_probe(pre.coeffs, params, np.geomspace(16.0, 2.0**12, 9))
    (p, x_values, xi_values, derivs), = seen
    for row, batch in zip(_ROWS, derivs, strict=True):
        ref = per_row_stencil_derivatives(pre.coeffs, p, x_values, xi_values, _PROBE_T0, *row)
        assert np.array_equal(batch, ref)


# ---------------------------------------------------------------------------
# Mollified symmetrizer


def _rows(path):
    """``mollify_path``'s view of a whole path: R at ``ts[lo:hi]``."""
    return lambda lo, hi: path[lo:hi]


def test_mollify_constant_path_identity():
    ts = np.linspace(-1.0, 2.0, 1600)
    r0 = np.array([[1.0, 0.2j], [-0.2j, 2.0]])
    path = np.broadcast_to(r0, (len(ts), 3, 2, 2)).copy()
    br = np.array([4.0, 16.0, 64.0])
    mol = mollify_path(ts, _rows(path), br, 1.0, np.array([0.0, 0.5, 1.0]), 100)
    for i in range(3):
        assert np.max(np.abs(mol[i] - r0[None])) <= 1e-8


def test_mollify_matches_full_kernel_sum():
    # only the path times within the widest width of an eval time are
    # summed; the sum over every path time is the reference
    ts = np.linspace(-1.0, 2.0, 1600)
    rng = np.random.default_rng(4)
    path = (np.cos(np.outer(ts, rng.uniform(1.0, 9.0, 3)))[:, :, None, None]
            * rng.normal(size=(3, 2, 2)))
    br = np.array([4.0, 16.0, 64.0])
    widths = br ** -1.0
    eval_ts = [0.0, 0.37, 1.0]
    mol = mollify_path(ts, _rows(path), br, 1.0, np.array(eval_ts), 100)
    for i, t in enumerate(eval_ts):
        w = poly_bump((t - ts)[:, None] / widths[None, :])
        expected = np.einsum("tn,tnij->nij", w / w.sum(axis=0), path)
        assert np.max(np.abs(mol[i] - expected)) <= 1e-14


# ---------------------------------------------------------------------------
# Hoelder differences


def test_holder_probe_constant_coeffs_zero():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    p = _params()
    fit = holder_difference_probe(cs, p, [(0.1, 0.2), (0.1, 0.4)],
                                  np.geomspace(8, 512, 5))
    assert fit.passed
    assert fit.max_ratio <= 1e-12


def test_holder_probe_lacunary_bounded():
    pre = get_preset("holder_k")
    from fractions import Fraction

    pr = plan(0, "holder", Fraction(1, 2))
    pairs = [(0.1, 0.1 + 4.0**-k) for k in range(1, 6)]
    fit = holder_difference_probe(pre.coeffs, pr.params, pairs,
                                  np.geomspace(16, 4096, 7))
    assert fit.passed
    assert np.isfinite(fit.max_ratio)
    assert fit.exponent <= fit.target + 0.15


def test_holder_probe_linear_path():
    # A(t) = t * A1 with kappa = 1: finite ratio, exponent within target
    from hypersym.coeffs import CoeffTerm, SystemCoefficients

    terms = [CoeffTerm(0, "t", np.array([[0.0, 1.2], [0.8, 0.0]], dtype=complex)),
             CoeffTerm(0, "1", np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex))]
    cs = SystemCoefficients(m=2, a_terms=terms)
    p = ParameterSet(rho=0.5, a=2.0, ell=4.0, tau=0.5, T=2.0, c1=0.1,
                     theta=0, kappa=1.0, a0=0.5, eps0=0.5, c_spec=0.5)
    fit = holder_difference_probe(cs, p, [(0.2, 0.3), (0.2, 0.25)],
                                  np.geomspace(16, 2048, 6))
    assert fit.passed and np.isfinite(fit.max_ratio)


def _r_multiplier(coeffs, params, t, xis, tau):
    # R(t, xi) of x-independent coefficients with the window tau in H_N
    m_stack, rhs = damped_generator(coeffs, replace(params, tau=tau), t, 0.0, xis)
    return _lyap_solve_batch(m_stack, rhs, coeffs.blocks)


def test_mollified_dt_exponent_within_target():
    # d_t of the mollified symmetrizer gains at most delta - kappa*delta
    from fractions import Fraction

    pre = get_preset("holder_k")
    pr = plan(0, "holder", Fraction(1, 2))
    params = pr.params
    nu, rho = params.nu, float(params.rho)
    delta, kappa = 1.0, 0.5
    xis = np.geomspace(16.0, 1024.0, 5)
    br = bracket(xis, float(params.ell))
    widths = br**-delta
    dt_path = float(np.min(widths)) / 5.0
    margin = float(np.max(widths)) * 1.1
    ts = np.arange(-margin, 0.3 + margin + dt_path, dt_path)
    path = np.stack([_r_multiplier(pre.coeffs, params, float(t), xis, float(params.tau))
                     for t in ts])
    h = 5e-4
    mol = mollify_path(ts, _rows(path), br, delta, np.array([0.15 - h, 0.15 + h]), len(ts))
    dt_r = (mol[1] - mol[0]) / (2 * h)
    vals = np.linalg.norm(dt_r, axis=(-2, -1))
    target = 3 * nu + 1 - rho + delta - kappa * delta
    good = vals > 1e-12
    assert np.count_nonzero(good) >= 3
    slope = float(np.polyfit(np.log(br[good]), np.log(vals[good]), 1)[0])
    assert slope <= target + 0.15


def test_mollified_minus_plain_lipschitz_scaling():
    # kappa = 1 path: || R~ - R || decays at least like the class target
    from hypersym.coeffs import CoeffTerm, SystemCoefficients

    terms = [CoeffTerm(0, "t", np.array([[0.0, 1.2], [0.8, 0.0]], dtype=complex)),
             CoeffTerm(0, "1", np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex))]
    cs = SystemCoefficients(m=2, a_terms=terms)
    params = ParameterSet(rho=0.5, a=2.0, ell=4.0, tau=0.5, T=2.0, c1=0.1,
                          theta=0, kappa=1.0, delta=1.0, a0=0.5, eps0=0.5,
                          c_spec=0.5)
    nu, rho, delta, kappa = 0.0, 0.5, 1.0, 1.0
    xis = np.geomspace(8.0, 512.0, 5)
    br = bracket(xis, 4.0)
    widths = br**-delta
    dt_path = float(np.min(widths)) / 5.0
    margin = float(np.max(widths)) * 1.1
    ts = np.arange(-margin, 0.4 + margin + dt_path, dt_path)
    path = np.stack([_r_multiplier(cs, params, float(t), xis, 0.5) for t in ts])
    mol = mollify_path(ts, _rows(path), br, delta, np.array([0.2]), len(ts))
    plain = _r_multiplier(cs, params, 0.2, xis, 0.5)
    vals = np.linalg.norm(mol[0] - plain, axis=(-2, -1))
    target = 3 * nu + 1 - rho - kappa * delta
    good = vals > 1e-13
    if np.count_nonzero(good) >= 3:
        slope = float(np.polyfit(np.log(br[good]), np.log(vals[good]), 1)[0])
        assert slope <= target + 0.15


def test_lattice_generator_matches_pointwise():
    pre = get_preset("xdep")
    p = _params()
    xis = np.array([2.0, 16.0, 128.0])
    stack = hn_over_lattice(pre.coeffs, p, 0.3, 1.1, xis)
    n = taylor_order(p.theta, pre.coeffs.m)
    for i, xi in enumerate(xis):
        # per-node sum (eps^j / j!) D_x^j A xi^(j+1), eps = tau rho <xi>^(rho-2)
        eps = 0.5 * 0.5 * bracket(xi, 4.0) ** (0.5 - 2.0)
        single = sum(eps**j / math.factorial(j)
                     * field_dx(pre.coeffs.a_terms, pre.coeffs.m, 0.3, 1.1, j)
                     * xi ** (j + 1) for j in range(n + 1))
        np.testing.assert_allclose(stack[i], single, atol=1e-13)


def _fd_reference(coeffs, params, t0, x, xi, alpha, beta, dt_flag):
    """Nested central differences with one single-node solve per stencil point."""
    hxi = 1e-3 * bracket(xi, float(params.ell))
    hx = 2.0 * math.pi / (8.0 * max(coeffs.x_band, 1) * max(beta, 1) + 64.0)
    ht = 1e-3

    def r_at(i, j, k):
        m, rhs = damped_generator(coeffs, params, t0 + k * ht, x + j * hx, xi + i * hxi)
        return _lyap_solve_batch(m[None], np.array([rhs]), coeffs.blocks)[0]

    def diff(f, order, h):
        if order == 0:
            return f(0)
        if order == 1:
            return (f(1) - f(-1)) / (2 * h)
        return (f(1) - 2 * f(0) + f(-1)) / h**2

    return diff(lambda k: diff(lambda j: diff(lambda i: r_at(i, j, k), alpha, hxi),
                               beta, hx), int(dt_flag), ht)


@pytest.mark.parametrize("name", ["xdep", "holder_k"])
def test_batched_probes_match_pointwise_solves(name):
    from fractions import Fraction

    pre = get_preset(name)
    pr = plan(0, "holder", Fraction(1, 2)) if name == "holder_k" else plan(0, "lipschitz")
    xis = np.geomspace(16.0, 1024.0, 4)
    x_probes = np.array([0.0, 0.9, 2.1])
    derivs = _stencil_derivatives(pre.coeffs, pr.params, x_probes, xis)
    for (alpha, beta, dt_flag), d in zip(_ROWS, derivs, strict=True):
        for i, xp in enumerate(x_probes):
            for k, xi in enumerate(xis):
                ref = _fd_reference(pre.coeffs, pr.params, _PROBE_T0, xp, xi, alpha, beta,
                                    dt_flag)
                assert np.linalg.norm(d[i, k] - ref) <= 1e-12 * np.linalg.norm(ref) + 1e-300
    pairs = [(0.1, 0.1 + 4.0**-k) for k in range(1, 4)]
    kappa = 0.5 if name == "holder_k" else 1.0
    fit = holder_difference_probe(pre.coeffs, pr.params, pairs, xis)
    for k, xi in enumerate(xis):
        ref = max(np.linalg.norm(_fd_reference(pre.coeffs, pr.params, t1, 0.0, xi, 0, 0, False)
                                 - _fd_reference(pre.coeffs, pr.params, t2, 0.0, xi, 0, 0, False),
                                 2) / abs(t1 - t2) ** kappa
                  for t1, t2 in pairs)
        assert abs(fit.ratios[k] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("preset", ["wave_t2", "block_direct_sum"])
def test_one_lyapunov_chunk_peaks_near_the_byte_budget(preset):
    # one full chunk of damped generators and their solve, as the solver's
    # diagnostics form them, holds at most 10% over _BLOCK_BYTES
    import tracemalloc

    from support import capped_params

    coeffs = get_preset(preset).coeffs
    params = capped_params(preset, 64.0)
    nodes = symmetrizer._BLOCK_BYTES // symmetrizer._lyap_node_bytes(coeffs.blocks)
    t = np.linspace(0.0, 0.5, nodes)[:, None]
    window = replace(params, tau=float(params.T) - float(params.a) * t)
    tracemalloc.start()
    try:
        _lyap_solve_batch(*damped_generator(coeffs, window, t, 0.0, np.array([16.0])),
                          coeffs.blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * symmetrizer._BLOCK_BYTES
