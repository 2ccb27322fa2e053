"""Matrix kernel: symbols, Taylor polynomials, exponentials, certificates."""

import numpy as np
import pytest

from hypersym import matkernel
from hypersym.coeffs import CoeffTerm, MatrixField, SystemCoefficients, cosine_terms
from hypersym.errors import HypersymError
from hypersym.matkernel import (
    _blocks,
    _exp_norms,
    _growth_curves,
    _max_imag,
    _split_2x2,
    block_eigvals,
    certify_real_spectrum,
    estimate_theta,
    expm_batched,
    spectral_bound_certify,
    taylor_symbol,
)
from hypersym.presets import get_preset, preset_names
from support import char_poly, constant_system, field_dx, spectrum


def _x2_like_system() -> SystemCoefficients:
    # lower-left entry 2 - 2 cos x: agrees with x^2 to third order at x = 0
    terms = [CoeffTerm(0, "1", np.array([[0, 1], [2, 0]], dtype=complex))]
    terms += cosine_terms(1, np.array([[0, 0], [-2, 0]], dtype=complex))
    return SystemCoefficients(m=2, a_field=MatrixField(2, terms),
                              b_field=MatrixField(2, []))


def _t2_system() -> SystemCoefficients:
    terms = [CoeffTerm(0, "t^2", np.array([[0, 1], [0, 0]], dtype=complex)),
             CoeffTerm(0, "1", np.array([[0, 0], [1, 0]], dtype=complex))]
    return SystemCoefficients(m=2, a_field=MatrixField(2, terms),
                              b_field=MatrixField(2, []))


# ---------------------------------------------------------------------------
# Symbol A(t, x) xi: the Taylor symbol at z = 0, order 0


def _symbol(cs, t, x, xi):
    return taylor_symbol(cs, t, x, xi, 0.0, order=0)


def test_eval_symbol_linear_in_xi():
    cs = constant_system(np.array([[0, 1], [1, 0]]))
    np.testing.assert_allclose(_symbol(cs, 0, 0, 2.0), [[0, 2], [2, 0]])


def test_eval_symbol_t_dependence():
    cs = _t2_system()
    np.testing.assert_allclose(_symbol(cs, 0.0, 0.0, 3.0), [[0, 0], [3, 0]])


def test_eval_symbol_x_dependence():
    terms = [CoeffTerm(0, "1", np.array([[0, 1], [0.5, 0]], dtype=complex))]
    terms += cosine_terms(1, np.array([[0, 0], [-0.5, 0]], dtype=complex))
    cs = SystemCoefficients(m=2, a_field=MatrixField(2, terms),
                            b_field=MatrixField(2, []))
    a = _symbol(cs, 0.0, np.pi / 2, 1.0)
    assert a[1, 0].real == pytest.approx(0.5)
    assert a[0, 1].real == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Taylor symbols


def test_taylor_spatial_constant_coeffs():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    s, y = 0.3j, 0.7
    h = taylor_symbol(cs, 0.0, 0.0, 2.0, 1j * s * y, order=2)
    np.testing.assert_allclose(h, _symbol(cs, 0, 0, 2.0), atol=1e-15)


def test_taylor_spatial_hand_expansion():
    # x^2-type entry at x=0, y=1, s = i s0, order 2: entry -> -s0^2
    cs = _x2_like_system()
    s0 = 0.37
    h = taylor_symbol(cs, 0.0, 0.0, 1.0, 1j * (1j * s0) * 1.0, order=2)
    np.testing.assert_allclose(h, [[0, 1], [-(s0**2), 0]], atol=1e-14)


def test_taylor_spatial_zeroth_term():
    cs = _x2_like_system()
    h = taylor_symbol(cs, 0.0, 0.4, 1.3, 0.0, order=2)
    np.testing.assert_allclose(h, _symbol(cs, 0.0, 0.4, 1.3), atol=1e-15)


def test_taylor_frequency_eps_zero_bitlevel():
    cs = _x2_like_system()
    h = taylor_symbol(cs, 0.0, 0.8, 1.7, 0.0 * 1.7, order=4)
    assert np.array_equal(h, field_dx(cs.a_field, 0.0, 0.8) * 1.7)


def test_taylor_frequency_hand_expansion():
    # D_x^2 (x^2-like) = -2 at x=0: term eps^2/2 * (-2) = -eps^2
    cs = _x2_like_system()
    eps = 0.21
    h = taylor_symbol(cs, 0.0, 0.0, 1.0, eps * 1.0, order=2)
    np.testing.assert_allclose(h, [[0, 1], [-(eps**2), 0]], atol=1e-14)


def test_taylor_frequency_constant_coeffs():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    h = taylor_symbol(cs, 0.0, 0.0, 2.0, 0.5 * 2.0, order=3)
    np.testing.assert_allclose(h, _symbol(cs, 0, 0, 2.0), atol=1e-15)


def _taylor_reference(coeffs, t, x, term, order):
    """Per-node Taylor sum ``sum_j term(j, D_x^j A(t, x)) / j!``."""
    out = np.zeros((coeffs.m, coeffs.m), dtype=complex)
    fac = 1.0
    for j in range(order + 1):
        if j > 0:
            fac *= j
        out += term(j, field_dx(coeffs.a_field, t, x, j)) / fac
    return out


@pytest.mark.parametrize("name", preset_names())
def test_taylor_symbol_matches_pointwise_loop(name):
    cs = get_preset(name).coeffs
    t, x = 0.3, 1.1
    xis = np.array([1.0, -2.5, 16.0])
    eps = np.array([1e-3, 0.05, 0.4])
    s, ys, xi_s = 0.07j, np.array([1.0, -0.5]), 1.5
    for order in range(cs.m + 3):
        # frequency form eps^j D_x^j A xi^(j+1), as z = eps xi over (eps, xi)
        freq = taylor_symbol(cs, t, x, xis, eps[:, None] * xis, order)
        for i, e in enumerate(eps):
            for k, xi in enumerate(xis):
                ref = _taylor_reference(cs, t, x, lambda j, d: e**j * d * xi ** (j + 1), order)
                assert np.linalg.norm(freq[i, k] - ref) <= 1e-14 * np.linalg.norm(ref)
        # spatial form s^j y^j d_x^j A xi with d_x = i D_x, as z = i s y over y
        spat = taylor_symbol(cs, t, x, xi_s, 1j * s * ys, order)
        for k, y in enumerate(ys):
            ref = _taylor_reference(cs, t, x, lambda j, d: s**j * y**j * 1j**j * d * xi_s, order)
            assert np.linalg.norm(spat[k] - ref) <= 1e-14 * np.linalg.norm(ref)
        at_zero = taylor_symbol(cs, t, x, xis, np.zeros(len(xis)), order)
        for k, xi in enumerate(xis):
            assert np.array_equal(at_zero[k], field_dx(cs.a_field, t, x) * xi)
        # a (t, x) grid broadcast against (eps, xi): one call, bit for bit the
        # per-node scalar calls
        ts, xs = np.array([0.0, 0.3, 0.9]), np.array([-0.4, 1.1])
        grid = taylor_symbol(cs, ts[:, None, None, None], xs[:, None, None], xis,
                             eps[:, None] * xis, order)
        assert grid.shape == (len(ts), len(xs), len(eps), len(xis), cs.m, cs.m)
        for it, tt in enumerate(ts):
            for ix, xx in enumerate(xs):
                node = taylor_symbol(cs, float(tt), float(xx), xis, eps[:, None] * xis, order)
                assert np.array_equal(grid[it, ix], node)


# ---------------------------------------------------------------------------
# Matrix exponential


def test_matrix_exp_zero():
    np.testing.assert_allclose(expm_batched(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_matrix_exp_nilpotent():
    np.testing.assert_allclose(
        expm_batched(np.array([[0.0, 1.0], [0.0, 0.0]])), [[1, 1], [0, 1]], atol=1e-15
    )


def test_matrix_exp_diagonal():
    got = expm_batched(np.diag([-1.0, -2.0]))
    np.testing.assert_allclose(np.diag(got), np.exp([-1.0, -2.0]), rtol=1e-14)


def test_matrix_exp_contract_large_norm():
    # relative error in spectral norm <= 1e-12 for ||M|| <= 1e3 at m <= 6
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    m = q @ np.diag([-1000.0, -1.0, -10.0, 3.0, 0.5, -700.0]) @ q.T
    expected = q @ np.diag(np.exp([-1000.0, -1.0, -10.0, 3.0, 0.5, -700.0])) @ q.T
    got = expm_batched(m)
    rel = np.linalg.norm(got - expected, 2) / np.linalg.norm(expected, 2)
    assert rel <= 1e-12


def test_matrix_exp_inverse_property():
    # The attainable accuracy of exp(M) exp(-M) = I in double precision is
    # eps * ||e^M|| ||e^-M||; 1e-10 holds whenever that conditioning allows.
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m *= 10.0 / max(np.linalg.norm(m, 2), 1e-9)
        e_plus = expm_batched(m)
        e_minus = expm_batched(-m)
        cond = np.linalg.norm(e_plus, 2) * np.linalg.norm(e_minus, 2)
        err = np.linalg.norm(e_plus @ e_minus - np.eye(3), 2)
        assert err <= max(1e-10, 20 * np.finfo(float).eps * cond)
        if cond <= 1e5:
            assert err <= 1e-10


def test_matrix_exp_spectral_mapping():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 5.0 / max(np.linalg.norm(m, 2), 1e-9)
        lam = np.linalg.eigvals(m)
        got = np.sort_complex(np.linalg.eigvals(expm_batched(m)))
        want = np.sort_complex(np.exp(lam))
        assert np.max(np.abs(got - want)) <= 1e-8


def test_expm_batched_mixed_norms():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    stack[0] *= 50.0
    got = expm_batched(stack)
    for i in range(6):
        single = expm_batched(stack[i])
        assert np.linalg.norm(got[i] - single, 2) <= 1e-10 * np.linalg.norm(single, 2)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_diagonal():
    np.testing.assert_allclose(
        spectrum(np.diag([3.0, 1.0, 2.0])).real, [1, 2, 3], atol=1e-10
    )


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_spectrum_real_pair(eps):
    vals = spectrum(np.array([[0, 1], [eps**2, 0]]))
    np.testing.assert_allclose(sorted(vals.real), [-eps, eps], atol=1e-12)
    assert np.max(np.abs(vals.imag)) < 1e-12


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_spectrum_imaginary_pair(eps):
    vals = spectrum(np.array([[0, 1], [-(eps**2), 0]]))
    np.testing.assert_allclose(sorted(vals.imag), [-eps, eps], atol=1e-12)


def test_spectrum_char_poly_residual():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        coeffs = char_poly(m)
        scale = max(1.0, np.max(np.abs(coeffs)))
        for z in spectrum(m):
            val = sum(coeffs[j] * z**j for j in range(len(coeffs)))
            assert abs(val) <= 1e-8 * scale


def _spectrum_one(a: np.ndarray) -> np.ndarray:
    """Per-matrix reference: Faddeev-LeVerrier, np.roots, guarded Newton, sort."""
    n = a.shape[0]
    if n > 4:
        vals = np.linalg.eigvals(a)
        return vals[np.lexsort((vals.imag, vals.real))]
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        am = a @ mk
        c[n - k] = -np.trace(am) / k
        mk = am + c[n - k] * np.eye(n)
    raw = np.roots(c[::-1])
    p = np.polyval(c[::-1], raw)
    dp = np.polyval((c[1:] * np.arange(1, n + 1))[::-1], raw)
    step = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0.0)
    safe = (dp != 0) & (np.abs(step) <= 0.1 * (1.0 + np.abs(raw)))
    vals = np.where(safe, raw - step, raw)
    return vals[np.lexsort((vals.imag, vals.real))]


@pytest.mark.parametrize("name", preset_names())
def test_batched_spectrum_matches_per_node_roots(name):
    # the certify command's two grids: A(t, x) xi and H(t, x, y, is)
    cs = get_preset(name).coeffs
    ts = np.linspace(0.0, 1.0, 4)
    xs = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    ss = np.geomspace(1e-4, 1e-1, 7)
    ys = np.array([1.0, 0.5, -1.0])
    stacks = [
        np.array([[[_symbol(cs, t, x, xi) for xi in (1.0, -1.0, 2.0)] for x in xs]
                  for t in ts]),
        np.array([[taylor_symbol(cs, t, x, 1.0, -ss[:, None] * ys, cs.m) for x in xs]
                  for t in ts]),
    ]
    for stack in stacks:
        im = _max_imag(stack)
        re = np.max(block_eigvals(stack).real, axis=-1)
        assert im.shape == re.shape == stack.shape[:-2]
        for idx in np.ndindex(stack.shape[:-2]):
            ref = _spectrum_one(stack[idx])
            for got, want in ((im[idx], np.max(np.abs(ref.imag))), (re[idx], np.max(ref.real))):
                assert abs(got - want) <= 1e-14 * (1.0 + abs(want))


def test_overflowing_discriminant_raises():
    # bc = 1e320 overflows to +inf, whose square root is real: the eigenvalues'
    # imaginary parts alone would read 0 and pass a certificate
    stack = np.array([[[0.0, 1e160], [1e160, 0.0]], [[1.0, 0.0], [0.0, 2.0]]])
    with np.errstate(over="ignore"):
        _, sd = _split_2x2(stack.astype(complex))
        assert sd[0] == np.inf and sd.imag[0] == 0.0
        for probe in (block_eigvals, _max_imag):
            with pytest.raises(HypersymError, match="not finite"):
                probe(stack)


# ---------------------------------------------------------------------------
# Certification


def test_certify_symmetric_passes():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = certify_real_spectrum(cs, [0.0], [0.0], [1.0, -3.0])
    assert rep.passed and rep.max_imag <= 1e-12


def test_certify_t2_passes():
    rep = certify_real_spectrum(_t2_system(), np.linspace(0, 2, 5), [0.0], [1.0, 2.0])
    assert rep.passed


def test_certify_rotation_fails():
    cs = constant_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    rep = certify_real_spectrum(cs, [0.0], [0.0], [1.0])
    assert not rep.passed
    assert rep.max_imag == pytest.approx(1.0, rel=1e-6)


def test_spectral_bound_constant_symmetric():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = spectral_bound_certify(cs, [0.0], [0.0], [1.0], np.geomspace(1e-3, 1e-1, 5))
    assert rep.passed and rep.max_ratio <= 1e-9


def test_spectral_bound_x2_ratio_one():
    rep = spectral_bound_certify(
        _x2_like_system(), [0.0], [0.0], [1.0], np.geomspace(1e-4, 1e-1, 7)
    )
    for s, im in rep.table:
        assert im / s == pytest.approx(1.0, abs=1e-8)
    assert rep.passed


def test_spectral_bound_strictly_hyperbolic_stable():
    terms = [CoeffTerm(0, "1", np.array([[0, 1], [0.25, 0]], dtype=complex))]
    terms += cosine_terms(1, np.array([[0.5, 0], [0, -0.5]], dtype=complex))
    cs = SystemCoefficients(m=2, a_field=MatrixField(2, terms),
                            b_field=MatrixField(2, []))
    rep = spectral_bound_certify(
        cs, [0.0], np.linspace(0, 2 * np.pi, 5, endpoint=False), [1.0, -0.5],
        np.geomspace(1e-4, 1e-1, 7),
    )
    assert rep.passed
    ratios = [im / s for s, im in rep.table]
    assert max(ratios) <= 2.0 * max(min(ratios), 1e-12) + 1e-9


# ---------------------------------------------------------------------------
# Theta estimation


def test_theta_symmetric_zero():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    te = estimate_theta(cs, np.geomspace(1e-3, 1e-1, 7))
    assert te.theta_hat == 0
    assert te.residual <= 0.25


def test_theta_x2_one():
    te = estimate_theta(_x2_like_system(), np.geomspace(1e-3, 1e-1, 7))
    assert te.theta_hat == 1
    assert te.residual <= 0.25
    assert not te.warning


def test_theta_at_most_m_minus_one():
    for build in (_x2_like_system, _t2_system):
        te = estimate_theta(build(), np.geomspace(1e-3, 1e-1, 5))
        assert 0 <= te.theta_hat <= build().m - 1


def test_theta_unitary_invariance():
    cs = _x2_like_system()
    phi = 0.7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    rotated_terms = [
        CoeffTerm(t.x_freq, t.t_term, u @ t.matrix @ u.conj().T)
        for t in cs.a_field.terms
    ]
    cs_rot = SystemCoefficients(m=2, a_field=MatrixField(2, rotated_terms),
                                b_field=MatrixField(2, []))
    te1 = estimate_theta(cs, np.geomspace(1e-3, 1e-1, 7))
    te2 = estimate_theta(cs_rot, np.geomspace(1e-3, 1e-1, 7))
    assert te1.theta_hat == te2.theta_hat


def test_theta_requires_two_decades():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        estimate_theta(cs, np.geomspace(1e-2, 1e-1, 5))


# ---------------------------------------------------------------------------
# ||e^{isH}|| in closed form (the theta growth curves)


def _pade_growth_curves(coeffs, n_taylor, eps_values, t_values, x_values, xi_values, c_hat):
    """The growth curves by one Pade exponential (scipy's, independent of the
    closed 2x2 form that expm_batched shares) and one SVD per (eps, s, node)."""
    expm = pytest.importorskip("scipy.linalg").expm
    hs_all = taylor_symbol(coeffs, t_values[:, None, None], x_values[:, None], xi_values,
                           eps_values[:, None, None, None] * xi_values, n_taylor
                           ).reshape(len(eps_values), -1, coeffs.m, coeffs.m)
    g, low = np.empty(len(eps_values)), np.empty(len(eps_values))
    for i, eps in enumerate(eps_values):
        s_values = np.concatenate(([0.0], np.geomspace(1e-2, 30.0, 36) / eps))
        exps = expm(1j * s_values[:, None, None, None] * hs_all[i][None])
        norms = np.linalg.svd(exps, compute_uv=False)[..., 0]
        damp = np.exp(-c_hat * s_values * eps)[:, None]
        g[i], low[i] = np.max(damp * norms), np.min(norms / damp)
    return g, low


_TS = np.linspace(0.0, 1.0, 4)
_XS = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
_XIS = np.array([1.0, -1.0])


def _norms(h, s):
    h = np.asarray(h, dtype=complex)
    return _exp_norms(h[None], np.asarray(s), _blocks(h))[:, 0]


def test_exp_norm_nilpotent_exact():
    s = np.concatenate(([0.0], np.geomspace(1e-3, 3e4, 200)))
    np.testing.assert_allclose(_norms([[0, 0], [1, 0]], s), (s + np.sqrt(s**2 + 4)) / 2,
                               rtol=1e-14, atol=0)


def test_exp_norm_hermitian_and_scalar_blocks():
    s = np.geomspace(1e-2, 1e4, 50)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = a + a.conj().T
    np.testing.assert_allclose(_norms(h.real, s), 1.0, rtol=1e-14)
    # complex h12 h21 rounds to Im d ~ u |d|, which e^{s Im d} turns into s ||H|| u
    bound = 1e-14 + s * np.linalg.norm(h, 2) * np.finfo(float).eps
    assert np.all(np.abs(_norms(h, s) - 1.0) <= bound)
    h = np.diag([0.3 + 2e-3j, -1.0 + 1e-3j])  # two 1x1 blocks
    assert len(_blocks(h)) == 2
    np.testing.assert_allclose(_norms(h, s), np.exp(-s * 1e-3), rtol=1e-14)
    np.testing.assert_allclose(_norms([[0.5 - 1e-3j]], s), np.exp(s * 1e-3), rtol=1e-14)


def test_blocks_couple_both_directions():
    # 0 -> 1 <- 2: no index reaches the others along rows alone
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[2, 1] = 1.0
    assert [list(b) for b in _blocks(h)] == [[0, 1, 2]]
    s = np.array([0.5, 2.0, 40.0])
    ref = np.linalg.svd(expm_batched(1j * s[:, None, None] * h), compute_uv=False)[:, 0]
    np.testing.assert_allclose(_norms(h, s), ref, rtol=1e-12)


@pytest.mark.parametrize("name", preset_names())
def test_growth_curves_match_pade(name):
    coeffs = get_preset(name).coeffs
    eps = np.geomspace(1e-3, 1e-1, 7)
    for n_taylor in (coeffs.m, 2 * coeffs.m):
        args = (coeffs, n_taylor, eps, _TS, _XS, _XIS, 1.0)
        g, low = _growth_curves(*args)
        g_ref, low_ref = _pade_growth_curves(*args)
        np.testing.assert_allclose(g, g_ref, rtol=1e-9)
        np.testing.assert_allclose(low, low_ref, rtol=1e-9)


@pytest.mark.parametrize("name", preset_names())
def test_growth_curves_one_partition_matches_per_eps(name, monkeypatch):
    # one _blocks partition of the whole (eps, node) stack, against each eps's own
    coeffs = get_preset(name).coeffs
    eps = np.geomspace(1e-3, 1e-1, 9)  # the theta command's default grid
    for n_taylor in (coeffs.m, 2 * coeffs.m):
        args = (coeffs, n_taylor, eps, _TS, _XS, _XIS, 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(matkernel, "_exp_norms",
                          lambda hs, s, blocks: _exp_norms(hs, s, _blocks(hs)))
            g_ref, low_ref = _growth_curves(*args)
        g, low = _growth_curves(*args)
        assert np.array_equal(g, g_ref) and np.array_equal(low, low_ref)


def test_mixed_block_direct_sum_takes_pade_path():
    cs = get_preset("block_direct_sum").coeffs
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    mixed = SystemCoefficients(
        m=4, a_field=MatrixField(4, [CoeffTerm(t.x_freq, t.t_term, u @ t.matrix @ u.conj().T)
                                     for t in cs.a_field.terms]),
        b_field=MatrixField(4, []))
    assert [len(b) for b in _blocks(taylor_symbol(cs, _TS[:, None], 0.0, 1.0, 0.1, 4))] == [2, 2]
    assert [len(b) for b in _blocks(taylor_symbol(mixed, _TS[:, None], 0.0, 1.0, 0.1, 4))] == [4]
    eps = np.geomspace(1e-3, 1e-1, 7)
    te = estimate_theta(cs, eps, t_values=_TS, x_values=_XS)
    te_mixed = estimate_theta(mixed, eps, t_values=_TS, x_values=_XS)
    assert te_mixed.theta_hat == te.theta_hat
    np.testing.assert_allclose(te_mixed.g_values, te.g_values, rtol=1e-9)


def test_smooth_cutoff_plateau():
    from hypersym.weights import smooth_cutoff

    assert smooth_cutoff(0.0) == 1.0
    assert smooth_cutoff(0.49) == 1.0
    assert smooth_cutoff(1.0) == 0.0
    assert smooth_cutoff(-1.2) == 0.0
    mid = smooth_cutoff(0.75)
    assert 0.0 < mid < 1.0
    np.testing.assert_allclose(smooth_cutoff([-0.3, 0.3]), [1.0, 1.0])


def test_poly_bump_unit_mass():
    from hypersym.weights import poly_bump

    u = np.linspace(-1.0, 1.0, 200001)
    mass = np.trapezoid(poly_bump(u), u)
    assert mass == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(poly_bump(u), poly_bump(-u), atol=1e-15)


def test_spectrum_larger_sizes_and_budget():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(6, 6))
    vals = list(spectrum(m))
    # multiset match: conjugate-pair ordering is bit-sensitive across solvers
    for ref in np.linalg.eigvals(m):
        best = min(range(len(vals)), key=lambda i: abs(vals[i] - ref))
        assert abs(vals[best] - ref) <= 1e-10
        vals.pop(best)
    assert not vals
    with pytest.raises(ValueError):
        spectrum(np.eye(9))

