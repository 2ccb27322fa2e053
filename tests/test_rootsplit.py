"""Root splitter, separation constants, characteristic polynomials."""

import math

import numpy as np
import pytest

from hypersym.coeffs import CoeffTerm, MatrixField, SystemCoefficients, cosine_terms
from hypersym.errors import NotRealRootedError
from hypersym.rootsplit import (
    expand_roots,
    nuij_constant,
    nuij_split,
    random_real_rooted,
)
from support import char_poly, constant_system, q_lower_bound_probe, spectrum


def test_split_linear():
    res = nuij_split([0.0, 1.0], 0.4)
    np.testing.assert_allclose(res.roots, [-0.4], atol=1e-12)


def test_split_double_root_at_zero():
    # zeta^2 -> zeta^2 + 4 zeta + 2 at s = 1; roots -2 +- sqrt(2)
    res = nuij_split([0.0, 0.0, 1.0], 1.0)
    np.testing.assert_allclose(res.coeffs, [2.0, 4.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(res.roots, [-2 - math.sqrt(2), -2 + math.sqrt(2)],
                               atol=1e-10)
    assert res.min_gap == pytest.approx(2 * math.sqrt(2), rel=1e-10)


@pytest.mark.parametrize("s", [0.1, 0.5, 2.0])
def test_split_symmetric_pair(s):
    # zeta^2 - 1 -> zeta^2 + 4 s zeta + 2 s^2 - 1
    res = nuij_split([-1.0, 0.0, 1.0], s)
    np.testing.assert_allclose(res.coeffs, [2 * s**2 - 1, 4 * s, 1.0], atol=1e-12)
    assert res.min_gap == pytest.approx(2 * math.sqrt(2 * s**2 + 1), rel=1e-10)


def test_split_rejects_complex_roots():
    with pytest.raises(NotRealRootedError):
        nuij_split([1.0, 0.0, 1.0], 1e-4)  # zeta^2 + 1, not real-rooted
    with pytest.raises(NotRealRootedError):  # one bad row of a stack, either sign of s
        nuij_split([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]], [[1e-4], [-1e-4]])


def test_nuij_constants():
    assert nuij_constant(1) == pytest.approx(1.0)
    assert nuij_constant(2) == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-12)
    # one recursion step by hand: c3 = min over k in {2, 3} of the formula
    c3 = nuij_constant(2)
    by_hand = min(
        (k + c3 - math.sqrt((k + c3) ** 2 - 4 * c3)) / 2.0 for k in (2, 3)
    )
    assert nuij_constant(3) == pytest.approx(by_hand, rel=1e-12)
    # frozen from a 30-digit evaluation of the recursion (min is at k = 3)
    assert nuij_constant(3) == pytest.approx(0.116988877915984, rel=1e-12)
    values = [nuij_constant(m) for m in range(1, 9)]
    assert all(v > 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_nuij_constants_match_mpmath():
    # the recursion in its difference form at 60 digits, where nothing cancels
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        c = mp.mpf(1)
        for m in range(1, 25):
            if m > 1:
                c = min((k + c - mp.sqrt((k + c) ** 2 - 4 * c)) / 2 for k in range(2, m + 1))
            assert abs(nuij_constant(m) - c) <= 1e-13 * c


def test_separation_property_sweep():
    # smaller version of the acceptance sweep: gap >= c(m) |s| with zero slack
    s_values = np.geomspace(1e-3, 1.0, 5)
    for m in range(2, 7):
        rows = expand_roots(random_real_rooted(m, 3.0, 9000 + 97 * m + np.arange(40)))
        res = nuij_split(rows[:, None, :], s_values)
        assert np.all(res.min_gap >= nuij_constant(m) * s_values - 1e-9)


def test_interlacing_single_application():
    rng_seeds = range(20)
    for seed in rng_seeds:
        old = random_real_rooted(5, 2.0, [seed])[0]
        new = nuij_split(expand_roots(old), 0.3, iterations=1).roots
        # daughters weakly interlace mothers: new_k <= old_k <= new_{k+1}
        for k in range(len(old)):
            assert new[k] <= old[k] + 1e-9
            if k + 1 < len(new):
                assert old[k] <= new[k + 1] + 1e-9


def test_mirror_symmetry_even_polynomial():
    for coeffs in ([-1.0, 0.0, 1.0], [4.0, 0.0, -5.0, 0.0, 1.0]):
        plus = nuij_split(coeffs, 0.7)
        minus = nuij_split(coeffs, -0.7)
        np.testing.assert_allclose(np.sort(-minus.roots), plus.roots, atol=1e-9)


def test_char_poly_examples():
    np.testing.assert_allclose(
        char_poly(np.diag([1.0, 2.0])).real, [2.0, -3.0, 1.0], atol=1e-14
    )
    s = 0.3
    np.testing.assert_allclose(
        char_poly(np.array([[0, 1], [-(s**2), 0]])).real, [s**2, 0.0, 1.0],
        atol=1e-14,
    )
    np.testing.assert_allclose(char_poly(np.zeros((3, 3))).real, [0, 0, 0, 1],
                               atol=1e-15)


def test_q_probe_scalar_zero():
    cs = constant_system(np.array([[0.0]]))
    fit = q_lower_bound_probe(cs, 0.0, 0.0, 0.0, 1, 1.0,
                              np.geomspace(1e-3, 1e-1, 7))
    assert fit.r_hat == pytest.approx(1.0, abs=1e-8)
    assert fit.c_hat == pytest.approx(1.0, rel=1e-10)
    assert fit.passed


def test_q_probe_degenerate_double_root():
    # x^2-type entry: the unscaled probe degenerates (Q vanishes on the
    # diagonal), so the scaled probe point is used; expected slope <= 2.
    terms = [CoeffTerm(0, "1", np.array([[0, 1], [2, 0]], dtype=complex))]
    terms += cosine_terms(1, np.array([[0, 0], [-2, 0]], dtype=complex))
    cs = SystemCoefficients(m=2, a_field=MatrixField(2, terms),
                            b_field=MatrixField(2, []))
    fit = q_lower_bound_probe(cs, 0.0, 0.0, 0.0, 2, 1.0,
                              np.geomspace(1e-3, 1e-1, 9), m_scale=4.0)
    assert fit.passed
    assert fit.r_hat <= 2.2
    # oracle closed form: |Q(iMs)| = (M^2 - 1) s^2 exactly
    np.testing.assert_allclose(fit.q_values, 15.0 * fit.s_values**2, rtol=1e-8)


def test_q_probe_simple_root_slope_one():
    cs = constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
    fit = q_lower_bound_probe(cs, 0.0, 0.0, 1.0, 1, 1.0,
                              np.geomspace(1e-3, 1e-1, 9), m_scale=1.0)
    assert fit.passed
    assert fit.r_hat == pytest.approx(1.0, abs=0.2)


def test_random_real_rooted_deterministic():
    r1 = random_real_rooted(3, 2.0, [11])
    r2 = random_real_rooted(3, 2.0, [11])
    np.testing.assert_array_equal(r1, r2)
    assert np.all(np.abs(r1) <= 2.0)


def test_stacked_draw_and_expansion_match_one_polynomial_at_a_time():
    for m in range(1, 7):
        seeds = 300 + 1000 * m + np.arange(9)
        rows = expand_roots(random_real_rooted(m, 2.5, seeds))
        assert rows.shape == (9, m + 1)
        for row, seed in zip(rows, seeds):
            roots = np.sort(np.random.default_rng(int(seed)).uniform(-2.5, 2.5, size=m))
            one = np.array([1.0])
            for r in roots:
                one = np.concatenate(([0.0], one)) - r * np.concatenate((one, [0.0]))
            np.testing.assert_array_equal(row, one)


def test_expand_roots_examples():
    np.testing.assert_allclose(expand_roots([1.0, 1.0, 1.0]), [-1, 3, -3, 1],
                               atol=1e-12)
    np.testing.assert_allclose(expand_roots([0.0, 0.0]), [0, 0, 1], atol=1e-15)


def test_interlacing_every_application():
    # daughters weakly interlace mothers at every one of the m applications
    for seed in range(8):
        prev = random_real_rooted(5, 2.0, [500 + seed])[0]
        row = expand_roots(prev)
        for level in range(1, 6):
            cur = nuij_split(row, 0.25, iterations=level).roots
            for k in range(len(prev)):
                assert cur[k] <= prev[k] + 1e-9
                if k + 1 < len(cur):
                    assert prev[k] <= cur[k + 1] + 1e-9
            prev = cur


def test_q_probe_on_strictly_hyperbolic_preset():
    from hypersym.presets import get_preset
    from hypersym.matkernel import taylor_symbol

    pre = get_preset("xdep")
    lam = float(np.max(spectrum(taylor_symbol(pre.coeffs, 0.0, 0.0, 1.0, 0.0, order=0)).real))
    for y in (0.3, 1.0):
        fit = q_lower_bound_probe(pre.coeffs, 0.0, 0.0, lam, 1, y,
                                  np.geomspace(1e-3, 1e-2, 7))
        assert fit.passed
        assert fit.r_hat == pytest.approx(1.0, abs=0.2)


def test_nuij_split_stack_matches_per_row_calls():
    s_values = np.array([-1.0, -0.05, 1e-3, 0.2, 1.0])
    for m in range(1, 7):
        rows = expand_roots(random_real_rooted(m, 3.0, 700 + 13 * m + np.arange(6)))
        res = nuij_split(rows[:, None, :], s_values)
        assert res.roots.shape == (6, 5, m) and res.min_gap.shape == (6, 5)
        for i, row in enumerate(rows):
            for j, s in enumerate(s_values):
                one = nuij_split(row, float(s))
                np.testing.assert_array_equal(res.coeffs[i, j], one.coeffs)
                np.testing.assert_array_equal(res.roots[i, j], one.roots)
                assert res.min_gap[i, j] == one.min_gap
