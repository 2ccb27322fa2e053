"""Root splitter, separation constants, characteristic polynomials."""

import math

import numpy as np
import pytest

from hypersym.coeffs import CoeffTerm, SystemCoefficients, cosine_terms
from hypersym.errors import NotRealRootedError
from hypersym.runner import validate_config
from hypersym.rootsplit import (
    expand_roots,
    laguerre_roots,
    nuij_constant,
    nuij_split,
    polished_roots,
    random_real_rooted,
)
from support import (
    char_poly,
    constant_system,
    q_lower_bound_probe,
    random_real_rooted_reference,
    root_tolerance,
    spectrum,
)


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


def _apply_once(c, s):
    """One ``(1 + s d/dzeta)`` on ascending coefficients ``(..., m+1)``, as
    nuij_split applies it."""
    c = np.array(c, dtype=float)
    c[..., :-1] += s * (c[..., 1:] * np.arange(1, c.shape[-1]))
    return c


def _split_coeffs(c, s):
    """All m applications of ``(1 + s d/dzeta)``: nuij_split's coefficients."""
    for _ in range(c.shape[-1] - 1):
        c = _apply_once(c, s)
    return c


def _real_roots(c):
    roots = polished_roots(c)
    assert np.max(np.abs(roots.imag)) <= 1e-8 * np.max(np.abs(roots))
    return np.sort(roots.real)


def test_interlacing_single_application():
    rng_seeds = range(20)
    for seed in rng_seeds:
        old = random_real_rooted(5, 2.0, [seed])[0]
        new = _real_roots(_apply_once(expand_roots(old), 0.3))
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
    cs = SystemCoefficients(m=2, a_terms=terms)
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


def test_draw_is_default_rng_at_word_boundaries():
    # the pool's word count changes at 2^32, 2^64, 2^96 and 2^128, and past
    # the pool's four words the later ones mix in one at a time
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200]
    seeds += list(range(2**32 - 3, 2**32 + 3))
    for m in (1, 6):
        np.testing.assert_array_equal(random_real_rooted(m, 3.0, seeds),
                                      random_real_rooted_reference(m, 3.0, seeds))
    # a range of Python integers, as nuij passes them
    run = range(2**64 - 5, 2**64 + 5)
    np.testing.assert_array_equal(random_real_rooted(4, 1.5, run),
                                  random_real_rooted_reference(4, 1.5, run))


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


def _assert_interlaces(daughters, mothers):
    """Daughters weakly interlace mothers: new_k <= old_k <= new_{k+1}."""
    for k in range(len(mothers)):
        assert daughters[k] <= mothers[k] + 1e-9
        if k + 1 < len(daughters):
            assert mothers[k] <= daughters[k + 1] + 1e-9


def test_interlacing_every_application():
    # daughters weakly interlace mothers at every one of the m applications,
    # and the last of them has nuij_split's coefficients exactly.  Its roots
    # come from another solver than the companion reference, so they match
    # it to within their condition, and they interlace the fourth application's
    for seed in range(8):
        prev = random_real_rooted(5, 2.0, [500 + seed])[0]
        row = expand_roots(prev)
        split = nuij_split(row, 0.25)
        for _ in range(5):
            row = _apply_once(row, 0.25)
            cur = _real_roots(row)
            _assert_interlaces(cur, prev)
            mothers, prev = prev, cur
        assert np.array_equal(row, split.coeffs)
        assert np.all(np.abs(split.roots - cur) <= root_tolerance(row, cur))
        _assert_interlaces(split.roots, mothers)


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


def _nuij_draw(seed, m):
    """The split rows of ``nuij --seed seed`` at degree m and the default config."""
    config = validate_config({"command": "nuij", "schema_version": "1", "seed": seed})
    rows = expand_roots(random_real_rooted(m, config["spread"],
                                           seed + 1000 * m + np.arange(config["n_polys"])))
    return np.stack([_split_coeffs(rows, s) for s in config["s_values"]], axis=1)


@pytest.mark.parametrize("seed", range(8))
def test_laguerre_accepts_nearly_every_default_nuij_row(seed):
    # the benchmark's nuij inputs: the fast path must carry the split, so at
    # most 1% of each degree's rows go to the companion
    for m in range(2, 7):
        _, accepted = laguerre_roots(_nuij_draw(seed, m))
        assert accepted.size == 1400 and np.count_nonzero(~accepted) <= 14, m


def test_laguerre_leaves_some_degree_16_rows_to_the_companion():
    _, accepted = laguerre_roots(_nuij_draw(3, 16))
    assert not accepted.all()


@pytest.mark.parametrize("m", [3, 6, 16])
def test_laguerre_row_alone_matches_its_row_in_a_stack(m):
    # each row iterates beside the others until its roots stop, so its roots
    # and acceptance must not depend on them: the stack mixes rows of the nuij
    # draw, which stop within a few steps (at degree 16 the check rejects some),
    # and monic rows of normal coefficients, which have complex roots
    drawn = _nuij_draw(3, m).reshape(-1, m + 1)[::23]
    normal = np.random.default_rng(m).normal(size=(20, m + 1))
    normal[:, -1] = 1.0
    c = np.concatenate((drawn, normal))
    roots, accepted = laguerre_roots(c)
    assert accepted.any() and not accepted.all()
    for i in range(len(c)):
        one_roots, one_accepted = laguerre_roots(c[i:i + 1])
        assert np.array_equal(one_roots, roots[i:i + 1], equal_nan=True), i
        assert np.array_equal(one_accepted, accepted[i:i + 1]), i


def test_laguerre_rejects_roots_its_rounding_cannot_separate():
    # (z - 1)(z - 1 - d): each root's rounding radius is about 3.5e-15 / d, so
    # the row is accepted while that is under 1e-8 of the gap d, and beyond
    # it the split takes the companion's roots
    for d, accepted in ((1e-2, True), (3e-5, False)):
        row = expand_roots([1.0, 1.0 + d])
        assert laguerre_roots(row)[1] == accepted
    assert np.array_equal(nuij_split(row, 0.0).roots, np.sort(polished_roots(row).real))
