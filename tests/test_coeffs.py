"""Coefficient fields: grammar, serialization, and the exact-derivative reference."""

import math

import numpy as np
import pytest

from hypersym.coeffs import (
    CoeffTerm,
    SystemCoefficients,
    coeffs_from_json,
    cosine_terms,
    time_function,
)
from hypersym.errors import ConfigError
from support import coeffs_to_json, constant_system, field_dx, holder_ratio, sine_terms


def test_time_grammar():
    assert time_function("1")(3.0) == 1.0
    assert time_function("t")(3.0) == 3.0
    assert time_function("t^2")(3.0) == 9.0
    assert time_function("|t|^0.5")(4.0) == 2.0
    lac = time_function("lacunary(0.5,3)")(0.0)
    assert lac == pytest.approx(1 + 2**-0.5 + 2**-1.0)


def test_time_function_vectorized_matches_scalar_calls():
    ts = np.array([-1.3, 0.0, 0.37, 2.5])
    for term in ("1", "t", " t^3 ", "|t|^0.5", "lacunary(0.5, 12)"):
        g = time_function(term)
        np.testing.assert_array_equal(g(ts), [float(g(float(t))) for t in ts])


def test_time_grammar_rejects_unknown():
    with pytest.raises(ConfigError):
        time_function("exp(t)")
    with pytest.raises(ConfigError):
        CoeffTerm(0, "exp(t)", np.eye(1))


def test_trig_evaluation_and_derivatives():
    # f(x) = 2 - 2 cos x as lower-left entry: value/derivatives at 0 match x^2
    terms = [CoeffTerm(0, "1", np.array([[0, 1], [2, 0]], dtype=complex))]
    terms += cosine_terms(1, np.array([[0, 0], [-2, 0]], dtype=complex))
    a = field_dx(terms, 2, 0.0, 0.0, 0)
    assert a[1, 0] == pytest.approx(0.0, abs=1e-15)
    # plain derivatives d^j/dx^j = (i D_x)^j
    assert 1j * field_dx(terms, 2, 0.0, 0.0, 1)[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert (1j**2 * field_dx(terms, 2, 0.0, 0.0, 2)[1, 0]).real == pytest.approx(2.0)
    # D_x version: D_x^2 = -d^2/dx^2
    assert field_dx(terms, 2, 0.0, 0.0, 2)[1, 0].real == pytest.approx(-2.0)
    x = 0.7
    assert field_dx(terms, 2, 0.0, x, 0)[1, 0].real == pytest.approx(2 - 2 * math.cos(x))


def test_sine_terms_real():
    terms = sine_terms(2, np.array([[1.0]]))
    for x in (0.0, 0.3, 1.9):
        assert field_dx(terms, 1, 0.0, x, 0)[0, 0] == pytest.approx(math.sin(2 * x))
        assert abs(field_dx(terms, 1, 0.0, x, 0)[0, 0].imag) < 1e-15


def test_json_round_trip():
    terms = [CoeffTerm(0, "t^2", np.array([[0, 1], [0, 0]], dtype=complex)),
             CoeffTerm(1, "1", np.array([[0.5j, 0], [0, -0.25]], dtype=complex))]
    coeffs = SystemCoefficients(m=2, a_terms=terms)
    doc = coeffs_to_json(coeffs)
    back = coeffs_from_json(doc)
    for t, x in ((0.0, 0.0), (0.5, 1.1), (2.0, 4.0)):
        np.testing.assert_allclose(field_dx(back.a_terms, 2, t, x),
                                   field_dx(coeffs.a_terms, 2, t, x), atol=1e-15)
    assert back.x_band == coeffs.x_band


def test_bad_documents_rejected():
    with pytest.raises(ConfigError):
        coeffs_from_json({"m": 2, "A": []})
    with pytest.raises(ConfigError):
        SystemCoefficients(m=1, a_terms=[], t_regularity="holder")
    # a term's matrix must be m-by-m
    with pytest.raises(ConfigError, match=r"\(2, 2\) != \(1, 1\)"):
        SystemCoefficients(m=1, a_terms=[], b_terms=[CoeffTerm(0, "1", np.eye(2))])


def test_holder_ratio_bounded():
    terms = [CoeffTerm(0, "lacunary(0.5,10)", np.array([[1.0]], dtype=complex))]
    coeffs = SystemCoefficients(m=1, a_terms=terms, t_regularity="holder", kappa=0.5)
    # kappa-Hoelder: ratio finite and stable under grid refinement
    r1 = holder_ratio(coeffs, 0.0, 2.0, n=100)
    r2 = holder_ratio(coeffs, 0.0, 2.0, n=400)
    assert 0 < r1 < 20
    assert r2 < 2.0 * max(r1, 1.0) + 20


def test_constant_system():
    cs = constant_system(np.array([[0, 1], [1, 0]]))
    assert cs.x_band == 0
    np.testing.assert_allclose(field_dx(cs.a_terms, cs.m, 5.0, 2.0, 0), [[0, 1], [1, 0]])
    assert field_dx(cs.b_terms, cs.m, 0.0, 0.0, 0).shape == (2, 2)


def test_term_matrices_sum_to_field():
    # the truncated generator splits its matrix by time term, sum_j g_j(t)
    # L_j, with one column block per x-harmonic; summed back over e^{ikx}
    # the blocks must give A(t, x) itself
    from hypersym.presets import get_preset
    from hypersym.solver import TruncatedGenerator

    coeffs = get_preset("xdep").coeffs
    gen = TruncatedGenerator(coeffs, 16, (0.0,), 0.0)
    assert list(gen.time_terms) == ["1", "t"]
    k_max = coeffs.x_band
    for t, x in ((0.3, 0.7), (1.1, -2.0)):
        mat = sum(g(t) * l_j for g, l_j in zip(gen.time_terms.values(), gen.term_matrices))
        blocks = mat.reshape(coeffs.m, 1, coeffs.m, 2 * k_max + 1)[:, 0]  # A is field 0
        total = sum(blocks[:, :, k_max - k] * np.exp(1j * k * x)
                    for k in range(-k_max, k_max + 1))
        np.testing.assert_allclose(total, field_dx(coeffs.a_terms, coeffs.m, t, x, 0), atol=1e-13)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_dx_broadcasts_like_scalar_calls(order):
    # (t, x) arrays broadcast together; every node is the scalar call, bit
    # for bit, for each preset's terms (holder_k's lacunary path among them)
    from hypersym.presets import get_preset, preset_names

    ts = np.array([-0.2, 0.0, 0.37, 1.9])[:, None]
    xs = np.array([0.0, 1.1, -2.5])
    for name in preset_names():
        coeffs = get_preset(name).coeffs
        terms, m = coeffs.a_terms, coeffs.m
        grid = field_dx(terms, m, ts, xs, order)
        assert grid.shape == (4, 3, m, m)
        for it, t in enumerate(ts[:, 0]):
            for ix, x in enumerate(xs):
                assert np.array_equal(grid[it, ix], field_dx(terms, m, float(t), float(x), order))
        assert np.array_equal(field_dx(terms, m, ts[:, 0], 0.7, order)[2],
                              field_dx(terms, m, 0.37, 0.7, order))
