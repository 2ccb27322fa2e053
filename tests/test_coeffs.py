"""Coefficient fields: grammar, exact derivatives, serialization."""

import math

import numpy as np
import pytest

from hypersym.coeffs import (
    CoeffTerm,
    MatrixField,
    SystemCoefficients,
    coeffs_from_json,
    coeffs_to_json,
    constant_system,
    cosine_terms,
    eval_time_term,
    sine_terms,
)
from hypersym.errors import ConfigError


def test_time_grammar():
    assert eval_time_term("1", 3.0) == 1.0
    assert eval_time_term("t", 3.0) == 3.0
    assert eval_time_term("t^2", 3.0) == 9.0
    assert eval_time_term("|t|^0.5", 4.0) == 2.0
    lac = eval_time_term("lacunary(0.5,3)", 0.0)
    assert lac == pytest.approx(1 + 2**-0.5 + 2**-1.0)


def test_time_grammar_rejects_unknown():
    with pytest.raises(ConfigError):
        eval_time_term("exp(t)", 1.0)


def test_trig_evaluation_and_derivatives():
    # f(x) = 2 - 2 cos x as lower-left entry: value/derivatives at 0 match x^2
    terms = [CoeffTerm(0, "1", np.array([[0, 1], [2, 0]], dtype=complex))]
    terms += cosine_terms(1, np.array([[0, 0], [-2, 0]], dtype=complex))
    fld = MatrixField(2, terms)
    a = fld.dx(0.0, 0.0, 0)
    assert a[1, 0] == pytest.approx(0.0, abs=1e-15)
    # plain derivatives d^j/dx^j = (i D_x)^j
    assert 1j * fld.dx(0.0, 0.0, 1)[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert (1j**2 * fld.dx(0.0, 0.0, 2)[1, 0]).real == pytest.approx(2.0)
    # D_x version: D_x^2 = -d^2/dx^2
    assert fld.dx(0.0, 0.0, 2)[1, 0].real == pytest.approx(-2.0)
    x = 0.7
    assert fld.dx(0.0, x, 0)[1, 0].real == pytest.approx(2 - 2 * math.cos(x))


def test_sine_terms_real():
    fld = MatrixField(1, sine_terms(2, np.array([[1.0]])))
    for x in (0.0, 0.3, 1.9):
        assert fld.dx(0.0, x, 0)[0, 0] == pytest.approx(math.sin(2 * x))
        assert abs(fld.dx(0.0, x, 0)[0, 0].imag) < 1e-15


def test_json_round_trip():
    terms = [CoeffTerm(0, "t^2", np.array([[0, 1], [0, 0]], dtype=complex)),
             CoeffTerm(1, "1", np.array([[0.5j, 0], [0, -0.25]], dtype=complex))]
    coeffs = SystemCoefficients(
        m=2, a_field=MatrixField(2, terms), b_field=MatrixField(2, []),
    )
    doc = coeffs_to_json(coeffs)
    back = coeffs_from_json(doc)
    for t, x in ((0.0, 0.0), (0.5, 1.1), (2.0, 4.0)):
        np.testing.assert_allclose(back.eval_a(t, x), coeffs.eval_a(t, x), atol=1e-15)
    assert back.x_band == coeffs.x_band


def test_bad_documents_rejected():
    with pytest.raises(ConfigError):
        coeffs_from_json({"m": 2, "A": []})
    with pytest.raises(ConfigError):
        SystemCoefficients(
            m=1,
            a_field=MatrixField(1, []),
            b_field=MatrixField(1, []),
            t_regularity="holder",
        )


def test_holder_ratio_bounded():
    terms = [CoeffTerm(0, "lacunary(0.5,10)", np.array([[1.0]], dtype=complex))]
    coeffs = SystemCoefficients(
        m=1, a_field=MatrixField(1, terms), b_field=MatrixField(1, []),
        t_regularity="holder", kappa=0.5,
    )
    # kappa-Hoelder: ratio finite and stable under grid refinement
    r1 = coeffs.holder_ratio(0.0, 2.0, n=100)
    r2 = coeffs.holder_ratio(0.0, 2.0, n=400)
    assert 0 < r1 < 20
    assert r2 < 2.0 * max(r1, 1.0) + 20


def test_constant_system():
    cs = constant_system(np.array([[0, 1], [1, 0]]))
    assert cs.x_band == 0
    np.testing.assert_allclose(cs.eval_a(5.0, 2.0), [[0, 1], [1, 0]])
    assert cs.eval_b(0.0, 0.0).shape == (2, 2)


def test_harmonic_matrices_sum_to_field():
    # the truncated generator collapses the terms per x-harmonic at each
    # time; summed back over e^{ikx} they must give A(t, x) itself
    from hypersym.presets import get_preset

    a_field = get_preset("xdep").coeffs.a_field
    for t, x in ((0.3, 0.7), (1.1, -2.0)):
        a_k = a_field.harmonic_matrices(t)
        assert sorted(a_k) == [-1, 0, 1]
        total = sum(c * np.exp(1j * k * x) for k, c in a_k.items())
        np.testing.assert_allclose(total, a_field.dx(t, x, 0), atol=1e-13)
