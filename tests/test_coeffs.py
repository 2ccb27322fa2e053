"""Coefficient fields: grammar, serialization, and the exact-derivative reference."""

import math

import numpy as np
import pytest

from hypersym.coeffs import CoeffTerm, SystemCoefficients, cosine_terms, time_function
from hypersym.errors import ConfigError
from support import (BAD_ENTRY_FIELDS, coeffs_to_json, constant_system, field_dx, holder_ratio,
                     one_entry_document, parse_document, sine_terms)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def test_time_grammar():
    assert time_function("1")(3.0) == 1.0
    assert time_function("t")(3.0) == 3.0
    assert time_function("t^2")(3.0) == 9.0
    assert time_function("|t|^0.5")(4.0) == 2.0
    lac = time_function("lacunary(0.5,3)")(0.0)
    assert lac == pytest.approx(1 + 2**-0.5 + 2**-1.0)


def test_time_function_vectorized_matches_scalar_calls():
    ts = np.array([-1.3, 0.0, 0.37, 2.5])
    # a term's surrounding whitespace is dropped where CoeffTerm names it
    for term in ("1", "t", " t^3 ", "|t|^0.5", "lacunary(0.5, 12)"):
        g = CoeffTerm(0, term, np.eye(1)).g
        np.testing.assert_array_equal(g(ts), [float(g(float(t))) for t in ts])


def test_time_grammar_rejects_unknown():
    # a malformed decimal, or an integer past int()'s 4300 digits, is no term either
    for term in ("exp(t)", "|t|^1.2.3", "|t|^.", "lacunary(1.2.3, 4)", "t^" + "9" * 4301):
        with pytest.raises(ConfigError, match=r"^unrecognized time term '"):
            time_function(term)
        with pytest.raises(ConfigError, match=r"^unrecognized time term '"):
            CoeffTerm(0, term, np.eye(1))


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
    back = parse_document(coeffs_to_json(coeffs))
    for t, x in ((0.0, 0.0), (0.5, 1.1), (2.0, 4.0)):
        np.testing.assert_allclose(field_dx(back.a_terms, 2, t, x),
                                   field_dx(coeffs.a_terms, 2, t, x), atol=1e-15)
    assert back.x_band == coeffs.x_band


def test_bad_documents_rejected():
    with pytest.raises(ConfigError, match="entry grid does not match matrix size m = 2"):
        parse_document({"m": 2, "A": []})
    with pytest.raises(ConfigError, match=r"holder mode requires kappa in \(0, 1\]"):
        parse_document({"m": 1, "A": [[[]]], "t_regularity": "holder"})


@pytest.mark.parametrize("key, value", BAD_ENTRY_FIELDS)
def test_an_entry_field_of_the_wrong_type_is_refused_by_name(key, value):
    with pytest.raises(ConfigError, match=rf"^config rejected: coeffs\.A\[0\]\[0\]\[0\]\.{key}: "):
        parse_document(one_entry_document({key: value}))


# Strings of the time grammar, and near misses: a level count past 1024, and
# a malformed decimal
_GRAMMAR = ("1", "t", " t^3 ", "|t|^0.5", "lacunary(0.5, 4)", "lacunary(0.5,2000)", "|t|^1.2.3")
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_GRAMMAR),
              st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=5)
# A key that neither a document nor an entry has, with any JSON value
_UNKNOWN = st.tuples(st.text(max_size=6).filter(
    lambda key: key not in {"m", "A", "B", "t_regularity", "kappa", "x_freq", "t_term", "re", "im"}),
    _JSON)


# The slots of a document; each document draws one that may hold any JSON value,
# or, for "key" and "entry key", one that adds an unknown key to the document or
# to each entry
_SLOTS = ("m", "A", "B", "entries", "entry", "x_freq", "t_term", "re", "im", "t_regularity",
          "kappa", "key", "entry key")


@st.composite
def _documents(draw):
    """(document, whether the document or one of its entries has an unknown key)."""
    n, junk = draw(st.integers(1, 3)), draw(st.sampled_from(_SLOTS))

    def slot(name, valid):
        return valid | _JSON if name == junk else valid

    def keyed(name, dicts):
        return st.tuples(dicts, _UNKNOWN).map(lambda d: {**d[0], d[1][0]: d[1][1]}) \
            if name == junk else dicts

    entry = slot("entry", keyed("entry key", st.fixed_dictionaries(
        {"x_freq": slot("x_freq", st.integers(-2, 2)),
         "t_term": slot("t_term", st.sampled_from(_GRAMMAR)),
         "re": slot("re", st.floats(-2.0, 2.0))},
        optional={"im": slot("im", st.floats(-2.0, 2.0))})))
    cell = slot("entries", st.lists(entry, max_size=2))
    row = st.lists(cell, min_size=n, max_size=n)
    doc = draw(keyed("key", st.fixed_dictionaries(
        {"m": slot("m", st.just(n)), "A": slot("A", st.lists(row, min_size=n, max_size=n))},
        optional={"B": slot("B", st.lists(row, min_size=n, max_size=n)),
                  "t_regularity": slot("t_regularity", st.sampled_from(["lipschitz", "holder"])),
                  "kappa": slot("kappa", st.floats(0.0, 1.0))})))
    if junk != "entry key":
        return doc, junk == "key"
    # every other slot is valid, so the grids are lists of lists of entry lists
    return doc, any(cell for grid in ("A", "B") for row in doc.get(grid, []) for cell in row)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=_documents())
def test_an_inline_document_is_parsed_or_refused(case):
    # every slot of the document holds a JSON value, valid for it or not: the
    # schema and the parser return a system or refuse the document, and nothing
    # else; an unknown key, in the document or in an entry, is refused by name
    doc, unknown = case
    try:
        coeffs = parse_document(doc)
    except ConfigError as exc:
        assert not unknown or "unknown field" in str(exc), exc
        return
    assert not unknown, doc
    assert isinstance(coeffs, SystemCoefficients)


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


def test_blocks_are_the_distinct_reach_rows_in_ascending_order():
    # the components that the terms' nonzero pattern links, one block per
    # distinct row of the reach matrix, ordered as np.unique(reach, axis=0)
    # orders the boolean rows: block_direct_sum's [2, 3] before [0, 1]
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        pattern = (rng.random((m, m)) < 0.2) * rng.standard_normal((m, m))
        coeffs = SystemCoefficients(m=m, a_terms=[CoeffTerm(0, "1", pattern + 0j)], b_terms=[])
        link = np.eye(m, dtype=bool) | (pattern != 0) | (pattern != 0).T
        reach = np.linalg.matrix_power(link.astype(int), m) > 0
        expect = [np.flatnonzero(row) for row in np.unique(reach, axis=0)]
        assert len(coeffs.blocks) == len(expect)
        for got, want in zip(coeffs.blocks, expect):
            np.testing.assert_array_equal(got, want)
    direct_sum = np.kron(np.eye(2), np.ones((2, 2)))
    blocks = SystemCoefficients(m=4, a_terms=[CoeffTerm(0, "1", direct_sum + 0j)],
                                b_terms=[]).blocks
    assert [list(b) for b in blocks] == [[2, 3], [0, 1]]
