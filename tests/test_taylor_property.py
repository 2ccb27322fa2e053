"""Property: the closed-form Taylor symbol matches the derivative-order sum.

``taylor_symbol`` sums each coefficient term times its truncated exponential
``sum_{j<=N} (k z)^j / j!``; the reference (``support.taylor_reference``)
sums ``(z^j / j!) D_x^j A xi`` one derivative order at a time.  Both use the
same values of C, g(t), e^{ikx}, z and xi, so they differ by rounding alone.
With u the unit roundoff, T the number of terms and N the order, each path
is within ``(7N + T + 19) u S`` of the exact sum of those values, where
``S = |xi| sum_terms |C| |g(t)| sum_{j<=N} |k z|^j / j!``: a product chain
has at most 2N + 6 complex roundings, each of relative size at most 3u, and
the additions at most N + T + 1 more.  The two paths then differ by at most
twice that.  At z = 0 the closed form is ``A(t, x) xi`` bit for bit.
"""

import math

import numpy as np
import pytest

from hypersym.coeffs import CoeffTerm, MatrixField, SystemCoefficients
from hypersym.matkernel import taylor_symbol
from support import field_dx, taylor_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_TIME_TERMS = ("1", "t", "t^2", "|t|^0.5", "|t|^1.5", "lacunary(0.5, 12)", "lacunary(0.25, 6)")
_U = np.finfo(float).eps / 2.0


@st.composite
def cases(draw):
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for t_term in draw(st.lists(st.sampled_from(_TIME_TERMS), min_size=1, max_size=3,
                                unique=True)):
        for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
            mat = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            terms.append(CoeffTerm(k, t_term, mat))
    coeffs = SystemCoefficients(m=m, a_field=MatrixField(m, terms), b_field=MatrixField(m, []))
    # each argument a scalar or an array on its own axis, so that all four broadcast
    n_t, n_x, n_xi, n_z = (draw(st.integers(0, 3)) for _ in range(4))
    t = rng.uniform(-2.0, 2.0, size=(n_t, 1, 1, 1)) if n_t else float(rng.uniform(-2.0, 2.0))
    x = rng.uniform(-4.0, 4.0, size=(n_x, 1, 1)) if n_x else float(rng.uniform(-4.0, 4.0))
    xi = rng.uniform(-20.0, 20.0, size=(n_xi,)) if n_xi else float(rng.uniform(-20.0, 20.0))
    z = rng.uniform(-2.0, 2.0, size=(n_z, 1)) if n_z else rng.uniform(-2.0, 2.0)
    if draw(st.booleans()):
        z = z * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=np.shape(z)))
    return coeffs, t, x, xi, z, draw(st.integers(0, 8))


def _magnitude(coeffs, t, x, xi, z, order):
    """S of the module docstring, with the shape of the symbol."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(xi), np.shape(z))
    out = np.zeros(shape + (coeffs.m, coeffs.m))
    for term in coeffs.a_field.terms:
        kz = np.abs(term.x_freq * np.asarray(z))
        series = sum(kz**j / math.factorial(j) for j in range(order + 1))
        out += np.abs(term.matrix) * (np.abs(term.g(t)) * series)[..., None, None]
    return out * np.abs(np.asarray(xi))[..., None, None]


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(cases())
def test_closed_form_matches_derivative_sum(case):
    coeffs, t, x, xi, z, order = case
    got = taylor_symbol(coeffs, t, x, xi, z, order)
    ref = taylor_reference(coeffs, t, x, xi, z, order)
    assert got.shape == ref.shape
    n_terms = len(coeffs.a_field.terms)
    bound = 2.0 * (7 * order + n_terms + 19) * _U * _magnitude(coeffs, t, x, xi, z, order)
    assert np.all(np.abs(got - ref) <= bound)
    # at z = 0 every term's truncated exponential is exactly 1
    at_zero = taylor_symbol(coeffs, t, x, xi, np.zeros_like(z), order)
    symbol = field_dx(coeffs.a_field, t, x) * np.asarray(xi)[..., None, None]
    assert np.array_equal(at_zero, np.broadcast_to(symbol, at_zero.shape))
