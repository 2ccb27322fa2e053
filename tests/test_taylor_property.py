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

Partition: inline systems whose A and B terms are permuted direct sums of
blocks of size 1 to 3 (m <= 6).  ``SystemCoefficients.blocks`` is the
planted partition, every stack that ``taylor_symbol``, ``hn_over_lattice``
and ``damped_generator`` build from the system is exactly zero off it, and
each block of a stack's own partition (``support.stack_blocks``) lies in one
of its blocks.
"""

import math

import numpy as np
import pytest

from hypersym.coeffs import CoeffTerm, SystemCoefficients
from hypersym.matkernel import taylor_symbol
from hypersym.planner import ParameterSet
from hypersym.symmetrizer import damped_generator, hn_over_lattice
from support import field_dx, parse_document, stack_blocks, taylor_reference

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
    coeffs = SystemCoefficients(m=m, a_terms=terms)
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
    for term in coeffs.a_terms:
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
    n_terms = len(coeffs.a_terms)
    bound = 2.0 * (7 * order + n_terms + 19) * _U * _magnitude(coeffs, t, x, xi, z, order)
    assert np.all(np.abs(got - ref) <= bound)
    # at z = 0 every term's truncated exponential is exactly 1
    at_zero = taylor_symbol(coeffs, t, x, xi, np.zeros_like(z), order)
    symbol = field_dx(coeffs.a_terms, coeffs.m, t, x) * np.asarray(xi)[..., None, None]
    assert np.array_equal(at_zero, np.broadcast_to(symbol, at_zero.shape))


@st.composite
def planted_systems(draw):
    """(inline coefficient document, planted blocks): each block is joined by a
    random spanning tree of entries, each in A or B, plus random extra entries
    inside the block, on random terms."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)
                 .filter(lambda sizes: sum(sizes) <= 6))
    m = sum(sizes)
    perm = draw(st.permutations(range(m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = {"m": m, "A": [[[] for _ in range(m)] for _ in range(m)],
           "B": [[[] for _ in range(m)] for _ in range(m)]}

    def put(i, j):
        field = "A" if rng.uniform() < 0.7 else "B"
        doc[field][i][j].append({"x_freq": int(rng.integers(-2, 3)),
                                 "t_term": str(rng.choice(_TIME_TERMS)),
                                 "re": float(rng.normal()), "im": float(rng.normal())})

    planted, at = [], 0
    for k in sizes:
        block = sorted(perm[at:at + k])
        at += k
        planted.append(block)
        for n, i in enumerate(block[1:], 1):  # a spanning tree, each edge either way
            j = block[int(rng.integers(0, n))]
            put(*((i, j) if rng.uniform() < 0.5 else (j, i)))
        for i in block:
            for j in block:
                if rng.uniform() < 0.3:
                    put(i, j)
    return doc, planted


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(planted_systems(), st.integers(0, 2**32 - 1))
def test_system_partition_is_planted_and_coarser_than_each_stack(case, seed):
    doc, planted = case
    coeffs = parse_document(doc)
    assert sorted(map(list, coeffs.blocks)) == sorted(planted)
    coupled = np.zeros((coeffs.m, coeffs.m), dtype=bool)
    owner = np.empty(coeffs.m, dtype=int)
    for n, idx in enumerate(coeffs.blocks):
        coupled[idx[:, None], idx] = True
        owner[idx] = n
    rng = np.random.default_rng(seed)
    t = rng.uniform(-2.0, 2.0, size=(3, 1, 1))
    x = rng.uniform(-4.0, 4.0, size=(2, 1))
    xi = rng.uniform(-50.0, 50.0, size=4)
    z = rng.uniform(-2.0, 2.0, size=4) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=4))
    params = ParameterSet(rho=0.5, a=2.0, ell=4.0, tau=rng.uniform(0.1, 1.0), T=2.0, c1=0.1,
                          theta=int(rng.integers(0, 3)))
    stacks = [taylor_symbol(coeffs, t, x, xi, z, int(rng.integers(0, 9))),
              hn_over_lattice(coeffs, params, t, x, xi),
              damped_generator(coeffs, params, t, x, xi)[0]]
    for stack in stacks:
        assert np.all(stack[..., ~coupled] == 0.0)
        assert all(len(set(owner[idx])) == 1 for idx in stack_blocks(stack))
