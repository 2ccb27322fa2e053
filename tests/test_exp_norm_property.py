"""The closed-form ||e^{isH}|| against independent evaluations: a randomized
property and the closed form's edge cases.

Scales run up to s ||H|| = 1e4, capped so that s max |Im lambda| <= 30
keeps the norms in range.  A 2x2 block is held to the exact norm of its
floating-point entries (mpmath at 40 digits), which the barometer's kernel
reads from three invariants of the block (mu, d and nu) and real functions
of s.  Near a nilpotent block the norm's sensitivity to rounding grows like
(s ||H||)^2 u, so the bound is 1e-9 relative plus that term; on randomly
rotated nilpotent blocks at s ||H|| = 1e4, Pade-13 with squaring is off by
up to 2.2e-7.  The edge cases are held to the same bound: a nilpotent block
(d = 0), normal blocks (nu = 0 exactly, and a hermitian block's norm 1),
blocks scaled by 2^+-1000 or as small as 1e-221, s = 0 and subnormal s, and
norms near the top of the double range.  Direct sums of diagonalizable blocks
of size 1, 2 and 3 (the last on the Pade path) are held to an SVD of the
whole matrix's exponential by scipy, which shares no code with the closed
forms of the kernel or of ``expm_batched``.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym.matkernel import _exp_norms, _norm_invariants, _split_2x2, taylor_symbol  # noqa: E402
from hypersym.presets import get_preset  # noqa: E402
from support import stack_blocks  # noqa: E402

_part = st.floats(-2.0, 2.0)
_scale = st.floats(0.0, 1e4)  # s ||H||
_settings = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                                database=None)


def _complex(draw, shape):
    n = int(np.prod(shape))
    re = draw(st.lists(_part, min_size=n, max_size=n))
    im = draw(st.lists(_part, min_size=n, max_size=n))
    return (np.array(re) + 1j * np.array(im)).reshape(shape)


def _unitary(draw, k):
    u, _ = np.linalg.qr(_complex(draw, (k, k)) + 3.0 * np.eye(k))
    return u


@st.composite
def two_by_two(draw):
    """A random complex 2x2, or U (T + i beta B) U* with T upper triangular, real diagonal."""
    if draw(st.booleans()):
        return _complex(draw, (2, 2))
    t = np.triu(_complex(draw, (2, 2)), 1) + np.diag(draw(st.lists(_part, min_size=2,
                                                                    max_size=2)))
    beta = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 1.0]))
    u = _unitary(draw, 2)
    return u @ (t + 1j * beta * _complex(draw, (2, 2))) @ u.conj().T


@st.composite
def permuted_direct_sum(draw):
    """Blocks V diag(lambda) V^-1, V a unitary times I plus a small strictly upper
    part, in a random symmetric permutation."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    h = np.zeros((n, n), dtype=complex)
    at = 0
    for k in sizes:
        v = _unitary(draw, k) @ (np.eye(k) + 0.25 * np.triu(_complex(draw, (k, k)), 1))
        lam = np.array(draw(st.lists(_part, min_size=k, max_size=k)))
        lam = lam + 1j * draw(st.sampled_from([0.0, 1e-3, 1.0])) * np.array(
            draw(st.lists(_part, min_size=k, max_size=k)))
        h[at:at + k, at:at + k] = v @ np.diag(lam) @ np.linalg.inv(v)
        at += k
    perm = np.array(draw(st.permutations(range(n))))
    return h[perm][:, perm]


def _scale_for(h, u):
    norm = np.linalg.norm(h, 2)
    hypothesis.assume(norm > 1e-300)  # s = u / ||H|| stays finite
    s = u / norm
    growth = s * np.max(np.abs(np.linalg.eigvals(h).imag))  # at most u
    return (s * 30.0 / growth if growth > 30.0 else s), norm


def _closed(h, s):
    return _exp_norms(h[None], np.array([s]), stack_blocks(h))[0, 0]


def _exact(h, s):
    """||e^{isH}||_2 of the floating-point H and s, by mpmath at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e = mp.expm(mp.mpc(0, 1) * mp.mpf(s) * mp.matrix(h.tolist()))
        return float(max(mp.svd_c(e, compute_uv=False)))


def _within_bound(h, s, value, exact):
    tol = 1e-9 + (s * np.linalg.norm(h, 2)) ** 2 * np.finfo(float).eps
    return abs(value - exact) <= tol * exact


@_settings
@hypothesis.given(two_by_two(), _scale)
def test_2x2_matches_exact_norm(h, u):
    s, _ = _scale_for(h, u)
    assert _within_bound(h, s, _closed(h, s), _exact(h, s))


@_settings
@hypothesis.given(permuted_direct_sum(), _scale)
def test_permuted_direct_sum_matches_pade(h, u):
    assert max(len(b) for b in stack_blocks(h)) <= 3
    s, _ = _scale_for(h, u)
    expm = pytest.importorskip("scipy.linalg").expm
    ref = np.linalg.svd(expm(1j * s * h), compute_uv=False)[0]
    assert abs(_closed(h, s) - ref) <= 1e-9 * ref


# ---------------------------------------------------------------------------
# Edge cases of the 2x2 closed form, at the bound of the property above

_NILPOTENT = taylor_symbol(get_preset("wave_t2").coeffs, 0.0, 0.0, 1.0, 0.0, 2)  # [[0, 0], [1, 0]]
_BLOCKS = {
    "nilpotent": _NILPOTENT,
    "shifted nilpotent": np.array([[1.0, 1.0], [-1.0, -1.0]]) + (0.5 - 0.25j) * np.eye(2),
    "real jordan": np.array([[0.3, 2.0], [0.0, 0.3]]),
    "complex": np.array([[0.2 - 0.1j, 1.5 + 0.5j], [-0.3j, -0.7 + 0.05j]]),
}
_EDGES = [(name, k, u) for name in _BLOCKS for k, u in ((1000, 3.0), (-1000, 3.0), (0, 1e-3),
                                                          (0, 30.0))]


@pytest.mark.parametrize("name, k, u", _EDGES, ids=[f"{n}-2^{k}-u{u:g}" for n, k, u in _EDGES])
def test_scaled_blocks_match_exact_norm(name, k, u):
    # H scaled by 2^k at s ||H|| = u: the invariants of the scaled block do not
    # under- or overflow, and s takes the inverse scale
    h = np.ldexp(1.0, k) * _BLOCKS[name].astype(complex)
    s = u / np.linalg.norm(h, 2)
    assert _within_bound(h, s, _closed(h, s), _exact(h, s))


def test_nilpotent_blocks_have_d_zero():
    # the edge cases' nilpotent blocks take the closed form's d = 0 branch:
    # wave_t2's symbol at t = 0, and a shifted one with a diagonal
    for h in (_NILPOTENT, _BLOCKS["shifted nilpotent"]):
        assert _split_2x2(h.astype(complex))[1] == 0


@pytest.mark.parametrize("name", sorted(_BLOCKS))
def test_s_zero_and_subnormal_s(name):
    h = _BLOCKS[name].astype(complex)
    assert _closed(h, 0.0) == 1.0
    for s in (5e-324, 1e-310, np.finfo(float).tiny):
        assert _within_bound(h, s, _closed(h, s), _exact(h, s))
    tiny = 1e-221 * h  # where d^2 of the unscaled block underflows
    for s in (1e-3 / np.linalg.norm(tiny, 2), 10.0 / np.linalg.norm(tiny, 2), 5e-324):
        assert _within_bound(tiny, s, _closed(tiny, s), _exact(tiny, s))


@pytest.mark.parametrize("h, s", [
    # e^{-s Im mu} near e^700, on a non-normal block
    (np.array([[0.3 - 1j, 2.0], [0.1, -0.2 - 1j]]), 700.0),
    # sinh(s Im d) near e^700 / 2: d = 1i, with a non-normal part
    (np.array([[1j, 1.0], [0.0, -1j]]), 700.0),
], ids=["mu", "sinh"])
def test_norms_near_the_top_of_the_double_range(h, s):
    exact = _exact(h, s)
    assert 1e300 < exact < np.finfo(float).max
    assert _within_bound(h, s, _closed(h, s), exact)


def test_normal_blocks_have_nu_zero():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    symmetric = a.real + a.real.transpose(0, 2, 1)
    skew = a - a.conj().transpose(0, 2, 1)
    hermitian = a + a.conj().transpose(0, 2, 1)
    for h in (symmetric.astype(complex), skew, hermitian):
        assert np.all(_norm_invariants(h)[3] == 0)
    # a real symmetric block's e^{isH} is unitary: its norm is 1 exactly
    s = rng.uniform(0.1, 3.0, size=(200, 1)) / np.linalg.norm(symmetric, 2, axis=(1, 2))[:, None]
    norms = _exp_norms(symmetric[:, None].astype(complex), s, [np.arange(2)])
    assert np.all(norms == 1.0)
    # a skew-hermitian block is e^{s |Im d|} e^{-s Im mu}, the exact norm
    for h, si in zip(skew[:20], s[:20, 0]):
        assert _within_bound(h, si, _closed(h, si), _exact(h, si))


def test_hermitian_blocks_have_norm_one():
    # nu formed by subtraction, ||K||_F^2 - 2|d|^2, reads up to 1.5e-8 off
    # here; the commutator form rounds nu to 0, leaving s ||H|| u from Im d
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2000, 2, 2)) + 1j * rng.normal(size=(2000, 2, 2))
    h = a + a.conj().transpose(0, 2, 1)
    u = rng.uniform(0.1, 3.0, size=2000)
    s = u / np.linalg.norm(h, 2, axis=(1, 2))
    norms = _exp_norms(h[:, None], s[:, None], [np.arange(2)])[:, 0, 0]
    assert np.all(np.abs(norms - 1.0) <= 1e-9 + u**2 * np.finfo(float).eps)
