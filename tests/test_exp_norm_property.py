"""Randomized property: the closed-form ||e^{isH}|| matches independent evaluations.

Scales run up to s ||H|| = 1e4, capped so that s max |Im lambda| <= 30
keeps the norms in range.  A 2x2 block is held to the exact norm of its
floating-point entries (mpmath at 40 digits).  Near a nilpotent block the
norm's sensitivity to rounding grows like (s ||H||)^2 u, so the bound is
1e-9 relative plus that term; on randomly rotated nilpotent blocks at
s ||H|| = 1e4, Pade-13 with squaring is off by up to 2.2e-7.  Direct sums
of diagonalizable blocks of size 1, 2 and 3 (the last on the Pade path) are
held to an SVD of the whole matrix's exponential by scipy, which shares no
code with the closed form that ``expm_batched`` uses on 1x1 and 2x2 blocks.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym.matkernel import _exp_norms  # noqa: E402
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


@_settings
@hypothesis.given(two_by_two(), _scale)
def test_2x2_matches_exact_norm(h, u):
    mp = pytest.importorskip("mpmath")
    s, norm = _scale_for(h, u)
    with mp.workdps(40):
        e = mp.expm(mp.mpc(0, 1) * mp.mpf(s) * mp.matrix(h.tolist()))
        exact = float(max(mp.svd_c(e, compute_uv=False)))
    tol = 1e-9 + (s * norm) ** 2 * np.finfo(float).eps
    assert abs(_closed(h, s) - exact) <= tol * exact


@_settings
@hypothesis.given(permuted_direct_sum(), _scale)
def test_permuted_direct_sum_matches_pade(h, u):
    assert max(len(b) for b in stack_blocks(h)) <= 3
    s, _ = _scale_for(h, u)
    expm = pytest.importorskip("scipy.linalg").expm
    ref = np.linalg.svd(expm(1j * s * h), compute_uv=False)[0]
    assert abs(_closed(h, s) - ref) <= 1e-9 * ref
