"""Randomized property: ``block_norm2`` matches the SVD's 2-norm on direct sums.

Each matrix is a random symmetric permutation of a direct sum of complex
1x1, 2x2 and 3x3 blocks (the last on the SVD path); a block is dense, rank
one or zero, and is scaled by a power of ten between 1e-200 and 1e200, so
that the 2x2 closed form's squares leave the double range unless it rescales.
The norm over the planted partition is held to ``np.linalg.norm(h, 2)``
within 1e-12 relative.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym.matkernel import block_norm2  # noqa: E402

_part = st.floats(-2.0, 2.0)
_settings = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                                database=None)


def _complex(draw, shape):
    n = int(np.prod(shape))
    re = draw(st.lists(_part, min_size=n, max_size=n))
    im = draw(st.lists(_part, min_size=n, max_size=n))
    return (np.array(re) + 1j * np.array(im)).reshape(shape)


@st.composite
def permuted_direct_sum(draw):
    """(h, blocks): a permuted direct sum and its planted partition."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    h = np.zeros((n, n), dtype=complex)
    planted, at = [], 0
    for k in sizes:
        kind = draw(st.sampled_from(["dense", "rank one", "zero"]))
        if kind == "dense":
            block = _complex(draw, (k, k))
        elif kind == "rank one":
            block = np.outer(_complex(draw, (k,)), _complex(draw, (k,)).conj())
        else:
            block = np.zeros((k, k))
        h[at:at + k, at:at + k] = block * 10.0 ** draw(st.integers(-200, 200))
        planted.append(np.arange(at, at + k))
        at += k
    perm = np.array(draw(st.permutations(range(n))))
    # h[perm][:, perm] holds entry (perm[i], perm[j]) at (i, j)
    return h[perm][:, perm], [np.flatnonzero(np.isin(perm, idx)) for idx in planted]


@_settings
@hypothesis.given(permuted_direct_sum())
def test_matches_svd_norm(case):
    h, blocks = case
    ref = np.linalg.norm(h, 2)
    got = block_norm2(h, blocks)
    assert got.shape == ()
    assert abs(got - ref) <= 1e-12 * ref


@_settings
@hypothesis.given(permuted_direct_sum())
def test_stack_is_per_matrix(case):
    h, blocks = case
    stack = np.stack([h, 2.0 * h, np.zeros_like(h)]).reshape(3, 1, *h.shape)
    got = block_norm2(stack, blocks)
    assert got.shape == (3, 1)
    assert np.array_equal(got[:, 0], [block_norm2(h, blocks), block_norm2(2.0 * h, blocks), 0.0])
