"""Randomized property: the block-wise eigenvalues of ``block_eigvals``.

Stacks are permuted direct sums of 1x1, 2x2 and 3x3 blocks, each block
scaled by its own power of two.  The 2x2 blocks are random complex ones,
rotated near-defective ones (a scalar plus [[0, 1], [delta, 0]], delta down
to 1e-12) and rotated purely imaginary pairs; the 3x3 blocks are random
complex ones.  Each member's eigenvalue multiset is held to mpmath's
eigenvalues of its unpermuted blocks, at 40 digits, by a perfect matching
within a per-eigenvalue rounding bound (u = 2^-53):

- a 2x2 block [[a, b], [c, d]], with mu = (a + d) / 2, h = (a - d) / 2 and
  exact discriminant D = h^2 + bc: the closed form rounds D by at most
  ``delta_D = 6 u (|h|^2 + |bc|)``, which moves the pair -+sqrt(D) by at
  most ``min(sqrt(delta_D), delta_D / sqrt|D|)``; mu, the square root and
  the final sum add ``2 u |mu| + 5 u sqrt|D|``;
- a 3x3 block B, through the dense solver: ``32 u ||B||_F kappa + u |lambda|``,
  kappa the eigenvalue's condition number from mpmath's left and right
  eigenvectors.

The test allows twice each bound.  ``CHANGES.md`` gives the derivation.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")
linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
st = hypothesis.strategies

from hypersym.matkernel import block_eigvals  # noqa: E402
from support import stack_blocks  # noqa: E402

_U = np.finfo(float).eps / 2.0
_part = st.floats(-2.0, 2.0)
_settings = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                                database=None)


def _complex(draw, shape):
    n = int(np.prod(shape))
    re = draw(st.lists(_part, min_size=n, max_size=n))
    im = draw(st.lists(_part, min_size=n, max_size=n))
    return (np.array(re) + 1j * np.array(im)).reshape(shape)


def _rotation(draw):
    angle = draw(st.floats(0.1, 1.4))
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _block(draw, kind):
    if kind == "complex2":
        return _complex(draw, (2, 2))
    if kind == "complex3":
        return _complex(draw, (3, 3))
    q = _rotation(draw)
    if kind == "near_defective":
        delta = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
        core = _complex(draw, (1,))[0] * np.eye(2) + np.array([[0.0, 1.0], [delta, 0.0]])
    else:  # a purely imaginary pair -+ i omega
        core = draw(st.floats(0.1, 2.0)) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return q @ core @ q.T


@st.composite
def permuted_direct_sum(draw):
    """(stack, blocks): members (n_members, n, n) sharing one block layout and one
    symmetric permutation, and each member's unpermuted blocks."""
    kinds = draw(st.lists(st.sampled_from(["one", "complex2", "near_defective",
                                           "imaginary", "complex3"]),
                          min_size=2, max_size=4))
    sizes = [{"one": 1, "complex3": 3}.get(kind, 2) for kind in kinds]
    n = sum(sizes)
    perm = np.array(draw(st.permutations(range(n))))
    members, blocks = [], []
    for _ in range(draw(st.integers(1, 2))):
        h, own, at = np.zeros((n, n), dtype=complex), [], 0
        for kind, k in zip(kinds, sizes):
            block = _complex(draw, (1, 1)) if kind == "one" else _block(draw, kind)
            block = block * 2.0 ** draw(st.integers(-20, 20))
            h[at:at + k, at:at + k] = block
            own.append(block)
            at += k
        members.append(h[perm][:, perm])
        blocks.append(own)
    return np.array(members), blocks


def _reference(block):
    """(eigenvalues, bounds) of one block: mpmath's eigenvalues at 40 digits,
    each with its rounding bound."""
    with mp.workdps(40):
        vals, left, right = mp.eig(mp.matrix(block.tolist()), left=True, right=True)
        lam = np.array([complex(v) for v in vals])
        if len(block) == 1:
            return lam, np.zeros(1)
        if len(block) == 2:
            (a, b), (c, d) = block
            h2, bc = abs(0.5 * (a - d)) ** 2, abs(b * c)
            disc = abs(complex((mp.mpc(a) - mp.mpc(d)) ** 2 / 4 + mp.mpc(b) * mp.mpc(c)))
            delta = 6.0 * _U * (h2 + bc)
            split = min(np.sqrt(delta), delta / np.sqrt(disc)) if disc > 0 else np.sqrt(delta)
            bound = 2.0 * _U * abs(0.5 * (a + d)) + 5.0 * _U * np.sqrt(disc) + split
            return lam, np.full(2, bound)
        kappa = np.array([float(mp.norm(left[i, :]) * mp.norm(right[:, i])
                                / abs(sum(left[i, k] * right[k, i] for k in range(len(block)))))
                          for i in range(len(block))])
        return lam, 32.0 * _U * np.linalg.norm(block) * kappa + _U * np.abs(lam)


@_settings
@hypothesis.given(permuted_direct_sum())
def test_block_eigvals_match_mpmath(case):
    stack, blocks = case
    got = block_eigvals(stack, stack_blocks(stack))
    assert got.shape == stack.shape[:-1]
    for vals, own in zip(got, blocks):
        refs = [_reference(block) for block in own]
        lam = np.concatenate([r[0] for r in refs])
        bound = 2.0 * np.concatenate([r[1] for r in refs])
        # a perfect matching of computed to exact eigenvalues within the bounds
        miss = np.abs(vals[:, None] - lam[None, :]) > bound[None, :]
        rows, cols = linear_sum_assignment(miss.astype(float))
        assert not miss[rows, cols].any(), (vals, lam, bound)
