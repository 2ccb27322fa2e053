"""Randomized property: the block-wise cores of ``expm_batched``.

Between one scaling and squaring, ``expm_batched`` exponentiates 1x1 blocks
by ``e^h``, 2x2 blocks in closed form and larger blocks by Pade-13.  Each
class of stacks below is held to scipy's ``expm`` (the exact exponential
where one is known) by a relative spectral-norm bound, and the Pade-13 core
under the same scaling and squaring (``_pade_path``) is held to the same
bound, so the closed form is no worse than Pade on any class:

- ``32 u (1 + ||A||)`` on permuted direct sums of 1x1, 2x2 and 3x3 blocks
  up to ||A|| = 1e3, on Hurwitz stacks shaped like the quadrature oracle's
  and on a scalar plus a nilpotent with a tiny split delta; on these draws
  both cores read at most a third of it (closed / Pade: direct sums 0.06 /
  0.07, Hurwitz stacks 0.33 / 0.24, tiny delta 0.21 / 0.31);
- ``4 u (1 + ||A||)^2`` on a scalar plus a nilpotent (K != 0, delta = 0),
  whose exponential e^mu (I + N) is exact, up to ||N|| = 1e3: the squarings
  amplify rounding like ||A||^2 here (closed 0.18 of it, Pade 0.36).

Rotated nilpotent 2x2 at s ||H|| = 1e4 are held to mpmath at 40 digits,
where the squarings dominate both cores: over 40 draws the closed core reads
at most 2.1e-7 (median 3.0e-8) and Pade 2.0e-7 (median 4.7e-8).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
expm = pytest.importorskip("scipy.linalg").expm

from hypersym.matkernel import _THETA13, _pade13, expm_batched  # noqa: E402
from support import stack_blocks  # noqa: E402

_U = np.finfo(float).eps
_part = st.floats(-2.0, 2.0)
_settings = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                                database=None)


def _pade_path(a):
    """e^A by the Pade-13 core alone, under expm_batched's scaling and squaring."""
    a = np.asarray(a, dtype=complex)
    shape, m = a.shape, a.shape[-1]
    a = a.reshape(-1, m, m)
    norm1 = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    n_sq = np.where(norm1 > _THETA13,
                    np.ceil(np.log2(np.maximum(norm1, 1e-300) / _THETA13)), 0.0).astype(int)
    result = _pade13(a / (2.0 ** n_sq)[:, None, None])
    for k in range(int(n_sq.max())):
        mask = n_sq > k
        result[mask] = result[mask] @ result[mask]
    return result.reshape(shape)


def _rel(got, ref):
    return np.linalg.norm(got - ref, 2, axis=(-2, -1)) / np.linalg.norm(ref, 2, axis=(-2, -1))


def _check(a, ref, bound):
    """Both cores within ``bound`` (one per matrix) of ``ref``."""
    assert np.all(_rel(expm_batched(a, stack_blocks(a)), ref) <= bound)
    assert np.all(_rel(_pade_path(a), ref) <= bound)


def _complex(draw, shape):
    n = int(np.prod(shape))
    re = draw(st.lists(_part, min_size=n, max_size=n))
    im = draw(st.lists(_part, min_size=n, max_size=n))
    return (np.array(re) + 1j * np.array(im)).reshape(shape)


def _unitary(draw, k):
    u, _ = np.linalg.qr(_complex(draw, (k, k)) + 3.0 * np.eye(k))
    return u


def _nilpotent(draw):
    """U [[0, b], [0, 0]] U*, b != 0, of unit norm."""
    b = _complex(draw, (1,))[0]
    hypothesis.assume(abs(b) > 1e-3)
    u = _unitary(draw, 2)
    n = u @ np.array([[0.0, b], [0.0, 0.0]]) @ u.conj().T
    return n / np.linalg.norm(n, 2), u


@st.composite
def permuted_direct_sum(draw):
    """Random complex blocks of size 1, 2 and 3 in a random symmetric permutation,
    scaled to ||A|| up to 1e3 with spectral abscissa capped at 30."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n = sum(sizes)
    h = np.zeros((n, n), dtype=complex)
    at = 0
    for k in sizes:
        h[at:at + k, at:at + k] = _complex(draw, (k, k))
        at += k
    perm = np.array(draw(st.permutations(range(n))))
    h = h[perm][:, perm]
    norm = np.linalg.norm(h, 2)
    hypothesis.assume(norm > 1e-3)
    s = draw(st.floats(1e-2, 1e3)) / norm
    growth = s * np.max(np.linalg.eigvals(h).real)
    return s * h * (30.0 / growth if growth > 30.0 else 1.0), [len(b) for b in stack_blocks(h)]


@st.composite
def hurwitz_stack(draw):
    """``w M / margin`` over a few panel widths w, M = i omega H - mu I with H
    of real spectrum, 2x2 or a permuted 2 + 2 direct sum: the oracle's stacks."""
    m = draw(st.sampled_from([2, 4]))
    h = np.zeros((m, m), dtype=complex)
    for at in range(0, m, 2):
        v = _unitary(draw, 2) @ (np.eye(2) + 0.5 * np.triu(_complex(draw, (2, 2)), 1))
        lam = np.array(draw(st.lists(_part, min_size=2, max_size=2)))
        h[at:at + 2, at:at + 2] = v @ np.diag(lam) @ np.linalg.inv(v)
    perm = np.array(draw(st.permutations(range(m))))
    omega, mu = draw(st.floats(1.0, 1e3)), draw(st.floats(0.5, 5.0))
    gen = 1j * omega * h[perm][:, perm] - mu * np.eye(m)
    scaled = gen / -np.max(np.linalg.eigvals(gen).real)
    widths = np.array(draw(st.lists(st.floats(1e-2, 20.0), min_size=1, max_size=5)))
    return widths[:, None, None] * scaled


@_settings
@hypothesis.given(permuted_direct_sum())
def test_permuted_direct_sum_matches_scipy(case):
    a, sizes = case
    assert max(sizes) <= 3
    got = expm_batched(a, stack_blocks(a))
    # the exponential of a direct sum is the direct sum of the exponentials
    coupled = np.zeros(a.shape, dtype=bool)
    for idx in stack_blocks(a):
        coupled[idx[:, None], idx] = True
    assert np.all(got[~coupled] == 0.0)
    _check(a, expm(a), 32.0 * _U * (1.0 + np.linalg.norm(a, 2)))


@_settings
@hypothesis.given(hurwitz_stack())
def test_hurwitz_stack_matches_scipy(a):
    _check(a, expm(a), 32.0 * _U * (1.0 + np.linalg.norm(a, 2, axis=(-2, -1))))


@_settings
@hypothesis.given(st.data(), st.floats(-3.0, 1.0), st.floats(-50.0, 50.0), st.floats(-2.0, 3.0))
def test_scalar_plus_nilpotent_is_exact(data, re_mu, im_mu, log_norm):
    # K != 0 with delta = 0: sinc(0) = 1 carries the whole nilpotent part
    n, _ = _nilpotent(data.draw)
    mu = complex(re_mu, im_mu)
    a = mu * np.eye(2) + 10.0**log_norm * n
    exact = np.exp(mu) * (np.eye(2) + 10.0**log_norm * n)
    _check(a, exact, 4.0 * _U * (1.0 + np.linalg.norm(a, 2)) ** 2)


@_settings
@hypothesis.given(st.data(), st.floats(-3.0, 1.0), st.floats(-5.0, 5.0), st.floats(-2.0, 2.0),
                  st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
def test_tiny_split_matches_scipy(data, re_mu, im_mu, log_norm, delta):
    n, u = _nilpotent(data.draw)
    a = complex(re_mu, im_mu) * np.eye(2) + 10.0**log_norm * n \
        + delta * u @ np.diag([1.0, -1.0]) @ u.conj().T
    _check(a, expm(a), 32.0 * _U * (1.0 + np.linalg.norm(a, 2)))


def test_rotated_nilpotent_at_large_scale_matches_mpmath():
    # i s H with H a rotated nilpotent and s ||H|| = 1e4: the squarings
    # dominate, and the closed core stays within the Pade core's error
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    errs = []
    for _ in range(40):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a = 1e4j * u @ np.array([[0.0, 1.0], [0.0, 0.0]]) @ u.conj().T
        with mp.workdps(40):
            exact = np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=complex)
        errs.append((_rel(expm_batched(a, stack_blocks(a)), exact), _rel(_pade_path(a), exact)))
    closed, pade = np.array(errs).T
    assert np.all(closed <= 16.0 * _U * 1e8) and np.all(pade <= 16.0 * _U * 1e8)
    assert np.max(closed) <= 1.5 * np.max(pade)
