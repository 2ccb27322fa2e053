"""Randomized properties of the batched Lyapunov kernel.

2 x 2: the closed-form solve against the Kronecker solve.

M = U T U* with T upper triangular, a random unitary U and a scale
10^[-2, 3].  T's eigenvalues are Hurwitz (Re in [-3, -0.3], Im in [-5, 5])
and its coupling reaches 10, so M is non-normal.  Near-Jordan draws put the
second eigenvalue within 1e-12 to 1e-4 of the first; nilpotent draws are
``-alpha I + i beta N``, the form of wave_t2's node at t = 0.

Both the agreement and the residual are held to 1e-12 (relative to R and
to s), times cond(K) / 1e3 where the condition number of the Kronecker
operator K exceeds 1e3.  A backward-stable solve's residual grows with it:
on these draws the Kronecker solve's own residual reaches 9.6e-13 s at
cond(K) = 9.8e3.

4 x 4: the Kronecker solve on general Hurwitz matrices, built the same way
from a random upper-triangular T, and the per-block solve on direct sums of
two 2 x 2 draws, the layout of block_direct_sum.  Each R is held to the
same residual bound, to hermitian positive definiteness, and to the
quadrature oracle within 1e-6, the tolerance of criterion 01.

Block-diagonal stacks (2 + 2, 1 + 3, 2 + 1 + 1 and the permuted
{0, 2} + {1, 3}): the per-block solve on the planted partition against the
Kronecker solve of the whole matrix, within 1e-12 relative, and exactly zero
off the blocks and exactly hermitian.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym import symmetrizer  # noqa: E402
from hypersym.presets import get_preset  # noqa: E402
from hypersym.symmetrizer import (  # noqa: E402
    _lyap_2x2,
    _lyap_kron,
    _lyap_node_bytes,
    _lyap_solve_batch,
    quadrature_R,
)
from support import stack_blocks  # noqa: E402

_settings = hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                                database=None)


def _phase(draw):
    return np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))


@st.composite
def hurwitz_2x2(draw):
    kind = draw(st.sampled_from(["general", "near_jordan", "nilpotent"]))
    beta = 10.0 ** draw(st.floats(-2.0, 1.0)) * _phase(draw)
    if kind == "nilpotent":
        alpha = draw(st.floats(0.3, 3.0))
        t_mat = np.array([[-alpha, 1j * beta], [0.0, -alpha]])
    else:
        lam0 = -draw(st.floats(0.3, 3.0)) + 1j * draw(st.floats(-5.0, 5.0))
        lam1 = (lam0 + 10.0 ** draw(st.floats(-12.0, -4.0)) * _phase(draw)
                if kind == "near_jordan"
                else -draw(st.floats(0.3, 3.0)) + 1j * draw(st.floats(-5.0, 5.0)))
        t_mat = np.array([[lam0, beta], [0.0, lam1]])
    g = np.array([[draw(st.floats(-1.0, 1.0)) + 1j * draw(st.floats(-1.0, 1.0))
                   for _ in range(2)] for _ in range(2)])
    u, _ = np.linalg.qr(g + 2.0 * np.eye(2))
    scale = 10.0 ** draw(st.floats(-2.0, 3.0))
    return scale * (u @ t_mat @ u.conj().T), scale * draw(st.floats(0.1, 10.0))


@st.composite
def hurwitz_4x4(draw):
    if draw(st.booleans()):  # two decoupled blocks, one rhs scale
        (m1, s), (m2, _) = draw(hurwitz_2x2()), draw(hurwitz_2x2())
        m_mat = np.zeros((4, 4), dtype=complex)
        m_mat[:2, :2], m_mat[2:, 2:] = m1, m2
        return m_mat, s
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eigs = -rng.uniform(0.3, 3.0, 4) + 1j * rng.uniform(-5.0, 5.0, 4)
    coupling = 10.0 ** draw(st.floats(-2.0, 1.0))
    t_mat = np.diag(eigs) + coupling * np.triu(
        rng.uniform(-1.0, 1.0, (4, 4)) + 1j * rng.uniform(-1.0, 1.0, (4, 4)), 1)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    scale = 10.0 ** draw(st.floats(-2.0, 3.0))
    return scale * (u @ t_mat @ u.conj().T), scale * draw(st.floats(0.1, 10.0))


def _kron_condition(m_mat):
    eye = np.eye(m_mat.shape[-1])
    return np.linalg.cond(np.kron(m_mat.conj().T, eye) + np.kron(eye, m_mat.T))


@_settings
@hypothesis.given(hurwitz_2x2())
def test_closed_form_matches_kronecker(case):
    m_mat, s = case
    r = _lyap_solve_batch(m_mat[None], np.array([s]), stack_blocks(m_mat))[0]
    ref = _lyap_kron(m_mat[None], np.array([s]))[0]
    ref = (ref + ref.conj().T) / 2.0
    slack = max(1.0, _kron_condition(m_mat) / 1e3)
    assert np.linalg.norm(r - ref, 2) <= 1e-12 * slack * np.linalg.norm(ref, 2)
    assert np.array_equal(r, r.conj().T)
    assert np.min(np.linalg.eigvalsh(r)) > 0.0
    resid = m_mat.conj().T @ r + r @ m_mat + s * np.eye(2)
    assert np.linalg.norm(resid, 2) <= 1e-12 * slack * s


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(hurwitz_4x4())
def test_four_by_four_residual_positivity_and_quadrature(case):
    m_mat, s = case
    blocks = stack_blocks(m_mat)
    r = _lyap_solve_batch(m_mat[None], np.array([s]), blocks)[0]
    slack = max(1.0, _kron_condition(m_mat) / 1e3)
    resid = m_mat.conj().T @ r + r @ m_mat + s * np.eye(4)
    assert np.linalg.norm(resid, 2) <= 1e-12 * slack * s
    assert np.array_equal(r, r.conj().T)
    assert np.min(np.linalg.eigvalsh(r)) > 0.0
    quad = quadrature_R(m_mat, s, blocks)
    assert np.linalg.norm(quad - r, 2) <= 1e-6 * np.linalg.norm(r, 2)


def test_chunks_and_kernel_choice(monkeypatch):
    # chunking by the byte budget leaves every node's R unchanged; 2x2
    # stacks take the closed form and other sizes the Kronecker solve
    rng = np.random.default_rng(45)
    m2 = rng.normal(size=(7, 3, 2, 2)) + 1j * rng.normal(size=(7, 3, 2, 2)) - 4.0 * np.eye(2)
    s2 = rng.uniform(0.5, 2.0, size=(7, 3))
    blocks2 = stack_blocks(m2)
    whole = _lyap_solve_batch(m2, s2, blocks2)
    calls = []

    def counting(part, rhs):
        calls.append(len(part))
        return _lyap_2x2(part, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(symmetrizer, "_lyap_2x2", counting)
        patch.setattr(symmetrizer, "_BLOCK_BYTES", 4 * _lyap_node_bytes(blocks2))
        assert np.array_equal(_lyap_solve_batch(m2, s2, blocks2), whole)
    assert calls == [4, 4, 4, 4, 4, 1]  # 21 nodes in chunks of 4
    single = np.array([[_lyap_solve_batch(m2[i, j][None], s2[i, j:j + 1], blocks2)[0]
                        for j in range(3)] for i in range(7)])
    assert np.array_equal(single, whole)
    m4 = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4)) - 6.0 * np.eye(4)
    s4 = rng.uniform(0.5, 2.0, size=5)
    ref4 = _lyap_kron(m4, s4)
    assert np.array_equal(_lyap_solve_batch(m4, s4, stack_blocks(m4)),
                          (ref4 + ref4.conj().transpose(0, 2, 1)) / 2.0)
    # the chunks follow the stack's m and its costliest group of equal blocks:
    # block_direct_sum's 2 + 2 takes two 2x2 closed forms, not the 4x4
    # Kronecker solve
    direct_sum = get_preset("block_direct_sum").coeffs.blocks
    assert _lyap_node_bytes(blocks2) == 48 * 2**2 + 400
    assert _lyap_node_bytes(direct_sum) == 48 * 4**2 + 2 * 400
    assert _lyap_node_bytes(stack_blocks(m4)) == 48 * 4**2 + 64 * 4**4 + 128


@pytest.mark.parametrize("parts", [[[0, 1], [2, 3]], [[0], [1, 2, 3]], [[0, 1], [2], [3]],
                                   [[0, 2], [1, 3]]], ids=["2+2", "1+3", "2+1+1", "02+13"])
def test_per_block_solve_matches_kronecker(parts):
    rng = np.random.default_rng(46)
    n_nodes = 6
    m_stack = np.zeros((n_nodes, 4, 4), dtype=complex)
    coupled = np.zeros((4, 4), dtype=bool)
    for part in parts:
        idx = np.array(part)
        shape = (n_nodes, len(idx), len(idx))
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        margin = np.max(np.linalg.eigvals(x).real, axis=-1) + rng.uniform(0.3, 3.0, n_nodes)
        m_stack[:, idx[:, None], idx] = x - margin[:, None, None] * np.eye(len(idx))
        coupled[idx[:, None], idx] = True
    m_stack *= 10.0 ** rng.uniform(-2.0, 3.0, (n_nodes, 1, 1))
    rhs = rng.uniform(0.1, 10.0, n_nodes)
    blocks = [np.array(part) for part in parts]
    assert sorted(map(list, stack_blocks(m_stack))) == sorted(parts)
    r = _lyap_solve_batch(m_stack, rhs, blocks)
    ref = _lyap_kron(m_stack, rhs)
    ref = (ref + ref.conj().transpose(0, 2, 1)) / 2.0
    assert np.all(np.linalg.norm(r - ref, 2, axis=(-2, -1))
                  <= 1e-12 * np.linalg.norm(ref, 2, axis=(-2, -1)))
    assert np.all(r[:, ~coupled] == 0.0)
    assert np.array_equal(r, r.conj().transpose(0, 2, 1))
