"""Randomized property: the closed-form 2x2 Lyapunov solve against the Kronecker solve.

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
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym import symmetrizer  # noqa: E402
from hypersym.symmetrizer import _lyap_kron, _lyap_solve_batch  # noqa: E402

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


def _kron_condition(m_mat):
    eye = np.eye(2)
    return np.linalg.cond(np.kron(m_mat.conj().T, eye) + np.kron(eye, m_mat.T))


@_settings
@hypothesis.given(hurwitz_2x2())
def test_closed_form_matches_kronecker(case):
    m_mat, s = case
    r = _lyap_solve_batch(m_mat[None], np.array([s]))[0]
    ref = _lyap_kron(m_mat[None], np.array([s]))[0]
    ref = (ref + ref.conj().T) / 2.0
    slack = max(1.0, _kron_condition(m_mat) / 1e3)
    assert np.linalg.norm(r - ref, 2) <= 1e-12 * slack * np.linalg.norm(ref, 2)
    assert np.array_equal(r, r.conj().T)
    assert np.min(np.linalg.eigvalsh(r)) > 0.0
    resid = m_mat.conj().T @ r + r @ m_mat + s * np.eye(2)
    assert np.linalg.norm(resid, 2) <= 1e-12 * slack * s


def test_chunks_and_kernel_choice(monkeypatch):
    # chunking leaves every node's R unchanged; 2x2 stacks take the closed
    # form and other sizes the Kronecker solve
    rng = np.random.default_rng(45)
    m2 = rng.normal(size=(7, 3, 2, 2)) + 1j * rng.normal(size=(7, 3, 2, 2)) - 4.0 * np.eye(2)
    s2 = rng.uniform(0.5, 2.0, size=(7, 3))
    whole = _lyap_solve_batch(m2, s2)
    monkeypatch.setattr(symmetrizer, "_LYAP_CHUNK", 4)
    assert np.array_equal(_lyap_solve_batch(m2, s2), whole)
    single = np.array([[_lyap_solve_batch(m2[i, j][None], s2[i, j:j + 1])[0]
                        for j in range(3)] for i in range(7)])
    assert np.array_equal(single, whole)
    m4 = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4)) - 6.0 * np.eye(4)
    s4 = rng.uniform(0.5, 2.0, size=5)
    ref4 = _lyap_kron(m4, s4)
    assert np.array_equal(_lyap_solve_batch(m4, s4), (ref4 + ref4.conj().transpose(0, 2, 1)) / 2.0)
