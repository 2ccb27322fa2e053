"""Randomized property: the quadrature oracle reproduces the Lyapunov solve."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym.symmetrizer import _lyap_solve_batch, quadrature_R  # noqa: E402
from support import stack_blocks  # noqa: E402

_part = st.floats(-2.0, 2.0)


@st.composite
def hurwitz_triangular(draw):
    """Diagonal with Re in [-3, -0.3] plus a random strictly upper part."""
    m = draw(st.integers(1, 4))
    re = draw(st.lists(st.floats(-3.0, -0.3), min_size=m, max_size=m))
    im = draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
    n_up = m * (m - 1) // 2
    up_re = draw(st.lists(_part, min_size=n_up, max_size=n_up))
    up_im = draw(st.lists(_part, min_size=n_up, max_size=n_up))
    mat = np.diag(np.array(re) + 1j * np.array(im))
    mat[np.triu_indices(m, 1)] = np.array(up_re) + 1j * np.array(up_im)
    return mat, draw(st.floats(0.1, 10.0))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(hurwitz_triangular())
def test_quadrature_matches_lyapunov(case):
    m_mat, rhs = case
    blocks = stack_blocks(m_mat)
    quad = quadrature_R(m_mat, rhs, blocks)
    ref = _lyap_solve_batch(m_mat[None], np.array([rhs]), blocks)[0]
    scale = np.linalg.norm(ref, 2)
    assert np.linalg.norm(quad - ref, 2) <= 1e-6 * scale
    assert np.linalg.norm(quad - quad.conj().T, 2) <= 1e-12 * scale
    assert np.min(np.linalg.eigvalsh(quad)) > 0.0
