"""Randomized properties: Nuij splitting separates roots by at least c(m) |s|, and
real rows take the real companion path without moving the roots."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym.rootsplit import (  # noqa: E402
    expand_roots,
    nuij_constant,
    nuij_split,
    polished_roots,
)


@st.composite
def real_rooted_and_s(draw):
    """Degree 2-6 roots in [-3, 3] (repeats allowed) and s of either sign."""
    m = draw(st.integers(2, 6))
    roots = draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))
    s = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return np.sort(roots), s


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(real_rooted_and_s())
def test_nuij_split_separates_roots(case):
    roots, s = case
    m = len(roots)
    res = nuij_split(expand_roots(roots), s)
    assert res.roots.shape == (m,)
    assert np.all(np.diff(res.roots) > 0)
    assert res.min_gap >= nuij_constant(m) * abs(s) - 1e-9


@st.composite
def split_stacks(draw):
    """Split rows of degree 2-12: 1-4 rows of roots in [-spread, spread] for a
    spread in [0, 3] (repeats allowed), and s of either sign."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    spread = draw(st.floats(0.0, 3.0))
    unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=m * n, max_size=m * n))
    s = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return nuij_split(expand_roots(np.sort(spread * np.reshape(unit, (n, m)))), s).coeffs


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(split_stacks())
def test_real_companion_matches_complex_cast(rows):
    # 1e-12 relative per root, or, where a root is conditioned past that, the
    # accuracy the polish can reach there: m u (sum_j |c_j| |r|^j) / |p'(r)|
    m = rows.shape[-1] - 1
    real, ref = polished_roots(rows), polished_roots(rows.astype(complex))
    r = ref.real[..., None]
    size = np.sum(np.abs(rows[:, None, :]) * np.abs(r) ** np.arange(m + 1), axis=-1)
    slope = np.abs(np.sum(rows[:, None, 1:] * np.arange(1, m + 1) * r ** np.arange(m), axis=-1))
    cond = m * np.finfo(float).eps * size / slope
    assert np.all(np.abs(real - ref) <= np.maximum(1e-12 * np.abs(ref), 2.0 * cond))
