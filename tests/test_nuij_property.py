"""Randomized property: Nuij splitting separates roots by at least c(m) |s|."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym.rootsplit import expand_roots, nuij_constant, nuij_split  # noqa: E402


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
