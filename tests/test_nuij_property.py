"""Randomized properties: Nuij splitting separates roots by at least c(m) |s|,
real rows take the real companion path without moving the roots, the
Laguerre roots that the split accepts agree with the companion's, and the
vectorized draw of random real-rooted rows is ``default_rng``'s row by row."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hypersym.rootsplit import (  # noqa: E402
    LAGUERRE_GAP_SHARE,
    expand_roots,
    laguerre_roots,
    nuij_constant,
    nuij_split,
    polished_roots,
    random_real_rooted,
)
from support import random_real_rooted_reference, root_tolerance  # noqa: E402


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
def real_rooted_stacks(draw):
    """1-4 real-rooted rows of degree 2-12, roots in [-spread, spread] for a
    spread in [0, 3] (repeats allowed), and s of either sign."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    spread = draw(st.floats(0.0, 3.0))
    unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=m * n, max_size=m * n))
    s = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return expand_roots(np.sort(spread * np.reshape(unit, (n, m)))), s


def split_stacks():
    """The split rows of :func:`real_rooted_stacks`."""
    return real_rooted_stacks().map(lambda case: nuij_split(*case).coeffs)


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


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(real_rooted_stacks())
def test_laguerre_matches_companion(case):
    # accepted rows: each root within the companion's condition bound, each gap
    # within twice the acceptance share; every other row is the companion's
    res = nuij_split(*case)
    roots, accepted = laguerre_roots(res.coeffs)
    ref = np.sort(polished_roots(res.coeffs).real, axis=-1)
    fast, slow = roots[accepted], ref[accepted]
    assert np.all(np.abs(fast - slow) <= root_tolerance(res.coeffs[accepted], slow))
    gaps, ref_gaps = np.diff(fast, axis=-1), np.diff(slow, axis=-1)
    assert np.all(np.abs(gaps - ref_gaps) <= 2 * LAGUERRE_GAP_SHARE * ref_gaps)
    assert np.array_equal(res.roots[accepted], fast)
    assert np.array_equal(res.roots[~accepted], ref[~accepted])


# seeds in [0, 2^128), half of them within 2 of a word boundary 2^(32 k)
_SEEDS = st.one_of(
    st.builds(lambda k, d: min(max(2 ** (32 * k) + d, 0), 2**128 - 1),
              st.integers(0, 4), st.integers(-2, 2)),
    st.integers(0, 2**128 - 1))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.lists(_SEEDS, min_size=1, max_size=12), st.integers(1, 8),
                  st.one_of(st.just(0.0), st.floats(0.0, 1e300)))
def test_draw_is_default_rng_row_by_row(seeds, m, spread):
    np.testing.assert_array_equal(random_real_rooted(m, spread, seeds),
                                  random_real_rooted_reference(m, spread, seeds))
