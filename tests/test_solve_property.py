"""Properties of a multi-cutoff solve over the preset bank: linearity and reality.

Each example draws a preset, a lattice and one to three cutoffs from
{0} and [1/n_x, 1/ell], and evolves them together in one solve.  The
truncated generator is linear, so data scaled by 2.5 gives states scaled by
2.5 up to rounding.  The presets' coefficients are real, so real data (a
conjugate-symmetric state) stays real.  The lattice's mode -n_x/2 has no
mirror, and on a band that reaches it an x-harmonic moves the modes next to
it there; so the data decays (c0 = 4, s = 1.5) to below 1e-17 at
|xi| = 31, and what reaches that mode stays far below the tolerance.

The time path of a mollified energy is sampled finely enough, and far enough
past the sample times, for ``mollify_path``, which trusts it: over lattices,
ell, delta, horizons and every subset of the modes that a band may take.
"""

import numpy as np
import pytest

from hypersym.engine import lattice
from hypersym.planner import ParameterSet
from hypersym.presets import get_preset, preset_names
from hypersym.solver import CauchyProblem, gevrey_data, solve_cauchy
from hypersym.symmetrizer import _mollifier_path
from hypersym.weights import bracket
from support import is_conjugate_symmetric

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_ELL = 4.0
_PARAMS = ParameterSet(rho=0.5, a=1.8, ell=_ELL, tau=0.9, T=1.8, c1=0.225,
                       theta=0, a0=0.5, eps0=0.5, c_spec=0.5)


@st.composite
def multi_cutoff_problems(draw):
    """(problem, cutoffs): a bank preset's problem on real Gevrey data and
    one to three cutoffs, repeats allowed."""
    preset = draw(st.sampled_from(preset_names()))
    n_x = draw(st.sampled_from([64, 128]))
    cutoffs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1.0 / n_x, 1.0 / _ELL)),
                            min_size=1, max_size=3))
    coeffs = get_preset(preset).coeffs
    g = gevrey_data(n_x, coeffs.m, 1.5, 4.0, seed=draw(st.integers(0, 2**16)))
    return CauchyProblem(coeffs, g, horizon=0.25), tuple(cutoffs)


_SETTINGS = hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                                database=None)


@_SETTINGS
@hypothesis.given(multi_cutoff_problems())
def test_linearity(case):
    prob, cutoffs = case
    scaled = CauchyProblem(prob.coeffs, 2.5 * prob.g, horizon=prob.horizon)
    r1 = solve_cauchy(prob, _PARAMS, cutoffs)
    r2 = solve_cauchy(scaled, _PARAMS, cutoffs)
    assert len(r2.traces) == len(r1.traces) == len(cutoffs)
    for i in range(len(cutoffs)):
        u1, u2 = r1.lattice_states(i), r2.lattice_states(i)
        assert u2.shape == u1.shape
        assert np.max(np.abs(u2 - 2.5 * u1)) <= 1e-12 * max(1.0, np.max(np.abs(u2)))


@_SETTINGS
@hypothesis.given(multi_cutoff_problems())
def test_reality_preserved(case):
    prob, cutoffs = case
    assert is_conjugate_symmetric(prob.g)
    res = solve_cauchy(prob, _PARAMS, cutoffs)
    for i in range(len(cutoffs)):
        assert is_conjugate_symmetric(res.lattice_states(i)[-1], tol=1e-12)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(n_x=st.sampled_from([2**k for k in range(1, 15)]), paired=st.booleans(),
                  ell=st.floats(1.0, 4096.0), delta=st.floats(0.05, 1.0),
                  horizon=st.floats(1e-3, 10.0), seed=st.integers(0, 2**16))
def test_mollifier_path_steps_finely_and_covers_the_support(n_x, paired, ell, delta, horizon,
                                                            seed):
    # the path is built on the modes a trace reads (xi >= 0 alone when
    # paired), and R is mollified on the band, any non-empty subset of them:
    # its step is at most a quarter of the band's narrowest kernel width
    # <xi>^-delta, and it reaches the widest width before 0 and past horizon,
    # where the sample times start and end
    xi = lattice(n_x)[:n_x // 2 + 1] if paired else lattice(n_x)
    rng = np.random.default_rng(seed)
    band = rng.random(xi.size) < rng.random()
    band[rng.integers(xi.size)] = True
    params = ParameterSet(rho=0.5, a=1.8, ell=ell, tau=0.9, T=1.8, c1=0.225, theta=0,
                          delta=delta)
    ts = _mollifier_path(xi, params, horizon)
    widths = bracket(xi[band], ell) ** -delta
    assert np.max(np.diff(ts)) <= np.min(widths) / 4.0
    assert ts[0] <= -np.max(widths) and ts[-1] >= horizon + np.max(widths)
