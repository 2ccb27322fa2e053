"""Properties of a multi-cutoff solve over the preset bank: linearity and reality.

Each example draws a preset, a lattice and one to three cutoffs from
{0} and [1/n_x, 1/ell], and evolves them together in one solve.  The
truncated generator is linear, so data scaled by 2.5 gives states scaled by
2.5 up to rounding.  The presets' coefficients are real, so real data (a
conjugate-symmetric state) stays real.  The lattice's mode -n_x/2 has no
mirror, and on a band that reaches it an x-harmonic moves the modes next to
it there; so the data decays (c0 = 4, s = 1.5) to below 1e-17 at
|xi| = 31, and what reaches that mode stays far below the tolerance.
"""

import numpy as np
import pytest

from hypersym.presets import get_preset, preset_names
from hypersym.solver import CauchyProblem, gevrey_data, solve_cauchy
from hypersym.symmetrizer import ParameterSet
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
    r1 = solve_cauchy(prob, _PARAMS, cutoffs, stride=8, track_energy=False)
    r2 = solve_cauchy(scaled, _PARAMS, cutoffs, stride=8, track_energy=False)
    assert r2.states.shape == (len(cutoffs),) + r1.states.shape[1:]
    assert np.max(np.abs(r2.states - 2.5 * r1.states)) <= 1e-12 * max(
        1.0, np.max(np.abs(r2.states)))


@_SETTINGS
@hypothesis.given(multi_cutoff_problems())
def test_reality_preserved(case):
    prob, cutoffs = case
    assert is_conjugate_symmetric(prob.g)
    res = solve_cauchy(prob, _PARAMS, cutoffs, stride=8, track_energy=False)
    for states in res.states:
        assert is_conjugate_symmetric(states[-1], tol=1e-12)
