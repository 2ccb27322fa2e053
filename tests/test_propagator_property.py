"""Property: one precomputed RK4 propagator step is one reference RK4 step.

``BandPropagator`` forms a step as a banded matrix from the generator's word
table.  The reference is the allocating RK4 step over
``TruncatedGenerator.apply``, with the generator's matrix at each stage time.  The systems are drawn with m in {1, 2, 3},
x-harmonics up to K in {0, 1, 2}, one to three time terms, eps_par >= 0 and
dt lam up to 2.5, on bands both wider and narrower than the 2W + 1 colours of
the probing (narrower, every mode has a colour of its own).  The propagator
is called directly, whatever the solver's size rule would pick.
"""

import numpy as np
import pytest

from hypersym.coeffs import CoeffTerm, MatrixField, SystemCoefficients
from hypersym.solver import BandPropagator, TruncatedGenerator
from support import allocating_rhs, rk4_step

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_T_TERMS = ("1", "t", "t^2", "|t|^0.5", "lacunary(0.5,6)")


@st.composite
def band_steps(draw):
    """(generator, dt, step index, band state), the generator's band being
    its whole lattice (h = 0) or a cutoff band."""
    m = draw(st.sampled_from([1, 2, 3]))
    k_max = draw(st.sampled_from([0, 1, 2]))
    t_terms = draw(st.lists(st.sampled_from(_T_TERMS), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field():
        terms = [CoeffTerm(k, tt, rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
                 for k in range(-k_max, k_max + 1) for tt in t_terms if rng.random() < 0.7]
        return MatrixField(m, terms)

    coeffs = SystemCoefficients(m=m, a_field=field(), b_field=field())
    n_x = draw(st.sampled_from(range(1, 25)))
    h = draw(st.sampled_from([0.0, 1.0 / 8.0]))
    eps_par = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    gen = TruncatedGenerator(coeffs, n_x, h, eps_par)
    lam = max(gen.lam_bound(1.0), 1e-12)
    dt = min(draw(st.floats(0.05, 1.0)) * 2.5 / lam, 1.0)
    k = int(draw(st.floats(0.0, 1.0)) / dt)
    u = rng.normal(size=(m, gen.xi.size)) + 1j * rng.normal(size=(m, gen.xi.size))
    return gen, dt, k, u


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(band_steps())
def test_propagator_step_matches_reference_rk4(case):
    gen, dt, k, u = case
    t = k * dt
    ref = rk4_step(allocating_rhs(gen), u, t, dt)
    width = gen.word_width
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(u, ((0, 0), (width, width))), 2 * width + 1, axis=-1)
    out = np.einsum("dqcs,cqs->dq", BandPropagator(gen, dt).matrices([k])[0], windows)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
