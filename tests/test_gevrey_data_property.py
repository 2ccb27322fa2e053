"""The synthesized data keeps its Gevrey certificate.

``solver.gevrey_data`` draws amplitudes ``e^{-c0 <xi>^(1/s)}`` with random
phases.  The certificate ``|g_hat| <= e^{-c0 <xi>^(1/s)}`` on the lattice,
up to ``support.CERT_SLACK``, is its oracle: over lattices of 2 to 4096
modes, 1 to 8 components, rates whose amplitudes underflow, and seeds, and
on the data that a solve or study synthesizes for every preset.
"""

import pytest

from hypersym import runner
from hypersym.presets import preset_names
from hypersym.solver import gevrey_data
from support import gevrey_certificate_holds

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                                database=None)
_LATTICES = st.sampled_from([2**k for k in range(1, 13)])
_SEEDS = st.integers(0, 2**32)


@_SETTINGS
# every amplitude but xi = 0's underflows, and then that one too
@hypothesis.example(n_x=4096, m=2, s=0.25, c0=200.0, seed=0)
@hypothesis.example(n_x=1024, m=8, s=0.5, c0=800.0, seed=3)
@hypothesis.given(n_x=_LATTICES, m=st.integers(1, 8), s=st.floats(0.2, 20.0),
                  c0=st.floats(1e-3, 1e3), seed=_SEEDS)
def test_gevrey_data_keeps_its_certificate(n_x, m, s, c0, seed):
    g = gevrey_data(n_x, m, s, c0, seed=seed)
    assert g.shape == (m, n_x)
    assert gevrey_certificate_holds(g, s, c0)


@_SETTINGS
@hypothesis.given(preset=st.sampled_from(preset_names()), n_x=_LATTICES, seed=_SEEDS)
def test_solve_setup_data_keeps_its_certificate(preset, n_x, seed):
    cfg = runner.validate_config({"command": "solve", "schema_version": "1", "preset": preset,
                                  "seed": seed, "n_lattice": n_x})
    problem = runner._solve_setup(cfg)[2]
    assert gevrey_certificate_holds(problem.g, problem.gevrey_s, problem.gevrey_c0)
