"""Property: every plan a calibration yields is admissible, or refused by name.

Each example draws a calibration (c in [0.5, 3], a0 in [0, 3], eps0 = 2^-k,
theta in 0..3), a mode (Hoelder at a kappa in (0, 1) drawn as a fraction or
as a float) and an ell cap, or none.  ``run_params`` must either plan
parameters that meet every constraint exactly against the drawn constants,
or refuse, by name, a cap whose weight window holds no ``a >= a0 + 1`` or an
uncapped template whose ell leaves the double range (kappa near 0).

The ``plan`` command's threshold is the paper's reciprocal of rho: at any
theta up to 400 and any kappa = p/q in (0, 1) with q <= 1000, it equals the
reference s0, or the plan is refused as beyond the double range.
"""

from fractions import Fraction

import pytest

from hypersym.errors import ConfigError
from hypersym.planner import validate_params
from hypersym.runner import Calibration, run, run_params
from support import s0_holder_reference, s0_lipschitz_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_calibrations = st.builds(
    Calibration,
    c=st.floats(0.5, 3.0),
    a0=st.floats(0.0, 3.0),
    eps0=st.integers(0, 6).map(lambda k: 2.0**-k),
    theta=st.integers(0, 3),
)
_modes = st.one_of(
    st.tuples(st.just("lipschitz"), st.none()),
    st.tuples(st.just("holder"), st.one_of(
        st.fractions(0, 1, max_denominator=1000).filter(lambda k: 0 < k < 1),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
)
_caps = st.one_of(st.none(), st.floats(4.0, 2.0**12))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.example(cal=Calibration(c=1.0500000000000698, a0=0.24902723735406868, eps0=0.5,
                                    theta=1),
                    mode_kappa=("lipschitz", None), ell_max=64.0)  # wave_x2 at study-h's cap
@hypothesis.given(cal=_calibrations, mode_kappa=_modes, ell_max=_caps)
def test_run_params_is_admissible_or_refused(cal, mode_kappa, ell_max):
    mode, kappa = mode_kappa
    try:
        params = run_params(cal, mode, kappa, ell_max)
    except ConfigError as exc:
        if ell_max is None:
            assert str(exc).endswith("the planned parameters are beyond the double range"), exc
        else:
            assert str(exc).startswith("cannot satisfy a >= a0+1"), exc
        return
    a0 = max(cal.a0, 1.0) if ell_max is None else cal.a0
    assert (params.c_spec, params.a0, params.eps0) == (cal.c, a0, cal.eps0)
    assert validate_params(params) == []
    if ell_max is not None:
        assert params.ell == ell_max


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(theta=st.integers(0, 400), kappa=st.one_of(
    st.none(), st.fractions(0, 1, max_denominator=1000).filter(lambda k: 0 < k < 1)))
def test_plan_threshold_is_the_reference_or_refused(theta, kappa):
    config = {"command": "plan", "schema_version": "1", "theta": theta}
    if kappa is not None:
        config.update(mode="holder", kappa=str(kappa))
    try:
        status, doc = run(config)
    except ConfigError as exc:
        assert "beyond the double range" in str(exc), exc
        return
    want = s0_lipschitz_reference(theta) if kappa is None else s0_holder_reference(theta, kappa)
    assert status == 0 and Fraction(doc["s0"]) == want
