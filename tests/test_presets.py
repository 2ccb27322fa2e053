"""Problem-bank self-consistency gates."""

import math

import numpy as np
import pytest

from hypersym.matkernel import certify_real_spectrum, estimate_theta
from hypersym.presets import get_preset, preset_names
from support import holder_ratio


@pytest.mark.parametrize("name", preset_names())
def test_bank_real_spectrum(name):
    pre = get_preset(name)
    rep = certify_real_spectrum(
        pre.coeffs,
        np.linspace(0.0, 1.0, 4),
        np.linspace(0.0, 2 * math.pi, 5, endpoint=False),
        [1.0, -1.0, 2.0],
    )
    assert rep.passed, f"{name}: max Im = {rep.max_imag}"


@pytest.mark.parametrize("name", preset_names())
def test_bank_declared_theta_matches_estimator(name):
    pre = get_preset(name)
    te = estimate_theta(
        pre.coeffs,
        np.geomspace(1e-3, 1e-1, 7),
        t_values=np.linspace(0.0, 1.0, 4),
        x_values=np.linspace(0.0, 2 * math.pi, 4, endpoint=False),
    )
    assert te.theta_hat == pre.theta, (
        f"{name}: declared {pre.theta}, estimated {te.theta_hat} "
        f"(raw {te.theta_raw:.3f})"
    )


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        get_preset("nope")


def test_holder_preset_certificate():
    pre = get_preset("holder_k")
    assert pre.coeffs.t_regularity == "holder"
    assert pre.coeffs.kappa == 0.5
    ratio = holder_ratio(pre.coeffs, 0.0, 2.0, n=300)
    assert 0 < ratio < 10.0
