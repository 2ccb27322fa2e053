"""Problem-bank self-consistency gates."""

import math

import numpy as np
import pytest

from hypersym import runner
from hypersym.matkernel import (THETA_SCALES, certify_real_spectrum, estimate_theta,
                                spectral_bound_certify)
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


@pytest.mark.parametrize("name", preset_names())
def test_calibration_certifies_once(name):
    # calibrate certifies the spectral bound once, over the 9 scales of c and
    # of the theta fits' c_hat; each maximum read from that table is its own
    # certificate's, bit for bit
    pre = get_preset(name)
    ts, xs = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
    joint = spectral_bound_certify(pre.coeffs, ts, xs, (1.0, -1.0),
                                   np.union1d(runner._C_SCALES, THETA_SCALES))
    assert len(joint.table) == 9
    own_c = spectral_bound_certify(pre.coeffs, ts, xs, (1.0, -1.0), runner._C_SCALES)
    own_theta = spectral_bound_certify(pre.coeffs, ts, xs, (1.0,), THETA_SCALES)
    assert joint.max_ratio_over(runner._C_SCALES, (1.0, -1.0)) == own_c.max_ratio
    assert joint.max_ratio_over(THETA_SCALES, (1.0,)) == own_theta.max_ratio
    assert runner.calibrate(pre.coeffs, pre.theta).c == max(1.05 * own_c.max_ratio, 0.5)
    eps = np.geomspace(5e-3, 0.5, 7)
    shared = estimate_theta(pre.coeffs, eps, t_values=ts, x_values=xs, cert=joint)
    alone = estimate_theta(pre.coeffs, eps, t_values=ts, x_values=xs)
    assert shared.upper_fit == alone.upper_fit and shared.lower_fit == alone.lower_fit
    assert (shared.theta_hat, shared.theta_raw) == (alone.theta_hat, alone.theta_raw)


def test_calibration_halves_eps0_until_the_declared_theta_fits():
    # xdep's fits read theta 0; declared theta 1, none of the three fits
    # agrees, and eps0 is halved after each, from 0.5 to 0.0625
    cal = runner.calibrate(get_preset("xdep").coeffs, theta=1)
    assert cal.theta == 1 and cal.eps0 == 0.0625


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        get_preset("nope")


def test_holder_preset_certificate():
    pre = get_preset("holder_k")
    assert pre.coeffs.t_regularity == "holder"
    assert pre.coeffs.kappa == 0.5
    ratio = holder_ratio(pre.coeffs, 0.0, 2.0, n=300)
    assert 0 < ratio < 10.0
