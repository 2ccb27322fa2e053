"""Frequency brackets, Gevrey weights and cutoffs.

The parameterized bracket ``<xi>_l = sqrt(l^2 + xi^2)`` is the basic building
block of every weight in the toolkit.  Exponential weights are guarded by a
hard overflow budget: ``tau * <N_x/2>_l^rho`` must stay below
:data:`EXP_BUDGET`; runs must downscale ``tau`` or the lattice, never
silently clip.
"""

from __future__ import annotations

import numpy as np

from hypersym.errors import WeightOverflowError

# Largest |tau <xi>^rho| a Gevrey weight may take.  Within it the weight and
# its inverse, e^500 (about 1.4e217) and e^-500, are normal doubles, with a
# factor e^209 to spare below the largest (about e^709.8).  The norms and
# energies square the weighted state w u, never w alone, so the decay of the
# data keeps them finite.
EXP_BUDGET = 500.0


def bracket(xi, ell: float = 1.0):
    """Parameterized bracket ``sqrt(ell^2 + xi^2)``."""
    xi = np.asarray(xi, dtype=float)
    return np.hypot(xi, ell)


def _smooth_step(u):
    # C-infinity ramp: 0 at u<=0, 1 at u>=1.
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        g = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return f / (f + g)


def smooth_cutoff(r):
    """Even C-infinity plateau cutoff: 1 for |r| <= 1/2, 0 for |r| >= 1."""
    r = np.abs(np.asarray(r, dtype=float))
    return _smooth_step((1.0 - r) / 0.5)


def poly_bump(u):
    """Even polynomial mollifier ``(1-u^2)^4`` normalized to unit mass on [-1, 1]."""
    u = np.asarray(u, dtype=float)
    w = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 4, 0.0)
    return w * (315.0 / 256.0)


def gevrey_weight(xi, tau: float, rho: float, ell: float) -> np.ndarray:
    """Gevrey weight ``exp(tau <xi>_ell^rho)`` on a frequency lattice.

    ``tau`` is a scalar or an array that broadcasts against ``xi``.
    Refuses weights whose exponent leaves the overflow budget, naming the
    tau of the worst one.
    """
    exponent = tau * bracket(xi, ell) ** rho
    worst = float(np.max(np.abs(exponent))) if exponent.size else 0.0
    if worst > EXP_BUDGET:
        tau = np.broadcast_to(tau, exponent.shape).flat[np.argmax(np.abs(exponent))]
        raise WeightOverflowError(
            f"gevrey weight overflow: tau={tau}, rho={rho}, "
            f"ell={ell}, max |tau<xi>^rho| = {worst:.3g} > {EXP_BUDGET}"
        )
    return np.exp(exponent)
