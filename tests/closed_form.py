"""Exact solutions: closed-form solution operators of x-independent presets,
mode by mode, and diagonal x-dependent transports by characteristics.

wave_t2 has A(t) = [[0, t^2], [1, 0]] and B = 0.  Under a cutoff chi its
mode xi evolves by u' = i kappa A(t) u with kappa = chi^2(h xi) xi, so
u2'' + kappa^2 t^2 u2 = 0 and u1 = u2' / (i kappa).  DLMF 10.13.1 solves it
with Bessel functions of z = |kappa| t^2 / 2; normalized at t = 0,

    y_a = Gamma(3/4) (|kappa|/4)^(1/4) sqrt(t) J_{-1/4}(z),   y_a(0) = 1,
    y_b = Gamma(5/4) (|kappa|/4)^(-1/4) sqrt(t) J_{1/4}(z),   y_b'(0) = 1,

and, from J_nu' = J_{nu-1} - (nu/z) J_nu = -J_{nu+1} + (nu/z) J_nu,

    y_a' = -Gamma(3/4) (|kappa|/4)^(1/4) |kappa| t^(3/2) J_{3/4}(z),
    y_b' = Gamma(5/4) (|kappa|/4)^(-1/4) |kappa| t^(3/2) J_{-3/4}(z).

So u2(t) = y_a u2(0) + i kappa y_b u1(0) and u1(t) = y_b' u1(0)
+ y_a' u2(0) / (i kappa).  Where z = 0 (t = 0, or kappa = 0, where u' = 0)
the operator is the identity.  ``scipy.special.jv`` is used throughout: at
the orders +-1/4 and +-3/4 and 0 < z <= 400 it is within 4.2e-14 of its
envelope against 30-digit mpmath, and these lattices reach z = 196
(n_lattice 1024, t = 0.875), so no digits need mpmath.

A diagonal system u_t = diag(c_1, ..., c_m)(t, x) u_x with B = 0 splits into
scalar transports, each constant along dx/dt = -c_k(t, x).  So
u_k(t, x) = u_k(0, Y(t)), where Y is the foot of the characteristic through
x at time t: dY/dsigma = c_k(t - sigma, Y), Y(0) = x.  The feet come from
``solve_ivp`` (DOP853, rtol 1e-13) on a grid ``oversample`` times the
lattice's, the data's trig series is summed at them, and an FFT of those
values gives the lattice state; what the grid aliases onto the lattice's
modes is of the size of the solution's spectrum past |xi| = oversample n_x/2.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gamma, jv

from hypersym.engine import lattice


def wave_t2_operator(kappa, t) -> np.ndarray:
    """U(t) of wave_t2's mode equation u' = i kappa A(t) u: (..., 2, 2) over
    the broadcast shape of ``kappa`` and ``t`` (t >= 0), acting on (u1, u2)."""
    kappa, t = np.broadcast_arrays(np.asarray(kappa, dtype=float), np.asarray(t, dtype=float))
    k = np.abs(kappa)
    z = k * t**2 / 2.0
    moving = z > 0
    # off the moving modes any finite k and z stand in; their U is I below
    k, t, z = (np.where(moving, v, 1.0) for v in (k, t, z))
    ca, cb = gamma(0.75) * (k / 4.0) ** 0.25, gamma(1.25) * (k / 4.0) ** -0.25
    ya, yb = ca * np.sqrt(t) * jv(-0.25, z), cb * np.sqrt(t) * jv(0.25, z)
    dya, dyb = -ca * k * t**1.5 * jv(0.75, z), cb * k * t**1.5 * jv(-0.75, z)
    ik = 1j * np.where(moving, kappa, 1.0)
    u = np.stack([np.stack([dyb, dya / ik], axis=-1),
                  np.stack([ik * yb, ya + 0j], axis=-1)], axis=-2)
    return np.where(moving[..., None, None], u, np.eye(2))


def diagonal_transport(speeds, u0: np.ndarray, times, oversample: int = 8) -> np.ndarray:
    """Exact lattice states (len(times), m, n_x) of u_t = diag(c_k)(t, x) u_x
    at the ``times`` > 0 from the lattice state u0 (m, n_x), by
    characteristics; ``speeds`` holds the m functions c_k(t, x), each
    vectorized in x."""
    m, n_x = u0.shape
    grid = 2.0 * np.pi * np.arange(oversample * n_x) / (oversample * n_x)
    xi = lattice(n_x)
    out = np.empty((len(times), m, n_x), dtype=complex)
    for i, t in enumerate(times):
        for k, c in enumerate(speeds):
            feet = solve_ivp(lambda sigma, y: c(t - sigma, y), (0.0, t), grid, method="DOP853",
                             rtol=1e-13, atol=1e-13).y[:, -1]
            values = np.exp(1j * np.outer(feet, xi)) @ u0[k]
            out[i, k] = np.fft.fft(values)[xi.astype(int) % grid.size] / grid.size
    return out
