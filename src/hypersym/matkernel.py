"""Pointwise matrix analysis of the principal symbol.

Taylor-polynomial symbols in the spatial and frequency directions, a batched
Pade matrix exponential, deterministic small-matrix eigenvalues,
real-spectrum certification, the spatial spectral-bound certificate, and the
block-size barometer (theta) estimator.

All operations are pure functions of their inputs; grid sweeps are
vectorized with deterministic reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hypersym.coeffs import SystemCoefficients
from hypersym.errors import MatrixExpOverflowError
from hypersym.rootsplit import char_poly, polished_roots

# ---------------------------------------------------------------------------
# Symbols


def eval_symbol(coeffs: SystemCoefficients, t: float, x: float, xi: float) -> np.ndarray:
    """Principal symbol A(t, x, xi) = A1(t, x) * xi (one space dimension)."""
    return coeffs.eval_a(t, x) * xi


def taylor_symbol(
    coeffs: SystemCoefficients,
    t: float,
    x: float,
    xi,
    z,
    order: int,
) -> np.ndarray:
    """Taylor polynomial ``sum_{j<=order} (z^j / j!) D_x^j A(t, x) xi``.

    ``D_x = -i d/dx``; with trig-polynomial coefficients every derivative is
    exact and each ``D_x^j A(t, x)`` is evaluated once per call.  ``z`` and
    ``xi`` are arrays (or scalars) that broadcast together; the result has
    their broadcast shape followed by (m, m).  At z = 0 this is exactly the
    symbol A(t, x) xi.  Two conventions cover every caller:

    - frequency direction, ``z = eps xi``: the generator polynomial H_N;
    - spatial direction at the complexified argument ``x + s y``,
      ``z = i s y`` (purely imaginary ``s = i s'`` gives real ``z = -s' y``).
    """
    z = np.asarray(z)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(np.broadcast_shapes(z.shape, xi.shape) + (coeffs.m, coeffs.m), dtype=complex)
    fac = 1.0
    for j in range(order + 1):
        if j > 0:
            fac *= j
        out += ((z**j / fac) * xi)[..., None, None] * coeffs.a_field.dx(t, x, j)
    return out


# ---------------------------------------------------------------------------
# Matrix exponential (scaling and squaring, Pade-13 core, batched)

_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm_batched(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of square matrices (..., m, m).

    Each member is scaled by its own power of two to bring the 1-norm under
    the Pade-13 threshold, then squared back individually.
    """
    a = np.asarray(a, dtype=complex)
    m = a.shape[-1]
    lead = a.shape[:-2]
    a = a.reshape(-1, m, m)
    norm1 = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    with np.errstate(divide="ignore"):
        n_sq = np.where(
            norm1 > _THETA13,
            np.ceil(np.log2(np.maximum(norm1, 1e-300) / _THETA13)),
            0.0,
        ).astype(int)
    a = a / (2.0 ** n_sq)[:, None, None]

    ident = np.broadcast_to(np.eye(m, dtype=complex), a.shape)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    result = np.linalg.solve(v - u, v + u)
    for k in range(int(n_sq.max()) if n_sq.size else 0):
        mask = n_sq > k
        result[mask] = result[mask] @ result[mask]
    return result.reshape(*lead, m, m)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential with overflow refusal.

    Overflow is flagged through the sharp growth bound: the numerical
    abscissa (largest eigenvalue of the hermitian part) must keep
    ``e^{abscissa}`` representable; the crude bound e^{||M||} would wrongly
    refuse well-conditioned stable matrices with large norm.
    """
    m = np.asarray(m, dtype=complex)
    herm = (m + m.conj().T) / 2.0
    abscissa = float(np.max(np.linalg.eigvalsh(herm)))
    if abscissa > 709.0:
        raise MatrixExpOverflowError(
            f"e^M exceeds representable range (numerical abscissa {abscissa:.3g})"
        )
    out = expm_batched(m)
    if not np.all(np.isfinite(out)):
        raise MatrixExpOverflowError("matrix exponential overflowed")
    return out


# ---------------------------------------------------------------------------
# Eigenvalues


def spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues with deterministic ordering (real part, then imaginary).

    For size <= 4 the roots come from the characteristic polynomial via the
    companion matrix with one guarded Newton polish step, for
    reproducibility over generic QR ordering; larger sizes fall back to the
    dense solver with the same ordering.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n > 8:
        raise ValueError("spectrum supports matrices of size <= 8")
    if n <= 4:
        coeffs = char_poly(m)
        return polished_roots(np.asarray(coeffs, dtype=complex))
    vals = np.linalg.eigvals(m)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


# ---------------------------------------------------------------------------
# Certification


@dataclass
class RealSpectrumReport:
    passed: bool
    max_imag: float
    tol_effective: float
    worst_sample: tuple[float, float, float]
    n_samples: int


def certify_real_spectrum(
    coeffs: SystemCoefficients,
    t_values,
    x_values,
    xi_values,
    tol: float = 1e-9,
) -> RealSpectrumReport:
    """Check Spectrum A(t, x, xi) in R over a grid.

    Passes iff ``max |Im eigenvalue| <= tol * (1 + ||A||)`` over the grid;
    the report carries the worst sample.
    """
    worst = (-1.0, (0.0, 0.0, 0.0))
    norm_max = 0.0
    count = 0
    for t in np.atleast_1d(t_values):
        for x in np.atleast_1d(x_values):
            for xi in np.atleast_1d(xi_values):
                a = eval_symbol(coeffs, float(t), float(x), float(xi))
                norm_max = max(norm_max, float(np.linalg.norm(a, 2)))
                im = float(np.max(np.abs(spectrum(a).imag)))
                count += 1
                if im > worst[0]:
                    worst = (im, (float(t), float(x), float(xi)))
    tol_eff = tol * (1.0 + norm_max)
    return RealSpectrumReport(
        passed=bool(worst[0] <= tol_eff),
        max_imag=worst[0],
        tol_effective=tol_eff,
        worst_sample=worst[1],
        n_samples=count,
    )


@dataclass
class SpectralBoundReport:
    """Certificate for |Im zeta| <= C |s| on the spatial Taylor symbol."""

    max_ratio: float
    table: list[tuple[float, float]]  # (s, max |Im zeta| at that s)
    passed: bool
    growth_factor: float
    worst_sample: tuple[float, float, float, float]  # (s, t, x, y)
    n_samples: int


def spectral_bound_certify(
    coeffs: SystemCoefficients,
    t_values,
    x_values,
    y_values,
    s_values,
    xi: float = 1.0,
    growth_factor: float = 2.0,
) -> SpectralBoundReport:
    """Probe eigenvalues of H(t, x, y, is) across scales s.

    For each s the report records the grid maximum of |Im zeta|; the
    certificate passes when the per-scale ratios |Im zeta| / s do not grow
    as s -> 0 (ratio at the smallest s within ``growth_factor`` of the ratio
    at the largest s).  Identically real spectra pass with max_ratio 0.
    """
    s_values = np.sort(np.asarray(s_values, dtype=float))[::-1]
    if np.any(s_values <= 0):
        raise ValueError("s_values must be positive")
    t_values = np.atleast_1d(t_values)
    x_values = np.atleast_1d(x_values)
    y_values = np.atleast_1d(np.asarray(y_values, dtype=float))
    # z = i (i s) y for the imaginary step i s; shape (nt, nx, ns, ny, m, m)
    hs = np.array([
        [taylor_symbol(coeffs, float(t), float(x), xi, -s_values[:, None] * y_values,
                       coeffs.m) for x in x_values]
        for t in t_values
    ])
    table = []
    worst = (0.0, (0.0, 0.0, 0.0, 0.0))
    count = 0
    for i_s, s in enumerate(s_values):
        im_max = 0.0
        for i_t, t in enumerate(t_values):
            for i_x, x in enumerate(x_values):
                for i_y, y in enumerate(y_values):
                    im = float(np.max(np.abs(spectrum(hs[i_t, i_x, i_s, i_y]).imag)))
                    count += 1
                    if im > im_max:
                        im_max = im
                    if im / s > worst[0]:
                        worst = (im / s, (float(s), float(t), float(x), float(y)))
        table.append((float(s), im_max))
    ratios = np.array([im / s for s, im in table])
    max_ratio = float(np.max(ratios))
    # Ratios below solver noise count as zero so exactly-real families pass.
    floor = 1e-9 * (1.0 + coeffs.a_field.sup_norm_bound() * abs(xi))
    if max_ratio * max(s_values) <= floor:
        passed = True
    else:
        r_large = max(ratios[0], floor)
        passed = bool(ratios[-1] <= growth_factor * r_large)
    return SpectralBoundReport(
        max_ratio=max_ratio,
        table=table,
        passed=passed,
        growth_factor=growth_factor,
        worst_sample=worst[1],
        n_samples=count,
    )


# ---------------------------------------------------------------------------
# Theta estimation


@dataclass
class ThetaEstimate:
    theta_hat: int
    theta_raw: float
    upper_fit: tuple[float, float]  # (C, c) for G(eps) <= C eps^{-theta}
    lower_fit: tuple[float, float]  # (C, c) for L(eps) >= eps^{theta} / C
    residual: float
    warning: bool
    converged: bool
    n_used: int
    eps_values: np.ndarray
    g_values: np.ndarray
    l_values: np.ndarray


def _growth_curves(
    coeffs: SystemCoefficients,
    n_taylor: int,
    eps_values: np.ndarray,
    t_values,
    x_values,
    xi_values,
    c_hat: float,
    s_grid,
):
    """G(eps) = sup_s e^{-c s eps} ||e^{is H_N(eps)}|| and the matching inf."""
    g = np.empty(len(eps_values))
    low = np.empty(len(eps_values))
    xi_values = np.atleast_1d(np.asarray(xi_values, dtype=float))
    # H_N(eps) at every node, shape (n_eps, n_nodes, m, m), nodes in (t, x, xi) order
    hs_all = np.concatenate([
        taylor_symbol(coeffs, float(t), float(x), xi_values,
                      eps_values[:, None] * xi_values, n_taylor)
        for t in np.atleast_1d(t_values)
        for x in np.atleast_1d(x_values)
    ], axis=1)
    for i, eps in enumerate(eps_values):
        if s_grid is None:
            # Target the hump at s*eps = O(1); beyond u ~ 30 the decay term
            # dominates any admissible polynomial transient.
            s_values = np.concatenate(([0.0], np.geomspace(1e-2, 30.0, 36) / eps))
        else:
            s_values = np.asarray(s_grid, dtype=float)
        hs = hs_all[i]
        stack = 1j * s_values[:, None, None, None] * hs[None, :, :, :]
        exps = expm_batched(stack.reshape(-1, coeffs.m, coeffs.m))
        norms = np.linalg.svd(exps, compute_uv=False)[:, 0].reshape(
            len(s_values), len(hs)
        )
        damp = np.exp(-c_hat * s_values * eps)[:, None]
        g[i] = float(np.max(damp * norms))
        low[i] = float(np.min(norms / damp))
    return g, low


def estimate_theta(
    coeffs: SystemCoefficients,
    eps_values,
    s_grid=None,
    t_values=(0.0,),
    x_values=(0.0,),
    xi_values=(1.0, -1.0),
    c_hat: float | None = None,
    slope_tol: float = 0.25,
) -> ThetaEstimate:
    """Estimate the block-size barometer theta from matrix-exponential growth.

    ``G(eps) = sup_s e^{-c_hat s eps} ||e^{is H_N(eps)}||`` is fitted as a
    power law ``C eps^{-theta}``; theta_hat is the rounded negative slope.
    Since the Taylor order N = max{2 theta, m} depends on theta, the order is
    iterated starting from N = m until self-consistent (at most m steps; on
    non-convergence theta = m - 1, which is always valid).

    c_hat defaults to 1.05x the certified spatial spectral-bound ratio,
    floored at 1.0 so that x-independent families (certified ratio exactly 0)
    still damp polynomial transients.  The lower branch
    ``L(eps) = inf_s e^{+c_hat s eps} ||e^{is H_N(eps)}||`` is fitted to
    confirm two-sidedness; both constants are empirical, not sharp.
    """
    eps_values = np.sort(np.asarray(eps_values, dtype=float))
    if eps_values[-1] / eps_values[0] < 99.0:
        raise ValueError("eps_values must span at least two decades")
    m = coeffs.m
    if c_hat is None:
        cert = spectral_bound_certify(
            coeffs,
            t_values,
            x_values,
            y_values=(1.0,),
            s_values=np.geomspace(1e-3, 1e-1, 7),
            xi=1.0,
        )
        c_hat = max(1.05 * cert.max_ratio, 1.0)

    n_taylor = m
    seen = set()
    converged = False
    g = low = None
    theta_raw = float(m - 1)
    for _ in range(max(m, 1)):
        g, low = _growth_curves(
            coeffs, n_taylor, eps_values, t_values, x_values, xi_values, c_hat, s_grid
        )
        slope, _ = np.polyfit(np.log(eps_values), np.log(g), 1)
        theta_raw = -float(slope)
        theta_hat = int(np.clip(round(theta_raw), 0, m - 1))
        n_next = max(2 * theta_hat, m)
        if n_next == n_taylor:
            converged = True
            break
        if n_next in seen:
            break
        seen.add(n_taylor)
        n_taylor = n_next
    if not converged:
        theta_hat = m - 1

    fit = np.polyfit(np.log(eps_values), np.log(g), 1)
    residual = float(
        np.sqrt(np.mean((np.log(g) - np.polyval(fit, np.log(eps_values))) ** 2))
    )
    upper_c = float(np.exp(fit[1]))
    lower_c = float(np.max(eps_values**theta_hat / low))
    warning = bool(abs(theta_raw - theta_hat) > slope_tol) or not converged
    return ThetaEstimate(
        theta_hat=theta_hat,
        theta_raw=theta_raw,
        upper_fit=(upper_c, float(c_hat)),
        lower_fit=(lower_c, float(c_hat)),
        residual=residual,
        warning=warning,
        converged=converged,
        n_used=n_taylor,
        eps_values=eps_values,
        g_values=g,
        l_values=low,
    )
