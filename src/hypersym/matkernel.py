"""Pointwise matrix analysis of the principal symbol.

Taylor-polynomial symbols in the spatial and frequency directions, a batched
matrix exponential (closed form on 1x1 and 2x2 blocks, Pade on larger ones),
batched eigenvalues (closed form on 1x1 and 2x2 blocks, the dense solver on
larger ones), real-spectrum certification, the spatial spectral-bound
certificate, and the block-size barometer (theta) estimator.  The kernels
take the system's block partition, ``SystemCoefficients.blocks``, never a stack's.

All operations are pure functions of their inputs; grid sweeps are
vectorized with deterministic reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hypersym.coeffs import SystemCoefficients
from hypersym.errors import HypersymError

# Temporaries of one batch of the theta growth curves, of one chunk of the
# symmetrizer's Lyapunov solves and of one block of the solver's sample
# diagnostics, and the most that the solver's precomputed RK4 propagators hold
# at once, in bytes.
_BLOCK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Symbols


def taylor_order(theta: int, m: int) -> int:
    """The Taylor order ``N = max(2 theta, m)`` of H_N at block size theta."""
    return max(2 * theta, m)


def taylor_symbol(
    coeffs: SystemCoefficients,
    t,
    x,
    xi,
    z,
    order: int,
) -> np.ndarray:
    """Taylor polynomial ``sum_{j<=order} (z^j / j!) D_x^j A(t, x) xi``.

    ``D_x = -i d/dx`` sends a term ``C g(t) e^{ikx}`` of A to k times itself,
    so the term contributes itself times ``sum_{j<=order} (k z)^j / j!``: one
    pass over the terms, each time function evaluated once.  ``t``, ``x``,
    ``xi`` and ``z`` are arrays (or scalars) that broadcast together; the
    result has their broadcast shape followed by (m, m).  At z = 0 this is
    exactly the symbol A(t, x) xi.  Two conventions cover every caller:

    - frequency direction, ``z = eps xi``: the generator polynomial H_N;
    - spatial direction at the complexified argument ``x + s y``,
      ``z = i s y`` (purely imaginary ``s = i s'`` gives real ``z = -s' y``).
    """
    z = np.asarray(z)
    xi = np.asarray(xi, dtype=float)
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), z.shape, xi.shape)
    # A(t, x) apart from the z-dependent parts, which vanish exactly at z = 0
    # (A(t, x) xi bit for bit at any shapes) and keep their own precision at
    # small z where the terms of A cancel
    field = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)) + (coeffs.m, coeffs.m),
                     dtype=complex)
    out = np.zeros(shape + (coeffs.m, coeffs.m), dtype=complex)
    for term in coeffs.a_terms:
        value = (term.matrix * term.g(t)[..., None, None]
                 * np.exp(1j * term.x_freq * x)[..., None, None])
        field += value
        if term.x_freq and order:  # D_x^j, j >= 1, vanishes on x-independent terms
            kz = term.x_freq * z
            power = tail = kz
            for j in range(2, order + 1):
                power = power * kz / j
                tail = tail + power
            out += value * tail[..., None, None]
    return (field + out) * xi[..., None, None]


# ---------------------------------------------------------------------------
# Matrix exponential (scaling and squaring, block-wise closed-form or Pade-13 cores)

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


def _split_2x2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``half = (z11 - z22) / 2`` and ``sd = sqrt(half^2 + z12 z21)`` for Z in (..., 2, 2):
    the eigenvalues of Z are ``tr Z / 2 -+ sd``."""
    half = 0.5 * (z[..., 0, 0] - z[..., 1, 1])
    return half, np.sqrt(half**2 + z[..., 0, 1] * z[..., 1, 0])


def _exp_2x2(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries e11, e12, e21, e22 of ``E = cos(d) I + i sinc(d) K`` for Z in (..., 2, 2).

    With ``mu = tr Z / 2``, ``K = Z - mu I`` and ``d^2 = -det K``,
    ``e^{iZ} = e^{i mu} E``, even in d and exact at d = 0 (Moler & Van Loan,
    SIAM Review 45(1), 2003).
    """
    half, sd = _split_2x2(z)
    zero = sd == 0  # sinc by hand: np.sinc's pi round trip errs by |sd| u
    c, w = np.cos(sd), 1j * np.where(zero, 1.0, np.sin(sd) / np.where(zero, 1.0, sd))
    return c + w * half, w * z[..., 0, 1], w * z[..., 1, 0], c - w * half


def _pade13(a: np.ndarray) -> np.ndarray:
    """The Pade-13 approximant of e^A for a stack (n, k, k) scaled under ``_THETA13``."""
    ident = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
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
    return np.linalg.solve(v - u, v + u)


def expm_batched(a: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """Matrix exponential of a stack of square matrices (..., m, m).

    Each member is scaled by its own power of two to bring the 1-norm under
    the Pade-13 threshold, then squared back individually.  In between, each
    of ``blocks``, the system's partition (``SystemCoefficients.blocks``), is
    exponentiated on its own: a 1x1 block h by ``e^h``, a 2x2 block A by the closed form
    ``e^{tr A / 2} E`` of :func:`_exp_2x2` at ``Z = -iA`` (an exact rotation),
    and a larger block by the Pade-13 core (Higham, SIMAX 26(4), 2005).
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

    result = np.zeros_like(a)
    for idx in blocks:
        block = a[:, idx[:, None], idx]
        if len(idx) == 1:
            exp = np.exp(block)
        elif len(idx) == 2:
            exp = np.exp(0.5 * np.trace(block, axis1=1, axis2=2))[:, None, None] \
                * np.stack(_exp_2x2(-1j * block), axis=-1).reshape(-1, 2, 2)
        else:
            exp = _pade13(block)
        result[:, idx[:, None], idx] = exp
    for k in range(int(n_sq.max()) if n_sq.size else 0):
        mask = n_sq > k
        result[mask] = result[mask] @ result[mask]
    return result.reshape(*lead, m, m)


# ---------------------------------------------------------------------------
# Eigenvalues


def block_eigvals(stack, blocks: list[np.ndarray]) -> np.ndarray:
    """Eigenvalues of a stack ``(..., m, m) -> (..., m)``, unordered.

    Each of ``blocks``, the stack's decoupled diagonal blocks from its
    system's ``SystemCoefficients.blocks``, is solved on its own:
    a 1x1 block is its entry, a 2x2 block Z has ``tr Z / 2 -+ sd`` with the
    discriminant of :func:`_split_2x2`, and a larger block, irreducible, goes
    to the dense solver.  Entries or a discriminant past the double range
    raise :class:`HypersymError`: the square root of an overflowed
    discriminant is real, so its imaginary part alone would read 0.
    """
    a = np.asarray(stack, dtype=complex)
    if not np.isfinite(a).all():
        raise HypersymError("matrix entries are not finite: the symbol leaves the double range")
    vals = np.empty(a.shape[:-1], dtype=complex)
    for idx in blocks:
        block = a[..., idx[:, None], idx]
        if len(idx) == 1:
            vals[..., idx] = block[..., 0]
        elif len(idx) == 2:
            _, sd = _split_2x2(block)
            if not np.isfinite(sd).all():
                raise HypersymError("2x2 block discriminant is not finite: the symbol "
                                    "leaves the double range")
            # halves first, so that the trace of finite entries cannot overflow
            mu = 0.5 * block[..., 0, 0] + 0.5 * block[..., 1, 1]
            vals[..., idx] = np.stack((mu - sd, mu + sd), axis=-1)
        else:
            vals[..., idx] = np.linalg.eigvals(block)
    return vals


def _norm_2x2(b11, b12, b21, b22) -> np.ndarray:
    """The 2-norm of each 2x2 matrix B of the entry arrays b11, b12, b21, b22, in closed form
    over the entries p, q, r of B*B: ``sqrt((p + r)/2 + hypot((p - r)/2, |q|))``, where no term
    cancels.  Where the norm passes 2^(+-450), B is redone scaled by a power of two."""
    def norm(b11, b12, b21, b22):
        p = np.abs(b11) ** 2 + np.abs(b21) ** 2
        r = np.abs(b12) ** 2 + np.abs(b22) ** 2
        q = np.abs(np.conj(b11) * b12 + np.conj(b21) * b22)
        return np.asarray(np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q)))
    out = norm(b11, b12, b21, b22)
    off = ~((out >= 2.0**-450) & (out <= 2.0**450))  # a square may have left the double range
    if off.any():
        b = [np.asarray(e)[off] for e in (b11, b12, b21, b22)]
        w = np.ldexp(1.0, np.minimum(-np.frexp(np.max(np.abs(b), axis=0))[1], 1000))
        out[off] = norm(*(e * w for e in b)) / w
    return out


def block_norm2(stack, blocks: list[np.ndarray]) -> np.ndarray:
    """2-norms ``(..., m, m) -> (...)`` of a direct sum over ``blocks``: its largest block
    norm.  A 1x1 block takes its modulus, a 2x2 one :func:`_norm_2x2` and a larger one
    its largest singular value."""
    stack = np.asarray(stack)
    norms = np.zeros(stack.shape[:-2])
    for idx in blocks:
        i, j = idx[0], idx[-1]
        if len(idx) == 1:
            nb = np.abs(stack[..., i, i])
        elif len(idx) == 2:
            with np.errstate(over="ignore", invalid="ignore"):  # out-of-range rows are redone
                nb = _norm_2x2(*(stack[..., a, b] for a in (i, j) for b in (i, j)))
        else:
            nb = np.linalg.svd(stack[..., idx[:, None], idx], compute_uv=False)[..., 0]
        norms = np.maximum(norms, nb)
    return norms


def line_fit(x, y) -> np.ndarray:
    """Least-squares line ``[slope, intercept]`` through (x, y), in centered closed form:
    the coefficients of ``np.polyfit(x, y, 1)``.  Needs two distinct x, as every caller has."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    slope = np.dot(x - xm, y - ym) / np.dot(x - xm, x - xm)
    return np.array([slope, ym - slope * xm])


def _max_imag(stack: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """Largest |Im eigenvalue| of each matrix in a non-empty stack of ``blocks``."""
    return np.max(np.abs(block_eigvals(stack, blocks).imag), axis=-1)


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
    the report carries the worst sample (the first in (t, x, xi) order).
    The symbol is A(t, x) xi, so the largest ``||A||`` is the largest 2-norm
    over the (t, x) grid times the largest |xi|.  The distinct nodes alone are
    evaluated (``coeffs.symbol_nodes``): they lead the grid, so hold its first maximum.
    """
    xi_values = np.atleast_1d(np.asarray(xi_values, dtype=float))
    t_nodes, x_nodes = coeffs.symbol_nodes(t_values, x_values)
    field = taylor_symbol(coeffs, t_nodes[:, None], x_nodes, 1.0, z=0.0, order=0)
    im = _max_imag(field[:, :, None] * xi_values[:, None, None], coeffs.blocks)  # (nt, nx, nxi)
    norm_max = float(np.max(block_norm2(field, coeffs.blocks)) * np.max(np.abs(xi_values)))
    i_t, i_x, i_xi = np.unravel_index(np.argmax(im), im.shape)
    tol_eff = tol * (1.0 + norm_max)
    return RealSpectrumReport(
        passed=bool(im[i_t, i_x, i_xi] <= tol_eff),
        max_imag=float(im[i_t, i_x, i_xi]),
        tol_effective=tol_eff,
        worst_sample=(float(t_nodes[i_t]), float(x_nodes[i_x]), float(xi_values[i_xi])),
        n_samples=np.size(t_values) * np.size(x_values) * xi_values.size,
    )


# How far the |Im zeta| / s ratio at the smallest s may exceed the ratio at the
# largest before the certificate counts it as growing as s -> 0: a bounded
# ratio may wander by this factor, while one growing like 1/s moves by 100x
# or more over the two to three decades of the s grids.
_GROWTH_FACTOR = 2.0


@dataclass
class SpectralBoundReport:
    """Certificate for |Im zeta| <= C |s| on the spatial Taylor symbol."""

    max_ratio: float
    table: list[tuple[float, float]]  # (s, max |Im zeta| at that s)
    passed: bool
    n_samples: int
    grid: tuple[np.ndarray, np.ndarray, np.ndarray]  # s, y, max |Im zeta| at each (s, y)

    def max_ratio_over(self, s_values, y_values) -> float:
        """max_ratio of the grid's scales ``s_values`` and directions ``y_values``
        alone, equal to that of a certificate on them: a maximum over nodes."""
        s, y, im = self.grid
        rows = np.isin(s, s_values)
        return float(np.max(np.max(im[rows][:, np.isin(y, y_values)], axis=1) / s[rows]))


def spectral_bound_certify(
    coeffs: SystemCoefficients,
    t_values,
    x_values,
    y_values,
    s_values,
) -> SpectralBoundReport:
    """Probe eigenvalues of H(t, x, y, is) at xi = 1 across scales s > 0.

    For each s the report records the grid maximum of |Im zeta|; the
    certificate passes when the per-scale ratios |Im zeta| / s do not grow
    as s -> 0 (ratio at the smallest s within ``_GROWTH_FACTOR`` of the ratio
    at the largest s).  Identically real spectra pass with max_ratio 0.
    """
    s_values = np.sort(np.asarray(s_values, dtype=float))[::-1]
    y_values = np.atleast_1d(np.asarray(y_values, dtype=float))
    t_nodes, x_nodes = coeffs.symbol_nodes(t_values, x_values)
    # z = i (i s) y for the imaginary step i s; shape (nt, nx, ns, ny, m, m)
    hs = taylor_symbol(coeffs, t_nodes[:, None, None, None], x_nodes[:, None, None], 1.0,
                       -s_values[:, None] * y_values, coeffs.m)
    im = _max_imag(hs, coeffs.blocks)  # (nt, nx, ns, ny) at the distinct nodes
    im_sy = np.max(im, axis=(0, 1))
    im_max = np.max(im_sy, axis=1)
    table = [(float(s), float(v)) for s, v in zip(s_values, im_max)]
    ratios = im_max / s_values
    max_ratio = float(np.max(ratios))
    # Ratios below solver noise count as zero so exactly-real families pass.
    terms = np.reshape([term.matrix for term in coeffs.a_terms], (-1, coeffs.m, coeffs.m))
    floor = 1e-9 * (1.0 + sum(np.linalg.norm(terms, 2, axis=(-2, -1))))
    if max_ratio * max(s_values) <= floor:
        passed = True
    else:
        r_large = max(ratios[0], floor)
        passed = bool(ratios[-1] <= _GROWTH_FACTOR * r_large)
    return SpectralBoundReport(
        max_ratio=max_ratio,
        table=table,
        passed=passed,
        n_samples=np.size(t_values) * np.size(x_values) * im_sy.size,
        grid=(s_values, y_values, im_sy),
    )


# ---------------------------------------------------------------------------
# Theta estimation


EPS_SPAN = 99.0  # smallest eps_max / eps_min a theta fit accepts (two decades)
# Largest distance of the fitted slope from its rounded theta before the
# estimate is flagged: a quarter, the bound calibration and criterion 12 put
# on the fit residual, and clear of the half-way point where rounding flips.
_SLOPE_TOL = 0.25


@dataclass
class ThetaEstimate:
    theta_hat: int
    theta_raw: float
    upper_fit: tuple[float, float]  # (C, c) for G(eps) <= C eps^{-theta}
    lower_fit: tuple[float, float]  # (C, c) for L(eps) >= eps^{theta} / C
    residual: float
    warning: bool
    converged: bool
    n_taylor: int
    g_values: np.ndarray  # G(eps) at the eps_values in ascending order


def _norm_invariants(h: np.ndarray) -> tuple[np.ndarray, ...]:
    """The invariants of :func:`_exp_norm_2x2` for 2x2 blocks H in (..., 2, 2): the
    exponent e of the power of two that brings H's largest entry into [1/2, 1), and
    ``Im mu``, d and nu of the scaled H.  So ``|d|^2`` and ``||[K*, K]||_F^2``, a fourth
    power of the entries, cannot underflow where H is tiny (the latter would below
    about 1e-77)."""
    e = np.clip(-np.frexp(np.max(np.abs(h), axis=(-2, -1)))[1], -1000, 1000)
    h = h * np.ldexp(1.0, e)[..., None, None]
    half, d = _split_2x2(h)
    k12, k21 = h[..., 0, 1], h[..., 1, 0]
    # ||[K*, K]||_F^2 / 2 of K = [[half, k12], [k21, -half]], a sum of squares
    comm = (np.abs(k21) ** 2 - np.abs(k12) ** 2) ** 2 \
        + 4.0 * np.abs(np.conj(half) * k12 - half * np.conj(k21)) ** 2
    dd = np.abs(d) ** 2
    nu = np.divide(comm, 2.0 * dd + np.sqrt(4.0 * dd**2 + comm), out=np.zeros_like(comm),
                   where=comm > 0)  # K = 0 has comm = dd = 0
    return e, (0.5 * h[..., 0, 0] + 0.5 * h[..., 1, 1]).imag, d, nu


def _exp_norm_2x2(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``||e^{isH}||_2`` for 2x2 blocks H in (..., n_nodes, 2, 2) and s in (..., n_s), shape
    (..., n_s, n_nodes), from three invariants a node that every s shares.

    With ``mu = tr H / 2``, ``K = H - mu I`` and ``d^2 = -det K`` (the discriminant of
    :func:`_split_2x2`), ``e^{isK} = cos(sd) I + i s sinc(sd) K`` has determinant 1, so its
    two singular values multiply to 1, and their squares add to ``||e^{isK}||_F^2 = 2 + g``
    with ``g = s^2 nu |sinc(sd)|^2 + 4 sinh^2(s Im d)`` and ``nu = ||K||_F^2 - 2|d|^2``.  So
    ``||e^{isH}|| = e^{-s Im mu} (r + hypot(r, 1))`` with ``r = sqrt(g) / 2``, where
    ``|sin(sd)| = hypot(sin(s Re d), sinh(s Im d))`` and ``r + hypot(r, 1) = e^{asinh r}``:
    one real sine, sinh, asinh and exp an (s, node) pair.  nu is formed without
    subtraction, as the root of ``nu (nu + 4|d|^2) = ||[K*, K]||_F^2 / 2``, so rounding
    enters it squared and a normal block has nu = 0 exactly: a hermitian one has norm 1.
    The invariants are those of H scaled by a power of two (:func:`_norm_invariants`), and
    s takes the inverse scale.
    """
    # the invariants against the (s, node) axes
    e, mu_im, d, nu = (a[..., None, :] for a in _norm_invariants(h))
    zero = d == 0
    # s sqrt(nu) |sinc(sd)| / 2 is |sin(sd)| sqrt(nu) / (2 |d|), and s sqrt(nu) / 2 at d = 0
    ratio = np.divide(0.5 * np.sqrt(nu), np.abs(d), out=np.zeros_like(nu), where=~zero)
    slope = np.where(zero, 0.5 * np.sqrt(nu), 0.0)
    sw = s[..., None] * np.ldexp(1.0, -e)  # s at the scaled H
    sinh = np.sinh(sw * d.imag)
    r = np.hypot(np.sin(sw * d.real), sinh)  # |sin(sd)|
    r *= ratio
    r += sw * slope
    np.hypot(r, sinh, out=r)  # sqrt(g) / 2
    np.arcsinh(r, out=r)  # e^{-s Im mu} (r + hypot(r, 1)) is e^{asinh r - s Im mu}
    r -= sw * mu_im
    return np.exp(r, out=r)


def _exp_norms(hs: np.ndarray, s: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """``||e^{isH}||_2`` for H in (..., n_nodes, m, m) and s in (..., n_s), shape
    (..., n_s, n_nodes): a leading axis (a batch of eps) pairs each stack of
    nodes with its own s values.

    A direct sum's norm, over ``blocks`` (the system's), is its largest block
    norm.  A 1x1 block gives ``e^{-s Im h}``, a 2x2 block the closed form of
    :func:`_exp_norm_2x2`, from three invariants a node that every s shares.
    Larger blocks, irreducible, take the Pade core; a non-finite
    exponential there makes the whole result infinite.
    """
    norms = np.zeros(s.shape + hs.shape[-3:-2])
    for idx in blocks:
        h = hs[..., idx[:, None], idx]  # (..., n_nodes, k, k)
        if len(idx) == 1:
            nb = np.exp(-s[..., None] * h[..., None, :, 0, 0].imag)
        elif len(idx) == 2:
            nb = _exp_norm_2x2(h, s)
        else:
            exps = expm_batched(1j * s[..., None, None, None] * h[..., None, :, :, :],
                                [np.arange(len(idx))])
            nb = block_norm2(exps, [np.arange(len(idx))]) if np.isfinite(exps).all() else np.inf
        np.maximum(norms, nb, out=norms)
    return norms


def _exp_norm_bytes(blocks: list[np.ndarray]) -> int:
    """Peak bytes of :func:`_exp_norms` per (s, node) pair on the partition ``blocks``,
    its result included: 64 where every block is 1x1 or 2x2 (tracemalloc reads 44 on xdep
    and 52 on block_direct_sum, which holds one block's norms while it forms the next's),
    and 192 k^2 with a Pade block of size k (178 k^2 for k = 3 to 6)."""
    k = max(map(len, blocks))
    return 64 if k <= 2 else 192 * k**2


# The growth curves' scales s eps: 0 and 36 points up to 30.  They target the
# hump at s eps = O(1); beyond 30 the decay term dominates any admissible
# polynomial transient.
_GROWTH_SCALES = np.concatenate(([0.0], np.geomspace(1e-2, 30.0, 36)))


def _growth_curves(
    coeffs: SystemCoefficients,
    n_taylor: int,
    eps_values: np.ndarray,
    t_values,
    x_values,
    xi_values,
    c_hat: float,
):
    """G(eps) = sup_s e^{-c s eps} ||e^{is H_N(eps)}|| and the matching inf.

    The eps go in batches of as many as :func:`_exp_norms` holds in
    ``_BLOCK_BYTES`` (:func:`_exp_norm_bytes` a pair of an s and a node), at
    least one eps each, on the partition and distinct nodes; the formulas are
    elementwise, so G and the inf do not depend on the batching.  A block of
    size 3 or more (the Pade core) takes one eps a batch: its finiteness check
    reads the whole batch.
    """
    t_values, x_values = coeffs.symbol_nodes(t_values, x_values)
    xi_values = np.atleast_1d(np.asarray(xi_values, dtype=float))
    # H_N(eps) at every node, shape (n_eps, n_nodes, m, m), nodes in (t, x, xi) order
    hs = taylor_symbol(coeffs, t_values[:, None, None], x_values[:, None], xi_values,
                       eps_values[:, None, None, None] * xi_values, n_taylor
                       ).reshape(len(eps_values), -1, coeffs.m, coeffs.m)
    s = _GROWTH_SCALES / eps_values[:, None]
    damp = np.exp(-c_hat * s * eps_values[:, None])[:, :, None]
    pairs = s.shape[1] * hs.shape[1]  # (s, node) pairs an eps
    batch = max(_BLOCK_BYTES // (_exp_norm_bytes(coeffs.blocks) * pairs), 1) \
        if max(map(len, coeffs.blocks)) <= 2 else 1
    g, low = np.empty(len(eps_values)), np.empty(len(eps_values))
    for lo in range(0, len(eps_values), batch):
        at = slice(lo, lo + batch)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = _exp_norms(hs[at], s[at], coeffs.blocks)  # (batch, n_s, n_nodes)
        finite = np.isfinite(norms).all(axis=(1, 2))
        if not finite.all():
            raise HypersymError(f"theta barometer: ||e^(is H_N)|| is not finite at "
                                f"eps = {eps_values[lo + np.argmin(finite)]:.6g}; the "
                                "symbol is not hyperbolic")
        g[at] = np.max(damp[at] * norms, axis=(1, 2))
        low[at] = np.min(norms / damp[at], axis=(1, 2))
    return g, low


# Frequencies of the barometer's nodes.  H_N at frequency xi and scale eps is
# |xi| times H_N at sign(xi) and scale eps |xi|, so |xi| = 1 loses nothing;
# the two signs are the two directions.  A real system has
# H_N(-xi) = -conj H_N(xi), so e^{isH_N} at -1 is the conjugate of that at +1,
# of the same norm, and xi = +1 alone serves.
_THETA_XI = (1.0, -1.0)


# Scales and direction of the spectral-bound certificate that sets c_hat.
THETA_SCALES = np.geomspace(1e-3, 1e-1, 7)
_THETA_Y = (1.0,)


def estimate_theta(
    coeffs: SystemCoefficients,
    eps_values,
    t_values=(0.0,),
    x_values=(0.0,),
    cert: SpectralBoundReport | None = None,
) -> ThetaEstimate:
    """Estimate the block-size barometer theta from matrix-exponential growth.

    ``G(eps) = sup_s e^{-c_hat s eps} ||e^{is H_N(eps)}||`` is fitted as a
    power law ``C eps^{-theta}`` over ``eps_values``, which must span
    ``EPS_SPAN`` (two decades); theta_hat is the rounded negative slope.
    Since the Taylor order N = max{2 theta, m} depends on theta, the order is
    iterated starting from N = m until self-consistent (at most m steps; on
    non-convergence theta = m - 1, which is always valid).

    The nodes sit at xi in ``_THETA_XI``, its first alone on a real system
    (``coeffs.real_valued``).  c_hat is 1.05x the certified
    spatial spectral-bound ratio over ``THETA_SCALES`` at y = 1, floored at
    1.0 so that x-independent families (certified ratio exactly 0) still
    damp polynomial transients; it is read from ``cert``, a certificate on
    the same t and x whose grid holds them, or certified here.  The lower
    branch ``L(eps) = inf_s e^{+c_hat s eps} ||e^{is H_N(eps)}||`` is fitted
    to confirm two-sidedness; both constants are empirical, not sharp.
    """
    eps_values = np.sort(np.asarray(eps_values, dtype=float))
    m = coeffs.m
    cert = cert or spectral_bound_certify(coeffs, t_values, x_values, _THETA_Y, THETA_SCALES)
    c_hat = max(1.05 * cert.max_ratio_over(THETA_SCALES, _THETA_Y), 1.0)

    xis = _THETA_XI[:1] if coeffs.real_valued else _THETA_XI
    n_taylor = taylor_order(0, m)
    seen = set()
    converged = False
    for _ in range(m):
        g, low = _growth_curves(
            coeffs, n_taylor, eps_values, t_values, x_values, xis, c_hat
        )
        fit = line_fit(np.log(eps_values), np.log(g))
        theta_raw = -float(fit[0])
        theta_hat = int(np.clip(round(theta_raw), 0, m - 1))
        n_next = taylor_order(theta_hat, m)
        if n_next == n_taylor:
            converged = True
            break
        if n_next in seen:
            break
        seen.add(n_taylor)
        n_taylor = n_next
    if not converged:
        theta_hat = m - 1

    residual = float(np.sqrt(np.mean((np.log(g) - np.polyval(fit, np.log(eps_values))) ** 2)))
    upper_c = float(np.exp(fit[1]))
    lower_c = float(np.max(eps_values**theta_hat / low))
    warning = bool(abs(theta_raw - theta_hat) > _SLOPE_TOL) or not converged
    return ThetaEstimate(theta_hat=theta_hat, theta_raw=theta_raw,
                         upper_fit=(upper_c, float(c_hat)), lower_fit=(lower_c, float(c_hat)),
                         residual=residual, warning=warning, converged=converged,
                         n_taylor=n_taylor, g_values=g)
