"""Hyperbolic-polynomial machinery: root splitting.

The splitter applies ``(1 + s d/dzeta)`` repeatedly to a monic real-rooted
polynomial.  Each application is exact coefficient arithmetic (derivative
plus scaled add), which amplifies no rounding; only the final root extraction
is numerical (companion matrix plus one Newton polish step, deterministic
ordering).  Every routine takes a stack: leading axes index independent
polynomials, and a single one is a stack with no leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypersym.errors import HypersymError, NotRealRootedError


@dataclass
class SplitResult:
    """Split polynomials; every field carries the broadcast leading axes."""

    coeffs: np.ndarray  # (..., m+1) ascending, monic
    roots: np.ndarray  # (..., m) strictly increasing for s != 0
    min_gap: np.ndarray  # (...)


def expand_roots(roots) -> np.ndarray:
    """Ascending monic coefficients of prod (zeta - r): ``(..., m) -> (..., m+1)``."""
    roots = np.asarray(roots, dtype=float)
    c = np.ones(roots.shape[:-1] + (1,))
    pad = np.zeros_like(c)
    for j in range(roots.shape[-1]):
        c = np.concatenate((pad, c), axis=-1) \
            - roots[..., j, None] * np.concatenate((c, pad), axis=-1)
    return c


def _horner(c, z):
    """Ascending coefficients ``c[..., j]`` evaluated at ``z`` (broadcasting), complex."""
    acc = np.zeros((), dtype=complex)
    for j in range(c.shape[-1] - 1, -1, -1):
        acc = acc * z + c[..., j]
    return acc


def _sort_rows(z: np.ndarray) -> np.ndarray:
    """Order each row by real part, then imaginary part."""
    return np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)


def polished_roots(c) -> np.ndarray:
    """Roots of ascending-coefficient polynomials, ``(..., d+1) -> (..., d)``.

    The eigenvalues of one companion-matrix stack in the field of the
    coefficients (real rows take the real eigensolver), then one guarded
    Newton step (skipped near multiple roots where the step would be large),
    then deterministic ordering of each row by real part, then imaginary
    part.  Coefficients past the double range raise :class:`HypersymError`.
    """
    c = np.asarray(c, dtype=np.result_type(np.asarray(c), float))
    if not np.isfinite(c).all():
        raise HypersymError("polynomial coefficients are not finite: the symbol or "
                            "polynomial leaves the double range")
    d = c.shape[-1] - 1
    companion = np.zeros(c.shape[:-1] + (d, d), dtype=c.dtype)
    companion[..., 0, :] = -c[..., -2::-1] / c[..., -1:]
    companion[..., np.arange(1, d), np.arange(d - 1)] = 1.0
    raw = np.linalg.eigvals(companion)
    p = _horner(c[..., None, :], raw)
    dp = _horner(c[..., None, 1:] * np.arange(1, d + 1), raw)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(np.abs(dp) > 0, p / np.where(dp == 0, 1, dp), 0.0)
    safe = (np.abs(dp) > 0) & (np.abs(step) <= 0.1 * (1.0 + np.abs(raw)))
    return _sort_rows(np.where(safe, raw - step, raw))


def nuij_split(rows, s, iterations: int | None = None) -> SplitResult:
    """Apply ``(1 + s d/dzeta)`` ``iterations`` times (default: the degree).

    ``rows`` are ascending monic coefficients ``(..., m+1)``; ``s``
    broadcasts against their leading axes.
    The split polynomial of a real-rooted input is again real-rooted with
    consecutive-root gaps at least ``nuij_constant(m) * |s|``.  A complex
    root beyond tolerance means the input was not real-rooted and is
    reported as such, since the operator preserves real-rootedness.
    """
    rows = np.asarray(rows, dtype=float)
    s = np.asarray(s, dtype=float)
    m = rows.shape[-1] - 1
    if iterations is None:
        iterations = m
    lead = np.broadcast_shapes(rows.shape[:-1], s.shape)
    c = np.broadcast_to(rows, lead + (m + 1,)).copy()
    s_col = s[..., None]
    for _ in range(iterations):
        c[..., :-1] += s_col * (c[..., 1:] * np.arange(1, m + 1))
    roots = polished_roots(c)
    imag = np.max(np.abs(roots.imag), axis=-1, initial=0.0)
    scale = np.max(np.abs(roots), axis=-1, initial=1.0)
    if np.any(imag > 1e-8 * scale):
        raise NotRealRootedError(
            f"split polynomial has complex roots (max |Im| = "
            f"{np.max(imag):.3g}); input was not real-rooted"
        )
    real_roots = np.sort(roots.real, axis=-1)
    min_gap = np.min(np.diff(real_roots, axis=-1), axis=-1, initial=math.inf)
    return SplitResult(coeffs=c, roots=real_roots, min_gap=min_gap)


def nuij_constant(m: int) -> float:
    """Separation constant c(m) for degree-m polynomials.

    Seeded with c_2 = 1 and advanced through
    ``c_{l+1} = min_{2<=k<=l} (k + c_l - sqrt((k + c_l)^2 - 4 c_l)) / 2``
    up to l = m + 1; strictly positive and decreasing in m.  That is the
    smaller root of ``x^2 - (k + c_l) x + c_l``, taken as c_l over the larger
    one, ``2 c_l / (k + c_l + sqrt((k + c_l)^2 - 4 c_l))``: the difference
    form cancels as c_l shrinks (7.5% off at m = 17, exactly 0 from m = 18).
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    c = 1.0  # c_2
    for ell in range(2, m + 1):
        c = min(
            2.0 * c / (k + c + math.sqrt((k + c) ** 2 - 4.0 * c))
            for k in range(2, ell + 1)
        )
    return c


def random_real_rooted(m: int, spread: float, seeds) -> np.ndarray:
    """Sorted roots ``(len(seeds), m)``, uniform in [-spread, spread]: row i
    is drawn by ``np.random.default_rng(seeds[i])``."""
    roots = np.empty((len(seeds), m))
    for row, seed in zip(roots, seeds):
        row[:] = np.random.default_rng(seed).uniform(-spread, spread, size=m)
    return np.sort(roots, axis=-1)
