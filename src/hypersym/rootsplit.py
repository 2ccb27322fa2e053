"""Hyperbolic-polynomial machinery: root splitting and lower-bound probes.

The splitter applies ``(1 + s d/dzeta)`` repeatedly to a monic real-rooted
polynomial.  Each application is exact coefficient arithmetic (derivative
plus scaled add), which amplifies no rounding; only the final root extraction
is numerical (companion matrix plus one Newton polish step, deterministic
ordering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hypersym.errors import NotRealRootedError


@dataclass
class RealRootedPoly:
    """Monic polynomial with (claimed) real roots.

    Coefficients are stored ascending: ``coeffs[j]`` multiplies ``zeta^j``
    and ``coeffs[-1] == 1``.  If roots are supplied, expanding them must
    reproduce the coefficients to 1e-10 relative.
    """

    coeffs: np.ndarray
    roots: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.size < 1 or abs(c[-1] - 1.0) > 1e-14:
            raise ValueError("polynomial must be monic (ascending coefficients)")
        self.coeffs = c
        if self.roots is not None:
            self.roots = np.sort(np.asarray(self.roots, dtype=float))
            expanded = expand_roots(self.roots)
            scale = max(1.0, float(np.max(np.abs(c))))
            if np.max(np.abs(expanded - c)) > 1e-10 * scale:
                raise ValueError("supplied roots do not reproduce coefficients")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        # Horner in ascending order.
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def to_json(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, coeffs: list[float]) -> "RealRootedPoly":
        return cls(coeffs=np.asarray(coeffs, dtype=float))


@dataclass
class SplitResult:
    s: float
    coeffs: np.ndarray  # ascending, monic
    roots: np.ndarray  # strictly increasing for s != 0
    min_gap: float


def expand_roots(roots) -> np.ndarray:
    """Ascending monic coefficients of prod (zeta - r)."""
    c = np.array([1.0])
    for r in np.asarray(roots, dtype=float):
        c = np.concatenate(([0.0], c)) - r * np.concatenate((c, [0.0]))
    return c


def _poly_derivative(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, len(c))


def polished_roots(c: np.ndarray) -> np.ndarray:
    """Companion-matrix roots of an ascending-coefficient polynomial.

    One guarded Newton step (skipped near multiple roots where the step
    would be large), then deterministic ordering by real part, then
    imaginary part.
    """
    raw = np.roots(c[::-1].astype(complex))
    dc = _poly_derivative(c)

    def val(z, cs):
        acc = np.zeros_like(z)
        for a in cs[::-1]:
            acc = acc * z + a
        return acc

    p = val(raw, c.astype(complex))
    dp = val(raw, dc.astype(complex))
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(np.abs(dp) > 0, p / np.where(dp == 0, 1, dp), 0.0)
    safe = (np.abs(dp) > 0) & (np.abs(step) <= 0.1 * (1.0 + np.abs(raw)))
    polished = np.where(safe, raw - step, raw)
    order = np.lexsort((polished.imag, polished.real))
    return polished[order]


def nuij_split(poly: RealRootedPoly, s: float, iterations: int | None = None) -> SplitResult:
    """Apply ``(1 + s d/dzeta)`` ``iterations`` times (default: the degree).

    The split polynomial of a real-rooted input is again real-rooted with
    consecutive-root gaps at least ``nuij_constant(m) * |s|``.  A complex
    root beyond tolerance means the input was not real-rooted and is
    reported as such, since the operator preserves real-rootedness.
    """
    m = poly.degree
    if iterations is None:
        iterations = m
    c = poly.coeffs.astype(float).copy()
    for _ in range(iterations):
        dc = _poly_derivative(c)
        c[:-1] += s * dc
    roots = polished_roots(c)
    scale = max(1.0, float(np.max(np.abs(roots))) if roots.size else 1.0)
    if roots.size and np.max(np.abs(roots.imag)) > 1e-8 * scale:
        raise NotRealRootedError(
            f"split polynomial has complex roots (max |Im| = "
            f"{np.max(np.abs(roots.imag)):.3g}); input was not real-rooted"
        )
    real_roots = np.sort(roots.real)
    gaps = np.diff(real_roots)
    min_gap = float(np.min(gaps)) if gaps.size else math.inf
    return SplitResult(s=s, coeffs=c, roots=real_roots, min_gap=min_gap)


def nuij_constant(m: int) -> float:
    """Separation constant c(m) for degree-m polynomials.

    Seeded with c_2 = 1 and advanced through
    ``c_{l+1} = min_{2<=k<=l} (k + c_l - sqrt((k + c_l)^2 - 4 c_l)) / 2``
    up to l = m + 1; strictly positive and decreasing in m.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    c = 1.0  # c_2
    for ell in range(2, m + 1):
        c = min(
            (k + c - math.sqrt((k + c) ** 2 - 4.0 * c)) / 2.0
            for k in range(2, ell + 1)
        )
    return c


def char_poly(h: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial of a small matrix, ascending coefficients.

    Faddeev-LeVerrier recursion.  With a Fraction/integer object array the
    arithmetic is exact; complex input returns complex coefficients.
    """
    h = np.asarray(h)
    m = h.shape[0]
    exact = h.dtype == object or np.issubdtype(h.dtype, np.integer)
    if exact:
        a = np.array(
            [[Fraction(h[i, j]) for j in range(m)] for i in range(m)], dtype=object
        )
        ident = np.array(
            [[Fraction(int(i == j)) for j in range(m)] for i in range(m)], dtype=object
        )
        one = Fraction(1)
    else:
        a = h.astype(complex)
        ident = np.eye(m, dtype=complex)
        one = 1.0 + 0.0j
    coeffs = [one * 0] * m + [one]
    mk = ident.copy()
    for k in range(1, m + 1):
        am = a @ mk
        trace = sum(am[i, i] for i in range(m))
        ck = -trace / k
        coeffs[m - k] = ck
        mk = am + ck * ident
    if exact:
        return np.array(coeffs, dtype=object)
    return np.asarray(coeffs, dtype=complex)


@dataclass
class QLowerBoundFit:
    """Fit of ``|Q(lambda + i*M*s, ..., i s)|`` against ``s``."""

    c_hat: float
    r_hat: float
    r_declared: int
    m_scale: float
    s_values: np.ndarray
    q_values: np.ndarray
    spread: float
    passed: bool


def q_lower_bound_probe(
    coeffs,
    t: float,
    x: float,
    lam: float,
    r: int,
    y: float,
    s_values,
    xi: float = 1.0,
    m_scale: float = 1.0,
) -> QLowerBoundFit:
    """Probe the lower bound ``|Q| >= c |s|^r`` near a multiplicity-r eigenvalue.

    ``Q(zeta, t, x, y, s) = det(zeta I - H(t, x, y, s))`` with H the spatial
    Taylor symbol of order m.  ``m_scale`` shifts the probe point to
    ``lam + i * m_scale * s`` (large values avoid the degenerate diagonal
    where Q vanishes identically).  Fitted constants are reported rather
    than asserted, since the bound's constant depends on unquantified
    neighborhood sizes.
    """
    from hypersym.matkernel import taylor_symbol

    s_values = np.asarray(s_values, dtype=float)
    q = np.empty_like(s_values)
    # z = i (i s) y: the spatial Taylor symbol at the imaginary step i s
    hs = taylor_symbol(coeffs, t, x, xi, -s_values * y, coeffs.m)
    for i, (s, h) in enumerate(zip(s_values, hs)):
        zeta = lam + 1j * m_scale * s
        q[i] = abs(np.linalg.det(zeta * np.eye(coeffs.m) - h))
    positive = q > 0
    if np.count_nonzero(positive) < 2:
        return QLowerBoundFit(
            c_hat=0.0, r_hat=math.inf, r_declared=r, m_scale=m_scale,
            s_values=s_values, q_values=q, spread=math.inf, passed=False,
        )
    slope, intercept = np.polyfit(np.log(s_values[positive]), np.log(q[positive]), 1)
    ratios = q[positive] / s_values[positive] ** r
    c_hat = float(np.min(ratios))
    spread = float(np.max(ratios) / np.min(ratios)) if c_hat > 0 else math.inf
    passed = bool(slope <= r + 0.2 and c_hat > 0.0)
    return QLowerBoundFit(
        c_hat=c_hat, r_hat=float(slope), r_declared=r, m_scale=m_scale,
        s_values=s_values, q_values=q, spread=spread, passed=passed,
    )


def random_real_rooted(m: int, spread: float, seed: int) -> RealRootedPoly:
    """Deterministic test generator: m roots uniform in [-spread, spread]."""
    rng = np.random.default_rng(seed)
    roots = np.sort(rng.uniform(-spread, spread, size=m))
    return RealRootedPoly(coeffs=expand_roots(roots), roots=roots)
