"""Exact-arithmetic Gevrey thresholds and parameter admissibility.

All index formulas are evaluated in rational arithmetic; the constraint
checks accept rational inputs and compare exactly (fractional powers are
compared through integer cross-powers, never through floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hypersym.symmetrizer import ParameterSet

# The mollifier exponent delta: the vertex of the (delta, rho) region.  The
# smoothing line rho >= (3 theta + 2 - kappa delta)/(3 theta + 2) falls in
# delta and the time-derivative line rho >= (3 theta + 1 + (1 - kappa) delta)
# /(3 theta + 2) rises; they meet at delta = 1 for every theta and kappa.
DELTA = Fraction(1)


def rho_required(theta: int, mode: str, kappa: Fraction | float | None = None):
    """Minimal admissible weight exponent rho and the binding estimate.

    Lipschitz mode takes the smaller of the two a-priori-estimate
    thresholds (the smaller rho admits the larger Gevrey index s = 1/rho);
    Hoelder mode additionally enforces the mollifier constraint at the
    region's vertex delta = 1, combined by max since every hypothesis must
    hold simultaneously.  The Gevrey threshold is s0 = 1/rho.
    """
    if mode not in ("lipschitz", "holder"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "holder":
        if kappa is None:
            raise ValueError("holder mode requires kappa")
        kappa = Fraction(kappa)
        if not 0 < kappa < 1:
            raise ValueError("kappa must lie in (0, 1)")
    if theta < 0:
        raise ValueError("theta must be a nonnegative integer")
    first = Fraction(1 + 6 * theta, 2 + 6 * theta)
    second = Fraction(2 + 4 * theta, 3 + 4 * theta)
    rho = min(first, second)
    binding = "first-estimate" if rho == first else "second-estimate"
    if mode == "holder":
        rho_hol = (3 * theta + 2 - kappa) / (3 * theta + 2)
        if rho_hol >= rho:
            return rho_hol, "holder-mollifier"
    return rho, binding


def _le_pow(lhs: Fraction, base: Fraction, expo: Fraction) -> bool:
    """Test ``lhs <= base**expo`` for positive rationals.

    Exact via integer cross-powers when the exponent has a modest
    denominator (every genuine index fraction does); float-derived
    exponents with astronomical denominators fall back to a guarded
    logarithmic comparison.
    """
    if lhs <= 0:
        return True
    if base <= 0:
        return False
    p, q = expo.numerator, expo.denominator
    if q <= 64 and abs(p) <= 64:
        return lhs**q <= base**p
    import math

    return math.log(float(lhs)) * q <= math.log(float(base)) * p + 1e-12 * q


def validate_params(
    p: ParameterSet,
    c: Fraction | float,
    a0: Fraction | float,
    eps0: Fraction | float,
) -> list[str]:
    """Exact admissibility check of a parameter set against a certified c.

    Returns the list of violated constraints (empty means admissible):
    damping window ``c1 <= c*tau <= T`` and ``2cT <= a``; weight window
    ``1 <= a <= ell^(1-rho)``; Taylor-scale window ``tau * ell^(rho-1) <=
    eps0``; damping floor ``a >= a0 + 1``.
    """
    rho, a, ell, tau, big_t, c1 = map(Fraction, (p.rho, p.a, p.ell, p.tau, p.T, p.c1))
    c, a0, eps0 = Fraction(c), Fraction(a0), Fraction(eps0)

    violations = []
    if not (0 < rho < 1):
        violations.append("rho must lie in (0, 1)")
    if not (c1 <= c * tau <= big_t):
        violations.append("rangetau: need c1 <= c*tau <= T")
    if not (2 * c * big_t <= a):
        violations.append("rangetau: need 2*c*T <= a")
    if not (1 <= a and _le_pow(a, ell, 1 - rho)):
        violations.append("aellconstraint: need 1 <= a <= ell^(1-rho)")
    # tau * ell^(rho-1) <= eps0  <=>  tau <= eps0 * ell^(1-rho)
    if not (tau > 0 and _le_pow(tau / eps0, ell, 1 - rho)):
        violations.append("constraint6: need 0 < tau*ell^(rho-1) <= eps0")
    if not (a >= a0 + 1):
        violations.append("constraint8: need a >= a0 + 1")
    return violations


@dataclass
class PlanResult:
    s0: Fraction
    rho_required: Fraction
    binding: str
    delta: Fraction | None
    params: ParameterSet
    theta: int
    mode: str
    kappa: Fraction | None

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "mode": self.mode,
            "kappa": None if self.kappa is None else str(self.kappa),
            "s0": str(self.s0),
            "s0_float": float(self.s0),
            "rho": str(self.rho_required),
            "rho_float": float(self.rho_required),
            "binding": self.binding,
            "delta": None if self.delta is None else str(self.delta),
            "params": self.params.to_json(),
        }


def _pow_ceil_int(a: Fraction, expo: Fraction) -> int:
    """Smallest integer ell with a <= ell^expo (expo > 0)."""
    ell = 1
    while not _le_pow(a, Fraction(ell), expo):
        ell *= 2
    return ell


def plan(
    theta: int,
    mode: str = "lipschitz",
    kappa: Fraction | float | None = None,
    c: Fraction | float = Fraction(1, 2),
    a0: Fraction | float = 1,
    eps0: Fraction | float = Fraction(1, 2),
) -> PlanResult:
    """Compute thresholds and an admissible parameter template.

    The threshold is s0 = 1/rho with rho from :func:`rho_required`.  The
    template picks ``a = a0 + 1``, the smallest power-of-two ``ell``
    compatible with the weight window, ``T`` at the damping-window boundary
    and ``tau`` inside both windows; every choice is re-validated exactly.
    """
    rho, binding = rho_required(theta, mode, kappa)
    s0 = 1 / rho
    kap, delta = (Fraction(kappa), DELTA) if mode == "holder" else (None, None)
    c, a0, eps0 = Fraction(c), Fraction(a0), Fraction(eps0)

    a = a0 + 1
    ell = _pow_ceil_int(a, 1 - rho)
    big_t = a / (2 * c)
    # tau must satisfy c*tau <= T and tau <= eps0 * ell^(1-rho); take a
    # dyadic value strictly inside and keep c1 at half the lower edge.
    tau = big_t / c
    while not _le_pow(tau / eps0, Fraction(ell), 1 - rho):
        tau = tau / 2
    c1 = c * tau / 2
    params = ParameterSet(
        rho=rho,
        a=a,
        ell=ell,
        tau=tau,
        T=big_t,
        c1=c1,
        theta=theta,
        kappa=kap,
        s=s0,
        delta=delta,
        a0=a0,
        eps0=eps0,
        c_spec=c,
    )
    violations = validate_params(params, c, a0, eps0)
    if violations:
        raise AssertionError(f"planner produced invalid template: {violations}")
    return PlanResult(
        s0=s0,
        rho_required=rho,
        binding=binding,
        delta=delta,
        params=params,
        theta=theta,
        mode=mode,
        kappa=kap,
    )
