"""Exact-arithmetic Gevrey thresholds, the parameter set and its admissibility.

All index formulas are evaluated in rational arithmetic; the constraint
checks accept rational inputs and compare exactly (fractional powers are
compared through integer cross-powers, never through floats).  :func:`plan`
derives every run's :class:`ParameterSet`, with ``ell`` capped or not, and
is their one admissibility check: each plan meets :func:`validate_params`,
exactly.  It refuses its own input, naming field and value, by ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from hypersym.errors import ConfigError

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
    hold simultaneously.  The Gevrey threshold is s0 = 1/rho.  ``mode`` is
    "lipschitz" or "holder", as the config schema admits them.
    """
    if mode == "holder":
        if kappa is None:
            raise ConfigError("holder mode requires kappa")
        if not 0 < Fraction(kappa) < 1:
            raise ConfigError(f"kappa = {kappa}: kappa must lie in (0, 1)")
    if theta < 0:
        raise ConfigError(f"theta = {theta}: theta must be a nonnegative integer")
    first = Fraction(1 + 6 * theta, 2 + 6 * theta)
    second = Fraction(2 + 4 * theta, 3 + 4 * theta)
    rho = min(first, second)
    binding = "first-estimate" if rho == first else "second-estimate"
    if mode == "holder":
        rho_hol = (3 * theta + 2 - Fraction(kappa)) / (3 * theta + 2)
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


@dataclass
class ParameterSet:
    """Weight/damping parameters with the constants of their admissibility.

    Values may be exact rationals (from :func:`plan`) or floats; numeric
    consumers coerce to float.  ``nu = theta (1 - rho)`` is derived, and so
    is the Taylor order ``taylor_order(theta, m)``.  ``a0`` and ``eps0`` are
    empirical floor constants with no canonical closed form, calibrated per
    problem; ``c_spec`` is the certified spectral-bound constant.  The set is
    checked against the three by :func:`validate_params`.
    """

    rho: object
    a: object
    ell: object
    tau: object
    T: object
    c1: object
    theta: int
    kappa: object | None = None
    s: object | None = None
    delta: object | None = None
    a0: object = 1.0
    eps0: object = 0.5
    c_spec: object | None = None

    @property
    def nu(self) -> float:
        return self.theta * (1.0 - float(self.rho))

    def to_json(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        doc = {k: None if v is None else float(v) for k, v in values.items()}
        return {**doc, "theta": self.theta, "nu": self.nu}  # theta stays an int


def validate_params(p: ParameterSet) -> list[str]:
    """Exact admissibility check of a parameter set against its own constants
    ``c = p.c_spec``, ``a0`` and ``eps0``.

    Returns the list of violated constraints (empty means admissible):
    damping window ``c1 <= c*tau <= T`` and ``2cT <= a``; weight window
    ``1 <= a <= ell^(1-rho)``; Taylor-scale window ``tau * ell^(rho-1) <=
    eps0``; damping floor ``a >= a0 + 1``.
    """
    rho, a, ell, tau, big_t, c1, c, a0, eps0 = map(
        Fraction, (p.rho, p.a, p.ell, p.tau, p.T, p.c1, p.c_spec, p.a0, p.eps0))

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
    """Smallest power of two ell with a <= ell^expo (expo > 0)."""
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
    ell_max: float | None = None,
) -> PlanResult:
    """Compute thresholds and an admissible parameter template.

    The threshold is s0 = 1/rho with rho from :func:`rho_required`.  Without
    ``ell_max`` the template picks ``a = a0 + 1`` and the smallest
    power-of-two ``ell`` compatible with the weight window.  With it, ``ell``
    is the cap and ``a`` the rational ``0.999 ell^(1-rho)`` just under the
    window's top.  Either way ``T`` sits at the damping-window boundary and
    ``tau`` inside both windows, and every choice is re-validated exactly.
    :class:`ConfigError` refuses what :func:`rho_required` refuses, a cap whose
    window holds no ``a >= a0 + 1``, and an ``ell`` past the double range.
    """
    rho, binding = rho_required(theta, mode, kappa)
    s0 = 1 / rho
    kap, delta = (Fraction(kappa), DELTA) if mode == "holder" else (None, None)
    c, a0, eps0 = Fraction(c), Fraction(a0), Fraction(eps0)
    try:
        if ell_max is None:
            a = a0 + 1
            ell = _pow_ceil_int(a, 1 - rho)
        else:
            ell = Fraction(ell_max)
            a = Fraction(0.999 * float(ell) ** (1.0 - float(rho)))
            if a < a0 + 1:
                raise ConfigError(f"cannot satisfy a >= a0+1 = {float(a0 + 1):.3g} "
                                  f"with ell <= {float(ell)}")
        big_t = a / (2 * c)
        # tau must satisfy c*tau <= T and tau <= eps0 * ell^(1-rho); take a
        # dyadic value strictly inside and keep c1 at half the lower edge.
        tau = big_t / c
        while not _le_pow(tau / eps0, ell, 1 - rho):
            tau = tau / 2
    except OverflowError:  # ell >= a^(1/(1 - rho)) leaves the double range as rho nears 1
        raise ConfigError(f"theta = {theta}, kappa = {kappa}: the planned parameters are "
                          "beyond the double range") from None
    c1 = c * tau / 2
    # a capped plan reports no s, as the recorded study-h summaries have it;
    # either way the run picks the data's own index below s0
    params = ParameterSet(rho=rho, a=a, ell=ell, tau=tau, T=big_t, c1=c1, theta=theta,
                          kappa=kap, s=s0 if ell_max is None else None, delta=delta,
                          a0=a0, eps0=eps0, c_spec=c)
    violations = validate_params(params)
    if violations:
        raise AssertionError(f"planner produced invalid template: {violations}")
    return PlanResult(s0=s0, rho_required=rho, binding=binding, delta=delta, params=params,
                      theta=theta, mode=mode, kappa=kap)
