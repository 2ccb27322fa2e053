"""Experiment orchestration: configs, calibration, artifacts, reports.

Every command is a pure function of (config, seed): outputs are
byte-identical across runs on the same build.  Summaries carry per-criterion
pass/fail plus every fitted constant; the report command only aggregates,
never recomputes.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from hypersym import engine, matkernel, planner, rootsplit, solver, symmetrizer
from hypersym.coeffs import SystemCoefficients, coeffs_from_json
from hypersym.errors import ConfigError, HypersymError, NotRealRootedError, require_memory
from hypersym.presets import get_preset
from hypersym.symmetrizer import ParameterSet
from hypersym.weights import EXP_BUDGET, bracket

SCHEMA_VERSION = "1"


def _prop(kind: str, default=None, **bounds) -> dict:
    """One field: its JSON type, its literal default if it has one, and its bounds."""
    prop = {"type": kind, **bounds}
    if default is not None:
        prop["default"] = default
    return prop


def _list(kind: str, default, **item_bounds) -> dict:
    return _prop("array", default, items=_prop(kind, **item_bounds), minItems=1)


def _schema(extra: dict, required: list[str]) -> dict:
    props = {"command": _prop("string"), "schema_version": _prop("string"),
             "seed": _prop("integer", minimum=0), "out": _prop("string"),
             "preset": _prop("string"), "coeffs": _prop("object"), **extra}
    return {"properties": props, "required": ["command", "schema_version"] + required}


# A field without a default is required, or its default is derived from other
# values in the handler (solve's h, s, c0, horizon and dt; study-h's ell).
_POS = {"exclusiveMinimum": 0}
_CUTOFF = _prop("number", minimum=0)  # h = 0 means no cutoff
_LATTICE = _prop("integer", 256, minimum=2, powerOfTwo=True)
_SOLVE = {"n_lattice": _LATTICE, "s": _prop("number", **_POS), "c0": _prop("number", **_POS),
          "dt": _prop("number", **_POS)}

COMMAND_SCHEMAS = {
    "certify": _schema({"tol": _prop("number", 1e-9, minimum=0),
                        "n_t": _prop("integer", 4, minimum=1),
                        "n_x": _prop("integer", 6, minimum=1),
                        "xi_values": _list("number", [1.0, -1.0, 2.0]),
                        "s_values": _list("number", list(np.geomspace(1e-4, 1e-1, 7)),
                                          **_POS),
                        "y_values": _list("number", [1.0, 0.5, -1.0])}, []),
    "theta": _schema({"eps_lo": _prop("number", 1e-3, **_POS),
                      "eps_hi": _prop("number", 1e-1, **_POS),
                      "n_eps": _prop("integer", 9, minimum=2),
                      "n_t": _prop("integer", 4, minimum=1),
                      "n_x": _prop("integer", 5, minimum=1)}, []),
    # degree 1 has no root gap, so m_max < 2 would check nothing; spread 0
    # draws coincident roots, which the split handles
    "nuij": _schema({"m_max": _prop("integer", 6, minimum=2),
                     "n_polys": _prop("integer", 200, minimum=1),
                     "spread": _prop("number", 3.0, minimum=0),
                     "s_values": _list("number", list(np.geomspace(1e-3, 1.0, 7)))},
                    ["seed"]),
    "symmetrize": _schema({"xi_lo": _prop("number", 2.0**4, **_POS),
                           "xi_hi": _prop("number", 2.0**12, **_POS),
                           "n_xi": _prop("integer", 9, minimum=2),
                           "n_t": _prop("integer", 4, minimum=1),
                           "n_x": _prop("integer", 5, minimum=1),
                           "check_a_power": _prop("boolean", False)}, []),
    # the Gevrey weight e^{tau <xi>^rho} needs tau > 0 and 0 < rho < 1
    "conjtest": _schema({"tau": _prop("number", 1.5, **_POS),
                         "rho": _prop("number", 0.75, exclusiveMaximum=1, **_POS),
                         "ell": _prop("number", 1.0, **_POS),
                         "n_lattice": _LATTICE,
                         "k_list": _list("integer", [0, 1, 2], minimum=0),
                         "order_one": _prop("boolean", True)}, []),
    "plan": _schema({"theta": _prop("integer", minimum=0),
                     "mode": _prop("string", "lipschitz"), "kappa": _prop("string")},
                    ["theta"]),
    # a negative eps_par is anti-dissipative, and lam_bound's stability scale
    # would no longer bound the step
    "solve": _schema({**_SOLVE, "h": _CUTOFF, "eps_par": _prop("number", 0.0, minimum=0),
                      "stride": _prop("integer", 8, minimum=1),
                      "horizon": _prop("number", **_POS), "ell": _prop("number", **_POS)},
                     ["seed"]),
    "study-h": _schema({**_SOLVE, "h_list": _list("number", [1 / 64, 1 / 128, 1 / 256],
                                                  **_POS)}, ["seed"]),
    "study-parabolic": _schema({**_SOLVE, "h": _CUTOFF,
                                "eps_list": _list("number", [1e-2, 1e-3, 1e-4], **_POS)},
                               ["seed"]),
    "report": _schema({"run_dir": _prop("string")}, ["run_dir"]),
}


_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool,
               "object": dict, "array": list}

_BOUNDS = {
    "minimum": (lambda v, b: v >= b, "is less than the minimum of"),
    "exclusiveMinimum": (lambda v, b: v > b, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (lambda v, b: v < b, "is greater than or equal to the maximum of"),
}


def _is_type(value, kind: str) -> bool:
    # bool subclasses int in Python, but a JSON boolean is not a number
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "number" and isinstance(value, float):
        # Python's json reads NaN and Infinity, which JSON numbers exclude
        return math.isfinite(value)
    return isinstance(value, _JSON_TYPES[kind])


def _violation(value, prop: dict) -> str | None:
    """How ``value`` breaks its field's type or bounds, or None."""
    if not _is_type(value, prop["type"]):
        return f"is not of type {prop['type']!r}"
    for bound, (holds, words) in _BOUNDS.items():
        if bound in prop and not holds(value, prop[bound]):
            return f"{words} {prop[bound]!r}"
    if prop.get("powerOfTwo") and value & (value - 1):
        return "is not a power of two"
    if prop["type"] == "array" and len(value) < prop["minItems"]:
        return f"has fewer than the minItems of {prop['minItems']}"
    return None


def _check(key: str, value, prop: dict) -> None:
    why = _violation(value, prop)
    if why:
        raise ConfigError(f"config rejected: {key}: {value!r} {why}")
    for v in value if prop["type"] == "array" else ():
        _check(key, v, prop["items"])


def validate_config(config: dict) -> dict:
    """Check a config against its command's schema; return it with defaults filled in.

    Unknown fields and commands are rejected, and so is any value of the
    wrong JSON type or outside its field's bounds.  A boolean is neither an
    integer nor a number.  The given dict is not changed.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in COMMAND_SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; have {sorted(COMMAND_SCHEMAS)}")
    if config.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION!r}")
    schema = COMMAND_SCHEMAS[command]
    for key in schema["required"]:
        if key not in config:
            raise ConfigError(f"config rejected: {key!r} is a required property")
    for key, value in config.items():
        prop = schema["properties"].get(key)
        if prop is None:
            raise ConfigError(f"config rejected: unknown field {key!r}")
        _check(key, value, prop)
    defaults = {key: prop["default"] for key, prop in schema["properties"].items()
                if "default" in prop}
    return copy.deepcopy({**defaults, **config})


def _resolve_coeffs(config: dict) -> tuple[SystemCoefficients, int | None, str]:
    if "preset" in config:
        try:
            p = get_preset(config["preset"])
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        return p.coeffs, p.theta, config["preset"]
    if "coeffs" in config:
        return coeffs_from_json(config["coeffs"]), None, "inline"
    raise ConfigError("config needs a preset or inline coeffs")


# ---------------------------------------------------------------------------
# Calibration


@dataclass
class Calibration:
    c: float
    a0: float
    eps0: float
    theta: int


# Scales of the spectral-bound certificate that sets c.
_C_SCALES = np.geomspace(1e-3, 1e-1, 5)


def calibrate(coeffs: SystemCoefficients, theta: int | None = None) -> Calibration:
    """Empirical constants for the parameter constraints.

    ``c`` is 1.05x the certified spectral-bound ratio, floored at 0.5 so the
    damping-window constraints stay nondegenerate for x-independent families
    (whose certified ratio is exactly zero).  ``a0`` is scanned from the
    imaginary spread of H_N relative to c <xi>^rho; ``eps0`` is halved from
    0.5 until the theta fit at that scale is clean.
    """
    ts = np.linspace(0.0, 1.0, 4)
    xs = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    # one certificate over the scales of c and of the theta fits' c_hat
    cert = matkernel.spectral_bound_certify(
        coeffs, ts, xs, (1.0, -1.0), np.union1d(_C_SCALES, matkernel.THETA_SCALES)
    )
    c = max(1.05 * cert.max_ratio_over(_C_SCALES, (1.0, -1.0)), 0.5)
    if theta is None:
        theta = matkernel.estimate_theta(
            coeffs, np.geomspace(1e-3, 1e-1, 7), t_values=ts, x_values=xs, cert=cert
        ).theta_hat
    eps0 = 0.5
    for _ in range(3):
        te = matkernel.estimate_theta(
            coeffs,
            np.geomspace(eps0 * 1e-2, eps0, 7),
            t_values=ts,
            x_values=xs,
            cert=cert,
        )
        if te.theta_hat == theta and te.residual <= 0.25:
            break
        eps0 /= 2.0
    # imaginary spread of H_N relative to the damping scale, over a probe set
    probe = ParameterSet(rho=0.5, a=2.0, ell=4.0, tau=min(0.5, eps0), T=2.0,
                         c1=0.1, theta=theta, a0=0.0, eps0=eps0, c_spec=c)
    xis = np.array([4.0, 16.0, 64.0])
    mu = bracket(xis, 4.0) ** 0.5
    h = symmetrizer.hn_over_lattice(coeffs, probe, ts[:, None, None], xs[:, None], xis)
    if not np.isfinite(h).all():
        raise HypersymError("calibration: H_N is not finite: the symbol leaves the double range")
    spread = matkernel._max_imag(h, coeffs.blocks) / (c * mu)
    a0 = float(np.max(spread)) * 1.05
    return Calibration(c=c, a0=a0, eps0=eps0, theta=theta)


def run_params(
    cal: Calibration,
    mode: str = "lipschitz",
    kappa=None,
    ell_max: float | None = None,
) -> ParameterSet:
    """Admissible parameters for an evolution run, from a problem's calibration.

    Without an ``ell_max`` cap the planner template is used directly.  A cap
    (needed when the cutoff range h <= 1/ell must reach coarse h) shrinks a
    to the weight window ``a <= ell^(1-rho)``, which is only admissible when
    the calibrated damping floor a0 is small enough.
    """
    theta = cal.theta
    rho_frac, _ = planner.rho_required(theta, mode, kappa)
    if ell_max is None:
        # Keep the damping at scale a >= 2 even when the empirical floor
        # is lower, so the weight window stays nontrivial.
        a0_eff = max(cal.a0, 1.0)
        pr = planner.plan(theta, mode, kappa, c=Fraction(cal.c).limit_denominator(10**6),
                          a0=Fraction(a0_eff).limit_denominator(10**6),
                          eps0=Fraction(cal.eps0).limit_denominator(10**6))
        return pr.params
    rho = float(rho_frac)
    ell = float(ell_max)
    a = 0.999 * ell ** (1.0 - rho)
    if a < cal.a0 + 1.0:
        raise ConfigError(
            f"cannot satisfy a >= a0+1 = {cal.a0 + 1:.3g} with ell <= {ell}"
        )
    big_t = a / (2.0 * cal.c)
    tau = min(0.999 * big_t / cal.c, 0.999 * cal.eps0 * ell ** (1.0 - rho))
    c1 = cal.c * tau / 2.0
    params = ParameterSet(rho=rho_frac, a=a, ell=ell, tau=tau, T=big_t, c1=c1,
                          theta=theta, kappa=kappa,
                          delta=planner.DELTA if mode == "holder" else None,
                          a0=cal.a0, eps0=cal.eps0, c_spec=cal.c)
    violations = planner.validate_params(params, cal.c, cal.a0, cal.eps0)
    if violations:
        raise ConfigError("calibrated params invalid: " + "; ".join(violations))
    return params


def _solve_setup(config: dict):
    """(preset name, calibrated parameters, Cauchy problem) of a solve or study."""
    n_x = config["n_lattice"]
    coeffs, theta_decl, name = _resolve_coeffs(config)
    mode = "holder" if coeffs.t_regularity == "holder" else "lipschitz"
    kappa = Fraction(coeffs.kappa) if coeffs.kappa else None
    cal = calibrate(coeffs, theta_decl)
    try:
        params = run_params(cal, mode, kappa, ell_max=config.get("ell"))
    except ValueError as exc:  # the planner's kappa range, (0, 1)
        raise ConfigError(f"kappa = {coeffs.kappa}: {exc}") from None
    except OverflowError:  # ell >= a^(1/(1 - rho)) leaves the double range as rho nears 1
        raise ConfigError(f"theta = {cal.theta}, kappa = {coeffs.kappa}: the planned "
                          "parameters are beyond the double range") from None
    big_t = float(params.T)
    # the weight e^(T <xi>_ell^rho) is smallest at xi = 0, where <0>_ell = ell
    least = big_t * float(params.ell) ** float(params.rho)
    if least > EXP_BUDGET:
        raise ConfigError(f"theta = {cal.theta}, kappa = {coeffs.kappa}: the planned weight "
                          f"exponent T ell^rho = {least:.3g} is past {EXP_BUDGET} at every xi")
    s0 = float(1 / params.rho)
    s = config.get("s", 0.5 * (1.0 + s0))
    if not s < s0:
        raise ConfigError(f"data index s = {s} must be below s0 = {s0}")
    try:
        c0_min = 1.2 * big_t * float(bracket(n_x / 2, float(params.ell))) ** float(params.rho) \
            / float(bracket(n_x / 2, 1.0)) ** (1.0 / s)
    except OverflowError:
        raise ConfigError(f"s = {s}: the data's decay rate <n_lattice/2>^(1/s) is beyond "
                          "the double range") from None
    c0 = config.get("c0", max(1.5, c0_min))
    g = solver.gevrey_data(n_x, coeffs.m, s, c0, seed=config["seed"])
    # the norms square the amplitudes, and the largest is e^(-c0), at xi = 0
    if not np.sum(np.abs(g) ** 2) >= np.finfo(float).tiny:
        raise ConfigError(f"c0 = {c0}: the data's squared amplitudes, at most e^(-2 c0), "
                          "fall below the normal double range")
    # past (T - c1)/a the running window tau = T - a t of the weight falls
    # below c1 and then below zero, where the energy and radius gates are vacuous
    window = (big_t - float(params.c1)) / float(params.a)
    horizon = config.get("horizon", window)
    if horizon > window:
        raise ConfigError(f"horizon = {horizon} is beyond the weight window "
                          f"(T - c1)/a = {window:.6g}")
    problem = solver.CauchyProblem(coeffs, g, horizon=horizon, gevrey_s=s,
                                   gevrey_c0=c0)
    if not problem.check_certificate():
        raise ConfigError("synthesized data violates its own Gevrey certificate")
    return name, params, problem


# ---------------------------------------------------------------------------
# Commands


def _cmd_certify(config: dict) -> dict:
    coeffs, theta, name = _resolve_coeffs(config)
    if not any(config["y_values"]):  # at y = 0 every probe is the real symbol
        raise ConfigError("y_values: needs a nonzero entry, or the spectral bound is vacuous")
    ts = np.linspace(0.0, 1.0, config["n_t"])
    xs = np.linspace(0.0, 2 * math.pi, config["n_x"], endpoint=False)
    rep = matkernel.certify_real_spectrum(coeffs, ts, xs, config["xi_values"],
                                          tol=config["tol"])
    sb = matkernel.spectral_bound_certify(coeffs, ts, xs, config["y_values"],
                                          config["s_values"])
    return {
        "preset": name,
        "real_spectrum": {
            "passed": rep.passed,
            "max_imag": rep.max_imag,
            "tol_effective": rep.tol_effective,
            "worst_sample": list(rep.worst_sample),
            "n_samples": rep.n_samples,
        },
        "spectral_bound": {
            "passed": sb.passed,
            "max_ratio": sb.max_ratio,
            "table": [[s, v] for s, v in sb.table],
            "n_samples": sb.n_samples,
        },
        "passed": bool(rep.passed and sb.passed),
    }


def _cmd_theta(config: dict) -> dict:
    coeffs, theta_decl, name = _resolve_coeffs(config)
    eps = np.geomspace(config["eps_lo"], config["eps_hi"], config["n_eps"])
    ts = np.linspace(0.0, 1.0, config["n_t"])
    xs = np.linspace(0.0, 2 * math.pi, config["n_x"], endpoint=False)
    if eps.max() / eps.min() < matkernel.EPS_SPAN:
        raise ConfigError("eps_lo, eps_hi: eps_values must span at least two decades")
    te = matkernel.estimate_theta(coeffs, eps, t_values=ts, x_values=xs)
    matches = theta_decl is None or te.theta_hat == theta_decl
    return {
        "preset": name,
        "theta_hat": te.theta_hat,
        "theta_declared": theta_decl,
        "theta_raw": te.theta_raw,
        "residual": te.residual,
        "upper_fit": list(te.upper_fit),
        "lower_fit": list(te.lower_fit),
        "warning": te.warning,
        "converged": te.converged,
        "n_taylor": te.n_used,
        "passed": bool(matches and not te.warning),
    }


def _cmd_nuij(config: dict) -> dict:
    n_polys, spread, s_values = config["n_polys"], config["spread"], config["s_values"]
    if 0 in s_values:
        raise ConfigError("s_values must be nonzero")
    s_arr = np.asarray(s_values, dtype=float)
    # the split's lowest coefficient carries s^m: below the smallest normal
    # double it loses precision, and then underflows to a false double root
    if np.min(np.abs(s_arr)) < np.finfo(float).tiny ** (1.0 / config["m_max"]):
        raise ConfigError(f"s_values, m_max: |s|^m_max = {np.min(np.abs(s_arr)):.3g}^"
                          f"{config['m_max']} is below the smallest normal double")
    seed = config["seed"]
    table = []
    worst_margin = math.inf
    for m in range(1, config["m_max"] + 1):
        c_m = rootsplit.nuij_constant(m)
        worst = None  # single root: no gap to measure
        if m > 1:
            rows = rootsplit.expand_roots(rootsplit.random_real_rooted(
                m, spread, seed + 1000 * m + np.arange(n_polys)))[:, None, :]
            # the separation bound is gap >= c(m) |s|, for either sign of s
            try:
                res = rootsplit.nuij_split(rows, s_arr)
            except NotRealRootedError:  # the rows were drawn real-rooted
                raise HypersymError(f"the roots of the degree m = {m} split are not resolved "
                                    f"in double precision (take m_max below {m})") from None
            worst = float(np.min(res.min_gap / (c_m * np.abs(s_arr)), initial=math.inf))
            worst_margin = min(worst_margin, worst)
        table.append({"m": m, "c_m": c_m, "min_gap_over_cs": worst})
    passed = worst_margin >= 1.0 - 1e-9
    return {"table": table, "worst_margin": worst_margin, "passed": bool(passed),
            "n_polys": n_polys, "s_values": list(map(float, s_values))}


def _cmd_symmetrize(config: dict) -> dict:
    coeffs, theta_decl, name = _resolve_coeffs(config)
    cal = calibrate(coeffs, theta_decl)
    params = run_params(cal)
    xis = np.geomspace(config["xi_lo"], config["xi_hi"], config["n_xi"])
    ts = np.linspace(0.0, 1.0, config["n_t"])
    xs = np.linspace(0.0, 2 * math.pi, config["n_x"], endpoint=False)
    field = symmetrizer.build_field(coeffs, params, ts, xs, xis)
    inv = field.check_invariants()
    lyap_ok = inv["max_lyapunov_residual_rel"] <= 1e-8
    sub = (slice(None), slice(0, 2), slice(None))
    quad = symmetrizer.quadrature_R(field.M[sub], np.broadcast_to(
        field.rhs, field.M.shape[:-2])[sub], coeffs.blocks, tol=1e-8)
    agree = float(np.max(
        np.linalg.norm(quad - field.R[sub], axis=(-2, -1))
        / np.linalg.norm(field.R[sub], axis=(-2, -1))
    ))
    lb = symmetrizer.lower_bound_check(field)
    probe = symmetrizer.symbol_estimate_probe(
        coeffs, params, xis, check_a_power=config["check_a_power"]
    )
    return {
        "preset": name,
        "params": params.to_json(),
        "invariants": inv,
        "lyapunov_ok": bool(lyap_ok),
        "quadrature_agreement": agree,
        "quadrature_ok": bool(agree <= 1e-6),
        "lower_bound": asdict(lb),
        "symbol_rows": [asdict(r) for r in probe.rows],
        "passed": bool(lyap_ok and agree <= 1e-6 and lb.passed and probe.passed),
    }


def _cmd_conjtest(config: dict) -> dict:
    rho, ell, order_one = config["rho"], config["ell"], config["order_one"]
    n_x = config["n_lattice"]
    # the probe's arrays peak near 70 bytes a mode (tracemalloc, n_lattice
    # 2^14 to 2^18); 128 bounds them
    require_memory(128 * n_x, f"n_lattice = {n_x}: the conjugation probe's arrays")
    rep = engine.conjugation_remainder_probe(1, 1 if order_one else 0, config["tau"], rho, ell,
                                             config["k_list"], n_x, two_sided=order_one)
    orders = [r.fitted for r in rep.rows]
    monotone = all(
        orders[i + 1] <= orders[i] + 0.1
        for i in range(len(orders) - 1)
        if orders[i] is not None and orders[i + 1] is not None
    )
    return {
        # the probe runs at the tau it is given or refuses it, so tau_shrunk is
        # always false; both keys stay for the summaries already recorded
        "rho": rho, "ell": ell, "tau_used": float(config["tau"]), "tau_shrunk": False,
        # the engine quantizes by the Kohn-Nirenberg rule; the probe compares
        # operators, so the quantization choice only shifts lower-order terms
        "quantization": "kohn-nirenberg",
        "rows": [{"k": r.k, "target": r.target, "fitted": r.fitted,
                  "passed": r.passed} for r in rep.rows],
        "monotone": bool(monotone),
        "passed": bool(rep.passed and monotone),
    }


def _cmd_plan(config: dict) -> dict:
    try:
        kappa = Fraction(config["kappa"]) if "kappa" in config else None
        doc = planner.plan(config["theta"], config["mode"], kappa).to_json()
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from None
    except OverflowError:
        raise ConfigError(f"theta = {config['theta']}, kappa = {config.get('kappa')}: the "
                          "planned parameters are beyond the double range") from None
    doc["passed"] = True
    return doc


def _cmd_solve(config: dict) -> dict:
    stride, out_dir, eps_par = config["stride"], config.get("out"), config["eps_par"]
    name, params, problem = _solve_setup(config)
    # without a radius at t = 0 the radius gate has nothing to compare against
    if np.isnan(solver.gevrey_radius_fit(engine.squared_moduli(problem.g), problem.gevrey_s)[0]):
        raise ConfigError(f"c0 = {problem.gevrey_c0}, n_lattice = {problem.g.shape[1]}: "
                          "the data's Gevrey radius fit at t = 0 is inconclusive")
    h = config.get("h", 1.0 / float(params.ell))
    res = solver.solve_cauchy(problem, params, (h,), eps_par=eps_par, dt=config.get("dt"),
                              stride=stride)
    tr, states = res.traces[0], res.states[0]
    eta = res.dt**2 + 1e-8
    stride_eta = eta * stride
    increments = tr.increments[1:]
    if tr.er_mode == "skipped":
        # x-dependent coefficients: the monotone-energy gate only applies
        # where Op(R) is an exact multiplier
        monotone = None
    else:
        monotone = bool(np.all(increments <= stride_eta))
    a = float(params.a)
    c_t = tr.gevrey_c
    have_radius = np.all(np.isfinite(c_t))
    radius_ok = bool(
        have_radius
        and np.all(c_t >= c_t[0] - a * tr.times * 1.1 - 1e-9)
        and np.all(c_t > 0)
    )
    rep = solver.energy_residual(tr)
    if out_dir:
        tr.to_csv(os.path.join(out_dir, "energy_trace.csv"))
        states.tofile(os.path.join(out_dir, "trajectory.bin"))
        with open(os.path.join(out_dir, "trajectory_meta.json"), "w") as fh:
            json.dump({"shape": list(states.shape), "dtype": "complex128",
                       "order": "C", "times": [float(t) for t in tr.times]},
                      fh, sort_keys=True, indent=2)
    return {
        "preset": name,
        "params": params.to_json(),
        "n_lattice": problem.g.shape[1],
        "h": h, "eps_par": eps_par, "dt": res.dt,
        "horizon": problem.horizon,
        "er_mode": tr.er_mode,
        "eta_per_step": eta,
        "max_increment": float(np.max(increments)) if monotone is not None else None,
        "energy_monotone": monotone,
        "gevrey_c0_fit": float(c_t[0]) if have_radius else None,
        "gevrey_c_final": float(c_t[-1]) if have_radius else None,
        "radius_ok": radius_ok,
        "empirical_c_first": rep.c_first,
        "empirical_c_second": rep.c_second,
        "passed": bool((monotone is not False) and (radius_ok or not have_radius)),
    }


def _cmd_study_h(config: dict) -> dict:
    h_list = config["h_list"]
    config = dict(config)
    config.setdefault("ell", 1.0 / max(h_list))
    name, params, problem = _solve_setup(config)
    st = solver.h_uniformity_study(problem, params, h_list, dt=config.get("dt"))
    return {
        "preset": name,
        "params": params.to_json(),
        "h_values": st.h_values,
        "constants_first": st.constants_first,
        "constants_second": st.constants_second,
        "spread_first": st.spread_first,
        "spread_second": st.spread_second,
        "curve_spread": st.curve_spread,
        "passed": st.passed,
    }


def _cmd_study_parabolic(config: dict) -> dict:
    if len(set(config["eps_list"])) < 2:
        raise ConfigError("eps_list: the rate fit needs at least two distinct values")
    name, params, problem = _solve_setup(config)
    st = solver.parabolic_study(problem, params, config["eps_list"], dt=config.get("dt"),
                                h=config.get("h"))
    return {
        "preset": name,
        "eps_values": st.eps_values,
        "self_differences": st.self_differences,
        "rate": st.rate,
        "sup_norms": st.sup_norms,
        "energy_spread": st.energy_spread,
        "passed": bool(st.passed_rate and st.passed_uniform),
    }


def _cmd_report(config: dict) -> dict:
    run_dir = config["run_dir"]
    summary_path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(summary_path):
        raise ConfigError(f"no summary.json under {run_dir!r}")
    try:
        with open(summary_path) as fh:
            summary = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{summary_path} is not valid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise ConfigError(f"{summary_path} does not hold a JSON object")
    lines = [f"run report: {run_dir}", "=" * 40]
    for key in sorted(summary):
        if key in ("config",):
            continue
        lines.append(f"{key}: {summary[key]}")
    trace_path = os.path.join(run_dir, "energy_trace.csv")
    if os.path.exists(trace_path):
        with open(trace_path) as fh:
            rows = fh.read().strip().splitlines()
        lines.append("")
        lines.append(f"energy trace: {len(rows) - 1} samples")
        lines += rows[:2] + (["..."] if len(rows) > 3 else []) + rows[-1:]
    text = "\n".join(lines) + "\n"
    out_path = os.path.join(run_dir, "report.txt")
    with open(out_path, "w") as fh:
        fh.write(text)
    return {"report": out_path, "passed": bool(summary.get("passed", True))}


_DISPATCH = {
    "certify": _cmd_certify,
    "theta": _cmd_theta,
    "nuij": _cmd_nuij,
    "symmetrize": _cmd_symmetrize,
    "conjtest": _cmd_conjtest,
    "plan": _cmd_plan,
    "solve": _cmd_solve,
    "study-h": _cmd_study_h,
    "study-parabolic": _cmd_study_parabolic,
    "report": _cmd_report,
}


def run(config: dict, out_dir: str | None = None) -> tuple[int, dict]:
    """Execute one command; returns (exit_status, summary).

    Exit status: 0 ok, 1 criterion failed.  Configuration and numeric
    failures raise and are mapped to codes 2/3 by the CLI.
    """
    resolved = validate_config(config)
    command = resolved["command"]
    if out_dir is not None:
        resolved["out"] = out_dir
    out_dir = resolved.get("out")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    # the summary echoes the config as given, not the resolved one
    summary = {"command": command, "config": config, **_DISPATCH[command](resolved)}
    if out_dir:
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    status = 0 if summary.get("passed", True) else 1
    return status, summary
