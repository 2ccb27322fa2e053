"""Experiment orchestration: configs, calibration, artifacts, reports.

Every command is a pure function of (config, seed): outputs are
byte-identical across runs on the same build.  Summaries carry per-criterion
pass/fail plus every fitted constant, a report's fields under their own names
(``dataclasses.asdict``); the report command only aggregates, never recomputes.
A solve or study refuses, before calibrating, an n_lattice whose data memory
cannot hold; ``solve`` writes its trajectory a block of lattice states at a time.
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
from hypersym.coeffs import MAX_M, SystemCoefficients, coeffs_from_json
from hypersym.errors import ConfigError, HypersymError, NotRealRootedError, is_json, require_memory
from hypersym.presets import get_preset
from hypersym.weights import EXP_BUDGET, bracket

SCHEMA_VERSION = "1"


def _prop(kind: str, default=None, **bounds) -> dict:
    """One field: its JSON type, its literal default if it has one, and its bounds: an
    array's ``items`` schema, an object's ``properties`` and ``required`` keys."""
    prop = {"type": kind, **bounds}
    if default is not None:
        prop["default"] = default
    return prop


def _list(kind: str, default, **item_bounds) -> dict:
    return _prop("array", default, items=_prop(kind, **item_bounds), minItems=1)


def _schema(extra: dict, required: list[str]) -> dict:
    props = {"command": _prop("string"), "schema_version": _prop("string"),
             "out": _prop("string"), **extra}
    return _prop("object", properties=props, required=["command", "schema_version"] + required)


# A field without a default is required, or its default is derived from other
# values in the handler (solve's h, s, c0, horizon and dt; study-h's ell).
_POS = {"exclusiveMinimum": 0}
_CUTOFF = _prop("number", minimum=0)  # h = 0 means no cutoff
_LATTICE = _prop("integer", 256, minimum=2, powerOfTwo=True)

# An inline document, in place of a preset; its entries sum to the coefficients
# (coeffs_from_json), and a cell of a grid may hold none
_ENTRY = _prop("object", properties={"x_freq": _prop("integer"), "t_term": _prop("string"),
                                     "re": _prop("number"), "im": _prop("number", 0.0)},
               required=["x_freq", "t_term", "re"])
_GRID = _prop("array", items=_prop("array", items=_prop("array", items=_ENTRY)))
_SYSTEM = {"preset": _prop("string"), "coeffs": _prop("object", properties={
    "m": _prop("integer", minimum=1, maximum=MAX_M), "A": _GRID, "B": _GRID,
    "t_regularity": _prop("string", "lipschitz", enum=["lipschitz", "holder"]),
    "kappa": _prop("number", maximum=1, **_POS)}, required=["m", "A"])}
_SEED = {"seed": _prop("integer", minimum=0)}

_SOLVE = {**_SYSTEM, **_SEED, "n_lattice": _LATTICE, "s": _prop("number", **_POS),
          "c0": _prop("number", **_POS), "dt": _prop("number", **_POS)}

COMMAND_SCHEMAS = {
    "certify": _schema({**_SYSTEM, "tol": _prop("number", 1e-9, minimum=0),
                        "n_t": _prop("integer", 4, minimum=1),
                        "n_x": _prop("integer", 6, minimum=1),
                        "xi_values": _list("number", [1.0, -1.0, 2.0]),
                        "s_values": _list("number", list(np.geomspace(1e-4, 1e-1, 7)),
                                          **_POS),
                        "y_values": _list("number", [1.0, 0.5, -1.0])}, []),
    "theta": _schema({**_SYSTEM, "eps_lo": _prop("number", 1e-3, **_POS),
                      "eps_hi": _prop("number", 1e-1, **_POS),
                      "n_eps": _prop("integer", 9, minimum=2),
                      "n_t": _prop("integer", 4, minimum=1),
                      "n_x": _prop("integer", 5, minimum=1)}, []),
    # degree 1 has no root gap, so m_max < 2 would check nothing; spread 0
    # draws coincident roots, which the split handles
    "nuij": _schema({**_SEED, "m_max": _prop("integer", 6, minimum=2),
                     "n_polys": _prop("integer", 200, minimum=1),
                     "spread": _prop("number", 3.0, minimum=0),
                     "s_values": _list("number", list(np.geomspace(1e-3, 1.0, 7)))},
                    ["seed"]),
    "symmetrize": _schema({**_SYSTEM, "xi_lo": _prop("number", 2.0**4, **_POS),
                           "xi_hi": _prop("number", 2.0**12, **_POS),
                           "n_xi": _prop("integer", 9, minimum=2),
                           "n_t": _prop("integer", 4, minimum=1),
                           "n_x": _prop("integer", 5, minimum=1)}, []),
    # the Gevrey weight e^{tau <xi>^rho} needs tau > 0 and 0 < rho < 1
    "conjtest": _schema({"tau": _prop("number", 1.5, **_POS),
                         "rho": _prop("number", 0.75, exclusiveMaximum=1, **_POS),
                         "ell": _prop("number", 1.0, **_POS),
                         "n_lattice": _LATTICE,
                         # the probe's Taylor sum divides by j! for j <= k, and
                         # 171! is past the double range
                         "k_list": _list("integer", [0, 1, 2], minimum=0, maximum=170),
                         "order_one": _prop("boolean", True)}, []),
    "plan": _schema({"theta": _prop("integer", minimum=0), "kappa": _prop("string"),
                     "mode": _prop("string", "lipschitz", enum=["lipschitz", "holder"])},
                    ["theta"]),
    # a negative eps_par is anti-dissipative, and lam_bound's stability scale
    # would no longer bound the step
    "solve": _schema({**_SOLVE, "h": _CUTOFF, "eps_par": _prop("number", 0.0, minimum=0),
                      "horizon": _prop("number", **_POS), "ell": _prop("number", **_POS)},
                     ["seed"]),
    "study-h": _schema({**_SOLVE, "h_list": _list("number", [1 / 64, 1 / 128, 1 / 256],
                                                  **_POS)}, ["seed"]),
    "study-parabolic": _schema({**_SOLVE, "h": _CUTOFF,
                                "eps_list": _list("number", [1e-2, 1e-3, 1e-4], **_POS)},
                               ["seed"]),
    "report": _schema({"run_dir": _prop("string")}, ["run_dir"]),
}


_BOUNDS = {
    "minimum": (lambda v, b: v >= b, "is less than the minimum of"),
    "exclusiveMinimum": (lambda v, b: v > b, "is less than or equal to the minimum of"),
    "maximum": (lambda v, b: v <= b, "is greater than the maximum of"),
    "exclusiveMaximum": (lambda v, b: v < b, "is greater than or equal to the maximum of"),
}


def _violation(value, prop: dict) -> str | None:
    """How ``value`` breaks its field's type or bounds, or None."""
    if not is_json(value, prop["type"]):
        return f"is not of type {prop['type']!r}"
    if "enum" in prop and value not in prop["enum"]:
        return f"is not one of {prop['enum']!r}"
    for bound, (holds, words) in _BOUNDS.items():
        if bound in prop and not holds(value, prop[bound]):
            return f"{words} {prop[bound]!r}"
    if prop.get("powerOfTwo") and value & (value - 1):
        return "is not a power of two"
    if "minItems" in prop and len(value) < prop["minItems"]:
        return f"has fewer than the minItems of {prop['minItems']}"
    return None


def _check(path: str, value, prop: dict):
    """A copy of ``value`` with each object's defaults filled in, or ConfigError
    naming by its ``path`` the first value that breaks ``prop``."""
    why = _violation(value, prop)
    if why:
        raise ConfigError(f"config rejected: {path}: {value!r} {why}")
    if prop["type"] == "array":
        return [_check(f"{path}[{i}]", v, prop["items"]) for i, v in enumerate(value)]
    if prop["type"] != "object":
        return value
    where = f"{path}: " if path else ""
    for key in prop["required"]:
        if key not in value:
            raise ConfigError(f"config rejected: {where}{key!r} is a required property")
    checked = {}
    for key, v in value.items():
        if key not in prop["properties"]:
            raise ConfigError(f"config rejected: {where}unknown field {key!r}")
        checked[key] = _check(f"{path}.{key}" if path else key, v, prop["properties"][key])
    return {**{key: copy.deepcopy(p["default"]) for key, p in prop["properties"].items()
               if "default" in p}, **checked}


def validate_config(config: dict) -> dict:
    """Check a config against its command's schema; return a copy with defaults filled in.

    Unknown fields and commands are rejected, and so is any value of the
    wrong JSON type or outside its field's bounds, at any depth of an inline
    document.  A boolean is neither an integer nor a number.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in COMMAND_SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; have {sorted(COMMAND_SCHEMAS)}")
    if config.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION!r}")
    return _check("", config, COMMAND_SCHEMAS[command])


def _resolve_coeffs(config: dict) -> tuple[SystemCoefficients, int | None, str]:
    if ("preset" in config) == ("coeffs" in config):
        raise ConfigError("config needs exactly one of a preset and inline coeffs")
    if "coeffs" in config:
        return coeffs_from_json(config["coeffs"]), None, "inline"
    try:
        p = get_preset(config["preset"])
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    return p.coeffs, p.theta, config["preset"]


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
    # one certificate over the scales of c and of the theta fits' c_hat; on a
    # real system H(x, -y) = conj H(x, y) at the imaginary steps, and y = 1 serves
    ys = (1.0,) if coeffs.real_valued else (1.0, -1.0)
    cert = matkernel.spectral_bound_certify(
        coeffs, ts, xs, ys, np.array(sorted({*_C_SCALES, *matkernel.THETA_SCALES}))
    )
    c = max(1.05 * cert.max_ratio_over(_C_SCALES, ys), 0.5)
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
    # imaginary spread of H_N relative to the damping scale, over a probe set's distinct nodes
    probe = planner.ParameterSet(rho=0.5, a=2.0, ell=4.0, tau=min(0.5, eps0), T=2.0,
                                 c1=0.1, theta=theta, a0=0.0, eps0=eps0, c_spec=c)
    xis = np.array([4.0, 16.0, 64.0])
    mu = bracket(xis, 4.0) ** 0.5
    t_nodes, x_nodes = coeffs.symbol_nodes(ts, xs)
    h = symmetrizer.hn_over_lattice(coeffs, probe, t_nodes[:, None, None], x_nodes[:, None], xis)
    # block_eigvals refuses non-finite entries of H_N
    spread = matkernel._max_imag(h, coeffs.blocks) / (c * mu)
    a0 = float(np.max(spread)) * 1.05
    return Calibration(c=c, a0=a0, eps0=eps0, theta=theta)


def run_params(
    cal: Calibration,
    mode: str = "lipschitz",
    kappa=None,
    ell_max: float | None = None,
) -> planner.ParameterSet:
    """The planner's parameters for a problem's calibration, its constants taken exactly.

    ``ell_max`` caps ``ell`` (see :func:`planner.plan`).  The uncapped
    template keeps the damping at scale ``a >= 2`` even when the empirical
    floor is lower, so the weight window stays nontrivial.
    """
    a0 = cal.a0 if ell_max is not None else max(cal.a0, 1.0)
    return planner.plan(cal.theta, mode, kappa, c=cal.c, a0=a0, eps0=cal.eps0,
                        ell_max=ell_max).params


def _solve_setup(config: dict):
    """(preset name, calibrated parameters, Cauchy problem) of a solve or study."""
    n_x = config["n_lattice"]
    coeffs, theta_decl, name = _resolve_coeffs(config)
    # the data and its lattice-sized temporaries, before anything is calibrated: tracemalloc
    # reads 20 m + 18 bytes a mode at m = 1 to 8 (16 m of them held), 16 m + 16 with the t = 0 fit
    require_memory((20 * coeffs.m + 24) * n_x, f"n_lattice = {n_x}: the data's lattice arrays")
    cal = calibrate(coeffs, theta_decl)
    params = run_params(cal, coeffs.t_regularity, coeffs.kappa, ell_max=config.get("ell"))
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
    if not np.vdot(g, g).real >= np.finfo(float).tiny:
        raise ConfigError(f"c0 = {c0}: the data's squared amplitudes, at most e^(-2 c0), "
                          "fall below the normal double range")
    # past (T - c1)/a the running window tau = T - a t of the weight falls
    # below c1 and then below zero, where the energy and radius gates are vacuous
    window = (big_t - float(params.c1)) / float(params.a)
    horizon = config.get("horizon", window)
    if horizon > window:
        raise ConfigError(f"horizon = {horizon} is beyond the weight window "
                          f"(T - c1)/a = {window:.6g}")
    return name, params, solver.CauchyProblem(coeffs, g, horizon=horizon, gevrey_s=s,
                                              gevrey_c0=c0)


# ---------------------------------------------------------------------------
# Commands


def _sample_grids(config: dict, coeffs: SystemCoefficients, node_bytes: float,
                  *fields: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_t`` t samples on [0, 1] and ``n_x`` x samples on the torus,
    refused as a configuration error when they and ``node_bytes`` at each
    distinct (t, x) node pass the machine's memory.  The refusal names n_t,
    n_x and ``fields``, the other config fields that ``node_bytes`` counts.
    A two-point grid shows which axes the distinct nodes keep."""
    n_t, n_x = config["n_t"], config["n_x"]
    t_kept, x_kept = (v.size > 1 for v in coeffs.symbol_nodes((0.0, 1.0), (0.0, 1.0)))
    nodes = (n_t if t_kept else 1) * (n_x if x_kept else 1)
    named = [f"{k} = {config[k]}" for k in ("n_t", "n_x")] + list(fields)
    require_memory(8.0 * (n_t + n_x) + node_bytes * nodes,
                   f"{', '.join(named)}: the sample grids")
    return np.linspace(0.0, 1.0, n_t), np.linspace(0.0, 2 * math.pi, n_x, endpoint=False)


def _cmd_certify(config: dict) -> dict:
    coeffs, theta, name = _resolve_coeffs(config)
    if not any(config["y_values"]):  # at y = 0 every probe is the real symbol
        raise ConfigError("y_values: needs a nonzero entry, or the spectral bound is vacuous")
    # the real-spectrum and spectral-bound stacks: tracemalloc reads 60 m^2
    # bytes a sample on xdep and 43 m^2 on block_direct_sum
    samples = len(config["xi_values"]) + len(config["s_values"]) * len(config["y_values"])
    ts, xs = _sample_grids(config, coeffs, 96 * coeffs.m**2 * samples,
                           "xi_values", "s_values", "y_values")
    rep = matkernel.certify_real_spectrum(coeffs, ts, xs, config["xi_values"],
                                          tol=config["tol"])
    sb = matkernel.spectral_bound_certify(coeffs, ts, xs, config["y_values"],
                                          config["s_values"])
    return {
        "preset": name, "real_spectrum": asdict(rep),
        "spectral_bound": {k: v for k, v in asdict(sb).items() if k != "grid"},
        "passed": bool(rep.passed and sb.passed),
    }


def _cmd_theta(config: dict) -> dict:
    coeffs, theta_decl, name = _resolve_coeffs(config)
    # a node at each barometer frequency holds H_N at every eps, formed with
    # its temporaries at 64 m^2 bytes an eps, and, where a batch holds one
    # eps, the norms at its 37 s values (matkernel._exp_norm_bytes a value):
    # tracemalloc reads 2.5 kB a node on xdep and 7.5 kB on block_direct_sum
    # at the 9 eps, against 4.7 and 11.6 charged
    n_eps, n_xis = config["n_eps"], 1 if coeffs.real_valued else 2
    norm_bytes = len(matkernel._GROWTH_SCALES) * matkernel._exp_norm_bytes(coeffs.blocks)
    ts, xs = _sample_grids(config, coeffs, n_xis * (64 * coeffs.m**2 * n_eps + norm_bytes),
                           f"n_eps = {n_eps}")
    eps = np.geomspace(config["eps_lo"], config["eps_hi"], n_eps)
    if eps.max() / eps.min() < matkernel.EPS_SPAN:
        raise ConfigError("eps_lo, eps_hi: eps_values must span at least two decades")
    te = matkernel.estimate_theta(coeffs, eps, t_values=ts, x_values=xs)
    matches = theta_decl is None or te.theta_hat == theta_decl
    return {
        "preset": name, "theta_declared": theta_decl,
        **{k: v for k, v in asdict(te).items() if k != "g_values"},
        "passed": bool(matches and not te.warning),
    }


def _cmd_nuij(config: dict) -> dict:
    n_polys, spread, s_values = config["n_polys"], config["spread"], config["s_values"]
    m_max = config["m_max"]
    if 0 in s_values:
        raise ConfigError("s_values must be nonzero")
    s_arr = np.asarray(s_values, dtype=float)
    # the split's lowest coefficient carries s^m: below the smallest normal
    # double it loses precision, and then underflows to a false double root
    if np.min(np.abs(s_arr)) < np.finfo(float).tiny ** (1.0 / m_max):
        raise ConfigError(f"s_values, m_max: |s|^m_max = {np.min(np.abs(s_arr)):.3g}^"
                          f"{m_max} is below the smallest normal double")
    # the draw's range high - low, which numpy's uniform takes as a double
    if not math.isfinite(2.0 * spread):
        raise ConfigError(f"spread = {spread:.3g}: the draws' range 2 spread is "
                          "past the double range")
    # about 16 (m + 1) + 2 m^2 doubles a split row: rows and Laguerre work arrays,
    # and companions if all rows fall back (tracemalloc at m = 6: 109 and 116);
    # the draw holds under one s value's share, and 16 bytes a seed word
    seed = config["seed"]
    require_memory(8.0 * n_polys * (len(s_values) * (16 * (m_max + 1) + 2 * m_max**2)
                                    + 2 * (seed.bit_length() // 32 + 1)),
                   f"n_polys = {n_polys}, s_values ({len(s_values)} of them)")
    table = []
    worst_margin = math.inf
    for m in range(1, m_max + 1):
        c_m = rootsplit.nuij_constant(m)
        worst = None  # single root: no gap to measure
        if m > 1:
            first = seed + 1000 * m
            rows = rootsplit.expand_roots(rootsplit.random_real_rooted(
                m, spread, range(first, first + n_polys)))[:, None, :]
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
    if config["xi_lo"] == config["xi_hi"]:  # one frequency: every slope fit is empty
        raise ConfigError(f"xi_lo, xi_hi: both are {config['xi_lo']}, so the symbol "
                          "probe has one frequency and fits no slope")
    coeffs, theta_decl, name = _resolve_coeffs(config)
    # the field's stacks at each frequency: tracemalloc reads 70 m^2 bytes a
    # sample on xdep and 67 m^2 on block_direct_sum
    n_xi = config["n_xi"]
    ts, xs = _sample_grids(config, coeffs, 96 * coeffs.m**2 * n_xi, f"n_xi = {n_xi}")
    cal = calibrate(coeffs, theta_decl)
    params = run_params(cal)
    xis = np.geomspace(config["xi_lo"], config["xi_hi"], n_xi)
    field = symmetrizer.build_field(coeffs, params, ts, xs, xis)
    inv = field.check_invariants()
    lyap_ok = inv["max_lyapunov_residual_rel"] <= 1e-8
    # the oracle takes every t and the first two x, at their distinct nodes alone
    sub = tuple(slice(len(v)) for v in coeffs.symbol_nodes(ts, xs[:2])) + (slice(None),)
    quad = symmetrizer.quadrature_R(field.M[sub], np.broadcast_to(
        field.rhs, field.M.shape[:-2])[sub], coeffs.blocks, tol=1e-8)
    agree = float(np.max(
        np.linalg.norm(quad - field.R[sub], axis=(-2, -1))
        / np.linalg.norm(field.R[sub], axis=(-2, -1))
    ))
    lb = symmetrizer.lower_bound_check(field)
    probe = symmetrizer.symbol_estimate_probe(coeffs, params, xis)
    return {
        "preset": name,
        "params": params.to_json(),
        "invariants": inv,
        "lyapunov_ok": bool(lyap_ok),
        "quadrature_agreement": agree,
        "quadrature_ok": bool(agree <= 1e-6),
        "lower_bound": asdict(lb),
        # no a-sweep runs; the key stays for the summaries already recorded
        "symbol_rows": [{**asdict(r), "a_power_fitted": None} for r in probe.rows],
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
        "rows": [{k: v for k, v in asdict(r).items() if k != "band_norms"} for r in rep.rows],
        "monotone": bool(monotone),
        "passed": bool(rep.passed and monotone),
    }


def _cmd_plan(config: dict) -> dict:
    # a Lipschitz plan reads no kappa, and would drop one given
    if "kappa" in config and config["mode"] != "holder":
        raise ConfigError(f"kappa = {config['kappa']}: kappa is read in holder mode only")
    try:
        kappa = Fraction(config["kappa"]) if "kappa" in config else None
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"kappa = {config['kappa']}: {exc}") from None
    doc = planner.plan(config["theta"], config["mode"], kappa).to_json()
    doc["passed"] = True
    return doc


def _cmd_solve(config: dict) -> dict:
    out_dir, eps_par = config.get("out"), config["eps_par"]
    name, params, problem = _solve_setup(config)
    # without a radius at t = 0 the radius gate has nothing to compare against
    if np.isnan(solver.gevrey_radius_fit(engine.fold_amplitudes(engine.squared_moduli(problem.g)),
                                       problem.gevrey_s)[0]):
        raise ConfigError(f"c0 = {problem.gevrey_c0}, n_lattice = {problem.g.shape[1]}: "
                          "the data's Gevrey radius fit at t = 0 is inconclusive")
    h = config.get("h", 1.0 / float(params.ell))
    res = solver.solve_cauchy(problem, params, (h,), eps_par=eps_par, dt=config.get("dt"))
    tr = res.traces[0]
    increments = tr.increments[1:]
    # x-dependent coefficients: the monotone-energy gate only applies where
    # Op(R) is an exact multiplier
    monotone = None if tr.er_mode == "skipped" else bool(np.all(increments <= res.sample_eta))
    c_t = tr.gevrey_c
    have_radius = np.all(np.isfinite(c_t))
    radius_ok = bool(have_radius and np.all(c_t > 0)
                     and np.all(c_t >= c_t[0] - float(params.a) * tr.times * 1.1 - 1e-9))
    c_first, c_second = (float(c) for c in tr.estimate_curves.max(axis=0))
    if out_dir:
        tr.to_csv(os.path.join(out_dir, "energy_trace.csv"))
        with open(os.path.join(out_dir, "trajectory.bin"), "wb") as fh:
            for states in res.lattice_blocks(0):
                states.tofile(fh)
        with open(os.path.join(out_dir, "trajectory_meta.json"), "w") as fh:
            json.dump({"shape": [tr.times.size, *problem.g.shape], "dtype": "complex128",
                       "order": "C", "times": [float(t) for t in tr.times]},
                      fh, sort_keys=True, indent=2)
    return {
        "preset": name,
        "params": params.to_json(),
        "n_lattice": problem.g.shape[1],
        "h": h, "eps_par": eps_par, "dt": res.dt,
        "horizon": problem.horizon,
        "er_mode": tr.er_mode,
        "eta_per_step": res.eta,
        "max_increment": float(np.max(increments)) if monotone is not None else None,
        "energy_monotone": monotone,
        "gevrey_c0_fit": float(c_t[0]) if have_radius else None,
        "gevrey_c_final": float(c_t[-1]) if have_radius else None,
        "radius_ok": radius_ok,
        "empirical_c_first": c_first,
        "empirical_c_second": c_second,
        "passed": bool((monotone is not False) and (radius_ok or not have_radius)),
    }


def _cmd_study_h(config: dict) -> dict:
    h_list = config["h_list"]
    config = dict(config)
    config.setdefault("ell", 1.0 / max(h_list))
    name, params, problem = _solve_setup(config)
    st = solver.h_uniformity_study(problem, params, h_list, dt=config.get("dt"))
    return {"preset": name, "params": params.to_json(), **asdict(st)}


def _cmd_study_parabolic(config: dict) -> dict:
    if len(set(config["eps_list"])) < 2:
        raise ConfigError("eps_list: the rate fit needs at least two distinct values")
    name, params, problem = _solve_setup(config)
    st = solver.parabolic_study(problem, params, config["eps_list"], dt=config.get("dt"),
                                h=config.get("h"))
    return {"preset": name, **asdict(st)}


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
