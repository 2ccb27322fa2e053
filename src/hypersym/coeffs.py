"""Declarative coefficient fields for first-order systems in one space dimension.

Coefficients are finite trigonometric polynomials in x (entire in x, so every
x-derivative is exact, no numerical differentiation anywhere) and small
closed-form expressions in t.  A field is a sum of terms::

    C * g(t) * exp(i * k * x)

with C a complex m-by-m matrix, integer x-frequency k, and g drawn from a
small grammar: ``1``, ``t``, ``t^p``, ``|t|^p``, and lacunary cosine sums
``lacunary(kappa, levels)`` producing kappa-Hoelder paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from hypersym.errors import ConfigError

_POW_RE = re.compile(r"^t\^(\d+)$")
_ABS_RE = re.compile(r"^\|t\|\^([0-9.]+)$")
_LAC_RE = re.compile(r"^lacunary\(\s*([0-9.]+)\s*,\s*(\d+)\s*\)$")


def time_function(term: str):
    """Compile one time-grammar expression to a vectorized function of t.

    The returned callable takes t as a scalar or an array and returns an
    array of the same shape; the string is parsed here, once.
    """
    term = term.strip()
    if term == "1":
        g = np.ones_like
    elif term == "t":
        g = np.copy
    elif m := _POW_RE.match(term):
        p = int(m.group(1))

        def g(t):
            return t**p
    elif m := _ABS_RE.match(term):
        q = float(m.group(1))

        def g(t):
            return np.abs(t) ** q
    elif m := _LAC_RE.match(term):
        kappa, levels = float(m.group(1)), int(m.group(2))

        def g(t):
            out = np.zeros_like(t)
            for j in range(levels):
                out += 2.0 ** (-kappa * j) * np.cos((2.0**j) * t)
            return out
    else:
        raise ConfigError(f"unrecognized time term {term!r}")
    return lambda t: g(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class CoeffTerm:
    """One additive term ``C * g(t) * exp(i k x)`` of a matrix field."""

    x_freq: int
    t_term: str
    matrix: np.ndarray  # complex (m, m), read-only
    g: object = field(init=False, repr=False, compare=False)  # compiled t_term

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "g", time_function(self.t_term))


class MatrixField:
    """Sum of trig-polynomial terms; evaluation and exact x-derivatives."""

    def __init__(self, m: int, terms: list[CoeffTerm]):
        self.m = m
        self.terms = list(terms)
        for term in self.terms:
            if term.matrix.shape != (m, m):
                raise ConfigError(
                    f"term matrix shape {term.matrix.shape} != ({m}, {m})"
                )

    @property
    def x_band(self) -> int:
        return max((abs(t.x_freq) for t in self.terms), default=0)

    def dx(self, t: float, x: float, order: int) -> np.ndarray:
        """Exact D_x^order with D_x = -i d/dx; D_x^j exp(ikx) = k^j exp(ikx)."""
        out = np.zeros((self.m, self.m), dtype=complex)
        for term in self.terms:
            out += (
                term.matrix
                * float(term.g(t))
                * (term.x_freq**order)
                * np.exp(1j * term.x_freq * x)
            )
        return out

    def harmonic_matrices(self, ts) -> dict[int, np.ndarray]:
        """Collapse the t-dependence: {k: sum of C*g(ts) over terms at k}.

        ``ts`` is a scalar or a 1-D array; each value is an (n_t, m, m) stack.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out: dict[int, np.ndarray] = {}
        for term in self.terms:
            c = term.matrix * term.g(ts)[:, None, None]
            if term.x_freq in out:
                out[term.x_freq] = out[term.x_freq] + c
            else:
                out[term.x_freq] = c
        return out

    def sup_norm_bound(self) -> float:
        """Crude sup over x of the spectral norm at |g(t)| <= g_bound per term."""
        return sum(np.linalg.norm(t.matrix, 2) for t in self.terms)


@dataclass
class SystemCoefficients:
    """Coefficients A1(t, x) and B(t, x) of an m-by-m first-order system.

    ``t_regularity`` is "lipschitz" or "holder"; in Hoelder mode ``kappa``
    gives the declared exponent, testable by sampling the path.
    Hyperbolicity is a claimed property checked by certification, never
    assumed by construction.
    """

    m: int
    a_field: MatrixField
    b_field: MatrixField
    t_regularity: str = "lipschitz"
    kappa: float | None = None

    def __post_init__(self):
        if self.t_regularity not in ("lipschitz", "holder"):
            raise ConfigError(f"bad t_regularity {self.t_regularity!r}")
        if self.t_regularity == "holder" and not (
            self.kappa is not None and 0.0 < self.kappa <= 1.0
        ):
            raise ConfigError("holder mode requires kappa in (0, 1]")

    @property
    def x_band(self) -> int:
        return max(self.a_field.x_band, self.b_field.x_band)

    def eval_a(self, t: float, x: float) -> np.ndarray:
        return self.a_field.dx(t, x, 0)

    def eval_b(self, t: float, x: float) -> np.ndarray:
        return self.b_field.dx(t, x, 0)

    def holder_ratio(self, t_lo: float, t_hi: float, n: int = 200) -> float:
        """sup of ||A(t)-A(t')|| / |t-t'|^kappa over sampled pairs."""
        kappa = self.kappa if self.kappa is not None else 1.0
        ts = np.linspace(t_lo, t_hi, n)
        mats = np.array([self.eval_a(t, 0.0) for t in ts])
        worst = 0.0
        for i in range(n - 1):
            for j in (i + 1, min(i + 7, n - 1)):
                dt = abs(ts[j] - ts[i])
                if dt == 0:
                    continue
                diff = np.linalg.norm(mats[j] - mats[i], 2)
                worst = max(worst, diff / dt**kappa)
        return worst


def _field_to_json(fld: MatrixField) -> list:
    entries = [[[] for _ in range(fld.m)] for _ in range(fld.m)]
    for term in fld.terms:
        for i in range(fld.m):
            for j in range(fld.m):
                z = complex(term.matrix[i, j])
                if z == 0:
                    continue
                entries[i][j].append(
                    {
                        "x_freq": term.x_freq,
                        "t_term": term.t_term,
                        "re": z.real,
                        "im": z.imag,
                    }
                )
    return entries


def _field_from_json(m: int, entries: list) -> MatrixField:
    collected: dict[tuple[int, str], np.ndarray] = {}
    if len(entries) != m:
        raise ConfigError("entry grid does not match matrix size")
    for i in range(m):
        if len(entries[i]) != m:
            raise ConfigError("entry grid does not match matrix size")
        for j in range(m):
            for item in entries[i][j]:
                key = (int(item["x_freq"]), item["t_term"].strip())
                if key not in collected:
                    collected[key] = np.zeros((m, m), dtype=complex)
                collected[key][i, j] += item["re"] + 1j * item.get("im", 0.0)
    terms = [
        CoeffTerm(x_freq=k, t_term=tt, matrix=mat)
        for (k, tt), mat in sorted(collected.items(), key=lambda kv: kv[0])
    ]
    return MatrixField(m, terms)


def coeffs_to_json(coeffs: SystemCoefficients) -> dict:
    doc = {
        "m": coeffs.m,
        "t_regularity": coeffs.t_regularity,
        "x_band": coeffs.x_band,
        "A": _field_to_json(coeffs.a_field),
        "B": _field_to_json(coeffs.b_field),
    }
    if coeffs.kappa is not None:
        doc["kappa"] = coeffs.kappa
    return doc


def coeffs_from_json(doc: dict) -> SystemCoefficients:
    try:
        m = int(doc["m"])
        return SystemCoefficients(
            m=m,
            a_field=_field_from_json(m, doc["A"]),
            b_field=_field_from_json(m, doc.get("B", [[[] for _ in range(m)] for _ in range(m)])),
            t_regularity=doc.get("t_regularity", "lipschitz"),
            kappa=doc.get("kappa"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient document: {exc}") from exc


def constant_system(a1: np.ndarray, b: np.ndarray | None = None) -> SystemCoefficients:
    """System with constant coefficients A1 = a1, B = b."""
    a1 = np.asarray(a1, dtype=complex)
    m = a1.shape[0]
    a_terms = [CoeffTerm(0, "1", a1)]
    b_terms = [] if b is None else [CoeffTerm(0, "1", np.asarray(b, dtype=complex))]
    return SystemCoefficients(m=m, a_field=MatrixField(m, a_terms), b_field=MatrixField(m, b_terms))


def cosine_terms(k: int, matrix: np.ndarray, t_term: str = "1") -> list[CoeffTerm]:
    """Terms realizing ``matrix * g(t) * cos(k x)`` as e^{ikx}/2 + e^{-ikx}/2."""
    matrix = np.asarray(matrix, dtype=complex)
    if k == 0:
        return [CoeffTerm(0, t_term, matrix)]
    return [CoeffTerm(k, t_term, matrix / 2.0), CoeffTerm(-k, t_term, matrix / 2.0)]


def sine_terms(k: int, matrix: np.ndarray, t_term: str = "1") -> list[CoeffTerm]:
    """Terms realizing ``matrix * g(t) * sin(k x)``."""
    matrix = np.asarray(matrix, dtype=complex)
    if k == 0:
        return []
    return [
        CoeffTerm(k, t_term, matrix / 2j),
        CoeffTerm(-k, t_term, -matrix / 2j),
    ]
