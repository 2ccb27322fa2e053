"""Declarative coefficient fields for first-order systems in one space dimension.

Coefficients are finite trigonometric polynomials in x and small
closed-form expressions in t.  A field is a list of terms::

    C * g(t) * exp(i * k * x)

with C a complex m-by-m matrix, integer x-frequency k, and g drawn from a
small grammar: ``1``, ``t``, ``t^p``, ``|t|^p``, and lacunary cosine sums
``lacunary(kappa, levels)`` producing kappa-Hoelder paths.  Since
``D_x = -i d/dx`` sends a term to k times itself, its x-derivatives are
exact and never formed numerically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from hypersym.errors import ConfigError

MAX_M = 8  # the largest system size

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
        if levels > 1024:
            raise ConfigError(f"time term {term!r}: 2^j overflows a double at j = 1024, "
                              "so lacunary takes at most 1024 levels")

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
    """Sum of trig-polynomial terms of one size, checked on construction.

    Consumers read the terms directly: each is a single x-harmonic, so its
    x-derivatives are exact multiples of itself.
    """

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


def coeffs_from_json(doc: dict) -> SystemCoefficients:
    try:
        m = int(doc["m"])
        if not 1 <= m <= MAX_M:
            raise ConfigError(f"bad coefficient document: m = {m} not in 1..{MAX_M}")
        return SystemCoefficients(
            m=m,
            a_field=_field_from_json(m, doc["A"]),
            b_field=_field_from_json(m, doc.get("B", [[[] for _ in range(m)] for _ in range(m)])),
            t_regularity=doc.get("t_regularity", "lipschitz"),
            kappa=doc.get("kappa"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient document: {exc}") from exc


def cosine_terms(k: int, matrix: np.ndarray, t_term: str = "1") -> list[CoeffTerm]:
    """Terms realizing ``matrix * g(t) * cos(k x)`` as e^{ikx}/2 + e^{-ikx}/2."""
    matrix = np.asarray(matrix, dtype=complex)
    if k == 0:
        return [CoeffTerm(0, t_term, matrix)]
    return [CoeffTerm(k, t_term, matrix / 2.0), CoeffTerm(-k, t_term, matrix / 2.0)]
