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

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from hypersym.errors import ConfigError

MAX_M = 8  # the largest system size

_POW_RE = re.compile(r"^t\^(\d+)$")
_ABS_RE = re.compile(r"^\|t\|\^([0-9.]+)$")
_LAC_RE = re.compile(r"^lacunary\(\s*([0-9.]+)\s*,\s*(\d+)\s*\)$")


@dataclass(frozen=True)
class TimeTerm:
    """A compiled time-grammar expression: called on t (a scalar or an array)
    it returns g(t) in t's shape.  ``omega_max`` is the top angular frequency
    of its cosines, 2^(n-1) for ``lacunary(kappa, n)`` and 0 for the rest."""

    g: object
    omega_max: float = 0.0

    def __call__(self, t):
        return self.g(np.asarray(t, dtype=float))


def time_function(term: str) -> TimeTerm:
    """Compile one time-grammar expression; the string is parsed here, once."""
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
        return TimeTerm(g, 2.0 ** (levels - 1) if levels else 0.0)
    else:
        raise ConfigError(f"unrecognized time term {term!r}")
    return TimeTerm(g)


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


@dataclass
class SystemCoefficients:
    """Coefficients A1(t, x) and B(t, x) of an m-by-m first-order system,
    each the sum of its list of terms (``b_terms`` is empty when B = 0).

    ``t_regularity`` is "lipschitz" or "holder"; in Hoelder mode ``kappa``
    gives the declared exponent, testable by sampling the path.
    Hyperbolicity is a claimed property checked by certification, never
    assumed by construction.
    """

    m: int
    a_terms: list[CoeffTerm]
    b_terms: list[CoeffTerm] = field(default_factory=list)
    t_regularity: str = "lipschitz"
    kappa: float | None = None

    def __post_init__(self):
        for term in self.a_terms + self.b_terms:
            if term.matrix.shape != (self.m, self.m):
                raise ConfigError(
                    f"term matrix shape {term.matrix.shape} != ({self.m}, {self.m})"
                )
        if self.t_regularity not in ("lipschitz", "holder"):
            raise ConfigError(f"bad t_regularity {self.t_regularity!r}")
        if self.t_regularity == "holder" and not (
            self.kappa is not None and 0.0 < self.kappa <= 1.0
        ):
            raise ConfigError("holder mode requires kappa in (0, 1]")

    @property
    def x_band(self) -> int:
        return max((abs(t.x_freq) for t in self.a_terms + self.b_terms), default=0)

    def symbol_nodes(self, t_values, x_values) -> tuple[np.ndarray, np.ndarray]:
        """The t and x values whose nodes hold every distinct A(t, x) of the grid, bit for
        bit: the first t alone when every A term's time term is ``1`` (``t^0`` counts as
        time-dependent), the first x alone when no A term has an x-harmonic."""
        t = np.atleast_1d(np.asarray(t_values, dtype=float))
        x = np.atleast_1d(np.asarray(x_values, dtype=float))
        return (t[:1] if all(term.t_term.strip() == "1" for term in self.a_terms) else t,
                x if any(term.x_freq for term in self.a_terms) else x[:1])

    @functools.cached_property
    def real_valued(self) -> bool:
        """Whether A and B are real: each field's terms C g(t) e^{ikx}, summed by
        (k, time term), have partners conj(C) g(t) e^{-ikx}.  Then
        H_N(t, x, -xi) = -conj H_N(t, x, xi)."""
        for terms in (self.a_terms, self.b_terms):
            field = {}
            for term in terms:
                key = (term.x_freq, term.t_term.strip())
                field[key] = field.get(key, 0.0) + term.matrix
            if any(not np.array_equal(np.conj(mat), field.get((-k, tt), np.zeros_like(mat)))
                   for (k, tt), mat in field.items()):
                return False
        return True

    @functools.cached_property
    def blocks(self) -> list[np.ndarray]:
        """Index sets of the decoupled diagonal blocks of every stack built from the system:
        the components of the A and B terms' nonzero pattern, its transpose and I."""
        link = np.eye(self.m, dtype=bool)
        for term in self.a_terms + self.b_terms:
            link |= term.matrix != 0
        reach = link | link.T
        for _ in range(self.m.bit_length()):  # paths of length up to 2^k after k squarings
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        return [np.flatnonzero(row) for row in np.unique(reach, axis=0)]


def _field_from_json(m: int, entries: list) -> list[CoeffTerm]:
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
    return [
        CoeffTerm(x_freq=k, t_term=tt, matrix=mat)
        for (k, tt), mat in sorted(collected.items(), key=lambda kv: kv[0])
    ]


def coeffs_from_json(doc: dict) -> SystemCoefficients:
    try:
        m = int(doc["m"])
        if not 1 <= m <= MAX_M:
            raise ConfigError(f"bad coefficient document: m = {m} not in 1..{MAX_M}")
        return SystemCoefficients(
            m=m,
            a_terms=_field_from_json(m, doc["A"]),
            b_terms=_field_from_json(m, doc.get("B", [[[] for _ in range(m)] for _ in range(m)])),
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
