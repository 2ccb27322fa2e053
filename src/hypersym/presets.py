"""Named coefficient families used by the CLI and the verification suite.

Every preset passes real-spectrum certification, and the declared theta
matches the estimator's output (the bank self-consistency gate in the test
suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hypersym.coeffs import CoeffTerm, SystemCoefficients, cosine_terms


@dataclass(frozen=True)
class Preset:
    coeffs: SystemCoefficients
    theta: int


def _diag_sym() -> Preset:
    s0 = np.array([[0.3, 1.0], [1.0, -0.3]])
    d = np.array([[1.0, 0.0], [0.0, -1.0]])
    terms = []
    for t_term, cf in (("1", 1.0), ("t", 0.25)):
        terms.append(CoeffTerm(0, t_term, cf * s0))
        terms.extend(cosine_terms(1, 0.1 * cf * d, t_term))
    coeffs = SystemCoefficients(m=2, a_terms=terms)
    return Preset(coeffs, theta=0)


def _wave_t2() -> Preset:
    terms = [
        CoeffTerm(0, "t^2", np.array([[0.0, 1.0], [0.0, 0.0]])),
        CoeffTerm(0, "1", np.array([[0.0, 0.0], [1.0, 0.0]])),
    ]
    coeffs = SystemCoefficients(m=2, a_terms=terms)
    return Preset(coeffs, theta=1)


def _jordan_lower() -> Preset:
    a_terms = [CoeffTerm(0, "1", np.array([[0.0, 1.0], [0.0, 0.0]]))]
    b_terms = [CoeffTerm(0, "1", np.array([[0.0, 0.0], [1.0, 0.0]]))]
    coeffs = SystemCoefficients(m=2, a_terms=a_terms, b_terms=b_terms)
    return Preset(coeffs, theta=1)


def _xdep() -> Preset:
    base = np.array([[0.0, 1.0], [0.25, 0.0]])
    d = np.array([[1.0, 0.0], [0.0, -1.0]])
    terms = []
    for t_term, cf in (("1", 1.0), ("t", 0.2)):
        terms.append(CoeffTerm(0, t_term, cf * base))
        terms.extend(cosine_terms(1, 0.5 * cf * d, t_term))
    coeffs = SystemCoefficients(m=2, a_terms=terms)
    return Preset(coeffs, theta=0)


def _holder_k() -> Preset:
    terms = [
        CoeffTerm(0, "1", np.array([[0.0, 1.0], [1.0, 0.0]])),
        CoeffTerm(0, "lacunary(0.5,12)", np.array([[0.0, 0.1], [0.0, 0.0]])),
    ]
    coeffs = SystemCoefficients(m=2, a_terms=terms, t_regularity="holder", kappa=0.5)
    return Preset(coeffs, theta=0)


def _block_direct_sum() -> Preset:
    m = 4
    b1 = np.zeros((m, m))
    b1[0, 1] = b1[1, 0] = 1.0
    b2 = np.zeros((m, m))
    b2[2, 3] = b2[3, 2] = 2.0
    d1 = np.zeros((m, m))
    d1[0, 0], d1[1, 1] = 1.0, -1.0
    terms = []
    for t_term, cf in (("1", 1.0), ("t", 0.25)):
        terms.append(CoeffTerm(0, t_term, cf * (b1 + b2)))
        terms.extend(cosine_terms(1, 0.1 * cf * d1, t_term))
    coeffs = SystemCoefficients(m=m, a_terms=terms)
    return Preset(coeffs, theta=0)


def _wave_x2() -> Preset:
    terms = [
        CoeffTerm(0, "1", np.array([[0.0, 1.0], [2.0, 0.0]])),
    ]
    terms.extend(cosine_terms(1, np.array([[0.0, 0.0], [-2.0, 0.0]])))
    coeffs = SystemCoefficients(m=2, a_terms=terms)
    return Preset(coeffs, theta=1)


_BUILDERS = {
    "diag_sym": _diag_sym,
    "wave_t2": _wave_t2,
    "jordan_lower": _jordan_lower,
    "xdep": _xdep,
    "holder_k": _holder_k,
    "block_direct_sum": _block_direct_sum,
    "wave_x2": _wave_x2,
}


def preset_names() -> list[str]:
    return sorted(_BUILDERS)


def get_preset(name: str) -> Preset:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {preset_names()}") from None
