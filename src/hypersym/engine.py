"""1-D periodic Fourier pseudodifferential engine.

A state of an m-vector system is a complex array of shape (m, N_x): row c
holds the Fourier coefficients of component c on the integer frequency
lattice in FFT order (:func:`lattice`), and a stack of states is
(..., m, N_x).  Physical samples are ``u(x_j) = sum_xi u_hat e^{i xi x_j}``,
so Parseval holds with unit constant: the squared lattice norm is the mean
squared physical sample.  Operators are quantized by the Kohn-Nirenberg
rule ``Op(p)u(x) = sum_xi e^{i x xi} p(x, xi) u_hat(xi)``; for a
trig-polynomial symbol this is exact on the lattice, one frequency shift
per x-harmonic (:func:`shift_map`).  The conjugation probe conjugates a
one-harmonic scalar symbol by the Gevrey weight in closed form: the
remainder has one entry per column, so its norm on a band of columns is the
largest entry there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypersym.errors import WeightOverflowError
from hypersym.weights import bracket, gevrey_weight


def lattice(n_x: int) -> np.ndarray:
    """Integer frequencies in FFT order: 0..N/2-1, -N/2..-1."""
    return np.fft.fftfreq(n_x, d=1.0 / n_x)


def squared_moduli(coeffs) -> np.ndarray:
    """``sum_c |u_hat_c|^2`` of a stack (..., m, N_x) of states: (..., N_x),
    with no temporary of the stack's size."""
    coeffs = np.asarray(coeffs)
    return (np.einsum("...cn,...cn->...n", coeffs.real, coeffs.real)
            + np.einsum("...cn,...cn->...n", coeffs.imag, coeffs.imag))


# ---------------------------------------------------------------------------
# Exact quantization: one frequency shift per x-harmonic


def shift_map(k: int, n: int) -> tuple[slice, slice]:
    """Action of the x-harmonic ``e^{ikx}`` on n consecutive frequencies.

    Positions count the frequencies in ascending (centered) order: the
    whole lattice ``-N_x/2 .. N_x/2 - 1``, or the active band of the
    truncated generator.  Frequency xi goes to xi + k, so position p goes
    to p + k; modes that leave the range are dropped (the spectral
    truncation of the engine).  Returns the ``src`` and ``tgt`` slices.
    """
    keep = max(0, n - abs(k))
    return slice(max(0, -k), max(0, -k) + keep), slice(max(0, k), max(0, k) + keep)


# Slack of a fitted remainder order over its target: the acceptance margin of
# the conjugation criterion, which the order-one fits at N = 256 meet.
_ORDER_TOL = 0.2


@dataclass
class ConjugationOrderRow:
    k: int
    target: float
    fitted: float | None
    band_norms: np.ndarray
    passed: bool


@dataclass
class ConjugationReport:
    rows: list[ConjugationOrderRow]
    tau_used: float
    tau_shrunk: bool

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def conjugation_remainder_probe(
    harmonic: int,
    order: int,
    tau: float,
    rho: float,
    ell: float,
    k_list,
    n_x: int,
    two_sided: bool = False,
) -> ConjugationReport:
    """Empirical order of the conjugation remainder per truncation level.

    The symbol is scalar, ``a = e^{i h x} <xi>_ell^order`` with h the
    ``harmonic``, and W is the diagonal Gevrey weight ``e^{tau <D>^rho}``.
    Then ``W Op(a) W^{-1}`` and ``Op(b_k)``, with ``b_k`` the expansion
    ``sum_{j<=k} (1/j!) D_x^j a (tau grad <xi>_ell^rho)^j``, both send mode xi
    to xi + h alone, and their difference ``Delta_k`` holds in column xi
    ``<xi>^order [e^{tau(<xi+h>^rho - <xi>^rho)} - sum_{j<=k} s^j / j!]``,
    ``s = h tau rho xi <xi>^(rho-2)``; modes whose image leaves the lattice
    are dropped (:func:`shift_map`).  Distinct columns fill distinct rows,
    so the operator norm of ``Delta_k`` on a dyadic input-frequency band is
    the largest entry there, and it is fitted against the bracket.  Passing
    is one-sided (fitted order <= max(rho - k(1-rho), rho - 1) +
    ``_ORDER_TOL``) unless ``two_sided`` demands agreement within
    ``_ORDER_TOL``.  If the lattice's weight overflows the budget, tau is
    halved until admissible and reported.
    """
    tau_used, shrunk = float(tau), False
    while True:
        try:
            gevrey_weight(n_x / 2.0, tau_used, rho, ell)  # the lattice's largest
            break
        except WeightOverflowError:
            tau_used /= 2.0
            shrunk = True
            if tau_used < 1e-8:
                raise
    # the columns, in ascending order, whose image stays on the lattice
    src = shift_map(harmonic, n_x)[0]
    xi = (np.arange(n_x, dtype=float) - n_x // 2)[src]
    profile = bracket(xi, ell) ** order
    exact = profile * np.exp(tau_used * (bracket(xi + harmonic, ell) ** rho
                                         - bracket(xi, ell) ** rho))
    s = harmonic * tau_used * rho * xi * bracket(xi, ell) ** (rho - 2.0)
    threshold = 1e-13 * max(1.0, float(np.max(np.abs(exact), initial=0.0)))

    j_max = int(math.log2(n_x // 2))
    centers = np.sqrt(2.0 ** np.arange(1, j_max) * 2.0 ** np.arange(2, j_max + 1))
    rows = []
    for k in sorted(k_list):
        taylor = sum(s**j / math.factorial(j) for j in range(k + 1))
        # |Delta_k| on the whole lattice, folded onto |xi| = 0 .. N_x/2 - 1
        col = np.zeros(n_x)
        col[src] = np.abs(exact - profile * taylor)
        folded = np.maximum(col[n_x // 2:], col[n_x // 2:0:-1])
        norms = np.array([folded[2**j:2 ** (j + 1)].max() for j in range(1, j_max)])
        target = max(rho - k * (1.0 - rho), rho - 1.0)
        good = norms > threshold
        if np.count_nonzero(good) < 2:
            rows.append(ConjugationOrderRow(k, target, None, norms, True))
            continue
        br = bracket(centers[good], ell)
        slope = float(np.polyfit(np.log(br), np.log(norms[good]), 1)[0])
        if two_sided:
            ok = abs(slope - target) <= _ORDER_TOL
        else:
            ok = slope <= target + _ORDER_TOL
        rows.append(ConjugationOrderRow(k, target, slope, norms, bool(ok)))
    return ConjugationReport(rows=rows, tau_used=tau_used, tau_shrunk=shrunk)
