"""Reference Kohn-Nirenberg quantization on an oversampled physical grid.

Independent of the engine's term-shift quantization: the symbol is sampled
at ``n_q >= 2 (x_band + N_x)`` physical points (no aliasing), the action
``sum_xi e^{i x xi} p(x, xi) u_hat(xi)`` is formed there, and the result is
transformed back and projected onto the lattice.  The dense conjugation
``W Op(a) W^{-1} - Op(b_k)`` built from these matrices is the oracle of the
engine's closed-form conjugation probe.
"""

import math
from dataclasses import dataclass

import numpy as np

from hypersym.engine import lattice
from hypersym.weights import bracket, gevrey_weight


@dataclass(frozen=True)
class TrigMatrixSymbol:
    """Symbol ``p(x, xi) = sum_terms C * f(xi) * e^{i k x}``.

    Terms are (k, C, f) with integer x-frequency k, matrix C and a scalar
    frequency profile f (None means identically 1).
    """

    m: int
    terms: tuple


def symbol_values(symbol: TrigMatrixSymbol, x, xi) -> np.ndarray:
    """``p(x, xi)`` on the tensor grid; shape (len(x), len(xi), m, m)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros((len(x), len(xi), symbol.m, symbol.m), dtype=complex)
    for k, c, f in symbol.terms:
        prof = np.ones(len(xi)) if f is None else np.asarray(f(xi), dtype=complex)
        out += np.exp(1j * k * x)[:, None, None, None] * prof[None, :, None, None] * c
    return out


def kn_matrix(symbol: TrigMatrixSymbol, n_x: int) -> np.ndarray:
    """Fourier-basis matrix of ``Op(symbol)`` on the lattice, component-major.

    Row/column ``r * N_x + k`` pairs component r with the k-th lattice
    frequency in FFT order.  Column (c, xi_in) is the unit mode pushed
    through the grid: ``e^{i x xi_in} p(x, xi_in)[:, c]`` sampled at the
    ``n_q`` points, transformed back and read at the lattice frequencies.
    """
    x_band = max((abs(k) for k, _, _ in symbol.terms), default=0)
    n_q = 1 << (2 * (x_band + n_x) - 1).bit_length()
    x = 2.0 * np.pi * np.arange(n_q) / n_q
    xi = lattice(n_x)
    fine = np.exp(1j * np.outer(x, xi))[:, :, None, None] * symbol_values(symbol, x, xi)
    block = (np.fft.fft(fine, axis=0) / n_q)[xi.astype(int) % n_q]  # (out, in, r, c)
    m = symbol.m
    return np.transpose(block, (2, 0, 3, 1)).reshape(m * n_x, m * n_x)


def kn_apply(symbol: TrigMatrixSymbol, coeffs_hat: np.ndarray) -> np.ndarray:
    """``Op(symbol)`` applied to lattice coefficients (components, N_x)."""
    n_x = coeffs_hat.shape[1]
    return (kn_matrix(symbol, n_x) @ coeffs_hat.reshape(-1)).reshape(coeffs_hat.shape)


def generator_symbol(coeffs, t: float) -> TrigMatrixSymbol:
    """``i A(t, x, xi) + B(t, x)`` at frozen time, one symbol term per coefficient term."""
    terms = [(term.x_freq, 1j * term.matrix * float(term.g(t)),
              lambda xi: np.asarray(xi, dtype=complex))
             for term in coeffs.a_terms]
    terms += [(term.x_freq, term.matrix * float(term.g(t)), None)
              for term in coeffs.b_terms]
    return TrigMatrixSymbol(m=coeffs.m, terms=tuple(terms))


def conjugated_symbol_bk(a: TrigMatrixSymbol, tau: float, rho: float, ell: float,
                         order: int) -> TrigMatrixSymbol:
    """Truncated conjugation expansion ``b_k = sum_{j<=k} (1/j!) D_x^j a
    (tau grad <xi>_ell^rho)^j``: per harmonic k the profile takes the factor
    ``sum_j (k w(xi))^j / j!`` with ``w = tau rho xi <xi>^(rho-2)``."""
    def profile(xi, f, k):
        xi = np.asarray(xi, dtype=float)
        w = k * tau * rho * xi * bracket(xi, ell) ** (rho - 2.0)
        base = 1.0 if f is None else np.asarray(f(xi), dtype=complex)
        return base * sum(w**j / math.factorial(j) for j in range(order + 1)).astype(complex)

    return TrigMatrixSymbol(a.m, tuple((k, c, lambda xi, f=f, k=k: profile(xi, f, k))
                                       for k, c, f in a.terms))


def dense_conjugation_band_norms(a: TrigMatrixSymbol, tau: float, rho: float, ell: float,
                                 order: int, n_x: int) -> tuple[np.ndarray, float]:
    """Operator 2-norms of ``W Op(a) W^{-1} - Op(b_order)`` on the dyadic bands
    ``2^j <= |xi| < 2^(j+1)``, ``1 <= j < log2(N_x / 2)``, of input frequencies.

    W is the diagonal weight ``e^{tau <xi>^rho}``.  Entries of ``Op(a)`` off
    the symbol's support are the grid transform's rounding, below 1e-13 of
    its largest; the weight ratios, up to ``e^{tau <N_x/2>^rho}``, would lift
    them above the remainder, so they are zeroed first.  Returns the norms
    and the largest entry of ``W Op(a) W^{-1}``.
    """
    exact = kn_matrix(a, n_x)
    exact[np.abs(exact) < 1e-10 * np.max(np.abs(exact))] = 0.0
    w = np.tile(gevrey_weight(lattice(n_x), tau, rho, ell), a.m)
    exact *= w[:, None] / w[None, :]
    delta = exact - kn_matrix(conjugated_symbol_bk(a, tau, rho, ell, order), n_x)
    abs_xi = np.tile(np.abs(lattice(n_x)), a.m)
    norms = [np.linalg.norm(delta[:, (abs_xi >= 2**j) & (abs_xi < 2 ** (j + 1))], 2)
             for j in range(1, int(math.log2(n_x // 2)))]
    return np.array(norms), float(np.max(np.abs(exact)))
