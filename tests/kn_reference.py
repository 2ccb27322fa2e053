"""Reference Kohn-Nirenberg quantization on an oversampled physical grid.

Independent of the engine's term-shift quantization: the symbol is sampled
at ``n_q >= 2 (x_band + N_x)`` physical points (no aliasing), the action
``sum_xi e^{i x xi} p(x, xi) u_hat(xi)`` is formed there, and the result is
transformed back and projected onto the lattice.
"""

import numpy as np

from hypersym.engine import TrigMatrixSymbol, lattice


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
             for term in coeffs.a_field.terms]
    terms += [(term.x_freq, term.matrix * float(term.g(t)), None)
              for term in coeffs.b_field.terms]
    return TrigMatrixSymbol(m=coeffs.m, terms=tuple(terms))
