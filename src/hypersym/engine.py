"""1-D periodic Fourier pseudodifferential engine.

States live on a truncated integer frequency lattice with transforms
normalized so Parseval holds with unit constant.  Operators are quantized by
the Kohn-Nirenberg rule ``Op(p)u(x) = sum_xi e^{i x xi} p(x, xi) u_hat(xi)``;
for a trig-polynomial symbol this is exact on the lattice, one frequency
shift per x-harmonic (:func:`shift_map`).  A dense Fourier-basis operator
matrix serves as the oracle for conjugation experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypersym.errors import BudgetError, WeightOverflowError
from hypersym.weights import bracket, bracket_pow, gevrey_weight

DENSE_BUDGET = 512


def lattice(n_x: int) -> np.ndarray:
    """Integer frequencies in FFT order: 0..N/2-1, -N/2..-1."""
    return np.fft.fftfreq(n_x, d=1.0 / n_x)


@dataclass(frozen=True)
class SpectralState:
    """m-vector-valued periodic function stored as Fourier coefficients.

    ``coeffs[c, k]`` is the coefficient of component c at the k-th lattice
    frequency (FFT order).  Physical samples are ``u(x_j) = sum_xi
    coeffs * e^{i xi x_j}`` so the squared lattice norm equals the mean
    squared physical samples (unit-constant Parseval).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2:
            raise ValueError("coeffs must be (components, N_x)")
        n = c.shape[1]
        if n < 2 or n & (n - 1):
            raise ValueError("N_x must be a power of two")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_x(self) -> int:
        return self.coeffs.shape[1]

    @property
    def xi(self) -> np.ndarray:
        return lattice(self.n_x)

    @classmethod
    def from_physical(cls, samples: np.ndarray) -> "SpectralState":
        samples = np.atleast_2d(np.asarray(samples, dtype=complex))
        return cls(np.fft.fft(samples, axis=1) / samples.shape[1])

    def to_physical(self) -> np.ndarray:
        return np.fft.ifft(self.coeffs * self.n_x, axis=1)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        """Real-valued states: u_hat(-xi) == conj(u_hat(xi))."""
        c = self.coeffs
        mirrored = np.roll(c[:, ::-1], 1, axis=1)  # index of -xi
        scale = max(1.0, float(np.max(np.abs(c))))
        return bool(np.max(np.abs(c - mirrored.conj())) <= tol * scale)

    def __add__(self, other: "SpectralState") -> "SpectralState":
        return SpectralState(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralState") -> "SpectralState":
        return SpectralState(self.coeffs - other.coeffs)

    def scaled(self, alpha: complex) -> "SpectralState":
        return SpectralState(alpha * self.coeffs)


def weighted_norm(state: SpectralState, sigma: float, ell: float) -> float:
    """l2 norm of ``<xi>_ell^sigma u_hat`` over the lattice, all components."""
    w = bracket_pow(state.xi, ell, sigma)
    return float(np.sqrt(np.sum((np.abs(state.coeffs) * w[None, :]) ** 2)))


# ---------------------------------------------------------------------------
# Symbols and their exact quantization


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


@dataclass(frozen=True)
class TrigMatrixSymbol:
    """Symbol ``p(x, xi) = sum_terms C * f(xi) * e^{i k x}`` with exact D_x.

    Terms are (k, C, f) with integer x-frequency k, matrix C and a scalar
    frequency profile f (None means identically 1).  ``D_x^j`` multiplies
    each term by ``k^j``, exactly.
    """

    m: int
    terms: tuple


def dense_operator_matrix(p: TrigMatrixSymbol, n_x: int) -> np.ndarray:
    """Fourier-basis matrix of Op(p) on the lattice; flattening is component-major.

    Row/column index ``r * N_x + k`` pairs component r with the k-th lattice
    frequency in FFT order.  Each term ``C f(xi) e^{ikx}`` adds
    ``C f(xi_in)`` at (out, in) = (xi_in + k, xi_in), so the matrix is
    exactly banded in ``xi_out - xi_in``.
    """
    m = p.m
    if n_x > DENSE_BUDGET:
        raise BudgetError(f"dense operator limited to N_x <= {DENSE_BUDGET}")
    xi = lattice(n_x)
    fft_pos = (np.arange(n_x) - n_x // 2) % n_x  # of each centered position
    block = np.zeros((n_x, n_x, m, m), dtype=complex)  # (out, in, m, m)
    for k, c, f in p.terms:
        src, tgt = (fft_pos[s] for s in shift_map(k, n_x))
        prof = np.ones(n_x) if f is None else np.asarray(f(xi), dtype=complex)
        block[tgt, src] += prof[src, None, None] * c
    return np.transpose(block, (2, 0, 3, 1)).reshape(m * n_x, m * n_x)


# ---------------------------------------------------------------------------
# Conjugation by Gevrey weights


def conjugated_symbol_bk(
    a: TrigMatrixSymbol, tau: float, rho: float, ell: float, order: int
) -> TrigMatrixSymbol:
    """Truncated conjugation expansion ``b_k``.

    ``b_k = sum_{j<=k} (1/j!) D_x^j a (tau grad <xi>_ell^rho)^j``; per trig
    harmonic the sum collapses to the scalar factor
    ``sum_j (k w(xi))^j / j!`` with ``w = tau rho xi <xi>^(rho-2)``.
    """
    new_terms = []
    for k, c, f in a.terms:

        def profile(xi, _f=f, _k=k):
            xi = np.asarray(xi, dtype=float)
            w = tau * rho * xi * bracket(xi, ell) ** (rho - 2.0)
            acc = np.zeros(xi.shape, dtype=complex)
            fac = 1.0
            for j in range(order + 1):
                if j > 0:
                    fac *= j
                acc += (_k * w) ** j / fac
            base = 1.0 if _f is None else np.asarray(_f(xi), dtype=complex)
            return base * acc

        new_terms.append((k, c, profile))
    return TrigMatrixSymbol(m=a.m, terms=tuple(new_terms))


@dataclass
class ConjugationOrderRow:
    k: int
    target: float
    fitted: float | None
    band_centers: np.ndarray
    band_norms: np.ndarray
    passed: bool


@dataclass
class ConjugationReport:
    rows: list[ConjugationOrderRow]
    tau_used: float
    tau_shrunk: bool
    rho: float
    ell: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def conjugation_remainder_probe(
    a: TrigMatrixSymbol,
    tau: float,
    rho: float,
    ell: float,
    k_list,
    n_x: int,
    tol: float = 0.2,
    two_sided: bool = False,
) -> ConjugationReport:
    """Empirical order of the conjugation remainder per truncation level.

    The exact conjugated operator is computed as ``W Op(a) W^{-1}`` with W
    the diagonal Gevrey weight (dense oracle); the remainder
    ``Delta_k = exact - Op(b_k)`` is restricted to dyadic input-frequency
    bands and its operator norm fitted against the bracket.  Passing is
    one-sided (fitted order <= max(rho - k(1-rho), rho - 1) + tol) unless
    ``two_sided`` demands agreement within tol.  If the weight overflows the
    budget, tau is halved until admissible and reported.
    """
    xi = lattice(n_x)
    tau_used, shrunk = float(tau), False
    while True:
        try:
            w_vals = gevrey_weight(xi, tau_used, rho, ell)
            break
        except WeightOverflowError:
            tau_used /= 2.0
            shrunk = True
            if tau_used < 1e-8:
                raise
    exact = dense_operator_matrix(a, n_x)
    w_diag = np.tile(w_vals, a.m)
    exact = exact * w_diag[:, None] / w_diag[None, :]

    abs_xi = np.abs(xi)
    j_max = int(math.log2(n_x // 2))
    bands = []
    for j in range(1, j_max):
        cols = np.where((abs_xi >= 2**j) & (abs_xi < 2 ** (j + 1)))[0]
        if cols.size:
            bands.append((math.sqrt(2**j * 2 ** (j + 1)), cols))

    rows = []
    for k in sorted(k_list):
        bk = conjugated_symbol_bk(a, tau_used, rho, ell, k)
        approx = dense_operator_matrix(bk, n_x)
        delta = exact - approx
        centers = np.array([c for c, _ in bands])
        norms = np.array(
            [
                np.linalg.norm(
                    delta[:, np.concatenate([cols + r * n_x for r in range(a.m)])], 2
                )
                for _, cols in bands
            ]
        )
        target = max(rho - k * (1.0 - rho), rho - 1.0)
        good = norms > 1e-13 * max(1.0, float(np.max(np.abs(exact))))
        if np.count_nonzero(good) < 2:
            rows.append(ConjugationOrderRow(k, target, None, centers, norms, True))
            continue
        br = bracket(centers[good], ell)
        slope = float(np.polyfit(np.log(br), np.log(norms[good]), 1)[0])
        if two_sided:
            ok = abs(slope - target) <= tol
        else:
            ok = slope <= target + tol
        rows.append(ConjugationOrderRow(k, target, slope, centers, norms, bool(ok)))
    return ConjugationReport(rows=rows, tau_used=tau_used, tau_shrunk=shrunk,
                             rho=rho, ell=ell)
