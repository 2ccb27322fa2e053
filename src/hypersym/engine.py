"""1-D periodic Fourier pseudodifferential engine.

States live on a truncated integer frequency lattice with transforms
normalized so Parseval holds with unit constant; operators are quantized by
the Kohn-Nirenberg rule ``Op(p)u(x) = sum_xi e^{i x xi} p(x, xi) u_hat(xi)``
on an oversampled physical grid (alias-free, then projected back onto the
lattice).  A dense Fourier-basis operator matrix serves as the oracle for
conjugation experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypersym.coeffs import SystemCoefficients
from hypersym.errors import AliasingError, BudgetError, WeightOverflowError
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

    def to_csv(self, path) -> None:
        lines = ["xi,component,re,im"]
        xi = self.xi
        for k in np.argsort(xi):
            for c in range(self.m):
                z = self.coeffs[c, k]
                lines.append(f"{int(xi[k])},{c},{z.real!r},{z.imag!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_binary(self, path) -> None:
        np.ascontiguousarray(self.coeffs).tofile(path)


def weighted_norm(state: SpectralState, sigma: float, ell: float) -> float:
    """l2 norm of ``<xi>_ell^sigma u_hat`` over the lattice, all components."""
    w = bracket_pow(state.xi, ell, sigma)
    return float(np.sqrt(np.sum((np.abs(state.coeffs) * w[None, :]) ** 2)))


# ---------------------------------------------------------------------------
# Symbols


def _next_pow2(n: int) -> int:
    return 1 << (int(n - 1).bit_length())


@dataclass(frozen=True)
class TrigMatrixSymbol:
    """Symbol ``p(x, xi) = sum_terms C * f(xi) * e^{i k x}`` with exact D_x.

    Terms are (k, C, f) with integer x-frequency k, matrix C and a scalar
    frequency profile f (None means identically 1).  ``D_x^j`` multiplies
    each term by ``k^j``, exactly.
    """

    m: int
    terms: tuple

    @property
    def x_band(self) -> int:
        return max((abs(k) for k, _, _ in self.terms), default=0)

    def eval(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Sample on the tensor grid; shape (len(x), len(xi), m, m)."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros((len(x), len(xi), self.m, self.m), dtype=complex)
        for k, c, f in self.terms:
            prof = np.ones(len(xi), dtype=complex) if f is None else np.asarray(
                f(xi), dtype=complex
            )
            phase = np.exp(1j * k * x)
            out += phase[:, None, None, None] * prof[None, :, None, None] * c[None, None]
        return out

    def sample(self, n_x: int, n_q: int | None = None) -> "SampledSymbol":
        if n_q is None:
            n_q = _next_pow2(2 * (self.x_band + n_x))
        x = 2.0 * math.pi * np.arange(n_q) / n_q
        xi = lattice(n_x)
        return SampledSymbol(values=self.eval(x, xi), x_band=self.x_band)


def symbol_from_coeffs(coeffs: SystemCoefficients, t: float) -> TrigMatrixSymbol:
    """Generator symbol ``i A(t, x, xi) + B(t, x)`` at frozen time."""
    terms = []
    for k, c in sorted(coeffs.a_field.harmonic_matrices(t).items()):
        terms.append((k, 1j * c, lambda xi: np.asarray(xi, dtype=complex)))
    for k, c in sorted(coeffs.b_field.harmonic_matrices(t).items()):
        terms.append((k, c, None))
    return TrigMatrixSymbol(m=coeffs.m, terms=tuple(terms))


@dataclass(frozen=True)
class SampledSymbol:
    """Matrix symbol sampled on (x_fine, xi_lattice).

    ``values[q, k]`` is the m-by-m matrix at physical point x_q and lattice
    frequency xi_k (FFT order).  The x-resolution must carry the Nyquist
    margin ``n_q >= 2 (x_band + N_x)`` so quantization is alias-free.
    """

    values: np.ndarray  # (n_q, n_x, m, m)
    x_band: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 4 or v.shape[2] != v.shape[3]:
            raise ValueError("values must be (n_q, n_x, m, m)")
        if v.shape[0] < 2 * (self.x_band + v.shape[1]):
            raise AliasingError(
                f"x-resolution {v.shape[0]} below Nyquist margin "
                f">= {2 * (self.x_band + v.shape[1])}"
            )
        object.__setattr__(self, "values", v)

    @property
    def n_q(self) -> int:
        return self.values.shape[0]

    @property
    def n_x(self) -> int:
        return self.values.shape[1]

    @property
    def m(self) -> int:
        return self.values.shape[2]

    def to_csv(self, path) -> None:
        m = self.m
        header = ["x_index", "xi"] + [
            f"{p}_p{i}{j}" for i in range(m) for j in range(m) for p in ("re", "im")
        ]
        xi = lattice(self.n_x)
        lines = [",".join(header)]
        for q in range(self.n_q):
            for k in range(self.n_x):
                row = [str(q), str(int(xi[k]))]
                for i in range(m):
                    for j in range(m):
                        z = self.values[q, k, i, j]
                        row += [repr(z.real), repr(z.imag)]
                lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def quantize_kn(p: SampledSymbol, state: SpectralState) -> SpectralState:
    """Kohn-Nirenberg action, evaluated alias-free and projected to the lattice.

    For x-independent symbols this reduces to the multiplier action exactly;
    output content beyond the lattice is the spectral truncation of the
    engine and is discarded.
    """
    if p.n_x != state.n_x or p.m != state.m:
        raise ValueError("symbol grid does not match state")
    n_q = p.n_q
    x = 2.0 * math.pi * np.arange(n_q) / n_q
    phases = np.exp(1j * np.outer(x, state.xi))  # (n_q, n_x)
    g = np.einsum("qkrc,ck->qkr", p.values, state.coeffs)
    v_fine = np.einsum("qk,qkr->qr", phases, g)
    hat_fine = np.fft.fft(v_fine, axis=0) / n_q  # (n_q, m)
    idx = (state.xi.astype(int)) % n_q
    return SpectralState(hat_fine[idx, :].T)


def dense_operator_matrix(p: SampledSymbol) -> np.ndarray:
    """Fourier-basis matrix of Op(p); flattening is component-major.

    Row/column index ``r * N_x + k`` pairs component r with the k-th lattice
    frequency in FFT order; the (out, in) entry is the x-Fourier coefficient
    of p at frequency ``xi_out - xi_in`` evaluated at xi_in.
    """
    n_x, m = p.n_x, p.m
    if n_x > DENSE_BUDGET:
        raise BudgetError(f"dense operator limited to N_x <= {DENSE_BUDGET}")
    n_q = p.n_q
    p_hat = np.fft.fft(p.values, axis=0) / n_q  # (n_q, n_x, m, m) over x-freqs
    xi = lattice(n_x).astype(int)
    diff = xi[:, None] - xi[None, :]  # (out, in)
    block = p_hat[diff % n_q, np.arange(n_x)[None, :], :, :]  # (out, in, m, m)
    # A trig symbol is exactly banded in x-frequency: entries beyond the band
    # are pure FFT roundoff and must not survive (exponential weights applied
    # downstream would amplify them).
    block = np.where((np.abs(diff) <= p.x_band)[:, :, None, None], block, 0.0)
    dense = np.transpose(block, (2, 0, 3, 1)).reshape(m * n_x, m * n_x)
    return dense


def state_to_vector(state: SpectralState) -> np.ndarray:
    return state.coeffs.reshape(-1)


def hermitian_form(p: SampledSymbol, state: SpectralState) -> float:
    """Energy pairing ``Re <Op(p) v, v>`` (the hermitian-part quadratic form).

    For x-independent hermitian symbols this equals
    ``sum_xi u_hat(xi)* p(xi) u_hat(xi)`` exactly.
    """
    w = quantize_kn(p, state)
    return float(np.real(np.sum(w.coeffs * np.conj(state.coeffs))))


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
    sampled = a.sample(n_x)
    exact = dense_operator_matrix(sampled)
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
        approx = dense_operator_matrix(bk.sample(n_x))
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
