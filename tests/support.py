"""Test-side fixtures, references and claim probes that no command runs.

Fixtures build small systems, admissible parameters at a chosen ell,
serialize coefficients into config documents and move states between
Fourier and physical samples.  A field's exact
x-derivatives, summed order by order, are the reference of the closed-form
Taylor symbol.  Faddeev-LeVerrier characteristic polynomials and their
polished, ordered roots are the reference of the block-wise eigenvalues,
and a stack's own block partition, from its nonzero pattern, is the
reference of the system's partition that the kernels take.
The allocating RK4 step is the reference of the solver's buffered step and
of its propagators.  The probes measure claims of the
paper that the acceptance tests check directly: the Hoelder ratio of a
coefficient path, the lower bound of the characteristic polynomial near a
multiple eigenvalue, and the Hoelder difference estimate of the symmetrizer.
The symbol probe's stencils, taken one row at a time, are the reference of
its one batch.  The paper's Gevrey thresholds s0 and the two constraint
lines of the mollifier's (delta, rho) region are the references of the
planner's one exponent, rho, and its constant delta.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hypersym.coeffs import MAX_M, CoeffTerm, SystemCoefficients
from hypersym.errors import HypersymError
from hypersym.matkernel import taylor_symbol
from hypersym.planner import rho_required
from hypersym.presets import get_preset
from hypersym.rootsplit import _sort_rows, polished_roots
from hypersym.symmetrizer import (
    _STENCILS,
    ParameterSet,
    _central,
    _fit_window,
    _lyap_solve_batch,
    damped_generator,
)
from hypersym.weights import bracket

# ---------------------------------------------------------------------------
# Systems and coefficient documents


def constant_system(a1: np.ndarray, b: np.ndarray | None = None) -> SystemCoefficients:
    """System with constant coefficients A1 = a1, B = b."""
    a1 = np.asarray(a1, dtype=complex)
    m = a1.shape[0]
    a_terms = [CoeffTerm(0, "1", a1)]
    b_terms = [] if b is None else [CoeffTerm(0, "1", np.asarray(b, dtype=complex))]
    return SystemCoefficients(m=m, a_terms=a_terms, b_terms=b_terms)


def sine_terms(k: int, matrix: np.ndarray, t_term: str = "1") -> list[CoeffTerm]:
    """Terms realizing ``matrix * g(t) * sin(k x)``."""
    matrix = np.asarray(matrix, dtype=complex)
    if k == 0:
        return []
    return [
        CoeffTerm(k, t_term, matrix / 2j),
        CoeffTerm(-k, t_term, -matrix / 2j),
    ]


def _field_to_json(terms: list[CoeffTerm], m: int) -> list:
    entries = [[[] for _ in range(m)] for _ in range(m)]
    for term in terms:
        for i in range(m):
            for j in range(m):
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


def coeffs_to_json(coeffs: SystemCoefficients) -> dict:
    """The coefficient document ``coeffs_from_json`` reads back."""
    doc = {
        "m": coeffs.m,
        "t_regularity": coeffs.t_regularity,
        "x_band": coeffs.x_band,
        "A": _field_to_json(coeffs.a_terms, coeffs.m),
        "B": _field_to_json(coeffs.b_terms, coeffs.m),
    }
    if coeffs.kappa is not None:
        doc["kappa"] = coeffs.kappa
    return doc


# ---------------------------------------------------------------------------
# Exact x-derivatives and the derivative-sum Taylor symbol


def field_dx(terms: list[CoeffTerm], m: int, t, x, order: int = 0) -> np.ndarray:
    """Exact ``D_x^order`` of the m-by-m field that ``terms`` sum to, ``D_x = -i d/dx``:
    ``D_x^j e^{ikx} = k^j e^{ikx}``.

    ``t`` and ``x`` are scalars or arrays that broadcast together; the result
    has their broadcast shape followed by (m, m).  Order 0 is the field itself.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.broadcast_shapes(t.shape, x.shape) + (m, m), dtype=complex)
    for term in terms:
        out += (
            term.matrix
            * term.g(t)[..., None, None]
            * (term.x_freq**order)
            * np.exp(1j * term.x_freq * x)[..., None, None]
        )
    return out


def taylor_reference(coeffs: SystemCoefficients, t, x, xi, z, order: int) -> np.ndarray:
    """``sum_{j<=order} (z^j / j!) D_x^j A(t, x) xi``, one derivative order at a time."""
    z = np.asarray(z)
    xi = np.asarray(xi, dtype=float)
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), z.shape, xi.shape)
    out = np.zeros(shape + (coeffs.m, coeffs.m), dtype=complex)
    fac = 1.0
    for j in range(order + 1):
        if j > 0:
            fac *= j
        out += ((z**j / fac) * xi)[..., None, None] * field_dx(coeffs.a_terms, coeffs.m, t, x, j)
    return out


def holder_ratio(coeffs: SystemCoefficients, t_lo: float, t_hi: float, n: int = 200) -> float:
    """sup of ||A(t)-A(t')|| / |t-t'|^kappa over sampled pairs."""
    kappa = coeffs.kappa if coeffs.kappa is not None else 1.0
    ts = np.linspace(t_lo, t_hi, n)
    mats = field_dx(coeffs.a_terms, coeffs.m, ts, 0.0)
    worst = 0.0
    for i in range(n - 1):
        for j in (i + 1, min(i + 7, n - 1)):
            dt = abs(ts[j] - ts[i])
            if dt == 0:
                continue
            diff = np.linalg.norm(mats[j] - mats[i], 2)
            worst = max(worst, diff / dt**kappa)
    return worst


def capped_params(preset_name: str, ell: float) -> ParameterSet:
    """Admissible parameters for a preset with a chosen ell, so that every
    cutoff h <= 1/ell is allowed; a0 = 0 keeps the damping-floor constraint
    satisfiable."""
    rho = rho_required(get_preset(preset_name).theta, "lipschitz")[0]
    a = 0.999 * ell ** (1.0 - float(rho))
    c = 0.5
    big_t = a / (2 * c)
    tau = min(0.9 * big_t / c, 0.9 * 0.5 * ell ** (1.0 - float(rho)))
    return ParameterSet(rho=rho, a=a, ell=ell, tau=tau, T=big_t, c1=c * tau / 2,
                        theta=get_preset(preset_name).theta, a0=0.0, eps0=0.5, c_spec=c)


# ---------------------------------------------------------------------------
# Characteristic polynomials and the ordered spectrum they give, and block partitions


def char_poly(h) -> np.ndarray:
    """Monic characteristic polynomials, ascending: ``(..., m, m) -> (..., m+1)``.

    Faddeev-LeVerrier recursion over the whole stack, in complex arithmetic.
    """
    a = np.asarray(h, dtype=complex)
    m = a.shape[-1]
    ident = np.eye(m, dtype=complex)
    coeffs = np.zeros(a.shape[:-2] + (m + 1,), dtype=complex)
    coeffs[..., m] = 1.0
    mk = ident
    for k in range(1, m + 1):
        am = a @ mk
        ck = -np.trace(am, axis1=-2, axis2=-1) / k
        coeffs[..., m - k] = ck
        mk = am + ck[..., None, None] * ident
    return coeffs


def spectrum(m) -> np.ndarray:
    """Eigenvalues of a stack ``(..., n, n) -> (..., n)``, each row ordered by
    real part, then imaginary part.

    For size <= 4 the roots come from the characteristic polynomials via
    companion matrices with one guarded Newton polish step, for
    reproducibility over generic QR ordering; larger sizes fall back to the
    dense solver with the same ordering.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    if n > MAX_M:
        raise ValueError(f"spectrum supports matrices of size <= {MAX_M}")
    if n <= 4:
        return polished_roots(char_poly(m))
    if not np.isfinite(m).all():
        raise HypersymError("matrix entries are not finite: the symbol leaves the double range")
    return _sort_rows(np.linalg.eigvals(m))


def stack_blocks(hs: np.ndarray) -> list[np.ndarray]:
    """Index sets of the decoupled diagonal blocks of a stack (..., m, m): the connected
    components of the exact-nonzero pattern of the whole stack, unioned with its transpose."""
    m = hs.shape[-1]
    link = np.any(hs != 0, axis=tuple(range(hs.ndim - 2)))
    reach = link | link.T | np.eye(m, dtype=bool)
    for _ in range(m.bit_length()):  # paths of length up to 2^k after k squarings
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return [np.flatnonzero(row) for row in np.unique(reach, axis=0)]


# ---------------------------------------------------------------------------
# States


def from_physical(samples: np.ndarray) -> np.ndarray:
    """The state (m, n_x) whose physical samples on the uniform grid are ``samples``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=complex))
    return np.fft.fft(samples, axis=1) / samples.shape[1]


def to_physical(c: np.ndarray) -> np.ndarray:
    return np.fft.ifft(c * c.shape[1], axis=1)


def is_conjugate_symmetric(c: np.ndarray, tol: float = 1e-12) -> bool:
    """Real-valued states: u_hat(-xi) == conj(u_hat(xi))."""
    mirrored = np.roll(c[:, ::-1], 1, axis=1)  # index of -xi
    scale = max(1.0, float(np.max(np.abs(c))))
    return bool(np.max(np.abs(c - mirrored.conj())) <= tol * scale)


# ---------------------------------------------------------------------------
# The reference RK4 step


def generator_matrix(gen, t: float) -> np.ndarray:
    """The matrix ``sum_j g_j(t) L_j`` that ``gen.apply`` takes at time t,
    summed in time-term order, as the solver sums its stage matrices."""
    gs = [g(t) for g in gen.time_terms.values()]
    out = gs[0] * gen.term_matrices[0]
    for g, mat in zip(gs[1:], gen.term_matrices[1:]):
        out = out + g * mat
    return out


def allocating_rhs(gen):
    """``gen.apply`` as ``rhs(t, u)``, each call into a new array."""
    return lambda t, u: gen.apply(generator_matrix(gen, t), u, np.empty_like(u))


def rk4_step(rhs, u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Classical four-stage explicit step for ``du/dt = rhs(t, u)``, every
    stage a new array.  ``solver.step_rk4`` repeats its operations in order."""
    k1 = rhs(t, u)
    k2 = rhs(t + dt / 2.0, u + dt / 2.0 * k1)
    k3 = rhs(t + dt / 2.0, u + dt / 2.0 * k2)
    k4 = rhs(t + dt, u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Characteristic-polynomial lower bound


@dataclass
class QLowerBoundFit:
    """Fit of ``|Q(lambda + i*M*s, ..., i s)|`` against ``s``."""

    c_hat: float
    r_hat: float
    r_declared: int
    m_scale: float
    s_values: np.ndarray
    q_values: np.ndarray
    spread: float
    passed: bool


def q_lower_bound_probe(
    coeffs: SystemCoefficients,
    t: float,
    x: float,
    lam: float,
    r: int,
    y: float,
    s_values,
    xi: float = 1.0,
    m_scale: float = 1.0,
) -> QLowerBoundFit:
    """Probe the lower bound ``|Q| >= c |s|^r`` near a multiplicity-r eigenvalue.

    ``Q(zeta, t, x, y, s) = det(zeta I - H(t, x, y, s))`` with H the spatial
    Taylor symbol of order m.  ``m_scale`` shifts the probe point to
    ``lam + i * m_scale * s`` (large values avoid the degenerate diagonal
    where Q vanishes identically).  Fitted constants are reported rather
    than asserted, since the bound's constant depends on unquantified
    neighborhood sizes.
    """
    s_values = np.asarray(s_values, dtype=float)
    # z = i (i s) y: the spatial Taylor symbol at the imaginary step i s
    hs = taylor_symbol(coeffs, t, x, xi, -s_values * y, coeffs.m)
    zeta = lam + 1j * m_scale * s_values
    q = np.abs(np.linalg.det(zeta[:, None, None] * np.eye(coeffs.m) - hs))
    positive = q > 0
    if np.count_nonzero(positive) < 2:
        return QLowerBoundFit(
            c_hat=0.0, r_hat=math.inf, r_declared=r, m_scale=m_scale,
            s_values=s_values, q_values=q, spread=math.inf, passed=False,
        )
    slope, intercept = np.polyfit(np.log(s_values[positive]), np.log(q[positive]), 1)
    ratios = q[positive] / s_values[positive] ** r
    c_hat = float(np.min(ratios))
    spread = float(np.max(ratios) / np.min(ratios)) if c_hat > 0 else math.inf
    passed = bool(slope <= r + 0.2 and c_hat > 0.0)
    return QLowerBoundFit(
        c_hat=c_hat, r_hat=float(slope), r_declared=r, m_scale=m_scale,
        s_values=s_values, q_values=q, spread=spread, passed=passed,
    )


# ---------------------------------------------------------------------------
# Hoelder differences of the symmetrizer


@dataclass
class HolderDifferenceFit:
    exponent: float | None
    target: float
    max_ratio: float
    passed: bool
    xi_values: np.ndarray
    ratios: np.ndarray


def holder_difference_probe(
    coeffs: SystemCoefficients,
    params: ParameterSet,
    t_pairs,
    xi_values,
    x0: float = 0.0,
    tol: float = 0.15,
) -> HolderDifferenceFit:
    """Measure ``||R(t) - R(t')|| / |t - t'|^kappa`` across scales.

    Passes when the ratio stays bounded and its bracket exponent does not
    exceed ``3 nu + 1 - rho`` + tol.
    """
    kappa = float(params.kappa if params.kappa is not None else coeffs.kappa or 1.0)
    nu, rho = params.nu, float(params.rho)
    xi_values = np.asarray(xi_values, dtype=float)
    ts = sorted({float(t) for pair in t_pairs for t in pair})
    r = dict(zip(ts, _lyap_solve_batch(
        *damped_generator(coeffs, params, np.array(ts)[:, None], x0, xi_values), coeffs.blocks)))
    ratios = np.zeros(len(xi_values))
    for t1, t2 in t_pairs:
        diff = np.linalg.norm(r[float(t1)] - r[float(t2)], 2, axis=(-2, -1))
        ratios = np.maximum(ratios, diff / abs(t1 - t2) ** kappa)
    target = 3 * nu + 1 - rho
    br = bracket(xi_values, float(params.ell))
    if np.max(ratios) <= 1e-12:
        return HolderDifferenceFit(None, target, float(np.max(ratios)), True,
                                   xi_values, ratios)
    good = (ratios > 1e-12) & _fit_window(xi_values, float(params.ell))
    if np.count_nonzero(good) < 3:
        good = ratios > 1e-12
    slope = float(np.polyfit(np.log(br[good]), np.log(ratios[good]), 1)[0])
    passed = bool(slope <= target + tol and np.all(np.isfinite(ratios)))
    return HolderDifferenceFit(slope, target, float(np.max(ratios)), passed,
                               xi_values, ratios)


# ---------------------------------------------------------------------------
# Symbol-probe stencils, one row at a time


def per_row_stencil_derivatives(coeffs, params, x_values, xi_values, t0, alpha, beta,
                                dt_flag) -> np.ndarray:
    """One probe row's central differences of R, as ``symbol_estimate_probe``
    once took them: a ``damped_generator`` call and a Lyapunov solve per row,
    the reference of the probe's one batch over all rows.

    Steps are ``hxi = 1e-3 <xi>_ell``, ``hx = 2 pi / (8 band max(beta, 1) + 64)``
    and ``ht = 1e-3``.  Returns an (n_x, n_xi, m, m) array.
    """
    hx = 2.0 * math.pi / (8.0 * max(coeffs.x_band, 1) * max(beta, 1) + 64.0)
    ht = 1e-3
    ts = t0 + np.array(_STENCILS[int(dt_flag)]) * ht
    hxi = 1e-3 * bracket(xi_values, float(params.ell))
    xis = xi_values[None, :] + np.array(_STENCILS[alpha])[:, None] * hxi[None, :]
    xs = x_values[:, None] + np.array(_STENCILS[beta]) * hx
    # nodes (t offset, x, x offset, xi offset, xi)
    r = _lyap_solve_batch(*damped_generator(coeffs, params, ts[:, None, None, None, None],
                                            xs[:, :, None, None], xis), coeffs.blocks)
    d = _central(np.moveaxis(r, 3, 0), alpha, hxi[:, None, None])
    d = _central(np.moveaxis(d, 2, 0), beta, hx)
    return _central(d, int(dt_flag), ht)


# ---------------------------------------------------------------------------
# Golden summaries


# ---------------------------------------------------------------------------
# Exact thresholds, as the paper states them


def s0_lipschitz_reference(theta: int) -> Fraction:
    """Gevrey threshold for Lipschitz-in-time coefficients: the larger of the
    two a-priori estimates' indices."""
    return max(Fraction(2 + 6 * theta, 1 + 6 * theta), Fraction(3 + 4 * theta, 2 + 4 * theta))


def s0_holder_reference(theta: int, kappa: Fraction) -> Fraction:
    """Gevrey threshold for kappa-Hoelder-in-time coefficients."""
    return min(Fraction(2 + 3 * theta) / (2 + 3 * theta - kappa), s0_lipschitz_reference(theta))


def mollifier_lines(theta: int, kappa: Fraction, delta: Fraction) -> tuple[Fraction, Fraction]:
    """The least rho each constraint of the mollified symmetrizer allows at
    ``delta``: the smoothing line and the time-derivative line."""
    denom = 3 * theta + 2
    return ((3 * theta + 2 - kappa * delta) / denom,
            (3 * theta + 1 + (1 - kappa) * delta) / denom)


def golden_problems(got, want, path="summary") -> list[str]:
    """Where a summary departs from its golden record: floats by more than
    1e-10 relative, any other value or key set by any difference."""
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [p for key in want for p in golden_problems(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in golden_problems(g, w, f"{path}.{i}")]
    if isinstance(want, float) and isinstance(got, float):
        ok = math.isclose(got, want, rel_tol=1e-10, abs_tol=0.0)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]
