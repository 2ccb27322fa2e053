"""Damped generator M and Lyapunov symmetrizer R, with verification probes.

R is computed by solving the stationary Lyapunov identity
``M* R + R M = -a <xi>^rho I`` directly (machine precision, cheap at small
size); the defining integral ``R = a int <xi>^rho (e^{sM})* e^{sM} ds`` is
kept as an independent quadrature oracle anchoring the solve.  Probes verify
the lower bound, the symbol-class estimates, the Hoelder difference
estimates and the mollified variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hypersym.coeffs import SystemCoefficients
from hypersym.errors import BudgetError, SamplingError, StabilityMarginError
from hypersym.matkernel import expm_batched, taylor_symbol
from hypersym.weights import bracket, bracket_pow, poly_bump


@dataclass
class ParameterSet:
    """Weight/damping parameters with the admissibility constraints attached.

    Values may be exact rationals (from the planner) or floats; numeric
    consumers coerce to float.  ``nu = theta (1 - rho)`` and
    ``N = max(2 theta, m)`` are derived.  ``a0`` and ``eps0`` are empirical
    floor constants with no canonical closed form, calibrated per problem;
    ``c_spec`` is the certified spectral-bound constant.
    """

    rho: object
    a: object
    ell: object
    tau: object
    T: object
    c1: object
    theta: int
    kappa: object | None = None
    s: object | None = None
    delta: object | None = None
    a0: object = 1.0
    eps0: object = 0.5
    c_spec: object | None = None

    @property
    def nu(self) -> float:
        return self.theta * (1.0 - float(self.rho))

    def n_taylor(self, m: int) -> int:
        return max(2 * self.theta, m)

    def to_json(self) -> dict:
        def enc(v):
            if v is None:
                return None
            return float(v)

        return {
            "rho": enc(self.rho),
            "a": enc(self.a),
            "ell": enc(self.ell),
            "tau": enc(self.tau),
            "T": enc(self.T),
            "c1": enc(self.c1),
            "theta": self.theta,
            "kappa": enc(self.kappa),
            "s": enc(self.s),
            "delta": enc(self.delta),
            "a0": enc(self.a0),
            "eps0": enc(self.eps0),
            "c_spec": enc(self.c_spec),
            "nu": self.nu,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ParameterSet":
        return cls(
            rho=doc["rho"],
            a=doc["a"],
            ell=doc["ell"],
            tau=doc["tau"],
            T=doc["T"],
            c1=doc["c1"],
            theta=int(doc["theta"]),
            kappa=doc.get("kappa"),
            s=doc.get("s"),
            delta=doc.get("delta"),
            a0=doc.get("a0", 1.0),
            eps0=doc.get("eps0", 0.5),
            c_spec=doc.get("c_spec"),
        )


def rescale_for_a(params: ParameterSet, a: float) -> ParameterSet:
    """Admissible variant of ``params`` with a different damping strength.

    Grows ell to the smallest power of two keeping ``a <= ell^(1-rho)`` and
    shrinks tau back inside the Taylor-scale window.
    """
    rho = float(params.rho)
    ell = max(float(params.ell), 2.0 ** math.ceil(math.log2(a) / (1.0 - rho)))
    eps0 = float(params.eps0)
    tau = min(float(params.tau), 0.999 * eps0 * ell ** (1.0 - rho))
    c1 = min(float(params.c1), tau * max(float(params.c_spec or 0.5), 1e-9))
    return replace(params, a=a, ell=ell, tau=tau, c1=c1)


# ---------------------------------------------------------------------------
# Generator M


def hn_over_lattice(
    coeffs: SystemCoefficients,
    params: ParameterSet,
    t,
    x,
    xi_values,
) -> np.ndarray:
    """Frequency-Taylor generator H_N; the broadcast shape of its inputs, then (m, m).

    ``H_N = sum_{j<=N} (1/j!) D_x^j A(t,x,xi) (tau * grad <xi>^rho)^j``,
    realized by :func:`taylor_symbol` with ``z = eps xi`` and
    ``eps = tau * rho * <xi>_ell^(rho-2)``.  ``t``, ``x``, ``xi_values`` and
    ``params.tau`` may be arrays that broadcast together; an array tau gives
    each time its own window (``tau = T - a t`` along a path).
    """
    rho, ell = float(params.rho), float(params.ell)
    tau = np.asarray(params.tau, dtype=float)
    xi_values = np.asarray(xi_values, dtype=float)
    eps = tau * rho * bracket(xi_values, ell) ** (rho - 2.0)
    return taylor_symbol(coeffs, t, x, xi_values, eps * xi_values, params.n_taylor(coeffs.m))


def damped_generator(
    coeffs: SystemCoefficients,
    params: ParameterSet,
    t,
    x,
    xi_values,
    chi2=1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped generator ``M = i chi^2 H_N - a <xi>_ell^rho I`` and its right-hand side.

    Returns ``(M, a <xi>_ell^rho)``, the pair the Lyapunov identity
    ``M* R + R M = -a <xi>_ell^rho I`` takes.  ``t``, ``x``, ``xi_values``
    and an array ``params.tau`` broadcast together as in
    :func:`hn_over_lattice`; M has their broadcast shape followed by (m, m)
    and the right-hand side has the shape of ``xi_values``.
    ``chi2`` carries the squared spectral cutoff chi^2(h xi) of the
    regularized evolution and broadcasts against ``xi_values``; 1.0 means no
    truncation.
    """
    xi_values = np.asarray(xi_values, dtype=float)
    rhs = float(params.a) * bracket_pow(xi_values, float(params.ell), float(params.rho))
    h = hn_over_lattice(coeffs, params, t, x, xi_values)
    m_stack = 1j * np.asarray(chi2)[..., None, None] * h - rhs[..., None, None] * np.eye(coeffs.m)
    return m_stack, rhs


# ---------------------------------------------------------------------------
# Lyapunov solve and quadrature oracle


# Nodes per chunk of _lyap_solve_batch, which bounds the kernels' temporaries
# (see _lyap_node_bytes).
_LYAP_CHUNK = 4096


def _lyap_node_bytes(m: int) -> int:
    """Peak bytes per node of a damped-generator stack and its
    ``_lyap_solve_batch``: about 500 for the 2 x 2 closed form (tracemalloc
    reads 283 for the generator and 499 with the solve, on wave_t2), and
    four copies of the m^2 x m^2 system for the Kronecker solve."""
    return 512 if m == 2 else 64 * m**4


def _lyap_solve_batch(m_stack: np.ndarray, rhs_scale: np.ndarray) -> np.ndarray:
    """Solve ``M* R + R M = -rhs I`` for a stack of matrices.

    2 x 2 stacks take the closed form :func:`_lyap_2x2`, other sizes the
    Kronecker solve :func:`_lyap_kron`; either way in chunks of
    ``_LYAP_CHUNK`` nodes, and R is returned as its hermitian part.
    """
    m_stack = np.asarray(m_stack, dtype=complex)
    m = m_stack.shape[-1]
    lead = m_stack.shape[:-2]
    flat = m_stack.reshape(-1, m, m)
    rhs = np.broadcast_to(np.asarray(rhs_scale, dtype=float), lead).reshape(-1)
    solve = _lyap_2x2 if m == 2 else _lyap_kron
    r = np.empty_like(flat)
    for lo in range(0, len(flat), _LYAP_CHUNK):
        chunk = slice(lo, lo + _LYAP_CHUNK)
        r[chunk] = solve(flat[chunk], rhs[chunk])
    r = (r + r.conj().transpose(0, 2, 1)) / 2.0
    return r.reshape(*lead, m, m)


def _lyap_kron(part: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A dense m^2 x m^2 solve per node.  Row-major vectorization: the
    operator is ``kron(M*, I) + kron(I, M^T)``."""
    m = part.shape[-1]
    eye = np.eye(m)
    # K[(i,j),(k,l)] = M*[i,k] delta[j,l] + delta[i,k] M[l,j]
    op = np.einsum("nik,jl->nijkl", part.conj().transpose(0, 2, 1), eye)
    op += np.einsum("ik,njl->nijkl", eye, part.transpose(0, 2, 1))
    b = (-rhs[:, None] * eye.reshape(1, -1)).astype(complex)
    return np.linalg.solve(op.reshape(-1, m * m, m * m), b[:, :, None]).reshape(-1, m, m)


def _lyap_2x2(part: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The 2 x 2 solve in closed form, elementwise over the stack.

    With A = M*, ``A R = -s I - R M`` gives ``A^2 R = -s (A - M) + R M^2``,
    and Cayley-Hamilton, ``M^2 = tr(M) M - det(M) I``, eliminates R M:
    ``p(A) R = -s (A - M + tr(M) I)`` with
    ``p(X) = X^2 + tr(M) X + det(M) I``.  p(A) is invertible when no
    eigenvalue of M* is one of -M, as for Hurwitz M; its adjugate over its
    determinant inverts it.
    """
    a, b, c, d = part[:, 0, 0], part[:, 0, 1], part[:, 1, 0], part[:, 1, 1]
    ac, bc, cc, dc = a.conj(), b.conj(), c.conj(), d.conj()  # A = [[ac, cc], [bc, dc]]
    tr = a + d
    shared = cc * bc + (a * d - b * c)  # the diagonal of A^2 - diag(A)^2, plus det(M)
    p11 = ac * (ac + tr) + shared
    p22 = dc * (dc + tr) + shared
    g = 2.0 * tr.real  # p12 = cc (ac + dc + tr), and ac + dc = conj(tr)
    p12 = cc * g
    p21 = bc * g
    # A - M + tr(M) I
    n11, n12, n21, n22 = ac + d, cc - b, bc - c, dc + a
    f = -rhs / (p11 * p22 - p12 * p21)
    r = np.empty_like(part)
    r[:, 0, 0] = f * (p22 * n11 - p12 * n21)
    r[:, 0, 1] = f * (p22 * n12 - p12 * n22)
    r[:, 1, 0] = f * (p11 * n21 - p21 * n11)
    r[:, 1, 1] = f * (p11 * n22 - p21 * n12)
    return r


def solve_R_lyapunov(m_mat: np.ndarray, rhs_scale: float) -> np.ndarray:
    """Unique hermitian solution of ``M* R + R M = -rhs_scale I``.

    Refuses matrices whose stability margin is below ``1e-8 ||M||`` (the
    solve would be ill-conditioned near the imaginary axis); the residual of
    the returned solution is verified to 1e-10 relative, and a larger one is
    refused the same way.
    """
    m_mat = np.asarray(m_mat, dtype=complex)
    margin = -float(np.max(np.linalg.eigvals(m_mat).real))
    if margin < 1e-8 * np.linalg.norm(m_mat, 2):
        raise StabilityMarginError(
            f"stability margin {margin:.3g} below threshold; refusing solve"
        )
    r = _lyap_solve_batch(m_mat[None], np.array([rhs_scale]))[0]
    resid = np.linalg.norm(m_mat.conj().T @ r + r @ m_mat + rhs_scale * np.eye(r.shape[0]), 2)
    if resid > 1e-10 * abs(rhs_scale):
        raise StabilityMarginError(f"Lyapunov residual {resid:.3g} too large")
    return r


def quadrature_R(
    m_mat: np.ndarray,
    rhs_scale,
    tol: float = 1e-8,
    max_refine: int = 8,
) -> np.ndarray:
    """Independent oracle: adaptive quadrature of ``rhs int (e^{sM})* e^{sM} ds``.

    The integrand is rescaled to unit decay rate (s = r / margin), truncated
    where the tail bound falls below ``tol`` and integrated by composite
    Gauss-Legendre with panel refinement until the relative change is below
    ``tol``.  Accepts a single matrix or a stack.

    Panels are uniform (width w) and share the Gauss offsets
    ``c_j = (w/2)(1 + x_j)``, so the semigroup property gives
    ``e^{(p w + c_j) S} = P^p E_j`` with ``P = e^{w S}``, ``E_j = e^{c_j S}``
    and the composite sum is exactly ``sum_j w_j E_j* G E_j`` with
    ``G = sum_p (P^p)* P^p``.  G costs one exponential per node and serves
    every refinement level.  The oracle never calls the Lyapunov solve.
    """
    m_stack = np.asarray(m_mat, dtype=complex)
    single = m_stack.ndim == 2
    if single:
        m_stack = m_stack[None]
    size = m_stack.shape[-1]
    flat = m_stack.reshape(-1, size, size)
    rhs = np.broadcast_to(np.asarray(rhs_scale, dtype=float), m_stack.shape[:-2]).reshape(-1)

    margins = -np.max(np.linalg.eigvals(flat).real, axis=-1)
    if np.any(margins <= 0):
        raise StabilityMarginError("quadrature requires a Hurwitz matrix")
    scaled = flat / margins[:, None, None]

    # After rescaling the integrand decays like e^{-2r}; the truncation
    # tail at r_max is e^{-2 r_max} (modulo a polynomial transient).
    r_max = max(6.0, 0.85 * math.log(1.0 / tol))
    if math.exp(-2.0 * r_max) > tol:
        raise BudgetError("quadrature truncation bound unreachable within budget")

    # Nodes are grouped by their phase rate so slow nodes are not forced
    # onto the panel density of the fastest one.
    omegas = np.linalg.norm(flat, axis=(1, 2)) / margins

    def group_integral(group: np.ndarray) -> np.ndarray:
        sub = scaled[group]
        omega = float(omegas[group].max())
        n_panels = max(4, int(math.ceil(r_max * max(omega, 1.0) / 4.0)))
        half = r_max / n_panels / 2.0
        step = expm_batched(2.0 * half * sub)
        power = np.broadcast_to(np.eye(size, dtype=complex), sub.shape)
        gram = np.zeros_like(sub)
        for _ in range(n_panels):
            gram += power.conj().swapaxes(-1, -2) @ power
            power = power @ step
        scale = (rhs[group] / margins[group])[:, None, None]
        prev, nodes = None, 8
        for _ in range(max_refine + 1):
            gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
            offs = expm_batched((half * (1.0 + gl_x))[:, None, None, None] * sub[None])
            prods = offs.conj().swapaxes(-1, -2) @ gram[None] @ offs
            cur = np.einsum("j,jnik->nik", half * gl_w, prods) * scale
            if prev is not None and np.max(
                np.linalg.norm(cur - prev, axis=(1, 2))
                / np.maximum(np.linalg.norm(cur, axis=(1, 2)), 1e-300)
            ) < tol:
                return cur
            prev, nodes = cur, int(nodes * 1.5) + 1
        raise BudgetError("quadrature failed to converge within refinement budget")

    order = np.argsort(omegas)
    result = np.empty_like(flat)
    start = 0
    while start < len(order):
        base = omegas[order[start]]
        stop = start
        while stop < len(order) and omegas[order[stop]] <= 2.0 * base + 1.0:
            stop += 1
        group = order[start:stop]
        result[group] = group_integral(group)
        start = stop

    out = result.reshape(*m_stack.shape[:-2], size, size)
    out = (out + out.conj().swapaxes(-1, -2)) / 2.0
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Field construction and verification


@dataclass
class SymmetrizerField:
    """Hermitian positive matrices R over a (t, x, xi) grid, immutable after build."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    R: np.ndarray  # (nt, nx, nxi, m, m)
    M: np.ndarray  # matching generators
    params: ParameterSet

    def rhs_scales(self) -> np.ndarray:
        mu = bracket_pow(self.xi_nodes, float(self.params.ell), float(self.params.rho))
        return float(self.params.a) * mu

    def check_invariants(self) -> dict:
        """Hermitian/positive/Lyapunov-residual checks over every node."""
        r = self.R
        herm = float(
            np.max(np.linalg.norm(r - r.conj().swapaxes(-1, -2), axis=(-2, -1)))
        )
        mineig = float(np.min(np.linalg.eigvalsh((r + r.conj().swapaxes(-1, -2)) / 2).min(axis=-1)))
        rhs = self.rhs_scales()[None, None, :, None, None]
        eye = np.eye(r.shape[-1])
        resid = (
            self.M.conj().swapaxes(-1, -2) @ r + r @ self.M + rhs * eye
        )
        rel = float(
            np.max(np.linalg.norm(resid, axis=(-2, -1)) / self.rhs_scales()[None, None, :])
        )
        return {
            "max_hermitian_defect": herm,
            "min_eigenvalue": mineig,
            "max_lyapunov_residual_rel": rel,
            "n_nodes": int(np.prod(r.shape[:-2])),
        }


def build_field(
    coeffs: SystemCoefficients,
    params: ParameterSet,
    t_nodes,
    x_nodes,
    xi_nodes,
) -> SymmetrizerField:
    """Build R over the tensor grid by one batched Lyapunov solve."""
    t_nodes = np.atleast_1d(np.asarray(t_nodes, dtype=float))
    x_nodes = np.atleast_1d(np.asarray(x_nodes, dtype=float))
    xi_nodes = np.atleast_1d(np.asarray(xi_nodes, dtype=float))
    m_stack, rhs = damped_generator(coeffs, params, t_nodes[:, None, None], x_nodes[:, None],
                                    xi_nodes)
    return SymmetrizerField(
        t_nodes=t_nodes,
        x_nodes=x_nodes,
        xi_nodes=xi_nodes,
        R=_lyap_solve_batch(m_stack, rhs),
        M=m_stack,
        params=params,
    )


def _fit_window(xi_values: np.ndarray, ell: float) -> np.ndarray:
    """Frequencies where the bracket exponent is identifiable.

    Below xi ~ ell the bracket sits on its ell-plateau: the abscissa barely
    moves while values may still vary, so log-log regression has no
    leverage there.  Falls back to the full range when too few points
    remain.
    """
    mask = np.asarray(xi_values, dtype=float) >= ell
    if np.count_nonzero(mask) < 3:
        return np.ones(len(xi_values), dtype=bool)
    return mask


@dataclass
class LowerBoundReport:
    exponent: float
    c_prime: float
    target: float
    passed: bool
    xi_nodes: np.ndarray
    min_eigs: np.ndarray


def lower_bound_check(field: SymmetrizerField) -> LowerBoundReport:
    """Fit the decay of the smallest eigenvalue of R against the bracket.

    Passes when the fitted exponent stays above ``-2 nu - 0.1`` and the
    implied constant is bounded away from zero across the grid.
    """
    params = field.params
    nu = params.nu
    mineig = np.linalg.eigvalsh(field.R).min(axis=-1)  # (nt, nx, nxi)
    per_xi = mineig.min(axis=(0, 1))
    br = bracket(field.xi_nodes, float(params.ell))
    win = _fit_window(field.xi_nodes, float(params.ell))
    if np.count_nonzero(win) >= 2 and (br[win].max() / br[win].min()) > 1.001:
        slope, _ = np.polyfit(np.log(br[win]), np.log(per_xi[win]), 1)
    else:
        slope = 0.0
    c_prime = float(np.min(per_xi * br ** (2.0 * nu)))
    passed = bool(slope >= -2.0 * nu - 0.1 and c_prime > 0.0)
    return LowerBoundReport(
        exponent=float(slope),
        c_prime=c_prime,
        target=-2.0 * nu,
        passed=passed,
        xi_nodes=field.xi_nodes,
        min_eigs=per_xi,
    )


# ---------------------------------------------------------------------------
# Symbol-estimate probes


@dataclass
class SymbolEstimateRow:
    alpha: int
    beta: int
    dt: bool
    target: float
    fitted: float | None
    residual: float
    a_power_target: float | None
    a_power_fitted: float | None
    passed: bool
    inconclusive: bool


@dataclass
class SymbolEstimateReport:
    rows: list[SymbolEstimateRow]
    xi_values: np.ndarray
    params: ParameterSet

    @property
    def passed(self) -> bool:
        return all(r.passed or r.inconclusive for r in self.rows)


# Offsets of the central differences of order 0, 1 and 2.
_STENCILS = ((0,), (-1, 1), (-1, 0, 1))


def _central(f: np.ndarray, order: int, h) -> np.ndarray:
    """Central difference of ``f`` along axis 0, sampled at ``_STENCILS[order]``."""
    if order == 0:
        return f[0]
    if order == 1:
        return (f[1] - f[0]) / (2 * h)
    return (f[2] - 2 * f[1] + f[0]) / h**2


def _stencil_derivatives(coeffs, groups, t0, alpha, beta, dt_flag) -> list[np.ndarray]:
    """Central finite differences of R in xi (alpha), x (beta) and t at (x, xi) nodes.

    ``groups`` lists ``(params, x_values, xi_values)``; the stencil nodes of
    every group go through one batched Lyapunov solve.  Steps are
    ``hxi = 1e-3 <xi>_ell``, ``hx = 2 pi / (8 band max(beta, 1) + 64)`` and
    ``ht = 1e-3``.  Returns one (n_x, n_xi, m, m) array per group.
    """
    m = coeffs.m
    hx = 2.0 * math.pi / (8.0 * max(coeffs.x_band, 1) * max(beta, 1) + 64.0)
    ht = 1e-3
    ts = t0 + np.array(_STENCILS[int(dt_flag)]) * ht
    m_parts, rhs_parts, shapes, hxis = [], [], [], []
    for params, x_values, xi_values in groups:
        hxi = 1e-3 * bracket(xi_values, float(params.ell))
        xis = xi_values[None, :] + np.array(_STENCILS[alpha])[:, None] * hxi[None, :]
        xs = x_values[:, None] + np.array(_STENCILS[beta]) * hx
        # nodes (t offset, x, x offset, xi offset, xi)
        m_stack, rhs = damped_generator(coeffs, params, ts[:, None, None, None, None],
                                        xs[:, :, None, None], xis)
        shapes.append(m_stack.shape)
        m_parts.append(m_stack.reshape(-1, m, m))
        rhs_parts.append(np.broadcast_to(rhs, m_stack.shape[:-2]).reshape(-1))
        hxis.append(hxi)
    r_all = _lyap_solve_batch(np.concatenate(m_parts), np.concatenate(rhs_parts))
    out, start = [], 0
    for shape, part, hxi in zip(shapes, m_parts, hxis):
        r = r_all[start:start + len(part)].reshape(shape)
        start += len(part)
        d = _central(np.moveaxis(r, 3, 0), alpha, hxi[:, None, None])
        d = _central(np.moveaxis(d, 2, 0), beta, hx)
        out.append(_central(d, int(dt_flag), ht))
    return out


def symbol_estimate_probe(
    coeffs: SystemCoefficients,
    params: ParameterSet,
    xi_values,
    t0: float = 0.1,
    x_probes=(0.0, 0.9, 2.1),
    max_order: int = 2,
    include_dt: bool = True,
    a_values=(2.0, 4.0, 8.0),
    check_a_power: bool = False,
    tol: float = 0.15,
) -> SymbolEstimateReport:
    """Measure ``d_x^beta d_xi^alpha R`` decay against the class targets.

    Target exponent per row: ``2 nu + (1 - rho + nu) |beta| - (rho - nu)
    |alpha|`` with an extra ``1 - rho + nu`` for the time derivative (one
    time derivative acts like one space derivative).  The fit passes when
    it does not exceed target + ``tol``; a log-fit residual above 0.3 marks
    the row inconclusive rather than failed.  Rows whose samples sit at the
    noise floor pass trivially.
    """
    xi_values = np.asarray(xi_values, dtype=float)
    x_probes = np.atleast_1d(np.asarray(x_probes, dtype=float))
    nu = params.nu
    rho = float(params.rho)
    ell = float(params.ell)
    rows: list[SymbolEstimateRow] = []
    combos = [(al, be, False) for al in range(max_order + 1) for be in range(max_order + 1)
              if 0 < al + be <= max_order or (al, be) == (0, 0)]
    if include_dt:
        combos.append((0, 0, True))
    br = bracket(xi_values, ell)
    for alpha, beta, dt_flag in combos:
        target = 2 * nu + (1 - rho + nu) * beta - (rho - nu) * alpha
        if dt_flag:
            target += 1 - rho + nu
        (d,) = _stencil_derivatives(coeffs, [(params, x_probes, xi_values)], t0,
                               alpha, beta, dt_flag)
        vals = np.max(np.linalg.norm(d, 2, axis=(-2, -1)), axis=0)
        floor = 1e-12
        if np.max(vals) <= floor:
            rows.append(
                SymbolEstimateRow(alpha, beta, dt_flag, target, None, 0.0,
                                  None, None, True, False)
            )
            continue
        good = (vals > floor) & _fit_window(xi_values, ell)
        if np.count_nonzero(good) < 3:
            good = vals > floor
        fit = np.polyfit(np.log(br[good]), np.log(vals[good]), 1)
        resid = float(np.sqrt(np.mean(
            (np.log(vals[good]) - np.polyval(fit, np.log(br[good]))) ** 2
        )))
        fitted = float(fit[0])
        inconclusive = resid > 0.3
        a_target = a_fitted = None
        if check_a_power:
            # The class constant is one-sided: families far below the bound
            # shed a-decay into their bracket slack, so the a-slope is
            # reported (with the class target for reference) and only
            # monotone non-increase in a is asserted.
            a_target = -float(alpha + beta + (1 if dt_flag else 0))
            xi_ref = xi_values[[len(xi_values) // 2]]
            groups = [(rescale_for_a(params, float(a)), x_probes[:1], xi_ref)
                      for a in a_values]
            norms = [float(np.linalg.norm(d[0, 0], 2))
                     for d in _stencil_derivatives(coeffs, groups, t0, alpha, beta, dt_flag)]
            if max(norms) > floor:
                a_fitted = float(
                    np.polyfit(np.log(np.asarray(a_values, float)),
                               np.log(np.maximum(norms, 1e-300)), 1)[0]
                )
        passed = bool(fitted <= target + tol)
        if check_a_power and a_fitted is not None:
            passed = passed and (a_fitted <= 0.05)
        rows.append(
            SymbolEstimateRow(alpha, beta, dt_flag, target, fitted, resid,
                              a_target, a_fitted, passed, inconclusive)
        )
    return SymbolEstimateReport(rows=rows, xi_values=xi_values, params=params)


# ---------------------------------------------------------------------------
# Mollified symmetrizer (Hoelder mode)


@dataclass
class MollifiedSymmetrizer:
    eval_ts: np.ndarray
    values: np.ndarray  # (ne,) + node_shape + (m, m)
    delta: float


def mollify_path(
    ts: np.ndarray,
    r_path: np.ndarray,
    bracket_vals: np.ndarray,
    delta: float,
    eval_ts,
) -> MollifiedSymmetrizer:
    """Discrete time-mollification ``<xi>^delta int R(s) chi((t-s)<xi>^delta) ds``.

    ``ts`` is ascending, ``r_path`` has shape (nt,) + node_shape + (m, m)
    and ``bracket_vals`` broadcasts over node_shape.  Weights are
    renormalized to unit mass so a time-constant path is reproduced exactly;
    refuses paths sampled more coarsely than a quarter of the narrowest
    kernel width.
    """
    ts = np.asarray(ts, dtype=float)
    eval_ts = np.atleast_1d(np.asarray(eval_ts, dtype=float))
    br = np.asarray(bracket_vals, dtype=float)
    widths = br ** (-float(delta))
    dt = float(np.max(np.diff(ts)))
    if dt > float(np.min(widths)) / 4.0:
        raise SamplingError(
            f"path step {dt:.3g} too coarse for mollifier width {np.min(widths):.3g}"
        )
    if np.min(eval_ts) - np.min(ts) < np.max(widths) - 1e-12 or (
        np.max(ts) - np.max(eval_ts) < np.max(widths) - 1e-12
    ):
        raise SamplingError("path does not cover kernel support around eval times")
    node_shape = r_path.shape[1:-2]
    m = r_path.shape[-1]
    out = np.empty((len(eval_ts),) + node_shape + (m, m), dtype=complex)
    # the kernel vanishes beyond the widest width, so only that slice of ts counts
    lo = np.searchsorted(ts, eval_ts - np.max(widths), side="left")
    hi = np.searchsorted(ts, eval_ts + np.max(widths), side="right")
    for ie, t in enumerate(eval_ts):
        near = slice(lo[ie], hi[ie])
        u = (t - ts[near]).reshape((-1,) + (1,) * len(node_shape)) / widths[None]
        w = poly_bump(np.broadcast_to(u, u.shape[:1] + node_shape))
        norm = np.sum(w, axis=0)
        w = w / np.where(norm == 0, 1.0, norm)
        out[ie] = np.einsum("t...,t...ij->...ij", w, r_path[near])
    return MollifiedSymmetrizer(eval_ts=eval_ts, values=out, delta=float(delta))


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
        *damped_generator(coeffs, params, np.array(ts)[:, None], x0, xi_values))))
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
