"""Damped generator M and Lyapunov symmetrizer R, with verification probes.

R is computed by solving the stationary Lyapunov identity
``M* R + R M = -a <xi>^rho I`` directly (machine precision, cheap at small
size); the defining integral ``R = a int <xi>^rho (e^{sM})* e^{sM} ds`` is
kept as an independent quadrature oracle anchoring the solve.  Probes verify
the lower bound and the symbol-class estimates; the mollified variant serves
the Hoelder-mode energy of the solver.  Every function reads its weight and
damping parameters from a :class:`planner.ParameterSet`, which the planner
plans and checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from hypersym.coeffs import SystemCoefficients
from hypersym.errors import StabilityMarginError
from hypersym.matkernel import (_BLOCK_BYTES, block_eigvals, block_norm2, expm_batched, line_fit,
                                taylor_order, taylor_symbol)
from hypersym.planner import ParameterSet
from hypersym.weights import bracket, poly_bump


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
    ``params.tau`` may be arrays that broadcast together: an array tau gives
    each time its own window (``tau = T - a t`` along a path).
    """
    rho, ell = float(params.rho), float(params.ell)
    tau = np.asarray(params.tau, dtype=float)
    xi_values = np.asarray(xi_values, dtype=float)
    eps = tau * rho * bracket(xi_values, ell) ** (rho - 2.0)
    n_taylor = taylor_order(params.theta, coeffs.m)
    return taylor_symbol(coeffs, t, x, xi_values, eps * xi_values, n_taylor)


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
    and the right-hand side that of xi.  ``chi2`` carries the squared
    spectral cutoff chi^2(h xi) of the regularized evolution and broadcasts
    against ``xi_values``; 1.0 means no truncation.
    """
    xi_values = np.asarray(xi_values, dtype=float)
    rhs = float(params.a) * bracket(xi_values, float(params.ell)) ** float(params.rho)
    h = hn_over_lattice(coeffs, params, t, x, xi_values)
    m_stack = 1j * np.asarray(chi2)[..., None, None] * h - rhs[..., None, None] * np.eye(coeffs.m)
    return m_stack, rhs


# ---------------------------------------------------------------------------
# Lyapunov solve and quadrature oracle


def _lyap_node_bytes(blocks: list[np.ndarray]) -> int:
    """Peak bytes per node of a damped-generator stack and its
    ``_lyap_solve_batch`` on the partition ``blocks`` of the m components:
    48 m^2 for the stack's own arrays, and the costliest group of equal
    blocks, solved at once: 400 a 2 x 2 closed form, four copies of the
    k^2 x k^2 system and 128 more a Kronecker solve.  tracemalloc reads 571
    (the model: 592) on wave_t2 and 1,515 (1,568) on block_direct_sum."""
    sizes = [len(idx) for idx in blocks]
    solve = max(sizes.count(k) * (400 if k == 2 else 64 * k**4 + 128) for k in set(sizes))
    return 48 * sum(sizes) ** 2 + solve


def _lyap_solve_batch(m_stack: np.ndarray, rhs_scale, blocks: list[np.ndarray]) -> np.ndarray:
    """Solve ``M* R + R M = -rhs I`` for a stack of matrices.

    M is a direct sum over ``blocks``, the system's partition, and so is R:
    2 x 2 blocks take the closed form :func:`_lyap_2x2`, others the
    Kronecker solve :func:`_lyap_kron`, and R is exactly zero off the blocks.
    Nodes go in chunks of ``_BLOCK_BYTES // _lyap_node_bytes(blocks)``
    (1,771 at m = 2, 668 on a 2 + 2, 60 on a 4 x 4), and R is returned as its
    hermitian part.
    """
    m_stack = np.asarray(m_stack, dtype=complex)
    m = m_stack.shape[-1]
    lead = m_stack.shape[:-2]
    flat = m_stack.reshape(-1, m, m)
    rhs = np.broadcast_to(np.asarray(rhs_scale, dtype=float), lead).reshape(-1)
    r = np.zeros_like(flat)
    step = _BLOCK_BYTES // _lyap_node_bytes(blocks)
    for k in sorted({len(idx) for idx in blocks}):
        # the blocks of size k side by side, (nodes, blocks, k, k), solved as one batch
        idx = np.array([b for b in blocks if len(b) == k])
        rows, cols = idx[:, :, None], idx[:, None, :]
        solve = _lyap_2x2 if k == 2 else _lyap_kron
        for lo in range(0, len(flat), step):
            chunk = slice(lo, lo + step)
            part = flat[chunk, rows, cols]
            r[chunk, rows, cols] = solve(part.reshape(-1, k, k),
                                         np.repeat(rhs[chunk], len(idx))).reshape(part.shape)
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


@functools.cache
def _gauss_legendre_8() -> tuple[np.ndarray, np.ndarray]:
    """The 8-point Gauss-Legendre rule on [-1, 1], read-only, built on first use:
    commands that never call the oracle never import ``numpy.polynomial``."""
    rule = np.polynomial.legendre.leggauss(8)
    for part in rule:
        part.setflags(write=False)
    return rule


def quadrature_R(
    m_mat: np.ndarray,
    rhs_scale,
    blocks: list[np.ndarray],
    tol: float = 1e-8,
) -> np.ndarray:
    """Independent oracle: ``rhs int (e^{sM})* e^{sM} ds`` by one fixed rule.

    The integrand is rescaled to unit decay rate (s = r / margin) and cut at
    ``r_max``, where its tail falls below ``tol``.  [0, r_max] splits into
    2^k panels of width w, ``k = ceil(log2(r_max max(omega, 1)))`` with omega
    the stack's fastest phase rate, so ``w omega <= 1``: there the 8-point
    Gauss-Legendre rule's error term is about 1e-18 of a panel's integral.
    The first panel is summed at the 8 nodes; the semigroup property then
    gives the rest in k doublings, ``R <- R + P* R P`` and ``P <- P^2`` from
    ``P = e^{wS}``.  Two batched exponentials serve the whole stack, on the
    system's partition ``blocks``.  Accepts a single matrix or a stack; the
    oracle never calls the Lyapunov solve.
    """
    shape = np.shape(m_mat)
    flat = np.asarray(m_mat, dtype=complex).reshape(-1, *shape[-2:])
    rhs = np.broadcast_to(np.asarray(rhs_scale, dtype=float), shape[:-2]).reshape(-1)

    margins = -np.max(block_eigvals(flat, blocks).real, axis=-1)
    if np.any(margins <= 0):
        raise StabilityMarginError("quadrature requires a Hurwitz matrix")
    scaled = flat / margins[:, None, None]

    # After rescaling the integrand decays like e^{-2r}; the truncation
    # tail at r_max is e^{-2 r_max} = min(e^{-12}, tol^1.7), never above tol
    # (modulo a polynomial transient).
    r_max = max(6.0, 0.85 * math.log(1.0 / tol))
    omega = float(np.max(np.linalg.norm(flat, axis=(1, 2)) / margins))
    k = math.ceil(math.log2(r_max * max(omega, 1.0)))
    half = r_max / 2**k / 2.0
    gl_x, gl_w = _gauss_legendre_8()
    offs = expm_batched((half * (1.0 + gl_x))[:, None, None, None] * scaled[None], blocks)
    r = np.einsum("j,jnik->nik", half * gl_w, offs.conj().swapaxes(-1, -2) @ offs)
    step = expm_batched(2.0 * half * scaled, blocks)
    for _ in range(k):
        r = r + step.conj().swapaxes(-1, -2) @ r @ step
        step = step @ step
    r = r * (rhs / margins)[:, None, None]
    return ((r + r.conj().swapaxes(-1, -2)) / 2.0).reshape(shape)


# ---------------------------------------------------------------------------
# Field construction and verification


@dataclass
class SymmetrizerField:
    """Hermitian positive matrices R over a (t, x, xi) grid, immutable after build."""

    xi_nodes: np.ndarray
    R: np.ndarray  # (nt, nx, nxi, m, m)
    M: np.ndarray  # matching generators
    rhs: np.ndarray  # (nxi,): a <xi>_ell^rho, the Lyapunov right-hand side
    params: ParameterSet

    @functools.cached_property
    def min_eigenvalues(self) -> np.ndarray:
        """Smallest eigenvalue of R per node, (nt, nx, nxi): computed once for
        the invariants and the lower bound.  ``_lyap_solve_batch`` returns R
        exactly hermitian, so it is taken as it is."""
        return np.linalg.eigvalsh(self.R)[..., 0]

    def check_invariants(self) -> dict:
        """Hermitian/positive/Lyapunov-residual checks over every node."""
        r = self.R
        herm = float(
            np.max(np.linalg.norm(r - r.conj().swapaxes(-1, -2), axis=(-2, -1)))
        )
        mineig = float(np.min(self.min_eigenvalues))
        eye = np.eye(r.shape[-1])
        resid = (
            self.M.conj().swapaxes(-1, -2) @ r + r @ self.M + self.rhs[..., None, None] * eye
        )
        rel = float(np.max(np.linalg.norm(resid, axis=(-2, -1)) / self.rhs))
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
        xi_nodes=xi_nodes,
        R=_lyap_solve_batch(m_stack, rhs, coeffs.blocks),
        M=m_stack,
        rhs=rhs,
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


def lower_bound_check(field: SymmetrizerField) -> LowerBoundReport:
    """Fit the decay of the smallest eigenvalue of R against the bracket.

    Passes when the fitted exponent stays above ``-2 nu - 0.1`` and the
    implied constant is bounded away from zero across the grid.
    """
    params = field.params
    nu = params.nu
    per_xi = field.min_eigenvalues.min(axis=(0, 1))
    br = bracket(field.xi_nodes, float(params.ell))
    win = _fit_window(field.xi_nodes, float(params.ell))
    if np.count_nonzero(win) >= 2 and (br[win].max() / br[win].min()) > 1.001:
        slope, _ = line_fit(np.log(br[win]), np.log(per_xi[win]))
    else:
        slope = 0.0
    c_prime = float(np.min(per_xi * br ** (2.0 * nu)))
    passed = bool(slope >= -2.0 * nu - 0.1 and c_prime > 0.0)
    return LowerBoundReport(
        exponent=float(slope),
        c_prime=c_prime,
        target=-2.0 * nu,
        passed=passed,
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
    passed: bool
    inconclusive: bool


@dataclass
class SymbolEstimateReport:
    rows: list[SymbolEstimateRow]

    @property
    def passed(self) -> bool:
        return all(r.passed or r.inconclusive for r in self.rows)


# Offsets of the central differences of order 0, 1 and 2.
_STENCILS = ((0,), (-1, 1), (-1, 0, 1))
# The probe's rows (alpha, beta, dt): every xi and x order up to two, and
# the first time derivative.
_ROWS = ((0, 0, False), (0, 1, False), (0, 2, False), (1, 0, False), (1, 1, False),
         (2, 0, False), (0, 0, True))

# The probe's fixed time: off t = 0, where wave_t2 degenerates and |t|^q
# terms lose smoothness, by a hundred steps of the 1e-3 t-stencil.
_PROBE_T0 = 0.1
# Spatial points of the probe: x = 0, where the sine harmonics vanish and the
# cosine ones are stationary, and two points off every symmetry point of the
# harmonics, so that no x-derivative of R vanishes at all of them.
_X_PROBES = (0.0, 0.9, 2.1)
# Slack of a fitted exponent over its class target: the acceptance margin
# of the symbol-estimate criterion.
_EXPONENT_TOL = 0.15


def _central(f: np.ndarray, order: int, h) -> np.ndarray:
    """Central difference of ``f`` along axis 0, sampled at ``_STENCILS[order]``."""
    if order == 0:
        return f[0]
    if order == 1:
        return (f[1] - f[0]) / (2 * h)
    return (f[2] - 2 * f[1] + f[0]) / h**2


def _stencil_derivatives(coeffs, params, x_values, xi_values) -> list[np.ndarray]:
    """Central finite differences of R in xi (alpha), x (beta) and t at (x, xi)
    nodes and t = ``_PROBE_T0``, one per row ``(alpha, beta, dt)`` of ``_ROWS``.

    The offsets (t, x, xi) that the rows' stencils use form one deduplicated
    set, whose nodes go through one ``damped_generator`` call and one batched
    Lyapunov solve.  Steps are ``hxi = 1e-3 <xi>_ell``,
    ``hx = 2 pi / (8 band max(beta, 1) + 64)`` and ``ht = 1e-3``.  Returns
    one (n_x, n_xi, m, m) array per row.
    """
    ht = 1e-3
    offsets: dict = {}  # (t step, x offset, xi step) -> node index
    stencils = []  # per row: its offsets' indices, (t, x, xi) axes, and hx
    for alpha, beta, dt_flag in _ROWS:
        hx = 2.0 * math.pi / (8.0 * max(coeffs.x_band, 1) * max(beta, 1) + 64.0)
        stencils.append((np.array([[[offsets.setdefault((k, j * hx, i), len(offsets))
                                     for i in _STENCILS[alpha]] for j in _STENCILS[beta]]
                                   for k in _STENCILS[int(dt_flag)]]), hx))
    k_off, x_off, i_off = (np.array(c) for c in zip(*offsets))
    hxi = 1e-3 * bracket(xi_values, float(params.ell))
    # nodes (offset, x, xi)
    r_all = _lyap_solve_batch(*damped_generator(
        coeffs, params, (_PROBE_T0 + k_off * ht)[:, None, None],
        (x_values + x_off[:, None])[:, :, None], (xi_values + i_off[:, None] * hxi)[:, None, :]),
        coeffs.blocks)
    out = []
    for (alpha, beta, dt_flag), (idx, hx) in zip(_ROWS, stencils):
        r = np.moveaxis(r_all[idx], 3, 1)  # (t offset, x, x offset, xi offset, xi)
        d = _central(np.moveaxis(r, 3, 0), alpha, hxi[:, None, None])
        d = _central(np.moveaxis(d, 2, 0), beta, hx)
        out.append(_central(d, int(dt_flag), ht))
    return out


def symbol_estimate_probe(
    coeffs: SystemCoefficients,
    params: ParameterSet,
    xi_values,
) -> SymbolEstimateReport:
    """Measure ``d_x^beta d_xi^alpha R`` decay against the class targets.

    Target exponent per row of ``_ROWS``: ``2 nu + (1 - rho + nu) |beta| -
    (rho - nu) |alpha|`` with an extra ``1 - rho + nu`` for the time
    derivative (one time derivative acts like one space derivative), probed
    at t = ``_PROBE_T0`` and x in ``_X_PROBES``.  The fit passes when it does
    not exceed target + ``_EXPONENT_TOL``; a log-fit residual above 0.3 marks
    the row inconclusive rather than failed, as does a single frequency above
    the noise floor (no slope).  Rows whose samples sit at the floor pass trivially.

    The 7 rows share 13 distinct (t, x, xi) offsets per probe point, one
    :func:`_stencil_derivatives` call: one ``damped_generator`` call and one
    Lyapunov solve.
    """
    xi_values = np.asarray(xi_values, dtype=float)
    x_probes = np.asarray(_X_PROBES, dtype=float)
    nu = params.nu
    rho = float(params.rho)
    ell = float(params.ell)
    rows: list[SymbolEstimateRow] = []
    br = bracket(xi_values, ell)
    derivs = _stencil_derivatives(coeffs, params, x_probes, xi_values)
    row_vals = np.max(block_norm2(np.array(derivs), coeffs.blocks), axis=1)  # (row, xi)
    for (alpha, beta, dt_flag), vals in zip(_ROWS, row_vals):
        target = 2 * nu + (1 - rho + nu) * beta - (rho - nu) * alpha
        if dt_flag:
            target += 1 - rho + nu
        floor = 1e-12
        good = (vals > floor) & _fit_window(xi_values, ell)
        if np.count_nonzero(good) < 3:
            good = vals > floor
        log_br = np.log(br[good])
        if len(set(log_br.tolist())) < 2:  # at the floor it passes; one abscissa is no slope
            rows.append(SymbolEstimateRow(alpha, beta, dt_flag, target, None, 0.0,
                                          not good.any(), bool(good.any())))
            continue
        fit = line_fit(log_br, np.log(vals[good]))
        resid = float(np.sqrt(np.mean(
            (np.log(vals[good]) - np.polyval(fit, log_br)) ** 2
        )))
        fitted = float(fit[0])
        rows.append(SymbolEstimateRow(alpha, beta, dt_flag, target, fitted, resid,
                                      bool(fitted <= target + _EXPONENT_TOL), resid > 0.3))
    return SymbolEstimateReport(rows=rows)


# ---------------------------------------------------------------------------
# Mollified symmetrizer (Hoelder mode)


def _mollifier_path(xi: np.ndarray, params: ParameterSet, horizon: float) -> np.ndarray:
    """The times at which a mollified energy solves R: steps of a fifth of
    the narrowest kernel width <xi>^-delta over ``xi``, from the widest
    width (and 5%) before 0 to as far past ``horizon``."""
    widths = bracket(xi, float(params.ell)) ** -float(params.delta)
    dt_path, pad = float(np.min(widths)) / 5.0, float(np.max(widths)) * 1.05
    return np.arange(-pad, horizon + pad + dt_path, dt_path)


def _unit_kernels(u: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """:func:`poly_bump` at the offsets ``u`` (samples, window, nodes), zero
    where ``pad`` (samples, window), scaled to unit mass over each window."""
    w = poly_bump(u)
    w[pad] = 0.0
    w /= np.sum(w, axis=1, keepdims=True)
    return w


def mollify_path(
    ts: np.ndarray,
    r_rows,
    bracket_vals: np.ndarray,
    delta: float,
    eval_ts: np.ndarray,
    chunk: int,
) -> np.ndarray:
    """Discrete time-mollification ``<xi>^delta int R(s) chi((t-s)<xi>^delta) ds``.

    ``ts`` is ascending, ``r_rows(lo, hi)`` gives R at ``ts[lo:hi]``, shape
    (hi - lo, n, m, m), and ``bracket_vals`` has shape (n,); the result has
    shape (len(eval_ts), n, m, m).  Weights are renormalized to unit mass so
    a time-constant path is reproduced exactly.  The step of ``ts`` must be
    at most a quarter of the narrowest kernel width, and ``ts`` must reach
    the widest width past both ends of the ascending ``eval_ts``, as
    :func:`_mollifier_path` makes it: then every kernel holds nodes inside
    its support, and its mass is positive.

    R is asked for ``chunk`` path times at a time, each time once and in
    order, into a ring of a window and a chunk of path times, whose oldest
    rows no later window needs.  The samples whose windows are solved are
    mollified in blocks: over each sample's window (the path times within
    the widest width), padded to the widest window with zero weights, a
    block's kernels are formed at once and contracted on R's (re, im) pairs.
    """
    widths = np.asarray(bracket_vals, dtype=float) ** -float(delta)
    n_eval, n = len(eval_ts), widths.size
    # the kernel vanishes beyond the widest width, so only that slice of ts counts
    lo = np.searchsorted(ts, eval_ts - np.max(widths), side="left")
    hi = np.searchsorted(ts, eval_ts + np.max(widths), side="right")
    span = int(np.max(hi - lo))
    pad = np.arange(span) >= (hi - lo)[:, None]
    first = np.asarray(r_rows(0, min(chunk, len(ts))))
    # R at path index i is in ring[i % (span + chunk)]: a window and a chunk
    ring = np.empty((span + chunk,) + first.shape[1:], dtype=complex)
    ring[:len(first)] = first
    out = np.empty((n_eval,) + first.shape[1:], dtype=complex)
    del first
    pairs, ring_pairs = (a.reshape(len(a), n, -1).view(float) for a in (out, ring))
    # a block of samples, with a window of R (16 m^2 bytes a node), its
    # kernels (16) and their offsets (32 bytes a path time), and the ring
    # stay near _BLOCK_BYTES
    block = max(1, (_BLOCK_BYTES - ring.nbytes) // (span * (pairs[0].nbytes + 16 * n + 32)))
    done = 0
    for c0 in range(0, len(ts), chunk):
        c1 = min(c0 + chunk, len(ts))
        if c0:
            ring[np.arange(c0, c1) % len(ring)] = r_rows(c0, c1)
        ready = int(np.searchsorted(hi, c1, side="right"))
        for b0 in range(done, ready, block):
            k = slice(b0, min(b0 + block, ready))
            near = np.minimum(lo[k, None] + np.arange(span), hi[k, None] - 1)
            w = _unit_kernels((eval_ts[k, None] - ts[near])[:, :, None] / widths, pad[k])
            np.einsum("btn,btnk->bnk", w, ring_pairs[near % len(ring)], out=pairs[k])
        done = ready
    return out
