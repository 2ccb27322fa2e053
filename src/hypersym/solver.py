"""Spectrally truncated Cauchy evolution with energy diagnostics.

The truncated system is evolved in the original variables by classical RK4;
the time-dependent Gevrey weight ``e^{<D>^rho (T - a t)}`` is applied only to
snapshots (mathematically identical for diagnostics, and it keeps symbol
quantization out of the time loop).  The symmetrizer energy is rebuilt at
every sample time with the running window ``tau = T - a t``; in Hoelder mode
the mollified symmetrizer takes its place.

Only the active band, the modes with chi(h xi) > 0, goes through RK4.  Off
it chi = 0, the generator is ``-eps_par xi^2``, and one RK4 step multiplies
each mode by ``1 + z + z^2/2 + z^3/6 + z^4/24`` with ``z = -dt eps_par xi^2``;
likewise ``M = -a <xi>^rho I`` there, so ``R = I/2`` exactly and Lyapunov
solves run on band nodes only.  When eps_par = 0 the factor is exactly 1
and the off-band modes are not touched at all; otherwise they take the
products of a sample interval after its band steps.  A forced run evolves
the whole lattice, since the forcing drives every mode.  The full state is
assembled at sample times and at the end.  The time coefficients of every
RK4 stage are evaluated once, before the loop, into one matrix per time, so
each generator application is a single product (:class:`TruncatedGenerator`).

The band advances one sample interval at a time.  Each step reuses five
work buffers and writes its state into one row of the interval's block,
with the operations of the allocating step in the same order, so its
roundings are that step's.  Finiteness is checked once per block, and an abort
names the first step that lost it.  The loop only records the sampled
states.  The diagnostics then run over blocks of samples: one weight array,
one product of the squared moduli against the ``<xi>^(2 sigma)`` table for
all five norms, one band Lyapunov batch for the R-energy and one
stack-first radius fit per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hypersym.coeffs import SystemCoefficients
from hypersym.engine import SpectralState, lattice, weighted_norm
from hypersym.errors import ConfigError, NumericAbortError
from hypersym.planner import validate_params
from hypersym.symmetrizer import (
    ParameterSet,
    _lyap_node_bytes,
    _lyap_solve_batch,
    damped_generator,
    mollify_path,
)
from hypersym.weights import bracket, gevrey_weight, smooth_cutoff


# ---------------------------------------------------------------------------
# Data and problems


def gevrey_data(
    n_x: int,
    m: int,
    s: float,
    c0: float,
    seed: int = 0,
    amplitude: float = 1.0,
) -> SpectralState:
    """Synthetic initial data with an exact Gevrey-s certificate.

    ``|g_hat(xi)| = amplitude * e^{-c0 <xi>^(1/s)}`` with seeded random
    phases, conjugate-symmetric so physical samples are real; the unpaired
    top mode is zeroed.
    """
    xi = lattice(n_x)
    rng = np.random.default_rng(seed)
    amp = amplitude * np.exp(-c0 * bracket(xi, 1.0) ** (1.0 / s))
    coeffs = np.zeros((m, n_x), dtype=complex)
    half = n_x // 2
    for c in range(m):
        phases = np.exp(2j * math.pi * rng.random(half - 1))
        coeffs[c, 0] = amp[0]
        coeffs[c, 1:half] = amp[1:half] * phases
        # negative frequencies mirror with conjugate phases
        neg = np.arange(half + 1, n_x)
        coeffs[c, neg] = np.conj(coeffs[c, n_x - neg])
        coeffs[c, half] = 0.0
    return SpectralState(coeffs)


@dataclass
class CauchyProblem:
    """Initial data, forcing and certificate for one evolution run."""

    coeffs: SystemCoefficients
    g: SpectralState
    horizon: float
    forcing: object = None  # callable t -> SpectralState, or None
    gevrey_s: float | None = None
    gevrey_c0: float | None = None
    gevrey_big_c0: float = 1.0

    def check_certificate(self, slack: float = 1.05) -> bool:
        """Verify ``|g_hat| <= C0 e^{-c0 <xi>^(1/s)}`` on the lattice."""
        if self.gevrey_s is None or self.gevrey_c0 is None:
            return True
        bound = self.gevrey_big_c0 * np.exp(
            -self.gevrey_c0 / slack * bracket(self.g.xi, 1.0) ** (1.0 / self.gevrey_s)
        )
        return bool(np.all(np.abs(self.g.coeffs) <= bound[None, :] * slack + 1e-300))


# ---------------------------------------------------------------------------
# Spatial operator (term-shift application of the truncated generator)


class TruncatedGenerator:
    """Applies ``chi(hD) (i A(t,x,D) + B(t,x)) chi(hD) - eps_par |D|^2`` on a band.

    The band is the modes with chi(h xi) > 0, the contiguous range
    |xi| < 1/h (chi decreases in |xi|), or the whole lattice when
    ``whole_lattice`` is set.  Band states are (m, n_band) arrays in
    centered order: column j holds frequency ``xi[j]``, found at FFT
    position ``index[j]`` of a lattice state.  Trig-polynomial coefficients
    act by exact frequency shifts, which is their Kohn-Nirenberg
    quantization: harmonic k moves position p to p + k and drops the modes
    that leave the band (the rule of :func:`engine.shift_map`).  The inputs
    of the fields that have terms, ``i xi v`` for A and ``v`` for B, sit in
    a zero-padded buffer with K = ``coeffs.x_band`` zeros on each side;
    window row K - k of its sliding-window view is the source shifted by k,
    zero where it left the band.  So one product of the
    ``(m, F m (2K+1))`` matrix of every harmonic of those F fields,
    evaluated once by :meth:`compile` for the times a solve uses, applies
    the whole generator.
    """

    def __init__(self, coeffs: SystemCoefficients, n_x: int, h: float, eps_par: float,
                 whole_lattice: bool = False):
        self.coeffs = coeffs
        self.n_x = n_x
        self.h = float(h)
        self.eps_par = float(eps_par)
        xi = np.arange(-(n_x // 2), n_x - n_x // 2, dtype=float)
        chi = smooth_cutoff(self.h * xi) if self.h > 0 else np.ones(n_x)
        band = slice(None) if whole_lattice else chi > 0
        self.xi = xi[band]
        self.chi = chi[band]
        self.index = self.xi.astype(int) % n_x
        n, k_max = len(self.xi), coeffs.x_band
        # each field's input is factor * u, at columns K .. K + n - 1 of its
        # buffer row; the padding stays zero
        fields = [(fld, fac) for fld, fac in ((coeffs.a_field, 1j * self.xi * self.chi),
                                              (coeffs.b_field, self.chi + 0j)) if fld.terms]
        self._fields = [fld for fld, _ in fields]
        self._factors = np.array([fac for _, fac in fields], dtype=complex).reshape(-1, 1, n)
        buf = np.zeros((len(fields), coeffs.m, n + 2 * k_max), dtype=complex)
        self._center = buf[:, :, k_max:k_max + n]
        self._windows = np.lib.stride_tricks.sliding_window_view(buf, n, axis=-1)
        # the product's right operand: the windows themselves when K = 0,
        # else a contiguous copy of them that apply refreshes through _gather
        self._operand = self._windows.reshape(-1, n)
        self._gather = self._operand.reshape(self._windows.shape) if k_max else None
        # complex, so that no product casts per call
        self._chi = self.chi.astype(complex)
        self._heat = (self.eps_par * self.xi**2).astype(complex)
        self._heat_term = np.empty((coeffs.m, n), dtype=complex)
        self._mats: dict = {}

    def compile(self, ts) -> None:
        """Evaluate the harmonic matrices at every time in ``ts`` once.

        :meth:`apply` accepts exactly these times.  The matrix at a time is
        (m, F m (2K+1)): column (f, d, K - k) holds component d of harmonic k
        of field f.
        """
        ts = np.unique(np.asarray(ts, dtype=float))
        m, k_max = self.coeffs.m, self.coeffs.x_band
        stack = np.zeros((ts.size, m, len(self._fields), m, 2 * k_max + 1), dtype=complex)
        for f, fld in enumerate(self._fields):
            for k, mats in fld.harmonic_matrices(ts).items():
                stack[:, :, f, :, k_max - k] = mats
        self._mats = dict(zip(ts.tolist(), stack.reshape(ts.size, m, -1)))

    def lam_bound(self, t_hi: float) -> float:
        """Stability scale: sup over modes of ||iA(xi)|| + eps |xi|^2."""
        ts = np.linspace(0.0, max(t_hi, 1e-9), 33)

        def sup(fld):
            # per-term triangle bound, so that it holds at every x
            return float(np.max(sum((np.linalg.norm(term.matrix, 2) * np.abs(term.g(ts))
                                     for term in fld.terms), np.zeros(ts.size))))

        xi_max = self.n_x / 2.0
        return (sup(self.coeffs.a_field) * xi_max + sup(self.coeffs.b_field)
                + self.eps_par * xi_max**2)

    def apply(self, t: float, coeffs_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The generator at a compiled time t on a band state (m, n_band),
        written into ``out`` when given (it must not be ``coeffs_hat``)."""
        np.multiply(coeffs_hat, self._factors, self._center)
        if self._gather is not None:
            np.copyto(self._gather, self._windows)
        out = np.matmul(self._mats[t], self._operand, out)
        out *= self._chi
        if self.eps_par:
            out -= np.multiply(self._heat, coeffs_hat, self._heat_term)
        return out


def step_rk4(rhs, u: np.ndarray, t: float, dt: float, out: np.ndarray | None = None,
             work=None) -> np.ndarray:
    """Classical four-stage explicit step for ``du/dt = rhs(t, u)``.

    ``work``, five arrays shaped like u, makes the step allocation-free: the
    stages go into them by ``rhs(t, v, k)`` and the new state into
    ``out``, which may be u.  The operations and their order, and so every
    rounding, are those of the allocating form.
    """
    if work is None:
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2.0, u + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, u + dt / 2.0 * k2)
        k4 = rhs(t + dt, u + dt * k3)
        return u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    k1, k2, k3, k4, v = work
    # 0-d arrays of u's type stand in for the Python floats, and the outputs
    # go by position: on small bands either costs more than the arithmetic
    d = u.dtype
    half, whole, two, sixth = (np.array(dt / 2.0, d), np.array(dt, d), np.array(2.0, d),
                               np.array(dt / 6.0, d))
    rhs(t, u, k1)
    rhs(t + dt / 2.0, np.add(u, np.multiply(half, k1, v), v), k2)
    rhs(t + dt / 2.0, np.add(u, np.multiply(half, k2, v), v), k3)
    rhs(t + dt, np.add(u, np.multiply(whole, k3, v), v), k4)
    np.add(k1, np.multiply(two, k2, k2), k1)
    np.add(k1, np.multiply(two, k3, k3), k1)
    np.add(k1, k4, k1)
    return np.add(u, np.multiply(sixth, k1, k1), out)


# ---------------------------------------------------------------------------
# Traces and the main loop

# Temporaries of one block of sample diagnostics, in bytes.
_BLOCK_BYTES = 1 << 20


def _samples_per_block(m: int, n_x: int, n_lyap: int) -> int:
    """Samples per block of diagnostics, so that its temporaries stay near
    _BLOCK_BYTES: a sample takes a few copies of its (m, n_x) state, and
    each of its ``n_lyap`` Lyapunov nodes what the band generator and the
    kernel of ``_lyap_solve_batch`` hold at once (``_lyap_node_bytes``)."""
    return max(1, _BLOCK_BYTES // (64 * m * n_x + _lyap_node_bytes(m) * n_lyap))


@dataclass
class EnergyTrace:
    times: np.ndarray
    e_r: np.ndarray  # R-weighted energy of v, normalized by its initial value
    e_r_raw: np.ndarray
    norms: np.ndarray  # (n_samples, 5): ||<D>^sigma v(t)||, column j for sigmas[j]
    # (n_samples, 2): ||<D>^sigma f_tilde(t)|| for sigma = 3nu, 2nu - (rho-1)/2;
    # NaN in unforced runs
    f_norms: np.ndarray
    gevrey_c: np.ndarray
    increments: np.ndarray  # per-sample increments of normalized e_r
    er_mode: str  # multiplier | mollified | skipped
    sigmas: tuple

    def to_csv(self, path) -> None:
        cols = ["t", "e_r_norm", "e_r_raw", "gevrey_c"] + [
            f"norm_sigma_{s:+.6f}" for s in self.sigmas
        ]
        lines = [",".join(cols)]
        for i, t in enumerate(self.times):
            row = [repr(float(t)), repr(float(self.e_r[i])), repr(float(self.e_r_raw[i])),
                   repr(float(self.gevrey_c[i]))]
            row += [repr(float(x)) for x in self.norms[i]]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class SolveResult:
    problem: CauchyProblem
    params: ParameterSet
    h: float
    eps_par: float
    dt: float
    times: np.ndarray
    states: list  # sampled SpectralStates of u
    trace: EnergyTrace
    final: SpectralState


def gevrey_radius_fit(coeffs, s: float, noise_floor: float = 1e-14):
    """Least-squares radius of ``|u_hat| ~ e^{-c <xi>^(1/s)}`` over the tail.

    ``coeffs`` is a stack (..., m, N_x) of states in FFT order; returns the
    fitted c and the rms residual, each of the stack's leading shape.  A fit
    needs at least five tail points spanning three decades above the noise
    floor; otherwise the measurement is inconclusive and both are NaN.
    """
    coeffs = np.asarray(coeffs)
    n_x = coeffs.shape[-1]
    half = n_x // 2
    amp = np.sqrt(np.sum(coeffs.real**2 + coeffs.imag**2, axis=-2))
    # fold +-xi to |xi| taking the max amplitude; -N_x/2 has no mirror
    vals = amp[..., :half + 1].copy()
    np.maximum(vals[..., 1:half], amp[..., :half:-1], out=vals[..., 1:half])
    peak = np.max(vals, axis=-1, keepdims=True)
    band = (vals > max(noise_floor, 1e-300)) & (vals < 0.5 * peak)
    band[..., 0] = False
    count = np.count_nonzero(band, axis=-1)
    lo = np.min(np.where(band, vals, np.inf), axis=-1)
    hi = np.max(np.where(band, vals, 0.0), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        conclusive = (count >= 5) & (np.log10(hi / lo) >= 3.0)
        # closed-form least squares over the band, in centered coordinates
        n = np.maximum(count, 1)[..., None]
        xcoord = np.where(band, bracket(np.arange(half + 1.0), 1.0) ** (1.0 / s), 0.0)
        ycoord = np.where(band, -np.log(np.where(band, vals, 1.0)), 0.0)
        dx = np.where(band, xcoord - np.sum(xcoord, axis=-1, keepdims=True) / n, 0.0)
        dy = np.where(band, ycoord - np.sum(ycoord, axis=-1, keepdims=True) / n, 0.0)
        slope = np.sum(dx * dy, axis=-1, keepdims=True) / np.sum(dx * dx, axis=-1, keepdims=True)
        resid = np.sqrt(np.sum((dy - slope * dx) ** 2, axis=-1, keepdims=True) / n)
    return np.where(conclusive, slope[..., 0], np.nan), np.where(conclusive, resid[..., 0], np.nan)


def _sigma_values(params: ParameterSet) -> tuple:
    """The norm orders of the trace, in column order: -nu, (rho-1)/2,
    rho/2, nu, 3nu.  With nu = 0 three of them coincide."""
    nu = params.nu
    rho = float(params.rho)
    return (-nu, (rho - 1.0) / 2.0, rho / 2.0, nu, 3.0 * nu)


def solve_cauchy(
    problem: CauchyProblem,
    params: ParameterSet,
    h: float,
    eps_par: float = 0.0,
    dt: float | None = None,
    stride: int = 8,
    track_energy: bool = True,
) -> SolveResult:
    """Evolve the truncated (optionally parabolically regularized) problem.

    The trajectory is sampled every ``stride`` steps; at each sample the
    diagnostic weight ``e^{<D>^rho (T - a t)}`` produces v, the weighted
    norms, the R-energy (exact multiplier for x-independent coefficients;
    mollified variant in Hoelder mode) and a Gevrey radius fit.  Aborts with
    the last healthy time on NaN/overflow.
    """
    coeffs = problem.coeffs
    violations = validate_params(
        params,
        c=params.c_spec if params.c_spec is not None else 0.5,
        a0=params.a0,
        eps0=params.eps0,
    )
    if violations:
        raise ConfigError("invalid parameters: " + "; ".join(violations))
    if h > 1.0 / float(params.ell) + 1e-12:
        raise ConfigError(
            f"cutoff scale h = {h} above the uniformity range 1/ell = "
            f"{1.0 / float(params.ell)}"
        )
    n_x = problem.g.n_x
    # the forcing drives every mode, so a forced run evolves the whole lattice
    gen = TruncatedGenerator(coeffs, n_x, h, eps_par,
                             whole_lattice=problem.forcing is not None)
    lam = max(gen.lam_bound(problem.horizon), 1e-12)
    if dt is None:
        dt = min(0.5 / lam, problem.horizon / 8.0)
    n_steps = max(1, int(math.ceil(problem.horizon / dt)))
    dt = problem.horizon / n_steps
    if dt * lam > 2.5:
        raise ConfigError(f"dt = {dt:.3g} violates the stability budget "
                          f"2.5/Lambda = {2.5 / lam:.3g}")

    big_t = float(params.T)
    a = float(params.a)
    rho = float(params.rho)
    ell = float(params.ell)
    xi = lattice(n_x)
    # up-front overflow probe for the largest weight in the run
    gevrey_weight(xi, big_t, rho, ell)
    # every RK4 stage time, computed as step_rk4 computes it
    step_ts = np.arange(n_steps) * dt
    gen.compile(np.concatenate([step_ts, step_ts + dt / 2.0, step_ts + dt]))

    # R is solved where chi > 0; elsewhere M = -a <xi>^rho I, so R = I/2.
    active = gen.chi > 0
    r_index, r_xi, r_chi2 = gen.index[active], gen.xi[active], gen.chi[active] ** 2

    def r_generator(t):
        # damped generator of the cutoff problem for x-independent
        # coefficients, with the running window tau = T - a t in H_N; an
        # array t of shape (n, 1) gives one row of band generators per time
        return damped_generator(coeffs, replace(params, tau=big_t - a * t),
                                t, 0.0, r_xi, r_chi2)

    x_independent = coeffs.x_band == 0
    use_molly = coeffs.t_regularity == "holder" and params.delta is not None
    er_mode = "skipped"
    molly_values = None
    sample_times = [k * stride * dt for k in range(n_steps // stride + 1)]
    if sample_times[-1] < problem.horizon - 1e-12:
        sample_times.append(problem.horizon)
    if track_energy and x_independent:
        if use_molly:
            er_mode = "mollified"
            delta = float(params.delta)
            br = bracket(xi, ell)
            width_max = float(np.max(br**-delta))
            width_min = float(np.min(br**-delta))
            dt_path = width_min / 5.0
            t_lo = -width_max * 1.05
            t_hi = problem.horizon + width_max * 1.05
            path_ts = np.arange(t_lo, t_hi + dt_path, dt_path)
            r_path = _lyap_solve_batch(*r_generator(path_ts[:, None]))
            molly = mollify_path(path_ts, r_path, bracket(r_xi, ell), delta,
                                 np.asarray(sample_times))
            molly_values = molly.values  # (n_samples, n_active, m, m)
        else:
            er_mode = "multiplier"

    if problem.forcing is None:
        rhs = gen.apply
    else:
        def rhs(t, band_hat, out=None):
            out = gen.apply(t, band_hat, out)
            return np.add(out, problem.forcing(t).coeffs[:, gen.index], out)

    # Off the band the generator is -eps_par xi^2, so one RK4 step multiplies
    # each mode by amp = 1 + z + z^2/2 + z^3/6 + z^4/24, z = -dt eps_par xi^2.
    # With eps_par = 0 that is exactly 1 and the modes are left alone;
    # otherwise they take an interval's products after its band steps.
    u0 = problem.g.coeffs
    off_index = np.setdiff1d(np.arange(n_x), gen.index)
    band, off = u0[:, gen.index], u0[:, off_index]
    z = -dt * gen.eps_par * xi[off_index] ** 2
    amp = (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0).astype(complex)
    off_peak = np.abs(off).max(initial=0.0)

    def assemble() -> SpectralState:
        full = np.empty_like(u0)
        full[:, gen.index] = band
        full[:, off_index] = off
        return SpectralState(full)

    # The step that takes each sample: the first one after the previous
    # sample's whose time k dt reaches the sample time, less 1e-12.
    step_t = np.arange(1, n_steps + 1) * dt
    sample_steps = [0]
    for t_s in sample_times[1:]:
        k = max(sample_steps[-1], int(np.searchsorted(step_t, t_s - 1e-12))) + 1
        if k > n_steps:
            break
        sample_steps.append(k)
    ends = sample_steps[1:] + [n_steps] * (sample_steps[-1] < n_steps)

    # The band advances one interval between samples at a time, each step's
    # state into one row of a block, and the block is checked for finiteness
    # once.  The abort names the first step that lost it.
    times_list, states = [0.0], [problem.g]
    work = [np.empty_like(band) for _ in range(5)]
    longest = int(np.max(np.diff(ends, prepend=0)))
    block = np.empty((longest,) + band.shape, dtype=complex)
    off_block = np.empty((longest,) + off.shape, dtype=complex) if gen.eps_par else None
    start = 0
    for end in ends:
        for k in range(start, end):
            band = step_rk4(rhs, band, k * dt, dt, block[k - start], work)
        peaks = np.abs(block[:end - start]).max(axis=(1, 2))
        if gen.eps_par:
            for k in range(start, end):
                off = np.multiply(off, amp, off_block[k - start])
            off_peak = np.abs(off_block[:end - start]).max(axis=(1, 2), initial=0.0)
        lost = ~np.isfinite(np.maximum(peaks, off_peak))
        if lost.any():
            t = (start + int(np.argmax(lost)) + 1) * dt
            raise NumericAbortError(
                f"evolution lost finiteness at t = {t:.6g}", last_time=t - dt
            )
        if end <= sample_steps[-1]:
            times_list.append(end * dt)
            states.append(assemble())
        start = end

    # The diagnostics run over blocks of samples.
    times = np.asarray(times_list)
    n_samples = times.size
    sigmas = _sigma_values(params)
    f_sigmas = (3.0 * params.nu, 2.0 * params.nu - (rho - 1.0) / 2.0)
    norms = np.empty((n_samples, len(sigmas)))
    f_norms = np.full((n_samples, len(f_sigmas)), np.nan)
    e_r_arr = np.full(n_samples, np.nan)
    gevrey_c = np.full(n_samples, np.nan)
    r_off = np.setdiff1d(np.arange(n_x), r_index)
    block = _samples_per_block(coeffs.m, n_x, r_xi.size if er_mode == "multiplier" else 0)
    for lo in range(0, n_samples, block):
        blk = slice(lo, lo + block)
        u = np.stack([st.coeffs for st in states[blk]])
        weight = gevrey_weight(xi, big_t - a * times[blk, None], rho, ell)[:, None, :]
        v = u * weight
        norms[blk] = weighted_norm(v, sigmas, ell)
        if problem.forcing is not None:
            f = np.stack([problem.forcing(t).coeffs for t in times[blk]])
            f_norms[blk] = weighted_norm(f * weight, f_sigmas, ell)
        if er_mode != "skipped":
            # Re <R v, v>: the band's solved R, and R = I/2 off it
            r_band = (_lyap_solve_batch(*r_generator(times[blk, None]))
                      if er_mode == "multiplier" else molly_values[blk])
            v_band = v[:, :, r_index]
            e_r_arr[blk] = np.einsum("bck,bkcd,bdk->b", v_band.conj(), r_band, v_band).real \
                + 0.5 * np.sum(np.abs(v[:, :, r_off]) ** 2, axis=(1, 2))
        if problem.gevrey_s is not None:
            gevrey_c[blk] = gevrey_radius_fit(u, problem.gevrey_s)[0]

    base = e_r_arr[0] if e_r_arr.size and np.isfinite(e_r_arr[0]) and e_r_arr[0] > 0 else 1.0
    e_r_norm = e_r_arr / base
    increments = np.diff(e_r_norm, prepend=e_r_norm[0] if e_r_norm.size else 0.0)
    trace = EnergyTrace(
        times=times,
        e_r=e_r_norm,
        e_r_raw=e_r_arr,
        norms=norms,
        f_norms=f_norms,
        gevrey_c=gevrey_c,
        increments=increments,
        er_mode=er_mode,
        sigmas=sigmas,
    )
    return SolveResult(
        problem=problem,
        params=params,
        h=h,
        eps_par=eps_par,
        dt=dt,
        times=times,
        states=states,
        trace=trace,
        final=assemble(),
    )


# ---------------------------------------------------------------------------
# A priori estimate residuals and studies


@dataclass
class EnergyResidualReport:
    c_first: float  # empirical constant in the sigma = -nu estimate
    c_second: float  # empirical constant in the sigma = (rho-1)/2 estimate
    max_increment: float
    er_mode: str


def energy_residual(result: SolveResult) -> EnergyResidualReport:
    """Empirical constants of the two a priori estimates along a run.

    For unforced runs the constant is ``max_t LHS(t) / ||<D>^nu v(0)||``;
    forced runs add the time-integrated forcing norm to the denominator.
    """
    trace = result.trace
    lhs1 = trace.norms[:, 0]  # -nu
    lhs2 = trace.norms[:, 1]  # (rho-1)/2
    rhs0 = trace.norms[0, 3]  # nu at t=0
    duh1 = duh2 = 0.0
    if result.problem.forcing is not None and len(trace.times) > 1:
        duh1 = float(np.trapezoid(trace.f_norms[:, 0], trace.times))  # 3nu
        duh2 = float(np.trapezoid(trace.f_norms[:, 1], trace.times))  # 2nu - (rho-1)/2
    c1 = float(np.max(lhs1) / (rhs0 + duh1))
    c2 = float(np.max(lhs2) / (rhs0 + duh2))
    return EnergyResidualReport(
        c_first=c1,
        c_second=c2,
        max_increment=float(np.max(trace.increments[1:])) if len(trace.increments) > 1 else 0.0,
        er_mode=trace.er_mode,
    )


@dataclass
class HStudyResult:
    h_values: list
    constants_first: list
    constants_second: list
    spread_first: float
    spread_second: float
    curve_spread: float
    passed: bool


def h_uniformity_study(
    problem: CauchyProblem,
    params: ParameterSet,
    h_list,
    dt: float | None = None,
    spread_tol: float = 0.10,
    stride: int = 8,
) -> HStudyResult:
    """Empirical estimate constants across cutoff scales; pass if spread <= tol.

    Besides the per-run constants (max over time), the whole normalized
    curves ``t -> LHS(t) / RHS(0)`` are compared across h so that
    h-dependence hiding below the maximum is still caught.
    """
    cs1, cs2 = [], []
    curves = []
    for h in h_list:
        res = solve_cauchy(problem, params, h=h, dt=dt, stride=stride,
                           track_energy=False)
        rep = energy_residual(res)
        cs1.append(rep.c_first)
        cs2.append(rep.c_second)
        curves.append(res.trace.norms[:, 0] / res.trace.norms[0, 3])
    n_common = min(len(c) for c in curves)
    stackc = np.stack([c[:n_common] for c in curves])
    curve_spread = float(
        np.max(stackc.max(axis=0) - stackc.min(axis=0)) / np.max(stackc)
    )
    spread1 = (max(cs1) - min(cs1)) / min(cs1)
    spread2 = (max(cs2) - min(cs2)) / min(cs2)
    return HStudyResult(
        h_values=list(h_list),
        constants_first=cs1,
        constants_second=cs2,
        spread_first=float(spread1),
        spread_second=float(spread2),
        curve_spread=curve_spread,
        passed=bool(
            spread1 <= spread_tol
            and spread2 <= spread_tol
            and curve_spread <= spread_tol
        ),
    )


@dataclass
class ParabolicStudyResult:
    eps_values: list
    self_differences: list
    rate: float
    sup_norms: list
    energy_spread: float
    passed_rate: bool
    passed_uniform: bool


def parabolic_study(
    problem: CauchyProblem,
    params: ParameterSet,
    eps_list,
    dt: float | None = None,
    rate_window: tuple = (0.7, 1.3),
    uniform_tol: float = 0.10,
    h: float | None = None,
) -> ParabolicStudyResult:
    """Self-convergence in the parabolic regularization strength.

    Runs each eps and eps/2, reports ``||u_eps - u_{eps/2}||`` at the final
    time, the fitted convergence rate, and the spread of the sup-in-time
    plain norms (uniform-in-eps energy boundedness).
    """
    if h is None:
        h = 1.0 / float(params.ell)
    diffs = []
    sups = []
    for eps in eps_list:
        r1 = solve_cauchy(problem, params, h=h, eps_par=eps, dt=dt,
                          track_energy=False, stride=16)
        r2 = solve_cauchy(problem, params, h=h, eps_par=eps / 2.0, dt=dt,
                          track_energy=False, stride=16)
        diffs.append((r1.final - r2.final).norm())
        sups.append(max(st.norm() for st in r1.states))
    eps_arr = np.asarray(list(eps_list), dtype=float)
    rate = float(np.polyfit(np.log(eps_arr), np.log(np.maximum(diffs, 1e-300)), 1)[0])
    spread = (max(sups) - min(sups)) / min(sups)
    return ParabolicStudyResult(
        eps_values=list(eps_list),
        self_differences=[float(d) for d in diffs],
        rate=rate,
        sup_norms=[float(s) for s in sups],
        energy_spread=float(spread),
        passed_rate=bool(rate_window[0] <= rate <= rate_window[1]),
        passed_uniform=bool(spread <= uniform_tol),
    )
