"""Spectrally truncated Cauchy evolution with energy diagnostics.

The truncated system is evolved in the original variables by classical RK4;
the time-dependent Gevrey weight ``e^{<D>^rho (T - a t)}`` is applied only to
snapshots (mathematically identical for diagnostics, and it keeps symbol
quantization out of the time loop).  The symmetrizer energy is rebuilt at
every sample time with the running window ``tau = T - a t``; in Hoelder mode
the mollified symmetrizer takes its place.

Only the active band, the modes with chi(h xi) > 0, goes through RK4.  Off
it chi = 0, the generator is ``-eps_par xi^2``, and one RK4 step multiplies
each mode by ``1 + z + z^2/2 + z^3/6 + z^4/24`` with ``z = -dt eps_par xi^2``
(exactly 1 when eps_par = 0); likewise ``M = -a <xi>^rho I`` there, so
``R = I/2`` exactly and Lyapunov solves run on band nodes only.  A forced
run evolves the whole lattice, since the forcing drives every mode.  The
full state is assembled at sample times and at the end.  The time
coefficients of every RK4 stage are evaluated once, before the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hypersym.coeffs import SystemCoefficients
from hypersym.engine import SpectralState, lattice, shift_map, weighted_norm
from hypersym.errors import ConfigError, InconclusiveError, NumericAbortError
from hypersym.planner import validate_params
from hypersym.symmetrizer import (
    ParameterSet,
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
    act by exact frequency shifts (:func:`engine.shift_map`), which is their
    Kohn-Nirenberg quantization; on the band each x-harmonic k is a pair of
    slices.  The terms of each field collapse per harmonic, so
    ``A_k(t) @ (i xi v)`` and ``B_k(t) @ v`` are one product each, with the
    matrices evaluated once by :meth:`compile` for the times a solve uses.
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
        self.heat = self.eps_par * self.xi**2
        self._i_xi = 1j * self.xi
        self._rows: dict = {}
        self._terms: list = []

    def compile(self, ts) -> None:
        """Evaluate the harmonic matrices at every time in ``ts`` once.

        :meth:`apply` accepts exactly these times.  Each term is (src, tgt,
        (n_t, m, m) stack, whether it acts on ``i xi v``), one per harmonic.
        """
        ts = np.unique(np.asarray(ts, dtype=float))
        self._rows = {t: i for i, t in enumerate(ts.tolist())}
        n = len(self.xi)
        self._terms = [(*shift_map(k, n), stack, on_a)
                       for on_a, fld in ((True, self.coeffs.a_field),
                                         (False, self.coeffs.b_field))
                       for k, stack in fld.harmonic_matrices(ts).items()]

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

    def apply(self, t: float, coeffs_hat: np.ndarray) -> np.ndarray:
        """The generator at a compiled time t on a band state (m, n_band)."""
        row = self._rows[t]
        v = coeffs_hat * self.chi
        w_a = self._i_xi * v
        out = np.zeros(coeffs_hat.shape, dtype=complex)
        for src, tgt, stack, on_a in self._terms:
            out[:, tgt] += stack[row] @ (w_a if on_a else v)[:, src]
        out *= self.chi
        if self.eps_par:
            out -= self.heat * coeffs_hat
        return out


def step_rk4(rhs, u: np.ndarray, t: float, dt: float,
             lam_max: float | None = None) -> np.ndarray:
    """Classical four-stage explicit step for ``du/dt = rhs(t, u)``.

    Refuses steps beyond the stability budget ``dt <= 2.5 / lam_max``.
    """
    if lam_max is not None and dt * lam_max > 2.5:
        raise ConfigError(
            f"dt = {dt:.3g} violates the stability budget 2.5/Lambda = "
            f"{2.5 / lam_max:.3g}"
        )
    k1 = rhs(t, u)
    k2 = rhs(t + dt / 2.0, u + dt / 2.0 * k1)
    k3 = rhs(t + dt / 2.0, u + dt / 2.0 * k2)
    k4 = rhs(t + dt, u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Traces and the main loop


@dataclass
class EnergyTrace:
    times: np.ndarray
    e_r: np.ndarray  # R-weighted energy of v, normalized by its initial value
    e_r_raw: np.ndarray
    norms: dict  # sigma -> array of ||<D>^sigma v(t)||
    f_norms: dict  # sigma -> array of ||<D>^sigma f_tilde(t)|| (forced runs)
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
            row += [repr(float(self.norms[s][i])) for s in self.sigmas]
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


def gevrey_radius_fit(state: SpectralState, s: float,
                      noise_floor: float = 1e-14) -> tuple[float, float]:
    """Least-squares radius of ``|u_hat| ~ e^{-c <xi>^(1/s)}`` over the tail.

    Requires at least three decades of tail above the noise floor;
    otherwise the measurement is inconclusive.
    """
    xi = state.xi
    amp = np.linalg.norm(state.coeffs, axis=0)
    # fold +-xi to |xi| taking the max amplitude
    ks = np.arange(state.n_x // 2 + 1)
    vals = np.zeros(ks.size)
    np.maximum.at(vals, np.abs(xi).astype(int), amp)
    peak = float(np.max(vals))
    band = (vals > max(noise_floor, 1e-300)) & (vals < 0.5 * peak) & (ks > 0)
    if np.count_nonzero(band) < 5:
        raise InconclusiveError("not enough tail points for a radius fit")
    decades = math.log10(np.max(vals[band]) / np.min(vals[band]))
    if decades < 3.0:
        raise InconclusiveError(f"tail spans only {decades:.2f} decades")
    xcoord = bracket(ks[band].astype(float), 1.0) ** (1.0 / s)
    ycoord = -np.log(vals[band])
    slope, intercept = np.polyfit(xcoord, ycoord, 1)
    resid = float(np.sqrt(np.mean((ycoord - (slope * xcoord + intercept)) ** 2)))
    return float(slope), resid


_SIGMA_KEYS = ("-nu", "(rho-1)/2", "rho/2", "nu", "3nu")


def _sigma_values(params: ParameterSet) -> tuple:
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
        raise ConfigError("requested dt violates the stability budget")

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

    def r_generator(t: float):
        # damped generator of the cutoff problem for x-independent
        # coefficients, with the running window tau = T - a t in H_N
        return damped_generator(coeffs, replace(params, tau=big_t - a * t),
                                t, 0.0, r_xi, r_chi2)

    def r_lattice(r_band: np.ndarray) -> np.ndarray:
        r = np.tile(np.eye(coeffs.m, dtype=complex) / 2.0, (n_x, 1, 1))
        r[r_index] = r_band
        return r

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
            gens = [r_generator(float(tp)) for tp in path_ts]
            r_path = _lyap_solve_batch(np.stack([g[0] for g in gens]),
                                       np.stack([g[1] for g in gens]))
            molly = mollify_path(path_ts, r_path, bracket(r_xi, ell), delta,
                                 np.asarray(sample_times))
            molly_values = molly.values  # (n_samples, n_active, m, m)
        else:
            er_mode = "multiplier"

    def rhs(t, band_hat):
        out = gen.apply(t, band_hat)
        if problem.forcing is not None:
            out = out + problem.forcing(t).coeffs[:, gen.index]
        return out

    sigmas = _sigma_values(params)
    times_list: list[float] = []
    e_r_raw: list[float] = []
    norms: dict = {s: [] for s in sigmas}
    f_norms: dict = {3.0 * params.nu: [], 2.0 * params.nu - (rho - 1.0) / 2.0: []}
    gevrey_cs: list[float] = []
    states: list[SpectralState] = []

    def sample(idx: int, t: float, u: SpectralState):
        weight = gevrey_weight(xi, big_t - a * t, rho, ell)
        v = SpectralState(u.coeffs * weight[None, :])
        times_list.append(t)
        states.append(u)
        for s in sigmas:
            norms[s].append(weighted_norm(v, s, ell))
        if problem.forcing is not None:
            ft = SpectralState(problem.forcing(t).coeffs * weight[None, :])
            for s in f_norms:
                f_norms[s].append(weighted_norm(ft, s, ell))
        if er_mode == "multiplier":
            r_here = r_lattice(_lyap_solve_batch(*r_generator(t)))
        elif er_mode == "mollified":
            r_here = r_lattice(molly_values[idx])
        else:
            r_here = None
        if r_here is None:
            e_r_raw.append(float("nan"))
        else:
            quad = np.einsum("ck,kcd,dk->", np.conj(v.coeffs), r_here, v.coeffs)
            e_r_raw.append(float(np.real(quad)))
        if problem.gevrey_s is not None:
            try:
                c_fit, _ = gevrey_radius_fit(u, problem.gevrey_s)
            except InconclusiveError:
                c_fit = float("nan")
            gevrey_cs.append(c_fit)
        else:
            gevrey_cs.append(float("nan"))

    # Off the band the generator is -eps_par xi^2, so one RK4 step multiplies
    # each mode by 1 + z + z^2/2 + z^3/6 + z^4/24, z = -dt eps_par xi^2
    # (exactly 1 when eps_par = 0).
    u0 = problem.g.coeffs
    off_index = np.setdiff1d(np.arange(n_x), gen.index)
    band, off = u0[:, gen.index], u0[:, off_index]
    z = -dt * gen.eps_par * xi[off_index] ** 2
    amp = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0

    def assemble() -> SpectralState:
        full = np.empty_like(u0)
        full[:, gen.index] = band
        full[:, off_index] = off
        return SpectralState(full)

    t = 0.0
    sample(0, t, problem.g)
    next_sample = 1
    for k in range(n_steps):
        band = step_rk4(rhs, band, t, dt, lam_max=lam)
        off = off * amp
        t = (k + 1) * dt
        peak = np.maximum(np.max(np.abs(band)), np.max(np.abs(off), initial=0.0))
        if not np.isfinite(peak):
            raise NumericAbortError(
                f"evolution lost finiteness at t = {t:.6g}", last_time=t - dt
            )
        if next_sample < len(sample_times) and t >= sample_times[next_sample] - 1e-12:
            sample(next_sample, t, assemble())
            next_sample += 1

    times = np.asarray(times_list)
    e_r_arr = np.asarray(e_r_raw)
    base = e_r_arr[0] if e_r_arr.size and np.isfinite(e_r_arr[0]) and e_r_arr[0] > 0 else 1.0
    e_r_norm = e_r_arr / base
    increments = np.diff(e_r_norm, prepend=e_r_norm[0] if e_r_norm.size else 0.0)
    trace = EnergyTrace(
        times=times,
        e_r=e_r_norm,
        e_r_raw=e_r_arr,
        norms={s: np.asarray(vs) for s, vs in norms.items()},
        f_norms={s: np.asarray(vs) for s, vs in f_norms.items()},
        gevrey_c=np.asarray(gevrey_cs),
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


def energy_residual(result: SolveResult, params: ParameterSet | None = None) -> EnergyResidualReport:
    """Empirical constants of the two a priori estimates along a run.

    For unforced runs the constant is ``max_t LHS(t) / ||<D>^nu v(0)||``;
    forced runs add the time-integrated forcing norm to the denominator.
    """
    params = params or result.params
    trace = result.trace
    sig = _sigma_values(params)
    nu = params.nu
    rho = float(params.rho)
    lhs1 = trace.norms[sig[0]]  # -nu
    lhs2 = trace.norms[sig[1]]  # (rho-1)/2
    rhs0 = trace.norms[sig[3]][0]  # nu at t=0
    duh1 = duh2 = 0.0
    if result.problem.forcing is not None and len(trace.times) > 1:
        f1 = trace.f_norms[3.0 * nu]
        f2 = trace.f_norms[2.0 * nu - (rho - 1.0) / 2.0]
        duh1 = float(np.trapezoid(f1, trace.times))
        duh2 = float(np.trapezoid(f2, trace.times))
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
        rep = energy_residual(res, params)
        cs1.append(rep.c_first)
        cs2.append(rep.c_second)
        sig = _sigma_values(params)
        curves.append(res.trace.norms[sig[0]] / res.trace.norms[sig[3]][0])
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
