"""The evolve loop's two kernels against the per-term and per-sample code they replaced.

``TruncatedGenerator.apply`` takes one product against the sliding-window
view of a zero-padded buffer; the reference applies each coefficient
term by the pair of ``shift_map`` slices of its harmonic.  The sample diagnostics run
over blocks of samples; the reference computes them one sample at a time,
with ``np.polyfit`` for the radius fit and R assembled on the whole lattice.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hypersym import runner, solver
from hypersym.coeffs import CoeffTerm, SystemCoefficients
from hypersym.engine import fold_amplitudes, lattice, shift_map, squared_moduli
from hypersym.presets import get_preset, preset_names
from hypersym.symmetrizer import _lyap_solve_batch, damped_generator
from hypersym.weights import bracket, gevrey_weight
from support import allocating_rhs, mollify_path_reference, sine_terms


# ---------------------------------------------------------------------------
# TruncatedGenerator.apply


def _per_term_apply(gen, t, u):
    """The generator applied term by term: one pair of slices per term."""
    v = u * gen.chi
    w_a = 1j * gen.xi * v
    out = np.zeros(u.shape, dtype=complex)
    for on_a, terms in ((True, gen.coeffs.a_terms), (False, gen.coeffs.b_terms)):
        for term in terms:
            src, tgt = shift_map(term.x_freq, len(gen.xi))
            out[:, tgt] += term.g(t) * term.matrix @ (w_a if on_a else v)[:, src]
    out *= gen.chi
    if gen.eps_par:
        out -= gen.eps_par * gen.xi**2 * u
    return out


def _one_sided_system():
    """Harmonics +1 and -2 without their mirrors, so that a sign slip in k shows
    (the presets' cosine terms carry equal matrices at k and -k)."""
    return SystemCoefficients(
        m=2,
        a_terms=[
            CoeffTerm(0, "1", np.array([[0.0, 1.0], [0.25, 0.0]], dtype=complex)),
            CoeffTerm(1, "t", np.array([[0.3, 1.0], [0.0, -0.2]], dtype=complex)),
        ] + sine_terms(2, np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)),
        b_terms=[
            CoeffTerm(-2, "1", np.array([[0.4, 0.0], [0.2, -0.3]], dtype=complex)),
        ],
    )


@pytest.mark.parametrize("eps_par", [0.0, 0.05])
@pytest.mark.parametrize("whole", [False, True])
@pytest.mark.parametrize("preset", preset_names() + ["one_sided"])
def test_apply_matches_per_term_shifts(preset, whole, eps_par):
    # whole: h = 0, so chi = 1, the band is the whole lattice and the padded
    # windows reach its edge
    coeffs = _one_sided_system() if preset == "one_sided" else get_preset(preset).coeffs
    n_x, ts = 128, (0.0, 0.37, 1.1)
    gen = solver.TruncatedGenerator(coeffs, n_x, (0.0 if whole else 1.0 / 16.0,), eps_par)
    assert (len(gen.xi) == n_x) == whole
    rng = np.random.default_rng(41)
    u = rng.normal(size=(coeffs.m, len(gen.xi))) + 1j * rng.normal(size=(coeffs.m, len(gen.xi)))
    for t in ts:
        ref = _per_term_apply(gen, t, u)
        out = allocating_rhs(gen)(t, u)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# Block diagnostics


def _radius_fit_polyfit(coeffs, s, noise_floor=1e-14):
    """One state's radius fit by np.polyfit; NaN when inconclusive."""
    xi = lattice(coeffs.shape[-1])
    amp = np.linalg.norm(coeffs, axis=0)
    ks = np.arange(coeffs.shape[-1] // 2 + 1)
    vals = np.zeros(ks.size)
    np.maximum.at(vals, np.abs(xi).astype(int), amp)
    band = (vals > max(noise_floor, 1e-300)) & (vals < 0.5 * np.max(vals)) & (ks > 0)
    if np.count_nonzero(band) < 5 or math.log10(np.max(vals[band]) / np.min(vals[band])) < 3.0:
        return math.nan
    xcoord = bracket(ks[band].astype(float), 1.0) ** (1.0 / s)
    return float(np.polyfit(xcoord, -np.log(vals[band]), 1)[0])


def _per_sample_diagnostics(res, problem, params, h):
    """Norms, raw R-energy and radius fit of each sample, one at a time."""
    times = res.traces[0].times
    coeffs, n_x = problem.coeffs, problem.g.shape[1]
    big_t, a, rho, ell = (float(params.T), float(params.a), float(params.rho),
                          float(params.ell))
    xi = lattice(n_x)
    gen = solver.TruncatedGenerator(coeffs, n_x, (h,), 0.0)
    (_, r_index), = gen.segments
    r_xi, r_chi2 = gen.xi, gen.chi**2

    def r_generator(t):
        return damped_generator(coeffs, replace(params, tau=big_t - a * t), t, 0.0,
                                r_xi, r_chi2)

    molly_values = None
    if res.traces[0].er_mode == "mollified":
        delta = float(params.delta)
        br = bracket(xi, ell)
        width_max, width_min = float(np.max(br**-delta)), float(np.min(br**-delta))
        dt_path = width_min / 5.0
        path_ts = np.arange(-width_max * 1.05, problem.horizon + width_max * 1.05 + dt_path,
                            dt_path)
        molly_values = mollify_path_reference(
            path_ts, _lyap_solve_batch(*r_generator(path_ts[:, None]), coeffs.blocks),
            bracket(r_xi, ell), delta, times)

    norms, e_r, c_fit = [], [], []
    for idx, (t, u) in enumerate(zip(times, res.lattice_states(0))):
        v = u * gevrey_weight(xi, big_t - a * t, rho, ell)[None, :]
        norms.append([np.sqrt(np.sum((np.abs(v) * (bracket(xi, ell) ** s)[None, :]) ** 2))
                      for s in res.traces[0].sigmas])
        if res.traces[0].er_mode == "skipped":
            e_r.append(math.nan)
        else:
            r = np.tile(np.eye(coeffs.m, dtype=complex) / 2.0, (n_x, 1, 1))
            r[r_index] = (_lyap_solve_batch(*r_generator(t), coeffs.blocks) if molly_values is None
                          else molly_values[idx])
            e_r.append(float(np.real(np.einsum("ck,kcd,dk->", np.conj(v), r, v))))
        c_fit.append(_radius_fit_polyfit(u, problem.gevrey_s))
    return np.array(norms), np.array(e_r), np.array(c_fit)


def _assert_close(got, ref, rtol):
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    fin = ~np.isnan(ref)
    assert np.all(np.abs(got[fin] - ref[fin]) <= rtol * np.abs(ref[fin])), \
        np.max(np.abs(got[fin] - ref[fin]) / np.abs(ref[fin]))


def test_radius_fit_stack_matches_polyfit_with_nans():
    # conclusive and inconclusive states in one stack: too few tail points,
    # a tail of under three decades, all zero
    n, s = 256, 1.5
    xi = lattice(n)
    rng = np.random.default_rng(43)
    tail = np.exp(-2.0 * np.hypot(xi, 1.0) ** (1.0 / s))
    states = [tail * rng.uniform(0.5, 1.0, n), np.exp(-0.02 * xi**2),
              np.where(np.abs(xi) < 3, 1.0, 0.0), np.exp(-0.01 * np.abs(xi)),
              np.zeros(n), tail * (1.0 + 0.3j)]
    stack = np.stack([np.stack([u, 0.5 * np.roll(u, 1)]) for u in states])
    ref = np.array([_radius_fit_polyfit(c, s) for c in stack])
    assert np.isnan(ref).sum() == 3
    _assert_close(solver.gevrey_radius_fit(fold_amplitudes(squared_moduli(stack)), s)[0], ref,
                  1e-12)


@pytest.mark.parametrize("preset,er_mode,n_x,block,cap,h,eps_par", [
    # xdep on a band of 31 modes, so that the tail is long enough to fit
    pytest.param("xdep", "skipped", 128, 4, {}, 1.0 / 16.0, 0.0, id="xdep-skipped-128-4"),
    pytest.param("wave_t2", "multiplier", 128, 5, {}, None, 0.0,
                 id="wave_t2-multiplier-128-5"),
    pytest.param("holder_k", "mollified", 64, 7, {}, None, 0.0, id="holder_k-mollified-64-7"),
    # ell = 8 leaves 49 modes off the band; they move, and R = I/2 there
    # carries up to 1e-5 of the energy
    pytest.param("wave_t2", "multiplier", 64, 6, {"ell": 8}, None, 0.02,
                 id="wave_t2-multiplier-eps"),
    # h = 0: the band is the whole lattice and no mode is off it
    pytest.param("wave_t2", "multiplier", 64, 4, {}, 0.0, 0.0, id="wave_t2-multiplier-h0"),
])
def test_block_diagnostics_match_per_sample(preset, er_mode, n_x, block, cap, h, eps_par,
                                            monkeypatch):
    cfg = {"command": "solve", "schema_version": "1", "preset": preset, "seed": 0,
           "n_lattice": n_x, **cap}
    _, params, problem = runner._solve_setup(runner.validate_config(cfg))
    h = 1.0 / float(params.ell) if h is None else h
    monkeypatch.setattr(solver, "_samples_per_block", lambda m, n_x, n_lyap: block)
    monkeypatch.setattr(solver, "N_SAMPLES", 50)  # 51 samples, a last block part full
    res = solver.solve_cauchy(problem, params, (h,), eps_par=eps_par)
    assert res.traces[0].er_mode == er_mode
    n_samples = res.traces[0].times.size
    assert n_samples % block != 0 and n_samples > 2 * block
    norms, e_r, c_fit = _per_sample_diagnostics(res, problem, params, h)
    _assert_close(res.traces[0].norms, norms, 1e-12)
    _assert_close(res.traces[0].e_r_raw, e_r, 1e-12)
    _assert_close(res.traces[0].gevrey_c, c_fit, 1e-12)
    assert np.all(np.isfinite(res.traces[0].norms))
    assert np.isfinite(e_r).all() == (er_mode != "skipped")
    assert np.isfinite(c_fit).any()


@pytest.mark.parametrize("preset,n_x,eps_par", [
    ("wave_t2", 1024, 0.0), ("holder_k", 256, 1e-3), ("xdep", 1024, 0.0),
    ("block_direct_sum", 256, 1e-3)])
def test_one_diagnostics_block_peaks_near_the_byte_budget(preset, n_x, eps_par, monkeypatch):
    # a block of samples, as _samples_per_block sizes it for the modes read
    # (half the lattice when paired, as on wave_t2 and holder_k) and the
    # off-band modes read (eps_par > 0), holds between half of _BLOCK_BYTES
    # and 10% over it.  It takes the band samples a solve keeps
    import tracemalloc

    cfg = {"command": "solve", "schema_version": "1", "preset": preset, "seed": 3,
           "n_lattice": n_x}
    _, params, problem = runner._solve_setup(runner.validate_config(cfg))
    paired = solver.pairs_modes(problem.coeffs, problem.g)
    assert paired == (preset in ("wave_t2", "holder_k"))
    gen = solver.TruncatedGenerator(problem.coeffs, n_x, (1.0 / float(params.ell),), eps_par,
                                    paired)
    (_, index), = gen.segments
    times = np.linspace(0.0, 0.2, 400)
    res = solver.SolveResult(problem=problem, params=params, dt=0.0, per=0, times=times,
                             band=np.tile(problem.g[:, index], (times.size, 1, 1)), steps=0,
                             gen=gen)
    sizes, sized = [], solver._samples_per_block
    monkeypatch.setattr(solver, "_samples_per_block",
                        lambda *args: sizes.append(sized(*args)) or sizes[-1])
    tracemalloc.start()
    try:
        solver._energy_trace(res, 0, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes[0] < times.size
    assert 0.5 * solver._BLOCK_BYTES <= peak <= 1.1 * solver._BLOCK_BYTES


def test_stage_matrices_fit_the_memory_model(monkeypatch):
    # a stepped solve forms every step's stage matrices at once; the solve
    # must hold no more than it asked require_memory for, nor far less.  Each
    # grid step is one sub-step here (C_ACC near 0), so that the 2,016 steps'
    # stage matrices are what the solve holds
    import tracemalloc

    from hypersym.coeffs import cosine_terms

    coeffs = SystemCoefficients(m=2, a_terms=[
        CoeffTerm(0, "1", np.array([[0.0, 1.0], [0.25, 0.0]])),
        *cosine_terms(2, np.array([[0.3, 0.0], [0.0, -0.3]]), "t")],
        b_terms=cosine_terms(1, np.array([[0.0, 0.2], [0.2, 0.0]])))
    problem = solver.CauchyProblem(coeffs, solver.gevrey_data(64, 2, 2.0, 1.5, seed=5),
                                   horizon=0.5)
    params = solver.ParameterSet(rho=0.5, a=1.8, ell=4.0, tau=0.9, T=1.8, c1=0.225,
                                 theta=0, a0=0.5, eps0=0.5, c_spec=0.5)
    needs = []
    monkeypatch.setattr(solver, "require_memory", lambda need, what: needs.append(need))
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 0)  # no word table fits: the band steps
    monkeypatch.setattr(solver, "C_ACC", 1e-12)
    tracemalloc.start()
    try:
        assert solver.solve_cauchy(problem, params, (0.0,), dt=0.5 / 2016).steps == 2016
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need, = needs
    assert 0.8 * need <= peak <= need


# ---------------------------------------------------------------------------
# energy_trace.csv when nu = 0


def test_energy_trace_norms_recompute_from_trajectory_at_nu_zero(tmp_path):
    # with nu = 0 three of the five sigmas coincide; each column must still
    # hold its own sample's norm
    cfg = {"command": "solve", "schema_version": "1", "preset": "xdep", "seed": 0,
           "n_lattice": 128}
    runner.run(dict(cfg), out_dir=str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    meta = json.loads((tmp_path / "trajectory_meta.json").read_text())
    p = summary["params"]
    assert p["nu"] == 0
    traj = np.fromfile(tmp_path / "trajectory.bin", dtype=complex).reshape(meta["shape"])
    rows = (tmp_path / "energy_trace.csv").read_text().splitlines()
    header, table = rows[0].split(","), np.array([[float(x) for x in r.split(",")]
                                                  for r in rows[1:]])
    sigmas = (-0.0, (p["rho"] - 1.0) / 2.0, p["rho"] / 2.0, 0.0, 0.0)
    assert header[4:] == [f"norm_sigma_{s:+.6f}" for s in sigmas]  # -0.000000 first
    times = np.asarray(meta["times"])
    np.testing.assert_array_equal(table[:, 0], times)
    xi = lattice(traj.shape[-1])
    for i, t in enumerate(times):
        v = traj[i] * gevrey_weight(xi, p["T"] - p["a"] * t, p["rho"], p["ell"])[None, :]
        expect = [np.sqrt(np.sum(np.abs(v) ** 2 * bracket(xi, p["ell"]) ** (2.0 * s)))
                  for s in sigmas]
        np.testing.assert_allclose(table[i, 4:], expect, rtol=1e-12)
    assert table[1, 4] != table[0, 4]
