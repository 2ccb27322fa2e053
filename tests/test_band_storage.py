"""What a solve keeps: the joint band's samples, and lattice states on demand.

A solve stores one (n_samples, m, n_band) array of band states.
``SolveResult.lattice_states`` assembles a cutoff's lattice states from it:
u0 off the band, or u0 e^{-t eps_par xi^2} when eps_par > 0, the band's
samples at their FFT positions and, in a paired solve, the conjugates of
those at their mirrors.  These tests hold the assembly to a reference built
here on the whole lattice, the trajectory file to the assembled states, the
memory a solve holds to its band, and ``need`` to what a solve allocates,
the mollified energy's R path and the parabolic study's blocked reads of
its lattice states included.
No process that calibrates or solves imports ``numpy.ma``.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hypersym import runner, solver
from hypersym.engine import fold_amplitudes, lattice, squared_moduli
from support import coeffs_to_json, constant_system, force_step_path


def _setup(preset, n_x, seed=3):
    cfg = runner.validate_config({"command": "solve", "schema_version": "1", "preset": preset,
                                  "seed": seed, "n_lattice": n_x})
    return runner._solve_setup(cfg)[1:]


def _reference(res, problem, i):
    """Cutoff i's lattice states built on the whole lattice: u0 tiled (moved
    by the off-band generator when its eps_par > 0), the band scattered to
    its FFT positions, the mirrors filled with its conjugates."""
    gen, times, eps = res.gen, res.traces[i].times, res.gen.eps_par[i]
    (seg, index), (cols, mirror) = gen.segments[i], gen.mirrored[i]
    states = np.tile(problem.g, (times.size, 1, 1))
    if eps:
        xi = lattice(problem.g.shape[1])
        states = states * np.exp(-eps * xi**2 * times[:, None, None])
    states[:, :, index] = res.band[:, :, seg]
    states[:, :, mirror] = states[:, :, index[cols]].conj()
    return states


@pytest.mark.parametrize("preset,n_x,h,eps_par", [
    ("wave_t2", 1024, None, 0.0),
    ("xdep", 256, 0.25, 0.0),
    ("xdep", 256, 0.25, 1e-3),
    ("xdep", 256, 0.0, 0.0),
    ("block_direct_sum", 256, None, 0.0),
    ("xdep", 256, (0.25, 0.25), (1e-2, 0.0)),
], ids=["wave_t2-1024-paired", "xdep-256", "xdep-256-eps", "xdep-256-h0", "block_direct_sum-256",
        "xdep-256-joint-eps"])
def test_lattice_states_equal_the_full_lattice_reference(preset, n_x, h, eps_par):
    # h a tuple: the cases of one joint solve, each cutoff with its own eps_par
    params, problem = _setup(preset, n_x)
    h = 1.0 / float(params.ell) if h is None else h
    cutoffs = h if isinstance(h, tuple) else (h,)
    res = solver.solve_cauchy(problem, params, cutoffs, eps_par=eps_par)
    assert res.gen.paired == (preset == "wave_t2")
    assert res.band.shape == (res.traces[0].times.size, problem.coeffs.m, res.gen.xi.size)
    for i, eps in enumerate(res.gen.eps_par):
        states = res.lattice_states(i)
        np.testing.assert_array_equal(states, _reference(res, problem, i))
        # a block of samples is the same slice of the whole
        np.testing.assert_array_equal(res.lattice_states(i, slice(3, 7)), states[3:7])
        if eps:  # the off-band modes move
            off = np.setdiff1d(np.arange(n_x), res.gen.segments[i][1])
            assert not np.array_equal(states[-1][:, off], problem.g[:, off])
        if len(cutoffs) > 1:
            # each case's band evolves as its own solve's on the same grid and
            # sub-steps, bit for bit: its heat term and no other case's
            one = solver.solve_cauchy(problem, params, (cutoffs[i],), eps_par=eps, dt=res.dt)
            assert (one.dt, one.steps) == (res.dt, res.steps)
            np.testing.assert_array_equal(states, one.lattice_states(0))
            for field in ("norms", "gevrey_c", "e_r_raw"):
                np.testing.assert_array_equal(getattr(res.traces[i], field),
                                              getattr(one.traces[0], field))


def test_trajectory_file_is_the_assembled_states_in_blocks(tmp_path, monkeypatch):
    # blocks of two samples: the file is every sample, in order, as the
    # accessor assembles them, and its meta names their shape.  The 8 KiB
    # budget leaves xdep's band no word table, so it steps; the second case
    # forces the propagators, and only it builds them
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 2 * 16 * 2 * 128)
    built, start = [], solver.BandPropagator.start
    monkeypatch.setattr(solver.BandPropagator, "start",
                        lambda self, t, h: built.append(self) or start(self, t, h))
    cfg = {"command": "solve", "schema_version": "1", "preset": "xdep", "seed": 3,
           "n_lattice": 128, "eps_par": 1e-3}
    params, problem = _setup("xdep", 128)
    for propagators in (False, True):
        with monkeypatch.context() as patch:
            if propagators:
                force_step_path(patch, False)
            out = tmp_path / str(propagators)
            runner.run(dict(cfg), out_dir=str(out))
            res = solver.solve_cauchy(problem, params, (1.0 / float(params.ell),), eps_par=1e-3)
        meta = json.loads((out / "trajectory_meta.json").read_text())
        traj = np.fromfile(out / "trajectory.bin", dtype=complex)
        states = res.lattice_states(0)
        assert meta["shape"] == list(states.shape) and states.shape[0] % 2 == 1
        np.testing.assert_array_equal(traj.reshape(meta["shape"]), states)
        assert bool(built) == propagators


def _traced(monkeypatch, run):
    """(result, traced peak, checks) of ``run()``: the peak over it, and per
    memory check of the solver the bytes it asked for, the bytes held at it
    and the traced peak from it to the next check or the end."""
    checks, peaks = [], []

    def check(need, what):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        checks.append((need, tracemalloc.get_traced_memory()[0]))

    monkeypatch.setattr(solver, "require_memory", check)
    tracemalloc.start()
    try:
        res = run()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return res, max(peaks), [(need, held, peak) for (need, held), peak in zip(checks, peaks[1:])]


def _traced_solve(monkeypatch, problem, params, cutoffs, **kwargs):
    """:func:`_traced` of a solve and of its traces, which are diagnosed when
    read."""

    def run():
        res = solver.solve_cauchy(problem, params, cutoffs, **kwargs)
        res.traces  # diagnosed here, inside the traced region
        return res

    return _traced(monkeypatch, run)


def test_a_wide_lattice_solve_holds_its_band_not_its_lattice(monkeypatch):
    # xdep at n_lattice 4096 evolves 7 modes over N_SAMPLES + 1 samples; a
    # lattice state a sample would hold 6 MiB
    params, problem = _setup("xdep", 4096)
    res, peak, [(need, _, _)] = _traced_solve(monkeypatch, problem, params,
                                              (1.0 / float(params.ell),))
    assert res.band.shape == (solver.N_SAMPLES + 1, 2, 7)
    assert peak < 8 * 2**20 and need < 8 * 2**20


@pytest.mark.parametrize("n_x", [256, 1024, 4096])
def test_every_lattice_takes_the_same_sample_times(n_x, tmp_path):
    # the samples are the N_SAMPLES + 1 times k horizon / N_SAMPLES whatever
    # the lattice, and the trajectory file holds one lattice state each
    cfg = {"command": "solve", "schema_version": "1", "preset": "xdep", "seed": 3,
           "n_lattice": n_x}
    status, summary = runner.run(dict(cfg), out_dir=str(tmp_path))
    assert status == 0
    meta = json.loads((tmp_path / "trajectory_meta.json").read_text())
    assert meta["shape"] == [solver.N_SAMPLES + 1, 2, n_x]
    times = np.asarray(meta["times"])
    np.testing.assert_allclose(times, np.linspace(0.0, summary["horizon"], solver.N_SAMPLES + 1),
                               rtol=1e-14, atol=0.0)
    assert (tmp_path / "trajectory.bin").stat().st_size == 16 * (solver.N_SAMPLES + 1) * 2 * n_x


def test_memory_check_counts_the_fixed_costs(monkeypatch):
    # on a band of 7 modes the samples are small, and what the solve
    # allocates after its check is mostly the fixed costs: the word table as
    # it is built, a chunk of propagators and a diagnostics block.  need
    # covers it, and is not pessimistic by more than 3x
    params, problem = _setup("xdep", 1024)
    res, peak, [(need, held, _)] = _traced_solve(monkeypatch, problem, params, (0.25,))
    assert res.band.shape == (solver.N_SAMPLES + 1, 2, 7)
    assert peak - held <= need <= 3 * (peak - held)


def test_memory_check_charges_every_case_of_a_joint_solve(monkeypatch):
    # study-parabolic's one solve: six cases of one h, each eps of the default
    # list and its half, whose bands of 7 modes make one of 47.  need charges
    # the joint band, its word table and every case's diagnostics at once
    params, problem = _setup("xdep", 1024)
    h, eps = 1.0 / float(params.ell), [1e-2, 1e-3, 1e-4, 5e-3, 5e-4, 5e-5]
    _, _, [(alone, _, _)] = _traced_solve(monkeypatch, problem, params, (h,), eps_par=eps[0])
    res, peak, [(need, held, _)] = _traced_solve(monkeypatch, problem, params, (h,) * 6,
                                                 eps_par=eps)
    assert res.band.shape == (solver.N_SAMPLES + 1, 2, 47)
    assert alone < need and peak - held <= need <= 3 * (peak - held)


@pytest.mark.parametrize("n_x", [256, 1024])
def test_memory_check_counts_the_mollified_path(monkeypatch, n_x):
    # in Hoelder mode the diagnostics solve R at every time of the mollifier's
    # path, whose step follows the lattice's narrowest kernel width, over the
    # band: 651 times 16 nodes at n_lattice 256, 2,579 at 1024.  They hold a
    # ring of a window and a chunk of those times, not the path, and charge
    # it with a chunk's solve or a block of samples; the solve's own check
    # covers the evolution before it
    params, problem = _setup("holder_k", n_x)
    res, _, checks = _traced_solve(monkeypatch, problem, params, (1.0 / float(params.ell),))
    assert res.traces[0].er_mode == "mollified"
    assert len(checks) == 2
    for need, held, peak in checks:
        assert peak - held <= need <= 3 * (peak - held)
    need, held, peak = checks[1]
    assert peak - held <= 1.5 * 2**20


def test_study_parabolic_reads_its_lattice_states_in_blocks(monkeypatch):
    # at n_lattice 2^16 a lattice state takes 2 MiB, and a case's samples 98
    # MiB.  The study holds one pair's final states, or one block of a case's
    # states, at a time, so what it allocates from the solve's memory check
    # on stays within that check's need
    params, problem = _setup("xdep", 2**16)
    study, _, [(need, held, peak)] = _traced(
        monkeypatch, lambda: solver.parabolic_study(problem, params, [1e-2, 1e-3, 1e-4]))
    assert len(study.sup_norms) == 3
    assert peak - held <= need


@pytest.mark.parametrize("system", [{"preset": "xdep"}, {"preset": "block_direct_sum"},
                                    {"coeffs": coeffs_to_json(constant_system(
                                        np.diag(np.arange(8) - 4.25)))}],
                         ids=["xdep", "block_direct_sum", "inline_m8"])
def test_setup_memory_check_counts_the_data_and_its_radius_fit(monkeypatch, system):
    # before anything is calibrated a setup charges 20 m + 24 bytes a lattice
    # mode.  gevrey_data forms its phases and mirror in its output, and the
    # squared amplitudes are summed without a temporary, so the setup peaks
    # near 20 m + 18 at every m, and the data with the t = 0 radius fit over
    # them near 16 m + 16: the charge covers both and is at most 1.3 times
    # the larger (1.16 at m = 1, 1.03 at m = 8, on eight constant speeds)
    n_x, needs = 2**16, []
    cfg = runner.validate_config({"command": "solve", "schema_version": "1", **system,
                                  "seed": 3, "n_lattice": n_x})
    monkeypatch.setattr(runner, "require_memory", lambda need, what: needs.append(need))
    runner._solve_setup(cfg)  # a first setup's fixed allocations stay out of the count
    tracemalloc.start()
    try:
        problem = runner._solve_setup(cfg)[2]
        setup = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solver.gevrey_radius_fit(fold_amplitudes(squared_moduli(problem.g)), problem.gevrey_s)
        peak = max(setup, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert needs[-1] == (20 * problem.coeffs.m + 24) * n_x
    assert peak <= needs[-1] <= 1.3 * peak


def test_no_command_imports_numpy_ma():
    # numpy.ma costs every process that loads it about 10 ms and 1 MiB; it
    # comes in through np.unique and the set routines built on it
    script = """
import sys, tempfile
from hypersym import runner
for cfg in [{"command": "certify", "preset": "block_direct_sum"},
            {"command": "theta", "preset": "wave_t2"}, {"command": "nuij", "seed": 0},
            {"command": "symmetrize", "preset": "block_direct_sum"},
            {"command": "solve", "preset": "xdep", "seed": 0, "n_lattice": 64, "eps_par": 1e-3},
            {"command": "study-h", "preset": "xdep", "seed": 0},
            {"command": "study-parabolic", "preset": "xdep", "seed": 0}]:
    with tempfile.TemporaryDirectory() as out:
        runner.run(dict(cfg, schema_version="1"), out)
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"
