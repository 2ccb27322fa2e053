"""The band's sub-steps inside each sample interval.

The time grid comes from the whole lattice's stability scale: dt, its
step count rounded up to a multiple of N_SAMPLES, and a sample every ``per``
grid steps.  The band crosses each interval in the fewest equal sub-steps
with h Lambda_band <= C_ACC and h omega_max <= C_ACC, but never in more than
the interval's grid steps.  These tests hold the grid
to the lattice's formula, the rule to its bounds, the runs that keep their
grid steps to a run forced to one sub-step per grid step, bit for bit, and
the runs that take longer sub-steps to a run at 1/16 of the sub-step, within
the target ``Lambda_band t C_ACC^4 / 120`` that C_ACC was derived from.
"""

import importlib.util
import math
import os
import tracemalloc

import numpy as np
import pytest

from hypersym import runner, solver
from hypersym.coeffs import CoeffTerm, SystemCoefficients
from hypersym.errors import NumericAbortError
from hypersym.presets import get_preset
from support import allocating_rhs, capped_params, constant_system, force_step_path, rk4_step

_spec = importlib.util.spec_from_file_location(
    "perfbench_tasks", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "perfbench", "tasks.py"))
tasks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tasks)
EVOLVE = tasks.timed_tasks("evolve", 3)


def _solves(config, monkeypatch):
    """[(args, kwargs, result)] of every solve_cauchy call of one command."""
    calls, solve = [], solver.solve_cauchy

    def recording(*args, **kwargs):
        calls.append((args, kwargs, solve(*args, **kwargs)))
        return calls[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "solve_cauchy", recording)
        status, _ = runner.run(dict(config, schema_version="1"))
    assert status == 0
    return calls


def _grid(problem, cutoffs, eps_par=0.0, dt=None):
    """(dt, grid steps, sample times) from the lattice's stability scale."""
    gen = solver.TruncatedGenerator(problem.coeffs, problem.g.shape[1], cutoffs, eps_par,
                                    solver.pairs_modes(problem.coeffs, problem.g))
    lam = max(gen.lam_bound(problem.horizon), 1e-12)
    if dt is None:
        dt = min(0.5 / lam, problem.horizon / 8.0)
    per = math.ceil(max(1, math.ceil(problem.horizon / dt)) / solver.N_SAMPLES)
    n_steps = per * solver.N_SAMPLES
    dt = problem.horizon / n_steps
    return dt, n_steps, np.arange(0, n_steps + 1, per) * dt


# The step path and band modes of each seed-3 evolve task's one solve, in
# the order of EVOLVE: the propagators on every band but study-h's joint one
_EVOLVE_PATHS = [(solver.BandPropagator, 7), (solver.BandPropagator, 7),
                 (solver.BandPropagator, 128), (solver.BandPropagator, 16),
                 (solver.BandPropagator, 47), (solver.RK4Stepping, 640)]


def test_evolve_tasks_keep_the_lattice_grid_and_take_fewer_steps(monkeypatch):
    # every sample time is the lattice grid's, bit for bit; no solve takes
    # more steps than grid steps, and a seed-3 pass at most 3,200 of the
    # 7,392 grid steps; wave_t2 1024, holder_k 256 and study-h keep theirs.
    # Each task takes the step path of _EVOLVE_PATHS
    total = 0
    for config, (path, n_band) in zip(EVOLVE, _EVOLVE_PATHS, strict=True):
        (args, kwargs, res), = _solves(config, monkeypatch)
        assert type(solver.step_path(res.gen)) is path and res.gen.xi.size == n_band
        dt, n_steps, times = _grid(args[0], args[2], kwargs.get("eps_par", 0.0), kwargs.get("dt"))
        assert res.dt == dt
        for trace in res.traces:
            np.testing.assert_array_equal(trace.times, times)
        assert res.steps <= n_steps
        keeps = config["preset"] != "xdep" or config["command"] == "study-h"
        assert (res.steps == n_steps) == keeps
        total += res.steps
    assert total <= 3200


def test_an_interval_never_takes_more_sub_steps_than_grid_steps():
    # an interval of per grid steps takes equal sub-steps: as many as grid
    # steps where h scale <= C_ACC would ask for more (each then exactly a
    # grid step), else the fewest that meet it
    rng = np.random.default_rng(11)
    coarsened = 0
    for _ in range(2000):
        per = int(rng.integers(1, 40))
        dt, scale = 10.0 ** rng.uniform(-5, -1), 10.0 ** rng.uniform(-1, 4)
        count = solver._substeps(per, dt, scale)
        assert isinstance(count, int) and 1 <= count <= per
        if count < per:
            coarsened += 1
            assert per / count * dt * scale <= solver.C_ACC * (1 + 1e-12)
        # one sub-step fewer would break h scale <= C_ACC
        assert count == 1 or per * dt * scale / (count - 1) > solver.C_ACC
    assert coarsened > 300


_XDEP_H0 = {"command": "solve", "preset": "xdep", "seed": 3, "n_lattice": 256, "h": 0.0}


@pytest.mark.parametrize("config", [_XDEP_H0, EVOLVE[2], EVOLVE[3], EVOLVE[5]],
                         ids=["xdep-h0", "wave_t2-1024", "holder_k-256", "study-h"])
def test_grid_bound_solves_match_one_sub_step_per_grid_step(config, monkeypatch):
    # where the rule asks for at least the grid steps (h = 0, wave_t2 1024,
    # holder_k 256 under its omega_max, study-h's joint band up to
    # |xi| = n_x/2), every state is the one of a run forced to one sub-step
    # per grid step (C_ACC near 0), bit for bit
    runs = _solves(config, monkeypatch)
    monkeypatch.setattr(solver, "C_ACC", 1e-12)
    forced = _solves(config, monkeypatch)
    for (args, kwargs, res), (_, _, ref) in zip(runs, forced, strict=True):
        assert res.steps == ref.steps == _grid(args[0], args[2], kwargs.get("eps_par", 0.0),
                                                kwargs.get("dt"))[1]
        for i in range(len(res.traces)):
            np.testing.assert_array_equal(res.lattice_states(i), ref.lattice_states(i))


def test_a_joint_band_takes_the_sub_steps_of_its_widest_cutoff(monkeypatch):
    # h = 1/4 alone takes long sub-steps at n_x 256; beside h = 0 it takes
    # the grid steps that h = 0 needs, and both bands match their own runs
    # forced to one sub-step per grid step (all stepping, as the joint band)
    force_step_path(monkeypatch, True)
    params = capped_params("xdep", 4.0)
    coeffs = get_preset("xdep").coeffs
    prob = solver.CauchyProblem(coeffs, solver.gevrey_data(256, 2, 1.5, 1.5, seed=9),
                                horizon=0.4)
    alone = solver.solve_cauchy(prob, params, (0.25,))
    joint = solver.solve_cauchy(prob, params, (0.25, 0.0))
    n_steps = _grid(prob, (0.25,))[1]
    assert alone.steps < n_steps == joint.steps
    monkeypatch.setattr(solver, "C_ACC", 1e-12)
    for i, h in enumerate((0.25, 0.0)):
        one = solver.solve_cauchy(prob, params, (h,))
        np.testing.assert_array_equal(joint.lattice_states(i), one.lattice_states(0))


@pytest.mark.parametrize("preset", ["xdep", "diag_sym", "block_direct_sum", "wave_x2"])
@pytest.mark.parametrize("n_x", [256, 1024])
@pytest.mark.parametrize("eps_par", [0.0, 1e-3])
def test_band_sub_steps_meet_the_accuracy_target(preset, n_x, eps_par, monkeypatch):
    # h = 1/4 (7 band modes): against a run at 1/16 of each sub-step, every
    # sample is within Lambda_band t C_ACC^4 / 120 of the finer run's
    # largest l2 norm: RK4's error per radian the fastest band mode turns,
    # over the radians run by t.  The finer run's own error is 16^4 smaller.
    coeffs = get_preset(preset).coeffs
    prob = solver.CauchyProblem(coeffs, solver.gevrey_data(n_x, coeffs.m, 1.5, 1.5, seed=9),
                                horizon=0.4)
    params = capped_params(preset, 4.0)
    res = solver.solve_cauchy(prob, params, (0.25,), eps_par=eps_par)
    substeps = solver._substeps
    monkeypatch.setattr(solver, "_substeps", lambda *args: 16 * substeps(*args))
    fine = solver.solve_cauchy(prob, params, (0.25,), eps_par=eps_par)
    assert fine.steps == 16 * res.steps < 16 * _grid(prob, (0.25,), eps_par)[1]
    gen = solver.TruncatedGenerator(coeffs, n_x, (0.25,), eps_par)
    gen.lam_bound(prob.horizon)
    times = res.traces[0].times
    states, ref = res.lattice_states(0), fine.lattice_states(0)
    err = np.linalg.norm((states - ref).reshape(times.size, -1), axis=1)
    largest = np.max(np.linalg.norm(ref.reshape(times.size, -1), axis=1))
    assert np.all(err <= gen.lam_band * times * solver.C_ACC**4 / 120.0 * largest)


def test_a_lacunary_term_on_a_narrow_band_sets_the_sub_step(monkeypatch):
    # holder_k's system with lacunary(0.5, 6) (omega_max 32) on the band
    # |xi| < 4 of 1024 modes: Lambda_band alone would take one sub-step an
    # interval, h omega_max = 0.23; the sub-steps keep h omega_max <= C_ACC
    coeffs = SystemCoefficients(m=2, a_terms=[
        CoeffTerm(0, "1", np.array([[0.0, 1.0], [1.0, 0.0]])),
        CoeffTerm(0, "lacunary(0.5,6)", np.array([[0.0, 0.1], [0.0, 0.0]]))])
    prob = solver.CauchyProblem(coeffs, solver.gevrey_data(1024, 2, 1.5, 1.5, seed=9),
                                horizon=0.2)
    counts, substeps = [], solver._substeps
    monkeypatch.setattr(solver, "_substeps",
                        lambda *args: counts.append(substeps(*args)) or counts[-1])
    res = solver.solve_cauchy(prob, capped_params("holder_k", 4.0), (0.25,))
    count, = counts
    h = res.per / count * res.dt
    assert count > 1 and res.steps < _grid(prob, (0.25,))[1]
    assert h * 32.0 <= solver.C_ACC * (1 + 1e-12)


def test_band_scale_is_the_widest_cutoffs_and_bounds_the_band_generator():
    # Lambda_band bounds ||L(t)||_2 of the dense band generator at every t,
    # within a factor of 2.5 on these systems (the presets, and one whose B
    # outweighs A on the band); a joint band takes the scale of its widest
    # cutoff
    from hypersym.presets import preset_names

    damped = constant_system(0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]), -5.0 * np.eye(2))
    for coeffs in [get_preset(name).coeffs for name in preset_names()] + [damped]:
        scales = {}
        for cutoffs in ((0.25,), (1 / 16,), (0.25, 1 / 16)):
            gen = solver.TruncatedGenerator(coeffs, 64, cutoffs, 1e-2)
            lam = gen.lam_bound(0.5)
            scales[cutoffs] = gen.lam_band
            assert gen.lam_band < lam
            rhs, unit = allocating_rhs(gen), np.eye(coeffs.m * gen.xi.size, dtype=complex)
            norm = max(np.linalg.norm(np.stack([rhs(t, e.reshape(coeffs.m, -1)).ravel()
                                                for e in unit], axis=1), 2)
                       for t in np.linspace(0.0, 0.5, 5))
            assert gen.lam_band / 2.5 <= norm <= gen.lam_band
        assert scales[(0.25, 1 / 16)] == scales[(1 / 16,)] > scales[(0.25,)]


def test_memory_check_covers_the_interval_block(monkeypatch):
    # two stepped bands, each the whole lattice (h = 0): one interval
    # (N_SAMPLES = 1) of 212 grid steps at 256 modes, where the block of 213
    # band states is most of what the solve holds, and 48 intervals of 33
    # sub-steps at 1024 modes, where the 1,584 sub-steps' stage matrices
    # are.  What each allocates after its check (the generator, built first
    # to find Lambda, is held already) stays within the bytes it asked
    # require_memory for, and that is not pessimistic by more than 3x
    for n_x, n_samples, horizon, steps in ((256, 1, {"horizon": 0.5}, 212),
                                           (1024, solver.N_SAMPLES, {}, 1584)):
        cfg = runner.validate_config({"command": "solve", "schema_version": "1",
                                      "preset": "xdep", "seed": 3, "n_lattice": n_x, **horizon})
        _, params, problem = runner._solve_setup(cfg)
        needs = []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "N_SAMPLES", n_samples)
            patch.setattr(solver, "require_memory", lambda need, what: needs.append(
                (need, tracemalloc.get_traced_memory()[0])))
            tracemalloc.start()
            try:
                res = solver.solve_cauchy(problem, params, (0.0,))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.steps == steps and res.traces[0].times.size == n_samples + 1
        (need, held), = needs
        assert isinstance(solver.step_path(res.gen), solver.RK4Stepping)
        assert peak - held <= need <= 3 * (peak - held)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_names_the_sub_step_that_lost_finiteness(monkeypatch):
    # an elliptic A grows band mode xi like e^{40 |xi| chi^2 t}; data near the
    # top of the double range leaves it inside an interval of long sub-steps.
    # The abort names that sub-step: t its end, last_time its start, as the
    # allocating RK4 over the same sub-steps finds them
    cs = constant_system(40.0 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    prob = solver.CauchyProblem(cs, 1e290 * solver.gevrey_data(256, 2, 2.0, 1.5, seed=18),
                                horizon=1.0)
    counts, substeps = [], solver._substeps
    monkeypatch.setattr(solver, "_substeps",
                        lambda *args: counts.append(substeps(*args)) or counts[-1])
    force_step_path(monkeypatch, True)  # the band steps, as the reference does
    with pytest.raises(NumericAbortError) as err:
        solver.solve_cauchy(prob, capped_params("xdep", 4.0), (0.25,))
    count, = counts
    dt, n_steps, _ = _grid(prob, (0.25,))
    per = n_steps // solver.N_SAMPLES
    # sub-step i of interval j starts j per + i size grid steps in
    size = per / count
    start = (np.arange(solver.N_SAMPLES, dtype=float)[:, None] * per
             + np.arange(count) * size).ravel()
    gen = solver.TruncatedGenerator(cs, 256, (0.25,), 0.0)
    (_, index), = gen.segments
    u, k = prob.g[:, index], -1
    while np.isfinite(u).all():
        k += 1
        u = rk4_step(allocating_rhs(gen), u, start[k] * dt, size * dt)
    t = (start[k] + size) * dt
    assert err.value.last_time == t - size * dt
    assert str(err.value) == f"evolution lost finiteness at t = {t:.6g}"
    # inside an interval of long sub-steps, not at its end
    assert count > 1 and size > 1.0 and (k + 1) % count != 0
