"""The band's sub-steps inside each sample interval.

The time grid (dt, the samples every ``stride`` grid steps) comes from the
whole lattice's stability scale; the band crosses each interval in the
fewest equal sub-steps with h Lambda_band <= C_ACC and h omega_max <= C_ACC,
but never in more than the interval's grid steps.  These tests hold the grid
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
from support import allocating_rhs, capped_params, constant_system, rk4_step

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


def _grid(problem, cutoffs, eps_par=0.0, dt=None, stride=8):
    """(dt, grid steps, sample times) from the lattice's stability scale."""
    gen = solver.TruncatedGenerator(problem.coeffs, problem.g.shape[1], cutoffs, eps_par,
                                    solver.pairs_modes(problem.coeffs, problem.g))
    lam = max(gen.lam_bound(problem.horizon), 1e-12)
    if dt is None:
        dt = min(0.5 / lam, problem.horizon / 8.0)
    n_steps = max(1, math.ceil(problem.horizon / dt))
    dt = problem.horizon / n_steps
    return dt, n_steps, np.union1d(np.arange(0, n_steps + 1, stride), n_steps) * dt


def test_evolve_tasks_keep_the_lattice_grid_and_take_fewer_steps(monkeypatch):
    # every sample time is the lattice grid's, bit for bit; no solve takes
    # more steps than grid steps, and a seed-3 pass at most 3,300 of the
    # 7,102 grid steps; wave_t2 1024, holder_k 256 and study-h keep theirs
    total = 0
    for config in EVOLVE:
        for args, kwargs, res in _solves(config, monkeypatch):
            dt, n_steps, times = _grid(args[0], args[2], kwargs.get("eps_par", 0.0),
                                       kwargs.get("dt"), kwargs.get("stride", 8))
            assert res.dt == dt
            for trace in res.traces:
                np.testing.assert_array_equal(trace.times, times)
            assert res.steps <= n_steps
            keeps = config["preset"] != "xdep" or config["command"] == "study-h"
            assert (res.steps == n_steps) == keeps
            total += res.steps
    assert total <= 3300


def test_an_interval_never_takes_more_sub_steps_than_grid_steps():
    # the schedule tiles each interval from its sample step to the next in
    # equal sub-steps: as many as grid steps where h scale <= C_ACC would ask
    # for more (each then exactly a grid step), else the fewest that meet it
    rng = np.random.default_rng(11)
    coarsened = 0
    for _ in range(300):
        lengths = rng.integers(1, 40, size=6)
        sample_steps = np.concatenate(([0], np.cumsum(lengths)))
        dt, scale = 10.0 ** rng.uniform(-5, -1), 10.0 ** rng.uniform(-1, 4)
        counts, start, size = solver._step_schedule(sample_steps, dt, scale)
        assert np.all((counts >= 1) & (counts <= lengths))
        first = np.concatenate(([0], np.cumsum(counts)))
        for k, length in enumerate(lengths):
            lo, hi = first[k], first[k + 1]
            assert start[lo] == sample_steps[k]
            np.testing.assert_allclose(start[lo + 1:hi], start[lo:hi - 1] + size[lo:hi - 1],
                                       rtol=1e-15)
            assert start[hi - 1] + size[hi - 1] == pytest.approx(sample_steps[k + 1], rel=1e-15)
            if counts[k] == length:
                np.testing.assert_array_equal(start[lo:hi], sample_steps[k] + np.arange(length))
                assert np.all(size[lo:hi] == 1.0)
            else:
                coarsened += 1
                assert size[lo] * dt * scale <= solver.C_ACC * (1 + 1e-12)
            # one sub-step fewer would break h scale <= C_ACC
            assert counts[k] == 1 or length * dt * scale / (counts[k] - 1) > solver.C_ACC
    assert coarsened > 100


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
        np.testing.assert_array_equal(res.states, ref.states)


def test_a_joint_band_takes_the_sub_steps_of_its_widest_cutoff(monkeypatch):
    # h = 1/4 alone takes long sub-steps at n_x 256; beside h = 0 it takes
    # the grid steps that h = 0 needs, and both bands match their own runs
    # forced to one sub-step per grid step (all stepping, as the joint band)
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 0)
    params = capped_params("xdep", 4.0)
    coeffs = get_preset("xdep").coeffs
    prob = solver.CauchyProblem(coeffs, solver.gevrey_data(256, 2, 1.5, 1.5, seed=9),
                                horizon=0.4)
    alone = solver.solve_cauchy(prob, params, (0.25,), track_energy=False)
    joint = solver.solve_cauchy(prob, params, (0.25, 0.0), track_energy=False)
    n_steps = _grid(prob, (0.25,))[1]
    assert alone.steps < n_steps == joint.steps
    monkeypatch.setattr(solver, "C_ACC", 1e-12)
    for i, h in enumerate((0.25, 0.0)):
        one = solver.solve_cauchy(prob, params, (h,), track_energy=False)
        np.testing.assert_array_equal(joint.states[i], one.states[0])


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
    res = solver.solve_cauchy(prob, params, (0.25,), eps_par=eps_par, track_energy=False)
    substeps = solver._substeps
    monkeypatch.setattr(solver, "_substeps", lambda *args: 16 * substeps(*args))
    fine = solver.solve_cauchy(prob, params, (0.25,), eps_par=eps_par, track_energy=False)
    assert fine.steps == 16 * res.steps < 16 * _grid(prob, (0.25,), eps_par)[1]
    gen = solver.TruncatedGenerator(coeffs, n_x, (0.25,), eps_par)
    gen.lam_bound(prob.horizon)
    times = res.traces[0].times
    err = np.linalg.norm((res.states[0] - fine.states[0]).reshape(times.size, -1), axis=1)
    largest = np.max(np.linalg.norm(fine.states[0].reshape(times.size, -1), axis=1))
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
    schedules, schedule = [], solver._step_schedule
    monkeypatch.setattr(solver, "_step_schedule",
                        lambda *args: schedules.append(schedule(*args)) or schedules[-1])
    res = solver.solve_cauchy(prob, capped_params("holder_k", 4.0), (0.25,),
                              track_energy=False)
    (counts, _, size), = schedules
    h = size * res.dt
    assert counts[0] > 1 and res.steps < _grid(prob, (0.25,))[1]
    assert np.all(h * 32.0 <= solver.C_ACC * (1 + 1e-12))


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
    # one interval of 212 grid steps on the whole 256-mode lattice: the block
    # of 213 band states is most of what the solve holds.  What it allocates
    # after its check (the generator, built first to find Lambda, is held
    # already) stays within the bytes it asked require_memory for.
    cfg = runner.validate_config({"command": "solve", "schema_version": "1", "preset": "xdep",
                                  "seed": 3, "n_lattice": 256, "horizon": 0.5})
    _, params, problem = runner._solve_setup(cfg)
    needs = []
    monkeypatch.setattr(solver, "require_memory",
                        lambda need, what: needs.append((need, tracemalloc.get_traced_memory()[0])))
    tracemalloc.start()
    try:
        res = solver.solve_cauchy(problem, params, (0.0,), stride=10**6, track_energy=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (need, held), = needs
    assert res.steps == 212 and res.traces[0].times.size == 2
    assert peak - held <= need


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_names_the_sub_step_that_lost_finiteness(monkeypatch):
    # an elliptic A grows band mode xi like e^{40 |xi| chi^2 t}; data near the
    # top of the double range leaves it inside an interval of long sub-steps.
    # The abort names that sub-step: t its end, last_time its start, as the
    # allocating RK4 over the same sub-steps finds them
    cs = constant_system(40.0 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    prob = solver.CauchyProblem(cs, 1e290 * solver.gevrey_data(256, 2, 2.0, 1.5, seed=18),
                                horizon=1.0)
    schedules, schedule = [], solver._step_schedule
    monkeypatch.setattr(solver, "_step_schedule",
                        lambda *args: schedules.append(schedule(*args)) or schedules[-1])
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 0)  # the band steps, as the reference does
    with pytest.raises(NumericAbortError) as err:
        solver.solve_cauchy(prob, capped_params("xdep", 4.0), (0.25,), stride=64,
                            track_energy=False)
    (counts, start, size), = schedules
    dt = _grid(prob, (0.25,))[0]
    gen = solver.TruncatedGenerator(cs, 256, (0.25,), 0.0)
    (_, index), = gen.segments
    u, k = prob.g[:, index], -1
    while np.isfinite(u).all():
        k += 1
        u = rk4_step(allocating_rhs(gen), u, start[k] * dt, size[k] * dt)
    t = (start[k] + size[k]) * dt
    assert err.value.last_time == t - size[k] * dt
    assert str(err.value) == f"evolution lost finiteness at t = {t:.6g}"
    # inside an interval of long sub-steps, not at its end
    interval = np.searchsorted(np.cumsum(counts), k, side="right")
    assert counts[interval] > 1 and size[k] > 1.0 and k + 1 != np.cumsum(counts)[interval]
