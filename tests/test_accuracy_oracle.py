"""Accuracy of u(T): the solver's final state against an exact reference.

The reference lives on the active band and never calls the solver's
generator: its operator is the dense matrix of ``chi Op(term) chi`` per
coefficient term, built on the oversampled grid of ``kn_reference``, times
the term's time function.  For t-independent coefficients the reference is
``expm(T L) u0`` (scipy, tests only); otherwise it is RK4 at dt/16 on the
same band, whose error is 16^4 times below the solver's.

Tolerance, from the RK4 local error.  The solver's global error is the sum
of its local errors ``l_k = S_dt u(t_k) - u(t_{k+1})``, S_dt one RK4 step,
each carried to T by the exact propagator.  With u the reference trajectory
at the solver's step times, its last sample u_T must satisfy

    |u_T - u(T)| <= 2 G sum_k |l_k|,   G = max_k |u(t_k)| / |u(0)|,

where G stands in for the propagator norms and 2 for their non-normality.
On these inputs the error is 0.38 to 0.40 of the bound.  On holder_k,
whose lacunary path oscillates faster than dt resolves, the local errors
alternate and mostly cancel: the error is 1.5% of a bound of 1.7e-3, loose
enough that a generator off by one part in a thousand still passes there
(the other four cases fail it by factors of 8e4 to 6e6).
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from closed_form import diagonal_transport, wave_t2_operator
from hypersym import runner, solver
from hypersym.coeffs import CoeffTerm, SystemCoefficients, cosine_terms
from hypersym.engine import lattice
from hypersym.weights import smooth_cutoff
from kn_reference import TrigMatrixSymbol, kn_matrix
from support import coeffs_to_json, force_step_path


def _band_operator(coeffs, n_x, h):
    """Band positions (component-major) and (g, K) per coefficient term."""
    xi = lattice(n_x)
    chi = smooth_cutoff(h * xi)
    band = np.flatnonzero(chi > 0)
    rows = np.concatenate([band + r * n_x for r in range(coeffs.m)])
    chi_b = np.tile(chi[band], coeffs.m)
    terms = []
    for c_terms, prof in ((coeffs.a_terms, lambda z: 1j * np.asarray(z, dtype=complex)),
                          (coeffs.b_terms, None)):
        for term in c_terms:
            sym = TrigMatrixSymbol(coeffs.m, ((term.x_freq, term.matrix, prof),))
            k = kn_matrix(sym, n_x)[np.ix_(rows, rows)]
            terms.append((term.g, chi_b[:, None] * k * chi_b[None, :]))
    return rows, terms


def _rk4(op, u, t, d):
    la, lb, lc = op(t), op(t + d / 2.0), op(t + d)
    k1 = la @ u
    k2 = lb @ (u + d / 2.0 * k1)
    k3 = lb @ (u + d / 2.0 * k2)
    k4 = lc @ (u + d * k3)
    return u + d / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("preset,h", [
    ("wave_x2", None), ("jordan_lower", None),
    ("xdep", 1 / 16), ("wave_t2", None), ("holder_k", None),
])
def test_final_state_within_rk4_error_bound(preset, h):
    n_x = 64
    cfg = {"command": "solve", "schema_version": "1", "preset": preset, "seed": 1,
           "n_lattice": n_x}
    _, params, problem = runner._solve_setup(runner.validate_config(cfg))
    h = h or 1.0 / float(params.ell)
    res = solver.solve_cauchy(problem, params, (h,))
    rows, terms = _band_operator(problem.coeffs, n_x, h)
    t_independent = all(np.ptp(g(np.linspace(0.0, 1.0, 5))) == 0 for g, _ in terms)
    assert t_independent == (preset in ("wave_x2", "jordan_lower"))

    def op(t):
        return sum(float(g(t)) * k for g, k in terms)

    big_t, dt = problem.horizon, res.dt
    n_steps = round(big_t / dt)
    u0 = problem.g.reshape(-1)[rows]
    traj = [u0]  # the reference at the solver's step times
    if t_independent:
        lmat = op(0.0)
        prop = scipy.linalg.expm(dt * lmat)
        for _ in range(n_steps):
            traj.append(prop @ traj[-1])
        ref = scipy.linalg.expm(big_t * lmat) @ u0
    else:
        u, fine = u0, dt / 16.0
        for k in range(n_steps * 16):
            u = _rk4(op, u, k * fine, fine)
            if (k + 1) % 16 == 0:
                traj.append(u)
        ref = u
    local = [np.linalg.norm(_rk4(op, v, k * dt, dt) - traj[k + 1])
             for k, v in enumerate(traj[:-1])]
    growth = max(np.linalg.norm(v) for v in traj) / np.linalg.norm(u0)
    tol = 2.0 * growth * sum(local) / np.linalg.norm(ref)
    err = np.linalg.norm(res.lattice_states(0)[-1].reshape(-1)[rows] - ref) / np.linalg.norm(ref)
    assert tol < 1e-2  # a bound that could not catch a wrong generator is no test
    assert err <= tol, (err, tol)
    # eps_par = 0: the modes off the band are the data, exactly
    off = np.setdiff1d(np.arange(n_x * problem.coeffs.m), rows)
    np.testing.assert_array_equal(res.lattice_states(0)[-1].reshape(-1)[off],
                                  problem.g.reshape(-1)[off])


@pytest.mark.parametrize("n_x", [256, 1024])
@pytest.mark.parametrize("h_ell", [0.0, 1.0], ids=["h=0", "h=1/ell"])
def test_jordan_lower_matches_its_exact_solution_operator(n_x, h_ell):
    # jordan_lower is t- and x-independent, so mode xi evolves by e^{tL} with
    # L = chi^2(h xi) [[0, i xi], [1, 0]].  L^2 = chi^4 i xi I, so
    # e^{tL} = cosh(lam t) I + sinh(lam t)/lam L with lam = chi^2 sqrt(i xi),
    # and I + tL where lam = 0.  Every sample is held to it, mode by mode, on
    # the modes whose exact amplitude is a normal double; the worst relative
    # error reads 2.3e-7 (n_lattice 256, h = 0)
    cfg = {"command": "solve", "schema_version": "1", "preset": "jordan_lower", "seed": 3,
           "n_lattice": n_x}
    _, params, problem = runner._solve_setup(runner.validate_config(cfg))
    res = solver.solve_cauchy(problem, params, (h_ell / float(params.ell),))
    xi = lattice(n_x)
    chi2 = smooth_cutoff(h_ell / float(params.ell) * xi) ** 2
    lam, t = chi2 * np.sqrt(1j * xi), res.times[:, None]
    sinhc = np.where(lam == 0, t, np.sinh(lam * t) / np.where(lam == 0, 1.0, lam))
    u0 = problem.g
    exact = np.cosh(lam * t)[:, None] * u0 + sinhc[:, None] * chi2 * np.stack(
        [1j * xi * u0[1], u0[0]])
    amp = np.linalg.norm(exact, axis=1)
    normal = amp >= np.finfo(float).tiny
    err = np.linalg.norm(res.lattice_states(0) - exact, axis=1)
    assert normal.sum() > n_x * t.size // 2
    assert np.max(err[normal] / amp[normal]) <= 1e-6


def test_wave_t2_closed_form_matches_solve_ivp():
    # the Bessel operator against DOP853 at rtol 1e-12, on both unit data, at
    # the solve's sample times and frequencies up to the 256 lattice's top;
    # the worst relative error reads 3.5e-12 (kappa = 127).  Past that the
    # integrator's own error grows: 1.4e-11 at kappa = 512, 1.6e-12 there at
    # rtol 1e-13
    ts = np.linspace(0.0, 0.875, solver.N_SAMPLES + 1)
    for kappa in (0.3, 1.0, -1.0, 25.0, -65.0, 127.0):
        u = wave_t2_operator(kappa, ts)
        for j, e in enumerate(np.eye(2, dtype=complex)):
            ode = solve_ivp(lambda t, v: 1j * kappa * np.array([t**2 * v[1], v[0]]),
                            (0.0, ts[-1]), e, method="DOP853", rtol=1e-12, atol=1e-14,
                            t_eval=ts).y.T
            err = np.linalg.norm(u[:, :, j] - ode, axis=1) / np.linalg.norm(ode, axis=1)
            assert np.max(err) <= 1e-11, (kappa, np.max(err))


@pytest.mark.parametrize("n_x", [256, 1024])
@pytest.mark.parametrize("h_ell", [0.0, 1.0], ids=["h=0", "h=1/ell"])
def test_wave_t2_matches_its_bessel_solution_operator(n_x, h_ell):
    # wave_t2 is x-independent, so mode xi evolves by closed_form's Bessel
    # operator at kappa = chi^2(h xi) xi.  Every sample is held to it, mode by
    # mode, on the modes whose exact amplitude is a normal double.  The grid
    # caps the sub-step near dt Lambda = 0.5, so the top modes err most: the
    # worst relative error reads 3.5e-4 at h = 0 (|xi| 127 at n_lattice 256,
    # 351 at 1024), 2.6e-5 at 256 and 1.4e-7 at 1024 with h = 1/ell
    cfg = {"command": "solve", "schema_version": "1", "preset": "wave_t2", "seed": 3,
           "n_lattice": n_x}
    _, params, problem = runner._solve_setup(runner.validate_config(cfg))
    h = h_ell / float(params.ell)
    res = solver.solve_cauchy(problem, params, (h,))
    xi = lattice(n_x)
    u = wave_t2_operator(smooth_cutoff(h * xi) ** 2 * xi, res.times[:, None])
    exact = np.einsum("bnij,jn->bin", u, problem.g)
    amp = np.linalg.norm(exact, axis=1)
    normal = amp >= np.finfo(float).tiny
    err = np.linalg.norm(res.lattice_states(0) - exact, axis=1)
    assert normal.sum() > n_x * res.times.size // 2
    assert np.max(err[normal] / amp[normal]) <= 1e-3


# The speeds c1 = (1 + 0.5 cos x)(1 + 0.25 t) and c2 = -0.8 + 0.3 cos x of a
# system A = P diag(c1, c2) P^-1, B = 0, solved exactly by characteristics
_SPEEDS = [lambda t, x: (1.0 + 0.5 * np.cos(x)) * (1.0 + 0.25 * t),
           lambda t, x: -0.8 + 0.3 * np.cos(x)]
_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])  # P, so that A = [[c1, c2 - c1], [0, c2]]


def _transport_case(p, n_x, samples):
    """The solve setup of A = P diag(c1, c2) P^-1 at seed 3 and ``n_x``, the
    times of ``samples`` and the exact states there: w = P^-1 u splits into
    the transports of c1 and c2, so u = P w."""
    def conj(d):
        return p @ np.diag(d) @ np.linalg.inv(p)

    terms = [CoeffTerm(0, "1", conj([1.0, -0.8])), *cosine_terms(1, conj([0.5, 0.3])),
             CoeffTerm(0, "t", conj([0.25, 0.0])), *cosine_terms(1, conj([0.125, 0.0]), "t")]
    cfg = {"command": "solve", "schema_version": "1", "seed": 3, "n_lattice": n_x,
           "coeffs": coeffs_to_json(SystemCoefficients(m=2, a_terms=terms))}
    _, params, problem = runner._solve_setup(runner.validate_config(cfg))
    times = problem.horizon * np.array(samples) / solver.N_SAMPLES
    w = diagonal_transport(_SPEEDS, np.linalg.solve(p, problem.g), times)
    return params, problem, times, np.einsum("ij,sjn->sin", p, w)


def _relative_errors(res, samples, exact):
    states = res.lattice_states(0, samples)
    return np.linalg.norm(states - exact, axis=(1, 2)) / np.linalg.norm(exact, axis=(1, 2))


def _check_samples(monkeypatch, p):
    """Hold the solve at h = 0 and n_lattice 256 to the exact states at samples
    16, 32 and 48 on both step paths, to a relative l2 error of 1e-9."""
    samples = [16, 32, 48]
    params, problem, times, exact = _transport_case(p, 256, samples)
    for stepping in (True, False):
        force_step_path(monkeypatch, stepping)
        res = solver.solve_cauchy(problem, params, (0.0,))
        np.testing.assert_allclose(res.times[samples], times, rtol=1e-15)
        err = _relative_errors(res, samples, exact)
        assert np.max(err) <= 1e-9, (stepping, err)


def test_diagonal_x_dependent_system_matches_its_characteristics(monkeypatch):
    # P = I: it reads 1.4e-10, 3.3e-10 and 5.6e-10, the two paths within 6e-15
    _check_samples(monkeypatch, np.eye(2))


def test_non_symmetric_x_dependent_system_matches_its_characteristics(monkeypatch):
    # P = [[1, 1], [0, 1]]: A is not symmetric and forms one 2x2 block.  It
    # reads 1.8e-11, 3.7e-11 and 5.8e-11, the two paths within 3e-14
    _check_samples(monkeypatch, _SHEAR)


def test_non_symmetric_x_dependent_system_converges_spectrally_in_the_lattice():
    # At sample 48 each doubling of n_lattice, 64 -> 128 -> 256, cuts the
    # relative l2 error by a factor of 50 or more (it reads 1.4e-5, 7.5e-9 and
    # 5.8e-11): past the factor 16 that a fourth-order error would give
    errors = []
    for n_x in (64, 128, 256):
        params, problem, _, exact = _transport_case(_SHEAR, n_x, [48])
        res = solver.solve_cauchy(problem, params, (0.0,))
        errors.append(_relative_errors(res, [48], exact)[0])
    assert errors[0] >= 50 * errors[1] >= 2500 * errors[2], errors
