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

from hypersym import runner, solver
from hypersym.engine import lattice
from hypersym.weights import smooth_cutoff
from kn_reference import TrigMatrixSymbol, kn_matrix


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
    res = solver.solve_cauchy(problem, params, (h,), track_energy=False)
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
    err = np.linalg.norm(res.states[0][-1].reshape(-1)[rows] - ref) / np.linalg.norm(ref)
    assert tol < 1e-2  # a bound that could not catch a wrong generator is no test
    assert err <= tol, (err, tol)
    # eps_par = 0: the modes off the band are the data, exactly
    off = np.setdiff1d(np.arange(n_x * problem.coeffs.m), rows)
    np.testing.assert_array_equal(res.states[0][-1].reshape(-1)[off],
                                  problem.g.reshape(-1)[off])
