"""Mirror pairing on real systems.

A real system has H_N(t, x, -xi) = -conj H_N(t, x, xi), so the barometer
reads xi = +1 alone.  An x-independent real system also evolves each mode
alone, and a solve of conjugate-symmetric data evolves each band's xi >= 0
and sets -xi to their conjugates, with R(-xi) = conj R(xi).  Each check here
holds the paired result to the unpaired computation.
"""

from dataclasses import replace

import numpy as np
import pytest

from hypersym.coeffs import CoeffTerm, SystemCoefficients
from hypersym.engine import fold_amplitudes, lattice, squared_moduli
from hypersym.matkernel import _THETA_XI, _growth_curves, taylor_order
from hypersym.presets import get_preset, preset_names
from hypersym.solver import (CauchyProblem, TruncatedGenerator, gevrey_data,
                             gevrey_radius_fit, pairs_modes, solve_cauchy)
from hypersym.symmetrizer import _lyap_solve_batch, damped_generator
from hypersym.weights import bracket, gevrey_weight
from support import capped_params, mollify_path_reference, sine_terms

_S = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_is_real_valued(name):
    coeffs = get_preset(name).coeffs
    assert coeffs.real_valued
    # its matrices are real too, so the generator holds one real field for A
    # and one for B, and steps in real arithmetic
    gen = TruncatedGenerator(coeffs, 64, (0.0,), 0.0)
    fields = bool(coeffs.a_terms) + bool(coeffs.b_terms)
    assert gen.term_matrices.dtype == np.float64
    assert gen.term_matrices.shape[1:] == (coeffs.m, fields * coeffs.m * (2 * coeffs.x_band + 1))


def test_sine_pair_is_real_valued():
    # i/2 S e^{-2ix} - i/2 S e^{2ix} = S sin 2x: the matrices are conjugates
    assert SystemCoefficients(m=2, a_terms=[CoeffTerm(0, "1", _S), *sine_terms(2, _S)]).real_valued


_NOT_REAL = {
    "complex-k0": [CoeffTerm(0, "1", np.array([[1.0, 1j], [-1j, -1.0]]))],
    "unpaired-harmonic": [CoeffTerm(0, "1", _S), CoeffTerm(1, "1", 0.5 * _S)],
    "unequal-pair": [CoeffTerm(1, "1", 0.5 * _S), CoeffTerm(-1, "1", 0.4 * _S)],
    "time-terms-differ": [CoeffTerm(1, "t", 0.5 * _S), CoeffTerm(-1, "1", 0.5 * _S)],
}


@pytest.mark.parametrize("kind", list(_NOT_REAL))
def test_real_valued_refuses_a_complex_field(kind):
    assert not SystemCoefficients(m=2, a_terms=_NOT_REAL[kind]).real_valued
    assert not SystemCoefficients(m=2, a_terms=[CoeffTerm(0, "1", _S)],
                                  b_terms=_NOT_REAL[kind]).real_valued


@pytest.mark.parametrize("name", preset_names())
def test_barometer_at_plus_one_reads_both_signs(name):
    preset = get_preset(name)
    coeffs = preset.coeffs
    args = (coeffs, taylor_order(preset.theta, coeffs.m), np.geomspace(1e-3, 1e-1, 7),
            np.linspace(0.0, 1.0, 4), np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False))
    both = _growth_curves(*args, _THETA_XI, 1.0)
    one = _growth_curves(*args, (1.0,), 1.0)
    for b, o in zip(both, one):
        assert np.all(np.abs(o - b) <= 1e-15 * np.abs(b))


# (preset, n_x, h, eps_par).  At n_x 128 both solves take propagators; at
# 1152, wave_t2's whole lattice steps, paired or not.
_CASES = [(name, 128, h, eps_par) for name in ("jordan_lower", "wave_t2", "holder_k")
          for h in (0.0, 1 / 16) for eps_par in (0.0, 1e-3)] + [("wave_t2", 1152, 0.0, 0.0)]


@pytest.mark.parametrize("name,n_x,h,eps_par", _CASES)
def test_paired_solve_matches_unpaired(name, n_x, h, eps_par):
    coeffs = get_preset(name).coeffs
    prob = CauchyProblem(coeffs, gevrey_data(n_x, coeffs.m, 1.5, 1.5, seed=23), horizon=0.3)
    params = capped_params(name, 16.0)
    assert pairs_modes(coeffs, prob.g)
    res = solve_cauchy(prob, params, (h,), eps_par=eps_par)
    states, trace = res.lattice_states(0), res.traces[0]
    # the xi < 0 states are exact conjugates of their mirrors; -n_x/2 has none
    pos = np.arange(1, n_x // 2)
    np.testing.assert_array_equal(states[:, :, n_x - pos], states[:, :, pos].conj())

    # scaling mode -3, in every band, leaves the data unpaired; that solve
    # evolves every band mode, and all but mode -3 come out the same
    g = prob.g.copy()
    g[:, n_x - 3] *= 1.0 + 1e-3
    assert not pairs_modes(coeffs, g)
    other = solve_cauchy(replace(prob, g=g), params, (h,), eps_par=eps_par)
    kept = np.arange(n_x) != n_x - 3
    np.testing.assert_array_equal(other.lattice_states(0)[:, :, kept], states[:, :, kept])
    # mode -3 evolves alone and linearly, from its own scaled data
    np.testing.assert_allclose(other.lattice_states(0)[:, :, n_x - 3],
                               (1.0 + 1e-3) * states[:, :, 3].conj(), rtol=1e-12, atol=0.0)

    # the R-energy: R solved at every band node, and I/2 off the band
    assert trace.er_mode == "multiplier"
    gen = TruncatedGenerator(coeffs, n_x, (h,), eps_par)
    (_, index), = gen.segments
    off = np.setdiff1d(np.arange(n_x), index)
    big_t, a = float(params.T), float(params.a)
    for t, u, e_r in zip(trace.times, states, trace.e_r_raw):
        v = u * gevrey_weight(lattice(n_x), big_t - a * t, float(params.rho), float(params.ell))
        r = _lyap_solve_batch(*damped_generator(coeffs, replace(params, tau=big_t - a * t),
                                                t, 0.0, gen.xi, gen.chi**2), coeffs.blocks)
        expect = (np.real(np.einsum("ck,kcd,dk->", v[:, index].conj(), r, v[:, index]))
                  + 0.5 * np.sum(np.abs(v[:, off]) ** 2))
        assert abs(e_r - expect) <= 1e-13 * abs(expect)


@pytest.mark.parametrize("name,h,eps_par", [case[0:1] + case[2:] for case in _CASES[:12]])
def test_paired_diagnostics_match_the_whole_lattice(name, h, eps_par):
    # a paired solve reads FFT positions 0 .. n_x/2 alone, each xi > 0 twice;
    # the reference reads the solve's own mirrored states on every mode, with
    # R solved at every band node of both signs.  Mode -n_x/2, its own mirror,
    # holds data, so that counting it twice would show at h = 0.
    n_x, s = 128, 1.5
    coeffs = get_preset(name).coeffs
    g = gevrey_data(n_x, coeffs.m, s, 1.5, seed=23)
    g[:, n_x // 2] = 1e-3
    prob = CauchyProblem(coeffs, g, horizon=0.3, gevrey_s=s, gevrey_c0=1.5)
    params = capped_params(name, 16.0)
    if name == "holder_k":
        params = replace(params, delta=1.0)
    assert pairs_modes(coeffs, g)
    res = solve_cauchy(prob, params, (h,), eps_par=eps_par)
    trace, states = res.traces[0], res.lattice_states(0)
    assert trace.er_mode == ("mollified" if name == "holder_k" else "multiplier")

    xi = lattice(n_x)
    big_t, a, rho, ell = (float(params.T), float(params.a), float(params.rho),
                          float(params.ell))
    v = states * gevrey_weight(xi, big_t - a * trace.times[:, None], rho, ell)[:, None, :]
    sigmas = np.asarray(trace.sigmas)
    norms = np.sqrt(np.sum(np.abs(v[:, :, :, None]) ** 2 * bracket(xi, ell)[:, None]
                           ** (2.0 * sigmas), axis=(1, 2)))
    gen = TruncatedGenerator(coeffs, n_x, (h,), eps_par)  # unpaired: the whole band
    (_, index), = gen.segments
    off = np.setdiff1d(np.arange(n_x), index)

    def r_at(t):
        return _lyap_solve_batch(*damped_generator(coeffs, replace(params, tau=big_t - a * t),
                                                   t, 0.0, gen.xi, gen.chi**2), coeffs.blocks)

    if trace.er_mode == "mollified":
        widths = bracket(xi, ell) ** -1.0
        step, pad = float(np.min(widths)) / 5.0, float(np.max(widths)) * 1.05
        path_ts = np.arange(-pad, prob.horizon + pad + step, step)
        r = mollify_path_reference(path_ts, r_at(path_ts[:, None]), bracket(gen.xi, ell), 1.0,
                                   trace.times)
    else:
        r = r_at(trace.times[:, None])
    e_r = (np.real(np.einsum("sck,skcd,sdk->s", v[:, :, index].conj(), r, v[:, :, index]))
           + 0.5 * np.sum(np.abs(v[:, :, off]) ** 2, axis=(1, 2)))
    assert np.all(np.abs(trace.norms - norms) <= 1e-14 * norms)
    assert np.all(np.abs(trace.e_r_raw - e_r) <= 1e-13 * np.abs(e_r))
    np.testing.assert_array_equal(
        trace.gevrey_c, gevrey_radius_fit(fold_amplitudes(squared_moduli(states)), s)[0])
    assert np.isfinite(trace.gevrey_c).any()
