"""The distinct-node rule: sweeps of the symbol over (t, x) grids visit each distinct A(t, x) once.

``SystemCoefficients.symbol_nodes`` keeps one t when A has no time term and
one x when A has no x-harmonic.  The sweeps that use it (the certificates,
the theta barometer, calibration's a0 probe and the quadrature oracle's
sub-grid) must report exactly what the full grid reports, so every summary
is held bit for bit to a run whose rule keeps every node, and the sample
and node counts stay the nominal grid's.
"""

import json

import numpy as np
import pytest

from hypersym import symmetrizer
from hypersym.coeffs import CoeffTerm, SystemCoefficients, cosine_terms
from hypersym.presets import get_preset, preset_names
from hypersym.runner import run

_TS = np.linspace(0.0, 1.0, 4)
_XS = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
_N = np.array([[0.0, 1.0], [0.0, 0.0]])


def _nodes(a_terms, b_terms=()):
    coeffs = SystemCoefficients(m=2, a_terms=a_terms, b_terms=list(b_terms))
    t, x = coeffs.symbol_nodes(_TS, _XS)
    return len(t), len(x)


def test_constant_symbol_keeps_one_node():
    assert _nodes([CoeffTerm(0, "1", _N), CoeffTerm(0, " 1 ", _N.T)]) == (1, 1)
    assert _nodes([]) == (1, 1)


def test_b_terms_are_ignored():
    b_terms = [CoeffTerm(0, "t", _N.T)] + cosine_terms(2, np.eye(2), "t^2")
    assert _nodes([CoeffTerm(0, "1", _N)], b_terms) == (1, 1)


def test_t0_counts_as_time_dependent():
    assert _nodes([CoeffTerm(0, "1", _N), CoeffTerm(0, "t^0", _N.T)]) == (4, 1)


def test_a_lone_x_harmonic_keeps_every_x():
    assert _nodes([CoeffTerm(0, "1", _N), CoeffTerm(3, "1", 0.1 * np.eye(2))]) == (1, 5)
    assert _nodes([CoeffTerm(-1, "t", _N)]) == (4, 5)


def test_kept_nodes_are_the_grid_prefix():
    # callers slice the grid by the kept lengths, so the kept values must lead it
    t, x = get_preset("wave_t2").coeffs.symbol_nodes(_TS, _XS)
    assert np.array_equal(t, _TS) and np.array_equal(x, _XS[:1])


def _every_node(self, t_values, x_values):
    return (np.atleast_1d(np.asarray(t_values, dtype=float)),
            np.atleast_1d(np.asarray(x_values, dtype=float)))


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("command", ["certify", "theta", "symmetrize"])
def test_summaries_match_the_full_grid_bit_for_bit(name, command, monkeypatch):
    config = {"command": command, "schema_version": "1", "preset": name}
    status, summary = run(dict(config))
    with monkeypatch.context() as patch:
        patch.setattr(SystemCoefficients, "symbol_nodes", _every_node)
        full_status, full = run(dict(config))
    # json spells -0.0 and 0.0 apart, which == would not
    assert (status, json.dumps(summary, sort_keys=True)) == \
        (full_status, json.dumps(full, sort_keys=True))
    if command == "certify":
        assert summary["real_spectrum"]["n_samples"] == 4 * 6 * 3
        assert summary["spectral_bound"]["n_samples"] == 4 * 6 * 7 * 3
    if command == "symmetrize":
        assert summary["invariants"]["n_nodes"] == 4 * 5 * 9


# nodes of the quadrature oracle's sub-grid (every t, the first two x, 9 xi)
_ORACLE_NODES = {"block_direct_sum": 72, "diag_sym": 72, "xdep": 72, "holder_k": 36,
                 "wave_t2": 36, "wave_x2": 18, "jordan_lower": 9}


@pytest.mark.parametrize("name", preset_names())
def test_oracle_takes_the_distinct_nodes_alone(name, monkeypatch):
    seen = []
    oracle = symmetrizer.quadrature_R

    def counting(m_mat, *args, **kwargs):
        seen.append(int(np.prod(np.shape(m_mat)[:-2])))
        return oracle(m_mat, *args, **kwargs)
    monkeypatch.setattr(symmetrizer, "quadrature_R", counting)
    status, summary = run({"command": "symmetrize", "schema_version": "1", "preset": name})
    assert seen == [_ORACLE_NODES[name]]
    assert status == 0 and summary["quadrature_ok"]
