"""Spectral states, weights, the reference quantization, conjugation."""

import numpy as np
import pytest

from hypersym.engine import _ORDER_TOL, conjugation_remainder_probe, lattice
from hypersym.errors import ConfigError, WeightOverflowError
from hypersym.weights import bracket, gevrey_weight
from kn_reference import TrigMatrixSymbol, conjugated_symbol_bk, kn_apply, kn_matrix, symbol_values
from support import from_physical, is_conjugate_symmetric, to_physical


def _random_state(m=2, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))


def _form(sym, st):
    """Energy pairing ``Re <Op(sym) u, u>``."""
    return float(np.real(np.vdot(st, kn_apply(sym, st))))


# ---------------------------------------------------------------------------
# States


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    for n in (16, 64, 256):
        u = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        st = from_physical(u)
        assert np.max(np.abs(to_physical(st) - u)) <= 1e-12 * np.max(np.abs(u))


def test_real_data_conjugate_symmetric():
    rng = np.random.default_rng(2)
    st = from_physical(rng.normal(size=(3, 64)))
    assert is_conjugate_symmetric(st)


def test_parseval_unit_constant():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(2, 128))
    st = from_physical(u)
    assert np.linalg.norm(st) ** 2 == pytest.approx(np.mean(np.sum(np.abs(u) ** 2, axis=0)))


# ---------------------------------------------------------------------------
# Gevrey weights


def test_gevrey_inverse_pair():
    st = _random_state()
    w = gevrey_weight(lattice(st.shape[1]), 0.8, 0.75, 2.0)
    winv = gevrey_weight(lattice(st.shape[1]), -0.8, 0.75, 2.0)
    out = st * w[None, :] * winv[None, :]
    assert np.max(np.abs(out - st)) <= 1e-10


def test_gevrey_overflow_refused():
    st = _random_state(n=256)
    with pytest.raises(WeightOverflowError) as err:
        gevrey_weight(lattice(st.shape[1]), 50.0, 0.9, 1.0)
    assert "tau" in str(err.value)


# ---------------------------------------------------------------------------
# Quantization


def test_quantize_constant_symbol_identity():
    st = _random_state()
    sym = TrigMatrixSymbol(m=2, terms=((0, np.eye(2), None),))
    out = kn_apply(sym, st)
    assert np.max(np.abs(out - st)) <= 1e-12


def test_quantize_x_only_symbol_is_pointwise_multiplication():
    n = 64
    rng = np.random.default_rng(5)
    # band-limited state so the e^{ix} shift stays inside the lattice
    coeffs = np.zeros((1, n), dtype=complex)
    coeffs[0, :20] = rng.normal(size=20)
    coeffs[0, -20:] = rng.normal(size=20)
    st = coeffs
    sym = TrigMatrixSymbol(m=1, terms=((1, np.eye(1), None),))
    out = kn_apply(sym, st)
    x = 2 * np.pi * np.arange(n) / n
    expected = np.exp(1j * x)[None, :] * to_physical(st)
    assert np.max(np.abs(to_physical(out) - expected)) <= 1e-10


def test_quantize_ixi_is_spectral_derivative():
    n = 64
    x = 2 * np.pi * np.arange(n) / n
    st = from_physical(np.cos(3 * x)[None, :])
    sym = TrigMatrixSymbol(
        m=1, terms=((0, np.eye(1), lambda xi: 1j * np.asarray(xi, complex)),)
    )
    out = to_physical(kn_apply(sym, st))
    assert np.max(np.abs(out - (-3 * np.sin(3 * x))[None, :])) <= 1e-10


def test_quantize_x_independent_matches_multiplier():
    st = _random_state()
    sym = TrigMatrixSymbol(
        m=2, terms=((0, np.eye(2), lambda xi: bracket(xi, 2.0).astype(complex)),)
    )
    q = kn_apply(sym, st)
    mult = st * bracket(lattice(st.shape[1]), 2.0) ** 1.0
    assert np.max(np.abs(q - mult)) <= 1e-12 * np.max(np.abs(mult))


def test_quantize_differential_symbol_product_rule():
    # p = A1(x) * (i xi) against physical-space A1(x) d_x u
    n = 128
    rng = np.random.default_rng(6)
    band = 20
    coeffs = np.zeros((1, n), dtype=complex)
    coeffs[0, 1:band] = rng.normal(size=band - 1)
    coeffs[0, -band:] = rng.normal(size=band)
    st = coeffs
    a1 = 1.0  # coefficient of cos x
    sym = TrigMatrixSymbol(
        m=1,
        terms=(
            (1, np.eye(1) * a1 / 2.0, lambda xi: 1j * np.asarray(xi, complex)),
            (-1, np.eye(1) * a1 / 2.0, lambda xi: 1j * np.asarray(xi, complex)),
        ),
    )
    out = to_physical(kn_apply(sym, st))
    x = 2 * np.pi * np.arange(n) / n
    du = to_physical(st * (1j * lattice(st.shape[1]))[None, :])
    expected = np.cos(x)[None, :] * du
    assert np.max(np.abs(out - expected)) <= 1e-8


# ---------------------------------------------------------------------------
# Reference matrix


def test_dense_identity():
    sym = TrigMatrixSymbol(m=1, terms=((0, np.eye(1), None),))
    d = kn_matrix(sym, 16)
    np.testing.assert_allclose(d, np.eye(16), atol=1e-13)


def test_dense_block_diagonal_for_multiplier():
    sym = TrigMatrixSymbol(
        m=2, terms=((0, np.array([[1.0, 2.0], [0.5, -1.0]]), None),)
    )
    d = kn_matrix(sym, 8)
    # component blocks carry the constant matrix entries on their diagonals
    np.testing.assert_allclose(np.diag(d[:8, :8]), np.ones(8), atol=1e-13)
    np.testing.assert_allclose(np.diag(d[:8, 8:]), 2 * np.ones(8), atol=1e-13)
    np.testing.assert_allclose(np.diag(d[8:, :8]), 0.5 * np.ones(8), atol=1e-13)


def test_dense_shift_structure():
    sym = TrigMatrixSymbol(m=1, terms=((1, np.eye(1), None),))
    n = 16
    d = kn_matrix(sym, n)
    xi = lattice(n).astype(int)
    for j, xin in enumerate(xi):
        col = d[:, j]
        nz = np.where(np.abs(col) > 1e-12)[0]
        if xin + 1 <= n // 2 - 1:
            assert list(nz) == [int(np.where(xi == xin + 1)[0][0])]
        else:
            assert nz.size == 0  # shifted out of the lattice


# ---------------------------------------------------------------------------
# Hermitian form


def test_hermitian_form_identity_symbol():
    st = _random_state()
    sym = TrigMatrixSymbol(m=2, terms=((0, np.eye(2), None),))
    val = _form(sym, st)
    assert val == pytest.approx(np.linalg.norm(st) ** 2)


def test_hermitian_form_diagonal_single_mode():
    coeffs = np.zeros((2, 32), dtype=complex)
    coeffs[0, 3] = 1.5
    st = coeffs
    sym = TrigMatrixSymbol(m=2, terms=((0, np.diag([2.0, 0.0]), None),))
    assert _form(sym, st) == pytest.approx(2 * 1.5**2)


def test_hermitian_form_positive_lower_bound():
    st = _random_state()
    p = np.array([[2.0, 0.5], [0.5, 1.0]])
    sym = TrigMatrixSymbol(m=2, terms=((0, p, None),))
    val = _form(sym, st)
    min_eig = np.min(np.linalg.eigvalsh(p))
    assert val >= min_eig * np.linalg.norm(st) ** 2 - 1e-10
    assert val > 0


# ---------------------------------------------------------------------------
# Conjugated symbol expansion


def test_conjugated_bk_zeroth_order_is_symbol():
    sym = TrigMatrixSymbol(m=1, terms=((1, np.eye(1), None),))
    b0 = conjugated_symbol_bk(sym, 0.7, 0.75, 2.0, 0)
    xi = lattice(32)
    np.testing.assert_allclose(
        symbol_values(b0, [0.3], xi), symbol_values(sym, [0.3], xi), atol=1e-14
    )


def test_conjugated_bk_x_independent_unchanged():
    sym = TrigMatrixSymbol(
        m=1, terms=((0, np.eye(1), lambda xi: bracket(xi, 1.0).astype(complex)),)
    )
    bk = conjugated_symbol_bk(sym, 0.7, 0.75, 2.0, 3)
    xi = lattice(32)
    np.testing.assert_allclose(
        symbol_values(bk, [0.0], xi), symbol_values(sym, [0.0], xi), atol=1e-13
    )


def test_conjugated_bk_first_order_hand_value():
    # e^{ix} scalar: b1 = e^{ix} (1 + tau rho xi <xi>^(rho-2))
    tau, rho, ell = 0.7, 0.75, 2.0
    sym = TrigMatrixSymbol(m=1, terms=((1, np.eye(1), None),))
    b1 = conjugated_symbol_bk(sym, tau, rho, ell, 1)
    xi = lattice(32)
    x = np.array([0.9])
    expected = np.exp(1j * 0.9) * (1.0 + tau * rho * xi * bracket(xi, ell) ** (rho - 2))
    got = symbol_values(b1, x, xi)[0, :, 0, 0]
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_remainder_zero_for_x_independent_and_tau_zero():
    # harmonic 0: the weight commutes with Op(a); tau 0: no weight at all
    rep = conjugation_remainder_probe(0, 1, 1.0, 0.75, 1.0, [0, 1], 64)
    for row in rep.rows:
        assert np.max(row.band_norms) <= 1e-12
    rep0 = conjugation_remainder_probe(1, 0, 0.0, 0.75, 1.0, [0], 64)
    assert np.max(rep0.rows[0].band_norms) <= 1e-14


def test_remainder_orders_one_sided_and_monotone():
    rep = conjugation_remainder_probe(1, 0, 1.0, 0.75, 1.0, [0, 1, 2], 128)
    fits = [r.fitted for r in rep.rows]
    for r in rep.rows:
        assert r.passed
    for a, b in zip(fits, fits[1:]):
        assert b <= a + 0.1


@pytest.mark.parametrize("n_x", [256, 4096])
def test_remainder_order_zero_symbol_two_sided(n_x):
    # e^{ix} has order 0, so Delta_k has order rho - 1 - k(1 - rho): one below
    # the probe's order-one targets, which a remainder one order too large meets
    rho = 0.75
    rep = conjugation_remainder_probe(1, 0, 1.5, rho, 1.0, [0, 1, 2], n_x)
    for row in rep.rows:
        assert abs(row.fitted - (rho - 1.0 - row.k * (1.0 - rho))) <= _ORDER_TOL


def test_remainder_exponent_past_budget_is_refused():
    # the probe forms tau (<xi+1>^rho - <xi>^rho), at most 0.543 tau here, never
    # the weight e^{tau <N/2>^rho}: tau = 1.5 runs at 2^18 modes, where that
    # weight's exponent is 1.0e4, and tau = 1000 is refused by name
    rep = conjugation_remainder_probe(1, 0, 1.5, 0.75, 1.0, [0], 2**18)
    assert rep.rows[0].fitted is not None
    assert conjugation_remainder_probe(1, 0, 920.0, 0.75, 1.0, [0], 128).rows
    with pytest.raises(ConfigError, match=r"^tau = 1000\.0: .* reaches 543 > 500"):
        conjugation_remainder_probe(1, 0, 1000.0, 0.75, 1.0, [0], 128)


def test_hermitian_form_x_dependent_matches_dense():
    # x-dependent hermitian symbol p(x, xi) = 2 + cos x: the form of the
    # reference quantization is the quadratic form of its matrix's hermitian
    # part, and on a band-limited state the physical mean of p |u|^2
    sym = TrigMatrixSymbol(
        m=1,
        terms=((0, 2.0 * np.eye(1), None),
               (1, 0.5 * np.eye(1), None),
               (-1, 0.5 * np.eye(1), None)),
    )
    st = _random_state(m=1, n=32, seed=12)
    st[:, 12:-12] = 0.0  # |xi| < 12, so that no mode leaves the lattice
    val = float(np.real(np.vdot(st, kn_apply(sym, st))))
    d = kn_matrix(sym, 32)
    v = st.reshape(-1)
    quad = np.real(v.conj() @ ((d + d.conj().T) / 2.0) @ v)
    assert val == pytest.approx(quad, rel=1e-12)
    x = 2 * np.pi * np.arange(32) / 32
    phys = np.mean((2.0 + np.cos(x)) * np.abs(to_physical(st)[0]) ** 2)
    assert val == pytest.approx(phys, rel=1e-12)
