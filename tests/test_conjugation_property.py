"""Property: the closed-form conjugation probe matches the dense conjugation.

For a scalar symbol ``e^{ihx} <xi>_ell^order`` the probe takes each band norm
of ``W Op(a) W^{-1} - Op(b_k)`` as the band's largest entry.  The reference
forms both operators as dense Kohn-Nirenberg matrices on the oversampled grid
(``kn_reference``), conjugates by the diagonal weights and takes each band's
operator 2-norm.
"""

import numpy as np
import pytest

from hypersym.engine import conjugation_remainder_probe
from hypersym.weights import bracket
from kn_reference import TrigMatrixSymbol, dense_conjugation_band_norms

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(harmonic=st.integers(-2, 2), order=st.sampled_from([0, 1]),
                  tau=st.floats(0.0, 2.0), rho=st.floats(0.3, 0.95), ell=st.floats(1.0, 8.0),
                  n_x=st.sampled_from([16, 32, 64, 128, 256]))
def test_remainder_band_norms_match_dense_conjugation(harmonic, order, tau, rho, ell, n_x):
    # the closed form against W Op(a) W^{-1} - Op(b_k) from the reference
    # quantization, band by band; below 1e-13 of the largest entry, where the
    # probe counts a band as zero, the two differ by rounding alone
    prof = (lambda xi: bracket(xi, ell).astype(complex)) if order else None
    sym = TrigMatrixSymbol(m=1, terms=((harmonic, np.eye(1), prof),))
    rep = conjugation_remainder_probe(harmonic, order, tau, rho, ell, [0, 1, 2, 3], n_x)
    assert not rep.tau_shrunk
    for row in rep.rows:
        dense, largest = dense_conjugation_band_norms(sym, tau, rho, ell, row.k, n_x)
        np.testing.assert_allclose(row.band_norms, dense, rtol=1e-9,
                                   atol=1e-13 * max(1.0, largest))
