import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    I2,
    ad_ops_oracle,
    bd_oracle,
    bpf_ops_oracle,
    evolve_oracle,
    rand_bd_coeffs,
    rand_xstate_matrix,
    spectrum_oracle,
)
from entropic_uncertainty.linalg import (
    X_PATTERN_ATOL,
    is_x_patterned,
    partial_trace,
    stacked_density_spectra,
)
from entropic_uncertainty.states import (
    BellDiagonalCoeffs,
    XState,
    as_xstate,
    bell_diagonal_density,
)


def test_zero_coeffs_is_maximally_mixed():
    rho = bell_diagonal_density(BellDiagonalCoeffs(0, 0, 0))
    assert_allclose(rho, np.eye(4) / 4)


def test_pure_bell_projector():
    rho = bell_diagonal_density(BellDiagonalCoeffs(1, -1, 1))
    ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert_allclose(rho, np.outer(ket, ket.conj()), atol=1e-15)


def test_fig1_coeffs_entries():
    rho = bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8))
    assert_allclose(rho, bd_oracle(-0.5, 0.4, 0.8), atol=1e-15)
    x = as_xstate(rho)
    assert x.d11 == pytest.approx((1 + 0.8) / 4)
    assert x.a14 == pytest.approx((-0.5 - 0.4) / 4)
    assert x.a23 == pytest.approx((-0.5 + 0.4) / 4)


def test_spectra_match_closed_forms():
    rng = np.random.RandomState(31)
    for _ in range(200):
        c = rand_bd_coeffs(rng)
        coeffs = BellDiagonalCoeffs(*c)
        rho = bell_diagonal_density(coeffs)
        expected = np.sort(np.array(coeffs.eigenvalues()))[::-1]
        assert_allclose(spectrum_oracle(rho), expected, atol=1e-12)


def test_reduced_states_maximally_mixed():
    rng = np.random.RandomState(37)
    for _ in range(50):
        rho = bell_diagonal_density(BellDiagonalCoeffs(*rand_bd_coeffs(rng)))
        for side in ("A", "B"):
            assert_allclose(partial_trace(rho, side), I2 / 2, atol=1e-14)


def test_unphysical_coeffs_error_names_expression():
    with pytest.raises(ValueError, match=r"\(1 - c1 - c2 - c3\)/4"):
        BellDiagonalCoeffs(0.9, 0.9, 0.9)


def test_coefficient_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        BellDiagonalCoeffs(1.5, 0.0, 0.0)


def test_as_xstate_maximally_mixed():
    x = as_xstate(np.eye(4) / 4)
    assert x.populations() == (0.25, 0.25, 0.25, 0.25)
    assert x.a14 == 0 and x.a23 == 0


def test_as_xstate_ad_evolved_elements():
    c1, c2, c3, d = -0.5, 0.4, 0.8, 0.37
    rho = evolve_oracle(ad_ops_oracle(d), bd_oracle(c1, c2, c3))
    x = as_xstate(rho)
    assert x.d11 == pytest.approx((1 + c3 + d - c3 * d) / 4, abs=1e-14)
    assert x.a14 == pytest.approx((c1 - c2) * np.sqrt(1 - d) / 4, abs=1e-14)


def test_as_xstate_bpf_evolved_elements():
    c1, c2, c3, p = -0.5, 0.4, 0.8, 0.2
    rho = evolve_oracle(bpf_ops_oracle(p), bd_oracle(c1, c2, c3))
    x = as_xstate(rho)
    assert x.d11 == pytest.approx((1 + c3 * (-1 + 2 * p)) / 4, abs=1e-14)
    assert x.d11 == pytest.approx(0.13, abs=1e-14)


def test_as_xstate_roundtrip():
    rng = np.random.RandomState(41)
    for _ in range(1000):
        rho = rand_xstate_matrix(rng)
        assert_allclose(as_xstate(rho).to_matrix(), rho, atol=1e-12)


def test_as_xstate_rejects_off_pattern():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[1, 0] = 0.01
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        as_xstate(rho)


def test_x_pattern_tolerance_is_one_definition():
    # an off-pattern entry of exactly X_PATTERN_ATOL is accepted by all three checks
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[1, 0] = rho[3, 2] = rho[2, 3] = X_PATTERN_ATOL
    assert is_x_patterned(rho)
    assert stacked_density_spectra(rho[None])[1].tolist() == [True]
    assert as_xstate(rho).populations() == (0.25, 0.25, 0.25, 0.25)
    # and the next float above it by none; as_xstate names the first entry row by row
    rho[3, 2] = rho[2, 3] = rho[1, 0] = np.nextafter(X_PATTERN_ATOL, 1.0)
    assert not is_x_patterned(rho)
    assert stacked_density_spectra(rho[None])[1].tolist() == [False]
    with pytest.raises(ValueError, match=r"entry \(1, 0\)"):
        as_xstate(rho)


def test_xstate_invariants():
    with pytest.raises(ValueError, match="exceeds"):
        XState(d11=0.5, d22=0.0, d33=0.0, d44=0.5, a14=0.6, a23=0.0)
    with pytest.raises(ValueError, match="sum"):
        XState(d11=0.5, d22=0.5, d33=0.5, d44=0.5, a14=0.0, a23=0.0)
