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
    spectrum_oracle,
)
from entropic_uncertainty.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    X_PATTERN_ATOL,
    is_x_patterned,
    partial_trace,
    stacked_density_spectra,
)
from entropic_uncertainty.states import (
    BellDiagonalCoeffs,
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
    assert rho[0, 0].real == pytest.approx((1 + 0.8) / 4)
    assert rho[0, 3] == pytest.approx((-0.5 - 0.4) / 4)
    assert rho[1, 2] == pytest.approx((-0.5 + 0.4) / 4)


def test_density_equals_the_kron_build_bitwise():
    # the Pauli products are constants built once; each state sums them in the order the
    # np.kron build does, so its entries carry the same bits, signed zeros included
    rng = np.random.RandomState(41)
    edges = [(0, 0, 0), (1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1), (-0.5, 0.4, 0.8),
             (1.0 + 9e-10, -1.0, 1.0), (0.0, -0.0, 1.0), (1e-300, -1e-300, 0.5)]
    for c in edges + [rand_bd_coeffs(rng) for _ in range(200)]:
        kron = np.kron(I2, I2)
        for x, sigma in zip(c, (PAULI_X, PAULI_Y, PAULI_Z)):
            kron = kron + x * np.kron(sigma, sigma)
        kron = kron / 4.0
        rho = bell_diagonal_density(BellDiagonalCoeffs(*c))
        assert np.array_equal(rho.view(np.int64), kron.view(np.int64))


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


def test_as_xstate_ad_evolved_elements():
    c1, c2, c3, d = -0.5, 0.4, 0.8, 0.37
    rho = evolve_oracle(ad_ops_oracle(d), bd_oracle(c1, c2, c3))
    assert rho[0, 0].real == pytest.approx((1 + c3 + d - c3 * d) / 4, abs=1e-14)
    assert rho[0, 3] == pytest.approx((c1 - c2) * np.sqrt(1 - d) / 4, abs=1e-14)


def test_as_xstate_bpf_evolved_elements():
    c1, c2, c3, p = -0.5, 0.4, 0.8, 0.2
    rho = evolve_oracle(bpf_ops_oracle(p), bd_oracle(c1, c2, c3))
    assert rho[0, 0].real == pytest.approx((1 + c3 * (-1 + 2 * p)) / 4, abs=1e-14)
    assert rho[0, 0].real == pytest.approx(0.13, abs=1e-14)


def test_x_pattern_tolerance_is_one_definition():
    # an off-pattern entry of exactly X_PATTERN_ATOL is accepted by both checks
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[1, 0] = rho[3, 2] = rho[2, 3] = X_PATTERN_ATOL
    assert is_x_patterned(rho)
    assert stacked_density_spectra(rho[None])[1].tolist() == [True]
    # and the next float above it by neither
    rho[3, 2] = rho[2, 3] = rho[1, 0] = np.nextafter(X_PATTERN_ATOL, 1.0)
    assert not is_x_patterned(rho)
    assert stacked_density_spectra(rho[None])[1].tolist() == [False]
