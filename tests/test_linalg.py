import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    I2,
    SX,
    SZ,
    bd_oracle,
    ptrace_oracle,
    rand_xstate_matrix,
    spectrum_oracle,
)
from entropic_uncertainty.linalg import (
    NotHermitianError,
    as_matrix,
    conjugate_sandwich,
    density_spectrum,
    hermitian_eigenvalues,
    jacobi_eigenvalues,
    partial_trace,
    stacked_density_spectra,
    tensor_product,
)


def test_tensor_product_identity():
    assert_allclose(tensor_product(I2, I2), np.eye(4))


def test_tensor_product_diagonal():
    assert_allclose(tensor_product(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))


def test_tensor_product_permutation_blocks():
    got = tensor_product(SX, I2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = I2
    expected[2:4, 0:2] = I2
    assert_allclose(got, expected)


def test_tensor_product_associative_on_integers():
    rng = np.random.RandomState(3)
    for _ in range(20):
        a = rng.randint(-3, 4, (2, 2)).astype(complex)
        b = rng.randint(-3, 4, (2, 2)).astype(complex)
        c = rng.randint(-3, 4, (2, 2)).astype(complex)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.array_equal(left, right)


def test_partial_trace_bell_state():
    rho = bd_oracle(1.0, -1.0, 1.0)
    for side in ("A", "B"):
        assert_allclose(partial_trace(rho, side), I2 / 2, atol=1e-15)


def test_partial_trace_maximally_mixed():
    assert_allclose(partial_trace(np.eye(4) / 4, "A"), I2 / 2, atol=1e-15)


def test_partial_trace_ad_evolved_reduced_a():
    # reduced state of the noisy qubit at d = 0.3 has spectrum {0.65, 0.35}
    from conftest import ad_ops_oracle, evolve_oracle

    rho = evolve_oracle(ad_ops_oracle(0.3), bd_oracle(-0.5, 0.4, 0.8))
    got = partial_trace(rho, "A")
    assert_allclose(got, ptrace_oracle(rho, "A"), atol=1e-14)
    assert_allclose(spectrum_oracle(got), [0.65, 0.35], atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.RandomState(11)
    for _ in range(20):
        rho = rand_xstate_matrix(rng)
        for side in ("A", "B"):
            got = partial_trace(rho, side)
            assert_allclose(got, ptrace_oracle(rho, side), atol=1e-14)
            assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_of_product():
    rng = np.random.RandomState(5)
    for _ in range(20):
        a = rng.randn(2, 2) + 1j * rng.randn(2, 2)
        b = rng.randn(2, 2) + 1j * rng.randn(2, 2)
        got = partial_trace(np.kron(a, b), "A")
        assert_allclose(got, a * np.trace(b), atol=1e-12)


def test_partial_trace_rejects_wrong_shape():
    with pytest.raises(ValueError, match="not a two-qubit state"):
        partial_trace(np.eye(2), "A")


def test_conjugate_sandwich_identity():
    rho = bd_oracle(-0.5, 0.4, 0.8)
    assert_allclose(conjugate_sandwich(np.eye(4), rho), rho)


def test_conjugate_sandwich_bit_flip():
    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    assert_allclose(conjugate_sandwich(SX, ket0), ket1)


def test_conjugate_sandwich_half_filter():
    # diag(sqrt(.5), sqrt(.5)) = I/sqrt(2) halves the state before renormalizing
    op = np.sqrt(0.5) * I2
    rho = bd_oracle(0.3, 0.2, -0.1)
    assert_allclose(conjugate_sandwich(np.kron(op, I2), rho), rho / 2, atol=1e-15)


def test_conjugate_sandwich_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        conjugate_sandwich(I2, np.eye(4))


def test_eigenvalues_maximally_mixed():
    assert_allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)


def test_eigenvalues_pure_bell():
    vals = hermitian_eigenvalues(bd_oracle(1.0, -1.0, 1.0))
    assert_allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_eigenvalues_bell_diagonal_closed_form():
    # (1 +/- c1 -/+ c2 +/- c3)/4 for (-0.5, 0.4, 0.8), cross-checked by Jacobi
    rho = bd_oracle(-0.5, 0.4, 0.8)
    expected = [0.675, 0.225, 0.075, 0.025]
    assert_allclose(hermitian_eigenvalues(rho), expected, atol=1e-14)
    assert_allclose(jacobi_eigenvalues(rho), expected, atol=1e-12)


def test_eigenvalues_match_lapack_on_random_hermitian():
    rng = np.random.RandomState(7)
    for _ in range(50):
        m = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        m = m + m.conj().T
        assert_allclose(jacobi_eigenvalues(m), spectrum_oracle(m), atol=1e-10)


def test_x_block_path_matches_jacobi():
    rng = np.random.RandomState(19)
    for _ in range(1000):
        rho = rand_xstate_matrix(rng)
        assert_allclose(
            hermitian_eigenvalues(rho), jacobi_eigenvalues(rho), atol=1e-12
        )


def test_non_hermitian_error_carries_asymmetry():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError) as err:
        hermitian_eigenvalues(m)
    assert err.value.asymmetry == pytest.approx(1.0)


def test_density_spectrum_sums_to_one():
    rng = np.random.RandomState(23)
    for _ in range(200):
        vals = density_spectrum(rand_xstate_matrix(rng))
        assert abs(float(vals.sum()) - 1.0) < 1e-9
        assert float(vals.min()) >= 0.0


def test_density_spectrum_rejects_negative():
    with pytest.raises(ValueError, match="positive semidefinite"):
        density_spectrum(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


@pytest.mark.parametrize(
    "bad", [complex(np.inf, 0.0), complex(0.0, np.nan), complex(np.inf, np.inf), np.nan]
)
def test_as_matrix_rejects_any_non_finite_part(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(m)


def test_stacked_spectra_equal_dense_on_x_states_and_marginals():
    # thousands of rows: a vectorized np.hypot in place of _eig2 differs in a few
    rng = np.random.RandomState(73)
    states = np.array([rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(4000)])
    marginals = np.array([partial_trace(rho, "B") for rho in states])
    for stack in (states, marginals):
        vals, ok = stacked_density_spectra(stack)
        assert ok.all()
        for row, rho in zip(vals, stack):
            assert np.array_equal(row, density_spectrum(rho))


def test_stacked_spectra_flag_the_rows_the_dense_path_must_take():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    h = np.kron(I2, (SX + SZ) / np.sqrt(2.0))
    rotated = h @ bd_oracle(-0.5, 0.4, 0.8) @ h  # valid, not X-shaped
    asymmetric = rho.copy()
    asymmetric[0, 3] = 1e-3
    negative = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    long_trace = 2.0 * rho
    infinite = rho.copy()
    infinite[1, 1] = np.inf
    stack = np.array([rho, rotated, asymmetric, negative, long_trace, infinite])
    _, ok = stacked_density_spectra(stack)
    assert ok.tolist() == [True, False, False, False, False, False]
    density_spectrum(rotated)  # the dense path accepts the non-X row
    for bad in stack[2:]:
        with pytest.raises(ValueError):
            density_spectrum(bad)
