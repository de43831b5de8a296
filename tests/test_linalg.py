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
from entropic_uncertainty import channels
from entropic_uncertainty.bounds import uncertainty_lhs
from entropic_uncertainty.channels import apply_one_sided, apply_steering, bpf_kraus, weak_op
from entropic_uncertainty.linalg import (
    NotHermitianError,
    _eig2,
    _eig2_columns,
    _on_qubit_a,
    _sandwiches,
    as_matrix,
    conjugate_sandwich,
    density_spectrum,
    hermitian_eigenvalues,
    jacobi_eigenvalues,
    partial_trace,
    stacked_density_spectra,
    stacked_partial_trace,
    tensor_product,
    validate_two_qubit,
)
from entropic_uncertainty.measures import (
    SIGMA_X,
    SIGMA_Z,
    classical_correlation,
    holevo_quantity,
    min_conditional_entropy_over_measurements,
    post_measurement_state,
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


@pytest.mark.parametrize(
    "fn", [density_spectrum, hermitian_eigenvalues, jacobi_eigenvalues, uncertainty_lhs]
)
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_a_matrix_without_entries_names_its_shape(fn, shape):
    with pytest.raises(ValueError) as info:
        fn(np.zeros(shape))
    assert str(info.value) == f"matrix has no entries, shape {shape}"


def test_stacked_spectra_equal_dense_on_x_states_and_marginals():
    # thousands of rows: np.hypot columns equal the scalar kernel only as libm's hypot,
    # which math.hypot is not
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


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_column_kernel_is_bitwise_the_scalar_kernel():
    # magnitudes 1e-20 to 1 of either sign, with 0, -0.0, subnormals and +-1 mixed in
    rng = np.random.default_rng(1009)
    n = 100_000
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -1.0])

    def column():
        v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20.0, 0.0, n)
        v[rng.integers(0, n, n // 10)] = rng.choice(special, n // 10)
        return v

    a, d, b = column(), column(), column() + 1j * column()
    hi, lo = _eig2_columns(a, d, b)
    scalar = np.array([_eig2(*row) for row in zip(a.tolist(), d.tolist(), b.tolist())])
    assert (_bits(hi) == _bits(scalar[:, 0])).all()
    assert (_bits(lo) == _bits(scalar[:, 1])).all()


def test_stacked_spectra_rows_do_not_depend_on_position_or_stack_size():
    rng = np.random.RandomState(79)
    states = np.array([rand_xstate_matrix(rng, real=k % 3 == 0) for k in range(300)])
    marginals = np.array([partial_trace(rho, "A") for rho in states])
    for stack in (states, marginals):
        vals, ok = stacked_density_spectra(stack)
        for i in range(len(stack)):
            one, one_ok = stacked_density_spectra(stack[i:i + 1])
            assert (_bits(one[0]) == _bits(vals[i])).all() and one_ok[0] == ok[i]
        flipped, flipped_ok = stacked_density_spectra(stack[::-1])
        assert (_bits(flipped) == _bits(vals[::-1])).all()
        assert (flipped_ok == ok[::-1]).all()


def _anti_diagonal_x(corner):
    m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    m[0, 3] = m[3, 0] = corner
    return m


def _huge_non_x():
    m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    m[0, 1] = 1e308 + 1e308j
    m[1, 0] = np.conj(m[0, 1])
    return m


PSD = (ValueError, "positive semidefinite")


@pytest.mark.parametrize(
    ("m", "error"),
    [
        ([[1e308, 0.0], [0.0, -1e308]], PSD),
        ([[0.5, 1e308], [1e308, 0.5]], PSD),
        ([[1e308, 1e308], [1e308, 1e308]], PSD),  # inf - inf: NaN
        ([[1e308, 0.75e308], [0.75e308, -0.5e308]], PSD),
        ([[1e308, 0.0], [0.0, 1e308]], (ValueError, "unit trace")),
        (_anti_diagonal_x(1e308), PSD),
        (_huge_non_x(), (ArithmeticError, "overflow")),  # Jacobi's symmetrization
    ],
    ids=["a-d", "2|b|", "a+d-and-2|b|", "hypot-of-finite-parts", "a+d", "x-block", "jacobi"],
)
def test_huge_entries_are_rejected_without_a_warning(m, error):
    # pytest turns any warning (numpy's overflow ones included) into an error
    m = np.array(m, dtype=complex)
    kind, message = error
    with pytest.raises(kind, match=message):
        density_spectrum(m)
    _, ok = stacked_density_spectra(m[None])
    assert ok.tolist() == [False]


def test_partial_trace_is_the_one_row_stack():
    rng = np.random.RandomState(83)
    states = np.array([rand_xstate_matrix(rng) for _ in range(20)])
    for keep in "AB":
        stack = stacked_partial_trace(states, keep)
        for rho, reduced in zip(states, stack):
            assert np.array_equal(partial_trace(rho, keep), reduced)
            assert_allclose(reduced, ptrace_oracle(rho, keep), atol=1e-16)
    with pytest.raises(ValueError, match="unknown subsystem tag 'C'"):
        partial_trace(states[0], "C")


@pytest.mark.parametrize(
    "fn",
    [
        lambda rho: apply_one_sided(bpf_kraus(0.3), rho),
        lambda rho: apply_steering(weak_op(0.3), rho),
        lambda rho: post_measurement_state(rho, SIGMA_Z),
        lambda rho: holevo_quantity(rho, SIGMA_Z),
        min_conditional_entropy_over_measurements,
        classical_correlation,
        validate_two_qubit,
    ],
    ids=["evolve", "steer", "dephase", "holevo", "s_min", "classical", "check"],
)
def test_two_qubit_inputs_take_one_check(fn):
    with pytest.raises(ValueError, match="^not a two-qubit state$"):
        fn(np.eye(2) / 2)  # a valid density, of one qubit
    with pytest.raises(ValueError, match="not positive semidefinite"):
        fn(np.diag([1.5, -0.5, 0.0, 0.0]))  # the density checks come first


def _sandwich_loop(embedded, rho):
    """The sandwich terms one operator at a time: the reference for the batched product."""
    return [e @ rho @ e.conj().swapaxes(-1, -2) for e in embedded]


def _same_bits(a, b):
    """Equal under == and in the sign of every zero, real and imaginary parts alike."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def test_batched_sandwiches_are_the_per_operator_loop():
    # every shape in use: operators shared by one state or by each state of a stack (a basis,
    # a Kraus set or random complex operators; stacks of 0 to 1024 rows cover BLAS's edge
    # tiles and a full _STACK_ROWS block), a Kraus stack on one state (one operator per
    # row), and one channel's (K, 1, 4, 4) on one state; the terms and their sum from 0 keep
    # the bits of the 4x4 products one operator at a time, signs of zeros included
    rng = np.random.RandomState(3301)
    states = np.array([rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(12)])
    states[3] = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))  # exact zeros
    stack = rng.normal(size=(1024, 4, 4)) + 1j * rng.normal(size=(1024, 4, 4))
    stack[:12], stack[500:512] = states, states
    stack[700] = -0.0
    kraus = channels._kraus_stack("AD", rng.uniform(0.0, 1.0, len(stack)))
    bpf = channels._kraus_stack("BPF", rng.uniform(0.0, 1.0, len(stack)))
    complex_ops = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    shared = [SIGMA_X.embedded, SIGMA_Z.embedded]
    shared += [_on_qubit_a(ops) for ops in (kraus[:, 0], bpf[:, 0], complex_ops)]
    cases = [(e, rho) for e in shared for rho in states[:4]]  # (K, 4, 4) on one state
    cases += [(e, stack[:n]) for e in shared for n in (0, 1, 2, 3, 7, 101, 1024)]  # on a stack
    for n in (1, 2, 3, 7, 101, 1024):  # (K, N, 4, 4) on one state
        cases += [(_on_qubit_a(ops[:, :n]), rho) for ops in (kraus, bpf) for rho in states[:2]]
    cases += [(_on_qubit_a(ops[:, :1]), rho) for ops in (kraus, bpf) for rho in states[:4]]
    for embedded, rho in cases:
        batched, loop = _sandwiches(embedded, rho), _sandwich_loop(embedded, rho)
        assert len(batched) == len(loop) and batched.flags.c_contiguous
        for term, reference in zip(batched, loop):
            assert _same_bits(term, reference)
        assert _same_bits(sum(batched), sum(loop))


def test_a_non_finite_row_spoils_only_its_own_sandwiches():
    # under the callers' np.errstate, an infinite or NaN entry makes its own row's terms
    # non-finite, and every other row keeps the bits of the stack without the bad rows
    rng = np.random.RandomState(3302)
    stack = np.array([rand_xstate_matrix(rng) for _ in range(101)])
    bad = [4, 50, 100]
    stack[4, 1, 1], stack[50, 0, 3], stack[100, 2, 0] = np.inf, np.nan, -np.inf
    good = np.delete(np.arange(len(stack)), bad)
    operators = [SIGMA_X.embedded, SIGMA_Z.embedded,
                 _on_qubit_a(channels._kraus_stack("AD", np.array([0.3]))[:, 0])]
    for embedded in operators:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _sandwiches(embedded, stack)
        assert _same_bits(terms[:, good], _sandwiches(embedded, stack[good]))
        assert (~np.isfinite(terms[:, bad])).any(axis=(2, 3)).all()
