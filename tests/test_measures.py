import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    OPTIMIZER_REFUSAL,
    PX_ORACLE,
    X_PATTERN,
    ad_ops_oracle,
    avg_branch_entropy_grid_oracle,
    avg_branch_entropy_oracle,
    bd_oracle,
    cond_ent_oracle,
    cross_moments_oracle,
    dense_grid_oracle,
    endpoint_entropies_oracle,
    entropy_oracle,
    evolve_oracle,
    h2,
    holevo_oracle,
    locally_rotated,
    minimize_dense_oracle,
    mutual_oracle,
    post_meas_oracle,
    ptrace_oracle,
    rand_bd_coeffs,
    rand_xstate_matrix,
    projector_oracle,
    shannon_oracle,
    sigma_y_basis,
    spectrum_oracle,
)
from entropic_uncertainty import bounds, channels, linalg, measures
from entropic_uncertainty.applications import channel_capacity
from entropic_uncertainty.linalg import (
    PAULI_X,
    PAULI_Z,
    X_PATTERN_ATOL,
    NotHermitianError,
    is_x_patterned,
    stacked_density_spectra,
    stacked_partial_trace,
)
from entropic_uncertainty.measures import (
    SIGMA_X,
    SIGMA_Z,
    binary_entropy,
    classical_correlation,
    conditional_entropy_after_measurement,
    discord_xstate_closed,
    holevo_quantity,
    min_conditional_entropy_over_measurements,
    mutual_information,
    post_measurement_state,
    quantum_conditional_entropy,
    quantum_discord,
    von_neumann_entropy,
)
from entropic_uncertainty.states import BellDiagonalCoeffs, bell_diagonal_density

BELL = bd_oracle(1.0, -1.0, 1.0)
FIG1 = bd_oracle(-0.5, 0.4, 0.8)
MIXED = np.eye(4, dtype=complex) / 4

# frozen by direct high-precision summation of -sum p log2 p
H4_FIG1 = 1.2802737180484143


def test_entropy_of_a_diagonal_state_is_its_shannon_entropy():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    got = von_neumann_entropy(np.diag([0.675, 0.225, 0.075, 0.025]))
    assert got == pytest.approx(H4_FIG1, abs=1e-12)
    assert got == pytest.approx(shannon_oracle([0.675, 0.225, 0.075, 0.025]), abs=1e-14)


def test_von_neumann_entropy_errors():
    with pytest.raises(ValueError, match="positive semidefinite"):
        von_neumann_entropy(np.diag([1.1, -0.1]))
    with pytest.raises(ValueError, match="unit trace"):
        von_neumann_entropy(np.diag([0.4, 0.4]))


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.9) == pytest.approx(h2(0.9), abs=1e-15)


def test_von_neumann_entropy_examples():
    assert von_neumann_entropy(BELL) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(MIXED) == pytest.approx(2.0, abs=1e-15)
    assert von_neumann_entropy(FIG1) == pytest.approx(H4_FIG1, abs=1e-12)
    assert von_neumann_entropy(FIG1) == pytest.approx(entropy_oracle(FIG1), abs=1e-12)


def _along(theta, phi):
    """The measurement along the Bloch direction (theta, phi)."""
    st = math.sin(theta)
    return measures._Basis((st * math.cos(phi), st * math.sin(phi), math.cos(theta)))


def test_pauli_bases():
    assert_allclose(SIGMA_X.projectors[0], 0.5 * (np.eye(2) + PAULI_X), atol=1e-15)
    assert_allclose(SIGMA_Z.projectors[0], np.diag([1.0, 0.0]).astype(complex), atol=1e-15)
    by = sigma_y_basis()
    assert_allclose(by.projectors[0] + by.projectors[1], np.eye(2), atol=1e-15)
    eigenvectors = [projector_oracle([1, 1j]), projector_oracle([1, -1j])]
    for basis in (by, _along(math.pi / 2, math.pi / 2)):
        assert_allclose(basis.projectors, eigenvectors, atol=1e-15)


def test_sigma_x_projectors_are_pinned_bit_for_bit():
    # sigma_x is the direction (pi/2, 0), whose z component is cos(pi/2) = 6.1e-17, not 0:
    # 1 + 6.1e-17 rounds to 1 but 1 - 6.1e-17 does not, so each projector has one diagonal
    # entry 0.5 - 2**-54.  A tidier literal moves the last bits of u and of the sigma_x
    # Holevo quantity, which the golden CSVs' printed digits do not show.
    cos_half_pi = math.cos(math.pi / 2)
    assert cos_half_pi == 6.123233995736766e-17
    spin = PAULI_X + cos_half_pi * PAULI_Z
    for got, sign in zip(SIGMA_X.projectors, (1.0, -1.0)):
        expected = 0.5 * (np.eye(2) + sign * spin)
        assert np.array_equal(got, expected)
        for part in (np.real, np.imag):  # signs of zeros included
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(expected)))
    below = 0.5 - 2.0 ** -54
    assert [np.diagonal(p).real.tolist() for p in SIGMA_X.projectors] == [[0.5, below],
                                                                          [below, 0.5]]
    assert SIGMA_X.branch_masks is None and SIGMA_X.dephasing_mask is None
    assert SIGMA_Z.branch_masks is not None and SIGMA_Z.dephasing_mask is not None


def test_embedded_projectors_equal_kron():
    rng = np.random.RandomState(131)
    bases = [SIGMA_X, SIGMA_Z, sigma_y_basis()] + [
        _along(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(50)
    ]
    for basis in bases:
        assert basis.embedded.shape == (2, 4, 4)
        for p, e in zip(basis.projectors, basis.embedded):
            assert (e == np.kron(p, np.eye(2, dtype=complex))).all()


def test_post_measurement_maximally_mixed():
    for basis in (SIGMA_X, SIGMA_Z, sigma_y_basis()):
        assert_allclose(post_measurement_state(MIXED, basis), MIXED, atol=1e-15)


def test_post_measurement_bell_sigma_z():
    out = post_measurement_state(BELL, SIGMA_Z)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert_allclose(out, expected, atol=1e-15)


def test_post_measurement_ad_evolved_pair_structure():
    # sigma_x dephasing of the damped state gives doubly degenerate pairs 1/4 +/- delta
    d = 0.37
    rho = evolve_oracle(ad_ops_oracle(d), FIG1)
    out = post_measurement_state(rho, SIGMA_X)
    assert_allclose(out, post_meas_oracle(rho, PX_ORACLE), atol=1e-14)
    spec = spectrum_oracle(out)
    w = 0.5 * math.sqrt(1 - d)  # |c1| sqrt(1 - d)
    assert_allclose(spec, [0.25 * (1 + w)] * 2 + [0.25 * (1 - w)] * 2, atol=1e-12)


def test_conditional_entropy_after_measurement_examples():
    assert conditional_entropy_after_measurement(BELL, SIGMA_Z) == pytest.approx(
        0.0, abs=1e-12
    )
    assert conditional_entropy_after_measurement(MIXED, SIGMA_Z) == pytest.approx(
        1.0, abs=1e-12
    )
    got = conditional_entropy_after_measurement(FIG1, SIGMA_X)
    assert got == pytest.approx(cond_ent_oracle(FIG1, PX_ORACLE), abs=1e-12)
    assert got == pytest.approx(h2((1 + 0.5) / 2), abs=1e-12)


def test_quantum_conditional_entropy_examples():
    assert quantum_conditional_entropy(BELL) == pytest.approx(-1.0, abs=1e-12)
    assert quantum_conditional_entropy(MIXED) == pytest.approx(1.0, abs=1e-15)
    pure_a = np.zeros((4, 4), dtype=complex)
    pure_a[0, 0] = pure_a[1, 1] = 0.5  # |0><0| x I/2
    assert quantum_conditional_entropy(pure_a) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_examples():
    assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-12)
    product = np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2).astype(complex)
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-12)
    from conftest import bpf_ops_oracle

    rho = evolve_oracle(bpf_ops_oracle(0.5), bd_oracle(1.0, 1.0, -1.0))
    assert_allclose(spectrum_oracle(rho), [0.5, 0.5, 0.0, 0.0], atol=1e-14)
    assert mutual_information(rho) == pytest.approx(1.0, abs=1e-12)


def _non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    return m


def _non_psd_x_state():
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = m[3, 0] = 0.5  # |a14| > sqrt(d11 d44); both marginals stay I/2
    return m


INVALID_DENSITIES = {
    "non-Hermitian": _non_hermitian(),
    "trace 2": np.eye(4) / 2,
    "non-PSD diagonal": np.diag([0.5, 0.5, 0.5, -0.5]),
    "non-PSD X state": _non_psd_x_state(),
    "NaN entries": np.full((4, 4), np.nan),
    "one qubit": np.eye(2) / 2,
}


@pytest.mark.parametrize(
    "fn", [quantum_conditional_entropy, mutual_information, channel_capacity]
)
@pytest.mark.parametrize("kind", list(INVALID_DENSITIES))
def test_entropy_functions_reject_invalid_densities(fn, kind):
    # no up-front validate_density: the entropies of rho itself must catch these
    with pytest.raises(ValueError):
        fn(INVALID_DENSITIES[kind])


def test_holevo_examples():
    assert holevo_quantity(MIXED, SIGMA_Z) == pytest.approx(0.0, abs=1e-12)
    assert holevo_quantity(BELL, SIGMA_Z) == pytest.approx(1.0, abs=1e-12)
    got = holevo_quantity(FIG1, SIGMA_X)
    assert got == pytest.approx(holevo_oracle(FIG1, PX_ORACLE), abs=1e-12)
    assert got == pytest.approx(1.0 - h2(0.25), abs=1e-12)


def test_holevo_and_dephasing_stacks_equal_one_row_calls():
    # an N-row stack (the sum of its branches, as post_measurement_state dephases) equals N one-row
    # calls bitwise, and the oracles closely, on X states and on locally rotated (non-X) ones;
    # the Holevo columns of several bases from one call equal each basis's call alone
    rng = np.random.RandomState(661)
    x_states = [rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(60)]
    states = np.array(x_states + [locally_rotated(rng, rho) for rho in x_states[:20]])
    assert [is_x_patterned(rho) for rho in states] == [True] * 60 + [False] * 20
    s_memory, ok = measures.stacked_von_neumann_entropy(stacked_partial_trace(states, "B"))
    assert ok.all()
    bases = (SIGMA_X, SIGMA_Z, sigma_y_basis())
    columns, good = measures.stacked_holevo(states, bases, s_memory)
    assert len(columns) == 3 and good.all()
    for basis, column in zip(bases, columns):
        dephased = measures._branches(states, basis, summed=True)
        [holevo], good = measures.stacked_holevo(states, (basis,), s_memory)
        assert good.all() and np.array_equal(column, holevo)
        for rho, pm, h in zip(states, dephased, holevo):
            assert np.array_equal(pm, post_measurement_state(rho, basis))
            assert h == holevo_quantity(rho, basis)
            assert_allclose(pm, post_meas_oracle(rho, basis.projectors), atol=1e-15)
            assert h == pytest.approx(holevo_oracle(rho, basis.projectors), abs=1e-10)


def test_flagged_one_row_holevo_raises_the_dense_error():
    # the A = 1 branch is kept at probability 1e-11, which turns an allowed 9e-11
    # asymmetry of rho into one of 9 in the memory it leaves
    rho = np.diag([0.5, 0.5 - 1e-11, 0.5e-11, 0.5e-11]).astype(complex)
    rho[2, 3] = 0.9e-10
    branch = np.diag([0.0, 0.0, 1.0, 1.0]) @ rho @ np.diag([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(NotHermitianError) as dense:
        von_neumann_entropy(ptrace_oracle(branch, "B") / np.trace(branch).real)
    with pytest.raises(NotHermitianError) as err:
        holevo_quantity(rho, SIGMA_Z)
    assert str(err.value) == str(dense.value)
    assert "= 9.000e+00" in str(err.value)


def test_min_conditional_entropy_examples():
    assert min_conditional_entropy_over_measurements(BELL) == pytest.approx(0.0, abs=1e-9)
    assert min_conditional_entropy_over_measurements(MIXED) == pytest.approx(1.0, abs=1e-12)


def test_min_conditional_entropy_bell_diagonal_analytic():
    rng = np.random.RandomState(47)
    for _ in range(100):
        c = rand_bd_coeffs(rng)
        rho = bd_oracle(*c)
        expected = h2((1 + max(abs(x) for x in c)) / 2)
        for side in ("A", "B"):
            got = min_conditional_entropy_over_measurements(rho, side)
            assert got == pytest.approx(expected, abs=1e-9)


def test_optimizer_beats_coarse_oracle_grid():
    # the sweep minimum can never exceed any explicitly constructed measurement
    rng = np.random.RandomState(53)
    for _ in range(5):
        rho = rand_xstate_matrix(rng)
        got = min_conditional_entropy_over_measurements(rho, "B")
        coarse = min(
            avg_branch_entropy_oracle(rho, th, ph, "B")
            for th in np.linspace(0, math.pi, 31)
            for ph in np.linspace(0, 2 * math.pi, 61)
        )
        assert got <= coarse + 1e-10


def test_classical_correlation_examples():
    product = np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2).astype(complex)
    assert classical_correlation(product) == pytest.approx(0.0, abs=1e-9)
    assert classical_correlation(BELL) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.RandomState(59)
    for _ in range(20):
        c = rand_bd_coeffs(rng)
        expected = 1.0 - h2((1 + max(abs(x) for x in c)) / 2)
        assert classical_correlation(bd_oracle(*c)) == pytest.approx(expected, abs=1e-9)


def test_quantum_discord_examples():
    cc_state = np.diag([0.35, 0.15, 0.15, 0.35]).astype(complex)  # classical-classical
    assert quantum_discord(cc_state) == pytest.approx(0.0, abs=1e-9)
    assert quantum_discord(BELL) == pytest.approx(1.0, abs=1e-9)


def test_discord_is_mutual_minus_classical():
    rng = np.random.RandomState(61)
    for _ in range(10):
        rho = rand_xstate_matrix(rng)
        d = quantum_discord(rho, "A")
        expected = mutual_information(rho) - classical_correlation(rho, "A")
        assert d == pytest.approx(max(0.0, expected), abs=1e-12)


def test_discord_closed_form_trivial_cases():
    product = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    assert discord_xstate_closed(product, von_neumann_entropy(product)) == pytest.approx(
        0.0, abs=1e-12)
    assert discord_xstate_closed(BELL, von_neumann_entropy(BELL)) == pytest.approx(1.0, abs=1e-9)


def test_discord_closed_form_vs_sweep():
    # closed form restricts the measurement family, so it can only overshoot;
    # log the worst observed gap instead of asserting equality
    rng = np.random.RandomState(67)
    worst = 0.0
    for _ in range(200):
        rho = rand_xstate_matrix(rng)
        closed = discord_xstate_closed(rho, von_neumann_entropy(rho))
        numeric = quantum_discord(rho, measured_side="B")
        assert closed >= numeric - 1e-8
        worst = max(worst, abs(closed - numeric))
    print(f"\nclosed-form discord: max |closed - sweep| over 200 X states = {worst:.3e}")


def test_discord_bounded_by_mutual_information():
    rng = np.random.RandomState(71)
    for _ in range(20):
        rho = rand_xstate_matrix(rng)
        for side in ("A", "B"):
            d = quantum_discord(rho, side)
            assert -1e-12 <= d <= mutual_information(rho) + 1e-9


def test_measured_conditional_entropy_dominates_quantum():
    rng = np.random.RandomState(73)
    for _ in range(20):
        rho = rand_xstate_matrix(rng)
        for basis in (SIGMA_X, SIGMA_Z, sigma_y_basis()):
            measured = conditional_entropy_after_measurement(rho, basis)
            assert measured >= quantum_conditional_entropy(rho) - 1e-9


def test_holevo_bounded_by_memory_entropy():
    rng = np.random.RandomState(79)
    for _ in range(20):
        rho = rand_xstate_matrix(rng)
        s_mem = von_neumann_entropy(np.asarray(rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)))
        for basis in (SIGMA_X, SIGMA_Z):
            h = holevo_quantity(rho, basis)
            assert -1e-9 <= h <= s_mem + 1e-9 <= 1.0 + 1e-9


def test_bell_diagonal_optimum_on_pauli_axis():
    rng = np.random.RandomState(83)
    axes = (SIGMA_X, sigma_y_basis(), SIGMA_Z)
    for _ in range(50):
        c = rand_bd_coeffs(rng)
        rho = bd_oracle(*c)
        got = min_conditional_entropy_over_measurements(rho, "A")
        best_axis = min(
            avg_branch_entropy_oracle(rho, th, ph, "A")
            for th, ph in ((math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0))
        )
        assert abs(got - best_axis) <= 1e-9


def test_min_entropy_invariant_under_local_pauli_rotation():
    # conjugating the measured qubit by the Hadamard-like x<->z swap must not
    # change the optimized value: the X path on rho against the 2-D oracle search on
    # the rotated state, which is not X-shaped
    had = (PAULI_X + PAULI_Z) / math.sqrt(2)
    big = np.kron(had, np.eye(2)).astype(complex)
    rng = np.random.RandomState(89)
    for _ in range(10):
        rho = rand_xstate_matrix(rng, real=True)
        rotated = big @ rho @ big.conj().T
        assert not is_x_patterned(rotated)
        a = min_conditional_entropy_over_measurements(rho, "A")
        b, _, _ = minimize_dense_oracle(cross_moments_oracle(rotated[None], "A"))
        assert a == pytest.approx(b, abs=1e-9)


def test_mutual_information_matches_oracle():
    rng = np.random.RandomState(97)
    for _ in range(20):
        rho = rand_xstate_matrix(rng)
        assert mutual_information(rho) == pytest.approx(mutual_oracle(rho), abs=1e-11)


def _complex_x_states(seed, count):
    rng = np.random.RandomState(seed)
    return [rand_xstate_matrix(rng) for _ in range(count)]


def test_x_state_path_matches_dense_path():
    # the one-parameter X-state optimizer against the 2-D oracle search over both angles;
    # one stack of states gets bitwise what each state gets alone
    states = np.array(_complex_x_states(101, 300))
    for side in ("A", "B"):
        stacked = measures._minimize_x_states(measures._x_moments(states, side))
        chunked = measures.stacked_measurement_minima(states, side)  # _GRID_ROWS at a time
        assert chunked == [value for value, _, _ in stacked]
        for i, (rho, (x_value, _, _)) in enumerate(zip(states, stacked)):
            if i < 100:
                assert x_value == min_conditional_entropy_over_measurements(rho, side)
            dense_value, _, _ = minimize_dense_oracle(cross_moments_oracle(rho[None], side))
            assert abs(x_value - dense_value) <= 1e-12


def _steer_rows(ops, states):
    """Each state steered by its own operator: one ``channels._steer`` call per row."""
    steered = [channels._steer(op, states[i:i + 1]) for i, op in enumerate(ops)]
    return np.concatenate([s for s, _ in steered]), np.concatenate([k for _, k in steered])


def _grid_bits(grid):
    return np.ascontiguousarray(grid).view(np.int64)


def _evolved_states(rng, stacks):
    """``stacks`` random Bell-diagonal states, AD and BPF in turn, each evolved over a
    21-point grid, every third stack then weak-steered row by row: one list of X states."""
    states = []
    for k in range(stacks):
        family = ("AD", "BPF")[k % 2]
        evolved, ok = channels._evolve(family, bd_oracle(*rand_bd_coeffs(rng)),
                                       np.linspace(0.0, 1.0, 21))
        assert ok.all()
        if k % 3 == 2:
            ops = np.array([channels.weak_op(s).operator for s in rng.uniform(0.0, 0.9, 21)])
            evolved, kept = _steer_rows(ops, evolved)
            assert kept.all()
        states += list(evolved)
    return states


def test_x_moments_are_the_general_moments_that_are_not_zero():
    # an X state's six moments, read from its entries, are the six columns of the general
    # moments that are not exact zeros, and the optimizer gives each row the value and theta
    # bits of those columns (phi up to the sign of a zero): random complex X states and
    # evolved AD and BPF stacks, measured on either side
    rng = np.random.RandomState(3109)
    states = np.array(_evolved_states(rng, 12) + [rand_xstate_matrix(rng) for _ in range(120)])
    for side in ("A", "B"):
        general = cross_moments_oracle(states, side)
        assert not np.any([general.b01, *general.r00[:2], *general.r11[:2], general.r01[2]])
        columns = measures._XMoments(general.b00, general.b11, general.r00[2], general.r11[2],
                                     general.r01[0], general.r01[1])
        got = np.array(measures._minimize_x_states(measures._x_moments(states, side)))
        want = np.array(measures._minimize_x_states(columns))
        assert np.array_equal(_grid_bits(got[:, :2]), _grid_bits(want[:, :2]))
        assert np.array_equal(got[:, 2], want[:, 2])


def test_off_x_residue_within_the_tolerance_is_not_measured():
    # a state whose entries off the X pattern are at most X_PATTERN_ATOL passes as X-shaped,
    # and the optimizer measures its exact X projection, as stacked_density_spectra reads
    # its spectrum: the residue would move the general moments' minimum in the last bits
    rng = np.random.RandomState(113)
    for rho in _complex_x_states(113, 20):
        upper = np.triu(np.exp(2j * math.pi * rng.uniform(size=(4, 4))), 1) * (X_PATTERN == 0)
        residue = 0.9 * X_PATTERN_ATOL * (upper + upper.conj().T)
        assert is_x_patterned(rho + residue)
        for side in ("A", "B"):
            assert (min_conditional_entropy_over_measurements(rho + residue, side)
                    == min_conditional_entropy_over_measurements(rho, side))


def test_both_grids_equal_the_per_sign_loop_bitwise():
    # both outcome signs in one pass give each element the operations of its sign's own
    # pass, and the terms the six X moments drop are exact zeros, so the X grid of a stack,
    # of each row alone, and the dense grid equal the per-sign loop on the general moments
    # bit for bit, signed zeros included (the X grid's 93 columns: 91 angles and the
    # endpoint guard's two probes; the dense grid is the 2-D oracle's); evolved
    # Bell-diagonal states (one in three weak-steered), random complex X states and pure,
    # product and mixed edges
    rng = np.random.RandomState(2707)
    states = _evolved_states(rng, 12)
    states += [rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(40)]
    states += [BELL, MIXED, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), bd_oracle(1, 1, -1)]
    states = np.array(states)
    for side in ("A", "B"):
        mom = measures._x_moments(states, side)
        phis = measures._x_state_azimuths(mom)
        cos_phi = np.array([math.cos(phi) for phi in phis])[:, None]
        sin_phi = np.array([math.sin(phi) for phi in phis])[:, None]
        nx, ny, nz = measures._X_SIN_T * cos_phi, measures._X_SIN_T * sin_phi, measures._X_COS_T
        grid = measures._avg_branch_entropy_grid(mom, nx, ny, nz)
        assert grid.shape == (len(states), 93)
        general = cross_moments_oracle(states, side)
        assert np.array_equal(_grid_bits(grid),
                              _grid_bits(avg_branch_entropy_grid_oracle(general, nx, ny, nz)))
        for i in range(0, len(states), 7):  # a row alone equals its row of the stack
            one = measures._x_moments(states[i:i + 1], side)
            alone = measures._avg_branch_entropy_grid(one, nx[i:i + 1], ny[i:i + 1], nz)
            assert np.array_equal(_grid_bits(alone), _grid_bits(grid[i:i + 1]))
        for rho in (states[3], states[253], states[-1]):
            one = measures._x_moments(rho[None], side)
            dense = dense_grid_oracle()[2:]
            got = measures._avg_branch_entropy_grid(one, *dense)
            assert got.shape == (181, 180)
            assert np.array_equal(_grid_bits(got), _grid_bits(avg_branch_entropy_grid_oracle(
                cross_moments_oracle(rho[None], side), *dense)))


def test_x_state_path_beats_coarse_oracle_grid():
    coarse = [
        (th, ph)
        for th in np.linspace(0.0, math.pi, 5)
        for ph in np.linspace(0.0, math.pi, 4, endpoint=False)
    ]
    for rho in _complex_x_states(101, 300):
        assert is_x_patterned(rho)
        for side in ("A", "B"):
            mom = measures._x_moments(rho[None], side)
            [(value, theta, phi)] = measures._minimize_x_states(mom)
            best = min(avg_branch_entropy_oracle(rho, th, ph, side) for th, ph in coarse)
            assert value <= best + 1e-12
            # the measurement found attains the value found
            attained = avg_branch_entropy_oracle(rho, theta, phi, side)
            assert abs(attained - value) <= 1e-12


def _profile(m, phi, thetas):
    """The optimizer's one formula on one state's Python-number moments at phi, at each
    of ``thetas``."""
    thetas = np.asarray(thetas)
    directions = np.sin(thetas) * math.cos(phi), np.sin(thetas) * math.sin(phi), np.cos(thetas)
    return measures._avg_branch_entropy_grid(m, *directions).ravel().tolist()


def _endpoints(m, phi):
    """The z (theta = 0) and equatorial (theta = pi/2) values of ``_profile``."""
    return _profile(m, phi, [0.0, 0.5 * math.pi])


def test_x_state_minimum_never_exceeds_its_exact_endpoints():
    # the z (theta = 0) and equatorial (theta = pi/2) measurements are evaluated
    # exactly; the golden section near an endpoint can stop a rounding step above
    # that exact value (14 of these 88 rows), and the minimum must not report it
    rng = np.random.RandomState(5)
    states = np.array([
        channels.apply_one_sided(
            channels.noise_kraus(family, float(rng.uniform(0.0, 1.0))),
            bd_oracle(*rand_bd_coeffs(rng)),
        )
        for family in ("AD", "BPF")
        for _ in range(22)
    ])
    for side in ("A", "B"):
        mom = measures._x_moments(states, side)
        for i, (value, _, phi) in enumerate(measures._minimize_x_states(mom)):
            along_z, in_plane = _endpoints(mom.row(i), phi)
            assert value <= along_z
            assert value <= in_plane


def test_a_flat_profile_reports_no_more_than_its_exact_endpoints():
    # every measurement of a product state leaves the other qubit alone, so the average
    # branch entropy is flat in theta up to rounding: the grid's minimum lands inside, and
    # the refinement there can stop a rounding step above the exact endpoint values (7 of
    # these 400 rows), which the minimum must not report
    rng = np.random.RandomState(9)
    states = np.array([np.kron(np.diag([a, 1.0 - a]), np.diag([b, 1.0 - b]))
                       for a, b in rng.uniform(0.0, 1.0, (200, 2))], dtype=complex)
    for side in ("A", "B"):
        mom = measures._x_moments(states, side)
        for i, (value, _, phi) in enumerate(measures._minimize_x_states(mom)):
            along_z, in_plane = _endpoints(mom.row(i), phi)
            assert value <= along_z
            assert value <= in_plane


def test_endpoint_guard_refines_a_minimum_half_a_step_inside():
    # measured on B, this state's minimum lies 0.4997 degrees from theta = 0 and 3.0e-7
    # below it: the 1-degree grid's smallest value is the endpoint's, and only the guard's
    # probe half a step inside sees the dip (found by scaling the coherences of a
    # Dirichlet(0.3) state until its interior minimum came that close)
    rho = np.diag([6.779e-06, 0.99734996, 1.6043e-05, 0.002627218]).astype(complex)
    rho[0, 3] = rho[3, 0] = 1.1067e-05
    rho[1, 2] = rho[2, 1] = 0.0036169
    mom = measures._x_moments(rho[None], "B")
    [(value, theta, phi)] = measures._minimize_x_states(mom)
    m = mom.row(0)
    on_grid = _profile(m, phi, measures._X_THETAS[:91])
    assert on_grid.index(min(on_grid)) == 0
    assert 0.35 < math.degrees(theta) < 0.7
    dense_value, _, _ = minimize_dense_oracle(cross_moments_oracle(rho[None], "B"))
    assert abs(value - dense_value) <= 1e-12
    assert value < on_grid[0] and value < on_grid[-1]


def test_rows_that_skip_the_refinement_sit_at_the_50_digit_endpoint(monkeypatch):
    # a row whose grid minimum is at an endpoint, stationary there, reports the smaller
    # exact endpoint value: within 4 ulps of 1 (each entropy term is of order 1) of the
    # 50-digit value, on the errata grids (fig1's coefficients and the AD edge) and on
    # seeded rows of both channels
    rng = np.random.RandomState(5)
    grid = np.linspace(0.0, 1.0, 101)
    stacks = [
        channels._evolve(channel, bell_diagonal_density(BellDiagonalCoeffs(*coeffs)), grid)[0]
        for channel, coeffs in (("AD", (-0.5, 0.4, 0.8)), ("BPF", (-0.5, 0.4, 0.8)),
                                ("AD", (1.0, 1.0, -1.0)))
    ]
    stacks.append([
        channels.apply_one_sided(
            channels.noise_kraus(family, float(rng.uniform(0.0, 1.0))),
            bd_oracle(*rand_bd_coeffs(rng)),
        )
        for family in ("AD", "BPF")
        for _ in range(22)
    ])
    refinements = []
    golden_section = measures._golden_section
    monkeypatch.setattr(measures, "_golden_section",
                        lambda *args: refinements.append(args) or golden_section(*args))
    skipped = rows = 0
    for rho in (rho for stack in stacks for rho in stack):
        for side in ("A", "B"):
            refinements.clear()
            [(value, _, _)] = measures._minimize_x_states(measures._x_moments(rho[None], side))
            rows += 1
            if not refinements:
                skipped += 1
                exact = min(endpoint_entropies_oracle(rho, side))
                assert abs(value - exact) <= 4 * math.ulp(1.0)
    assert skipped >= 0.9 * rows


def test_non_x_state_is_refused_by_the_optimizer():
    # a Hadamard on the measured qubit turns an X state into a valid state that is not
    # X-shaped; every route to the optimizer refuses it with one text, and the fixed-basis
    # quantities still take it
    had = (PAULI_X + PAULI_Z) / math.sqrt(2)
    routes = (
        measures._minimize_avg_branch_entropy,
        min_conditional_entropy_over_measurements,
        classical_correlation,
        quantum_discord,
    )
    for side, big in (("A", np.kron(had, np.eye(2))), ("B", np.kron(np.eye(2), had))):
        for rho in _complex_x_states(103, 5):
            rotated = big @ rho @ big.conj().T
            assert not is_x_patterned(rotated)
            for route in routes:
                with pytest.raises(ValueError) as err:
                    route(rotated, side)
                assert str(err.value) == OPTIMIZER_REFUSAL
            assert mutual_information(rotated) == pytest.approx(mutual_oracle(rotated), abs=1e-11)


def _sandwich_only(direction):
    """The measurement along ``direction`` with its masks taken away, so its branches are
    projector sandwiches."""
    plain = measures._Basis(direction)
    plain.branch_masks = None
    return plain


def test_only_zero_one_diagonal_bases_dephase_by_mask():
    z = SIGMA_Z
    # outcome 0 keeps the |0>_A block of a state, outcome 1 the |1>_A block
    blocks = [np.kron(np.diag(d), np.ones((2, 2))) for d in ([1.0, 0.0], [0.0, 1.0])]
    assert np.array_equal(z.branch_masks, blocks)
    # the dephasing, the sum of both branches, keeps both blocks
    assert np.array_equal(z.branch_masks.sum(axis=0), np.kron(np.eye(2), np.ones((2, 2))))
    # sigma_x's diagonal carries cos(pi/2) = 6.1e-17, and sigma_y's projectors are not diagonal
    for basis in (SIGMA_X, sigma_y_basis(), _along(1e-9, 0.0)):
        assert basis.branch_masks is None


def test_sigma_z_mask_dephasing_equals_the_projector_sandwich():
    # equal under == (only the sign of an exact zero may differ), with the same rows
    # flagged, on random non-X states, evolved and steered X states and infinite entries
    rng = np.random.RandomState(677)
    x_states = [rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(40)]
    rotated = [locally_rotated(rng, rho) for rho in x_states]
    evolved = []
    for family in ("AD", "BPF"):
        states, ok = channels._evolve(family, bd_oracle(*rand_bd_coeffs(rng)),
                                      np.linspace(0.0, 1.0, 21))
        assert ok.all()
        ops = np.array([channels.weak_op(s).operator for s in rng.uniform(0.0, 0.99, 21)])
        steered, kept = _steer_rows(ops, states)
        assert kept.all()
        evolved += [*states, *steered]
    kept_inf, dropped_inf = x_states[0].copy(), x_states[1].copy()
    kept_inf[1, 1] = np.inf  # an entry the mask keeps, and one it multiplies by 0
    dropped_inf[0, 2] = np.inf
    states = np.array(x_states + rotated + evolved + [kept_inf, dropped_inf])
    z, sandwich = SIGMA_Z, _sandwich_only((0.0, 0.0, 1.0))
    finite = states[:-2]
    for masked, reference in zip(measures._branches(finite, z),
                                 measures._branches(finite, sandwich)):
        assert np.array_equal(masked, reference)
    masked, reference = (measures._branches(finite, b, summed=True) for b in (z, sandwich))
    assert np.array_equal(masked, reference)
    flags = stacked_density_spectra(masked)[1]
    assert np.array_equal(flags, stacked_density_spectra(reference)[1])
    assert flags.tolist() == [True] * 40 + [False] * 40 + [True] * 84
    for rho in finite[::7]:  # one (4, 4) state
        assert np.array_equal(measures._branches(rho, z, summed=True),
                              measures._branches(rho, sandwich, summed=True))
    # the guarded stacked u raises no warning on the infinite rows (warnings are errors
    # here) and flags only them; the non-X rows are flagged by S(AB), the state's own check
    q = bounds.PointQuantities._stack(states)
    u, good = bounds._stacked_u(states, q.s_b)
    assert good.tolist() == [True] * 164 + [False] * 2
    assert q.ok.tolist() == [True] * 40 + [False] * 40 + [True] * 84 + [False] * 2
    s_memory, ok = measures.stacked_von_neumann_entropy(stacked_partial_trace(states[:-2], "B"))
    assert ok.all()
    [holevo], good = measures.stacked_holevo(states[:-2], (z,), s_memory)
    [ref_holevo], ref_good = measures.stacked_holevo(states[:-2], (sandwich,), s_memory)
    assert np.array_equal(holevo, ref_holevo) and np.array_equal(good, ref_good)
    assert good.all()


def _float_bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_one_log2_call_gives_each_spectrum_its_own_bits():
    # np.log2 gives the same bits at any position of its array, so the entropies of many
    # spectra from one call are each spectrum's alone and the stack's, zero eigenvalues and
    # a 1x1 matrix included, in any order and past numpy's vector width
    rng = np.random.RandomState(5501)
    # (0.7656, 0.2344) is a spectrum on which math.log2 and np.log2 differ in the last bit
    matrices = [np.eye(1, dtype=complex), np.diag([1.0, 0.0]).astype(complex), BELL, MIXED,
                FIG1, stacked_partial_trace(FIG1, "B"), np.diag([1 - 0.2344, 0.2344]) + 0j]
    matrices += [rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(30)]
    matrices += [stacked_partial_trace(m, "B") for m in matrices[-10:]]
    spectra = [measures._probabilities(linalg._spectrum(m.tolist())) for m in matrices]
    together = measures._entropies(spectra)
    alone = [measures._entropies([p])[0] for p in spectra]
    assert _float_bits(together) == _float_bits(alone)
    assert _float_bits(measures._entropies(spectra[::-1])) == _float_bits(together[::-1])
    assert _float_bits([von_neumann_entropy(m) for m in matrices]) == _float_bits(together)
    for m, entropy in zip(matrices[1:], together[1:]):  # the stack takes 2x2 and 4x4 only
        stacked, ok = measures.stacked_von_neumann_entropy(m[None])
        assert ok[0] and _float_bits(stacked) == _float_bits([entropy])
    assert together[:4] == [0.0, 0.0, 0.0, 2.0]
