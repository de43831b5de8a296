import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    PX_ORACLE,
    ad_ops_oracle,
    avg_branch_entropy_oracle,
    bd_oracle,
    cond_ent_oracle,
    entropy_oracle,
    evolve_oracle,
    h2,
    holevo_oracle,
    mutual_oracle,
    post_meas_oracle,
    rand_bd_coeffs,
    rand_xstate_matrix,
    shannon_oracle,
    sigma_y_basis,
    spectrum_oracle,
)
from entropic_uncertainty import measures
from entropic_uncertainty.applications import channel_capacity
from entropic_uncertainty.linalg import PAULI_X, PAULI_Z, is_x_patterned
from entropic_uncertainty.measures import (
    BlochDirection,
    ProjectiveBasis,
    binary_entropy,
    bloch_basis,
    classical_correlation,
    conditional_entropy_after_measurement,
    discord_xstate_closed,
    holevo_quantity,
    min_conditional_entropy_over_measurements,
    mutual_information,
    post_measurement_state,
    quantum_conditional_entropy,
    quantum_discord,
    shannon_entropy,
    sigma_x_basis,
    sigma_z_basis,
    von_neumann_entropy,
)
from entropic_uncertainty.states import as_xstate

BELL = bd_oracle(1.0, -1.0, 1.0)
FIG1 = bd_oracle(-0.5, 0.4, 0.8)
MIXED = np.eye(4, dtype=complex) / 4

# frozen by direct high-precision summation of -sum p log2 p
H4_FIG1 = 1.2802737180484143


def test_shannon_entropy_examples():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    got = shannon_entropy([0.675, 0.225, 0.075, 0.025])
    assert got == pytest.approx(H4_FIG1, abs=1e-12)
    assert got == pytest.approx(shannon_oracle([0.675, 0.225, 0.075, 0.025]), abs=1e-14)


def test_shannon_entropy_errors():
    with pytest.raises(ValueError, match="negative"):
        shannon_entropy([1.1, -0.1])
    with pytest.raises(ValueError, match="sum"):
        shannon_entropy([0.4, 0.4])


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.9) == pytest.approx(h2(0.9), abs=1e-15)


def test_von_neumann_entropy_examples():
    assert von_neumann_entropy(BELL) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(MIXED) == pytest.approx(2.0, abs=1e-15)
    assert von_neumann_entropy(FIG1) == pytest.approx(H4_FIG1, abs=1e-12)
    assert von_neumann_entropy(FIG1) == pytest.approx(entropy_oracle(FIG1), abs=1e-12)


def test_projective_basis_validation():
    with pytest.raises(ValueError, match="idempotent"):
        ProjectiveBasis(projectors=(0.5 * np.eye(2), 0.5 * np.eye(2)))
    with pytest.raises(ValueError, match="sum to identity"):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        ProjectiveBasis(projectors=(p, p))


def test_pauli_bases():
    bx = sigma_x_basis()
    assert_allclose(bx.projectors[0], 0.5 * (np.eye(2) + PAULI_X), atol=1e-15)
    bz = sigma_z_basis()
    assert_allclose(bz.projectors[0], np.diag([1.0, 0.0]).astype(complex), atol=1e-15)
    by = sigma_y_basis()
    assert_allclose(by.projectors[0] + by.projectors[1], np.eye(2), atol=1e-15)
    on_y_axis = bloch_basis(BlochDirection(math.pi / 2, math.pi / 2))
    assert_allclose(on_y_axis.projectors, by.projectors, atol=1e-15)


def test_bloch_direction_validation():
    with pytest.raises(ValueError):
        BlochDirection(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochDirection(0.1, 7.0)


def test_post_measurement_maximally_mixed():
    for basis in (sigma_x_basis(), sigma_z_basis(), sigma_y_basis()):
        assert_allclose(post_measurement_state(MIXED, basis), MIXED, atol=1e-15)


def test_post_measurement_bell_sigma_z():
    out = post_measurement_state(BELL, sigma_z_basis())
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert_allclose(out, expected, atol=1e-15)


def test_post_measurement_ad_evolved_pair_structure():
    # sigma_x dephasing of the damped state gives doubly degenerate pairs 1/4 +/- delta
    d = 0.37
    rho = evolve_oracle(ad_ops_oracle(d), FIG1)
    out = post_measurement_state(rho, sigma_x_basis())
    assert_allclose(out, post_meas_oracle(rho, PX_ORACLE), atol=1e-14)
    spec = spectrum_oracle(out)
    w = 0.5 * math.sqrt(1 - d)  # |c1| sqrt(1 - d)
    assert_allclose(spec, [0.25 * (1 + w)] * 2 + [0.25 * (1 - w)] * 2, atol=1e-12)


def test_conditional_entropy_after_measurement_examples():
    assert conditional_entropy_after_measurement(BELL, sigma_z_basis()) == pytest.approx(
        0.0, abs=1e-12
    )
    assert conditional_entropy_after_measurement(MIXED, sigma_z_basis()) == pytest.approx(
        1.0, abs=1e-12
    )
    got = conditional_entropy_after_measurement(FIG1, sigma_x_basis())
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
    assert holevo_quantity(MIXED, sigma_z_basis()) == pytest.approx(0.0, abs=1e-12)
    assert holevo_quantity(BELL, sigma_z_basis()) == pytest.approx(1.0, abs=1e-12)
    got = holevo_quantity(FIG1, sigma_x_basis())
    assert got == pytest.approx(holevo_oracle(FIG1, PX_ORACLE), abs=1e-12)
    assert got == pytest.approx(1.0 - h2(0.25), abs=1e-12)


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
    assert discord_xstate_closed(as_xstate(product)) == pytest.approx(0.0, abs=1e-12)
    assert discord_xstate_closed(as_xstate(BELL)) == pytest.approx(1.0, abs=1e-9)


def test_discord_closed_form_vs_sweep():
    # closed form restricts the measurement family, so it can only overshoot;
    # log the worst observed gap instead of asserting equality
    rng = np.random.RandomState(67)
    worst = 0.0
    for _ in range(200):
        rho = rand_xstate_matrix(rng)
        closed = discord_xstate_closed(as_xstate(rho))
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
        for basis in (sigma_x_basis(), sigma_z_basis(), sigma_y_basis()):
            measured = conditional_entropy_after_measurement(rho, basis)
            assert measured >= quantum_conditional_entropy(rho) - 1e-9


def test_holevo_bounded_by_memory_entropy():
    rng = np.random.RandomState(79)
    for _ in range(20):
        rho = rand_xstate_matrix(rng)
        s_mem = von_neumann_entropy(np.asarray(rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)))
        for basis in (sigma_x_basis(), sigma_z_basis()):
            h = holevo_quantity(rho, basis)
            assert -1e-9 <= h <= s_mem + 1e-9 <= 1.0 + 1e-9


def test_bell_diagonal_optimum_on_pauli_axis():
    rng = np.random.RandomState(83)
    axes = (sigma_x_basis(), sigma_y_basis(), sigma_z_basis())
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
    # change the optimized value
    had = (PAULI_X + PAULI_Z) / math.sqrt(2)
    big = np.kron(had, np.eye(2)).astype(complex)
    rng = np.random.RandomState(89)
    for _ in range(10):
        rho = rand_xstate_matrix(rng, real=True)
        rotated = big @ rho @ big.conj().T
        a = min_conditional_entropy_over_measurements(rho, "A")
        b = min_conditional_entropy_over_measurements(rotated, "A")
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
    # the one-parameter X-state optimizer against the dense 2-D grid it replaces;
    # one stack of states gets bitwise what each state gets alone
    states = np.array(_complex_x_states(101, 300))
    for side in ("A", "B"):
        stacked = measures._minimize_x_states(measures._cross_moments(states, side))
        chunked = measures.stacked_measurement_minima(states, side)  # _GRID_ROWS at a time
        assert chunked == [value for value, _, _ in stacked]
        for i, (rho, (x_value, _, _)) in enumerate(zip(states, stacked)):
            if i < 100:
                assert x_value == min_conditional_entropy_over_measurements(rho, side)
            dense_value, _, _ = measures._minimize_dense(measures._cross_moments(rho[None], side))
            assert abs(x_value - dense_value) <= 1e-12


def test_x_state_path_beats_coarse_oracle_grid():
    coarse = [
        (th, ph)
        for th in np.linspace(0.0, math.pi, 5)
        for ph in np.linspace(0.0, math.pi, 4, endpoint=False)
    ]
    for rho in _complex_x_states(101, 300):
        assert is_x_patterned(rho)
        for side in ("A", "B"):
            mom = measures._cross_moments(rho[None], side)
            [(value, theta, phi)] = measures._minimize_x_states(mom)
            best = min(avg_branch_entropy_oracle(rho, th, ph, side) for th, ph in coarse)
            assert value <= best + 1e-12
            # the measurement found attains the value found
            attained = avg_branch_entropy_oracle(rho, theta, phi, side)
            assert abs(attained - value) <= 1e-12


def test_non_x_state_takes_dense_path(monkeypatch):
    dense_calls = []
    dense = measures._minimize_dense

    def spy(mom):
        dense_calls.append(dense(mom))
        return dense_calls[-1]

    monkeypatch.setattr(measures, "_minimize_dense", spy)
    had = (PAULI_X + PAULI_Z) / math.sqrt(2)
    for side, big in (("A", np.kron(had, np.eye(2))), ("B", np.kron(np.eye(2), had))):
        for rho in _complex_x_states(103, 5):
            value = measures._minimize_avg_branch_entropy(rho, side)
            assert not dense_calls
            rotated = big @ rho @ big.conj().T
            assert not is_x_patterned(rotated)
            rotated_value = measures._minimize_avg_branch_entropy(rotated, side)
            [(dense_value, theta, phi)] = dense_calls
            dense_calls.clear()
            assert dense_value == rotated_value
            # a local unitary on the measured qubit relabels the measurements
            assert abs(rotated_value - value) <= 1e-12
            attained = avg_branch_entropy_oracle(rotated, theta, phi, side)
            assert abs(attained - rotated_value) <= 1e-12
