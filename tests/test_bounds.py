import math

import numpy as np
import pytest

from conftest import (
    OPTIMIZER_REFUSAL,
    ad_closed_form_spectrum,
    ad_ops_oracle,
    bd_oracle,
    bpf_ops_oracle,
    entropy_oracle,
    evolve_oracle,
    locally_rotated,
    rand_bd_coeffs,
    rand_xstate_matrix,
    spectrum_oracle,
    spmc_satisfied,
    u_oracle,
)
from entropic_uncertainty import bounds, linalg, measures
from entropic_uncertainty.applications import channel_capacity
from entropic_uncertainty.bounds import (
    BoundReport,
    PointQuantities,
    ad_closed_form_u,
    berta_bound,
    bound_report,
    bpf_closed_form_spectrum,
    bpf_closed_forms,
    complementarity_c,
    uncertainty_lhs,
)
from entropic_uncertainty.channels import ad_kraus, apply_one_sided, apply_steering, weak_op
from entropic_uncertainty.linalg import (
    NotHermitianError,
    density_spectrum,
    partial_trace,
    stacked_partial_trace,
)
from entropic_uncertainty.measures import (
    SIGMA_X,
    SIGMA_Z,
    classical_correlation,
    conditional_entropy_after_measurement,
    holevo_quantity,
    min_conditional_entropy_over_measurements,
    mutual_information,
    post_measurement_state,
    quantum_conditional_entropy,
    quantum_discord,
    stacked_von_neumann_entropy,
    von_neumann_entropy,
)
from entropic_uncertainty.states import BellDiagonalCoeffs

BELL = bd_oracle(1.0, -1.0, 1.0)
FIG1 = bd_oracle(-0.5, 0.4, 0.8)
MIXED = np.eye(4, dtype=complex) / 4
BX, BZ = SIGMA_X, SIGMA_Z


def test_complementarity_x_z():
    assert complementarity_c(BX, BZ) == pytest.approx(0.5, abs=1e-12)


def test_complementarity_identical_bases():
    assert complementarity_c(BZ, BZ) == pytest.approx(1.0, abs=1e-12)


def test_complementarity_sixty_degrees():
    tilted = measures._Basis((math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)))
    assert complementarity_c(BZ, tilted) == pytest.approx(0.75, abs=1e-12)


def test_uncertainty_lhs_examples():
    assert uncertainty_lhs(BELL) == pytest.approx(0.0, abs=1e-12)
    assert uncertainty_lhs(MIXED) == pytest.approx(2.0, abs=1e-12)
    assert uncertainty_lhs(FIG1) == pytest.approx(u_oracle(FIG1), abs=1e-12)


# --- the per-point chain: spectrum -> entropy -> uncertainty_lhs ---------------------

CHAIN = {
    "density_spectrum": density_spectrum,
    "von_neumann_entropy": von_neumann_entropy,
    "conditional_entropy_after_measurement": lambda m: conditional_entropy_after_measurement(m, BX),
    "uncertainty_lhs": uncertainty_lhs,
}


def _state(diagonal, entries=()):
    m = np.diag(diagonal).astype(complex)
    for (i, j), v in entries:
        m[i, j] = v
    return m


QUARTERS = (0.25,) * 4
NOT_PSD = "matrix is not positive semidefinite (eigenvalue {})"
# (state, the error each function of CHAIN raises, the functions that return a value
# instead); pinned from the chain before it checked each state once, so that moved no error
BAD_INPUTS = {
    "non-hermitian": (
        _state((0.4, 0.3, 0.2, 0.1), [((0, 3), 1e-3)]),
        (NotHermitianError, "matrix is not Hermitian (max |M - M^dagger| = 1.000e-03)"), ()),
    "non-psd": (_state((0.6, 0.5, 0.0, -0.1)), (ValueError, NOT_PSD.format("-1.000e-01")), ()),
    "nan-eigenvalue": (  # a + d overflows, and inf - inf is NaN
        _state((1e308, 0.0, 0.0, 1e308), [((0, 3), 1e308), ((3, 0), 1e308)]),
        (ValueError, NOT_PSD.format("nan")), ()),
    # Python's min over a list skips a NaN unless it comes first; numpy's min does not
    "nan-in-01-10-block": (
        _state((0.0, 1e308, 1e308, 0.0), [((1, 2), 1e308), ((2, 1), 1e308)]),
        (ValueError, NOT_PSD.format("nan")), ()),
    "nan-2x2": (_state((1e308, 1e308), [((0, 1), 1e308), ((1, 0), 1e308)]),
                (ValueError, NOT_PSD.format("nan")), ()),
    "trace-off": (
        _state((0.8, 0.6, 0.4, 0.2)),
        (ValueError, "matrix does not have unit trace (trace 1.9999999999999998)"), ()),
    "clamped-trace-off": (  # the spectrum passes; clamping it to [0, 1] moves the trace
        _state((0.5, 0.5 + 1.8e-9, -0.9e-9, -0.9e-9)),
        (ValueError, "probabilities sum to 1.0000000018000001, expected 1"),
        ("density_spectrum", "conditional_entropy_after_measurement")),
    "3x3": (np.eye(3, dtype=complex) / 3.0, (ValueError, "not a two-qubit state"),
            ("density_spectrum", "von_neumann_entropy")),
    "non-finite": (
        _state((0.4, 0.3, 0.2, 0.1), [((1, 1), np.inf)]),
        (ValueError, "matrix has non-finite entries"), ()),
    "huge-x-block": (
        _state(QUARTERS, [((0, 3), 1e308), ((3, 0), 1e308)]),
        (ValueError, NOT_PSD.format("-inf")), ()),
    "huge-diagonal": (_state((1e308, 0.0, 0.0, -1e308)), (ValueError, NOT_PSD.format("-inf")), ()),
    "huge-non-x": (  # Jacobi's symmetrization overflows
        _state(QUARTERS, [((0, 1), 1e308 + 1e308j), ((1, 0), 1e308 - 1e308j)]),
        (FloatingPointError, "overflow encountered in add"), ()),
}


@pytest.mark.parametrize(("m", "error", "returns"), BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_chain_errors_are_pinned(m, error, returns):
    kind, text = error
    for name, call in CHAIN.items():
        if name in returns:
            call(m)
            continue
        with pytest.raises(kind) as err:
            call(m)
        assert (type(err.value), str(err.value)) == (kind, text), name


# each value of one state's PointQuantities, and the one-state function it equals, value or error
ONE_STATE = {
    "u": uncertainty_lhs,
    "berta": lambda m: 1.0 + quantum_conditional_entropy(m),
    "mutual_information": mutual_information,
    "classical_correlation": classical_correlation,
    "discord": quantum_discord,
    "s_min": min_conditional_entropy_over_measurements,
    "holevo": lambda m: (holevo_quantity(m, BX), holevo_quantity(m, BZ)),
}


def _outcome(call, m):
    try:
        return "value", call(m)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


STACK = np.array([BELL, FIG1])


@pytest.mark.parametrize("m", [m for m, _, _ in BAD_INPUTS.values()] + [BELL, FIG1, MIXED, STACK],
                         ids=[*BAD_INPUTS, "bell", "fig1", "mixed", "stack"])
def test_point_quantities_are_the_one_state_functions(m):
    for name, call in ONE_STATE.items():
        assert _outcome(lambda m: getattr(PointQuantities(m), name), m) == _outcome(call, m), name


def test_a_stack_is_not_one_state():
    # only _stack reads a stack; the public entry points refuse one as they refuse any 3-D input
    for call in (berta_bound, channel_capacity, bound_report, lambda m: PointQuantities(m).u):
        assert _outcome(call, STACK) == (ValueError, "expected a 2-D matrix, got shape (2, 4, 4)")


@pytest.mark.parametrize("m", [np.eye(2) / 2, np.eye(3) / 3], ids=["2x2", "3x3"])
def test_s_ab_refuses_a_state_that_is_not_two_qubit(m):
    # von_neumann_entropy takes a density matrix of any size: s_ab returned 1.0 for the 2x2
    for name in ("s_ab", "s_a", "u", "berta"):
        with pytest.raises(ValueError, match="^not a two-qubit state$"):
            getattr(PointQuantities(m), name)


def test_s_ab_takes_one_spectrum(monkeypatch):
    # the shape check adds no spectrum pass to the one-state S(AB)
    calls = []

    def counted(e):
        calls.append(len(e))
        return real(e)

    real = linalg._spectrum
    monkeypatch.setattr(linalg, "_spectrum", counted)
    monkeypatch.setattr(measures, "_spectrum", counted)
    assert PointQuantities(FIG1).s_ab == von_neumann_entropy(FIG1)
    assert calls == [4, 4]  # s_ab's, then von_neumann_entropy's


def test_huge_asymmetric_entries_raise_without_a_warning():
    # 1e308 - conj(-1e308) overflows to inf as a Python number, with no numpy warning
    m = _state(QUARTERS, [((0, 3), 1e308), ((3, 0), -1e308)])
    for call in CHAIN.values():
        with pytest.raises(NotHermitianError, match=r"= inf\)$"):
            call(m)


def test_uncertainty_lhs_checks_the_state_once(monkeypatch):
    # linalg._spectrum is the one checked spectrum of the scalar chain; it takes the entries
    # as nested lists
    shapes = []

    def counted(e):
        shapes.append((len(e), len(e[0])))
        return real(e)

    real = linalg._spectrum
    monkeypatch.setattr(linalg, "_spectrum", counted)
    monkeypatch.setattr(measures, "_spectrum", counted)
    uncertainty_lhs(FIG1)
    # rho's own check only: the measured states and rho_B are 2x2 blocks in closed form
    assert shapes == [(4, 4)]


def _two_blocks(upper, lower):
    """The state with 2x2 blocks ``upper`` and ``lower`` on its diagonal, written as an X
    matrix ({|00>, |11>} and {|01>, |10>}), so that its spectrum is the blocks' closed forms."""
    m = np.zeros((4, 4), dtype=complex)
    for block, (i, j) in ((upper, (0, 3)), (lower, (1, 2))):
        m[np.ix_((i, j), (i, j))] = block
    return m


def test_uncertainty_lhs_reads_one_memory_entropy():
    # S(X|B) + S(Z|B) = S(rho_XB) + S(rho_ZB) - 2 S(rho_B), and measuring qubit A leaves
    # block-diagonal states: with R_ab rho's 2x2 block of rows {2a, 2a + 1} and columns
    # {2b, 2b + 1}, sigma_z leaves R00 and R11, sigma_x (R00 + R11 +/- (R01 + R10)) / 2 and
    # rho_B is R00 + R11.  The dense u is those blocks' entropies, bit for bit
    rng = np.random.RandomState(1031)
    states = [rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(30)]
    for d in (0.0, 0.37, 1.0):
        states.append(apply_one_sided(ad_kraus(d), FIG1))
    for rho in states:
        r00, r01, r10, r11 = rho[:2, :2], rho[:2, 2:], rho[2:, :2], rho[2:, 2:]
        memory = r00 + r11
        jx = von_neumann_entropy(_two_blocks(0.5 * (memory + (r01 + r10)),
                                             0.5 * (memory - (r01 + r10))))
        jz = von_neumann_entropy(_two_blocks(r00, r11))
        s_b = von_neumann_entropy(memory)
        u = uncertainty_lhs(rho)
        assert _bits(u) == _bits((jx - s_b) + (jz - s_b))
        assert s_b == von_neumann_entropy(partial_trace(rho, "B"))
        # the dephased states' own spectra, with sigma_x's 6.1e-17 projector bits, differ by
        # at most 4 ulps of 1 (measured on 2400 evolved AD and BPF states)
        jx, jz = (von_neumann_entropy(post_measurement_state(rho, b)) for b in bounds.BASES)
        assert abs(u - ((jx - s_b) + (jz - s_b))) <= 4 * np.spacing(1.0)
        assert u == pytest.approx(u_oracle(rho), abs=1e-12)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_one_state_entropy_sums_and_logs_as_the_stack():
    # numpy sums fewer than 8 float64 values from 0.0 left to right, and the scalar chain
    # writes that loop out; on these spectra a compensated sum (math.fsum, or the builtin sum
    # from Python 3.12 on) or math.log2 in place of np.log2 gives other bits
    trace_sum = _state((0.7, 0.1, 0.1, 0.1))
    entropy_sum = _state((0.05, 0.05, 0.25, 0.65))
    log2_memory = _state((1 - 0.2344, 0.2344))
    for m in (trace_sum, entropy_sum, log2_memory):
        stacked, ok = stacked_von_neumann_entropy(m[None])
        assert ok[0] and _bits(von_neumann_entropy(m)) == _bits(stacked[0])
    p = density_spectrum(trace_sum).tolist()
    assert (_left_to_right(p), math.fsum(p)) == (0.9999999999999999, 1.0)
    p = density_spectrum(entropy_sum)
    terms = (p * np.log2(p)).tolist()
    assert _left_to_right(terms) != math.fsum(terms)
    p = density_spectrum(log2_memory).tolist()
    assert -_left_to_right(x * math.log2(x) for x in p) != von_neumann_entropy(log2_memory)
    # within an ulp of the trace tolerance the sum order decides the check: the first state
    # fails left to right (trace 1.000000001) and passes by fsum, the second the other way
    fails = _state((0.8000000009999999, 0.11, 0.05, 0.04))
    passes = _state((0.710000001, 0.02, 0.09, 0.18))
    with pytest.raises(ValueError, match=r"unit trace \(trace 1\.000000001\)$"):
        von_neumann_entropy(fails)
    for m, dense_ok in ((fails, False), (passes, True)):
        p = linalg.hermitian_eigenvalues(m).tolist()
        assert (abs(math.fsum(p) - 1.0) <= linalg.TRACE_ATOL) != dense_ok
        stacked, ok = stacked_von_neumann_entropy(m[None])
        assert ok[0] == dense_ok
    assert _bits(von_neumann_entropy(passes)) == _bits(stacked[0])


def test_uncertainty_lhs_is_the_one_row_stack():
    rng = np.random.RandomState(1013)
    states = []
    for coeffs in [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0)] + [rand_bd_coeffs(rng) for _ in range(8)]:
        rho0 = bd_oracle(*coeffs)
        for ops in ([ad_ops_oracle(d) for d in (0.0, 0.37, 1.0)]
                    + [bpf_ops_oracle(p) for p in (0.0, 0.5, 1.0)]):
            evolved = evolve_oracle(ops, rho0)
            states += [evolved] + [apply_steering(weak_op(s), evolved) for s in (0.9, 0.999999)]
    states += [rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(40)]
    states = np.array(states)
    s_b, s_b_ok = stacked_von_neumann_entropy(stacked_partial_trace(states, "B"))
    us, ok = bounds._stacked_u(states, s_b)
    assert ok.all() and s_b_ok.all()
    for rho, u, memory in zip(states, us, s_b):
        one, one_ok = bounds._stacked_u(rho[None], np.array([memory]))
        assert one_ok[0]
        assert _bits(one[0]) == _bits(u) == _bits(uncertainty_lhs(rho))
        assert u == pytest.approx(u_oracle(rho), abs=1e-10)


def test_u_of_a_non_x_state_is_its_one_row_stack_without_jacobi(monkeypatch):
    # measuring qubit A leaves 2x2 blocks whatever the state: on locally rotated (non-X)
    # states the dense u is the one-row and the N-row stack bit for bit, and only rho's own
    # check, which is not X-shaped, runs Jacobi
    rng = np.random.RandomState(1049)
    states = [locally_rotated(rng, rand_xstate_matrix(rng, real=k % 2 == 0)) for k in range(30)]
    states += [locally_rotated(rng, apply_one_sided(ad_kraus(d), FIG1)) for d in (0.0, 0.37, 1.0)]
    states = np.array(states)
    assert not any(linalg.is_x_patterned(rho) for rho in states)
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return jacobi(m)

    jacobi = linalg.jacobi_eigenvalues
    monkeypatch.setattr(linalg, "jacobi_eigenvalues", counted)
    s_b, s_b_ok = stacked_von_neumann_entropy(stacked_partial_trace(states, "B"))
    us, ok = bounds._stacked_u(states, s_b)
    assert ok.all() and s_b_ok.all() and calls == []
    for rho, u, memory in zip(states, us, s_b):
        one, one_ok = bounds._stacked_u(rho[None], np.array([memory]))
        dense = uncertainty_lhs(rho)
        assert calls == [(4, 4)]
        calls.clear()
        assert one_ok[0] and _bits(one[0]) == _bits(u) == _bits(dense)
        assert dense == pytest.approx(u_oracle(rho), abs=1e-12)


def test_a_stack_with_an_infinite_row_flags_only_that_row():
    # the suite turns warnings into errors: u's blocks and the Holevo quantities' dephasings
    # must not warn on the infinite rows, which only fail their own checks
    rng = np.random.RandomState(1019)
    states = np.array([rand_xstate_matrix(rng, real=k % 2 == 0) for k in range(6)])
    states[2, 1, 1] = np.inf  # a diagonal entry, which the sigma_z mask keeps
    states[4, 0, 2] = np.inf  # an entry sigma_z's mask multiplies by 0
    q = PointQuantities._stack(states)
    u, holevo = q.u, q.holevo
    assert q.ok.tolist() == [True, True, False, True, False, True]
    for row in (0, 1, 3, 5):
        one = PointQuantities(states[row])
        assert u[row] == one.u
        assert (holevo[0][row], holevo[1][row]) == one.holevo


def test_berta_examples():
    assert berta_bound(BELL) == pytest.approx(0.0, abs=1e-12)
    assert berta_bound(MIXED) == pytest.approx(2.0, abs=1e-12)
    expected = 1.0 + entropy_oracle(FIG1) - 1.0
    assert berta_bound(FIG1) == pytest.approx(expected, abs=1e-12)


def test_pati_reduces_to_berta_on_classical_states():
    cc_state = np.diag([0.35, 0.15, 0.15, 0.35]).astype(complex)
    r = bound_report(cc_state)
    assert r.pati == pytest.approx(berta_bound(cc_state), abs=1e-9)
    # discord equals classical correlation on a maximally entangled state
    assert bound_report(BELL).pati == pytest.approx(berta_bound(BELL), abs=1e-9)


def test_adabi_examples():
    product = np.kron(np.eye(2) / 2, np.eye(2) / 2).astype(complex)
    assert bound_report(product).adabi == pytest.approx(berta_bound(product), abs=1e-12)
    assert bound_report(BELL).adabi == pytest.approx(0.0, abs=1e-12)


def test_tightness_trivial():
    for rho in (BELL, MIXED):
        r = bound_report(rho)
        assert r.tightness_berta == r.u_lhs - r.berta
        assert r.tightness_berta == pytest.approx(0.0, abs=1e-12)


def test_spmc_examples():
    assert spmc_satisfied(BellDiagonalCoeffs(0.5, 0.5, -0.25), 3, 1, 2)
    assert spmc_satisfied(BellDiagonalCoeffs(1.0, -1.0, 1.0), 3, 1, 2)
    # (-0.5, 0.4, 0.8) satisfies c2 = -c1 c3 exactly (0.4 = 0.5 * 0.8) and no
    # other assignment
    fig1 = BellDiagonalCoeffs(-0.5, 0.4, 0.8)
    assert spmc_satisfied(fig1, 2, 1, 3)
    assert not spmc_satisfied(fig1, 1, 2, 3)
    assert not spmc_satisfied(fig1, 3, 1, 2)
    with pytest.raises(ValueError):
        spmc_satisfied(fig1, 1, 1, 2)


def test_spmc_saturation_at_zero_noise():
    rng = np.random.RandomState(101)
    for _ in range(50):
        c1 = float(rng.uniform(-1, 1))
        c3 = float(rng.uniform(-1, 1))
        coeffs = BellDiagonalCoeffs(c1, -c1 * c3, c3)
        assert spmc_satisfied(coeffs, 2, 1, 3)
        rho = bd_oracle(*coeffs.as_tuple())
        u = uncertainty_lhs(rho)
        assert abs(u - berta_bound(rho)) <= 1e-8


def _random_full_rank(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_bound_ordering_on_random_samples():
    # evolved Bell-diagonal states (real coherences) and complex X states; full-rank
    # states are not X-shaped, so the optimizer refuses their report, while their u
    # still takes any state
    rng = np.random.RandomState(103)
    samples = []
    for i in range(60):
        coeffs = rand_bd_coeffs(rng)
        x = float(rng.uniform(0, 1))
        ops = ad_ops_oracle(x) if i % 2 == 0 else bpf_ops_oracle(x)
        samples.append(evolve_oracle(ops, bd_oracle(*coeffs)))
    samples += [rand_xstate_matrix(rng) for _ in range(200)]
    for rho in [_random_full_rank(rng) for _ in range(12)]:
        with pytest.raises(ValueError) as err:
            bound_report(rho)
        assert str(err.value) == OPTIMIZER_REFUSAL
        assert uncertainty_lhs(rho) == pytest.approx(u_oracle(rho), abs=1e-11)
    for rho in samples:
        r = bound_report(rho)
        assert r.berta <= r.pati + 1e-9
        assert r.pati <= r.adabi + 1e-9
        assert r.adabi <= r.u_lhs + 1e-9
        assert r.tightness_berta >= -1e-9
        assert r.u_lhs == pytest.approx(u_oracle(rho), abs=1e-11)


def test_point_minima_and_bound_report_refuse_a_non_x_state():
    # both measurement minima of one state, and the report that reads them, raise the
    # optimizer's refusal; the values that take any state still evaluate
    had = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    rho = had @ bd_oracle(-0.5, 0.4, 0.8) @ had
    assert not linalg.is_x_patterned(rho)
    for read in (lambda: PointQuantities(rho).min_a, lambda: PointQuantities(rho).s_min,
                 lambda: bound_report(rho)):
        with pytest.raises(ValueError) as err:
            read()
        assert str(err.value) == OPTIMIZER_REFUSAL
    q = PointQuantities(rho)
    assert q.u == pytest.approx(u_oracle(rho), abs=1e-11)
    assert q.adabi >= q.berta


def test_bound_report_fields_consistent():
    rho = evolve_oracle(ad_ops_oracle(0.3), FIG1)
    r = bound_report(rho)
    assert r.complementarity_c == pytest.approx(0.5, abs=1e-12)
    assert r.tightness_adabi == pytest.approx(r.u_lhs - r.adabi, abs=1e-15)
    assert r.discord == pytest.approx(quantum_discord(rho, "A"), abs=1e-12)
    assert r.s_min_cond == pytest.approx(
        min_conditional_entropy_over_measurements(rho, "B"), abs=1e-12
    )


def test_bound_report_rejects_bad_ordering():
    with pytest.raises(ValueError, match="ordering"):
        BoundReport(
            u_lhs=0.5,
            berta=1.0,
            pati=1.0,
            adabi=1.0,
            tightness_berta=-0.5,
            tightness_pati=-0.5,
            tightness_adabi=-0.5,
            discord=0.0,
            s_min_cond=0.0,
            complementarity_c=0.5,
        )


def test_berta_relation_to_discord_and_min_entropy():
    # U_b = 1 + S_min - D for the undamped Bell-diagonal family
    rng = np.random.RandomState(107)
    for _ in range(20):
        rho = bd_oracle(*rand_bd_coeffs(rng))
        lhs = berta_bound(rho)
        rhs = (
            1.0
            + min_conditional_entropy_over_measurements(rho, "B")
            - quantum_discord(rho, "A")
        )
        assert abs(lhs - rhs) <= 1e-8


def test_adabi_saturates_under_bpf():
    for p in np.linspace(0.0, 1.0, 11):
        rho = evolve_oracle(bpf_ops_oracle(float(p)), FIG1)
        u = uncertainty_lhs(rho)
        assert abs(u - bound_report(rho).adabi) <= 1e-9


def test_ad_closed_form_spectrum_matches_numeric():
    rng = np.random.RandomState(109)
    for _ in range(100):
        coeffs = BellDiagonalCoeffs(*rand_bd_coeffs(rng))
        d = float(rng.uniform(0, 1))
        rho = evolve_oracle(ad_ops_oracle(d), bd_oracle(*coeffs.as_tuple()))
        np.testing.assert_allclose(
            ad_closed_form_spectrum(coeffs, d), spectrum_oracle(rho), atol=1e-10
        )


def test_bpf_closed_form_spectrum_matches_numeric():
    rng = np.random.RandomState(113)
    for _ in range(100):
        coeffs = BellDiagonalCoeffs(*rand_bd_coeffs(rng))
        p = float(rng.uniform(0, 1))
        rho = evolve_oracle(bpf_ops_oracle(p), bd_oracle(*coeffs.as_tuple()))
        np.testing.assert_allclose(
            bpf_closed_form_spectrum(coeffs, p), spectrum_oracle(rho), atol=1e-10
        )


def test_ad_closed_form_u_not_trusted():
    coeffs = BellDiagonalCoeffs(-0.5, 0.4, 0.8)
    # divergent at full decay: reported as inapplicable while the pipeline is fine
    assert ad_closed_form_u(coeffs, 1.0) is None
    rho = evolve_oracle(ad_ops_oracle(1.0), bd_oracle(*coeffs.as_tuple()))
    assert uncertainty_lhs(rho) == pytest.approx(1.0, abs=1e-9)
    # the radicand goes negative whenever |c2| > |c1|
    assert ad_closed_form_u(BellDiagonalCoeffs(0.1, 0.5, 0.0), 0.2) is None
    # where defined, the gap against the pipeline is logged, never asserted
    gaps = []
    for d in np.linspace(0.0, 0.9, 10):
        closed = ad_closed_form_u(coeffs, float(d))
        if closed is None:
            continue
        rho = evolve_oracle(ad_ops_oracle(float(d)), bd_oracle(*coeffs.as_tuple()))
        gaps.append(abs(closed - uncertainty_lhs(rho)))
    assert gaps
    print(f"\nprinted damping uncertainty: max gap vs pipeline = {max(gaps):.3e}")


def test_bpf_closed_forms():
    coeffs = BellDiagonalCoeffs(-0.5, 0.4, 0.8)
    u_half, _ = bpf_closed_forms(coeffs, 0.5)
    assert u_half == pytest.approx(0.0, abs=1e-12)  # both nu arguments vanish
    # the printed bound reduces to the joint entropy and is exact
    for p in np.linspace(0.0, 1.0, 11):
        rho = evolve_oracle(bpf_ops_oracle(float(p)), bd_oracle(*coeffs.as_tuple()))
        _, bound = bpf_closed_forms(coeffs, float(p))
        assert bound == pytest.approx(berta_bound(rho), abs=1e-12)
    # identity channel: the printed uncertainty disagrees with the pipeline by
    # a sign assembly defect; record the gap
    u_zero, _ = bpf_closed_forms(coeffs, 0.0)
    rho0 = bd_oracle(*coeffs.as_tuple())
    gap = abs(u_zero - uncertainty_lhs(rho0))
    print(f"\nprinted flip uncertainty: gap at p=0 is {gap:.3e}")


def test_pati_gap_under_bpf_quarter_points():
    # the flip channel leaves Pati's bound nearly tight except near p = 1/4, 3/4
    coeffs = BellDiagonalCoeffs(-0.5, 0.4, 0.8)
    for p in (0.25, 0.75):
        rho = evolve_oracle(bpf_ops_oracle(p), bd_oracle(*coeffs.as_tuple()))
        gap = bound_report(rho).tightness_pati
        print(f"\npati gap at p={p}: {gap:.6e}")
        assert gap >= -1e-9
