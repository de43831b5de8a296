import math

import numpy as np
import pytest

from conftest import (
    ad_ops_oracle,
    bd_oracle,
    bpf_ops_oracle,
    entropy_oracle,
    evolve_oracle,
    rand_bd_coeffs,
    rand_xstate_matrix,
    spectrum_oracle,
    spmc_satisfied,
    u_oracle,
)
from entropic_uncertainty.bounds import (
    BoundReport,
    ad_closed_form_spectrum,
    ad_closed_form_u,
    berta_bound,
    bound_report,
    bpf_closed_form_spectrum,
    bpf_closed_forms,
    complementarity_c,
    uncertainty_lhs,
)
from entropic_uncertainty.measures import (
    BlochDirection,
    bloch_basis,
    min_conditional_entropy_over_measurements,
    quantum_discord,
    sigma_x_basis,
    sigma_z_basis,
)
from entropic_uncertainty.states import BellDiagonalCoeffs

BELL = bd_oracle(1.0, -1.0, 1.0)
FIG1 = bd_oracle(-0.5, 0.4, 0.8)
MIXED = np.eye(4, dtype=complex) / 4
BX, BZ = sigma_x_basis(), sigma_z_basis()


def test_complementarity_x_z():
    assert complementarity_c(BX, BZ) == pytest.approx(0.5, abs=1e-12)


def test_complementarity_identical_bases():
    assert complementarity_c(BZ, BZ) == pytest.approx(1.0, abs=1e-12)


def test_complementarity_sixty_degrees():
    tilted = bloch_basis(BlochDirection(math.pi / 3, 0.0))
    assert complementarity_c(BZ, tilted) == pytest.approx(0.75, abs=1e-12)


def test_uncertainty_lhs_examples():
    assert uncertainty_lhs(BELL) == pytest.approx(0.0, abs=1e-12)
    assert uncertainty_lhs(MIXED) == pytest.approx(2.0, abs=1e-12)
    assert uncertainty_lhs(FIG1) == pytest.approx(u_oracle(FIG1), abs=1e-12)


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
    # evolved Bell-diagonal states (real coherences), complex X states, and
    # full-rank states, which take the dense optimizer
    rng = np.random.RandomState(103)
    samples = []
    for i in range(60):
        coeffs = rand_bd_coeffs(rng)
        x = float(rng.uniform(0, 1))
        ops = ad_ops_oracle(x) if i % 2 == 0 else bpf_ops_oracle(x)
        samples.append(evolve_oracle(ops, bd_oracle(*coeffs)))
    samples += [rand_xstate_matrix(rng) for _ in range(200)]
    samples += [_random_full_rank(rng) for _ in range(12)]
    for rho in samples:
        r = bound_report(rho)
        assert r.berta <= r.pati + 1e-9
        assert r.pati <= r.adabi + 1e-9
        assert r.adabi <= r.u_lhs + 1e-9
        assert r.tightness_berta >= -1e-9
        assert r.u_lhs == pytest.approx(u_oracle(rho), abs=1e-11)


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
