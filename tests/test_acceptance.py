"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import numpy as np
import pytest

from conftest import (
    I2,
    ad_closed_form_spectrum,
    bd_oracle,
    h2,
    rand_bd_coeffs,
    spectrum_oracle,
)
from entropic_uncertainty.applications import channel_capacity, witness_threshold
from entropic_uncertainty.bounds import (
    ad_closed_form_u,
    berta_bound,
    bound_report,
    bpf_closed_form_spectrum,
    bpf_closed_forms,
    uncertainty_lhs,
)
from entropic_uncertainty.channels import (
    ad_kraus,
    apply_one_sided,
    bpf_kraus,
)
from entropic_uncertainty.measures import (
    SIGMA_X,
    SIGMA_Z,
    classical_correlation,
    holevo_quantity,
    mutual_information,
    quantum_discord,
)
from entropic_uncertainty.states import BellDiagonalCoeffs, bell_diagonal_density
from entropic_uncertainty.sweep import SweepConfig, run_sweep

BX, BZ = SIGMA_X, SIGMA_Z
FIG1 = BellDiagonalCoeffs(-0.5, 0.4, 0.8)


def _criterion(number, label, limit_seconds, body):
    start = time.monotonic()
    try:
        body()
    except Exception:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s < {limit_seconds}s]")
    assert elapsed < limit_seconds


def test_criterion_1_witness_threshold_ad():
    def body():
        res = witness_threshold("AD", BellDiagonalCoeffs(-1, 1, 1), s=0.0)
        assert res.critical_value == pytest.approx(0.4058, abs=0.005)

    _criterion(1, "witness threshold AD", 1.0, body)


def test_criterion_2_witness_threshold_bpf():
    def body():
        res = witness_threshold("BPF", BellDiagonalCoeffs(-1, 1, 1), s=0.0)
        assert res.critical_value == pytest.approx(0.1125, abs=0.005)
        upper = 1.0 - res.critical_value
        assert f"({upper:.6f}, 1]" in res.window

    _criterion(2, "witness threshold BPF", 1.0, body)


def test_criterion_3_bound_ordering():
    def body():
        rng = np.random.RandomState(1009)
        for i in range(1000):
            coeffs = BellDiagonalCoeffs(*rand_bd_coeffs(rng))
            x = float(rng.uniform(0.0, 1.0))
            channel = ad_kraus(x) if i % 2 == 0 else bpf_kraus(x)
            rho = apply_one_sided(channel, bell_diagonal_density(coeffs))
            report = bound_report(rho)
            assert report.berta <= report.pati + 1e-9
            assert report.pati <= report.adabi + 1e-9
            assert report.adabi <= report.u_lhs + 1e-9

    _criterion(3, "bound ordering, 1000 samples", 120.0, body)


def test_criterion_4_adabi_saturation_under_bpf():
    def body():
        rho0 = bell_diagonal_density(FIG1)
        for p in np.linspace(0.0, 1.0, 101):
            rho = apply_one_sided(bpf_kraus(float(p)), rho0)
            u = uncertainty_lhs(rho)
            delta = (
                mutual_information(rho)
                - holevo_quantity(rho, BX)
                - holevo_quantity(rho, BZ)
            )
            adabi = berta_bound(rho) + max(0.0, delta)
            assert abs(u - adabi) <= 1e-9

    _criterion(4, "Adabi saturation under BPF", 30.0, body)


def test_criterion_5_kraus_cptp_suite():
    def body():
        for x in np.linspace(0.0, 1.0, 101):
            for channel in (ad_kraus(float(x)), bpf_kraus(float(x))):
                total = sum(e.conj().T @ e for e in channel.operators)
                assert float(np.abs(total - I2).max()) <= 1e-12
        rng = np.random.RandomState(1013)
        for i in range(1000):
            coeffs = BellDiagonalCoeffs(*rand_bd_coeffs(rng))
            x = float(rng.uniform(0.0, 1.0))
            channel = ad_kraus(x) if i % 2 == 0 else bpf_kraus(x)
            out = apply_one_sided(channel, bell_diagonal_density(coeffs))
            assert abs(float(np.trace(out).real) - 1.0) <= 1e-9
            assert float(spectrum_oracle(out).min()) >= -1e-9

    _criterion(5, "Kraus/CPTP suite", 5.0, body)


def test_criterion_6_closed_form_eigenvalues():
    def body():
        base = np.array(FIG1.as_tuple())
        for scale in np.linspace(0.0, 1.0, 51):
            coeffs = BellDiagonalCoeffs(*(scale * base))
            rho0 = bell_diagonal_density(coeffs)
            for x in np.linspace(0.0, 1.0, 51):
                x = float(x)
                ad_state = apply_one_sided(ad_kraus(x), rho0)
                np.testing.assert_allclose(
                    ad_closed_form_spectrum(coeffs, x),
                    spectrum_oracle(ad_state),
                    atol=1e-10,
                )
                bpf_state = apply_one_sided(bpf_kraus(x), rho0)
                np.testing.assert_allclose(
                    bpf_closed_form_spectrum(coeffs, x),
                    spectrum_oracle(bpf_state),
                    atol=1e-10,
                )
        # closed-form entropies are logged, never asserted
        worst_u_ad, worst_u_bpf, worst_bound = 0.0, 0.0, 0.0
        rho0 = bell_diagonal_density(FIG1)
        for x in np.linspace(0.0, 1.0, 51):
            x = float(x)
            ad_state = apply_one_sided(ad_kraus(x), rho0)
            closed = ad_closed_form_u(FIG1, x)
            if closed is not None:
                worst_u_ad = max(
                    worst_u_ad, abs(closed - uncertainty_lhs(ad_state))
                )
            bpf_state = apply_one_sided(bpf_kraus(x), rho0)
            closed_u, closed_b = bpf_closed_forms(FIG1, x)
            worst_u_bpf = max(
                worst_u_bpf, abs(closed_u - uncertainty_lhs(bpf_state))
            )
            worst_bound = max(worst_bound, abs(closed_b - berta_bound(bpf_state)))
        print(
            f"\n  logged closed-form gaps: damping-u {worst_u_ad:.3e}, "
            f"flip-u {worst_u_bpf:.3e}, flip-bound {worst_bound:.3e}"
        )

    _criterion(6, "closed-form eigenvalue equivalence", 10.0, body)


def test_criterion_7_discord_oracle_equivalence():
    def body():
        rng = np.random.RandomState(1019)
        for _ in range(500):
            c = rand_bd_coeffs(rng)
            rho = bd_oracle(*c)
            analytic_j = 1.0 - h2((1.0 + max(abs(v) for v in c)) / 2.0)
            mut = mutual_information(rho)
            got = quantum_discord(rho, "A")
            assert abs(got - (mut - analytic_j)) <= 1e-8
            assert got == pytest.approx(
                max(0.0, mut - classical_correlation(rho, "A")), abs=1e-12
            )

    _criterion(7, "discord oracle equivalence, 500 samples", 60.0, body)


def test_criterion_8_capacity_endpoints():
    def body():
        coeffs = BellDiagonalCoeffs(1.0, 1.0, -1.0)
        rho0 = bell_diagonal_density(coeffs)
        assert channel_capacity(rho0) == pytest.approx(2.0, abs=1e-9)
        half = apply_one_sided(bpf_kraus(0.5), rho0)
        assert channel_capacity(half) == pytest.approx(1.0, abs=1e-9)
        for d in (0.9, 0.99, 0.999, 1.0):
            cap = channel_capacity(apply_one_sided(ad_kraus(d), rho0))
            assert cap < channel_capacity(apply_one_sided(ad_kraus(d - 0.1), rho0))
        assert channel_capacity(apply_one_sided(ad_kraus(1.0), rho0)) == pytest.approx(
            0.0, abs=1e-9
        )
        # the mutual-information and bound forms agree everywhere (the package
        # enforces 1e-10 agreement internally on every call)
        for x in np.linspace(0.0, 1.0, 101):
            channel_capacity(apply_one_sided(ad_kraus(float(x)), rho0))
            channel_capacity(apply_one_sided(bpf_kraus(float(x)), rho0))

    _criterion(8, "capacity endpoints", 5.0, body)


def test_criterion_9_steering_monotonicity():
    def body():
        strengths = (0.0, 0.4, 0.6, 0.8)
        for channel in ("AD", "BPF"):
            cfg = SweepConfig(
                channel,
                *FIG1.as_tuple(),
                0.0,
                1.0,
                101,
                steering_kind="weak",
                steering_strengths=strengths,
                outputs=("u",),
            )
            rows = run_sweep(cfg)
            by_strength = {
                s: [r for r in rows if r.steer_strength == s] for s in strengths
            }
            for i in range(len(strengths) - 1):
                lo, hi = strengths[i], strengths[i + 1]
                for row_lo, row_hi in zip(by_strength[lo], by_strength[hi]):
                    assert row_lo.param == row_hi.param
                    u_lo = dict(row_lo.quantities)["u"]
                    u_hi = dict(row_hi.quantities)["u"]
                    assert u_hi <= u_lo + 1e-9

    _criterion(9, "steering monotonicity", 30.0, body)


def test_criterion_10_spmc_saturation():
    def body():
        rng = np.random.RandomState(1021)
        for _ in range(200):
            c1 = float(rng.uniform(-1.0, 1.0))
            c3 = float(rng.uniform(-1.0, 1.0))
            coeffs = BellDiagonalCoeffs(c1, -c1 * c3, c3)
            rho = bell_diagonal_density(coeffs)
            u = uncertainty_lhs(rho)
            assert abs(u - berta_bound(rho)) <= 1e-8

    _criterion(10, "SPMC saturation", 10.0, body)
