import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    I2,
    ad_ops_oracle,
    bd_oracle,
    evolve_oracle,
    rand_bd_coeffs,
    spectrum_oracle,
    steer_oracle,
)
from entropic_uncertainty.channels import (
    KrausChannel,
    SteeringOp,
    ad_kraus,
    apply_one_sided,
    apply_steering,
    bpf_kraus,
    d_of_t,
    filter_op,
    weak_op,
)
from entropic_uncertainty.states import BellDiagonalCoeffs, as_xstate, bell_diagonal_density


def kraus_completeness_defect(channel):
    total = sum(e.conj().T @ e for e in channel.operators)
    return float(np.abs(total - I2).max())


def test_ad_kraus_identity_at_zero():
    rho = bd_oracle(-0.5, 0.4, 0.8)
    assert_allclose(apply_one_sided(ad_kraus(0.0), rho), rho, atol=1e-15)


def test_ad_kraus_full_decay():
    rng = np.random.RandomState(2)
    for _ in range(10):
        rho = bell_diagonal_density(BellDiagonalCoeffs(*rand_bd_coeffs(rng)))
        out = apply_one_sided(ad_kraus(1.0), rho)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0:2, 0:2] = I2 / 2  # |0><0| on A times the untouched memory
        assert_allclose(out, expected, atol=1e-14)


def test_ad_kraus_from_rate_and_time():
    d = d_of_t(0.3, 0.7)
    assert d == pytest.approx(1.0 - math.exp(-0.21), abs=1e-15)
    assert d == pytest.approx(0.19, abs=6e-4)
    ch = ad_kraus(d)
    assert ch.operators[0][1, 1] == pytest.approx(math.sqrt(1 - d))


def test_d_of_t_values():
    assert d_of_t(0.5, 0.0) == 0.0
    assert d_of_t(0.0, 3.0) == 0.0
    assert d_of_t(0.7, 10.0) == pytest.approx(0.9990881180344455, abs=1e-15)
    with pytest.raises(ValueError):
        d_of_t(-0.1, 1.0)
    with pytest.raises(ValueError):
        d_of_t(0.1, -1.0)


def test_kraus_completeness_grids():
    for x in np.linspace(0.0, 1.0, 101):
        assert kraus_completeness_defect(ad_kraus(float(x))) <= 1e-12
        assert kraus_completeness_defect(bpf_kraus(float(x))) <= 1e-12


def test_kraus_channel_rejects_incomplete_set():
    with pytest.raises(ValueError, match="not trace preserving"):
        KrausChannel(operators=(0.5 * I2,))


def test_parameter_range_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            ad_kraus(bad)
        with pytest.raises(ValueError):
            bpf_kraus(bad)


def test_bpf_identity_at_one():
    rho = bd_oracle(-0.5, 0.4, 0.8)
    assert_allclose(apply_one_sided(bpf_kraus(1.0), rho), rho, atol=1e-15)


def test_bpf_coefficient_scaling():
    # one-sided flip maps (c1, c2, c3) -> ((2p-1) c1, c2, (2p-1) c3)
    c1, c2, c3 = -0.5, 0.4, 0.8
    for p in (0.0, 0.2, 0.5, 0.9):
        out = apply_one_sided(bpf_kraus(p), bd_oracle(c1, c2, c3))
        scaled = bd_oracle((2 * p - 1) * c1, c2, (2 * p - 1) * c3)
        assert_allclose(out, scaled, atol=1e-14)
    half = apply_one_sided(bpf_kraus(0.5), bd_oracle(c1, c2, c3))
    assert_allclose(half, bd_oracle(0.0, c2, 0.0), atol=1e-14)


def test_bpf_evolved_element():
    out = apply_one_sided(bpf_kraus(0.2), bd_oracle(-0.5, 0.4, 0.8))
    assert as_xstate(out).d11 == pytest.approx(0.13, abs=1e-14)


def test_ad_evolved_elements_match_formulas():
    # entrywise comparison with the evolved-element expressions
    rng = np.random.RandomState(13)
    for _ in range(50):
        c1, c2, c3 = rand_bd_coeffs(rng)
        d = float(rng.uniform(0, 1))
        out = apply_one_sided(ad_kraus(d), bd_oracle(c1, c2, c3))
        x = as_xstate(out)
        assert x.d11 == pytest.approx((1 + c3 + d - c3 * d) / 4, abs=1e-12)
        assert x.d22 == pytest.approx((1 + c3 * (-1 + d) + d) / 4, abs=1e-12)
        assert x.d33 == pytest.approx((-1 + c3) * (-1 + d) / 4, abs=1e-12)
        assert x.d44 == pytest.approx(-(1 + c3) * (-1 + d) / 4, abs=1e-12)
        assert abs(x.a14 - (c1 - c2) * math.sqrt(1 - d) / 4) < 1e-12
        assert abs(x.a23 - (c1 + c2) * math.sqrt(1 - d) / 4) < 1e-12


def test_apply_one_sided_preserves_density():
    rng = np.random.RandomState(17)
    for i in range(200):
        rho = bell_diagonal_density(BellDiagonalCoeffs(*rand_bd_coeffs(rng)))
        x = float(rng.uniform(0, 1))
        ch = ad_kraus(x) if i % 2 == 0 else bpf_kraus(x)
        out = apply_one_sided(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-9
        assert float(spectrum_oracle(out).min()) > -1e-9
        assert_allclose(out, evolve_oracle([np.asarray(e) for e in ch.operators], rho), atol=1e-13)


def test_apply_one_sided_rejects_non_density():
    with pytest.raises(ValueError):
        apply_one_sided(ad_kraus(0.2), np.eye(4))


def test_filter_op_values():
    op = filter_op(0.2)
    assert op.operator[0, 0] == pytest.approx(math.sqrt(0.8))
    assert op.operator[1, 1] == pytest.approx(math.sqrt(0.2))
    for bad in (0.0, 1.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            filter_op(bad)


def test_weak_op_values():
    op = weak_op(0.4)
    assert op.operator[0, 0] == 1.0
    assert op.operator[1, 1] == pytest.approx(math.sqrt(0.6))
    assert weak_op(0.0).operator[1, 1] == 1.0
    for bad in (-0.1, 1.0):
        with pytest.raises(ValueError):
            weak_op(bad)


def test_steering_no_ops():
    rho = bd_oracle(-0.5, 0.4, 0.8)
    assert_allclose(apply_steering(filter_op(0.5), rho), rho, atol=1e-14)
    assert_allclose(apply_steering(weak_op(0.0), rho), rho, atol=1e-14)


def test_steering_matches_oracle_and_renormalizes():
    rng = np.random.RandomState(29)
    for _ in range(50):
        rho = evolve_oracle(
            ad_ops_oracle(float(rng.uniform(0, 1))),
            bd_oracle(*rand_bd_coeffs(rng)),
        )
        k = float(rng.uniform(0.05, 0.95))
        out = apply_steering(filter_op(k), rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert_allclose(out, steer_oracle(rho, np.asarray(filter_op(k).operator)), atol=1e-13)


def test_filtered_population_formula():
    # first filtered population: (1 + c3 + d - c3 d)(1 - k) / (2 (1 + d - 2 d k))
    c1, c2, c3, d, k = -0.5, 0.4, 0.8, 0.37, 0.2
    evolved = evolve_oracle(ad_ops_oracle(d), bd_oracle(c1, c2, c3))
    out = apply_steering(filter_op(k), evolved)
    expected = (1 + c3 + d - c3 * d) * (1 - k) / (2 * (1 + d - 2 * d * k))
    assert as_xstate(out).d11 == pytest.approx(expected, abs=1e-12)


def test_steering_invariant_under_rescaling():
    rho = evolve_oracle(ad_ops_oracle(0.3), bd_oracle(-0.5, 0.4, 0.8))
    op = filter_op(0.3)
    shrunk = SteeringOp(operator=0.5 * np.asarray(op.operator))
    assert_allclose(apply_steering(op, rho), apply_steering(shrunk, rho), atol=1e-13)


def test_steering_vanishing_postselection():
    # all weight on the A=1 subspace, then a near-projective weak measurement
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = rho[3, 3] = 0.5
    with pytest.raises(ValueError, match="post-selection"):
        apply_steering(weak_op(1.0 - 1e-13), rho)


def test_steering_preserves_x_structure():
    rng = np.random.RandomState(43)
    for _ in range(20):
        rho = evolve_oracle(
            ad_ops_oracle(float(rng.uniform(0, 0.9))),
            bd_oracle(*rand_bd_coeffs(rng)),
        )
        out = apply_steering(weak_op(float(rng.uniform(0, 0.9))), rho)
        as_xstate(out)  # raises if the X pattern is broken
