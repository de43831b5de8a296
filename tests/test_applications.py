import math

import numpy as np
import pytest

from conftest import (
    ad_closed_form_spectrum,
    ad_ops_oracle,
    bd_oracle,
    bpf_ops_oracle,
    entropy_oracle,
    evolve_oracle,
    mutual_oracle,
    ptrace_oracle,
    rand_bd_coeffs,
    spectrum_oracle,
)
from entropic_uncertainty.applications import (
    capacity_curves,
    channel_capacity,
    witness_threshold,
)
from entropic_uncertainty import applications, bounds, channels, cli, sweep
from entropic_uncertainty.bounds import (
    C,
    PointQuantities,
    bpf_closed_form_spectrum,
    complementarity_c,
    uncertainty_lhs,
)
from entropic_uncertainty.channels import (
    apply_one_sided,
    apply_steering,
    d_of_t,
    noise_kraus,
    weak_op,
)
from entropic_uncertainty.linalg import BOUND_ORDER_ATOL
from entropic_uncertainty.measures import (
    SIGMA_X,
    SIGMA_Z,
    quantum_conditional_entropy,
)
from entropic_uncertainty.states import BellDiagonalCoeffs, bell_diagonal_density

BX, BZ = SIGMA_X, SIGMA_Z
WITNESS_COEFFS = BellDiagonalCoeffs(-1.0, 1.0, 1.0)
CAPACITY_COEFFS = BellDiagonalCoeffs(1.0, 1.0, -1.0)


def test_witness_verdict_bell():
    q = PointQuantities(bd_oracle(1.0, -1.0, 1.0))
    assert q.u == pytest.approx(0.0, abs=1e-9)
    assert C == 0.5  # threshold log2(1/c) = 1
    assert q.witness


def test_witness_verdict_maximally_mixed():
    q = PointQuantities(np.eye(4) / 4)
    assert q.u == pytest.approx(2.0, abs=1e-12)
    assert not q.witness


def test_witness_verdict_beyond_threshold():
    rho = evolve_oracle(ad_ops_oracle(0.5), bd_oracle(-1.0, 1.0, 1.0))
    assert not PointQuantities(rho).witness


def test_witness_threshold_ad():
    res = witness_threshold("AD", WITNESS_COEFFS, s=0.0)
    assert res.parameter_name == "d"
    assert res.critical_value == pytest.approx(0.4058, abs=0.005)
    assert res.window.startswith("[0, ")


def test_witness_threshold_bpf_with_mirror():
    res = witness_threshold("BPF", WITNESS_COEFFS, s=0.0)
    assert res.parameter_name == "p"
    assert res.critical_value == pytest.approx(0.1125, abs=0.005)
    upper = 1.0 - res.critical_value
    assert f"({upper:.6f}, 1]" in res.window


def test_witness_threshold_grows_with_weak_measurement():
    d0 = witness_threshold("AD", WITNESS_COEFFS, s=0.0).critical_value
    d4 = witness_threshold("AD", WITNESS_COEFFS, s=0.4).critical_value
    d8 = witness_threshold("AD", WITNESS_COEFFS, s=0.8).critical_value
    assert d0 < d4 < d8


def test_witness_threshold_straddles():
    from entropic_uncertainty.channels import ad_kraus, apply_one_sided

    res = witness_threshold("AD", WITNESS_COEFFS, s=0.0)
    rho0 = bd_oracle(*WITNESS_COEFFS.as_tuple())
    for offset, expect_below in ((-1e-4, True), (1e-4, False)):
        rho = apply_one_sided(ad_kraus(res.critical_value + offset), rho0)
        assert (PointQuantities(rho).u < 1.0) == expect_below


def _dense_witness_critical_value(family, coeffs, s):
    """The bracket scan and bisection of ``witness_threshold``, with u(x) from the dense
    pipeline one point at a time."""
    rho0 = bell_diagonal_density(coeffs)
    if s > 0.0:
        rho0 = apply_steering(weak_op(s), rho0)

    def u(x):
        return uncertainty_lhs(apply_one_sided(noise_kraus(family, x), rho0))

    # u < threshold is bounds.witnessed: the bound less the ordering slack
    threshold = math.log2(1.0 / complementarity_c(BX, BZ)) - BOUND_ORDER_ATOL
    xs = [float(x) for x in np.linspace(0.0, 1.0 if family == "AD" else 0.5, 101)]
    lo, hi = next((a, b) for a, b in zip(xs, xs[1:]) if u(a) < threshold <= u(b))
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if u(mid) < threshold else (lo, mid)
    return 0.5 * (lo + hi)


_DENSE_LOOP_CASES = [
    pytest.param(family, WITNESS_COEFFS, s, id=f"{s}-{family}")
    for s in (0.0, 0.4, 0.8)
    for family in ("AD", "BPF")
] + [
    pytest.param(family, BellDiagonalCoeffs(-1.0, -1.0, -1.0), 0.0, id=f"singlet-{family}")
    for family in ("AD", "BPF")
] + [
    pytest.param(family, WITNESS_COEFFS, 0.999999, id=f"0.999999-{family}")
    for family in ("AD", "BPF")
]


@pytest.mark.parametrize(("family", "coeffs", "s"), _DENSE_LOOP_CASES)
def test_witness_threshold_equals_the_dense_loop(family, coeffs, s):
    expected = _dense_witness_critical_value(family, coeffs, s)
    assert witness_threshold(family, coeffs, s).critical_value == expected


def _record(monkeypatch, module, name, calls):
    """Wrap ``module.name`` so that each call appends ``(arguments, result)`` to ``calls``."""
    real = getattr(module, name)

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, wrapper)


def test_witness_scan_evolves_one_stack(monkeypatch):
    evolved, u_calls = [], []
    for module in (sweep, applications):  # the scan's _grid_points, and the bisection
        _record(monkeypatch, module, "_evolve", evolved)
    _record(monkeypatch, bounds, "uncertainty_lhs", u_calls)
    for family, hi_end in (("AD", 1.0), ("BPF", 0.5)):
        evolved.clear()
        u_calls.clear()
        witness_threshold(family, WITNESS_COEFFS)
        # the bisection halves one of the 100 scan intervals down to 1e-7
        steps = math.ceil(math.log2(hi_end / 100 / 1e-7))
        # one 101-row stack for the scan, then one point per bisection step and straddle check
        assert [len(params) for (_, _, params), _ in evolved] == [101] + [1] * (steps + 2)
        assert len(u_calls) == 101 + steps + 2  # each point's u is the dense one


@pytest.mark.parametrize("s", (0.0, 0.4))
def test_witness_checks_rho0_once_per_solve(monkeypatch, s):
    checked = []
    for module in (applications, channels):  # the solve's check of rho0, and apply_steering's
        _record(monkeypatch, module, "validate_two_qubit", checked)
    rho0 = bell_diagonal_density(WITNESS_COEFFS)
    steered = apply_steering(weak_op(s), rho0) if s > 0.0 else rho0
    for family in ("AD", "BPF"):
        checked.clear()
        witness_threshold(family, WITNESS_COEFFS, s)
        assert len(checked) == 1 + (s > 0.0)
        assert np.array_equal(checked[-1][0][0], steered)  # the solve checks the steered rho0


@pytest.mark.parametrize("s", (0.0, 0.4, 0.999999))
@pytest.mark.parametrize("family", ("AD", "BPF"))
def test_bisection_states_are_the_grid_states(monkeypatch, family, s):
    # every row of the scan's stack and of each bisection and straddle point is, byte for
    # byte, the state _grid_points gives at the same x, and lies in the range _evolve checks
    points = []
    _record(monkeypatch, applications, "_evolve", points)
    witness_threshold(family, WITNESS_COEFFS, s)
    assert len(points) >= 18 and len(points[0][0][2]) == 101
    for (channel, rho0, params), (states, in_range) in points:
        assert in_range.all()
        grid = sweep._grid_points(channel, rho0, params.tolist(), None, (None,), ())
        assert [state.tobytes() for _, _, state, _ in grid] == [row.tobytes() for row in states]


def test_witness_requests_no_stacked_value(monkeypatch):
    # the scan and bisection stacks read no value: each u is the state's dense one
    def no_stacked_entropy(m):
        raise AssertionError(f"stacked entropy of {m.shape}")

    monkeypatch.setattr(bounds, "stacked_von_neumann_entropy", no_stacked_entropy)
    for family in ("AD", "BPF"):
        for s in (0.0, 0.4):
            witness_threshold(family, WITNESS_COEFFS, s)


@pytest.mark.parametrize("s", (-0.3, math.nan))
def test_witness_threshold_rejects_a_bad_strength(s):
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        witness_threshold("AD", WITNESS_COEFFS, s)


@pytest.mark.parametrize("call, message", [
    (lambda: witness_threshold("AD", (-1, 1, 1)),
     r"^coeffs = \(-1, 1, 1\) is not a BellDiagonalCoeffs$"),
    (lambda: capacity_curves("AD", (1.0, 1.0, -1.0), [0.5]),
     r"^coeffs = \(1.0, 1.0, -1.0\) is not a BellDiagonalCoeffs$"),
    (lambda: sweep.errata_report(WITNESS_COEFFS, "AD", "0.5"),
     r"^grid = '0.5' is not a list of numbers$"),
    (lambda: sweep.errata_report(WITNESS_COEFFS, "AD", 0.5),
     r"^grid = 0.5 is not a list of numbers$"),
    (lambda: capacity_curves("AD", CAPACITY_COEFFS, "01"),
     r"^schedule = '01' is not a list of numbers$"),
    (lambda: witness_threshold("AD", WITNESS_COEFFS, s="0.4"),
     r"^s = '0.4' is not a real number$"),
    (lambda: capacity_curves("AD", CAPACITY_COEFFS, [0.5, 1.0], rate_lambda="0.3"),
     r"^rate_lambda = '0.3' is not a real number$"),
    (lambda: witness_threshold(np.array(["AD"]), WITNESS_COEFFS),
     r"^channel_family = array\(\['AD'\], dtype='<U2'\) is not a str$"),
    (lambda: capacity_curves(np.array(["AD", "BPF"]), CAPACITY_COEFFS, [0.5]),
     r"^channel_family = array\(\['AD', 'BPF'\], dtype='<U3'\) is not a str$"),
    (lambda: sweep.errata_report(WITNESS_COEFFS, np.array(["AD", "BPF"]), [0.5]),
     r"^channel = array\(\['AD', 'BPF'\], dtype='<U3'\) is not a str$"),
    (lambda: capacity_curves("AD", CAPACITY_COEFFS, [[0.5], [1.0]]),
     r"^schedule = \[\[0.5\], \[1.0\]\] is not a list of numbers$"),
    (lambda: capacity_curves("AD", CAPACITY_COEFFS, np.array([[0.5, 1.0]])),
     r"^schedule = array\(\[\[0.5, 1. \]\]\) is not a list of numbers$"),
    (lambda: sweep.errata_report(WITNESS_COEFFS, "AD", [[0.5, 1.0]]),
     r"^grid = \[\[0.5, 1.0\]\] is not a list of numbers$"),
    (lambda: sweep.errata_report(WITNESS_COEFFS, "AD", np.array([[0.5], [1.0]])),
     r"^grid = array\(\[\[0.5\],\n\s+\[1. \]\]\) is not a list of numbers$"),
], ids=["witness-tuple", "capacity-tuple", "errata-string", "errata-number", "capacity-string",
        "witness-strength-string", "capacity-rate-string", "witness-family-array",
        "capacity-family-array", "errata-family-array", "capacity-list-of-lists",
        "capacity-matrix", "errata-list-of-lists", "errata-matrix"])
def test_a_wrongly_typed_argument_is_named(call, message):
    # a tuple has no as_tuple (AttributeError), a string grid was read letter by letter, an
    # array of families gave numpy's "truth value ... is ambiguous" (or, for one family, a
    # result), and a grid of lists or a matrix float()'s or numpy's own message
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("family", ("AD", "BPF"))
def test_a_failed_straddle_check_raises_and_exits_3(monkeypatch, capsys, family):
    # with no step, the points below and above the threshold are one point, so the check
    # that the witness fires below it and not above it must fail
    monkeypatch.setattr(applications, "_STRADDLE_STEP", 0.0)
    with pytest.raises(ArithmeticError, match="threshold bracketing check failed around 0[.]"):
        witness_threshold(family, WITNESS_COEFFS, 0.4)
    argv = ["witness", "--channel", family, "--c1", "-1", "--c2", "1", "--c3", "1", "--s", "0.4"]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric failure: threshold bracketing check failed")


def test_witness_threshold_no_crossing():
    with pytest.raises(ValueError, match="no threshold in range"):
        witness_threshold("AD", BellDiagonalCoeffs(0.0, 0.0, 0.0))


def test_witnessed_states_have_negative_conditional_entropy():
    rng = np.random.RandomState(127)
    hits = 0
    for _ in range(200):
        coeffs = rand_bd_coeffs(rng)
        d = float(rng.uniform(0, 1))
        rho = evolve_oracle(ad_ops_oracle(d), bd_oracle(*coeffs))
        if PointQuantities(rho).witness:
            hits += 1
            assert quantum_conditional_entropy(rho) < 0.0
    assert hits > 0


def test_capacity_endpoints():
    rho0 = bd_oracle(*CAPACITY_COEFFS.as_tuple())
    assert channel_capacity(rho0) == pytest.approx(2.0, abs=1e-9)
    half = evolve_oracle(bpf_ops_oracle(0.5), rho0)
    assert channel_capacity(half) == pytest.approx(1.0, abs=1e-9)
    dead = evolve_oracle(ad_ops_oracle(1.0), rho0)
    assert channel_capacity(dead) == pytest.approx(0.0, abs=1e-9)
    # full decay leaves a product state: capacity equals the oracle's mutual info
    assert channel_capacity(dead) == pytest.approx(mutual_oracle(dead), abs=1e-12)


def test_capacity_matches_eigenvalue_closed_forms():
    # damping: sum lam_AB log lam_AB - sum lam_A log lam_A + 1
    for d in np.linspace(0.0, 1.0, 21):
        rho = evolve_oracle(ad_ops_oracle(float(d)), bd_oracle(*CAPACITY_COEFFS.as_tuple()))
        lam_ab = ad_closed_form_spectrum(CAPACITY_COEFFS, float(d))
        lam_a = np.array([(1 + d) / 2, (1 - d) / 2])
        expected = (
            sum(x * np.log2(x) for x in lam_ab if x > 0)
            - sum(x * np.log2(x) for x in lam_a if x > 0)
            + 1.0
        )
        assert channel_capacity(rho) == pytest.approx(expected, abs=1e-10)
        got_a = spectrum_oracle(ptrace_oracle(rho, "A"))
        np.testing.assert_allclose(got_a, sorted(lam_a, reverse=True), atol=1e-12)
    # flip: sum lam_AB log lam_AB + 2
    for p in np.linspace(0.0, 1.0, 21):
        rho = evolve_oracle(bpf_ops_oracle(float(p)), bd_oracle(*CAPACITY_COEFFS.as_tuple()))
        lam_ab = bpf_closed_form_spectrum(CAPACITY_COEFFS, float(p))
        expected = sum(x * np.log2(x) for x in lam_ab if x > 0) + 2.0
        assert channel_capacity(rho) == pytest.approx(expected, abs=1e-10)


def test_capacity_symmetry_under_flip_reversal():
    for p in np.linspace(0.0, 0.5, 11):
        a = evolve_oracle(bpf_ops_oracle(float(p)), bd_oracle(*CAPACITY_COEFFS.as_tuple()))
        b = evolve_oracle(bpf_ops_oracle(float(1 - p)), bd_oracle(*CAPACITY_COEFFS.as_tuple()))
        assert abs(channel_capacity(a) - channel_capacity(b)) <= 1e-10


def test_capacity_in_range_and_pure_peak():
    rng = np.random.RandomState(131)
    for _ in range(50):
        rho = evolve_oracle(
            ad_ops_oracle(float(rng.uniform(0, 1))), bd_oracle(*rand_bd_coeffs(rng))
        )
        c = channel_capacity(rho)
        assert -1e-9 <= c <= 2.0 + 1e-9
        if c > 2.0 - 1e-9:
            assert entropy_oracle(rho) < 1e-8  # pure and maximally entangled


def test_capacity_curves_ad_rate_families():
    ts = np.linspace(0.0, 10.0, 21)
    curves = {
        rate: dict(capacity_curves("AD", CAPACITY_COEFFS, ts, rate_lambda=rate))
        for rate in (0.1, 0.3, 0.7)
    }
    assert curves[0.1][0.0] == pytest.approx(2.0, abs=1e-9)
    for t in ts[1:]:
        t = float(t)
        assert curves[0.1][t] > curves[0.3][t] > curves[0.7][t]


def _dense_capacity_loop(family, coeffs, schedule, rate_lambda=None):
    """The point-by-point loop the stacked ``capacity_curves`` replaced."""
    rho0 = bell_diagonal_density(coeffs)
    curve = []
    for x in schedule:
        x = float(x)
        param = d_of_t(rate_lambda, x) if rate_lambda is not None else x
        curve.append((x, channel_capacity(apply_one_sided(noise_kraus(family, param), rho0))))
    return curve


def test_capacity_curves_equal_the_dense_loop(monkeypatch):
    rng = np.random.RandomState(29)
    triples = [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0), CAPACITY_COEFFS.as_tuple()]
    triples += [rand_bd_coeffs(rng) for _ in range(3)]
    schedules = (
        ("AD", np.linspace(0.0, 1.0, 11), None),
        ("BPF", np.linspace(0.0, 1.0, 11), None),
        ("AD", np.linspace(0.0, 10.0, 11), 0.3),
        ("BPF", [0.7, 0.1, 0.5, 0.5], None),
    )
    for coeffs in map(lambda c: BellDiagonalCoeffs(*c), triples):
        for family, schedule, rate in schedules:
            expected = _dense_capacity_loop(family, coeffs, schedule, rate)
            assert capacity_curves(family, coeffs, schedule, rate) == expected
    monkeypatch.setattr(sweep, "_STACK_ROWS", 3)  # blocks of 3, 3, 3 and 2 points
    for family, schedule, rate in schedules[:3]:
        expected = _dense_capacity_loop(family, CAPACITY_COEFFS, schedule, rate)
        assert capacity_curves(family, CAPACITY_COEFFS, schedule, rate) == expected
    assert capacity_curves("AD", CAPACITY_COEFFS, []) == []


@pytest.mark.parametrize(
    "schedule, rate, message",
    [
        ([0.5, 1.5, -0.5], None, r"^damping probability d = 1.5 outside \[0, 1\]$"),
        ([1.0, -2.0, float("nan")], 0.3, r"^rate and time must be nonnegative, got \(0.3, -2.0\)$"),
        ([1.0, float("nan"), -2.0], 0.3, r"^damping probability d = nan outside \[0, 1\]$"),
    ],
    ids=["d_above_1", "negative_time", "nan_time_first"],
)
def test_capacity_curves_raise_the_first_bad_point_of_the_schedule(schedule, rate, message):
    for curve in (capacity_curves, _dense_capacity_loop):
        with pytest.raises(ValueError, match=message):
            curve("AD", CAPACITY_COEFFS, schedule, rate)


def test_capacity_curves_validation():
    with pytest.raises(ValueError):
        capacity_curves("BPF", CAPACITY_COEFFS, [0.1], rate_lambda=0.3)
    with pytest.raises(ValueError):
        capacity_curves("XY", CAPACITY_COEFFS, [0.1])
