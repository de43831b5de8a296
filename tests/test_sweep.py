import numpy as np
import pytest

from conftest import rand_bd_coeffs
from entropic_uncertainty import bounds, sweep
from entropic_uncertainty.bounds import bound_report
from entropic_uncertainty.channels import (
    apply_one_sided,
    apply_steering,
    filter_op,
    noise_kraus,
    weak_op,
)
from entropic_uncertainty.measures import sigma_x_basis, sigma_z_basis
from entropic_uncertainty.sweep import (
    MAX_GRID_ROWS,
    OUTPUT_TAGS,
    ConfigError,
    NumericError,
    SweepConfig,
    errata_report,
    render_csv,
    run_sweep,
)
from entropic_uncertainty.states import BellDiagonalCoeffs, bell_diagonal_density

FIG1_CFG = SweepConfig("AD", -0.5, 0.4, 0.8, 0.0, 1.0, 101)


def small_cfg(**overrides):
    base = dict(
        channel="AD",
        c1=-0.5,
        c2=0.4,
        c3=0.8,
        param_start=0.0,
        param_stop=1.0,
        param_points=5,
        outputs=("u", "berta"),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_validation_aggregates_all_problems():
    cfg = SweepConfig(
        channel="XX",
        c1=2.0,
        c2=0.0,
        c3=0.0,
        param_start=-0.5,
        param_stop=2.0,
        param_points=1,
        outputs=("u", "bogus"),
    )
    problems = cfg.validate()
    text = "\n".join(problems)
    assert "channel" in text
    assert "bogus" in text
    assert "param_points" in text
    assert "param_start" in text
    assert "c1" in text
    assert len(problems) >= 5
    with pytest.raises(ConfigError):
        run_sweep(cfg)


def test_validation_unphysical_coeffs():
    cfg = small_cfg(c1=0.9, c2=0.9, c3=0.9)
    assert any("unphysical" in p for p in cfg.validate())


def test_two_point_grid_gives_two_rows():
    rows = run_sweep(small_cfg(param_points=2))
    assert len(rows) == 2
    assert rows[0].param == 0.0
    assert rows[1].param == 1.0


def test_fig1_first_row_ordering():
    rows = run_sweep(small_cfg(outputs=("u", "berta", "pati", "adabi")))
    q = dict(rows[0].quantities)
    assert q["berta"] <= q["pati"] + 1e-9 <= q["adabi"] + 2e-9 <= q["u"] + 3e-9


def test_csv_header_for_fig1_preset():
    rows = run_sweep(FIG1_CFG)
    text = render_csv(rows)
    assert text.splitlines()[0] == "channel,param,C1,C2,C3,u,berta,pati,adabi"
    assert len(text.splitlines()) == 102


def test_csv_round_trip_precision():
    rows = run_sweep(small_cfg(outputs=("u", "berta", "pati", "adabi")))
    text = render_csv(rows)
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    for line, row in zip(lines[1:], rows):
        fields = dict(zip(header, line.split(",")))
        assert abs(float(fields["param"]) - row.param) <= 1e-10
        for name, value in row.quantities:
            assert abs(float(fields[name]) - value) <= 1e-10


def test_render_csv_empty_rows():
    with pytest.raises(ValueError, match="no rows"):
        render_csv([])


def test_steering_columns_present():
    cfg = small_cfg(
        steering_kind="weak",
        steering_strengths=(0.0, 0.4),
        outputs=("u",),
        param_points=3,
    )
    rows = run_sweep(cfg)
    assert len(rows) == 6
    text = render_csv(rows)
    assert text.splitlines()[0] == "channel,param,C1,C2,C3,steer_kind,steer_strength,u"


def test_determinism_across_runs():
    cfg = small_cfg(outputs=("u", "berta", "pati", "adabi"), param_points=7)
    assert render_csv(run_sweep(cfg)) == render_csv(run_sweep(cfg))


def test_tightness_and_witness_outputs():
    cfg = small_cfg(outputs=("u", "tightness", "witness", "capacity"), param_points=3)
    rows = run_sweep(cfg)
    names = [name for name, _ in rows[0].quantities]
    assert names == [
        "u",
        "tightness_berta",
        "tightness_pati",
        "tightness_adabi",
        "witness",
        "capacity",
    ]
    for row in rows:
        q = dict(row.quantities)
        assert q["witness"] in (0.0, 1.0)
        assert q["tightness_berta"] >= -1e-9


def test_time_grid_with_rate():
    cfg = small_cfg(
        rate_lambda=0.3,
        param_stop=10.0,
        param_points=3,
        outputs=("capacity",),
        c1=1.0,
        c2=1.0,
        c3=-1.0,
    )
    rows = run_sweep(cfg)
    assert rows[0].param == 0.0
    assert dict(rows[0].quantities)["capacity"] == pytest.approx(2.0, abs=1e-9)
    header = render_csv(rows).splitlines()[0]
    assert header == "channel,param,C1,C2,C3,rate_lambda,capacity"


def test_rate_rejected_for_flip_channel():
    cfg = small_cfg(channel="BPF", rate_lambda=0.3)
    assert any("rate_lambda" in p for p in cfg.validate())


def test_errata_report_contents():
    grid = np.linspace(0.0, 1.0, 11)
    coeffs = BellDiagonalCoeffs(-0.5, 0.4, 0.8)
    for channel in ("AD", "BPF"):
        report = errata_report(coeffs, channel, grid)
        assert "closed-form cross-check report" in report
        assert "[0, 1]" in report
        assert "x-state discord" in report
        assert "evolved-state uncertainty" in report
        if channel == "BPF":
            assert "uncertainty lower bound" in report
    with pytest.raises(ValueError, match="empty"):
        errata_report(coeffs, "AD", [])


def test_grid_size_limit_in_validation():
    assert small_cfg(param_points=MAX_GRID_ROWS).validate() == []
    too_long = small_cfg(param_points=MAX_GRID_ROWS + 1).validate()
    assert too_long == [f"grid of {MAX_GRID_ROWS + 1} rows exceeds the limit of {MAX_GRID_ROWS}"]
    # rows count every steering strength; the other problems are still listed
    steered = small_cfg(
        channel="XX",
        param_points=MAX_GRID_ROWS // 2 + 1,
        steering_kind="weak",
        steering_strengths=(0.0, 0.4),
    )
    problems = steered.validate()
    assert len(problems) == 2
    assert any("exceeds the limit" in p for p in problems)
    assert any("channel 'XX'" in p for p in problems)
    with pytest.raises(ConfigError, match="exceeds the limit"):
        run_sweep(steered)


def test_numeric_error_locates_the_steered_point(monkeypatch):
    calls = []

    def capacity_failing_on_fifth_call(state):
        calls.append(state)
        if len(calls) == 5:
            raise ArithmeticError("capacity forms disagree")
        return 0.5

    monkeypatch.setattr(sweep, "channel_capacity", capacity_failing_on_fifth_call)
    cfg = small_cfg(
        param_points=3,
        steering_kind="weak",
        steering_strengths=(0.0, 0.4),
        outputs=("capacity",),
    )
    # strength 0.0 takes calls 1-3; the fifth call is grid index 1 at strength 0.4
    with pytest.raises(NumericError) as err:
        run_sweep(cfg)
    assert str(err.value) == (
        "sweep point at grid index 1 (param=0.5, steering strength=0.4) failed: "
        "capacity forms disagree"
    )
    monkeypatch.setattr(sweep, "channel_capacity", lambda state: float("nan"))
    with pytest.raises(NumericError, match=r"capacity is not finite at grid index 0 "):
        run_sweep(cfg)


BOUND_COLUMNS = {
    "u": "u_lhs",
    "berta": "berta",
    "pati": "pati",
    "adabi": "adabi",
    "tightness_berta": "tightness_berta",
    "tightness_pati": "tightness_pati",
    "tightness_adabi": "tightness_adabi",
    "discord": "discord",
    "s_min": "s_min_cond",
}


def test_sweep_bound_columns_equal_bound_report_at_boundaries():
    # grid [0, 1/2, 1] covers d = 1 and p in {0, 1/2, 1}
    rng = np.random.RandomState(211)
    triples = [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0)] + [rand_bd_coeffs(rng) for _ in range(5)]
    steerings = [(None, ()), ("filter", (1e-9, 1.0 - 1e-9)), ("weak", (0.0, 0.999))]
    bases = (sigma_x_basis(), sigma_z_basis())
    compared = 0
    for coeffs in triples:
        rho0 = bell_diagonal_density(BellDiagonalCoeffs(*coeffs))
        for channel in ("AD", "BPF"):
            for kind, strengths in steerings:
                cfg = SweepConfig(
                    channel, *coeffs, 0.0, 1.0, 3,
                    steering_kind=kind,
                    steering_strengths=strengths,
                    outputs=OUTPUT_TAGS,
                )
                for row in run_sweep(cfg):
                    state = apply_one_sided(noise_kraus(channel, row.param), rho0)
                    if kind is not None:
                        op = filter_op if kind == "filter" else weak_op
                        state = apply_steering(op(row.steer_strength), state)
                    report = bound_report(state, *bases)
                    values = dict(row.quantities)
                    for column, field in BOUND_COLUMNS.items():
                        assert values[column] == getattr(report, field), (row, column)
                        compared += 1
    assert compared == len(triples) * 2 * 5 * 3 * len(BOUND_COLUMNS)


def test_shared_correlations_run_once_per_point(monkeypatch):
    counts = {"mutual_information": 0, "classical_correlation": 0}
    for name in counts:
        original = getattr(bounds, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    cfg = small_cfg(outputs=("pati", "adabi", "discord", "tightness"), param_points=4)
    run_sweep(cfg)
    assert counts == {"mutual_information": 4, "classical_correlation": 4}
    bound_report(bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8)),
                 sigma_x_basis(), sigma_z_basis())
    assert counts == {"mutual_information": 5, "classical_correlation": 5}
