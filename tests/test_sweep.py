import numpy as np
import pytest

from conftest import I2, SX, SZ, rand_bd_coeffs
from entropic_uncertainty import bounds, sweep
from entropic_uncertainty.applications import channel_capacity
from entropic_uncertainty.bounds import PointQuantities, bound_report, uncertainty_lhs
from entropic_uncertainty.channels import (
    apply_one_sided,
    apply_steering,
    d_of_t,
    filter_op,
    noise_kraus,
    weak_op,
)
from entropic_uncertainty.linalg import is_x_patterned
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
    for route in (lambda: errata_report(coeffs, "AD", [0.5, 1.5]),
                  lambda: _dense_state("AD", bell_diagonal_density(coeffs), 1.5, None, None)):
        with pytest.raises(ValueError, match=r"^damping probability d = 1.5 outside \[0, 1\]$"):
            route()


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
    stacked = sweep._stacked_values
    blocks = []

    def row_1_of_second_block_flagged(states, outputs):
        blocks.append(stacked(states, outputs))
        if len(blocks) == 2:
            blocks[-1][1][1] = False  # as when the stack's capacity identity check fails
        return blocks[-1]

    monkeypatch.setattr(sweep, "_stacked_values", row_1_of_second_block_flagged)
    cfg = small_cfg(
        param_points=3,
        steering_kind="weak",
        steering_strengths=(0.0, 0.4),
        outputs=("capacity",),
    )
    # a flagged row whose dense evaluation passes keeps the dense value
    rows = run_sweep(cfg)
    state = _dense_state("AD", bell_diagonal_density(cfg.coeffs()), 0.5, "weak", 0.4)
    capacity = channel_capacity(state)
    assert rows[4].quantities == (("capacity", capacity),)
    # strength 0.0 is the first block; grid index 1 at strength 0.4 fails its dense check
    monkeypatch.setattr(bounds, "capacity_bound_form", lambda *args: -1.0)
    blocks.clear()
    with pytest.raises(NumericError) as err:
        run_sweep(cfg)
    assert str(err.value) == (
        "sweep point at grid index 1 (param=0.5, steering strength=0.4) failed: "
        f"capacity forms disagree: {capacity!r} vs -1.0"
    )

    def nan_capacity(states, outputs):
        known, ok = stacked(states, outputs)
        known[0]["capacity"] = float("nan")
        return known, ok

    monkeypatch.setattr(sweep, "_stacked_values", nan_capacity)
    with pytest.raises(NumericError, match=r"capacity is not finite at grid index 0 "):
        run_sweep(cfg)


def test_shared_correlations_run_once_per_point(monkeypatch):
    dense = {"mutual_information": 0, "classical_correlation": 0}
    for name in dense:
        original = getattr(bounds, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            dense[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    stacked = []  # (batched entry point, rows it evaluated)
    for name in ("stacked_von_neumann_entropy", "stacked_holevo", "stacked_measurement_minima"):
        original = getattr(sweep, name)

        def counted_stack(states, *args, _name=name, _original=original):
            stacked.append((_name, len(states), *(a for a in args if isinstance(a, str))))
            return _original(states, *args)

        monkeypatch.setattr(sweep, name, counted_stack)
    cfg = small_cfg(outputs=("pati", "adabi", "discord", "tightness"), param_points=4)
    run_sweep(cfg)
    # S(AB), S(A), S(B) once, the dephased joint and memory entropies once per basis,
    # one Holevo quantity per basis and the measurement optimizer on qubit A once
    entropy = ("stacked_von_neumann_entropy", 4)
    assert sorted(stacked) == sorted(
        [entropy] * 7 + [("stacked_holevo", 4)] * 2 + [("stacked_measurement_minima", 4, "A")]
    )
    assert dense == {"mutual_information": 0, "classical_correlation": 0}
    bound_report(bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8)))
    assert dense == {"mutual_information": 1, "classical_correlation": 1}


def _dense_state(channel, rho0, param, kind, strength):
    state = apply_one_sided(noise_kraus(channel, param), rho0)
    if kind is not None:
        op = filter_op if kind == "filter" else weak_op
        state = apply_steering(op(strength), state)
    return state


def test_batched_u_equals_dense():
    # each grid holds the boundary points: AD d = 1, BPF p in {0, 1/2, 1}
    rng = np.random.RandomState(607)
    triples = [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0)] + [rand_bd_coeffs(rng) for _ in range(6)]
    steerings = [(None, (None,)), ("filter", (1e-9, 0.35, 1.0 - 1e-9)), ("weak", (0.0, 0.6, 0.999))]
    compared = 0
    for coeffs in triples:
        rho0 = bell_diagonal_density(BellDiagonalCoeffs(*coeffs))
        for channel, rate in (("AD", None), ("BPF", None), ("AD", 0.4)):
            grid = np.linspace(0.0, 1.0 if rate is None else 10.0, 5)
            params = grid if rate is None else np.array([d_of_t(rate, t) for t in grid])
            evolved, evolved_ok = sweep._evolve(channel, rho0, params)
            for kind, strengths in steerings:
                cfg = SweepConfig(
                    channel, *coeffs, 0.0, grid[-1], 5,
                    steering_kind=kind,
                    steering_strengths=strengths if kind else (),
                    rate_lambda=rate,
                    outputs=("u",),
                )
                rows = iter(run_sweep(cfg))
                for s in strengths:
                    states, steered_ok = evolved, evolved_ok
                    if kind is not None:
                        op = filter_op(s) if kind == "filter" else weak_op(s)
                        states, steered_ok = sweep._steer(op, evolved)
                    us, ok = sweep._stacked_u(states)
                    assert evolved_ok.all() and steered_ok.all() and ok.all()
                    for i, param in enumerate(params):
                        dense = _dense_state(channel, rho0, float(param), kind, s)
                        u = uncertainty_lhs(dense)
                        assert np.array_equal(states[i], dense), (coeffs, channel, rate, s, i)
                        assert us[i] == u
                        assert next(rows).quantities == (("u", u),)
                        compared += 1
    assert compared == len(triples) * 3 * 7 * 5


def _dense_columns(state):
    """Every output column of one state, evaluated alone on the dense path."""
    q = PointQuantities(state)
    columns = {tag: getattr(q, tag) for tag in ("u", "berta", "pati", "adabi", "discord", "s_min")}
    for bound in ("berta", "pati", "adabi"):
        columns[f"tightness_{bound}"] = q.u - columns[bound]
    columns["capacity"] = q.capacity  # what channel_capacity(state) returns
    columns["witness"] = 1.0 if q.witness else 0.0
    return columns


def _recording_stack(monkeypatch):
    """Record, per stack, which rows ``_stacked_values`` leaves to the dense path."""
    stacked, flagged = sweep._stacked_values, []

    def recorded(states, outputs):
        known, ok = stacked(states, outputs)
        flagged.append(np.flatnonzero(~ok).tolist())
        return known, ok

    monkeypatch.setattr(sweep, "_stacked_values", recorded)
    return flagged


def test_batched_columns_equal_dense(monkeypatch):
    # every column of every row equals the state's own dense evaluation, bitwise;
    # each grid holds the boundary points: AD d = 1, BPF p in {0, 1/2, 1}
    flagged = _recording_stack(monkeypatch)
    rng = np.random.RandomState(613)
    triples = [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0), rand_bd_coeffs(rng)]
    steerings = [(None, ()), ("filter", (1e-9, 0.35, 1.0 - 1e-9)), ("weak", (0.0, 0.6, 0.999))]
    compared = 0
    for coeffs in triples:
        rho0 = bell_diagonal_density(BellDiagonalCoeffs(*coeffs))
        for channel, rate in (("AD", None), ("BPF", None), ("AD", 0.4)):
            for kind, strengths in steerings:
                cfg = SweepConfig(
                    channel, *coeffs, 0.0, 1.0 if rate is None else 10.0, 5,
                    steering_kind=kind,
                    steering_strengths=strengths,
                    rate_lambda=rate,
                    outputs=OUTPUT_TAGS,
                )
                for row in run_sweep(cfg):
                    param = row.param if rate is None else d_of_t(rate, row.param)
                    state = _dense_state(channel, rho0, param, kind, row.steer_strength)
                    assert dict(row.quantities) == _dense_columns(state), (cfg, row)
                    compared += 1
    assert compared == len(triples) * 3 * 7 * 5
    assert flagged == [[]] * (len(triples) * 3 * 7)  # the stack gave every row

    # a Hadamard on the memory qubit: d = 1 leaves an X state, the other rows are not
    h = np.kron(I2, (SX + SZ) / np.sqrt(2.0))
    monkeypatch.setattr(sweep, "bell_diagonal_density", lambda c: h @ bell_diagonal_density(c) @ h)
    for stop, expected in ((1.0, [[0, 1, 2, 3]]), (0.5, [[0, 1, 2, 3, 4]])):
        cfg = small_cfg(param_stop=stop, steering_kind="weak", steering_strengths=(0.4,),
                        outputs=OUTPUT_TAGS)
        flagged.clear()
        rows = run_sweep(cfg)
        assert flagged == expected
        rho0 = h @ bell_diagonal_density(cfg.coeffs()) @ h
        for row in rows:
            state = _dense_state("AD", rho0, row.param, "weak", 0.4)
            assert dict(row.quantities) == _dense_columns(state)


def test_long_grid_blocks_equal_one_stack(monkeypatch):
    cfg = small_cfg(
        param_points=7,
        steering_kind="filter",
        steering_strengths=(0.2, 0.7),
        outputs=("u", "berta", "witness"),
    )
    whole = run_sweep(cfg)
    monkeypatch.setattr(sweep, "_STACK_ROWS", 3)  # blocks of 3, 3 and 1 rows
    assert run_sweep(cfg) == whole
    failing = small_cfg(param_points=3, steering_kind="filter", steering_strengths=(1.0 - 1e-13,))
    monkeypatch.setattr(sweep, "_STACK_ROWS", 2)  # d = 1 is row 0 of the second block
    with pytest.raises(NumericError, match=r"^sweep point at grid index 2 \(param=1.0, "):
        run_sweep(failing)


def test_non_x_rows_take_the_dense_u(monkeypatch):
    h = np.kron(I2, (SX + SZ) / np.sqrt(2.0))  # a Hadamard on the memory qubit
    x_state = bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8))
    us, ok = sweep._stacked_u(np.array([x_state, h @ x_state @ h, x_state]))
    assert us[0] == us[2] == uncertainty_lhs(x_state)
    assert ok.tolist() == [True, False, True]

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return uncertainty_lhs(*args, **kwargs)

    monkeypatch.setattr(bounds, "uncertainty_lhs", counted)
    cfg = small_cfg(steering_kind="weak", steering_strengths=(0.4,), outputs=("u", "witness"))
    run_sweep(cfg)
    assert calls == []  # every row of an X-state sweep takes the stack
    monkeypatch.setattr(sweep, "bell_diagonal_density", lambda c: h @ bell_diagonal_density(c) @ h)
    rows = run_sweep(cfg)
    dense = [_dense_state("AD", h @ x_state @ h, row.param, "weak", 0.4) for row in rows]
    # d = 1 leaves |0><0| (x) I/2, an X state again; the other four rows are not
    assert [is_x_patterned(state) for state in dense] == [False] * 4 + [True]
    assert len(calls) == 4
    for row, state in zip(rows, dense):
        assert dict(row.quantities)["u"] == uncertainty_lhs(state)


def test_batched_failure_names_grid_index_param_and_strength(monkeypatch):
    # filtering towards qubit A's |1> at k -> 1 leaves nothing of the state AD at d = 1 gives
    k = 1.0 - 1e-13
    cfg = small_cfg(param_points=3, steering_kind="filter", steering_strengths=(0.5, k))
    with pytest.raises(NumericError) as err:
        run_sweep(cfg)
    rho0 = bell_diagonal_density(cfg.coeffs())
    with pytest.raises(ValueError) as dense:
        _dense_state("AD", rho0, 1.0, "filter", k)
    assert str(err.value) == (
        f"sweep point at grid index 2 (param=1.0, steering strength={k!r}) failed: {dense.value}"
    )
    assert "post-selection probability" in str(err.value)

    not_hermitian = rho0.copy()
    not_hermitian[0, 3] += 1e-3
    monkeypatch.setattr(sweep, "bell_diagonal_density", lambda c: not_hermitian)
    with pytest.raises(NumericError) as err:
        run_sweep(cfg)
    with pytest.raises(ValueError) as dense:
        _dense_state("AD", not_hermitian, 0.0, "filter", 0.5)
    assert str(err.value) == (
        f"sweep point at grid index 0 (param=0.0, steering strength=0.5) failed: {dense.value}"
    )
