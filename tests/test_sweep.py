import math
from functools import cached_property

import numpy as np
import pytest

from conftest import (
    OPTIMIZER_REFUSAL,
    I2,
    SX,
    SZ,
    ad_ops_oracle,
    bpf_ops_oracle,
    evolve_oracle,
    rand_bd_coeffs,
    steer_oracle,
    u_oracle,
)
from entropic_uncertainty import bounds, channels, sweep
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
from entropic_uncertainty.linalg import NotHermitianError, is_x_patterned, stacked_density_spectra
from entropic_uncertainty.measures import quantum_discord, von_neumann_entropy
from entropic_uncertainty.sweep import (
    MAX_GRID_ROWS,
    OUTPUT_TAGS,
    ConfigError,
    NumericError,
    SweepConfig,
    SweepRow,
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


def _row(**overrides):
    fields = dict(channel="AD", param=0.5, c1=-0.5, c2=0.4, c3=0.8, steer_kind=None,
                  steer_strength=None, rate_lambda=None, quantities=(("u", 1.25),))
    return SweepRow(**(fields | overrides))


@pytest.mark.parametrize(
    "second",
    [
        _row(steer_kind="weak", steer_strength=0.4),
        _row(param=0.6, quantities=(("berta", 1.25),)),  # same constant cells as the first
        _row(c1=0.1, quantities=(("berta", 1.25),)),
        _row(rate_lambda=0.3),
    ],
    ids=["steered_after_unsteered", "quantity_renamed", "quantity_renamed_new_run",
         "rate_after_none"],
)
def test_render_csv_refuses_rows_of_another_schema(second):
    assert render_csv([_row(), _row(param=0.75)]) == "channel,param,C1,C2,C3,u\n" + (
        "AD,0.5,-0.5,0.4,0.8,1.25\nAD,0.75,-0.5,0.4,0.8,1.25\n")
    for rows in ([_row(), second], [_row(), _row(param=0.75), second, _row()]):
        with pytest.raises(ValueError, match="^rows do not share a single column schema$"):
            render_csv(rows)


@pytest.mark.parametrize(
    "overrides, value",
    [
        ({"param": math.nan}, "nan"),
        ({"quantities": (("u", math.inf),)}, "inf"),
        ({"steer_kind": "weak", "steer_strength": -math.inf}, "-inf"),
        ({"rate_lambda": math.nan}, "nan"),
    ],
    ids=["param", "value", "strength", "rate"],
)
def test_render_csv_refuses_non_finite_cells(overrides, value):
    runs = [[_row(**overrides)]]
    if len(overrides) == 1 and "rate_lambda" not in overrides:  # after a good row of its run
        runs.append([_row(), _row(**overrides)])
    for rows in runs:
        with pytest.raises(NumericError, match=f"^refusing to emit non-finite value {value}$"):
            render_csv(rows)


def test_render_csv_prints_negative_zero_as_zero():
    rows = [_row(param=-0.0, c1=-0.0, quantities=(("u", -0.0), ("berta", 0.0))),
            _row(param=0.5, c1=-0.0, quantities=(("u", -0.0), ("berta", -1.5)))]
    assert render_csv(rows) == "channel,param,C1,C2,C3,u,berta\nAD,0,0,0.4,0.8,0,0\n" + (
        "AD,0.5,0,0.4,0.8,0,-1.5\n")
    steered = _row(steer_kind="filter", steer_strength=-0.0, rate_lambda=-0.0)
    assert render_csv([steered]).splitlines()[1] == "AD,0.5,-0.5,0.4,0.8,filter,0,0,1.25"


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


def test_errata_discord_is_the_dense_discord_on_b(monkeypatch):
    # errata's discord, from the stack's columns, equals quantum_discord(state, "B") bitwise,
    # and the S(AB) it passes the closed form is von_neumann_entropy(state) bitwise
    states, entropies, discords = [], [], []
    discord_xstate_closed, discord_from = sweep.discord_xstate_closed, sweep.discord_from

    def recorded_state(state, s_ab):
        states.append(state)
        entropies.append(s_ab)
        return discord_xstate_closed(state, s_ab)

    def recorded_discord(mutual, classical):
        discords.append(discord_from(mutual, classical))
        return discords[-1]

    monkeypatch.setattr(sweep, "discord_xstate_closed", recorded_state)
    monkeypatch.setattr(sweep, "discord_from", recorded_discord)
    rng = np.random.RandomState(1021)
    triples = [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0)] + [rand_bd_coeffs(rng) for _ in range(8)]
    for coeffs in triples:
        for channel in ("AD", "BPF"):
            errata_report(BellDiagonalCoeffs(*coeffs), channel, [0.0, 0.5, 1.0])
    assert len(states) == len(entropies) == len(discords) == len(triples) * 2 * 3
    for state, s_ab, discord in zip(states, entropies, discords):
        assert discord == quantum_discord(state, measured_side="B")
        assert s_ab == von_neumann_entropy(state)
        assert type(discord) is type(s_ab) is float


@pytest.mark.parametrize("points", [2.5, 3.0, 1.5])
def test_a_non_integer_point_count_is_its_one_problem(points):
    # judged as np.linspace judges it, so 3.0 is refused too; the < 2 and grid-size checks
    # of the field are skipped
    expected = [f"param_points = {points!r} is not an integer"]
    assert small_cfg(param_points=points).validate() == expected
    assert small_cfg(param_points=np.int64(3)).validate() == []


@pytest.mark.parametrize(("field", "value", "problem"), [
    ("channel", np.array(["AD"]), "channel array(['AD'], dtype='<U2') not one of ('AD', 'BPF')"),
    ("channel", np.eye(2), f"channel {np.eye(2)!r} not one of ('AD', 'BPF')"),
    ("steering_kind", np.array(["weak"]),
     "steering_kind array(['weak'], dtype='<U4') not one of ('filter', 'weak')"),
    ("outputs", (np.eye(2),), f"unknown output tag {np.eye(2)!r}"),
    ("outputs", ("u", np.array(["u"])), "unknown output tag array(['u'], dtype='<U1')"),
], ids=["channel-array", "channel-matrix", "steering-kind-array", "outputs-matrix",
        "outputs-array-beside-its-string"])
def test_an_array_valued_field_is_its_one_problem(field, value, problem):
    # only a string is compared with a field's names: numpy's elementwise == let a
    # one-string array through (rows whose channel is an ndarray, "steering_kind given but no
    # steering_strengths"), raised "truth value ... is ambiguous" for a matrix, and counted
    # an array beside its string as one tag given twice
    with pytest.raises(ConfigError) as info:
        run_sweep(small_cfg(**{field: value}))
    assert info.value.problems == (problem,)


@pytest.mark.parametrize("outputs", ["ub", "u"])
def test_an_outputs_string_is_its_one_problem(outputs):
    # read letter by letter, "ub" would report an unknown tag 'b' and "u" would pass
    expected = [f"outputs = {outputs!r} is not a list"]
    assert small_cfg(outputs=outputs).validate() == expected
    assert small_cfg(outputs=["u", "berta"]).validate() == []


@pytest.mark.parametrize("value", ["0.1", 1j])
@pytest.mark.parametrize("field", ["c1", "c2", "c3", "param_start", "param_stop", "rate_lambda"])
def test_a_non_real_number_is_its_one_problem(field, value):
    # math.isfinite raised TypeError on a string; the field's range and ordering checks,
    # and for a coefficient the eigenvalue checks, skip it
    cfg = small_cfg(**{field: value})
    assert cfg.validate() == [f"{field} = {value!r} is not a real number"]
    with pytest.raises(ConfigError, match=f"{field} = {value!r} is not a real number"):
        run_sweep(cfg)
    real = 0.5 if field == "rate_lambda" else getattr(small_cfg(), field)
    assert small_cfg(**{field: np.float64(real)}).validate() == []


def test_an_unhashable_output_tag_is_listed_with_every_other_problem():
    # dict.fromkeys raised TypeError: unhashable type: 'list'
    cfg = small_cfg(outputs=["u", ["u"], ["u"]], param_points=1)
    expected = ["unknown output tag ['u']", "output tag ['u'] given 2 times",
                "param_points = 1 < 2"]
    assert cfg.validate() == expected
    with pytest.raises(ConfigError, match=r"unknown output tag \['u'\]"):
        run_sweep(cfg)


def test_a_non_real_steering_strength_is_its_one_problem():
    cfg = small_cfg(steering_kind="weak", steering_strengths=(0.2, "0.4"))
    assert cfg.validate() == ["steering strength = '0.4' is not a real number"]


def test_a_scalar_steering_strength_is_its_one_problem():
    # len() of a float raised TypeError; the strength and grid-size checks skip the field
    cfg = small_cfg(steering_kind="weak", steering_strengths=0.4)
    assert cfg.validate() == ["steering_strengths = 0.4 is not a list"]
    with pytest.raises(ConfigError, match="steering_strengths = 0.4 is not a list"):
        run_sweep(cfg)


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


def _recorded_stacks(monkeypatch, cls=PointQuantities):
    """Make ``_grid_points`` build ``cls`` and record each stack's ``PointQuantities``: one per
    block, whose ``ok`` marks, once the block's columns are read, the rows the stack gives."""
    stacks = []

    class Recorded(cls):
        @classmethod
        def _stack(cls, states):
            stacks.append(super()._stack(states))
            return stacks[-1]

    monkeypatch.setattr(sweep, "PointQuantities", Recorded)
    return stacks


def test_numeric_error_locates_the_steered_point(monkeypatch):
    class Row4Flagged(PointQuantities):
        @cached_property
        def capacity(self):
            capacity = super().capacity
            if self.stacked:
                # rows 0-2 are strength 0.0, rows 3-5 strength 0.4 (one stack);
                # as when one of the stack's checks fails on that row
                self.ok[3 + 1] = False
            return capacity

    stacks = _recorded_stacks(monkeypatch, Row4Flagged)
    cfg = small_cfg(
        param_points=3,
        steering_kind="weak",
        steering_strengths=(0.0, 0.4),
        outputs=("capacity",),
    )
    # a flagged row whose dense evaluation passes keeps the dense value
    rows = run_sweep(cfg)
    assert len(stacks) == 1
    state = _dense_state("AD", bell_diagonal_density(cfg.coeffs()), 0.5, "weak", 0.4)
    capacity = channel_capacity(state)
    assert rows[4].quantities == (("capacity", capacity),)
    # only the flagged row, grid index 1 at strength 0.4, is rebuilt densely: its one-state
    # entropy (which no stacked row calls) fails, and the error names that row
    def dense_entropy_fails(rho):
        raise ArithmeticError(f"dense entropy of a {rho.shape} matrix")

    monkeypatch.setattr(bounds, "von_neumann_entropy", dense_entropy_fails)
    with pytest.raises(NumericError) as err:
        run_sweep(cfg)
    assert str(err.value) == (
        "sweep point at grid index 1 (param=0.5, steering strength=0.4) failed: "
        "dense entropy of a (2, 2) matrix"
    )

    class NanCapacity(PointQuantities):
        @cached_property
        def capacity(self):
            capacity = super().capacity  # a stack's: a column
            if self.stacked:
                capacity[0] = math.nan
            return capacity

    monkeypatch.setattr(sweep, "PointQuantities", NanCapacity)
    with pytest.raises(NumericError, match=r"capacity is not finite at grid index 0 "):
        run_sweep(cfg)


@pytest.mark.parametrize("block", [1024, 2])
@pytest.mark.parametrize("flagged, nan_row", [(2, 4), (4, 2)])
def test_first_bad_point_in_order_names_its_grid_index(monkeypatch, block, flagged, nan_row):
    # rows 0-2 are strength 0.2, rows 3-5 strength 0.4: the flagged row's dense rebuild fails,
    # the stacked row's u is NaN, and whichever comes first in order is the error
    seen = [0]

    class TwoBadRows(PointQuantities):
        @cached_property
        def u(self):
            u = super().u
            if self.stacked:
                first, seen[0] = seen[0], seen[0] + len(u)
                for row in range(first, seen[0]):
                    if row == flagged:
                        self.ok[row - first] = False
                    if row == nan_row:
                        u[row - first] = math.nan
            return u

    def dense_u_fails(rho):
        raise ValueError("dense u failed")

    monkeypatch.setattr(sweep, "PointQuantities", TwoBadRows)
    monkeypatch.setattr(bounds, "uncertainty_lhs", dense_u_fails)
    monkeypatch.setattr(sweep, "_STACK_ROWS", block)
    cfg = small_cfg(param_points=3, steering_kind="weak", steering_strengths=(0.2, 0.4),
                    outputs=("u", "witness"))
    with pytest.raises(NumericError) as err:
        run_sweep(cfg)
    k, i = divmod(min(flagged, nan_row), 3)
    where = f"grid index {i} (param={[0.0, 0.5, 1.0][i]!r}, steering strength={(0.2, 0.4)[k]!r})"
    if flagged < nan_row:
        assert str(err.value) == f"sweep point at {where} failed: dense u failed"
    else:
        assert str(err.value) == f"quantity u is not finite at {where}"


def _counted(monkeypatch, module, names, calls):
    """Wrap each function ``names`` of ``module`` to append (name, what it was given) to
    ``calls``: an array's shape, and any string argument (a side or a kept qubit)."""
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            given = [np.shape(a) if isinstance(a, np.ndarray) else a for a in args]
            calls.append((_name, *(g for g in given if isinstance(g, (tuple, str)))))
            return _original(*args)

        monkeypatch.setattr(module, name, counted)


def test_shared_correlations_run_once_per_point(monkeypatch):
    dense, stacked = [], []  # (entry point, the shapes and sides it was given)
    _counted(monkeypatch, bounds, ("von_neumann_entropy",
                                   "min_conditional_entropy_over_measurements"), dense)
    _counted(monkeypatch, bounds, ("stacked_von_neumann_entropy", "stacked_holevo",
                                   "stacked_measurement_minima", "_stacked_u"), stacked)
    cfg = small_cfg(outputs=("pati", "adabi", "discord", "tightness"), param_points=4)
    run_sweep(cfg)
    # S(AB), S(A), S(B) once, u once from the 2x2 blocks that measuring A leaves (it reads
    # S(B) as its memory term and takes no entropy stack of its own), both bases' Holevo
    # quantities from one call and the measurement optimizer on qubit A once
    entropy = ("stacked_von_neumann_entropy", (4, 4, 4))
    memory = ("stacked_von_neumann_entropy", (4, 2, 2))
    assert sorted(stacked) == sorted([entropy] + [memory] * 2 + [("_stacked_u", (4, 4, 4), (4,))]
                                     + [("stacked_holevo", (4, 4, 4), bounds.BASES, (4,))]
                                     + [("stacked_measurement_minima", (4, 4, 4), "A")])
    assert dense == []
    # one state's S(AB), S(A) and S(B) once each, and the optimizer once on each qubit
    rho = bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8))
    bound_report(rho)
    assert sorted(dense) == sorted([("von_neumann_entropy", (4, 4))]
                                   + [("von_neumann_entropy", (2, 2))] * 2
                                   + [("min_conditional_entropy_over_measurements", (4, 4), side)
                                      for side in "AB"])


@pytest.mark.parametrize(("output", "expected"), [
    # S(AB) (the state's check) and S(B); u's own spectra are 2x2 blocks in closed form
    ("u", [((5, 4, 4),), ((5, 2, 2),)]),
    # S(AB) and S(B), and no S(A)
    ("berta", [((5, 4, 4),), ((5, 2, 2),)]),
])
def test_a_stacked_read_computes_only_what_it_needs(monkeypatch, output, expected):
    calls = []
    _counted(monkeypatch, bounds, ("stacked_von_neumann_entropy", "stacked_partial_trace",
                                   "stacked_holevo", "stacked_measurement_minima"), calls)
    run_sweep(small_cfg(outputs=(output,)))
    assert [c[1:] for c in calls if c[0] == "stacked_von_neumann_entropy"] == expected
    traced = [c[1:] for c in calls if c[0] == "stacked_partial_trace"]
    assert traced == [((5, 4, 4), "B")]
    assert {c[0] for c in calls} == {"stacked_von_neumann_entropy", "stacked_partial_trace"}


def _dense_state(channel, rho0, param, kind, strength):
    state = apply_one_sided(noise_kraus(channel, param), rho0)
    if kind is not None:
        op = filter_op if kind == "filter" else weak_op
        state = apply_steering(op(strength), state)
    return state


def test_batched_u_equals_dense():
    # an N-row stack equals N one-row calls bitwise, and the conftest oracles closely;
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
            evolved, evolved_ok = channels._evolve(channel, rho0, params)
            ops_oracle = ad_ops_oracle if channel == "AD" else bpf_ops_oracle
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
                        # one operator for the stack; the input check is the caller's
                        states, steered_ok = channels._steer(op.operator, evolved)
                        steered_ok &= stacked_density_spectra(evolved)[1]
                    us, ok = bounds._stacked_u(states, PointQuantities._stack(states).s_b)
                    assert evolved_ok.all() and steered_ok.all() and ok.all()
                    for i, param in enumerate(params):
                        one_row = _dense_state(channel, rho0, float(param), kind, s)
                        u = uncertainty_lhs(one_row)
                        assert np.array_equal(states[i], one_row), (coeffs, channel, rate, s, i)
                        assert us[i] == u
                        assert next(rows).quantities == (("u", u),)
                        oracle = evolve_oracle(ops_oracle(param), rho0)
                        if kind is not None:
                            oracle = steer_oracle(oracle, op.operator)
                        np.testing.assert_allclose(states[i], oracle, rtol=0.0, atol=1e-14)
                        assert u == pytest.approx(u_oracle(oracle), abs=1e-10)
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


def _flagged(stacks):
    """Per recorded stack, the rows it leaves to the dense path."""
    return [np.flatnonzero(~q.ok).tolist() for q in stacks]


def test_batched_columns_equal_dense(monkeypatch):
    # every column of every row equals the state's own dense evaluation, bitwise;
    # each grid holds the boundary points: AD d = 1, BPF p in {0, 1/2, 1}
    stacks = _recorded_stacks(monkeypatch)
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
    # one stack per sweep, and the stack gave every row
    assert _flagged(stacks) == [[]] * (len(triples) * 3 * 3)

    # a Hadamard on the memory qubit: d = 1 leaves an X state, the other rows are not; every
    # stacked value includes the state's own check, so each tag alone flags them too; a tag
    # that reads a measurement minimum stops at the first flagged row, grid index 0, whose
    # rebuild the optimizer refuses
    h = np.kron(I2, (SX + SZ) / np.sqrt(2.0))
    monkeypatch.setattr(sweep, "bell_diagonal_density", lambda c: h @ bell_diagonal_density(c) @ h)
    cases = [(OUTPUT_TAGS, 1.0, [[0, 1, 2, 3]]), (OUTPUT_TAGS, 0.5, [[0, 1, 2, 3, 4]])]
    cases += [((tag,), 0.5, [[0, 1, 2, 3, 4]]) for tag in OUTPUT_TAGS]
    refused = 0
    for outputs, stop, expected in cases:
        cfg = small_cfg(param_stop=stop, steering_kind="weak", steering_strengths=(0.4,),
                        outputs=outputs)
        stacks.clear()
        if {"pati", "tightness", "discord", "s_min"} & set(outputs):
            with pytest.raises(NumericError) as err:
                run_sweep(cfg)
            assert _flagged(stacks) == expected, outputs
            assert str(err.value) == ("sweep point at grid index 0 (param=0.0, steering "
                                      f"strength=0.4) failed: {OPTIMIZER_REFUSAL}"), outputs
            refused += 1
            continue
        rows = run_sweep(cfg)
        assert _flagged(stacks) == expected, outputs
        rho0 = h @ bell_diagonal_density(cfg.coeffs()) @ h
        for row in rows:
            state = _dense_state("AD", rho0, row.param, "weak", 0.4)
            [tag] = outputs  # one tag that takes any state
            q = PointQuantities(state)
            value = (1.0 if q.witness else 0.0) if tag == "witness" else getattr(q, tag)
            assert dict(row.quantities) == {tag: value}, (outputs, row)
    assert refused == 2 + 4


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


def test_steered_sweep_is_one_stack_in_blocks(monkeypatch):
    # K strengths x N points are one stack of K*N rows, in ceil(K*N / _STACK_ROWS) blocks
    stacks = _recorded_stacks(monkeypatch)
    long_grid = small_cfg(param_points=400, steering_kind="weak",
                          steering_strengths=(0.1, 0.5, 0.9), outputs=("u",))
    rows = run_sweep(long_grid)
    assert [len(q.rho) for q in stacks] == [sweep._STACK_ROWS, 1200 - sweep._STACK_ROWS]
    assert [row.steer_strength for row in rows] == [0.1] * 400 + [0.5] * 400 + [0.9] * 400

    # a block boundary inside one strength's rows changes no value
    for channel, kind, strengths in (("AD", "filter", (0.2, 0.5, 0.8)),
                                     ("BPF", "weak", (0.0, 0.3, 0.6, 0.9))):
        cfg = small_cfg(channel=channel, param_points=7, steering_kind=kind,
                        steering_strengths=strengths, outputs=OUTPUT_TAGS)
        rho0 = bell_diagonal_density(cfg.coeffs())
        grid = np.linspace(0.0, 1.0, 7).tolist()
        for block in (5, 3):  # 5 cuts the first strength's 7 rows after row 4
            monkeypatch.setattr(sweep, "_STACK_ROWS", block)
            stacks.clear()
            rows = run_sweep(cfg)
            assert len(stacks) == math.ceil(7 * len(strengths) / block)
            assert [(row.steer_strength, row.param) for row in rows] == [
                (s, x) for s in strengths for x in grid
            ]
            for row in rows:
                state = _dense_state(channel, rho0, row.param, kind, row.steer_strength)
                assert dict(row.quantities) == _dense_columns(state), (cfg, block, row)


def test_grid_points_reject_a_mix_of_none_and_operators():
    rho0 = bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8))
    for ops in ((None, weak_op(0.3)), (filter_op(0.5), None)):
        with pytest.raises(ValueError, match="mixes None with steering operators"):
            next(sweep._grid_points("AD", rho0, [0.0, 0.5], None, ops, ("u",)))


@pytest.mark.parametrize("family", ["ad", "GAD"])
def test_grid_and_witness_routes_refuse_an_unknown_family(family):
    # both routes build their Kraus stack in channels._kraus_stack, which refuses a family
    # other than AD and BPF instead of building the flip channel for it
    rho0 = bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8))
    message = f"unknown channel family '{family}'"
    with pytest.raises(ValueError, match=message):
        channels._evolve(family, rho0, np.array([0.3]))  # the witness route
    with pytest.raises(ValueError, match=message):
        next(sweep._grid_points(family, rho0, [0.3], None, (None,), ("u",)))


def test_grid_points_check_rho0_once_before_evolving(monkeypatch):
    rho0 = bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8))
    checks, blocks = [], []
    validate, evolve = sweep.validate_two_qubit, sweep._evolve
    monkeypatch.setattr(sweep, "validate_two_qubit", lambda r: checks.append(r) or validate(r))
    monkeypatch.setattr(sweep, "_evolve", lambda *args: blocks.append(args) or evolve(*args))
    monkeypatch.setattr(sweep, "_STACK_ROWS", 2)  # two blocks
    assert len(list(sweep._grid_points("AD", rho0, [0.0, 0.5, 1.0], None, (None,), ("u",)))) == 3
    assert len(checks) == 1 and len(blocks) == 2
    # a bad rho0 raises its own error before any block is evolved, even where the first
    # point's parameter is out of range too (no command reaches that case)
    monkeypatch.undo()
    not_hermitian = rho0.copy()
    not_hermitian[0, 3] += 1e-3
    monkeypatch.setattr(sweep, "_evolve", lambda *args: pytest.fail("evolved a bad rho0"))
    with pytest.raises(NotHermitianError):
        next(sweep._grid_points("AD", not_hermitian, [1.5, 0.5], None, (None,), ("u",)))


def test_non_x_rows_take_the_dense_u(monkeypatch):
    h = np.kron(I2, (SX + SZ) / np.sqrt(2.0))  # a Hadamard on the memory qubit
    x_state = bell_diagonal_density(BellDiagonalCoeffs(-0.5, 0.4, 0.8))
    states = np.array([x_state, h @ x_state @ h, x_state])
    q = PointQuantities._stack(states)
    assert q.u[0] == q.u[2] == uncertainty_lhs(x_state)
    assert q.u[1] == uncertainty_lhs(states[1])  # the blocks hold for any state
    assert q.ok.tolist() == [True, False, True]  # S(AB)'s X-pattern check flags the row

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


def test_non_x_rows_refuse_the_measurement_minimum(monkeypatch):
    # the rows of test_non_x_rows_take_the_dense_u with s_min requested: the stack flags the
    # four non-X rows, and the first one's rebuild names its point and the refusal
    h = np.kron(I2, (SX + SZ) / np.sqrt(2.0))  # a Hadamard on the memory qubit
    monkeypatch.setattr(sweep, "bell_diagonal_density", lambda c: h @ bell_diagonal_density(c) @ h)
    for outputs in (("s_min",), ("u", "s_min", "witness")):
        cfg = small_cfg(steering_kind="weak", steering_strengths=(0.4,), outputs=outputs)
        with pytest.raises(NumericError) as err:
            run_sweep(cfg)
        assert str(err.value) == (
            f"sweep point at grid index 0 (param=0.0, steering strength=0.4) failed: "
            f"{OPTIMIZER_REFUSAL}"
        )
        assert isinstance(err.value.__cause__, ValueError)


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
