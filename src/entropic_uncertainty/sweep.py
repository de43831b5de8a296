"""Deterministic parameter sweeps with CSV output and the cross-check report.

A sweep walks a noise-parameter grid for one channel, optionally applies a
steering operation to each evolved state, evaluates the requested quantities
and emits rows in grid order.  Output is byte-stable across runs.

``_grid_points`` is the one route from a grid to evaluated points, for sweeps,
presets, capacity curves and ``errata_report``.  This module keeps the grid, the
row routing, the output columns and the CSV; the stacked stages live with their
quantities: ``channels._evolve`` and ``channels._steer``, then the block's
``bounds.PointQuantities``, which computes only the values its columns read.
The grid is evolved once, and all (steering strength, point) rows are one stack,
in blocks of ``_STACK_ROWS`` rows; each strength's run of a block is steered by that
strength's one operator, and each stage keeps a row mask of its checks.  A
row that passes every mask takes its values straight from the stack's columns;
any other row is rebuilt alone by the one-state functions, which raise that
point's own error.  ``_output_rows`` is the one mapping from output names to CSV
columns, applied alike to a block's ``PointQuantities`` and to a rebuilt row's;
``render_csv`` formats the cells a run of rows shares once per run.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import groupby
from numbers import Real
from operator import attrgetter, index
from typing import NamedTuple

import numpy as np

from .bounds import PointQuantities, ad_closed_form_u, bpf_closed_forms
from .channels import (
    CHANNEL_FAMILIES,
    _evolve,
    _steer,
    apply_one_sided,
    apply_steering,
    d_of_t,
    filter_op,
    noise_kraus,
    weak_op,
)
from .linalg import _of_type, stacked_density_spectra, validate_two_qubit
from .measures import discord_from, discord_xstate_closed
from .states import BellDiagonalCoeffs, bell_diagonal_density, coefficient_problems

OUTPUT_TAGS = ("u", "berta", "pati", "adabi", "tightness", "discord", "s_min", "capacity",
               "witness")
# Rows per stack: long grids go in blocks, so a stack's temporaries stay a few MB.
_STACK_ROWS = 1024
STEERING_KINDS = ("filter", "weak")
# Largest grid a sweep or a capacity/errata schedule may ask for, in rows
# (points times the number of steering strengths); the grid is built up front.
MAX_GRID_ROWS = 10**6


class ConfigError(ValueError):
    """Invalid sweep configuration or ``subject`` (a command's flags); lists every violation."""

    def __init__(self, problems, subject: str = "sweep configuration"):
        self.problems = tuple(problems)
        super().__init__(f"invalid {subject}:\n" + "\n".join(
            f"  - {p}" for p in self.problems
        ))


class NumericError(RuntimeError):
    """An unphysical state or non-finite quantity was produced mid-sweep."""


@dataclass(frozen=True)
class SweepConfig:
    channel: str
    c1: float
    c2: float
    c3: float
    param_start: float = 0.0
    param_stop: float = 1.0
    param_points: int = 101
    steering_kind: str | None = None
    steering_strengths: tuple[float, ...] = ()
    rate_lambda: float | None = None
    outputs: tuple[str, ...] = ("u", "berta", "pati", "adabi")

    def validate(self) -> list[str]:
        problems = []

        def finite(name: str, v) -> bool:
            # a non-real or non-finite value gets this one problem instead of a range check
            real = isinstance(v, Real)
            if real and math.isfinite(v):
                return True
            problems.append(f"{name} = {v!r} is not {'finite' if real else 'a real number'}")
            return False

        def listed(name: str, v) -> bool:
            # a string would be read letter by letter, a number not at all
            if isinstance(v, Sequence) and not isinstance(v, str):
                return True
            problems.append(f"{name} = {v!r} is not a list")
            return False

        if self.channel not in CHANNEL_FAMILIES:
            problems.append(f"channel {self.channel!r} not one of {CHANNEL_FAMILIES}")
        # a field that is not a list has that one problem, and the checks of its items skip it
        outputs = self.outputs if listed("outputs", self.outputs) else None
        strengths = self.steering_strengths if listed("steering_strengths",
                                                      self.steering_strengths) else None
        if outputs is not None and not outputs:
            problems.append("outputs list is empty")
        for tag in [t for i, t in enumerate(outputs or ()) if outputs.index(t) == i]:
            if tag not in OUTPUT_TAGS:
                problems.append(f"unknown output tag {tag!r}")
            if outputs.count(tag) > 1:
                problems.append(f"output tag {tag!r} given {outputs.count(tag)} times")
        try:
            points = index(self.param_points)  # as np.linspace reads it
        except TypeError:
            problems.append(f"param_points = {self.param_points!r} is not an integer")
        else:
            if points < 2:
                problems.append(f"param_points = {self.param_points} < 2")
            rows = points * max(1, len(strengths or ()))
            if rows > MAX_GRID_ROWS:
                problems.append(f"grid of {rows} rows exceeds the limit of {MAX_GRID_ROWS}")
        ends = (("param_start", self.param_start), ("param_stop", self.param_stop))
        finite_ends = [(name, v) for name, v in ends if finite(name, v)]
        if self.rate_lambda is None:
            for name, v in finite_ends:
                if not 0.0 <= v <= 1.0:
                    problems.append(f"{name} = {v!r} outside [0, 1]")
        else:
            if self.channel == "BPF":
                problems.append("rate_lambda only applies to the AD channel")
            if finite("rate_lambda", self.rate_lambda) and self.rate_lambda <= 0.0:
                problems.append(f"rate_lambda = {self.rate_lambda!r} must be positive")
            for name, v in finite_ends:
                if v < 0.0:
                    problems.append(f"{name} = {v!r} must be nonnegative (time grid)")
        if len(finite_ends) == 2 and self.param_stop < self.param_start:
            problems.append("param_stop is smaller than param_start")
        steered = self.steering_kind is not None or strengths
        if steered and self.steering_kind not in STEERING_KINDS:
            problems.append(
                f"steering_kind {self.steering_kind!r} not one of {STEERING_KINDS}"
            )
        if self.steering_kind in STEERING_KINDS and strengths is not None and not strengths:
            problems.append("steering_kind given but no steering_strengths")
        for s in strengths or ():
            if not finite("steering strength", s):
                continue
            if self.steering_kind == "filter" and not 0.0 < s < 1.0:
                problems.append(f"filter strength {s!r} outside (0, 1)")
            if self.steering_kind == "weak" and not 0.0 <= s < 1.0:
                problems.append(f"weak strength {s!r} outside [0, 1)")
        return problems + coefficient_problems(self.c1, self.c2, self.c3)

    def coeffs(self) -> BellDiagonalCoeffs:
        return BellDiagonalCoeffs(self.c1, self.c2, self.c3)


class SweepRow(NamedTuple):
    """One grid point: the inputs that produced it plus the requested values."""

    channel: str
    param: float
    c1: float
    c2: float
    c3: float
    steer_kind: str | None
    steer_strength: float | None
    rate_lambda: float | None
    quantities: tuple[tuple[str, float], ...]


def _noise_param(x: float, rate: float | None) -> float:
    """The channel parameter at grid value x: x itself, or d_of_t(rate, x) on a time grid."""
    return x if rate is None else d_of_t(rate, x)


def _dense_state(family: str, rho0: np.ndarray, x: float, rate, op) -> np.ndarray:
    state = apply_one_sided(noise_kraus(family, _noise_param(x, rate)), rho0)
    return state if op is None else apply_steering(op, state)


class _NotFinite(ArithmeticError):
    """A point's output value is not finite."""


def _output_rows(q: PointQuantities, outputs, n: int) -> tuple[list[tuple], list[bool]]:
    """The output columns of ``q``, one point's (``n`` = 1) or a stack's of ``n`` rows alike:
    each row's ``(name, value)`` pairs of floats, and whether its values are all finite.
    ``tightness`` is ``u`` minus each bound, ``witness`` 1.0 or 0.0, any other name q's value."""
    columns = []
    for tag in outputs:
        if tag == "tightness":
            columns += [(f"tightness_{b}", q.u - getattr(q, b)) for b in ("berta", "pati", "adabi")]
        elif tag == "witness":
            columns.append(("witness", 1.0 * q.witness))
        else:
            columns.append((tag, getattr(q, tag)))
    names = [name for name, _ in columns]
    table = np.array([column for _, column in columns], dtype=float).reshape(len(columns), n)
    rows = [tuple(zip(names, values)) for values in table.T.tolist()]
    return rows, np.isfinite(table).all(axis=0).tolist()


def _grid_points(family: str, rho0: np.ndarray, xs, rate, steering_ops, outputs):
    """``(k, i, state, quantities)`` for every grid point ``xs[i]`` under ``steering_ops[k]``
    (all SteeringOps, or all None to leave states unsteered), op by op, each in grid order:
    the point's state and its ``(name, value)`` columns of ``outputs`` (``_output_rows``).

    A point's state is ``rho0`` evolved through the channel at ``_noise_param(x, rate)``,
    then steered.  The grid is evolved once; its (op, point) rows are one stack, in blocks
    of ``_STACK_ROWS``, each op's run of a block steered by that op alone.  Each block's
    ``PointQuantities`` computes the columns, and only then is its ``ok`` read: a row that
    passes every check of the stack takes the stack's columns; any other row is rebuilt
    alone by the one-state functions (``_dense_state``), which raise that point's own
    error.  A non-finite value raises ``_NotFinite``.  Every error is raised in the place
    of its point, so it belongs to the point after the last one yielded, and the first bad
    point in order is the one raised; ``rho0`` is checked once, before the first point.
    """
    if len({op is None for op in steering_ops}) > 1:
        raise ValueError("steering_ops mixes None with steering operators")
    steered = steering_ops[0] is not None
    validate_two_qubit(rho0)  # apply_one_sided's input check, once for the grid
    params = []
    for x in xs:
        try:
            params.append(_noise_param(x, rate))
        except ValueError:
            params.append(math.nan)  # outside [0, 1], as _evolve flags; the dense rebuild raises
    n = len(params)
    evolved, evolved_ok = np.empty((n, 4, 4), dtype=complex), np.empty(n, dtype=bool)
    for first in range(0, n, _STACK_ROWS):
        block = slice(first, first + _STACK_ROWS)
        evolved[block], evolved_ok[block] = _evolve(family, rho0, np.array(params[block]))
        if steered:  # apply_steering's input check, once per evolved state
            evolved_ok[block] &= stacked_density_spectra(evolved[block])[1]
    rows = len(steering_ops) * n
    for first in range(0, rows, _STACK_ROWS):
        last = min(first + _STACK_ROWS, rows)
        indices = np.arange(first, last) % n
        states, ok = evolved[indices], evolved_ok[indices]
        for k in range(first // n, (last - 1) // n + 1) if steered else ():  # ops in the block
            run = slice(max(k * n, first) - first, min(k * n + n, last) - first)  # op k's rows
            states[run], kept = _steer(steering_ops[k].operator, states[run])
            ok[run] &= kept
        q = PointQuantities._stack(states)
        with np.errstate(invalid="ignore", over="ignore"):  # flagged rows' columns are unused
            table, finite = _output_rows(q, outputs, len(states))
        for row, stacked in enumerate((ok & q.ok).tolist()):
            k, i = divmod(first + row, n)
            if stacked:
                state, quantities, all_finite = states[row], table[row], finite[row]
            else:
                state = _dense_state(family, rho0, xs[i], rate, steering_ops[k])
                [quantities], [all_finite] = _output_rows(PointQuantities(state), outputs, 1)
            if not all_finite:
                name = next(name for name, v in quantities if not math.isfinite(v))
                raise _NotFinite(f"quantity {name} is not finite")
            yield k, i, state, quantities


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Evaluate the grid in order, one steering strength after another."""
    problems = _of_type("cfg", cfg, SweepConfig).validate()
    if problems:
        raise ConfigError(problems)
    rho0 = bell_diagonal_density(cfg.coeffs())
    grid = [float(x) for x in np.linspace(cfg.param_start, cfg.param_stop, cfg.param_points)]
    strengths = cfg.steering_strengths or (None,)
    steer = filter_op if cfg.steering_kind == "filter" else weak_op
    ops = [None if s is None else steer(s) for s in strengths]
    kind = cfg.steering_kind if cfg.steering_strengths else None
    rows = []
    try:
        for k, i, _, quantities in _grid_points(cfg.channel, rho0, grid, cfg.rate_lambda, ops,
                                                cfg.outputs):
            rows.append(SweepRow(cfg.channel, grid[i], cfg.c1, cfg.c2, cfg.c3, kind,
                                 strengths[k], cfg.rate_lambda, quantities))
    except (ValueError, ArithmeticError) as exc:
        k, i = divmod(len(rows), len(grid))  # the point after the last one yielded
        where = f"grid index {i} (param={grid[i]!r}, steering strength={strengths[k]!r})"
        if isinstance(exc, _NotFinite):
            raise NumericError(f"{exc} at {where}") from exc
        raise NumericError(f"sweep point at {where} failed: {exc}") from exc
    return rows


def _format_number(v: float) -> str:
    if not math.isfinite(v):
        raise NumericError(f"refusing to emit non-finite value {v!r}")
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.12g}"


def row_columns(row: SweepRow) -> list[str]:
    cols = ["channel", "param", "C1", "C2", "C3"]
    if row.steer_kind is not None:
        cols += ["steer_kind", "steer_strength"]
    if row.rate_lambda is not None:
        cols += ["rate_lambda"]
    return cols + [name for name, _ in row.quantities]


def _constant_cells(row: SweepRow) -> str:
    """The C1..C3, steering and rate cells of a row, formatted."""
    cells = [_format_number(row.c1), _format_number(row.c2), _format_number(row.c3)]
    if row.steer_kind is not None:
        cells += [row.steer_kind, _format_number(row.steer_strength)]
    if row.rate_lambda is not None:
        cells.append(_format_number(row.rate_lambda))
    return ",".join(cells)


# The columns a run of rows from one sweep (and one steering strength) shares.
_CONSTANTS = attrgetter("channel", "c1", "c2", "c3", "steer_kind", "steer_strength", "rate_lambda")


def render_csv(rows) -> str:
    """CSV text for a list of rows sharing one schema.  The constant cells of each run of
    rows that share them are formatted, and their columns checked, once per run; each row's
    quantity names are checked against the header's."""
    listed = list(rows) if isinstance(rows, Iterable) and not isinstance(rows, str) else None
    if listed is None or not all(isinstance(row, SweepRow) for row in listed):
        raise TypeError(f"rows = {rows!r} is not a list of SweepRows")
    rows = listed
    if not rows:
        raise ValueError("no rows to emit")
    header = row_columns(rows[0])
    names = [name for name, _ in rows[0].quantities]
    lines = [",".join(header)]
    for _, run in groupby(rows, _CONSTANTS):
        run = list(run)
        if row_columns(run[0]) != header:
            raise ValueError("rows do not share a single column schema")
        channel, constants = run[0].channel, _constant_cells(run[0])
        for row in run:
            if [name for name, _ in row.quantities] != names:
                raise ValueError("rows do not share a single column schema")
            lines.append(",".join([channel, _format_number(row.param), constants,
                                   *[_format_number(v) for _, v in row.quantities]]))
    return "\n".join(lines) + "\n"


def _numbers(name: str, values) -> list[float]:
    """``values`` as floats; a string or a single number is refused, not iterated, and so is
    a list with an item that is not a real number (a list of lists, a matrix's rows)."""
    items = None if isinstance(values, str) or not isinstance(values, Iterable) else list(values)
    if items is None or not all(isinstance(x, Real) for x in items):
        raise TypeError(f"{name} = {values!r} is not a list of numbers")
    return [float(x) for x in items]


def errata_report(coeffs: BellDiagonalCoeffs, channel: str, grid) -> str:
    """Compare the published closed forms against the pipeline over a grid.

    Reports, per formula, the largest absolute gap and where it occurs; points
    where a closed form is not evaluable are counted, not scored.
    """
    _of_type("channel", channel, str)
    grid = _numbers("grid", grid)
    if not grid:
        raise ValueError("empty parameter grid")
    rho0 = bell_diagonal_density(coeffs)

    gaps: dict[str, tuple[float, float]] = {}
    skipped: dict[str, int] = {}

    def record(name: str, gap: float | None, x: float):
        if gap is None:
            skipped[name] = skipped.get(name, 0) + 1
            return
        best = gaps.get(name)
        if best is None or gap > best[0]:
            gaps[name] = (gap, x)

    values = ("u", "berta", "mutual_information", "s_a", "s_min")
    for _, i, state, quantities in _grid_points(channel, rho0, grid, None, (None,), values):
        x = grid[i]
        (_, u), (_, berta), (_, mutual), (_, s_a), (_, s_min) = quantities
        if channel == "AD":
            closed_u = ad_closed_form_u(coeffs, x)
            record(
                "evolved-state uncertainty (closed form)",
                None if closed_u is None else abs(closed_u - u),
                x,
            )
        else:
            closed_u, closed_bound = bpf_closed_forms(coeffs, x)
            record("evolved-state uncertainty (closed form)", abs(closed_u - u), x)
            record("uncertainty lower bound (closed form)", abs(closed_bound - berta), x)
        closed_d = discord_xstate_closed(state)
        numeric_d = discord_from(mutual, s_a - s_min)  # bitwise quantum_discord(state, "B")
        record("x-state discord (closed form)", abs(closed_d - numeric_d), x)

    names = sorted(set(gaps) | set(skipped))
    width = max(len(n) for n in names) + 2
    lines = [
        "closed-form cross-check report",
        f"channel: {channel}   coeffs: C1={coeffs.c1:g} C2={coeffs.c2:g} C3={coeffs.c3:g}",
        f"grid: {len(grid)} points in [{min(grid):g}, {max(grid):g}]",
        "",
        f"{'formula'.ljust(width)}{'max |gap|':>12}  {'at param':>10}  skipped",
    ]
    for name in names:
        gap = gaps.get(name)
        n_skip = skipped.get(name, 0)
        if gap is None:
            lines.append(f"{name.ljust(width)}{'n/a':>12}  {'n/a':>10}  {n_skip}")
        else:
            lines.append(
                f"{name.ljust(width)}{gap[0]:>12.3e}  {gap[1]:>10.6g}  {n_skip}"
            )
    return "\n".join(lines) + "\n"
