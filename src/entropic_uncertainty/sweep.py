"""Deterministic parameter sweeps with CSV output and the cross-check report.

A sweep walks a noise-parameter grid for one channel, optionally applies a
steering operation to each evolved state, evaluates the requested quantities
and emits rows in grid order.  Output is byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .applications import channel_capacity
from .bounds import PointQuantities, ad_closed_form_u, bpf_closed_forms
from .channels import (
    CHANNEL_FAMILIES,
    SteeringOp,
    apply_one_sided,
    apply_steering,
    d_of_t,
    filter_op,
    noise_kraus,
    weak_op,
)
from .linalg import BOUND_ORDER_ATOL
from .measures import discord_xstate_closed, quantum_discord, sigma_x_basis, sigma_z_basis
from .states import BellDiagonalCoeffs, as_xstate, bell_diagonal_density, coefficient_problems

OUTPUT_TAGS = (
    "u",
    "berta",
    "pati",
    "adabi",
    "tightness",
    "discord",
    "s_min",
    "capacity",
    "witness",
)
STEERING_KINDS = ("filter", "weak")
# Largest grid a sweep or a capacity/errata schedule may ask for, in rows
# (points times the number of steering strengths); the grid is built up front.
MAX_GRID_ROWS = 10**6


class ConfigError(ValueError):
    """Invalid sweep configuration; collects every violation found."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid sweep configuration:\n" + "\n".join(
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
    param_start: float
    param_stop: float
    param_points: int
    steering_kind: str | None = None
    steering_strengths: tuple[float, ...] = ()
    rate_lambda: float | None = None
    outputs: tuple[str, ...] = ("u", "berta", "pati", "adabi")

    def validate(self) -> list[str]:
        problems = []

        def finite(name: str, v: float) -> bool:
            # a non-finite value gets this one problem instead of a range check
            if math.isfinite(v):
                return True
            problems.append(f"{name} = {v!r} is not finite")
            return False

        if self.channel not in CHANNEL_FAMILIES:
            problems.append(f"channel {self.channel!r} not one of {CHANNEL_FAMILIES}")
        if not self.outputs:
            problems.append("outputs list is empty")
        for tag in self.outputs:
            if tag not in OUTPUT_TAGS:
                problems.append(f"unknown output tag {tag!r}")
        if self.param_points < 2:
            problems.append(f"param_points = {self.param_points} < 2")
        rows = self.param_points * max(1, len(self.steering_strengths))
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
        if self.steering_strengths and self.steering_kind not in STEERING_KINDS:
            problems.append(
                f"steering_kind {self.steering_kind!r} not one of {STEERING_KINDS}"
            )
        if self.steering_kind in STEERING_KINDS and not self.steering_strengths:
            problems.append("steering_kind given but no steering_strengths")
        for s in self.steering_strengths:
            if not finite("steering strength", s):
                continue
            if self.steering_kind == "filter" and not 0.0 < s < 1.0:
                problems.append(f"filter strength {s!r} outside (0, 1)")
            if self.steering_kind == "weak" and not 0.0 <= s < 1.0:
                problems.append(f"weak strength {s!r} outside [0, 1)")
        return problems + coefficient_problems(self.c1, self.c2, self.c3)

    def coeffs(self) -> BellDiagonalCoeffs:
        return BellDiagonalCoeffs(self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class SweepRow:
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


def _steering_op(kind: str, strength: float) -> SteeringOp:
    return filter_op(strength) if kind == "filter" else weak_op(strength)


def _evaluate_point(cfg: SweepConfig, rho0, bases, strength, index: int, x: float) -> SweepRow:
    where = f"grid index {index} (param={x!r}, steering strength={strength!r})"
    try:
        param = d_of_t(cfg.rate_lambda, x) if cfg.rate_lambda is not None else x
        state = apply_one_sided(noise_kraus(cfg.channel, param), rho0, side="A")
        if strength is not None:
            state = apply_steering(_steering_op(cfg.steering_kind, strength), state, side="A")
        q = PointQuantities(state, *bases)
        values: list[tuple[str, float]] = []
        for tag in cfg.outputs:
            if tag == "tightness":
                for bound in ("berta", "pati", "adabi"):
                    values.append((f"tightness_{bound}", q.u - getattr(q, bound)))
            elif tag == "capacity":
                values.append(("capacity", channel_capacity(state)))
            elif tag == "witness":
                values.append(("witness", 1.0 if q.u < 1.0 - BOUND_ORDER_ATOL else 0.0))
            else:
                values.append((tag, getattr(q, tag)))
    except (ValueError, ArithmeticError) as exc:
        raise NumericError(f"sweep point at {where} failed: {exc}") from exc
    for name, v in values:
        if not math.isfinite(v):
            raise NumericError(f"quantity {name} is not finite at {where}")
    return SweepRow(
        channel=cfg.channel,
        param=x,
        c1=cfg.c1,
        c2=cfg.c2,
        c3=cfg.c3,
        steer_kind=cfg.steering_kind if strength is not None else None,
        steer_strength=strength,
        rate_lambda=cfg.rate_lambda,
        quantities=tuple(values),
    )


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Evaluate the grid in order, one point after another."""
    problems = cfg.validate()
    if problems:
        raise ConfigError(problems)
    rho0 = bell_diagonal_density(cfg.coeffs())
    bases = (sigma_x_basis(), sigma_z_basis())
    grid = [float(x) for x in np.linspace(cfg.param_start, cfg.param_stop, cfg.param_points)]
    strengths = cfg.steering_strengths if cfg.steering_strengths else (None,)
    return [
        _evaluate_point(cfg, rho0, bases, s, i, x)
        for s in strengths
        for i, x in enumerate(grid)
    ]


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


def _row_values(row: SweepRow) -> list[str]:
    vals = [
        row.channel,
        _format_number(row.param),
        _format_number(row.c1),
        _format_number(row.c2),
        _format_number(row.c3),
    ]
    if row.steer_kind is not None:
        vals += [row.steer_kind, _format_number(row.steer_strength)]
    if row.rate_lambda is not None:
        vals += [_format_number(row.rate_lambda)]
    return vals + [_format_number(v) for _, v in row.quantities]


def render_csv(rows) -> str:
    """CSV text for a list of rows sharing one schema."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    header = row_columns(rows[0])
    lines = [",".join(header)]
    for row in rows:
        if row_columns(row) != header:
            raise ValueError("rows do not share a single column schema")
        lines.append(",".join(_row_values(row)))
    return "\n".join(lines) + "\n"


def errata_report(coeffs: BellDiagonalCoeffs, channel: str, grid) -> str:
    """Compare the published closed forms against the pipeline over a grid.

    Reports, per formula, the largest absolute gap and where it occurs; points
    where a closed form is not evaluable are counted, not scored.
    """
    if channel not in CHANNEL_FAMILIES:
        raise ValueError(f"unknown channel family {channel!r}")
    grid = [float(x) for x in grid]
    if not grid:
        raise ValueError("empty parameter grid")
    rho0 = bell_diagonal_density(coeffs)
    b1, b2 = sigma_x_basis(), sigma_z_basis()

    gaps: dict[str, tuple[float, float]] = {}
    skipped: dict[str, int] = {}

    def record(name: str, gap: float | None, x: float):
        if gap is None:
            skipped[name] = skipped.get(name, 0) + 1
            return
        best = gaps.get(name)
        if best is None or gap > best[0]:
            gaps[name] = (gap, x)

    for x in grid:
        state = apply_one_sided(noise_kraus(channel, x), rho0, side="A")
        q = PointQuantities(state, b1, b2)
        if channel == "AD":
            closed_u = ad_closed_form_u(coeffs, x)
            record(
                "evolved-state uncertainty (closed form)",
                None if closed_u is None else abs(closed_u - q.u),
                x,
            )
        else:
            closed_u, closed_bound = bpf_closed_forms(coeffs, x)
            record(
                "evolved-state uncertainty (closed form)",
                abs(closed_u - q.u),
                x,
            )
            record("uncertainty lower bound (closed form)", abs(closed_bound - q.berta), x)
        closed_d = discord_xstate_closed(as_xstate(state))
        numeric_d = quantum_discord(state, measured_side="B")
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
