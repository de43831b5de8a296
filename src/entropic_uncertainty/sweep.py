"""Deterministic parameter sweeps with CSV output and the cross-check report.

A sweep walks a noise-parameter grid for one channel, optionally applies a
steering operation to each evolved state, evaluates the requested quantities
and emits rows in grid order.  Output is byte-stable across runs.

Each steering strength is one (N, 4, 4) stack, in blocks of ``_STACK_ROWS``
rows on long grids: Kraus operators built from the parameter array,
evolution, steering and ``u`` are stacked products and ``_eig2`` spectra under
the dense pipeline's checks.  That pipeline stays the oracle
(``test_batched_u_equals_dense`` pins states and ``u`` bitwise to it) and
gives ``u`` for a non-X or failing row and every other quantity.
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
    apply_one_sided,  # noqa: F401  unused, but perfbench/test_perfbench.py traces it here
    d_of_t,
    filter_op,
    noise_kraus,
    weak_op,
)
from .linalg import (
    BOUND_ORDER_ATOL,
    COMPLETENESS_ATOL,
    I2,
    PAULI_Y,
    POSTSELECT_MIN_PROB,
    TRACE_ATOL,
    stacked_density_spectra,
    validate_density,
)
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
_TAGS_READING_U = {"u", "tightness", "witness"}
# Rows per stack: long grids go in blocks, so a stack's temporaries stay a few MB.
_STACK_ROWS = 1024
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


@dataclass(frozen=True, slots=True)
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


def _evolve(family: str, rho0: np.ndarray, params: np.ndarray, errors: dict) -> np.ndarray:
    """``apply_one_sided(noise_kraus(family, p), rho0)`` for every p, as one stack."""
    _note_error(errors, 0, validate_density, rho0)  # as apply_one_sided does, from row 0 on
    with np.errstate(invalid="ignore"):  # a parameter outside [0, 1] is named below
        root, co_root = np.sqrt(params), np.sqrt(1.0 - params)
    ops = np.zeros((2, len(params), 2, 2), dtype=complex)
    if family == "AD":  # diag(1, sqrt(1 - d)) and sqrt(d) |0><1|
        ops[0, :, 0, 0], ops[0, :, 1, 1], ops[1, :, 0, 1] = 1.0, co_root, root
    else:  # sqrt(p) I and sqrt(1 - p) sigma_y
        ops[0], ops[1] = root[:, None, None] * I2, co_root[:, None, None] * PAULI_Y
    defect = np.abs((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0) - I2).max(axis=(1, 2))
    for i in np.flatnonzero(~(defect <= COMPLETENESS_ATOL)):
        _note_error(errors, i, noise_kraus, family, float(params[i]))
    out = np.zeros((len(params), 4, 4), dtype=complex)
    for e in np.kron(ops, I2):  # each Kraus operator on qubit A
        out += e @ rho0 @ e.conj().swapaxes(1, 2)
    return out


def _evolved_blocks(family: str, rho0: np.ndarray, params: np.ndarray):
    """(first index, evolved stack, its errors) for each ``_STACK_ROWS`` parameters."""
    for first in range(0, len(params), _STACK_ROWS):
        errors: dict[int, str] = {}
        yield first, _evolve(family, rho0, params[first:first + _STACK_ROWS], errors), errors


def _steer(op: SteeringOp, states: np.ndarray, errors: dict) -> np.ndarray:
    """``apply_steering(op, state)`` for every state of the stack."""
    _, ok = stacked_density_spectra(states)
    for i in np.flatnonzero(~ok):
        _note_error(errors, i, validate_density, states[i])
    e = np.kron(op.operator, I2)
    unnormalized = e @ states @ e.conj().T
    norm = np.trace(unnormalized, axis1=1, axis2=2).real
    for i in np.flatnonzero(norm <= POSTSELECT_MIN_PROB):
        errors.setdefault(i, "post-selection probability ~ 0, conditional state undefined")
    return unnormalized / np.where(norm > POSTSELECT_MIN_PROB, norm, 1.0)[:, None, None]


def _stacked_u(states: np.ndarray, bases) -> list[float | None]:
    """``uncertainty_lhs`` of every state of the stack; None marks a row that is not
    X-shaped or fails a check, left to the dense path, which also names the failure."""
    _, ok = stacked_density_spectra(states)
    u = np.zeros(len(states))
    for basis in bases:
        dephased = np.zeros_like(states)
        for e in np.kron(np.array(basis.projectors), I2):
            dephased += e @ states @ e.conj().T
        memory = np.trace(dephased.reshape(-1, 2, 2, 2, 2), axis1=1, axis2=3)
        entropy = []
        for m in (dephased, memory):
            p, good = stacked_density_spectra(m)
            ok &= good & (np.abs(p.sum(axis=1) - 1.0) <= TRACE_ATOL)
            entropy.append(-(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=1))
        u += entropy[0] - entropy[1]
    return [float(v) if good else None for v, good in zip(u, ok)]


def _note_error(errors: dict, i: int, check, *args) -> None:
    """Keep the error ``check(*args)`` raises, if any, as row i's first failure."""
    try:
        check(*args)
    except (ValueError, ArithmeticError) as exc:
        errors.setdefault(i, str(exc))


def _evaluate_point(cfg: SweepConfig, bases, strength, index, x, state, u, error) -> SweepRow:
    where = f"grid index {index} (param={x!r}, steering strength={strength!r})"
    try:
        if error is not None:
            raise ValueError(error)
        q = PointQuantities(state, *bases)
        if u is not None:
            q.u = u
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
    """Evaluate the grid in order, each steering strength as one stack (or a few,
    on grids longer than ``_STACK_ROWS``)."""
    problems = cfg.validate()
    if problems:
        raise ConfigError(problems)
    rho0 = bell_diagonal_density(cfg.coeffs())
    bases = (sigma_x_basis(), sigma_z_basis())
    grid = [float(x) for x in np.linspace(cfg.param_start, cfg.param_stop, cfg.param_points)]
    rate = cfg.rate_lambda
    params = np.array(grid if rate is None else [d_of_t(rate, x) for x in grid])
    blocks = list(_evolved_blocks(cfg.channel, rho0, params))  # shared by every strength
    rows = []
    for s in cfg.steering_strengths or (None,):
        for first, states, errors in blocks:
            block_grid = grid[first:first + len(states)]
            rows += _evaluate_block(cfg, bases, s, first, block_grid, states, dict(errors))
    return rows


def _evaluate_block(cfg: SweepConfig, bases, strength, first: int, grid, states, errors):
    """Grid points first, first + 1, ... at one steering strength, from their evolved stack."""
    if strength is not None:
        op = filter_op(strength) if cfg.steering_kind == "filter" else weak_op(strength)
        states = _steer(op, states, errors)
    needs_u = _TAGS_READING_U.intersection(cfg.outputs)
    us = _stacked_u(states, bases) if needs_u else [None] * len(grid)
    return [
        _evaluate_point(cfg, bases, strength, first + i, x, states[i], us[i], errors.get(i))
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

    states = []
    for _, stack, errors in _evolved_blocks(channel, rho0, np.array(grid)):
        if errors:
            raise ValueError(errors[min(errors)])
        states.extend(stack)
    for x, state in zip(grid, states):
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
