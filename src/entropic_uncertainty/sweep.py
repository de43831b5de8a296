"""Deterministic parameter sweeps with CSV output and the cross-check report.

A sweep walks a noise-parameter grid for one channel, optionally applies a
steering operation to each evolved state, evaluates the requested quantities
and emits rows in grid order.  Output is byte-stable across runs.

``_grid_points`` is the one route from a grid to evaluated points, for the
sweep, ``errata_report`` and the applications.  Each steering strength is one
(N, 4, 4) stack, in blocks of ``_STACK_ROWS`` rows on long grids: Kraus
operators built from the parameter array, evolution, steering and every value
the outputs read are stacked products and ``_eig2`` spectra, and each stage
returns a row mask of the dense pipeline's checks.  A row that passes every
mask takes the stack's values; any other row is rebuilt alone by the dense
pipeline when it is read, which raises that point's own error.  Each point
comes with its steering-op and grid index.  That pipeline stays the oracle
(``test_batched_*`` pin the stack bitwise to it).  Both evolve, steer and measure
qubit A in ``bounds.BASES``, with qubit B as the memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import (
    BASES,
    CAPACITY_IDENTITY_ATOL,
    C,
    PointQuantities,
    ad_closed_form_u,
    bpf_closed_forms,
    capacity_bound_form,
    witnessed,
)
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
from .linalg import (
    COMPLETENESS_ATOL,
    I2,
    PAULI_Y,
    POSTSELECT_MIN_PROB,
    stacked_density_spectra,
    stacked_partial_trace,
    validate_density,
)
from .measures import (
    discord_xstate_closed,
    quantum_discord,
    stacked_holevo,
    stacked_measurement_minima,
    stacked_von_neumann_entropy,
)
from .states import BellDiagonalCoeffs, as_xstate, bell_diagonal_density, coefficient_problems

# Each output tag, with the PointQuantities values it reads, which a stack fills in.
_READS = {
    "u": {"u"},
    "berta": {"berta"},
    "pati": {"berta", "mutual_information", "classical_correlation"},
    "adabi": {"berta", "mutual_information", "holevo"},
    "tightness": {"u", "berta", "mutual_information", "classical_correlation", "holevo"},
    "discord": {"mutual_information", "classical_correlation"},
    "s_min": {"s_min"},
    "capacity": {"capacity"},
    "witness": {"u", "witness"},
}
OUTPUT_TAGS = tuple(_READS)
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
        for tag in dict.fromkeys(self.outputs):
            if tag not in OUTPUT_TAGS:
                problems.append(f"unknown output tag {tag!r}")
            if self.outputs.count(tag) > 1:
                problems.append(f"output tag {tag!r} given {self.outputs.count(tag)} times")
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
        steered = self.steering_kind is not None or self.steering_strengths
        if steered and self.steering_kind not in STEERING_KINDS:
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


def _noise_param(x: float, rate: float | None) -> float:
    """The channel parameter at grid value x: x itself, or d_of_t(rate, x) on a time grid."""
    return x if rate is None else d_of_t(rate, x)


def _evolve(family: str, rho0: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``apply_one_sided(noise_kraus(family, p), rho0)`` for every p, as one stack, and
    which rows pass that pipeline's checks."""
    with np.errstate(invalid="ignore"):  # a parameter outside [0, 1] fails the check below
        root, co_root = np.sqrt(params), np.sqrt(1.0 - params)
    ops = np.zeros((2, len(params), 2, 2), dtype=complex)
    if family == "AD":  # diag(1, sqrt(1 - d)) and sqrt(d) |0><1|
        ops[0, :, 0, 0], ops[0, :, 1, 1], ops[1, :, 0, 1] = 1.0, co_root, root
    else:  # sqrt(p) I and sqrt(1 - p) sigma_y
        ops[0], ops[1] = root[:, None, None] * I2, co_root[:, None, None] * PAULI_Y
    defect = np.abs((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0) - I2).max(axis=(1, 2))
    ok = defect <= COMPLETENESS_ATOL
    try:
        validate_density(rho0)  # as apply_one_sided does for every row
    except (ValueError, ArithmeticError):
        ok[:] = False
    out = np.zeros((len(params), 4, 4), dtype=complex)
    for e in np.kron(ops, I2):  # each Kraus operator on qubit A
        out += e @ rho0 @ e.conj().swapaxes(1, 2)
    return out, ok


def _steer(op: SteeringOp, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``apply_steering(op, state)`` for every state of the stack, and which rows pass
    its checks."""
    _, ok = stacked_density_spectra(states)
    e = np.kron(op.operator, I2)
    unnormalized = e @ states @ e.conj().T
    norm = np.trace(unnormalized, axis1=1, axis2=2).real
    kept = norm > POSTSELECT_MIN_PROB
    return unnormalized / np.where(kept, norm, 1.0)[:, None, None], ok & kept


def _stacked_u(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``uncertainty_lhs`` of every state of the stack, and which rows pass its checks."""
    u, ok = np.zeros(len(states)), np.ones(len(states), dtype=bool)
    for basis in BASES:
        dephased = np.zeros_like(states)
        for e in np.kron(np.array(basis.projectors), I2):
            dephased += e @ states @ e.conj().T
        joint, good_joint = stacked_von_neumann_entropy(dephased)
        memory, good_memory = stacked_von_neumann_entropy(stacked_partial_trace(dephased, "B"))
        ok &= good_joint & good_memory
        u += joint - memory
    return u, ok


def _stacked_values(states: np.ndarray, outputs) -> tuple[list[dict], np.ndarray]:
    """The ``PointQuantities`` values ``outputs`` read, for every state of the stack,
    bitwise as the state alone computes them, and which rows they hold for: X states
    that pass every check and the capacity identity."""
    names = set().union(*(_READS[tag] for tag in outputs))
    if not names:  # nothing to vouch for: each row's PointQuantities is the dense one
        return [{}] * len(states), np.ones(len(states), dtype=bool)
    _, ok = stacked_density_spectra(states)
    cols = {}
    if "u" in names:
        cols["u"], good = _stacked_u(states)
        ok &= good
    if "witness" in names:
        cols["witness"] = witnessed(cols["u"])
    if names & {"berta", "mutual_information", "classical_correlation", "holevo", "capacity"}:
        joint_and_marginals = (states, *(stacked_partial_trace(states, k) for k in "AB"))
        (s_ab, s_a, s_b), good = zip(*map(stacked_von_neumann_entropy, joint_and_marginals))
        ok &= np.logical_and.reduce(good)
        cols["berta"] = math.log2(1.0 / C) + (s_ab - s_b)
        cols["mutual_information"] = mutual = s_a + s_b - s_ab
        if "holevo" in names:
            (h1, good_1), (h2, good_2) = (stacked_holevo(states, b, s_b) for b in BASES)
            ok &= good_1 & good_2
            cols["holevo"] = np.stack([h1, h2], axis=1)
        if "capacity" in names:
            bound_form = capacity_bound_form(s_a, cols["berta"])
            ok &= np.abs(mutual - bound_form) <= CAPACITY_IDENTITY_ATOL
            cols["capacity"] = mutual
    rows = np.flatnonzero(ok)  # the optimizer runs on X states that passed every check
    if "classical_correlation" in names:
        minima = stacked_measurement_minima(states[rows], "A")
        cols["classical_correlation"] = np.zeros(len(states))
        cols["classical_correlation"][rows] = s_b[rows] - minima
    if "s_min" in names:
        cols["s_min"] = np.zeros(len(states))
        cols["s_min"][rows] = stacked_measurement_minima(states[rows], "B")
    values = [col.tolist() for col in cols.values()]
    return [dict(zip(cols, row)) for row in zip(*values)], ok


def _dense_point(family: str, rho0: np.ndarray, x: float, rate, op) -> PointQuantities:
    state = apply_one_sided(noise_kraus(family, _noise_param(x, rate)), rho0)
    return PointQuantities(state if op is None else apply_steering(op, state))


def _grid_points(family: str, rho0: np.ndarray, xs, rate, steering_ops, outputs):
    """``(k, i, point)`` for every grid point ``xs[i]`` under ``steering_ops[k]`` (None
    leaves the state unsteered), op by op, each in grid order; ``point()`` gives its
    ``PointQuantities``.

    A point's state is ``rho0`` evolved through the channel at ``_noise_param(x, rate)``,
    then steered.  Each block of ``_STACK_ROWS`` points is one stack, evolved once; a row
    that passes every check of the stack takes its values, any other row is rebuilt
    alone by the dense pipeline, whose ``point()`` raises that point's own error.
    """
    params = []
    for x in xs:
        try:
            params.append(_noise_param(x, rate))
        except ValueError:
            params.append(math.nan)  # fails the Kraus check; the dense rebuild raises
    blocks = [
        (first, *_evolve(family, rho0, np.array(params[first:first + _STACK_ROWS])))
        for first in range(0, len(params), _STACK_ROWS)
    ]
    for k, op in enumerate(steering_ops):
        for first, states, ok in blocks:
            if op is not None:
                states, steered = _steer(op, states)
                ok = ok & steered
            known, good = _stacked_values(states, outputs)
            for i, stacked in enumerate((ok & good).tolist()):
                if stacked:  # the stack's values stand in for the cached properties
                    q = PointQuantities(states[i])
                    vars(q).update(known[i])
                    yield k, first + i, (lambda q=q: q)
                else:
                    yield k, first + i, partial(_dense_point, family, rho0, xs[first + i], rate, op)


def _evaluate_point(cfg: SweepConfig, strength, index, x, point) -> SweepRow:
    """The row of grid point ``index``, whose quantities are ``point()``."""
    where = f"grid index {index} (param={x!r}, steering strength={strength!r})"
    try:
        q = point()
        values: list[tuple[str, float]] = []
        for tag in cfg.outputs:
            if tag == "tightness":
                for bound in ("berta", "pati", "adabi"):
                    values.append((f"tightness_{bound}", q.u - getattr(q, bound)))
            elif tag == "witness":
                values.append(("witness", 1.0 if q.witness else 0.0))
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
    """Evaluate the grid in order, one steering strength after another."""
    problems = cfg.validate()
    if problems:
        raise ConfigError(problems)
    rho0 = bell_diagonal_density(cfg.coeffs())
    grid = [float(x) for x in np.linspace(cfg.param_start, cfg.param_stop, cfg.param_points)]
    strengths = cfg.steering_strengths or (None,)
    steer = filter_op if cfg.steering_kind == "filter" else weak_op
    ops = [None if s is None else steer(s) for s in strengths]
    points = _grid_points(cfg.channel, rho0, grid, cfg.rate_lambda, ops, cfg.outputs)
    return [_evaluate_point(cfg, strengths[k], i, grid[i], point) for k, i, point in points]


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

    gaps: dict[str, tuple[float, float]] = {}
    skipped: dict[str, int] = {}

    def record(name: str, gap: float | None, x: float):
        if gap is None:
            skipped[name] = skipped.get(name, 0) + 1
            return
        best = gaps.get(name)
        if best is None or gap > best[0]:
            gaps[name] = (gap, x)

    for _, i, point in _grid_points(channel, rho0, grid, None, (None,), ("u", "berta")):
        x, q = grid[i], point()
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
        closed_d = discord_xstate_closed(as_xstate(q.rho))
        numeric_d = quantum_discord(q.rho, measured_side="B")
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
