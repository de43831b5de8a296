"""Seeded job lists for the three benchmark workloads.

A job is one ``eur`` invocation: an argv, the text of the sweep config it
reads (if any) and what its output must satisfy.  Every input is drawn from
``random.Random`` seeded by (workload, seed, pass index), so the same seed
always yields the same passes, and each pass gets fresh inputs so that a
result cache in the program cannot turn later passes into no-ops.

Each workload has a fixed shape: the same presets, and the same number and
size of seeded jobs in every pass.  Only the values drawn change with the
seed, and the program's cost does not depend on them, so passes with
different seeds cost the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("bounds-sweep", "steering-grid", "witness-capacity")

# Reference kernel (calibrate.py) each workload is timed against: the one
# doing the kind of work that dominates it.  The optimizer's vectorized
# angle grid takes about 80% of traced bounds-sweep time; the other two make
# no optimizer calls and are small numpy calls driven from Python.
REFERENCE_KERNEL = {
    "bounds-sweep": "vector",
    "steering-grid": "interp",
    "witness-capacity": "interp",
}

# Placeholder in argv for the path the runner writes ``Job.config`` to.
CONFIG_PATH = "{config}"

BOUNDS_OUTPUTS = ("u", "berta", "pati", "adabi", "tightness", "discord", "s_min")
BOUNDS_SWEEPS_PER_PASS = 16
BOUNDS_POINTS = 6

STEERING_SWEEPS_PER_PASS = 8
STEERING_POINTS = 51
STEERING_STRENGTHS = 3

WITNESS_SOLVES_PER_PASS = 6
WITNESS_C_RANGE = (0.85, 1.0)  # (-c, c, c) has a crossing in range for both channels
WITNESS_S_RANGE = (0.0, 0.8)
CAPACITY_CURVES_PER_PASS = 2
CAPACITY_POINTS = 101


@dataclass(frozen=True)
class Job:
    """One ``eur`` call and the facts its output is checked against."""

    name: str
    argv: tuple[str, ...]
    config: str | None
    check: str  # golden | pinned | bounds | steering | witness | capacity
    expect: tuple[tuple[str, object], ...] = ()
    seeded: bool = True

    def expected(self) -> dict:
        return dict(self.expect)


def _preset(name: str, check: str) -> Job:
    return Job(name, ("preset", name), None, check, (("preset", name),), seeded=False)


def _round(x: float) -> float:
    # six decimals print identically under the CSV's 12-significant-digit format
    return round(x, 6)


def bell_triple(rng: random.Random) -> tuple[float, float, float]:
    """Uniform physical Bell-diagonal triple (rejection from the cube)."""
    while True:
        c1, c2, c3 = (_round(rng.uniform(-1.0, 1.0)) for _ in range(3))
        eigen = (
            1 + c1 - c2 + c3,
            1 - c1 + c2 + c3,
            1 + c1 + c2 - c3,
            1 - c1 - c2 - c3,
        )
        if min(eigen) >= 1e-6:
            return c1, c2, c3


def _grid(rng: random.Random) -> tuple[float, float]:
    return _round(rng.uniform(0.0, 0.5)), _round(rng.uniform(0.5, 1.0))


def _config_text(channel, coeffs, start, stop, points, outputs, kind=None, strengths=()):
    lines = [
        f"channel = {channel}",
        *(f"c{i} = {c!r}" for i, c in enumerate(coeffs, start=1)),
        f"param_start = {start!r}",
        f"param_stop = {stop!r}",
        f"param_points = {points}",
        f"outputs = {', '.join(outputs)}",
    ]
    if kind is not None:
        lines.append(f"steering_kind = {kind}")
        lines.append(f"steering_strengths = {', '.join(repr(s) for s in strengths)}")
    return "\n".join(lines) + "\n"


def _sweep_job(name, check, channel, coeffs, start, stop, points, outputs, kind=None,
               strengths=()) -> Job:
    expect = (
        ("channel", channel),
        ("coeffs", coeffs),
        ("start", start),
        ("stop", stop),
        ("points", points),
        ("kind", kind),
        ("strengths", tuple(strengths)),
    )
    text = _config_text(channel, coeffs, start, stop, points, outputs, kind, strengths)
    return Job(name, ("sweep", "--config", CONFIG_PATH), text, check, expect)


def _bounds_pass(rng: random.Random) -> list[Job]:
    jobs = [_preset("fig1", "golden"), _preset("fig2", "golden")]
    for i in range(BOUNDS_SWEEPS_PER_PASS):
        channel = ("AD", "BPF")[i % 2]
        start, stop = _grid(rng)
        jobs.append(
            _sweep_job(f"sweep-{i}", "bounds", channel, bell_triple(rng), start, stop,
                       BOUNDS_POINTS, BOUNDS_OUTPUTS)
        )
    return jobs


def _steering_pass(rng: random.Random) -> list[Job]:
    jobs = [_preset("fig3", "golden"), _preset("fig4", "golden"), _preset("fig5", "pinned")]
    for i in range(STEERING_SWEEPS_PER_PASS):
        channel = ("AD", "BPF")[i % 2]
        kind = ("filter", "weak")[(i // 2) % 2]
        if kind == "filter":
            strengths = sorted(_round(rng.uniform(0.05, 0.95)) for _ in range(STEERING_STRENGTHS))
        else:
            strengths = sorted(_round(rng.uniform(0.0, 0.9)) for _ in range(STEERING_STRENGTHS))
        start, stop = _grid(rng)
        jobs.append(
            _sweep_job(f"steer-{i}", "steering", channel, bell_triple(rng), start, stop,
                       STEERING_POINTS, ("u", "witness"), kind, strengths)
        )
    return jobs


def _witness_capacity_pass(rng: random.Random) -> list[Job]:
    jobs = [_preset("fig6", "golden")]
    for i in range(WITNESS_SOLVES_PER_PASS):
        channel = ("AD", "BPF")[i % 2]
        c = _round(rng.uniform(*WITNESS_C_RANGE))
        s = _round(rng.uniform(*WITNESS_S_RANGE))
        argv = ("witness", "--channel", channel, "--c1", repr(-c), "--c2", repr(c),
                "--c3", repr(c), "--s", repr(s))
        jobs.append(Job(f"witness-{i}", argv, None, "witness",
                        (("channel", channel), ("s", s))))
    for i in range(CAPACITY_CURVES_PER_PASS):
        channel = ("AD", "BPF")[i % 2]
        coeffs = bell_triple(rng)
        argv = ["capacity", "--channel", channel, "--points", str(CAPACITY_POINTS)]
        argv += [arg for k, c in zip(("--c1", "--c2", "--c3"), coeffs) for arg in (k, repr(c))]
        rate = None
        if channel == "AD":
            rate = _round(rng.uniform(0.1, 1.0))
            argv += ["--lambda", repr(rate)]
        jobs.append(Job(f"capacity-{i}", tuple(argv), None, "capacity",
                        (("points", CAPACITY_POINTS), ("stop", 1.0 if rate is None else 10.0))))
    return jobs


_PASS_BUILDERS = {
    "bounds-sweep": _bounds_pass,
    "steering-grid": _steering_pass,
    "witness-capacity": _witness_capacity_pass,
}


def make_pass(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of pass ``index`` of ``workload`` under ``seed``."""
    if workload not in _PASS_BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    return _PASS_BUILDERS[workload](random.Random(f"{workload}:{seed}:{index}"))


def warmup_jobs() -> list[Job]:
    """Tiny jobs touching every code path once, run before timing starts."""
    return [
        _sweep_job("warm-bounds", "bounds", "AD", (-0.5, 0.4, 0.8), 0.0, 1.0, 2, BOUNDS_OUTPUTS),
        _sweep_job("warm-filter", "steering", "BPF", (-0.5, 0.4, 0.8), 0.0, 1.0, 2,
                   ("u", "witness"), "filter", (0.5,)),
        _sweep_job("warm-weak", "steering", "AD", (-0.5, 0.4, 0.8), 0.0, 1.0, 2,
                   ("u", "witness"), "weak", (0.5,)),
        Job("warm-witness", ("witness", "--channel", "AD", "--c1", "-1", "--c2", "1",
                             "--c3", "1"), None, "witness", (("channel", "AD"), ("s", 0.0))),
        Job("warm-capacity", ("capacity", "--channel", "BPF", "--points", "2"), None,
            "capacity", (("points", 2), ("stop", 1.0))),
    ]
