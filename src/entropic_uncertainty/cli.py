"""Command-line front end: sweeps from config files, figure presets, witness
thresholds, capacity curves and the closed-form cross-check report.

Exit codes: 0 success, 2 configuration problem (unphysical coefficients
included), 3 numeric failure (an unphysical state mid-pipeline or an
out-of-range solve), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import fields, replace

import numpy as np

from .applications import capacity_curves, witness_threshold
from .channels import CHANNEL_FAMILIES
from .states import BellDiagonalCoeffs, coefficient_problems
from .sweep import (
    MAX_GRID_ROWS,
    ConfigError,
    NumericError,
    SweepConfig,
    errata_report,
    render_csv,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

FIG1_COEFFS = (-0.5, 0.4, 0.8)
MAX_PURITY_WITNESS = (-1.0, 1.0, 1.0)
MAX_PURITY_CAPACITY = (1.0, 1.0, -1.0)
PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
# figure: channel and the filter and weak-measurement strengths of its curves
STEERING_PRESETS = {
    "fig3": ("AD", {"filter": (0.2, 0.3, 0.4, 0.5), "weak": (0.0, 0.4, 0.6, 0.8)}),
    "fig4": ("BPF", {"filter": (0.1, 0.25, 0.5), "weak": (0.0, 0.4, 0.7)}),
}

_CONFIG_KEYS = {field.name for field in fields(SweepConfig)}


def parse_config_text(text: str, source: str = "<config>") -> SweepConfig:
    """Parse the flat key = value sweep format; '#' starts a comment."""
    problems: list[str] = []
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{source}:{lineno}: expected 'key = value', got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            problems.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        if key in pairs:
            problems.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        pairs[key] = value

    def get_float(key: str, default=None):
        if key not in pairs:
            if default is None:
                problems.append(f"{source}: missing required key {key!r}")
            return default
        try:
            return float(pairs[key])
        except ValueError:
            problems.append(f"{source}: key {key!r} = {pairs[key]!r} is not a number")
            return default

    channel = pairs.get("channel", "")
    if "channel" not in pairs:
        problems.append(f"{source}: missing required key 'channel'")
    c1 = get_float("c1")
    c2 = get_float("c2")
    c3 = get_float("c3")
    start = get_float("param_start", 0.0)
    stop = get_float("param_stop", 1.0)
    points = 0
    if "param_points" in pairs:
        try:
            points = int(pairs["param_points"])
        except ValueError:
            problems.append(
                f"{source}: key 'param_points' = {pairs['param_points']!r} is not an integer"
            )
    else:
        points = 101
    rate = get_float("rate_lambda", None) if "rate_lambda" in pairs else None
    kind = pairs.get("steering_kind")
    strengths: tuple[float, ...] = ()
    raw_strengths = pairs.get("steering_strengths")
    if raw_strengths is not None:
        try:
            strengths = tuple(float(tok) for tok in raw_strengths.split(",") if tok.strip())
        except ValueError:
            problems.append(f"{source}: bad steering strength list {raw_strengths!r}")
    outputs = tuple(
        tok.strip() for tok in pairs.get("outputs", "u,berta,pati,adabi").split(",") if tok.strip()
    )
    if problems:
        raise ConfigError(problems)
    cfg = SweepConfig(
        channel=channel,
        c1=c1,
        c2=c2,
        c3=c3,
        param_start=start,
        param_stop=stop,
        param_points=points,
        steering_kind=kind,
        steering_strengths=strengths,
        rate_lambda=rate,
        outputs=outputs,
    )
    more = cfg.validate()
    if more:
        raise ConfigError(more)
    return cfg


def parse_config_file(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def preset_rows(name: str):
    """Rows reproducing one figure's data, caption parameters included."""
    if name == "fig1":
        return run_sweep(SweepConfig("AD", *FIG1_COEFFS, 0.0, 1.0, 101))
    if name == "fig2":
        return run_sweep(SweepConfig("BPF", *FIG1_COEFFS, 0.0, 1.0, 101))
    if name in STEERING_PRESETS:
        channel, strengths = STEERING_PRESETS[name]
        rows = []
        for kind in ("filter", "weak"):
            rows += run_sweep(
                SweepConfig(
                    channel, *FIG1_COEFFS, 0.0, 1.0, 101,
                    steering_kind=kind,
                    steering_strengths=strengths[kind],
                    outputs=("u",),
                )
            )
        return rows
    if name == "fig5":
        rows = []
        for channel in ("AD", "BPF"):
            rows += run_sweep(
                SweepConfig(
                    channel, *MAX_PURITY_WITNESS, 0.0, 1.0, 101,
                    steering_kind="weak",
                    steering_strengths=(0.0, 0.4, 0.8),
                    outputs=("u", "witness"),
                )
            )
        return rows
    if name == "fig6":
        rows = []
        for rate in (0.1, 0.3, 0.7):
            rows += run_sweep(
                SweepConfig(
                    "AD", *MAX_PURITY_CAPACITY, 0.0, 10.0, 101,
                    rate_lambda=rate,
                    outputs=("capacity",),
                )
            )
        bpf = run_sweep(
            SweepConfig("BPF", *MAX_PURITY_CAPACITY, 0.0, 1.0, 101, outputs=("capacity",))
        )
        rows += [replace(row, rate_lambda=0.0) for row in bpf]  # 0 marks the direct p sweep
        return rows
    raise ConfigError([f"unknown preset {name!r} (expected one of {PRESET_NAMES})"])


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _coeffs(args, problems: list[str], default=(None,) * 3) -> BellDiagonalCoeffs | None:
    """The --c1..--c3 triple (unset flags take ``default``), or None after
    adding its problems to ``problems``."""
    c = [d if v is None else v for v, d in zip((args.c1, args.c2, args.c3), default)]
    more = coefficient_problems(*c, names=("--c1", "--c2", "--c3"))
    problems += more
    return None if more else BellDiagonalCoeffs(*c)


def _nonfinite_flags(args) -> list[str]:
    """One problem per float flag other than --c1..--c3 given as inf or nan
    (argparse accepts both; the coefficient check reports those three)."""
    return [
        f"--{'lambda' if dest == 'rate_lambda' else dest} = {value!r} is not finite"
        for dest, value in vars(args).items()
        if isinstance(value, float) and dest not in ("c1", "c2", "c3")
        and not math.isfinite(value)
    ]


def _points_problems(points: int, least: int) -> list[str]:
    if least <= points <= MAX_GRID_ROWS:
        return []
    return [f"--points {points} outside [{least}, {MAX_GRID_ROWS}]"]


class _Parser(argparse.ArgumentParser):
    """Reads '-1e-5', '-inf' and '-nan' as values, as argparse does '-1' and '-.5'."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


@functools.cache  # built once: each parser is a cyclic graph left to the garbage collector
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eur",
        description="Entropic-uncertainty dynamics for two-qubit states under one-sided noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    p_sweep.add_argument("--config", required=True, help="flat key = value config file")
    p_sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p_preset = sub.add_parser("preset", help="reproduce a figure's data grid")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p_wit = sub.add_parser("witness", help="solve the witness noise threshold")
    p_wit.add_argument("--channel", required=True, choices=CHANNEL_FAMILIES)
    p_wit.add_argument("--c1", type=float, required=True)
    p_wit.add_argument("--c2", type=float, required=True)
    p_wit.add_argument("--c3", type=float, required=True)
    p_wit.add_argument("--s", type=float, default=0.0, help="weak-measurement strength")

    p_cap = sub.add_parser("capacity", help="emit a channel-capacity curve")
    p_cap.add_argument("--channel", required=True, choices=CHANNEL_FAMILIES)
    p_cap.add_argument("--lambda", dest="rate_lambda", type=float, default=None,
                       help="decay rate; sweeps time in [0, 10] instead of d")
    p_cap.add_argument("--c1", type=float, default=None)
    p_cap.add_argument("--c2", type=float, default=None)
    p_cap.add_argument("--c3", type=float, default=None)
    p_cap.add_argument("--points", type=int, default=101)
    p_cap.add_argument("--out", default=None)

    p_err = sub.add_parser("errata", help="closed-form vs pipeline gap report")
    p_err.add_argument("--channel", required=True, choices=CHANNEL_FAMILIES)
    p_err.add_argument("--c1", type=float, default=None)
    p_err.add_argument("--c2", type=float, default=None)
    p_err.add_argument("--c3", type=float, default=None)
    p_err.add_argument("--points", type=int, default=101)
    p_err.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problems = _nonfinite_flags(args)
        if args.command == "sweep":
            rows = run_sweep(parse_config_file(args.config))
            _write_text(render_csv(rows), args.out)
        elif args.command == "preset":
            rows = preset_rows(args.name)
            _write_text(render_csv(rows), args.out)
        elif args.command == "witness":
            coeffs = _coeffs(args, problems)
            if math.isfinite(args.s) and not 0.0 <= args.s < 1.0:
                problems.append(f"--s {args.s} outside [0, 1)")
            if problems:
                raise ConfigError(problems)
            result = witness_threshold(args.channel, coeffs, s=args.s)
            _write_text(
                "".join(
                    f"{key}={value}\n"
                    for key, value in (
                        ("channel", args.channel),
                        ("parameter", result.parameter_name),
                        ("critical_value", f"{result.critical_value:.6f}"),
                        ("steering_s", f"{result.steering_strength_s:g}"),
                        ("window", result.window),
                    )
                ),
                None,
            )
        elif args.command == "capacity":
            coeffs = _coeffs(args, problems, MAX_PURITY_CAPACITY)
            problems += _points_problems(args.points, 2)
            if args.rate_lambda is not None and -math.inf < args.rate_lambda <= 0.0:
                problems.append(f"--lambda {args.rate_lambda} must be positive")
            if args.rate_lambda is not None and args.channel != "AD":
                problems.append("--lambda only applies to the AD channel")
            if problems:
                raise ConfigError(problems)
            stop = 10.0 if args.rate_lambda is not None else 1.0
            schedule = np.linspace(0.0, stop, args.points)
            curve = capacity_curves(args.channel, coeffs, schedule, args.rate_lambda)
            lines = ["param,capacity"]
            lines += [f"{x:.12g},{c:.12g}" for x, c in curve]
            _write_text("\n".join(lines) + "\n", args.out)
        elif args.command == "errata":
            coeffs = _coeffs(args, problems, FIG1_COEFFS)
            problems += _points_problems(args.points, 1)
            if problems:
                raise ConfigError(problems)
            grid = np.linspace(0.0, 1.0, args.points)
            _write_text(errata_report(coeffs, args.channel, grid), args.out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except (NumericError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
