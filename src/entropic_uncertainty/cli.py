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
import types
from dataclasses import MISSING, fields
from typing import get_args, get_type_hints

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

# figure: the sweeps whose rows it plots, in order (SweepConfig's grid unless set)
PRESETS = {
    "fig1": (SweepConfig("AD", *FIG1_COEFFS),),
    "fig2": (SweepConfig("BPF", *FIG1_COEFFS),),
    "fig3": tuple(
        SweepConfig("AD", *FIG1_COEFFS, steering_kind=kind, steering_strengths=s, outputs=("u",))
        for kind, s in (("filter", (0.2, 0.3, 0.4, 0.5)), ("weak", (0.0, 0.4, 0.6, 0.8)))
    ),
    "fig4": tuple(
        SweepConfig("BPF", *FIG1_COEFFS, steering_kind=kind, steering_strengths=s, outputs=("u",))
        for kind, s in (("filter", (0.1, 0.25, 0.5)), ("weak", (0.0, 0.4, 0.7)))
    ),
    "fig5": tuple(
        SweepConfig(channel, *MAX_PURITY_WITNESS, steering_kind="weak",
                    steering_strengths=(0.0, 0.4, 0.8), outputs=("u", "witness"))
        for channel in ("AD", "BPF")
    ),
    "fig6": tuple(
        SweepConfig("AD", *MAX_PURITY_CAPACITY, param_stop=10.0, rate_lambda=rate,
                    outputs=("capacity",))
        for rate in (0.1, 0.3, 0.7)
    ) + (SweepConfig("BPF", *MAX_PURITY_CAPACITY, outputs=("capacity",)),),
}
PRESET_NAMES = tuple(PRESETS)
# command: the --c1..--c3 its unset flags take (None: the flags are required)
COEFFICIENT_DEFAULTS = {"witness": None, "capacity": MAX_PURITY_CAPACITY, "errata": FIG1_COEFFS}


def _list_of(item):
    return lambda text: tuple(item(tok.strip()) for tok in text.split(",") if tok.strip())


# The reader of each SweepConfig field type, and what a value it rejects is not.
_READERS = {
    str: (str, None),
    float: (float, "a number"),
    int: (int, "an integer"),
    tuple[float, ...]: (_list_of(float), "a list of numbers"),
    tuple[str, ...]: (_list_of(str), None),
}


def _field_reader(hint):
    """The reader of a field typed ``hint``, ``X | None`` as ``X``; no reader is a KeyError."""
    return _READERS[get_args(hint)[0] if isinstance(hint, types.UnionType) else hint]


_FIELD_READERS = {name: _field_reader(hint) for name, hint in get_type_hints(SweepConfig).items()}


def parse_config_text(text: str, source: str = "<config>") -> SweepConfig:
    """Parse the flat key = value sweep format; '#' starts a comment.  The keys are
    SweepConfig's fields, each read by its type; unset keys take its defaults."""
    problems: list[str] = []
    values: dict[str, object] = {}
    given: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            problems.append(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        elif key not in _FIELD_READERS:
            problems.append(f"{source}:{lineno}: unknown key {key!r}")
        elif key in given:
            problems.append(f"{source}:{lineno}: duplicate key {key!r}")
        else:
            given.add(key)
            read, what = _FIELD_READERS[key]
            try:
                values[key] = read(value)
            except ValueError:
                problems.append(f"{source}:{lineno}: key {key!r} = {value!r} is not {what}")
    problems += [
        f"{source}: missing required key {field.name!r}"
        for field in fields(SweepConfig) if field.default is MISSING and field.name not in given
    ]
    if problems:
        raise ConfigError(problems)
    return SweepConfig(**values)  # run_sweep validates it


def parse_config_file(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # a ValueError, which main reads as numeric
            raise ConfigError([f"{path}: not UTF-8 text ({exc})"]) from None
    return parse_config_text(text, source=path)


def preset_rows(name: str):
    """Rows reproducing one figure's data, caption parameters included."""
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r} (expected one of {PRESET_NAMES})"])
    rows = [row for cfg in PRESETS[name] for row in run_sweep(cfg)]
    if name == "fig6":  # rate_lambda 0 marks the BPF curve, a direct p sweep
        rows = [row._replace(rate_lambda=0.0) if row.rate_lambda is None else row for row in rows]
    return rows


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    commands = {
        name: sub.add_parser(name, help=text)
        for name, text in (("sweep", "run a sweep described by a config file"),
                           ("preset", "reproduce a figure's data grid"),
                           ("witness", "solve the witness noise threshold"),
                           ("capacity", "emit a channel-capacity curve"),
                           ("errata", "closed-form vs pipeline gap report"))
    }
    commands["sweep"].add_argument("--config", required=True, help="flat key = value config file")
    commands["preset"].add_argument("name", choices=PRESET_NAMES)
    for name, default in COEFFICIENT_DEFAULTS.items():
        commands[name].add_argument("--channel", required=True, choices=CHANNEL_FAMILIES)
        for flag, value in zip(("--c1", "--c2", "--c3"), default or (None,) * 3):
            commands[name].add_argument(flag, type=float, required=default is None, default=value)
    commands["witness"].add_argument("--s", type=float, default=0.0,
                                     help="weak-measurement strength")
    commands["capacity"].add_argument("--lambda", dest="rate_lambda", type=float, default=None,
                                      help="decay rate; sweeps time in [0, 10] instead of d")
    for name in ("capacity", "errata"):
        commands[name].add_argument("--points", type=int, default=101)
    for name in ("sweep", "preset", "capacity", "errata"):
        commands[name].add_argument("--out", default=None, help="output path (default stdout)")
    commands["witness"].set_defaults(out=None)  # the threshold report goes to stdout
    return parser


def _flag_problems(args) -> list[str]:
    """Every problem with a witness, capacity or errata command's flags, in check order.
    argparse accepts inf and nan; the coefficient check reports them for --c1..--c3."""
    problems = [
        f"--{'lambda' if dest == 'rate_lambda' else dest} = {value!r} is not finite"
        for dest, value in vars(args).items()
        if isinstance(value, float) and dest not in ("c1", "c2", "c3")
        and not math.isfinite(value)
    ]
    problems += coefficient_problems(args.c1, args.c2, args.c3, names=("--c1", "--c2", "--c3"))
    least = {"capacity": 2, "errata": 1}.get(args.command)  # a capacity curve needs both ends
    if least is not None and not least <= args.points <= MAX_GRID_ROWS:
        problems.append(f"--points {args.points} outside [{least}, {MAX_GRID_ROWS}]")
    s = getattr(args, "s", 0.0)
    if math.isfinite(s) and not 0.0 <= s < 1.0:
        problems.append(f"--s {s} outside [0, 1)")
    rate = getattr(args, "rate_lambda", None)
    if rate is not None and -math.inf < rate <= 0.0:
        problems.append(f"--lambda {rate} must be positive")
    if rate is not None and args.channel != "AD":
        problems.append("--lambda only applies to the AD channel")
    return problems


def _command_text(args) -> str:
    """The text one command writes; a witness, capacity or errata run checks its flags first."""
    if args.command == "sweep":
        return render_csv(run_sweep(parse_config_file(args.config)))
    if args.command == "preset":
        return render_csv(preset_rows(args.name))
    problems = _flag_problems(args)
    if problems:
        raise ConfigError(problems, f"{args.command} flags")
    coeffs = BellDiagonalCoeffs(args.c1, args.c2, args.c3)
    if args.command == "witness":
        result = witness_threshold(args.channel, coeffs, s=args.s)
        return "".join(
            f"{key}={value}\n"
            for key, value in (
                ("channel", args.channel),
                ("parameter", result.parameter_name),
                ("critical_value", f"{result.critical_value:.6f}"),
                ("steering_s", f"{result.steering_strength_s:.12g}"),
                ("window", result.window),
            )
        )
    if args.command == "capacity":
        stop = 10.0 if args.rate_lambda is not None else 1.0
        schedule = np.linspace(0.0, stop, args.points)
        curve = capacity_curves(args.channel, coeffs, schedule, args.rate_lambda)
        lines = ["param,capacity", *(f"{x:.12g},{c:.12g}" for x, c in curve)]
        return "\n".join(lines) + "\n"
    return errata_report(coeffs, args.channel, np.linspace(0.0, 1.0, args.points))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _write_text(_command_text(args), args.out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
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
