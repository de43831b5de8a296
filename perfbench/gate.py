"""Correctness gate: every job's output is checked before it counts.

Presets are byte-compared with the committed golden CSVs (fig5, which has no
golden file, against a digest pinned here).  Seeded outputs are checked
against invariants that hold for any input: the bound ordering
berta <= pati <= adabi <= u, a witness critical value inside its solve range
with a printed window that agrees with it, and capacities in [0, 2].
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

# Same slack the package allows in bound-ordering comparisons (linalg.BOUND_ORDER_ATOL).
BOUND_ORDER_ATOL = 1e-9
# Printed values carry 12 significant digits.
PRINT_ATOL = 1e-10
GOLDEN_PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig6")
PINNED_SHA256 = {
    "fig5": "99eeb78cbb22ab7dee81edf64abdd54007d7ea4260beb799d3f94940fc556042",
}

BOUNDS_HEADER = (
    "channel,param,C1,C2,C3,u,berta,pati,adabi,"
    "tightness_berta,tightness_pati,tightness_adabi,discord,s_min"
)
STEERING_HEADER = "channel,param,C1,C2,C3,steer_kind,steer_strength,u,witness"


class CheckFailed(Exception):
    """An output that does not satisfy its check; the message says why."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(golden_dir: Path) -> dict[str, str]:
    """Golden CSV text by preset name; raises if a file is missing."""
    return {
        name: (golden_dir / f"{name}.csv").read_text(encoding="utf-8")
        for name in GOLDEN_PRESETS
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{text!r} is not a number") from None
    _require(math.isfinite(value), f"{text!r} is not finite")
    return value


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"header {lines[:1]!r} != {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    _require(all(len(row) == width for row in rows), f"a row does not have {width} fields")
    return rows


def _check_grid(params: list[float], start: float, stop: float, points: int) -> None:
    _require(len(params) == points, f"{len(params)} grid points, expected {points}")
    for i, x in enumerate(params):
        want = start + (stop - start) * i / (points - 1)
        _require(abs(x - want) <= PRINT_ATOL * max(1.0, abs(want)),
                 f"grid point {i} = {x!r}, expected {want!r}")


def _check_inputs(row: list[str], channel: str, coeffs) -> None:
    _require(row[0] == channel, f"channel {row[0]!r} != {channel!r}")
    for got, want in zip(row[2:5], coeffs):
        _require(_number(got) == want, f"coefficient {got!r} != {want!r}")


def _check_bounds(text: str, exp: dict) -> int:
    rows = _csv_rows(text, BOUNDS_HEADER)
    for row in rows:
        _check_inputs(row, exp["channel"], exp["coeffs"])
        u, berta, pati, adabi, t_b, t_p, t_a, discord, s_min = map(_number, row[5:])
        _require(berta <= pati + BOUND_ORDER_ATOL, f"berta {berta} > pati {pati}")
        _require(pati <= adabi + BOUND_ORDER_ATOL, f"pati {pati} > adabi {adabi}")
        _require(adabi <= u + BOUND_ORDER_ATOL, f"adabi {adabi} > u {u}")
        for gap, bound in ((t_b, berta), (t_p, pati), (t_a, adabi)):
            _require(abs(gap - (u - bound)) <= 1e-9, f"tightness {gap} != u - {bound}")
        _require(discord >= 0.0, f"discord {discord} < 0")
        _require(-PRINT_ATOL <= s_min <= 1.0 + PRINT_ATOL, f"s_min {s_min} outside [0, 1]")
    _check_grid([_number(r[1]) for r in rows], exp["start"], exp["stop"], exp["points"])
    return len(rows)


def _check_witness_column(u: float, flag: str) -> None:
    _require(flag in ("0", "1"), f"witness flag {flag!r}")
    edge = 1.0 - BOUND_ORDER_ATOL
    if abs(u - edge) > PRINT_ATOL:  # the printed u cannot decide a row this close
        _require((flag == "1") == (u < edge), f"witness {flag} inconsistent with u = {u}")


def _check_steering(text: str, exp: dict) -> int:
    rows = _csv_rows(text, STEERING_HEADER)
    strengths, points = exp["strengths"], exp["points"]
    _require(len(rows) == len(strengths) * points,
             f"{len(rows)} rows, expected {len(strengths) * points}")
    for i, row in enumerate(rows):
        _check_inputs(row, exp["channel"], exp["coeffs"])
        _require(row[5] == exp["kind"], f"steer_kind {row[5]!r} != {exp['kind']!r}")
        _require(_number(row[6]) == strengths[i // points], f"steer_strength {row[6]!r}")
        u = _number(row[7])
        _require(-PRINT_ATOL <= u <= 2.0 + PRINT_ATOL, f"u {u} outside [0, 2]")
        _check_witness_column(u, row[8])
    for k in range(len(strengths)):
        block = rows[k * points:(k + 1) * points]
        _check_grid([_number(r[1]) for r in block], exp["start"], exp["stop"], points)
    return len(rows)


def _check_witness(text: str, exp: dict) -> int:
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    channel = exp["channel"]
    _require(fields.get("channel") == channel, f"channel {fields.get('channel')!r}")
    _require(fields.get("parameter") == ("d" if channel == "AD" else "p"),
             f"parameter {fields.get('parameter')!r}")
    _require(fields.get("steering_s") == f"{exp['s']:g}", f"steering_s {fields.get('steering_s')!r}")
    printed = fields.get("critical_value", "")
    crit = _number(printed)
    hi_end = 1.0 if channel == "AD" else 0.5
    _require(0.0 < crit < hi_end, f"critical value {crit} outside (0, {hi_end})")
    window = fields.get("window", "")
    if channel == "AD":
        _require(window == f"[0, {printed})", f"window {window!r} for critical {printed}")
    else:
        head, sep, tail = window.partition(") U (")
        _require(head == f"[0, {printed}" and sep and tail.endswith(", 1]"),
                 f"window {window!r} for critical {printed}")
        upper = _number(tail[: -len(", 1]")])
        _require(abs(upper - (1.0 - crit)) <= 1.5e-6, f"upper edge {upper} != 1 - {crit}")
    return 1


def _check_capacity(text: str, exp: dict) -> int:
    rows = _csv_rows(text, "param,capacity")
    for row in rows:
        cap = _number(row[1])
        _require(-PRINT_ATOL <= cap <= 2.0 + PRINT_ATOL, f"capacity {cap} outside [0, 2]")
    _check_grid([_number(r[0]) for r in rows], 0.0, exp["stop"], exp["points"])
    return len(rows)


def _check_fig5(text: str) -> None:
    for row in _csv_rows(text, STEERING_HEADER):
        _check_witness_column(_number(row[7]), row[8])


def check_output(job, text: str, golden: dict[str, str]) -> int:
    """Raise CheckFailed unless ``text`` is a correct output of ``job``;
    return the number of output rows (a witness solve is one row)."""
    exp = job.expected()
    if job.check == "golden":
        want = golden[exp["preset"]]
        if text != want:
            at = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b),
                      min(len(text), len(want)))
            raise CheckFailed(f"{exp['preset']} differs from its golden CSV at byte {at}")
        return text.count("\n") - 1
    if job.check == "pinned":
        digest = sha256(text)
        _require(digest == PINNED_SHA256[exp["preset"]],
                 f"{exp['preset']} sha256 {digest} != pinned {PINNED_SHA256[exp['preset']]}")
        _check_fig5(text)
        return text.count("\n") - 1
    checker = {
        "bounds": _check_bounds,
        "steering": _check_steering,
        "witness": _check_witness,
        "capacity": _check_capacity,
    }[job.check]
    return checker(text, exp)
