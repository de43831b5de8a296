"""Entanglement witnessing via the uncertainty criterion, and channel capacity.

The witness protocol optionally protects the travelling qubit with a weak
measurement *before* it enters the noise channel; that is the ordering under
which a stronger weak measurement enlarges the witnessed noise window.

Both take their points from ``sweep._grid_points``: a capacity curve as one
stack, the witness bisection one point per call, whose ``u`` is the dense
``uncertainty_lhs`` of the point's state.  A point the stack flags is rebuilt
alone by the dense pipeline, which raises its own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import C, PointQuantities
from .channels import CHANNEL_FAMILIES, apply_steering, weak_op
from .states import BellDiagonalCoeffs, bell_diagonal_density
from .sweep import _grid_points

_BISECTION_TOL = 1e-7
_BRACKET_SCAN_POINTS = 101
_STRADDLE_STEP = 1e-4


@dataclass(frozen=True)
class ThresholdResult:
    """Critical noise parameter below which the witness still fires."""

    parameter_name: str
    critical_value: float
    steering_strength_s: float
    window: str


def witness_threshold(
    channel_family: str, coeffs: BellDiagonalCoeffs, s: float = 0.0
) -> ThresholdResult:
    """Bisect U(parameter) = log2(1/c) for the witness crossing point.

    For the damping channel the witnessed window is [0, d_m); for the flip
    channel the solve runs on [0, 1/2] and the mirrored upper window follows
    from the p <-> 1 - p symmetry of the channel.
    """
    if channel_family not in CHANNEL_FAMILIES:
        raise ValueError(f"unknown channel family {channel_family!r}")
    rho0 = bell_diagonal_density(coeffs)
    if s > 0.0:
        rho0 = apply_steering(weak_op(s), rho0)

    def u(x: float) -> float:  # no stacked value requested: u is uncertainty_lhs of the state
        ((_, _, point),) = _grid_points(channel_family, rho0, [x], None, (None,), ())
        return point().u

    threshold = math.log2(1.0 / C)
    hi_end = 1.0 if channel_family == "AD" else 0.5

    xs = np.linspace(0.0, hi_end, _BRACKET_SCAN_POINTS)
    values = [u(float(x)) for x in xs]
    bracket = None
    for i in range(1, len(xs)):
        if values[i - 1] < threshold <= values[i]:
            bracket = (float(xs[i - 1]), float(xs[i]))
            break
    if bracket is None:
        raise ValueError("no threshold in range")
    lo, hi = bracket
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if u(mid) < threshold:
            lo = mid
        else:
            hi = mid
    critical = 0.5 * (lo + hi)
    below = u(max(critical - _STRADDLE_STEP, 0.0))
    above = u(min(critical + _STRADDLE_STEP, hi_end))
    if not (below < threshold < above):
        raise ArithmeticError(
            f"threshold bracketing check failed around {critical!r}"
        )
    window = f"[0, {critical:.6f})"
    if channel_family == "BPF":  # and the mirrored upper window
        window += f" U ({1.0 - critical:.6f}, 1]"
    return ThresholdResult("d" if channel_family == "AD" else "p", critical, s, window)


def channel_capacity(rho) -> float:
    """Mutual information of the evolved state, cross-checked against the
    equivalent bound form S(rho_A) - U_b + 1 at complementarity 1/2."""
    return PointQuantities(rho).capacity


def capacity_curves(
    channel_family: str,
    coeffs: BellDiagonalCoeffs,
    schedule,
    rate_lambda: float | None = None,
) -> list[tuple[float, float]]:
    """Capacity along a parameter schedule.

    ``schedule`` holds damping/flip parameters directly, or times when
    ``rate_lambda`` is given (damping channel only).  A bad point raises its
    own error, the first in schedule order.
    """
    if channel_family not in CHANNEL_FAMILIES:
        raise ValueError(f"unknown channel family {channel_family!r}")
    if rate_lambda is not None and channel_family != "AD":
        raise ValueError("a decay rate only parametrizes the damping channel")
    xs = [float(x) for x in schedule]
    points = _grid_points(channel_family, bell_diagonal_density(coeffs), xs, rate_lambda,
                          (None,), ("capacity",))
    return [(xs[i], point().capacity) for _, i, point in points]
