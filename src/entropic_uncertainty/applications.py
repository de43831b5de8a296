"""Entanglement witnessing via the uncertainty criterion, and channel capacity.

The witness protocol optionally protects the travelling qubit with a weak
measurement *before* it enters the noise channel; that is the ordering under
which a stronger weak measurement enlarges the witnessed noise window.

A capacity curve is one ``sweep._grid_points`` stack (a flagged point is rebuilt alone,
raising its own error).  A witness point is one ``channels._evolve`` call, bitwise the
grid's state, then its dense ``uncertainty_lhs`` (about 40 us), judged by ``bounds.witnessed``
as the sweep's ``witness`` column is: the bracket scan evolves its 101 points as one call,
each bisection step and straddle check its one point, and rho0 is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .bounds import PointQuantities, witnessed
from .channels import _evolve, apply_steering, weak_op
from .linalg import _of_type, validate_two_qubit
from .states import BellDiagonalCoeffs, bell_diagonal_density
from .sweep import _grid_points, _numbers

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
    """Bisect the noise parameter where ``bounds.witnessed`` stops firing.

    For the damping channel the witnessed window is [0, d_m); for the flip
    channel the solve runs on [0, 1/2] and the mirrored upper window follows
    from the p <-> 1 - p symmetry of the channel.

    As s -> 1 the window is set by ``BOUND_ORDER_ATOL``: the state tends to a product state
    whose margin log2(1/c) - u at d = 0 falls to that tolerance, so the threshold falls
    again, as a 50-digit evaluation under the same criterion gives (ROADMAP.md's table).
    """
    hi_end = 1.0 if _of_type("channel_family", channel_family, str) == "AD" else 0.5
    op = weak_op(s)  # raises for s outside [0, 1)
    rho0 = bell_diagonal_density(coeffs)
    if s > 0.0:
        rho0 = apply_steering(op, rho0)
    validate_two_qubit(rho0)  # _evolve's input check, once per solve

    def u(points) -> list[float]:  # each in [0, hi_end], so _evolve's range flag holds
        states, _ = _evolve(channel_family, rho0, np.array(points))  # one stack
        return [PointQuantities(state).u for state in states]  # each the dense u

    xs = np.linspace(0.0, hi_end, _BRACKET_SCAN_POINTS)
    values = u(xs)
    bracket = None
    for i in range(1, len(xs)):
        if witnessed(values[i - 1]) and not witnessed(values[i]):
            bracket = (float(xs[i - 1]), float(xs[i]))
            break
    if bracket is None:
        raise ValueError("no threshold in range")
    lo, hi = bracket
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if witnessed(u([mid])[0]):
            lo = mid
        else:
            hi = mid
    critical = 0.5 * (lo + hi)
    below = u([max(critical - _STRADDLE_STEP, 0.0)])[0]
    above = u([min(critical + _STRADDLE_STEP, hi_end)])[0]
    if not (witnessed(below) and not witnessed(above)):
        raise ArithmeticError(f"threshold bracketing check failed around {critical!r}")
    window = f"[0, {critical:.6f})"
    if channel_family == "BPF":  # and the mirrored upper window
        window += f" U ({1.0 - critical:.6f}, 1]"
    return ThresholdResult("d" if channel_family == "AD" else "p", critical, s, window)


def channel_capacity(rho) -> float:
    """Mutual information of the evolved state, the capacity S(A) - U_b + log2(1/c)."""
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
    if _of_type("channel_family", channel_family, str) != "AD" and rate_lambda is not None:
        raise ValueError("a decay rate only parametrizes the damping channel")
    if rate_lambda is not None:  # once here, not in d_of_t at every point
        _of_type("rate_lambda", rate_lambda, Real)
    xs = _numbers("schedule", schedule)
    points = _grid_points(channel_family, bell_diagonal_density(coeffs), xs, rate_lambda,
                          (None,), ("capacity",))
    return [(xs[i], capacity) for _, i, _, ((_, capacity),) in points]
