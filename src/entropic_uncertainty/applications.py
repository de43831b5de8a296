"""Entanglement witnessing via the uncertainty criterion, and channel capacity.

The witness protocol optionally protects the travelling qubit with a weak
measurement *before* it enters the noise channel; that is the ordering under
which a stronger weak measurement enlarges the witnessed noise window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    CHANNEL_FAMILIES,
    apply_one_sided,
    apply_steering,
    d_of_t,
    noise_kraus,
    weak_op,
)
from .measures import sigma_x_basis, sigma_z_basis
from .bounds import PointQuantities, complementarity_c, uncertainty_lhs
from .states import BellDiagonalCoeffs, bell_diagonal_density
from .sweep import _BASES, _evolved_blocks, _stacked_values

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


def _witness_u_of_param(channel_family: str, coeffs: BellDiagonalCoeffs, s: float):
    rho0 = bell_diagonal_density(coeffs)
    if s > 0.0:
        rho0 = apply_steering(weak_op(s), rho0, side="A")
    b1, b2 = sigma_x_basis(), sigma_z_basis()

    def u(x: float) -> float:
        evolved = apply_one_sided(noise_kraus(channel_family, x), rho0, side="A")
        return uncertainty_lhs(evolved, b1, b2)

    return u


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
    u = _witness_u_of_param(channel_family, coeffs, s)
    threshold = math.log2(1.0 / complementarity_c(sigma_x_basis(), sigma_z_basis()))
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
    if channel_family == "AD":
        return ThresholdResult(
            parameter_name="d",
            critical_value=critical,
            steering_strength_s=s,
            window=f"[0, {critical:.6f})",
        )
    return ThresholdResult(
        parameter_name="p",
        critical_value=critical,
        steering_strength_s=s,
        window=f"[0, {critical:.6f}) U ({1.0 - critical:.6f}, 1]",
    )


def channel_capacity(rho) -> float:
    """Mutual information of the evolved state, cross-checked against the
    equivalent bound form S(rho_A) - U_b + 1 at complementarity 1/2."""
    return PointQuantities(rho, *_BASES).capacity


def capacity_curves(
    channel_family: str,
    coeffs: BellDiagonalCoeffs,
    schedule,
    rate_lambda: float | None = None,
) -> list[tuple[float, float]]:
    """Capacity along a parameter schedule.

    ``schedule`` holds damping/flip parameters directly, or times when
    ``rate_lambda`` is given (damping channel only).  The schedule is evolved
    and evaluated as X-state stacks; a point the stack flags is evaluated
    alone, which also raises its error, in schedule order.
    """
    if channel_family not in CHANNEL_FAMILIES:
        raise ValueError(f"unknown channel family {channel_family!r}")
    if rate_lambda is not None and channel_family != "AD":
        raise ValueError("a decay rate only parametrizes the damping channel")
    rho0 = bell_diagonal_density(coeffs)
    xs = [float(x) for x in schedule]

    def param(x: float) -> float:
        return d_of_t(rate_lambda, x) if rate_lambda is not None else x

    def alone(x: float) -> float:
        return channel_capacity(apply_one_sided(noise_kraus(channel_family, param(x)), rho0))

    params = []
    for x in xs:
        try:
            params.append(param(x))
        except ValueError:
            params.append(math.nan)  # flags the point, whose own evaluation raises
    curve = []
    for first, states, errors in _evolved_blocks(channel_family, rho0, np.array(params)):
        known = _stacked_values(states, ("capacity",))
        for i, x in enumerate(xs[first:first + len(states)]):
            ok = i not in errors and known[i] is not None
            curve.append((x, known[i]["capacity"] if ok else alone(x)))
    return curve
