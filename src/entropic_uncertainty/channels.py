"""One-sided noise channels and post-selected steering operations.

The noise channels (amplitude damping, bit-phase flip) act on the measured
qubit only; the memory qubit is left untouched.  Steering operations are
non-trace-preserving single-qubit maps applied with post-selection, i.e. the
output is renormalized by the success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    COMPLETENESS_ATOL,
    I2,
    PAULI_Y,
    POSTSELECT_MIN_PROB,
    as_matrix,
    conjugate_sandwich,
    embed_on_side,
    validate_density,
)

CHANNEL_FAMILIES = ("AD", "BPF")


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators of a trace-preserving single-qubit channel."""

    operators: tuple[np.ndarray, ...]
    label: str = "custom"

    def __post_init__(self):
        ops = tuple(as_matrix(e) for e in self.operators)
        object.__setattr__(self, "operators", ops)
        for e in ops:
            if e.shape != (2, 2):
                raise ValueError(f"Kraus operator has shape {e.shape}, expected (2, 2)")
        total = sum(e.conj().T @ e for e in ops)
        defect = float(np.abs(total - I2).max())
        if defect > COMPLETENESS_ATOL:
            raise ValueError(
                f"Kraus set is not trace preserving: |sum E^dag E - I| = {defect:.3e}"
            )


def ad_kraus(d: float) -> KrausChannel:
    """Amplitude damping with decay probability d."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"damping probability d = {d!r} outside [0, 1]")
    e1 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - d)]], dtype=complex)
    e2 = np.array([[0.0, math.sqrt(d)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(operators=(e1, e2), label="AD")


def d_of_t(rate: float, t: float) -> float:
    """Decay probability 1 - exp(-rate * t) of the damping channel."""
    if rate < 0.0 or t < 0.0:
        raise ValueError(f"rate and time must be nonnegative, got ({rate!r}, {t!r})")
    return -math.expm1(-rate * t)


def bpf_kraus(p: float) -> KrausChannel:
    """Bit-phase flip: identity with probability p, sigma_y flip with 1 - p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip parameter p = {p!r} outside [0, 1]")
    return KrausChannel(
        operators=(math.sqrt(p) * I2, math.sqrt(1.0 - p) * PAULI_Y), label="BPF"
    )


def noise_kraus(family: str, param: float) -> KrausChannel:
    """Kraus set of a channel family at its noise parameter (d for AD, p for BPF)."""
    # the constructors are looked up by name on each call, not kept in a table,
    # so a wrapper installed on the module attribute sees every call
    if family == "AD":
        return ad_kraus(param)
    if family == "BPF":
        return bpf_kraus(param)
    raise ValueError(f"unknown channel family {family!r}")


def apply_one_sided(channel: KrausChannel, rho, side: str = "A") -> np.ndarray:
    """Evolve a two-qubit density matrix with the channel acting on one side."""
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    out = np.zeros((4, 4), dtype=complex)
    for e in channel.operators:
        out += conjugate_sandwich(embed_on_side(e, side), rho)
    return out


@dataclass(frozen=True, eq=False)
class SteeringOp:
    """Single non-trace-preserving operator applied with post-selection."""

    operator: np.ndarray
    strength: float
    kind: str

    def __post_init__(self):
        op = as_matrix(self.operator)
        object.__setattr__(self, "operator", op)
        if op.shape != (2, 2):
            raise ValueError(f"steering operator has shape {op.shape}, expected (2, 2)")
        if abs(op[0, 1]) > 0 or abs(op[1, 0]) > 0:
            raise ValueError("steering operator must be diagonal")
        for i in range(2):
            v = op[i, i]
            if abs(v.imag) > 0 or not -1e-15 <= v.real <= 1.0 + 1e-15:
                raise ValueError(
                    f"diagonal entry {v!r} outside the allowed range [0, 1]"
                )


def filter_op(k: float) -> SteeringOp:
    """Filtering operator diag(sqrt(1-k), sqrt(k)) for strength 0 < k < 1."""
    if not 0.0 < k < 1.0:
        raise ValueError(f"filter strength k = {k!r} outside the open interval (0, 1)")
    op = np.array([[math.sqrt(1.0 - k), 0.0], [0.0, math.sqrt(k)]], dtype=complex)
    return SteeringOp(operator=op, strength=k, kind="filter")


def weak_op(s: float) -> SteeringOp:
    """Weak-measurement operator diag(1, sqrt(1-s)) for strength 0 <= s < 1."""
    if not 0.0 <= s < 1.0:
        raise ValueError(f"weak-measurement strength s = {s!r} outside [0, 1)")
    op = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - s)]], dtype=complex)
    return SteeringOp(operator=op, strength=s, kind="weak")


def apply_steering(op: SteeringOp, rho, side: str = "A") -> np.ndarray:
    """Apply (O (x) I) rho (O (x) I)^dagger / tr[...] on the chosen side."""
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    unnormalized = conjugate_sandwich(embed_on_side(op.operator, side), rho)
    norm = float(np.trace(unnormalized).real)
    if norm <= POSTSELECT_MIN_PROB:
        raise ValueError("post-selection probability ~ 0, conditional state undefined")
    return unnormalized / norm
