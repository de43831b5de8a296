"""One-sided noise channels and post-selected steering operations.

The noise channels (amplitude damping, bit-phase flip) and the steering
operations act on the measured qubit A only; the memory qubit B is left
untouched.  Steering operations are non-trace-preserving single-qubit maps
applied with post-selection, i.e. the output is renormalized by the success
probability.

Both are the map sum_k (E_k (x) I) rho (E_k (x) I)^dagger of ``linalg._sandwiches``, in a
few flat BLAS products: ``_evolve`` takes one Kraus operator per parameter on the one
initial state, ``_steer`` one operator shared by a stack.  Each stage is one stacked
kernel (``_kraus_stack``, ``_evolve``, ``_steer``) that flags its rows; ``ad_kraus``,
``bpf_kraus``, ``apply_one_sided`` and ``apply_steering`` are its one-row case, which
raises instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .linalg import (
    COMPLETENESS_ATOL,
    I2,
    PAULI_Y,
    POSTSELECT_MIN_PROB,
    _of_type,
    _on_qubit_a,
    _sandwiches,
    as_matrix,
    validate_two_qubit,
)

CHANNEL_FAMILIES = ("AD", "BPF")


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators of a trace-preserving single-qubit channel."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_matrix(e) for e in self.operators)
        object.__setattr__(self, "operators", ops)
        for e in ops:
            if e.shape != (2, 2):
                raise ValueError(f"Kraus operator has shape {e.shape}, expected (2, 2)")
        defect = float(np.abs(sum(e.conj().T @ e for e in ops) - I2).max())
        if defect > COMPLETENESS_ATOL:
            raise ValueError(
                f"Kraus set is not trace preserving: |sum E^dag E - I| = {defect:.3e}"
            )


def _kraus_stack(family: str, params: np.ndarray) -> np.ndarray:
    """The Kraus operators of ``family`` at every parameter, as a (2, N, 2, 2) stack;
    a parameter outside [0, 1] gives NaN entries, a family other than AD and BPF an error."""
    if family not in CHANNEL_FAMILIES:
        raise ValueError(f"unknown channel family {family!r}")
    with np.errstate(invalid="ignore"):
        root, co_root = np.sqrt(params), np.sqrt(1.0 - params)
    ops = np.zeros((2, len(params), 2, 2), dtype=complex)
    if family == "AD":  # diag(1, sqrt(1 - d)) and sqrt(d) |0><1|
        ops[0, :, 0, 0], ops[0, :, 1, 1], ops[1, :, 0, 1] = 1.0, co_root, root
    else:  # sqrt(p) I and sqrt(1 - p) sigma_y
        ops[0], ops[1] = root[:, None, None] * I2, co_root[:, None, None] * PAULI_Y
    return ops


def ad_kraus(d: float) -> KrausChannel:
    """Amplitude damping with decay probability d."""
    if not 0.0 <= _of_type("d", d, Real) <= 1.0:
        raise ValueError(f"damping probability d = {d!r} outside [0, 1]")
    return KrausChannel(operators=tuple(_kraus_stack("AD", np.array([d]))[:, 0]))


def d_of_t(rate: float, t: float) -> float:
    """Decay probability 1 - exp(-rate * t) of the damping channel."""
    if rate < 0.0 or t < 0.0:
        raise ValueError(f"rate and time must be nonnegative, got ({rate!r}, {t!r})")
    return -math.expm1(-rate * t)


def bpf_kraus(p: float) -> KrausChannel:
    """Bit-phase flip: identity with probability p, sigma_y flip with 1 - p."""
    if not 0.0 <= _of_type("p", p, Real) <= 1.0:
        raise ValueError(f"flip parameter p = {p!r} outside [0, 1]")
    return KrausChannel(operators=tuple(_kraus_stack("BPF", np.array([p]))[:, 0]))


def noise_kraus(family: str, param: float) -> KrausChannel:
    """Kraus set of a channel family at its noise parameter (d for AD, p for BPF)."""
    # the constructors are looked up by name on each call, not kept in a table,
    # so a wrapper installed on the module attribute sees every call
    if _of_type("family", family, str) == "AD":
        return ad_kraus(param)
    if family == "BPF":
        return bpf_kraus(param)
    raise ValueError(f"unknown channel family {family!r}")


def _sandwich(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k (E_k (x) I) rho (E_k (x) I)^dagger of (K, 2, 2) operators on each state of an
    (N, 4, 4) stack, or of a (K, N, 2, 2) stack, one operator per row, on one state."""
    return sum(_sandwiches(_on_qubit_a(ops), rho))


def _evolve(family: str, rho0: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``apply_one_sided(noise_kraus(family, p), rho0)`` of a checked ``rho0`` for every p,
    as one stack, and which p lie in [0, 1], the range ``ad_kraus`` and ``bpf_kraus`` check."""
    return _sandwich(_kraus_stack(family, params), rho0), (params >= 0.0) & (params <= 1.0)


def apply_one_sided(channel: KrausChannel, rho) -> np.ndarray:
    """Evolve a two-qubit density matrix with the channel acting on qubit A."""
    ops = np.array(_of_type("channel", channel, KrausChannel).operators).reshape(-1, 1, 2, 2)
    return _sandwich(ops, validate_two_qubit(rho))[0]


@dataclass(frozen=True, eq=False)
class SteeringOp:
    """Single non-trace-preserving operator applied with post-selection."""

    operator: np.ndarray

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
                raise ValueError(f"diagonal entry {v.item()!r} outside the allowed range [0, 1]")


def filter_op(k: float) -> SteeringOp:
    """Filtering operator diag(sqrt(1-k), sqrt(k)) for strength 0 < k < 1."""
    if not 0.0 < _of_type("k", k, Real) < 1.0:
        raise ValueError(f"filter strength k = {k!r} outside the open interval (0, 1)")
    op = np.array([[math.sqrt(1.0 - k), 0.0], [0.0, math.sqrt(k)]], dtype=complex)
    return SteeringOp(operator=op)


def weak_op(s: float) -> SteeringOp:
    """Weak-measurement operator diag(1, sqrt(1-s)) for strength 0 <= s < 1."""
    if not 0.0 <= _of_type("s", s, Real) < 1.0:
        raise ValueError(f"weak-measurement strength s = {s!r} outside [0, 1)")
    op = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - s)]], dtype=complex)
    return SteeringOp(operator=op)


def _steer(op: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``apply_steering`` of the 2x2 operator ``op`` to each state of an (N, 4, 4) stack, and
    which rows keep a usable post-selection probability; the input check is the caller's."""
    unnormalized = _sandwich(op[None], states)
    norm = np.trace(unnormalized, axis1=1, axis2=2).real
    kept = norm > POSTSELECT_MIN_PROB
    return unnormalized / np.where(kept, norm, 1.0)[:, None, None], kept


def apply_steering(op: SteeringOp, rho) -> np.ndarray:
    """Apply (O (x) I) rho (O (x) I)^dagger / tr[...], O acting on qubit A."""
    states, kept = _steer(_of_type("op", op, SteeringOp).operator, validate_two_qubit(rho)[None])
    if not kept[0]:
        raise ValueError("post-selection probability ~ 0, conditional state undefined")
    return states[0]
