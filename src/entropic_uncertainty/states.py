"""Two-qubit Bell-diagonal initial states and the X-shaped matrices they evolve into.

Basis order is |00>, |01>, |10>, |11> with the first factor being qubit A, so
the anti-diagonal coherences sit at entries (0, 3) and (1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_ATOL,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PSD_ATOL,
    TRACE_ATOL,
    X_PATTERN_ATOL,
    _OFF_X_INDICES,
    as_matrix,
    tensor_product,
)

# (label, sign pattern applied to (c1, c2, c3)) for the four eigenvalues
# (1 +/- c1 -/+ c2 +/- c3) / 4 of the Bell-diagonal family.
_BELL_EIGENVALUE_TERMS = (
    ("(1 + c1 - c2 + c3)/4", (1.0, -1.0, 1.0)),
    ("(1 - c1 + c2 + c3)/4", (-1.0, 1.0, 1.0)),
    ("(1 + c1 + c2 - c3)/4", (1.0, 1.0, -1.0)),
    ("(1 - c1 - c2 - c3)/4", (-1.0, -1.0, -1.0)),
)


def _bell_eigenvalues(c: tuple[float, float, float]) -> tuple[float, float, float, float]:
    return tuple(
        (1.0 + sum(s * x for s, x in zip(signs, c))) / 4.0
        for _, signs in _BELL_EIGENVALUE_TERMS
    )


def coefficient_problems(c1, c2, c3, names=("c1", "c2", "c3")) -> list[str]:
    """Every reason (c1, c2, c3) is not a Bell-diagonal state, each named once.

    A coefficient is checked for being finite, then for lying in [-1, 1]; only
    when all three pass are the four eigenvalues checked for positivity.
    ``names`` labels the coefficients in the messages (the CLI passes its flags).
    """
    problems = []
    for name, value in zip(names, (c1, c2, c3)):
        if not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not finite")
        elif abs(value) > 1.0 + PSD_ATOL:
            problems.append(f"{name} = {value!r} outside [-1, 1]")
    if problems:
        return problems
    for (label, _), value in zip(_BELL_EIGENVALUE_TERMS, _bell_eigenvalues((c1, c2, c3))):
        if value < -PSD_ATOL:
            problems.append(f"unphysical Bell-diagonal coefficients: {label} = {value:.6g} < 0")
    return problems


@dataclass(frozen=True)
class BellDiagonalCoeffs:
    """Correlation triple (c1, c2, c3) defining a Bell-diagonal two-qubit state."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        problems = coefficient_problems(self.c1, self.c2, self.c3)
        if problems:
            raise ValueError("; ".join(problems))

    def eigenvalues(self) -> tuple[float, float, float, float]:
        """The four closed-form eigenvalues (1 +/- c1 -/+ c2 +/- c3) / 4."""
        return _bell_eigenvalues(self.as_tuple())

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


def bell_diagonal_density(coeffs: BellDiagonalCoeffs) -> np.ndarray:
    """Density matrix (I (x) I + sum_j c_j sigma_j (x) sigma_j) / 4."""
    rho = tensor_product(I2, I2)
    for c, sigma in zip(coeffs.as_tuple(), (PAULI_X, PAULI_Y, PAULI_Z)):
        rho = rho + c * tensor_product(sigma, sigma)
    return rho / 4.0


@dataclass(frozen=True)
class XState:
    """The seven independent entries of an X-shaped two-qubit density matrix."""

    d11: float
    d22: float
    d33: float
    d44: float
    a14: complex
    a23: complex

    def __post_init__(self):
        pops = (self.d11, self.d22, self.d33, self.d44)
        for i, p in enumerate(pops):
            if p < -PSD_ATOL:
                raise ValueError(f"population d{i + 1}{i + 1} = {p!r} is negative")
        total = sum(pops)
        if abs(total - 1.0) > TRACE_ATOL:
            raise ValueError(f"populations sum to {total!r}, expected 1")
        if abs(self.a14) > math.sqrt(max(self.d11 * self.d44, 0.0)) + PSD_ATOL:
            raise ValueError(
                f"|a14| = {abs(self.a14):.6g} exceeds sqrt(d11*d44), state not positive"
            )
        if abs(self.a23) > math.sqrt(max(self.d22 * self.d33, 0.0)) + PSD_ATOL:
            raise ValueError(
                f"|a23| = {abs(self.a23):.6g} exceeds sqrt(d22*d33), state not positive"
            )

    def to_matrix(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = (
            self.d11,
            self.d22,
            self.d33,
            self.d44,
        )
        rho[0, 3] = self.a14
        rho[3, 0] = np.conj(self.a14)
        rho[1, 2] = self.a23
        rho[2, 1] = np.conj(self.a23)
        return rho

    def populations(self) -> tuple[float, float, float, float]:
        return (self.d11, self.d22, self.d33, self.d44)


def as_xstate(rho) -> XState:
    """Extract the X-pattern entries; rejects matrices with off-pattern residue."""
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    for i, j in _OFF_X_INDICES:  # row-major: the first offender is named
        if abs(rho[i, j]) > X_PATTERN_ATOL:
            raise ValueError(f"matrix is not X-structured: entry ({i}, {j}) = {rho[i, j]!r}")
    for i, j in ((0, 3), (1, 2)):
        if abs(rho[j, i] - np.conj(rho[i, j])) > HERMITIAN_ATOL:
            raise ValueError(
                f"coherence pair ({i}, {j}) is not Hermitian-conjugate"
            )
    for i in range(4):
        if abs(rho[i, i].imag) > HERMITIAN_ATOL:
            raise ValueError(f"diagonal entry ({i}, {i}) is not real")
    return XState(
        d11=rho[0, 0].real,
        d22=rho[1, 1].real,
        d33=rho[2, 2].real,
        d44=rho[3, 3].real,
        a14=complex(rho[0, 3]),
        a23=complex(rho[1, 2]),
    )
