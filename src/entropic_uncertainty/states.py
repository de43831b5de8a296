"""Two-qubit Bell-diagonal initial states and the checks of their coefficients.

Basis order is |00>, |01>, |10>, |11> with the first factor being qubit A, so
the X-shaped states the channels evolve them into keep their anti-diagonal
coherences at entries (0, 3) and (1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .linalg import I2, PAULI_X, PAULI_Y, PAULI_Z, PSD_ATOL, _of_type, tensor_product

# (label, sign pattern applied to (c1, c2, c3)) for the four eigenvalues
# (1 +/- c1 -/+ c2 +/- c3) / 4 of the Bell-diagonal family.
_BELL_EIGENVALUE_TERMS = (
    ("(1 + c1 - c2 + c3)/4", (1.0, -1.0, 1.0)),
    ("(1 - c1 + c2 + c3)/4", (-1.0, 1.0, 1.0)),
    ("(1 + c1 + c2 - c3)/4", (1.0, 1.0, -1.0)),
    ("(1 - c1 - c2 - c3)/4", (-1.0, -1.0, -1.0)),
)

# I (x) I and each sigma_j (x) sigma_j, built once
_IDENTITY, *_CORRELATORS = (tensor_product(s, s) for s in (I2, PAULI_X, PAULI_Y, PAULI_Z))


def _bell_eigenvalues(c: tuple[float, float, float]) -> tuple[float, float, float, float]:
    return tuple(
        (1.0 + sum(s * x for s, x in zip(signs, c))) / 4.0
        for _, signs in _BELL_EIGENVALUE_TERMS
    )


def coefficient_problems(c1, c2, c3, names=("c1", "c2", "c3")) -> list[str]:
    """Every reason (c1, c2, c3) is not a Bell-diagonal state, each named once.

    A coefficient is checked for being a real number, then finite, then for lying in
    [-1, 1]; only when all three pass are the four eigenvalues checked for positivity.
    ``names`` labels the coefficients in the messages (the CLI passes its flags).
    """
    problems = []
    for name, value in zip(names, (c1, c2, c3)):
        if not isinstance(value, Real):
            problems.append(f"{name} = {value!r} is not a real number")
        elif not math.isfinite(value):
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
    coeffs = _of_type("coeffs", coeffs, BellDiagonalCoeffs)
    rho = _IDENTITY
    for c, correlator in zip(coeffs.as_tuple(), _CORRELATORS):
        rho = rho + c * correlator
    return rho / 4.0
