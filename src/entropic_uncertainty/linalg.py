"""Dense complex linear algebra for the 2x2 and 4x4 operators used everywhere else.

Deliberately self-contained: spectra come from closed forms (quadratic formula
for 2x2 blocks, anti-diagonal block split for X-shaped 4x4 matrices) with a
cyclic Jacobi fallback, so results are exact and deterministic for the matrices
this package actually produces.
"""

from __future__ import annotations

import math

import numpy as np

# Numerical tolerances used across the package.
HERMITIAN_ATOL = 1e-10      # max |M - M^dagger| accepted as Hermitian
TRACE_ATOL = 1e-9           # |tr(rho) - 1| accepted for density matrices
PSD_ATOL = 1e-9             # eigenvalues >= -PSD_ATOL accepted as nonnegative
EIG_ATOL = 1e-12            # Jacobi off-diagonal convergence target
X_PATTERN_ATOL = 1e-12      # residue allowed outside the X pattern
COMPLETENESS_ATOL = 1e-12   # |sum E^dag E - I| for trace-preserving Kraus sets
POSTSELECT_MIN_PROB = 1e-12 # smallest usable post-selection probability
BOUND_ORDER_ATOL = 1e-9     # slack allowed in bound-ordering comparisons

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class NotHermitianError(ValueError):
    """Raised when an operation needs a Hermitian input; carries the asymmetry."""

    def __init__(self, asymmetry: float):
        self.asymmetry = float(asymmetry)
        super().__init__(
            f"matrix is not Hermitian (max |M - M^dagger| = {self.asymmetry:.3e})"
        )


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite complex 2-D array."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def max_asymmetry(m: np.ndarray) -> float:
    """Largest |M - M^dagger| entry."""
    return float(np.abs(m - m.conj().T).max())


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is a[i, j] * b."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduce a two-qubit state to the kept qubit ("A" = first tensor factor)."""
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(r, axis1=0, axis2=2)
    raise ValueError(f"unknown subsystem tag {keep!r} (expected 'A' or 'B')")


def stacked_partial_trace(m: np.ndarray, keep: str) -> np.ndarray:
    """``partial_trace`` of each state of an (N, 4, 4) stack."""
    r = m.reshape(-1, 2, 2, 2, 2)
    return np.trace(r, axis1=2, axis2=4) if keep == "A" else np.trace(r, axis1=1, axis2=3)


def conjugate_sandwich(op, rho) -> np.ndarray:
    """O rho O^dagger for square operators of matching dimension."""
    op = as_matrix(op)
    rho = as_matrix(rho)
    if op.shape != rho.shape or op.shape[0] != op.shape[1]:
        raise ValueError(
            f"dimension mismatch: operator {op.shape} vs state {rho.shape}"
        )
    return op @ rho @ op.conj().T


def _eig2(a: float, d: float, b: complex) -> tuple[float, float]:
    """Eigenvalues of the Hermitian 2x2 [[a, b], [conj(b), d]], descending."""
    mid = 0.5 * (a + d)
    half = 0.5 * math.hypot(a - d, 2.0 * abs(b))
    return (mid + half, mid - half)


_OFF_X_INDICES = ((0, 1), (0, 2), (1, 3), (2, 3), (1, 0), (2, 0), (3, 1), (3, 2))


def is_x_patterned(m: np.ndarray, atol: float = X_PATTERN_ATOL) -> bool:
    """True when every entry outside the main/anti diagonal is below atol."""
    return all(abs(m[i, j]) <= atol for i, j in _OFF_X_INDICES)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    1x1 and 2x2 are solved by the quadratic formula, X-shaped 4x4 matrices by
    splitting into the {|00>, |11>} and {|01>, |10>} blocks; anything else
    falls back to cyclic Jacobi rotations converged to ``EIG_ATOL``.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square: {m.shape}")
    asym = max_asymmetry(m)
    if asym > HERMITIAN_ATOL:
        raise NotHermitianError(asym)
    n = m.shape[0]
    if n == 1:
        vals = [m[0, 0].real]
    elif n == 2:
        vals = list(_eig2(m[0, 0].real, m[1, 1].real, m[0, 1]))
    elif n == 4 and is_x_patterned(m):
        vals = list(_eig2(m[0, 0].real, m[3, 3].real, m[0, 3]))
        vals += list(_eig2(m[1, 1].real, m[2, 2].real, m[1, 2]))
    else:
        return jacobi_eigenvalues(m)
    return np.sort(np.array(vals))[::-1]


def jacobi_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via cyclic complex Jacobi sweeps."""
    a = as_matrix(m).copy()
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    asym = max_asymmetry(a)
    if asym > HERMITIAN_ATOL:
        raise NotHermitianError(asym)
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]
    for _ in range(60):
        off = max(
            (abs(a[p, q]) for p in range(n) for q in range(p + 1, n)),
            default=0.0,
        )
        if off <= EIG_ATOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = abs(a[p, q])
                if b == 0.0:
                    continue
                phase = a[p, q] / b
                tau = (a[q, q].real - a[p, p].real) / (2.0 * b)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s
                rot[q, p] = -np.conj(phase) * s
                rot[q, q] = np.conj(phase) * c
                a = rot.conj().T @ a @ rot
                a = 0.5 * (a + a.conj().T)
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    return np.sort(np.diag(a).real)[::-1]


def density_spectrum(rho) -> np.ndarray:
    """Spectrum of a density matrix: validated, clamped to [0, 1], descending."""
    vals = hermitian_eigenvalues(rho)
    low = float(vals.min())
    if low < -PSD_ATOL:
        raise ValueError(
            f"matrix is not positive semidefinite (eigenvalue {low:.3e})"
        )
    total = float(vals.sum())
    if abs(total - 1.0) > TRACE_ATOL:
        raise ValueError(f"matrix does not have unit trace (trace {total!r})")
    return np.clip(vals, 0.0, 1.0)


def stacked_density_spectra(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``density_spectrum`` of each matrix of an (N, 2, 2) or (N, 4, 4) stack, and
    which rows pass its checks and, for 4x4, are X-patterned.  Blocks go through
    ``_eig2`` as in ``hermitian_eigenvalues``, so a passing row's spectrum is
    bitwise the dense one; a failing row's values mean nothing."""
    blocks = ((0, 3), (1, 2)) if m.shape[1] == 4 else ((0, 1),)
    vals = np.array([
        [_eig2(a, d, b) for a, d, b in zip(
            m[:, i, i].real.tolist(), m[:, j, j].real.tolist(), m[:, i, j].tolist())]
        for i, j in blocks
    ])  # (blocks, N, 2)
    vals = np.sort(vals.transpose(1, 0, 2).reshape(len(m), -1), axis=1)[:, ::-1]
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
        asymmetry = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    ok = np.isfinite(m).all(axis=(1, 2)) & (asymmetry <= HERMITIAN_ATOL)
    ok &= (vals.min(axis=1) >= -PSD_ATOL) & (np.abs(vals.sum(axis=1) - 1.0) <= TRACE_ATOL)
    if m.shape[1] == 4:
        rows, cols = zip(*_OFF_X_INDICES)
        ok &= (np.abs(m[:, rows, cols]) <= X_PATTERN_ATOL).all(axis=1)
    return np.clip(vals, 0.0, 1.0), ok


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, trace and positivity; return the matrix unchanged."""
    rho = as_matrix(rho)
    density_spectrum(rho)
    return rho
