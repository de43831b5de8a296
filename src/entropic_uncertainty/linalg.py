"""Dense complex linear algebra for the 2x2 and 4x4 operators used everywhere else.

Deliberately self-contained: spectra come from closed forms (quadratic formula
for 2x2 blocks, anti-diagonal block split for X-shaped 4x4 matrices) with a
cyclic Jacobi fallback, so results are exact and deterministic for the matrices
this package actually produces.  One matrix's checks, closed forms, trace and
clamp run on its entries as Python numbers (``_spectrum``), a stack's on whole
columns, to the same bits.
"""

from __future__ import annotations

import functools
import math
from numbers import Real

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


class NotHermitianError(ValueError):
    """Raised when an operation needs a Hermitian input; carries the asymmetry."""

    def __init__(self, asymmetry: float):
        self.asymmetry = float(asymmetry)
        super().__init__(
            f"matrix is not Hermitian (max |M - M^dagger| = {self.asymmetry:.3e})"
        )


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite complex 2-D array."""
    try:
        m = np.asarray(entries, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's or complex()'s own text
        raise ValueError(f"matrix {entries!r} is not an array of numbers") from exc
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"matrix has no entries, shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _of_type(name: str, value, kind: type):
    """``value`` if it is a ``kind``, else a TypeError naming the argument ``name``."""
    if isinstance(value, kind):
        return value
    what = "real number" if kind is Real else kind.__name__
    raise TypeError(f"{name} = {value!r} is not a {what}")


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is a[i, j] * b."""
    return np.kron(as_matrix(a), as_matrix(b))


def _on_qubit_a(ops: np.ndarray) -> np.ndarray:
    """E (x) I of each 2x2 operator E of a (..., 2, 2) stack, exact zeros off E's entries."""
    out = np.zeros(ops.shape[:-2] + (4, 4), dtype=complex)
    out[..., 0::2, 0::2] = out[..., 1::2, 1::2] = ops
    return out


def _sandwiches(embedded: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The terms (e rho) e^dagger, one per operator e of ``embedded`` (from ``_on_qubit_a``):
    (K, 4, 4) operators shared by one state or by each state of an (N, 4, 4) stack, or
    (K, N, 4, 4), one per row, on one state.  A stack takes a few flat BLAS products, not one
    4x4 product per matrix; OpenBLAS gives each entry the 4x4 product's bits, and the terms
    are in C order, from which numpy's sum of a term's entries (a trace) takes its bits."""
    adjoint = embedded.conj().swapaxes(-1, -2)
    if embedded.ndim == 4:  # (4KN x 4)(4 x 4), then one 4x4 product per row
        return (embedded.reshape(-1, 4) @ rho).reshape(embedded.shape) @ adjoint
    if rho.ndim == 2:  # one state: K 4x4 products a side cost less than the flat path's views
        return embedded @ rho @ adjoint
    k, n = len(embedded), len(rho)  # (4K x 4)(4 x 4N), then (N x 4)(4 x 4) per (e, row of e)
    left = embedded.reshape(4 * k, 4) @ rho.transpose(1, 0, 2).reshape(4, 4 * n)
    terms = np.empty((k, n, 4, 4), dtype=complex)
    np.matmul(left.reshape(k, 4, n, 4), adjoint[:, None], out=terms.swapaxes(1, 2))
    return terms


def stacked_partial_trace(m: np.ndarray, keep: str) -> np.ndarray:
    """Each state of an (N, 4, 4) stack, or one (4, 4) state, reduced to the kept qubit
    ("A" = first tensor factor, anything else B)."""
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return np.trace(r, axis1=-3, axis2=-1) if keep == "A" else np.trace(r, axis1=-4, axis2=-2)


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduce a two-qubit state to the kept qubit ("A" = first tensor factor)."""
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    if keep not in ("A", "B"):
        raise ValueError(f"unknown subsystem tag {keep!r} (expected 'A' or 'B')")
    return stacked_partial_trace(rho, keep)


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
    """Eigenvalues of the Hermitian 2x2 [[a, b], [conj(b), d]], descending.  Complex ``abs``
    is libm's ``hypot``, as ``np.hypot`` is (``math.hypot`` is not): ``_eig2_columns`` agrees."""
    mid = 0.5 * (a + d)
    try:
        half = 0.5 * abs(complex(a - d, 2.0 * abs(b)))
    except OverflowError:  # hypot of finite parts overflowed: as np.hypot, inf
        half = math.inf
    return (mid + half, mid - half)


def _eig2_columns(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """``_eig2`` of every row of the columns a, d (real) and b (complex), bitwise."""
    mid = 0.5 * (a + d)
    half = 0.5 * np.hypot(a - d, 2.0 * np.hypot(b.real, b.imag))
    return [mid + half, mid - half]


# the entries outside the main and anti diagonal, in row-major order
_OFF_X_INDICES = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))


def is_x_patterned(m) -> bool:
    """True when every entry m[i][j] (array or nested lists) off the main/anti diagonal is
    at most ``X_PATTERN_ATOL``."""
    return all(abs(m[i][j]) <= X_PATTERN_ATOL for i, j in _OFF_X_INDICES)


def _entries(m: np.ndarray) -> list:
    """A square matrix's entries as nested lists of Python numbers (no numpy warnings)."""
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square: {m.shape}")
    return m.tolist()


# the Hermitian check's (i, j), i <= j, of an n x n matrix, in row-major order
_upper_triangle = functools.cache(lambda n: tuple((i, j) for i in range(n) for j in range(i, n)))


def _eigenvalues(e: list) -> list[float]:
    """``hermitian_eigenvalues`` of a square matrix's entries (``_entries``), as a list."""
    n = len(e)
    asym = max(abs(e[i][j] - e[j][i].conjugate()) for i, j in _upper_triangle(n))
    if asym > HERMITIAN_ATOL:
        raise NotHermitianError(asym)
    if n == 1:
        vals = [e[0][0].real]
    elif n == 2:
        vals = _eig2(e[0][0].real, e[1][1].real, e[0][1])
    elif n == 4 and is_x_patterned(e):
        vals = (_eig2(e[0][0].real, e[3][3].real, e[0][3])
                + _eig2(e[1][1].real, e[2][2].real, e[1][2]))
    else:
        return jacobi_eigenvalues(e).tolist()
    return sorted(vals, reverse=True)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    1x1 and 2x2 are solved by the quadratic formula, X-shaped 4x4 matrices by
    splitting into the {|00>, |11>} and {|01>, |10>} blocks; anything else
    falls back to cyclic Jacobi rotations converged to ``EIG_ATOL``.  The
    Hermitian check, the X-pattern test and the sort run on Python numbers.
    """
    return np.array(_eigenvalues(_entries(as_matrix(m))))


def jacobi_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via cyclic complex Jacobi sweeps."""
    a = as_matrix(m).copy()
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    asym = float(np.abs(a - a.conj().T).max())
    if asym > HERMITIAN_ATOL:
        raise NotHermitianError(asym)
    # huge entries raise FloatingPointError (an ArithmeticError), not a warning
    with np.errstate(over="raise", invalid="raise"):
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


def _ordered_sum(values) -> float:
    """numpy's sum of fewer than 8 float64 values: from 0.0, left to right (``math.fsum``
    and, from Python 3.12 on, the builtin ``sum`` are compensated)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _spectrum(e: list) -> list[float]:
    """``density_spectrum`` of a square matrix's entries (``_entries``), as a list: the
    checks, the trace and the clamp on Python floats, bitwise as numpy's."""
    vals = _eigenvalues(e)
    # numpy's min propagates a NaN eigenvalue (inf - inf); Python's min may skip it
    low = math.nan if any(map(math.isnan, vals)) else min(vals)
    if not low >= -PSD_ATOL:
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {low:.3e})")
    total = _ordered_sum(vals)
    if abs(total - 1.0) > TRACE_ATOL:
        raise ValueError(f"matrix does not have unit trace (trace {total!r})")
    return _clamped(vals)


def _clamped(vals) -> list[float]:
    """Eigenvalues clamped to [0, 1] on Python floats, as ``np.clip`` (which keeps -0.0)."""
    return [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in vals]


def density_spectrum(rho) -> np.ndarray:
    """Spectrum of a density matrix: validated, clamped to [0, 1], descending."""
    return np.array(_spectrum(_entries(as_matrix(rho))))


def _sorted_rows(columns: list[np.ndarray]) -> np.ndarray:
    """Eigenvalue columns (``_eig2_columns``) as one (N, k) array, each row sorted descending."""
    return np.sort(np.stack(columns).T, axis=1)[:, ::-1]


def stacked_density_spectra(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``density_spectrum`` of each matrix of an (N, 2, 2) or (N, 4, 4) stack, and
    which rows pass its checks and, for 4x4, are X-patterned.  Each block is one
    ``_eig2_columns`` call over the whole stack, so a passing row's spectrum is
    bitwise the dense one; a failing row's values mean nothing."""
    blocks = ((0, 3), (1, 2)) if m.shape[1] == 4 else ((0, 1),)
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite rows fail below
        vals = _sorted_rows([v for i, j in blocks
                             for v in _eig2_columns(m[:, i, i].real, m[:, j, j].real, m[:, i, j])])
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
    _spectrum(_entries(rho))
    return rho


def validate_two_qubit(rho) -> np.ndarray:
    """``validate_density``, then check for a 4x4 (two-qubit) matrix."""
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    return rho
