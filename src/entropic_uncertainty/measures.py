"""Entropies and correlation measures for two-qubit states with a memory qubit.

All entropies are in bits (base-2 logarithms).  Measurement-optimized
quantities (classical correlation, discord, minimal conditional entropy)
restrict the optimization to rank-1 projective measurements parametrized by a
Bloch direction (theta, phi).

For X states (every state this package produces) the search is exact and
one-dimensional: the unmeasured qubit's branch diagonals depend on theta only,
and at fixed diagonals a branch's entropy falls as its coherence rises, so phi
is fixed in closed form as the azimuth of largest coherence.  theta is then
searched on [0, pi/2] (theta and pi - theta only swap the two outcomes) by a
1-degree grid, both endpoints exactly, and one golden-section refinement (the
one-parameter minimization of Huang, PRA 88, 014302 (2013)); a stack of X
states takes its grids as one (N, 91) array and refines each row alone, so a
state gets the same bits in a stack as on its own.  Any other state
takes the dense path: a 1-degree grid over theta in [0, pi] and phi in [0, pi)
(n and -n give the same measurement) followed by coordinate-wise
golden-section refinement.  Both paths are deterministic.

Side conventions: the fixed-basis quantities measure qubit A (the qubit exposed
to noise) with qubit B as the memory.  Only the optimizer takes a side:
``classical_correlation`` and ``quantum_discord`` measure A by default, while
``min_conditional_entropy_over_measurements`` defaults to measuring the memory
qubit B and averaging the entropy of the unmeasured qubit A.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    COMPLETENESS_ATOL,
    HERMITIAN_ATOL,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    POSTSELECT_MIN_PROB,
    PSD_ATOL,
    TRACE_ATOL,
    as_matrix,
    conjugate_sandwich,
    density_spectrum,
    is_x_patterned,
    partial_trace,
    stacked_density_spectra,
    stacked_partial_trace,
    tensor_product,
    validate_density,
)
from .states import XState

_GOLDEN_RATIO_CONJ = (math.sqrt(5.0) - 1.0) / 2.0
_ANGLE_TOL = 1e-10
_GRID_STEP = math.pi / 180.0
_DENSE_MAX_ROUNDS = 100


@functools.cache  # built on first use: X states, all the package builds, never take it
def _dense_grid() -> tuple[np.ndarray, ...]:
    """Dense path: theta in [0, pi] x phi in [0, pi), since n and -n are one
    measurement; returns the angles and the direction components nx, ny, nz."""
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, math.pi, 180, endpoint=False)
    sin_t = np.sin(thetas)[:, None]
    return (thetas, phis, sin_t * np.cos(phis)[None, :], sin_t * np.sin(phis)[None, :],
            np.cos(thetas)[:, None])


# X-state path: theta in [0, pi/2] at the closed-form optimal phi
_X_THETAS = np.linspace(0.0, 0.5 * math.pi, 91)
_X_SIN_T = np.sin(_X_THETAS)
_X_COS_T = np.cos(_X_THETAS)
# Rows per theta grid: about 20 (rows, 91) temporaries stay near 0.5 MB.
_GRID_ROWS = 32


def _other_side(side: str) -> str:
    if side == "A":
        return "B"
    if side == "B":
        return "A"
    raise ValueError(f"unknown subsystem tag {side!r} (expected 'A' or 'B')")


def binary_entropy(q: float) -> float:
    """Entropy in bits of a (q, 1 - q) distribution."""
    if q < -PSD_ATOL or q > 1.0 + PSD_ATOL:
        raise ValueError(f"probability {q!r} outside [0, 1]")
    q = min(max(q, 0.0), 1.0)
    out = 0.0
    for x in (q, 1.0 - q):
        if x > 0.0:
            out -= x * math.log2(x)
    return out


def shannon_entropy(probabilities) -> float:
    """Shannon entropy in bits; zero probabilities contribute nothing."""
    p = np.asarray(probabilities, dtype=float)
    if p.size and float(p.min()) < -PSD_ATOL:
        raise ValueError(f"negative probability {float(p.min())!r}")
    total = float(p.sum())
    if abs(total - 1.0) > TRACE_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    p = np.clip(p, 0.0, 1.0)
    mask = p > 0.0
    return float(-(p[mask] * np.log2(p[mask])).sum())


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density matrix's spectrum."""
    return shannon_entropy(density_spectrum(rho))


def stacked_von_neumann_entropy(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``von_neumann_entropy`` of each matrix of an (N, 2, 2) or (N, 4, 4) stack, and which
    rows pass its checks; a zero eigenvalue adds 0.0, so rows are bitwise the dense ones."""
    p, ok = stacked_density_spectra(m)
    ok &= np.abs(p.sum(axis=1) - 1.0) <= TRACE_ATOL
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=1), ok


@dataclass(frozen=True)
class BlochDirection:
    """Measurement direction on the Bloch sphere (theta polar, phi azimuthal)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta = {self.theta!r} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi = {self.phi!r} outside [0, 2*pi)")

    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (
            st * math.cos(self.phi),
            st * math.sin(self.phi),
            math.cos(self.theta),
        )


@dataclass(frozen=True, eq=False)
class ProjectiveBasis:
    """Two orthogonal rank-1 projectors forming a complete qubit measurement."""

    projectors: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        projs = tuple(as_matrix(p) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        if len(projs) != 2:
            raise ValueError("a qubit basis needs exactly two projectors")
        for p in projs:
            if p.shape != (2, 2):
                raise ValueError(f"projector has shape {p.shape}, expected (2, 2)")
            if float(np.abs(p - p.conj().T).max()) > HERMITIAN_ATOL:
                raise ValueError("projector is not Hermitian")
            if float(np.abs(p @ p - p).max()) > HERMITIAN_ATOL:
                raise ValueError("projector is not idempotent")
        defect = float(np.abs(projs[0] + projs[1] - I2).max())
        if defect > COMPLETENESS_ATOL:
            raise ValueError(f"projectors do not sum to identity (defect {defect:.3e})")


def bloch_basis(direction: BlochDirection) -> ProjectiveBasis:
    """Projective basis along a Bloch direction: (I +/- n.sigma) / 2."""
    nx, ny, nz = direction.unit_vector()
    spin = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
    plus = 0.5 * (I2 + spin)
    minus = 0.5 * (I2 - spin)
    return ProjectiveBasis(projectors=(plus, minus))


def sigma_x_basis() -> ProjectiveBasis:
    return bloch_basis(BlochDirection(math.pi / 2.0, 0.0))


def sigma_z_basis() -> ProjectiveBasis:
    return bloch_basis(BlochDirection(0.0, 0.0))


def post_measurement_state(rho, basis: ProjectiveBasis) -> np.ndarray:
    """Dephased state sum_x (P_x)_A rho (P_x)_A after measuring qubit A."""
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    out = np.zeros((4, 4), dtype=complex)
    for p in basis.projectors:
        out += conjugate_sandwich(tensor_product(p, I2), rho)
    return out


def conditional_entropy_after_measurement(rho, basis: ProjectiveBasis) -> float:
    """S(measured A | B) = S(post-measurement state) - S(memory B)."""
    pm = post_measurement_state(rho, basis)
    return von_neumann_entropy(pm) - von_neumann_entropy(partial_trace(pm, "B"))


def quantum_conditional_entropy(rho) -> float:
    """S(rho) - S(rho_B); negative values signal entanglement."""
    return von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, "B"))


def mutual_information(rho) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB)."""
    return (
        von_neumann_entropy(partial_trace(rho, "A"))
        + von_neumann_entropy(partial_trace(rho, "B"))
        - von_neumann_entropy(rho)
    )


def holevo_quantity(rho, basis: ProjectiveBasis) -> float:
    """Accessible-information bound S(rho_B) - sum_i p_i S(rho_B | outcome i of A)."""
    rho = validate_density(rho)
    total = von_neumann_entropy(partial_trace(rho, "B"))
    for p in basis.projectors:
        branch = conjugate_sandwich(tensor_product(p, I2), rho)
        prob = float(np.trace(branch).real)
        if prob <= POSTSELECT_MIN_PROB:
            continue
        total -= prob * von_neumann_entropy(partial_trace(branch, "B") / prob)
    return total


def stacked_holevo(states: np.ndarray, basis: ProjectiveBasis, s_memory: np.ndarray):
    """``holevo_quantity`` of each state of an (N, 4, 4) stack with memory entropies
    ``s_memory``, and which rows pass every kept branch's checks."""
    total, ok = s_memory, np.ones(len(states), dtype=bool)
    for p in basis.projectors:
        e = np.kron(p, I2)
        branch = e @ states @ e.conj().T
        prob = np.trace(branch, axis1=1, axis2=2).real
        kept = prob > POSTSELECT_MIN_PROB
        memory = stacked_partial_trace(branch, "B") / np.where(kept, prob, 1.0)[:, None, None]
        entropy, good = stacked_von_neumann_entropy(memory)
        ok &= good | ~kept
        total = total - np.where(kept, prob * entropy, 0.0)
    return total, ok


class _CrossMoments:
    """Scalar components of rho_other and Tr_measured[(sigma_j)_measured rho].

    Measuring along direction n with projectors (I +/- n.sigma)/2 leaves the
    unmeasured qubit in (rho_other +/- sum_j n_j R_j) / 2 unnormalized, so the
    whole measurement sweep reduces to 2x2 closed forms in these moments.
    A stack's moments are (N, 1) columns that broadcast against a grid of
    directions; ``rows`` gives each state's as Python numbers for refinement.
    """

    __slots__ = ("b00", "b11", "b01", "r00", "r11", "r01")

    def __init__(self, b00, b11, b01, r00, r11, r01):
        self.b00, self.b11, self.b01 = b00, b11, b01
        self.r00, self.r11, self.r01 = r00, r11, r01

    def rows(self) -> list[_CrossMoments]:
        columns = [self.b00, self.b11, self.b01, *self.r00, *self.r11, *self.r01]
        return [
            _CrossMoments(*v[:3], v[3:6], v[6:9], v[9:])
            for v in zip(*(c[:, 0].tolist() for c in columns))
        ]


def _cross_moments(states: np.ndarray, measured_side: str) -> _CrossMoments:
    """The moments of each state of an (N, 4, 4) stack."""
    other = stacked_partial_trace(states, _other_side(measured_side))
    r = states.reshape(-1, 2, 2, 2, 2)
    spec = "ij,njbic->nbc" if measured_side == "A" else "ij,najci->nac"
    mats = [np.einsum(spec, sigma, r) for sigma in PAULIS]
    return _CrossMoments(
        other[:, 0, 0, None].real,
        other[:, 1, 1, None].real,
        other[:, 0, 1, None],
        tuple(m[:, 0, 0, None].real for m in mats),
        tuple(m[:, 1, 1, None].real for m in mats),
        tuple(m[:, 0, 1, None] for m in mats),
    )


def _neg_xlog2x(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, -x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _avg_branch_entropy_grid(mom: _CrossMoments, nx, ny, nz) -> np.ndarray:
    """Average branch entropy at every direction of the (broadcast) arrays nx, ny, nz."""
    g00 = nx * mom.r00[0] + ny * mom.r00[1] + nz * mom.r00[2]
    g11 = nx * mom.r11[0] + ny * mom.r11[1] + nz * mom.r11[2]
    g01 = nx * mom.r01[0] + ny * mom.r01[1] + nz * mom.r01[2]
    total = np.zeros_like(g00)
    for sign in (1.0, -1.0):
        m00 = 0.5 * (mom.b00 + sign * g00)
        m11 = 0.5 * (mom.b11 + sign * g11)
        m01 = 0.5 * (mom.b01 + sign * g01)
        t = m00 + m11
        disc = np.sqrt((m00 - m11) ** 2 + 4.0 * np.abs(m01) ** 2)
        lam1 = np.maximum(0.5 * (t + disc), 0.0)
        lam2 = np.maximum(0.5 * (t - disc), 0.0)
        contrib = _neg_xlog2x(lam1) + _neg_xlog2x(lam2) - _neg_xlog2x(t)
        total += np.where(t > POSTSELECT_MIN_PROB, contrib, 0.0)
    return total


def _avg_branch_entropy_at(mom: _CrossMoments, theta: float, phi: float) -> float:
    st = math.sin(theta)
    nx = st * math.cos(phi)
    ny = st * math.sin(phi)
    nz = math.cos(theta)
    g00 = nx * mom.r00[0] + ny * mom.r00[1] + nz * mom.r00[2]
    g11 = nx * mom.r11[0] + ny * mom.r11[1] + nz * mom.r11[2]
    g01 = nx * mom.r01[0] + ny * mom.r01[1] + nz * mom.r01[2]
    total = 0.0
    for sign in (1.0, -1.0):
        m00 = 0.5 * (mom.b00 + sign * g00)
        m11 = 0.5 * (mom.b11 + sign * g11)
        m01 = 0.5 * (mom.b01 + sign * g01)
        t = m00 + m11
        if t <= POSTSELECT_MIN_PROB:
            continue
        disc = math.hypot(m00 - m11, 2.0 * abs(m01))
        for lam in (0.5 * (t + disc), 0.5 * (t - disc)):
            if lam > 0.0:
                total -= lam * math.log2(lam)
        total += t * math.log2(t)
    return total


def _golden_section(f, lo: float, hi: float) -> tuple[float, float]:
    """Deterministic golden-section minimum of f on [lo, hi]."""
    if hi - lo <= _ANGLE_TOL:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    span = hi - lo
    c = hi - _GOLDEN_RATIO_CONJ * span
    d = lo + _GOLDEN_RATIO_CONJ * span
    fc, fd = f(c), f(d)
    while span > _ANGLE_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            span = hi - lo
            c = hi - _GOLDEN_RATIO_CONJ * span
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            span = hi - lo
            d = lo + _GOLDEN_RATIO_CONJ * span
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _x_state_azimuth(mom: _CrossMoments) -> float:
    """phi in [0, pi) maximizing the X-state branch coherence |cos(phi) a + sin(phi) b|.

    That modulus squared is the quadratic form of (cos phi, sin phi) with the
    real Gram matrix Re[[|a|^2, a b*], [a* b, |b|^2]], so phi is the angle of
    its top eigenvector; complex a and b need no prior phase rotation.
    """
    a, b = mom.r01[0], mom.r01[1]
    gram_xy = (a * b.conjugate()).real
    phi = 0.5 * math.atan2(2.0 * gram_xy, abs(a) ** 2 - abs(b) ** 2)
    return phi + math.pi if phi < 0.0 else phi


def _minimize_x_states(mom: _CrossMoments) -> list[tuple[float, float, float]]:
    """Exact one-parameter minimum of each X state of a stack: (value, theta, phi).

    The theta grid is one (N, 91) array, elementwise as for one state; the
    refinement stays scalar ``math`` per row, since ``np.hypot`` and ``np.log2``
    can differ from ``math`` in the last bit.
    """
    rows = mom.rows()
    phis = [_x_state_azimuth(m) for m in rows]
    cos_phi = np.array([math.cos(phi) for phi in phis])[:, None]
    sin_phi = np.array([math.sin(phi) for phi in phis])[:, None]
    values = _avg_branch_entropy_grid(mom, _X_SIN_T * cos_phi, _X_SIN_T * sin_phi, _X_COS_T)
    out = []
    for m, phi, start in zip(rows, phis, _X_THETAS[np.argmin(values, axis=1)].tolist()):
        refined, _ = _golden_section(
            lambda t: _avg_branch_entropy_at(m, t, phi),
            start - _GRID_STEP,
            start + _GRID_STEP,
        )
        # the endpoints (z and equatorial measurements) are evaluated exactly
        value, theta = min(
            (_avg_branch_entropy_at(m, t, phi), t) for t in (0.0, 0.5 * math.pi, refined)
        )
        out.append((value, theta, phi))
    return out


def _minimize_dense(mom: _CrossMoments) -> tuple[float, float, float]:
    """Grid plus coordinate golden-section minimum for one state: (value, theta, phi)."""
    thetas, phis, *directions = _dense_grid()
    grid = _avg_branch_entropy_grid(mom, *directions)
    flat = int(np.argmin(grid))  # first minimum: smallest theta, then smallest phi
    ti, pj = divmod(flat, grid.shape[1])
    theta = float(thetas[ti])
    phi = float(phis[pj])
    value = float(grid[ti, pj])
    [mom] = mom.rows()
    # the trig parametrization is valid and smooth for any real angles, so the
    # refinement brackets are left unclipped (crucial when the optimum sits
    # across the phi seam or a pole).
    # A round moves each angle by at most one grid step, and in a flat valley
    # the optimum can lie several steps away, so rounds repeat until one stalls.
    for _ in range(_DENSE_MAX_ROUNDS):
        start = value
        x, fx = _golden_section(
            lambda t: _avg_branch_entropy_at(mom, t, phi),
            theta - _GRID_STEP,
            theta + _GRID_STEP,
        )
        if fx < value:
            theta, value = x, fx
        x, fx = _golden_section(
            lambda p: _avg_branch_entropy_at(mom, theta, p),
            phi - _GRID_STEP,
            phi + _GRID_STEP,
        )
        if fx < value:
            phi, value = x, fx
        if value == start:
            break
    return value, theta, phi


def stacked_measurement_minima(states: np.ndarray, measured_side: str) -> list[float]:
    """The minimum average branch entropy of each X state of an (N, 4, 4) stack
    whose rows pass ``stacked_density_spectra``, ``_GRID_ROWS`` rows at a time."""
    chunks = (states[i:i + _GRID_ROWS] for i in range(0, len(states), _GRID_ROWS))
    return [v for c in chunks for v, _, _ in _minimize_x_states(_cross_moments(c, measured_side))]


def _minimize_avg_branch_entropy(rho: np.ndarray, measured_side: str) -> float:
    if is_x_patterned(rho):
        return stacked_measurement_minima(rho[None], measured_side)[0]
    value, _, _ = _minimize_dense(_cross_moments(rho[None], measured_side))
    return value


def min_conditional_entropy_over_measurements(rho, measured_side: str = "B") -> float:
    """Minimum over projective measurements of the average entropy left on the
    unmeasured qubit."""
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    return _minimize_avg_branch_entropy(rho, measured_side)


def classical_correlation(rho, measured_side: str = "A") -> float:
    """Max over measurements of S(rho_other) - sum_i p_i S(rho_other | i)."""
    rho = validate_density(rho)
    if rho.shape != (4, 4):
        raise ValueError("not a two-qubit state")
    other = partial_trace(rho, _other_side(measured_side))
    return von_neumann_entropy(other) - _minimize_avg_branch_entropy(rho, measured_side)


def discord_from(mutual: float, classical: float) -> float:
    """Mutual information minus classical correlation, floored at zero."""
    return max(0.0, mutual - classical)


def quantum_discord(rho, measured_side: str = "A") -> float:
    """Discord of rho with the measurement on ``measured_side``."""
    return discord_from(mutual_information(rho), classical_correlation(rho, measured_side))


def discord_xstate_closed(x: XState) -> float:
    """Fast closed-form discord of an X state (measurement on the memory qubit).

    Takes the better of the optimal equatorial measurement and the z
    measurement; this covers the X-state family except for a small parameter
    region where a tilted measurement wins, so the sweep-based
    ``quantum_discord`` stays the ground truth.
    """
    pops = x.populations()
    gamma = 0.5 * (
        1.0
        + math.sqrt(
            (1.0 - 2.0 * (x.d33 + x.d44)) ** 2
            + 4.0 * (abs(x.a14) + abs(x.a23)) ** 2
        )
    )
    p1 = binary_entropy(min(gamma, 1.0))
    p2 = sum(-p * math.log2(p) for p in pops if p > 0.0) - binary_entropy(
        x.d11 + x.d33
    )
    s_memory = binary_entropy(x.d11 + x.d33)
    s_joint = von_neumann_entropy(x.to_matrix())
    return min(p1, p2) + s_memory - s_joint
