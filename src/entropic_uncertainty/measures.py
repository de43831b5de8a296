"""Entropies and correlation measures for two-qubit states with a memory qubit.

All entropies are in bits (base-2 logarithms).  Measurement-optimized
quantities (classical correlation, discord, minimal conditional entropy)
restrict the optimization to rank-1 projective measurements parametrized by a
Bloch direction (theta, phi).

The optimizer takes X states only (every state this package produces; local AD and BPF
noise keep the X shape) and refuses any other state.  It reads six entry sums of each
(``_x_moments``); an entry off the X pattern, at most ``X_PATTERN_ATOL``, is not read.
There the search is exact and one-dimensional: the unmeasured qubit's branch diagonals
depend on theta only, and at fixed diagonals a branch's entropy falls as its coherence
rises, so phi is fixed in closed form as the azimuth of largest coherence.  theta is
then searched on [0, pi/2] (theta and pi - theta only swap the two outcomes) by a
1-degree grid whose ends are both endpoints exactly (the one-parameter minimization of
Huang, PRA 88, 014302 (2013)).  A golden-section refinement runs only for an interior
grid minimum, or where one probe half a step inside an endpoint minimum is lower: the
average branch entropy is even about theta = 0 and theta = pi/2, so both endpoints are
stationary.  One formula, ``_avg_branch_entropy_grid``, gives every value: a stack's
grids and probes, both outcome signs, as one (2, N, 93) array, and each refined row's on
Python numbers, so a state gets the same bits in a stack as on its own.  The optimizer
is deterministic.

The fixed-basis quantities take one of the two measurements of the uncertainty game,
``SIGMA_X`` or ``SIGMA_Z``, each built once at import (``_Basis``).  Each outcome leaves
one unnormalized branch (``_branches``): dephasing is their sum, and the Holevo quantity
reads each branch's memory (all of a stack's, both bases', as one entropy stack).  A
branch multiplies by a 0/1 mask when the projectors are 0/1-diagonal (sigma_z: dephased by
the summed mask in 0.6 us a state), else sandwiches the state (sigma_x, with cos(pi/2) =
6.1e-17 in its direction), all outcomes of a stack in a few flat BLAS products
(``linalg._sandwiches``: 22 us for 101 rows against 105 us for one 4x4 product per
matrix, one CPU of a 2-core Xeon).

Side conventions: the fixed-basis quantities measure qubit A (the qubit exposed
to noise) with qubit B as the memory.  Only the optimizer takes a side:
``classical_correlation`` and ``quantum_discord`` measure A by default, while
``min_conditional_entropy_over_measurements`` defaults to measuring the memory
qubit B and averaging the entropy of the unmeasured qubit A.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    POSTSELECT_MIN_PROB,
    PSD_ATOL,
    TRACE_ATOL,
    _entries,
    _on_qubit_a,
    _ordered_sum,
    _sandwiches,
    _spectrum,
    as_matrix,
    is_x_patterned,
    partial_trace,
    stacked_density_spectra,
    stacked_partial_trace,
    validate_two_qubit,
)

_GOLDEN_RATIO_CONJ = (math.sqrt(5.0) - 1.0) / 2.0
_ANGLE_TOL = 1e-10
_GRID_STEP = math.pi / 180.0
# X-state path: theta in [0, pi/2] at the closed-form optimal phi.  Columns 0..90 are the
# 1-degree grid (``linspace`` ends exactly on both endpoints), 91 and 92 the endpoint
# guard's probes half a step inside them.
_X_THETAS = np.append(np.linspace(0.0, 0.5 * math.pi, 91),
                      [0.5 * _GRID_STEP, 0.5 * math.pi - 0.5 * _GRID_STEP])
_X_SIN_T = np.sin(_X_THETAS)
_X_COS_T = np.cos(_X_THETAS)
# Rows per theta grid: at 32 rows its live temporaries, both outcome signs, peak at 0.52 MB.
_GRID_ROWS = 32
_X_ENDS = [0, 90, 91, 92]  # the grid's endpoint columns, then the guard's probes
_LOOKAHEAD = 5  # golden-section steps per objective call
_OUTCOME_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)  # (I +/- n.sigma) / 2 on a 2-D grid


def _other_side(side: str) -> str:
    if side == "A":
        return "B"
    if side == "B":
        return "A"
    raise ValueError(f"unknown subsystem tag {side!r} (expected 'A' or 'B')")


def binary_entropy(q: float) -> float:
    """Entropy in bits of a (q, 1 - q) distribution."""
    if not -PSD_ATOL <= q <= 1.0 + PSD_ATOL:  # NaN fails both comparisons
        raise ValueError(f"probability {q!r} outside [0, 1]")
    q = min(max(q, 0.0), 1.0)
    out = 0.0
    for x in (q, 1.0 - q):
        if x > 0.0:
            out -= x * math.log2(x)
    return out


def _probabilities(p: list[float]) -> list[float]:
    """A clamped spectrum (``linalg._spectrum``, or ``linalg._clamped`` eigenvalues), whose
    sum must be 1."""
    total = _ordered_sum(p)
    if abs(total - 1.0) > TRACE_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p


def _entropies(spectra: list[list[float]]) -> list[float]:
    """The entropy of each ``_probabilities`` list, with every logarithm from one ``np.log2``
    call (``math.log2`` differs in the last bit; ``np.log2`` does not depend on position) and
    the products and sums on Python floats, bitwise as ``stacked_von_neumann_entropy``."""
    logs = iter(np.log2([x if x > 0.0 else 1.0 for p in spectra for x in p]).tolist())
    return [-_ordered_sum([x * next(logs) for x in p]) for p in spectra]


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density matrix's spectrum, whose clamped trace must stay 1."""
    return _entropies([_probabilities(_spectrum(_entries(as_matrix(rho))))])[0]


def _stacked_entropies(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entropy of each row of clamped spectra (``linalg._sorted_rows``, clipped), bitwise as
    ``_entropies``, and which rows sum to 1: a zero eigenvalue adds 0.0 to the sum."""
    ok = np.abs(p.sum(axis=1) - 1.0) <= TRACE_ATOL
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1), ok


def stacked_von_neumann_entropy(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``von_neumann_entropy`` of each matrix of an (N, 2, 2) or (N, 4, 4) stack, and which
    rows pass its checks, bitwise as the dense one."""
    p, ok = stacked_density_spectra(m)
    entropy, summed = _stacked_entropies(p)
    return entropy, ok & summed


class _Basis:
    """The measurement of qubit A along the Bloch direction n = (nx, ny, nz): its two
    projectors (I +/- n.sigma) / 2, and ``embedded``, both on qubit A (P (x) I) as a
    (2, 4, 4) array, built once.

    When both embedded projectors are 0/1-diagonal, as sigma_z's are exactly, outcome x
    keeps entry (i, j) of a state iff ``branch_masks[x, i, j]`` is 1, the projector
    sandwich's numbers (up to the sign of an exact zero) without its matmuls; their sum is
    ``dephasing_mask``.  Else both are None.
    """

    def __init__(self, direction: tuple[float, float, float]):
        nx, ny, nz = direction
        spin = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
        self.projectors = (0.5 * (I2 + spin), 0.5 * (I2 - spin))
        self.embedded = _on_qubit_a(np.array(self.projectors))
        self.branch_masks = self.dephasing_mask = None
        diagonals = np.diagonal(self.embedded, axis1=1, axis2=2)
        if (np.isin(diagonals, (0.0, 1.0)).all()
                and (self.embedded == diagonals[:, :, None] * np.eye(4)).all()):
            self.branch_masks = diagonals[:, :, None] * diagonals[:, None, :]
            self.dephasing_mask = self.branch_masks[0] + self.branch_masks[1]


# The measured pair of the uncertainty game.  sigma_x is the direction (theta, phi) =
# (pi/2, 0), so its z component is cos(pi/2) = 6.1e-17, not 0: its projectors' diagonals
# are 0.5 and 0.5 - 2**-54, bits that the sigma_x Holevo quantity and post-measurement
# state carry; u reads sigma_x's exact blocks (``bounds._measured_blocks``) instead.
SIGMA_X = _Basis((1.0, 0.0, math.cos(math.pi / 2)))
SIGMA_Z = _Basis((0.0, 0.0, 1.0))


def _branches(states: np.ndarray, basis: _Basis, summed: bool = False):
    """The unnormalized state (P_x)_A rho (P_x)_A that each outcome x of ``basis`` leaves,
    of one state or of an (N, 4, 4) stack, or their sum, the dephased state, if ``summed``
    (adding them to 0 one by one would make an exact zero's sign positive): by
    ``branch_masks`` (summed: ``dephasing_mask``) where the basis has them, else by the
    projector sandwich.  Unguarded: a non-finite entry warns."""
    if basis.branch_masks is not None:
        return states * basis.dephasing_mask if summed else [states * m for m in basis.branch_masks]
    terms = _sandwiches(basis.embedded, states)
    return terms[0] + terms[1] if summed else terms


def post_measurement_state(rho, basis: _Basis) -> np.ndarray:
    """Dephased state sum_x (P_x)_A rho (P_x)_A after measuring qubit A."""
    return _branches(validate_two_qubit(rho), basis, summed=True)


def conditional_entropy_after_measurement(rho, basis: _Basis) -> float:
    """S(measured A | B) = S(post-measurement state) - S(rho_B); measuring A leaves rho_B."""
    joint = von_neumann_entropy(post_measurement_state(rho, basis))
    return joint - von_neumann_entropy(partial_trace(rho, "B"))


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


def _branch_memories(states: np.ndarray, bases):
    """Every outcome of each of ``bases`` on qubit A, basis by basis, for each state of the
    (N, 4, 4) stack, as one stack of 2 len(bases) N branches: each one's probability, whether
    it is kept (above ``POSTSELECT_MIN_PROB``) and the memory it leaves.  Unguarded."""
    branches = np.concatenate([b for basis in bases for b in _branches(states, basis)])
    prob = np.trace(branches, axis1=1, axis2=2).real
    kept = prob > POSTSELECT_MIN_PROB
    memory = stacked_partial_trace(branches, "B") / np.where(kept, prob, 1.0)[:, None, None]
    return prob, kept, memory


def stacked_holevo(states: np.ndarray, bases, s_memory: np.ndarray):
    """``holevo_quantity`` of each state of an (N, 4, 4) stack with memory entropies
    ``s_memory``, one column per basis of ``bases``, and which rows pass every kept branch's
    checks; all branch memories are one entropy stack, bitwise as one basis's alone."""
    n = len(states)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row fails its own check
        prob, kept, memory = _branch_memories(states, bases)
        entropy, good = stacked_von_neumann_entropy(memory)
        lost = np.where(kept, prob * entropy, 0.0).reshape(len(bases), 2, n)
        totals = [s_memory - outcomes[0] - outcomes[1] for outcomes in lost]
    return totals, (good | ~kept).reshape(2 * len(bases), n).all(axis=0)


def holevo_quantity(rho, basis: _Basis) -> float:
    """Accessible-information bound S(rho_B) - sum_i p_i S(rho_B | outcome i of A)."""
    states = validate_two_qubit(rho)[None]
    s_memory = von_neumann_entropy(partial_trace(states[0], "B"))
    [total], ok = stacked_holevo(states, (basis,), s_memory)
    if not ok[0]:  # the first kept branch memory that fails raises its own error
        _, kept, memory = _branch_memories(states, (basis,))
        for m in memory[kept]:
            von_neumann_entropy(m)
    return float(total[0])


class _XMoments(NamedTuple):
    """Measuring an X state along n with projectors (I +/- n.sigma)/2 leaves the other
    qubit in [[b00 +/- nz z0, +/- c], [+/- c*, b11 +/- nz z1]] / 2, c = nx cx + ny cy: its
    populations, their sigma_z-weighted parts and its sigma_x- and sigma_y-weighted
    coherences; every other moment of an X state is an exact zero.  A stack's moments are
    (N, 1) columns that broadcast against a grid of directions; ``row`` gives one state's
    as Python numbers for its refinement."""

    b00: np.ndarray
    b11: np.ndarray
    z0: np.ndarray
    z1: np.ndarray
    cx: np.ndarray
    cy: np.ndarray

    def row(self, i: int) -> _XMoments:
        return _XMoments(*(c[i, 0].item() for c in self))


# Per unmeasured qubit: the diagonal pairs behind its two populations, and rho_03's partner.
_X_ENTRIES = {"B": ((0, 2), (1, 3), (2, 1)), "A": ((0, 1), (2, 3), (1, 2))}


def _x_moments(states: np.ndarray, measured_side: str) -> _XMoments:
    """The moments of each X state of an (N, 4, 4) stack; entries off the X pattern are not read."""
    (i, j), (k, m), (r, c) = _X_ENTRIES[_other_side(measured_side)]
    d = np.diagonal(states, axis1=1, axis2=2).real[:, :, None]
    flip, corner = states[:, r, c, None], states[:, 0, 3, None]
    return _XMoments(d[:, i] + d[:, j], d[:, k] + d[:, m], d[:, i] - d[:, j], d[:, k] - d[:, m],
                     flip + corner, 1j * (corner - flip))


def _neg_xlog2x(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, -x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _avg_branch_entropy_grid(mom: _XMoments, nx, ny, nz) -> np.ndarray:
    """Average branch entropy at every direction of the 2-D (broadcast) arrays nx, ny, nz;
    both outcome signs in one pass, each element's operations and sum as one sign's alone."""
    m00 = 0.5 * (mom.b00 + _OUTCOME_SIGNS * (nz * mom.z0))
    m11 = 0.5 * (mom.b11 + _OUTCOME_SIGNS * (nz * mom.z1))
    m01 = 0.5 * (nx * mom.cx + ny * mom.cy)  # both signs' coherence, up to a sign |m01| drops
    t = m00 + m11
    disc = np.sqrt((m00 - m11) ** 2 + 4.0 * np.abs(m01) ** 2)
    lam1 = np.maximum(0.5 * (t + disc), 0.0)
    lam2 = np.maximum(0.5 * (t - disc), 0.0)
    contrib = _neg_xlog2x(lam1) + _neg_xlog2x(lam2) - _neg_xlog2x(t)
    kept = np.where(t > POSTSELECT_MIN_PROB, contrib, 0.0)
    total = np.zeros(kept.shape[1:]) + kept[0]  # from zeros, as one sign at a time: -0.0 gives 0.0
    total += kept[1]
    return total


def _probes(lo: float, c: float, d: float, hi: float, steps: int) -> list[float]:
    """Every probe the next ``steps`` golden-section steps from the bracket lo < c < d < hi
    could add, whichever side each step keeps."""
    if steps == 0 or hi - lo <= _ANGLE_TOL:
        return []
    c_left = d - _GOLDEN_RATIO_CONJ * (d - lo)  # f(c) < f(d) keeps [lo, d]
    d_right = c + _GOLDEN_RATIO_CONJ * (hi - c)  # else [c, hi]
    return ([c_left, *_probes(lo, c_left, c, d, steps - 1)]
            + [d_right, *_probes(c, d, d_right, hi, steps - 1)])


def _golden_section(f, lo: float, hi: float) -> tuple[float, float]:
    """Deterministic golden-section minimum on [lo, hi], wider than ``_ANGLE_TOL``, of f,
    which maps a list of angles to their values.  A probe without a value is evaluated with
    every probe the next ``_LOOKAHEAD`` - 1 steps could add: one call of f per about five
    steps, with the angles, comparisons and values of one probe at a time."""
    c = hi - _GOLDEN_RATIO_CONJ * (hi - lo)
    d = lo + _GOLDEN_RATIO_CONJ * (hi - lo)
    values = {}
    while True:
        missing = [t for t in (c, d) if t not in values]
        if missing:
            angles = missing + _probes(lo, c, d, hi, _LOOKAHEAD - 1)
            values.update(zip(angles, f(angles)))
        fc, fd = values[c], values[d]
        if hi - lo <= _ANGLE_TOL:
            return (c, fc) if fc < fd else (d, fd)
        if fc < fd:
            c, d, hi = d - _GOLDEN_RATIO_CONJ * (d - lo), c, d
        else:
            lo, c, d = c, d, c + _GOLDEN_RATIO_CONJ * (hi - c)


def _x_state_azimuths(mom: _XMoments) -> list[float]:
    """phi in [0, pi) maximizing the X-state branch coherence |cos(phi) a + sin(phi) b| of
    each row.

    That modulus squared is the quadratic form of (cos phi, sin phi) with the
    real Gram matrix Re[[|a|^2, a b*], [a* b, |b|^2]], so phi is the angle of
    its top eigenvector; complex a and b need no prior phase rotation.
    """
    phis = []
    for a, b in zip(mom.cx[:, 0].tolist(), mom.cy[:, 0].tolist()):
        phi = 0.5 * math.atan2(2.0 * (a * b.conjugate()).real, abs(a) ** 2 - abs(b) ** 2)
        phis.append(phi + math.pi if phi < 0.0 else phi)
    return phis


def _minimize_x_states(mom: _XMoments) -> list[tuple[float, float, float]]:
    """Exact one-parameter minimum of each X state of a stack: (value, theta, phi).

    The theta grid and the two probes are one (N, 93) array, elementwise as for one
    state; only the argmin of columns 0..90 and columns 0, 90, 91 and 92 leave it.  A row
    whose grid minimum is at an endpoint takes the smaller endpoint value, unless the
    guard's probe half a step inside is lower than that endpoint's; only then, or for an
    interior minimum, does the golden section refine it, by the same formula on the row's
    Python numbers (``_XMoments.row``).  The guard misses a minimum closer than about
    0.35 degrees to an endpoint.
    """
    phis = _x_state_azimuths(mom)
    cos_phi = np.array([math.cos(phi) for phi in phis])[:, None]
    sin_phi = np.array([math.sin(phi) for phi in phis])[:, None]
    values = _avg_branch_entropy_grid(mom, _X_SIN_T * cos_phi, _X_SIN_T * sin_phi, _X_COS_T)
    grid_argmin = np.argmin(values[:, :91], axis=1).tolist()
    out = []
    for r, (phi, row, i) in enumerate(zip(phis, values[:, _X_ENDS].tolist(), grid_argmin)):
        ends = [(row[0], 0.0), (row[1], 0.5 * math.pi)]  # the z and equatorial measurements
        if i in (0, 90):  # stationary there: refine only if the probe half a step inside is lower
            if row[2 + i // 90] >= row[i // 90]:
                out.append((*min(ends), phi))
                continue
        start = float(_X_THETAS[i])
        m, c, s = mom.row(r), math.cos(phi), math.sin(phi)

        def f(thetas):  # the row's values at a list of angles
            sin_t = np.array([math.sin(t) for t in thetas])
            cos_t = np.array([math.cos(t) for t in thetas])
            return _avg_branch_entropy_grid(m, sin_t * c, sin_t * s, cos_t)[0].tolist()

        refined, at_refined = _golden_section(f, start - _GRID_STEP, start + _GRID_STEP)
        value, theta = min(*ends, (at_refined, refined))
        out.append((value, theta, phi))
    return out


def stacked_measurement_minima(states: np.ndarray, measured_side: str) -> list[float]:
    """The minimum average branch entropy of each X state of an (N, 4, 4) stack
    whose rows pass ``stacked_density_spectra``, ``_GRID_ROWS`` rows at a time."""
    chunks = (states[i:i + _GRID_ROWS] for i in range(0, len(states), _GRID_ROWS))
    return [v for c in chunks for v, _, _ in _minimize_x_states(_x_moments(c, measured_side))]


def _minimize_avg_branch_entropy(rho: np.ndarray, measured_side: str) -> float:
    if not is_x_patterned(rho):
        raise ValueError("the measurement optimizer takes X-shaped states only")
    return stacked_measurement_minima(rho[None], measured_side)[0]


def min_conditional_entropy_over_measurements(rho, measured_side: str = "B") -> float:
    """Minimum over projective measurements of the average entropy left on the
    unmeasured qubit."""
    return _minimize_avg_branch_entropy(validate_two_qubit(rho), measured_side)


def classical_correlation(rho, measured_side: str = "A") -> float:
    """Max over measurements of S(rho_other) - sum_i p_i S(rho_other | i)."""
    rho = validate_two_qubit(rho)
    other = partial_trace(rho, _other_side(measured_side))
    return von_neumann_entropy(other) - _minimize_avg_branch_entropy(rho, measured_side)


def _positive_part(x):
    """max(0, x) of a number, or of each entry of a column."""
    return np.maximum(0.0, x) if isinstance(x, np.ndarray) else max(0.0, x)


def discord_from(mutual, classical):
    """Mutual information minus classical correlation, floored at zero (numbers or columns)."""
    return _positive_part(mutual - classical)


def quantum_discord(rho, measured_side: str = "A") -> float:
    """Discord of rho with the measurement on ``measured_side``."""
    return discord_from(mutual_information(rho), classical_correlation(rho, measured_side))


def discord_xstate_closed(rho: np.ndarray, s_ab: float) -> float:
    """Fast closed-form discord of a checked X-shaped (4, 4) state, measured on the memory
    qubit, given the state's own entropy ``s_ab`` = S(rho) (errata reads it from its grid).

    Takes the better of the optimal equatorial measurement and the z
    measurement; this covers the X-state family except for a small parameter
    region where a tilted measurement wins, so the sweep-based
    ``quantum_discord`` stays the ground truth.  The formulas read only the
    diagonal's real parts and the coherences (0, 3) and (1, 2); the moduli are
    Python's complex ``abs`` (``np.abs`` can differ in the last bit).
    """
    e = rho.tolist()
    pops = [e[i][i].real for i in range(4)]
    d11, _, d33, d44 = pops
    gamma = 0.5 * (
        1.0
        + math.sqrt(
            (1.0 - 2.0 * (d33 + d44)) ** 2
            + 4.0 * (abs(e[0][3]) + abs(e[1][2])) ** 2
        )
    )
    p1 = binary_entropy(min(gamma, 1.0))
    s_memory = binary_entropy(d11 + d33)
    p2 = sum(-p * math.log2(p) for p in pops if p > 0.0) - s_memory
    return min(p1, p2) + s_memory - s_ab
