"""Measurement-uncertainty left-hand side, its three lower bounds, and the
published closed-form expressions kept as cross-checks.

The setup is the quantum-memory game of Berta et al. (Nature Phys. 6, 659
(2010)): qubit A is measured in sigma_x and sigma_z (``BASES``, whose
complementarity ``C`` is 1/2) and qubit B is the quantum memory.  Every formula
and every stack here uses that one setup.

``PointQuantities`` is the one definition of the Pati and Adabi bounds, of
discord, of the channel capacity and of the entropic witness, as the sweep,
``bound_report`` and ``channel_capacity`` see them.  One state pays for each
quantity (mutual information, the measurement optimizer, each Holevo quantity)
at most once.  ``_stacked_values`` fills in the entropy-only values and the
optimizer minima for a whole X-state stack at once, as columns of one
``PointQuantities``, bitwise as each state alone would compute them; the same
formulas derive the rest, a value or a column alike.  ``uncertainty_lhs``
stays a per-point chain of scalar spectra for point-at-a-time callers (the
witness bisection): it checks the state once, then takes each basis's two
entropies, five spectra for an X state.  ``_stacked_u`` is its stack, with
both bases' dephased states in one (2N, 4, 4) stack.

The numerical pipeline (build state, evolve, measure, take entropies) is the
ground truth everywhere.  The closed-form evolved spectra are exact and used
directly in tests; the closed-form uncertainty expressions are transcriptions
with known defects, so they are only ever *compared* against the pipeline and
their gaps reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import BOUND_ORDER_ATOL, partial_trace, stacked_partial_trace, validate_two_qubit
from .measures import (
    ProjectiveBasis,
    _entropy_after_measurement,
    _positive_part,
    binary_entropy,
    classical_correlation,
    discord_from,
    holevo_quantity,
    min_conditional_entropy_over_measurements,
    mutual_information,
    quantum_conditional_entropy,
    sigma_x_basis,
    sigma_z_basis,
    stacked_holevo,
    stacked_measurement_minima,
    stacked_post_measurement_state,
    stacked_von_neumann_entropy,
    von_neumann_entropy,
)
from .states import BellDiagonalCoeffs

CAPACITY_IDENTITY_ATOL = 1e-10
_EDGE = 1.0 - 1e-12


def complementarity_c(b1: ProjectiveBasis, b2: ProjectiveBasis) -> float:
    """Largest squared overlap max_{i,j} |<x_i|z_j>|^2 between two bases."""
    best = 0.0
    for p in b1.projectors:
        for q in b2.projectors:
            best = max(best, float(np.trace(p @ q).real))
    return min(max(best, 0.0), 1.0)


# The measured pair of the uncertainty game and its complementarity c = 1/2.
BASES = (sigma_x_basis(), sigma_z_basis())
C = complementarity_c(*BASES)


def uncertainty_lhs(rho) -> float:
    """S(sigma_x | B) + S(sigma_z | B), the measured uncertainty; rho is checked once."""
    rho = validate_two_qubit(rho)
    return _entropy_after_measurement(rho, BASES[0]) + _entropy_after_measurement(rho, BASES[1])


def berta_bound(rho) -> float:
    """log2(1/c) + S(rho) - S(rho_B)."""
    return math.log2(1.0 / C) + quantum_conditional_entropy(rho)


def witnessed(u):
    """The entropic witness U < log2(1/c) (scalars or arrays); equality does not witness."""
    return u < math.log2(1.0 / C) - BOUND_ORDER_ATOL


def capacity_bound_form(s_measured, berta):
    """S(rho_A) - Berta bound + log2(1/c), equal to the mutual information."""
    return s_measured - berta + math.log2(1.0 / C)


@dataclass(eq=False)
class PointQuantities:
    """Every quantity one state reports, each evaluated on first read only.

    Properties named after a module-level function (``mutual_information``,
    ``classical_correlation``) call that function.  The derived ones (``witness``,
    ``discord``, ``pati``, ``adabi``) take a number or a column alike, so a stack's
    ``PointQuantities`` from ``_stacked_values`` derives them for every row at once.
    """

    rho: np.ndarray

    @cached_property
    def mutual_information(self) -> float:
        return mutual_information(self.rho)

    @cached_property
    def classical_correlation(self) -> float:
        return classical_correlation(self.rho)

    @cached_property
    def u(self) -> float:
        return uncertainty_lhs(self.rho)

    @cached_property
    def witness(self) -> bool:
        return witnessed(self.u)

    @cached_property
    def berta(self) -> float:
        return berta_bound(self.rho)

    @cached_property
    def discord(self) -> float:
        return discord_from(self.mutual_information, self.classical_correlation)

    @cached_property
    def pati(self) -> float:
        """Berta bound plus max{0, discord - classical correlation}."""
        return self.berta + _positive_part(self.discord - self.classical_correlation)

    @cached_property
    def adabi(self) -> float:
        """Berta bound plus max{0, mutual information - both Holevo quantities}."""
        delta = self.mutual_information - self.holevo[0] - self.holevo[1]
        return self.berta + _positive_part(delta)

    @cached_property
    def holevo(self) -> tuple[float, float]:
        """The Holevo quantity of each basis."""
        return tuple(holevo_quantity(self.rho, b) for b in BASES)

    @cached_property
    def s_min(self) -> float:
        return min_conditional_entropy_over_measurements(self.rho)

    @cached_property
    def capacity(self) -> float:
        """The mutual information, cross-checked against ``capacity_bound_form``."""
        capacity = self.mutual_information
        s_measured = von_neumann_entropy(partial_trace(self.rho, "A"))
        bound_form = capacity_bound_form(s_measured, self.berta)
        if abs(capacity - bound_form) > CAPACITY_IDENTITY_ATOL:
            raise ArithmeticError(f"capacity forms disagree: {capacity!r} vs {bound_form!r}")
        return capacity


def _stacked_u(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``uncertainty_lhs`` of every state of the stack, and which rows pass its checks; both
    bases' dephased states are one (2N, 4, 4) stack, whose rows do not depend on position."""
    n = len(states)
    dephased = np.concatenate([stacked_post_measurement_state(states, b) for b in BASES])
    joint, good_joint = stacked_von_neumann_entropy(dephased)
    memory, good_memory = stacked_von_neumann_entropy(stacked_partial_trace(dephased, "B"))
    per_basis, ok = joint - memory, good_joint & good_memory
    return per_basis[:n] + per_basis[n:], ok[:n] & ok[n:]


def _stacked_values(states: np.ndarray, names: set[str]) -> tuple[PointQuantities, np.ndarray]:
    """The ``PointQuantities`` of the whole stack, whose values ``names`` are columns, bitwise
    as each state alone computes them, and which rows they hold for: X states that pass
    every check and the capacity identity.  Its formulas derive the rest from the columns."""
    q = PointQuantities(states)
    if not names:  # nothing to vouch for: each row's quantities are its dense ones
        return q, np.ones(len(states), dtype=bool)
    cols = vars(q)  # the columns stand in for the cached properties
    s_ab, ok = stacked_von_neumann_entropy(states)  # the state's checks and S(AB), one spectrum
    if "u" in names:
        cols["u"], good = _stacked_u(states)
        ok &= good
    if names & {"berta", "mutual_information", "classical_correlation", "holevo", "capacity"}:
        (s_a, good_a), (s_b, good_b) = (
            stacked_von_neumann_entropy(stacked_partial_trace(states, k)) for k in "AB")
        ok &= good_a & good_b
        cols["berta"] = math.log2(1.0 / C) + (s_ab - s_b)
        cols["mutual_information"] = mutual = s_a + s_b - s_ab
        if "holevo" in names:
            (h1, good_1), (h2, good_2) = (stacked_holevo(states, b, s_b) for b in BASES)
            ok &= good_1 & good_2
            cols["holevo"] = (h1, h2)
        if "capacity" in names:
            bound_form = capacity_bound_form(s_a, cols["berta"])
            ok &= np.abs(mutual - bound_form) <= CAPACITY_IDENTITY_ATOL
            cols["capacity"] = mutual
    rows = np.flatnonzero(ok)  # the optimizer runs on X states that passed every check
    if "classical_correlation" in names:
        minima = stacked_measurement_minima(states[rows], "A")
        cols["classical_correlation"] = np.zeros(len(states))
        cols["classical_correlation"][rows] = s_b[rows] - minima
    if "s_min" in names:
        cols["s_min"] = np.zeros(len(states))
        cols["s_min"][rows] = stacked_measurement_minima(states[rows], "B")
    return q, ok


@dataclass(frozen=True)
class BoundReport:
    """Everything a sweep point reports: uncertainty, bounds, gaps, correlations."""

    u_lhs: float
    berta: float
    pati: float
    adabi: float
    tightness_berta: float
    tightness_pati: float
    tightness_adabi: float
    discord: float
    s_min_cond: float
    complementarity_c: float

    def __post_init__(self):
        pairs = (
            ("berta", self.berta, "pati", self.pati),
            ("pati", self.pati, "adabi", self.adabi),
            ("adabi", self.adabi, "u_lhs", self.u_lhs),
        )
        for lo_name, lo, hi_name, hi in pairs:
            if lo > hi + BOUND_ORDER_ATOL:
                raise ValueError(
                    f"bound ordering violated: {lo_name} = {lo!r} > {hi_name} = {hi!r}"
                )


def bound_report(rho) -> BoundReport:
    """Evaluate the uncertainty, all three bounds and the correlation measures."""
    q = PointQuantities(validate_two_qubit(rho))
    return BoundReport(
        u_lhs=q.u,
        berta=q.berta,
        pati=q.pati,
        adabi=q.adabi,
        tightness_berta=q.u - q.berta,
        tightness_pati=q.u - q.pati,
        tightness_adabi=q.u - q.adabi,
        discord=q.discord,
        s_min_cond=q.s_min,
        complementarity_c=C,
    )


# --- published closed forms, kept verbatim as cross-checks -------------------


def ad_closed_form_spectrum(coeffs: BellDiagonalCoeffs, d: float) -> np.ndarray:
    """Printed eigenvalues of the damping-evolved state (exact), descending."""
    c1, c2, c3 = coeffs.as_tuple()
    rad_plus = (
        c1 * c1
        + 2.0 * c1 * c2
        + c2 * c2
        - c1 * c1 * d
        - 2.0 * c1 * c2 * d
        - c2 * c2 * d
        + d * d
    )
    rad_minus = (
        c1 * c1
        - 2.0 * c1 * c2
        + c2 * c2
        - c1 * c1 * d
        + 2.0 * c1 * c2 * d
        - c2 * c2 * d
        + d * d
    )
    sq_plus = math.sqrt(max(rad_plus, 0.0))
    sq_minus = math.sqrt(max(rad_minus, 0.0))
    vals = np.array(
        [
            (1.0 - c3 + c3 * d - sq_plus) / 4.0,
            (1.0 - c3 + c3 * d + sq_plus) / 4.0,
            (1.0 + c3 - c3 * d - sq_minus) / 4.0,
            (1.0 + c3 - c3 * d + sq_minus) / 4.0,
        ]
    )
    return np.sort(vals)[::-1]


def bpf_closed_form_spectrum(coeffs: BellDiagonalCoeffs, p: float) -> np.ndarray:
    """Printed eigenvalues of the flip-evolved state (exact), descending."""
    c1, c2, c3 = coeffs.as_tuple()
    vals = np.array(
        [
            (1.0 + c1 - c2 + c3 - 2.0 * c1 * p - 2.0 * c3 * p) / 4.0,
            (1.0 - c1 + c2 + c3 + 2.0 * c1 * p - 2.0 * c3 * p) / 4.0,
            (1.0 + c1 + c2 - c3 - 2.0 * c1 * p + 2.0 * c3 * p) / 4.0,
            (1.0 - c1 - c2 - c3 + 2.0 * c1 * p + 2.0 * c3 * p) / 4.0,
        ]
    )
    return np.sort(vals)[::-1]


def _one_minus_h(x: float) -> float:
    """x * arctanh2(x) + log2(1 - x^2) / 2, evaluated stably as 1 - h((1+x)/2)."""
    return 1.0 - binary_entropy((1.0 + x) / 2.0)


def ad_closed_form_u(coeffs: BellDiagonalCoeffs, d: float) -> float | None:
    """Printed closed form for the damping-channel uncertainty.

    Returns None where the expression leaves its domain or diverges (the
    printed formula has unpaired logarithms at the edges).  Known to disagree
    with the pipeline away from trivial points; use for gap reporting only.
    """
    c1, c2, c3 = coeffs.as_tuple()
    radicand = -(c1 - c2) * (c1 + c2) * (-1.0 + d)
    if radicand < 0.0:
        return None
    mu1 = math.sqrt(radicand)
    mu2 = c3 + d - c3 * d
    mu3 = c3 - c3 * d - d
    if mu1 >= _EDGE or mu2 <= -_EDGE or abs(mu3) >= _EDGE or abs(mu2) > 1.0:
        return None
    # grouped, divergence-free rearrangement of the printed terms
    g1 = 4.0 * _one_minus_h(mu1) - 2.0 * math.log2(1.0 - mu1)
    g2 = 2.0 * _one_minus_h(mu2) + 2.0 * math.log2(1.0 + mu2)
    g3 = -2.0 * _one_minus_h(mu3) + 2.0 * math.log2(1.0 - mu3 * mu3)
    return -0.25 * (g1 + g2 + g3)


def bpf_closed_forms(coeffs: BellDiagonalCoeffs, p: float) -> tuple[float, float]:
    """Printed closed forms (uncertainty, lower bound) for the flip channel.

    The bound expression reduces to the joint-state entropy and is exact; the
    uncertainty expression carries a sign defect and is reported, not trusted.
    """
    c1, c2, c3 = coeffs.as_tuple()
    nu1 = c1 - 2.0 * c1 * p
    nu2 = c3 - 2.0 * c3 * p
    u = 2.0 - binary_entropy((1.0 + nu1) / 2.0) - binary_entropy((1.0 + nu2) / 2.0)
    zetas = bpf_closed_form_spectrum(coeffs, p) * 4.0
    bound = 0.0
    for z in zetas:
        if z > 0.0:
            bound -= 0.25 * z * math.log2(z / 4.0)
    return u, bound
