"""Measurement-uncertainty left-hand side, its three lower bounds, and the
published closed-form expressions kept as cross-checks.

The setup is the quantum-memory game of Berta et al. (Nature Phys. 6, 659
(2010)): qubit A is measured in sigma_x and sigma_z (``BASES``, the two constants
``measures.SIGMA_X`` and ``SIGMA_Z``, whose complementarity ``C`` is 1/2) and qubit B is
the quantum memory.  Every formula and every stack here uses that one setup.

``PointQuantities`` is the one evaluator of one state and, through its private
``_stack``, of an X-state stack, for the sweep, ``errata_report``,
``bound_report``, ``berta_bound`` and ``channel_capacity``.  It holds each
formula once (the Berta, Pati and Adabi bounds, mutual information, which is the
capacity S(A) - U_b + log2(1/c), classical correlation, discord and the entropic
witness), over a number or a column alike, and computes each value a state pays for
on first read only, a stack's bitwise as each state alone.
Measuring A leaves the memory rho_B as it is: S(X|B) + S(Z|B) = S(rho_XB) + S(rho_ZB) -
2 S(rho_B).  ``uncertainty_lhs`` is a per-point chain for the witness bisection: one check of
the state, then the spectra of both dephased states and of rho_B as Python numbers, about
40 us a call against 195 us for a one-row stack's ``u`` (one CPU of a 2-core Xeon).
``_stacked_u`` is its stack, both bases' dephased states in one (2N, 4, 4), less the
block's ``s_b`` column, which the Berta bound and the Holevo quantities read too.

The numerical pipeline (build state, evolve, measure, take entropies) is the
ground truth everywhere.  ``eur errata`` evaluates the published closed forms kept
here: the exact BPF spectrum and the AD and BPF uncertainty transcriptions, whose
known defects keep them *compared* against the pipeline, never asserted.  The
exact AD spectrum is an oracle in the tests' ``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import BOUND_ORDER_ATOL, partial_trace, stacked_partial_trace, validate_two_qubit
from .measures import (
    SIGMA_X,
    SIGMA_Z,
    _Basis,
    _dephased,
    _measured_entropies,
    _positive_part,
    binary_entropy,
    discord_from,
    holevo_quantity,
    min_conditional_entropy_over_measurements,
    stacked_holevo,
    stacked_measurement_minima,
    stacked_von_neumann_entropy,
    von_neumann_entropy,
)
from .states import BellDiagonalCoeffs

_EDGE = 1.0 - 1e-12


def complementarity_c(b1: _Basis, b2: _Basis) -> float:
    """Largest squared overlap max_{i,j} |<x_i|z_j>|^2 between two bases."""
    best = 0.0
    for p in b1.projectors:
        for q in b2.projectors:
            best = max(best, float(np.trace(p @ q).real))
    return min(max(best, 0.0), 1.0)


# The measured pair of the uncertainty game and its complementarity c = 1/2.
BASES = (SIGMA_X, SIGMA_Z)
C = complementarity_c(*BASES)


def uncertainty_lhs(rho) -> float:
    """S(sigma_x | B) + S(sigma_z | B) = S(rho_XB) + S(rho_ZB) - 2 S(rho_B), the measured
    uncertainty, from one check of rho and three spectra (``measures._measured_entropies``)."""
    jx, jz, memory = _measured_entropies(validate_two_qubit(rho), BASES)
    return (jx - memory) + (jz - memory)


def berta_bound(rho) -> float:
    """log2(1/c) + S(rho) - S(rho_B) of one state."""
    return PointQuantities(rho).berta


def witnessed(u):
    """The entropic witness U < log2(1/c) (scalars or arrays); equality does not witness."""
    return u < math.log2(1.0 / C) - BOUND_ORDER_ATOL


@dataclass(eq=False)
class PointQuantities:
    """Every quantity of one state, or with ``_stack`` of each state of an (N, 4, 4) complex
    stack, each evaluated on first read only.

    A state pays for ``s_ab``, ``s_a`` and ``s_b`` (the entropies of the state and of each
    qubit), ``u``, ``holevo`` and the measurement minima ``min_a`` (measuring A) and
    ``s_min`` (measuring B).  For one state each calls its one-state function, which raises
    that state's error.  For a stack each runs its stacked kernel after the state's own check
    (``s_ab``: the S(AB) spectrum and the X pattern) and ANDs the kernel's row mask into
    ``ok``, the rows every value read so far holds for; the optimizer runs on those rows
    only.  Every other property is a formula over these values.
    """

    rho: np.ndarray
    stacked, ok = False, True

    @classmethod
    def _stack(cls, states: np.ndarray) -> PointQuantities:
        q = cls(states)
        q.stacked, q.ok = True, np.ones(len(states), dtype=bool)
        return q

    def _column(self, values, good):
        """A stack kernel's column, whose row mask ``good`` is ANDed into ``ok``."""
        self.ok &= good
        return values

    @cached_property
    def s_ab(self):
        if self.stacked:  # the state's own check: its S(AB) spectrum and X pattern
            return self._column(*stacked_von_neumann_entropy(self.rho))
        s_ab = von_neumann_entropy(self.rho)  # validate_two_qubit's checks, on this one spectrum
        if np.shape(self.rho) != (4, 4):
            raise ValueError("not a two-qubit state")
        return s_ab

    def _reduced_entropy(self, keep: str):
        if not self.stacked:
            return von_neumann_entropy(partial_trace(self.rho, keep))
        self.s_ab  # the state's own check first
        return self._column(*stacked_von_neumann_entropy(stacked_partial_trace(self.rho, keep)))

    s_a = cached_property(lambda self: self._reduced_entropy("A"))
    s_b = cached_property(lambda self: self._reduced_entropy("B"))

    @cached_property
    def u(self):
        if not self.stacked:
            return uncertainty_lhs(self.rho)
        return self._column(*_stacked_u(self.rho, self.s_b))  # s_b checks the state first

    @cached_property
    def holevo(self):
        """The Holevo quantity of each basis."""
        if not self.stacked:
            return tuple(holevo_quantity(self.rho, b) for b in BASES)
        return tuple(self._column(*stacked_holevo(self.rho, BASES, self.s_b)))

    def _minimum(self, measured_side: str):
        if not self.stacked:
            return min_conditional_entropy_over_measurements(self.rho, measured_side)
        self.s_ab  # the state's own check first
        minima = np.zeros(len(self.rho))
        minima[self.ok] = stacked_measurement_minima(self.rho[self.ok], measured_side)
        return minima

    min_a = cached_property(lambda self: self._minimum("A"))
    s_min = cached_property(lambda self: self._minimum("B"))

    @cached_property
    def berta(self):
        return math.log2(1.0 / C) + (self.s_ab - self.s_b)

    @cached_property
    def mutual_information(self):
        return self.s_a + self.s_b - self.s_ab

    @cached_property
    def classical_correlation(self):
        """Measuring A; ``min_a`` checks one whole state before ``s_b`` is read."""
        min_a = self.min_a
        return self.s_b - min_a

    @cached_property
    def witness(self):
        return witnessed(self.u)

    @cached_property
    def discord(self):
        return discord_from(self.mutual_information, self.classical_correlation)

    @cached_property
    def pati(self):
        """Berta bound plus max{0, discord - classical correlation}."""
        return self.berta + _positive_part(self.discord - self.classical_correlation)

    @cached_property
    def adabi(self):
        """Berta bound plus max{0, mutual information - both Holevo quantities}."""
        delta = self.mutual_information - self.holevo[0] - self.holevo[1]
        return self.berta + _positive_part(delta)

    capacity = cached_property(lambda self: self.mutual_information)  # U_b = log2(1/c) + S(A|B)


def _stacked_u(states: np.ndarray, s_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``uncertainty_lhs`` of every state of the stack with memory entropies ``s_b``, and which
    rows pass its checks; both bases' dephased states are one (2N, 4, 4) stack."""
    n = len(states)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row fails its own check
        dephased = np.concatenate([_dephased(states, b) for b in BASES])
    joint, ok = stacked_von_neumann_entropy(dephased)
    return (joint[:n] - s_b) + (joint[n:] - s_b), ok[:n] & ok[n:]


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
