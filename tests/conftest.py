"""Shared test helpers: independent oracle implementations built straight from
definitions (np.kron, np.linalg.eigvalsh, explicit index loops) so package
results can be checked against a second, unrelated code path, and the paper's
printed AD eigenvalues (``ad_closed_form_spectrum``), exact, which no command
evaluates, a 50-digit ``decimal`` oracle of the measurement optimizer's two
endpoints (``endpoint_entropies_oracle``), the general two-qubit measurement moments
of any state (``cross_moments_oracle``), the optimizer's grid on them one outcome
sign at a time (``avg_branch_entropy_grid_oracle``), and a 2-D search over both
angles on them (``minimize_dense_oracle``)."""

import decimal
import functools
import math
import pathlib
import sys
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from entropic_uncertainty.linalg import POSTSELECT_MIN_PROB  # noqa: E402
from entropic_uncertainty.measures import _Basis, _golden_section  # noqa: E402
from entropic_uncertainty.states import BellDiagonalCoeffs  # noqa: E402

I2 = np.eye(2, dtype=complex)
# what every route to the measurement optimizer raises for a state that is not X-shaped
OPTIMIZER_REFUSAL = "the measurement optimizer takes X-shaped states only"
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bd_oracle(c1, c2, c3):
    """Bell-diagonal density matrix by direct Pauli-sum assembly."""
    return 0.25 * (
        np.kron(I2, I2)
        + c1 * np.kron(SX, SX)
        + c2 * np.kron(SY, SY)
        + c3 * np.kron(SZ, SZ)
    )


def ptrace_oracle(rho, keep):
    """Partial trace by explicit index summation."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for t in range(2):
                if keep == "A":
                    out[i, j] += rho[2 * i + t, 2 * j + t]
                else:
                    out[i, j] += rho[2 * t + i, 2 * t + j]
    return out


def spectrum_oracle(m):
    """Eigenvalues via numpy's LAPACK solver, descending."""
    return np.sort(np.linalg.eigvalsh(m))[::-1]


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


def entropy_oracle(rho):
    """von Neumann entropy by LAPACK spectrum plus direct log2 summation."""
    total = 0.0
    for lam in np.linalg.eigvalsh(rho):
        lam = float(lam.real)
        if lam > 0.0:
            total -= lam * math.log2(lam)
    return total


def shannon_oracle(probabilities):
    total = 0.0
    for p in probabilities:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def h2(q):
    return shannon_oracle((q, 1.0 - q))


def ad_ops_oracle(d):
    return [
        np.array([[1, 0], [0, math.sqrt(1 - d)]], dtype=complex),
        np.array([[0, math.sqrt(d)], [0, 0]], dtype=complex),
    ]


def bpf_ops_oracle(p):
    return [math.sqrt(p) * I2, math.sqrt(1 - p) * SY]


def evolve_oracle(ops, rho):
    """One-sided Kraus action on qubit A by explicit summation."""
    out = np.zeros((4, 4), dtype=complex)
    for e in ops:
        big = np.kron(e, I2)
        out += big @ rho @ big.conj().T
    return out


def projector_oracle(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


PX_ORACLE = [projector_oracle([1, 1]), projector_oracle([1, -1])]
PZ_ORACLE = [projector_oracle([1, 0]), projector_oracle([0, 1])]


def sigma_y_basis():
    """The sigma_y measurement, along (0, 1, 0); ``test_pauli_bases`` checks its projectors
    against its eigenvectors (1, +-i) / sqrt(2)."""
    return _Basis((0.0, 1.0, 0.0))


def post_meas_oracle(rho, projs):
    out = np.zeros((4, 4), dtype=complex)
    for p in projs:
        big = np.kron(p, I2)
        out += big @ rho @ big.conj().T
    return out


def cond_ent_oracle(rho, projs):
    pm = post_meas_oracle(rho, projs)
    return entropy_oracle(pm) - entropy_oracle(ptrace_oracle(pm, "B"))


def u_oracle(rho):
    return cond_ent_oracle(rho, PX_ORACLE) + cond_ent_oracle(rho, PZ_ORACLE)


def holevo_oracle(rho, projs):
    total = entropy_oracle(ptrace_oracle(rho, "B"))
    for p in projs:
        big = np.kron(p, I2)
        branch = big @ rho @ big.conj().T
        prob = float(np.trace(branch).real)
        if prob < 1e-12:
            continue
        total -= prob * entropy_oracle(ptrace_oracle(branch, "B") / prob)
    return total


def mutual_oracle(rho):
    return (
        entropy_oracle(ptrace_oracle(rho, "A"))
        + entropy_oracle(ptrace_oracle(rho, "B"))
        - entropy_oracle(rho)
    )


def steer_oracle(rho, op):
    big = np.kron(op, I2)
    un = big @ rho @ big.conj().T
    return un / np.trace(un).real


def avg_branch_entropy_oracle(rho, theta, phi, measured="A"):
    """Average post-measurement branch entropy of the unmeasured qubit."""
    n = (
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )
    spin = n[0] * SX + n[1] * SY + n[2] * SZ
    total = 0.0
    for p in (0.5 * (I2 + spin), 0.5 * (I2 - spin)):
        big = np.kron(p, I2) if measured == "A" else np.kron(I2, p)
        branch = big @ rho @ big.conj().T
        prob = float(np.trace(branch).real)
        if prob < 1e-12:
            continue
        other = ptrace_oracle(branch, "B" if measured == "A" else "A") / prob
        total += prob * entropy_oracle(other)
    return total


class _CrossMoments(NamedTuple):
    """Scalar components of rho_other and R_j = Tr_measured[(sigma_j)_measured rho].

    Measuring along direction n with projectors (I +/- n.sigma)/2 leaves the
    unmeasured qubit in (rho_other +/- sum_j n_j R_j) / 2 unnormalized, so the
    whole measurement sweep reduces to 2x2 closed forms in these moments, of any
    state.  A stack's moments are (N, 1) columns that broadcast against a grid of
    directions; ``row`` gives one state's as Python numbers.
    """

    b00: np.ndarray
    b11: np.ndarray
    b01: np.ndarray
    r00: tuple
    r11: tuple
    r01: tuple

    def row(self, i):
        columns = [self.b00, self.b11, self.b01, *self.r00, *self.r11, *self.r01]
        v = [c[i, 0].item() for c in columns]
        return _CrossMoments(*v[:3], tuple(v[3:6]), tuple(v[6:9]), tuple(v[9:]))


def cross_moments_oracle(states, measured_side):
    """The moments of each state of an (N, 4, 4) stack, X-shaped or not: one ``np.einsum``
    per operator (I, then the Paulis) on the measured qubit, traced out."""
    r = np.asarray(states).reshape(-1, 2, 2, 2, 2)
    spec = {"A": "ij,njbic->nbc", "B": "ij,najci->nac"}[measured_side]
    other, *mats = [np.einsum(spec, sigma, r) for sigma in (I2, SX, SY, SZ)]
    return _CrossMoments(
        other[:, 0, 0, None].real,
        other[:, 1, 1, None].real,
        other[:, 0, 1, None],
        tuple(m[:, 0, 0, None].real for m in mats),
        tuple(m[:, 1, 1, None].real for m in mats),
        tuple(m[:, 0, 1, None] for m in mats),
    )


def avg_branch_entropy_grid_oracle(mom, nx, ny, nz):
    """The average branch entropy on the general moments (``cross_moments_oracle``) at every
    direction of the broadcast arrays nx, ny, nz, one pass per outcome sign, each pass's
    terms added to zeros in turn.  On an X state the package's grid
    (``measures._avg_branch_entropy_grid`` on its six moments) must equal it bitwise: the
    terms it drops are exact zeros, and each sum left has at most two nonzero terms."""
    def neg_xlog2x(x):
        return np.where(x > 0.0, -x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)

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
        contrib = neg_xlog2x(lam1) + neg_xlog2x(lam2) - neg_xlog2x(t)
        total += np.where(t > POSTSELECT_MIN_PROB, contrib, 0.0)
    return total


@functools.cache
def dense_grid_oracle():
    """The 2-D measurement grid: theta in [0, pi] x phi in [0, pi), since n and -n are one
    measurement; the angles and the direction components nx, ny, nz."""
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, math.pi, 180, endpoint=False)
    sin_t = np.sin(thetas)[:, None]
    return (thetas, phis, sin_t * np.cos(phis)[None, :], sin_t * np.sin(phis)[None, :],
            np.cos(thetas)[:, None])


def _avg_branch_entropy_at(mom, theta, phi):
    """Average branch entropy of one state's moments at one direction, in scalar ``math``."""
    st = math.sin(theta)
    nx, ny, nz = st * math.cos(phi), st * math.sin(phi), math.cos(theta)
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


def minimize_dense_oracle(mom):
    """Minimum average branch entropy of one state's moments (``cross_moments_oracle`` of a
    one-row stack) over both angles, X-shaped or not: (value, theta, phi).

    The 2-D grid's first minimum, then rounds of golden sections in theta and in phi, one
    grid step each way, until a round stalls; the brackets are left unclipped, since the
    parametrization is smooth across the phi seam and the poles.  Blind spot: the theta = 0
    row is flat in phi, so a minimum within a degree of a pole whose best azimuth is not 0
    can be missed (the first minimum picks phi = 0, and theta is then refined at phi = 0
    only); on one complex X state it stopped 6.2e-9 above the one-parameter minimum at
    0.499 degrees.  Real positive coherences (best azimuth 0) do not show it."""
    thetas, phis, *directions = dense_grid_oracle()
    grid = avg_branch_entropy_grid_oracle(mom, *directions)
    ti, pj = divmod(int(np.argmin(grid)), grid.shape[1])  # smallest theta, then smallest phi
    theta, phi, value = float(thetas[ti]), float(phis[pj]), float(grid[ti, pj])
    mom = mom.row(0)
    step = math.pi / 180.0
    for _ in range(100):  # a round moves each angle by at most one grid step
        start = value
        x, fx = _golden_section(lambda ts: [_avg_branch_entropy_at(mom, t, phi) for t in ts],
                                theta - step, theta + step)
        if fx < value:
            theta, value = x, fx
        x, fx = _golden_section(lambda ps: [_avg_branch_entropy_at(mom, theta, p) for p in ps],
                                phi - step, phi + step)
        if fx < value:
            phi, value = x, fx
        if value == start:
            break
    return value, theta, phi


X_PATTERN = np.eye(4) + np.fliplr(np.eye(4))  # the diagonal and the anti-diagonal


def _branch_entropy_dec(m00, m11, coherence):
    """Entropy a 2x2 branch [[m00, c], [c*, m11]] with |c| = ``coherence`` adds to the average:
    the entropy of its eigenvalues less that of its trace t, -x log2 x each, in the context's
    precision; an eigenvalue a float entry leaves at or below 0 adds 0, as in the package."""
    def h(x):
        return -x * x.ln() / decimal.Decimal(2).ln() if x > 0 else decimal.Decimal(0)

    t = m00 + m11
    disc = ((m00 - m11) ** 2 + 4 * coherence ** 2).sqrt()
    return h((t + disc) / 2) + h((t - disc) / 2) - h(t)


def endpoint_entropies_oracle(rho, measured="A"):
    """Average branch entropy of a real X state measured along z (theta = 0) and in the
    equatorial plane at its best azimuth (theta = pi/2), each to 50 digits with the
    standard library's ``decimal`` and rounded once to a float.

    The float entries are read exactly.  Along z each outcome leaves the unmeasured qubit
    diagonal: the populations of one block.  In the plane both outcomes leave probability
    1/2 and the unmeasured qubit's populations, with coherence |rho_03| + |rho_12| at the
    best azimuth (0 or pi/2 for real coherences)."""
    e = np.asarray(rho)
    if e.shape != (4, 4) or np.any(e.imag) or np.any(e[X_PATTERN == 0]):
        raise ValueError("the endpoint oracle takes a real X-shaped (4, 4) state")
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = [decimal.Decimal(float(e[i, i].real)) for i in range(4)]
        coherence = abs(decimal.Decimal(float(e[0, 3].real))) + abs(
            decimal.Decimal(float(e[1, 2].real)))
        blocks = ((d[0], d[1]), (d[2], d[3])) if measured == "A" else ((d[0], d[2]), (d[1], d[3]))
        along_z = sum(_branch_entropy_dec(p, q, 0) for p, q in blocks)
        p0, p1 = (x + y for x, y in zip(*blocks))  # the unmeasured qubit's populations
        in_plane = 2 * _branch_entropy_dec(p0 / 2, p1 / 2, coherence / 2)
        return float(along_z), float(in_plane)


def rand_bd_coeffs(rng):
    """Uniform rejection sampling of physical Bell-diagonal coefficients."""
    while True:
        c = rng.uniform(-1.0, 1.0, 3)
        lams = (
            1 - c[0] - c[1] - c[2],
            1 - c[0] + c[1] + c[2],
            1 + c[0] - c[1] + c[2],
            1 + c[0] + c[1] - c[2],
        )
        if min(lams) >= 0.0:
            return tuple(float(x) for x in c)


def rand_xstate_matrix(rng, real=False):
    """Random valid X-shaped density matrix."""
    pops = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    r14 = rng.uniform(0.0, 1.0) * math.sqrt(pops[0] * pops[3])
    r23 = rng.uniform(0.0, 1.0) * math.sqrt(pops[1] * pops[2])
    if real:
        ph14 = rng.choice((-1.0, 1.0))
        ph23 = rng.choice((-1.0, 1.0))
    else:
        ph14 = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        ph23 = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = pops
    rho[0, 3] = r14 * ph14
    rho[3, 0] = np.conj(rho[0, 3])
    rho[1, 2] = r23 * ph23
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def locally_rotated(rng, rho):
    """rho under a random unitary on each qubit: the same spectrum, not an X state."""
    u_a, u_b = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                for _ in range(2))
    big = np.kron(u_a, u_b)
    return big @ rho @ big.conj().T


SPMC_ATOL = 1e-12


def spmc_satisfied(coeffs, i, j, k, atol=SPMC_ATOL):
    """True when c_i = -c_j * c_k, the saturation condition for measuring
    the j and k Pauli axes."""
    if sorted((i, j, k)) != [1, 2, 3]:
        raise ValueError(f"axis indices {(i, j, k)!r} must be a permutation of 1, 2, 3")
    c = coeffs.as_tuple()
    return abs(c[i - 1] + c[j - 1] * c[k - 1]) <= atol
