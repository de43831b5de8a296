"""Shared test helpers: independent oracle implementations built straight from
definitions (np.kron, np.linalg.eigvalsh, explicit index loops) so package
results can be checked against a second, unrelated code path."""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from entropic_uncertainty.measures import ProjectiveBasis  # noqa: E402

I2 = np.eye(2, dtype=complex)
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
    """The sigma_y measurement, from its eigenvectors (1, +-i) / sqrt(2)."""
    return ProjectiveBasis((projector_oracle([1, 1j]), projector_oracle([1, -1j])))


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


SPMC_ATOL = 1e-12


def spmc_satisfied(coeffs, i, j, k, atol=SPMC_ATOL):
    """True when c_i = -c_j * c_k, the saturation condition for measuring
    the j and k Pauli axes."""
    if sorted((i, j, k)) != [1, 2, 3]:
        raise ValueError(f"axis indices {(i, j, k)!r} must be a permutation of 1, 2, 3")
    c = coeffs.as_tuple()
    return abs(c[i - 1] + c[j - 1] * c[k - 1]) <= atol
