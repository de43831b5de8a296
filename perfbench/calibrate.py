"""Reference kernels that measure how fast the CPU is running right now.

The host this benchmark was built on changes CPU speed by up to 1.9x for
seconds to tens of seconds at a time, with CPU time equal to wall time, so
no run length averages that out.  The runner therefore times a fixed kernel
on the same CPU just before and after each job (and each import child), and
reports the duration scaled by ``NOMINAL_S[kind] / kernel duration``:
seconds at the speed where the kernel takes its nominal time.

Busy periods slow interpreter-bound code and vectorized array code by
different amounts, so there are two kernels, each doing one kind of the
package's work:

- ``interp``: a dense 4x4 complex pipeline driven from Python, small numpy
  calls one after another (channels, validation, entropies);
- ``vector``: the elementwise 2x2-eigenvalue entropy pass over the 181 x 361
  measurement-angle grid that dominates the optimizer.

Each workload names the kernel that matches the work that dominates it.
The kernels are frozen here, so a change to the package cannot move them.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = {"interp": 0.0035, "vector": 0.006}

_I2 = np.eye(2, dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_RHO = np.kron(_I2, _I2) / 4 + 0.2 * np.kron(_Y, _Y)
_INTERP_STEPS = 80
_THETA = np.linspace(0.0, math.pi, 181)[:, None]
_PHI = np.linspace(0.0, 2.0 * math.pi, 361)[None, :]
_NX = np.sin(_THETA) * np.cos(_PHI)
_NZ = np.cos(_THETA) + 0.0 * _PHI
_VECTOR_REPS = 4


def _interp() -> float:
    acc = 0.0
    for i in range(_INTERP_STEPS):
        e = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - i / _INTERP_STEPS)]], dtype=complex)
        big = np.kron(e, _I2)
        out = big @ _RHO @ big.conj().T
        acc += float(np.abs(out - out.conj().T).max())
        red = np.trace(out.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        for v in np.linalg.eigvalsh(out):
            if v > 0.0:
                acc -= v * math.log2(v)
        acc += abs(complex(red[0, 1]))
    return acc


def _vector() -> float:
    acc = 0.0
    for i in range(_VECTOR_REPS):
        m00 = 0.3 + 0.1 * _NX + 0.05 * i * _NZ
        m01 = 0.1 * _NX + 0.02j * _NZ
        disc = np.sqrt((m00 - 0.4) ** 2 + 4.0 * np.abs(m01) ** 2)
        lam = np.maximum(0.5 * (m00 + disc), 0.0)
        acc += float(np.where(lam > 0.0, -lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0).sum())
    return acc


_KERNELS = {"interp": _interp, "vector": _vector}


def kernel_seconds(kind: str) -> float:
    """Duration of one run of the ``kind`` reference kernel."""
    kernel = _KERNELS[kind]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(seconds: float, kind: str, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the speed where the ``kind`` kernel takes its nominal time."""
    return seconds * NOMINAL_S[kind] / (0.5 * (kernel_before + kernel_after))
