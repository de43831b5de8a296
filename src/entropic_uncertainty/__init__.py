"""Quantum-memory-assisted entropic uncertainty for two-qubit states under
one-sided noise.

The package builds Bell-diagonal states, evolves the measured qubit through
amplitude-damping or bit-phase-flip Kraus channels, evaluates the measured
uncertainty together with its Berta, Pati and Adabi lower bounds, applies
filtering / weak-measurement steering, and derives entanglement-witness
thresholds and channel capacities.  The ``eur`` command line emits all figure
grids as CSV.

The root re-exports what a caller needs to run the pipeline (build, evolve,
steer, measure, bound, sweep) and its two applications; every other name is
imported from its own module.
"""

from .applications import capacity_curves, channel_capacity, witness_threshold
from .bounds import PointQuantities, bound_report
from .channels import apply_one_sided, apply_steering, filter_op, noise_kraus, weak_op
from .measures import sigma_x_basis, sigma_z_basis
from .states import BellDiagonalCoeffs, bell_diagonal_density
from .sweep import (
    ConfigError,
    NumericError,
    SweepConfig,
    errata_report,
    render_csv,
    run_sweep,
)

__all__ = [
    "BellDiagonalCoeffs",
    "bell_diagonal_density",
    "noise_kraus",
    "apply_one_sided",
    "apply_steering",
    "filter_op",
    "weak_op",
    "sigma_x_basis",
    "sigma_z_basis",
    "PointQuantities",
    "bound_report",
    "witness_threshold",
    "capacity_curves",
    "channel_capacity",
    "SweepConfig",
    "run_sweep",
    "render_csv",
    "errata_report",
    "ConfigError",
    "NumericError",
]
