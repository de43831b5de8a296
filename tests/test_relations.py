"""Relations that are exact in real arithmetic, so the pipeline is checked against itself
with no oracle: composing two channels of one family gives a channel of that family, and
local unitaries that keep the X shape leave every reported value unchanged.  Each relation
runs on the one-state route (``PointQuantities`` of one state) and on the sweep route
(``sweep._grid_points``, the stacked evaluation), at 1e-12; the largest difference these
cases show is 1.1e-15.  A phase on the measured qubit is the negative case: it must move
``u`` and ``adabi``."""

import numpy as np
import pytest

from conftest import I2, SX, SZ, rand_bd_coeffs
from entropic_uncertainty.bounds import PointQuantities
from entropic_uncertainty.channels import apply_one_sided, d_of_t, noise_kraus
from entropic_uncertainty.states import BellDiagonalCoeffs, bell_diagonal_density
from entropic_uncertainty.sweep import _grid_points

OUTPUTS = ("u", "berta", "pati", "adabi", "discord", "s_min", "capacity")
TOL = 1e-12
GRID = np.linspace(0.0, 1.0, 6).tolist()
COMPOSED = {  # the one channel that applying parameter x after parameter first amounts to
    "AD": lambda first, x: 1.0 - (1.0 - first) * (1.0 - x),
    "BPF": lambda first, x: first * x + (1.0 - first) * (1.0 - x),
}
PHASE = np.diag([1.0, np.exp(0.7j)])
# local unitaries that keep the X shape, and the channels each commutes with (as a map
# on the state), so that turning the initial state turns every evolved state alike
SYMMETRIES = {
    "sigma_x on A": (np.kron(SX, I2), ("BPF",)),
    "sigma_z on A": (np.kron(SZ, I2), ("AD", "BPF")),
    "sigma_x on B": (np.kron(I2, SX), ("AD", "BPF")),
    "phase on B": (np.kron(I2, PHASE), ("AD", "BPF")),
}


def _initial_states(seed, count=4):
    rng = np.random.RandomState(seed)
    return [bell_diagonal_density(BellDiagonalCoeffs(*rand_bd_coeffs(rng))) for _ in range(count)]


def _one_state(rho):
    q = PointQuantities(rho)
    return np.array([getattr(q, name) for name in OUTPUTS])


def _swept(family, rho0, params, rate=None):
    points = _grid_points(family, rho0, list(params), rate, (None,), OUTPUTS)
    return np.array([[v for _, v in quantities] for _, _, _, quantities in points])


def _evolved(family, rho0, x):
    return apply_one_sided(noise_kraus(family, x), rho0)


def _turned(unitary, rho):
    return unitary @ rho @ unitary.conj().T


def _assert_close(got, expected):
    assert np.max(np.abs(got - expected)) <= TOL


@pytest.mark.parametrize("family", sorted(COMPOSED))
def test_two_channels_in_a_row_are_the_composed_channel(family):
    first = 0.3
    composed = [COMPOSED[family](first, x) for x in GRID]
    for rho0 in _initial_states(801):
        middle = _evolved(family, rho0, first)
        _assert_close(_swept(family, middle, GRID), _swept(family, rho0, composed))
        for x, y in zip(GRID[1:-1], composed[1:-1]):
            _assert_close(_one_state(_evolved(family, middle, x)),
                          _one_state(_evolved(family, rho0, y)))


def test_damping_for_two_times_is_damping_for_their_sum():
    # d_of_t(rate, t1 + t2) = 1 - (1 - d_of_t(rate, t1))(1 - d_of_t(rate, t2)), on fig6's
    # time range at its middle rate
    rate, first = 0.3, 2.0
    times = np.linspace(0.0, 8.0, 6)
    for rho0 in _initial_states(802):
        middle = _evolved("AD", rho0, d_of_t(rate, first))
        _assert_close(_swept("AD", middle, times, rate), _swept("AD", rho0, times + first, rate))


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_local_symmetries_keep_every_value(name):
    unitary, commuting = SYMMETRIES[name]
    for rho0 in _initial_states(803):
        for family in ("AD", "BPF"):
            for x in (0.25, 0.8):
                rho = _evolved(family, rho0, x)
                _assert_close(_one_state(_turned(unitary, rho)), _one_state(rho))
        for family in commuting:
            _assert_close(_swept(family, _turned(unitary, rho0), GRID), _swept(family, rho0, GRID))


def test_a_phase_on_the_measured_qubit_moves_u_and_adabi():
    # it turns the sigma_x measurement toward sigma_y, so the relation tests above cannot pass
    # for want of any value that moves; the optimized values and the Berta bound stay put
    unitary = np.kron(PHASE, I2)  # commutes with damping, not with the bit-phase flip
    moved = [OUTPUTS.index("u"), OUTPUTS.index("adabi")]
    kept = [i for i in range(len(OUTPUTS)) if i not in moved]
    for rho0 in _initial_states(804):
        routes = [(_swept("AD", _turned(unitary, rho0), GRID), _swept("AD", rho0, GRID))]
        routes += [(_one_state(_turned(unitary, rho)), _one_state(rho))
                   for rho in (_evolved(family, rho0, 0.4) for family in ("AD", "BPF"))]
        for got, expected in routes:
            change = np.abs(got - expected).reshape(-1, len(OUTPUTS))
            assert change[:, moved].max(axis=0).min() > 1e-3
            assert change[:, kept].max() <= TOL
