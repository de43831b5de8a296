"""Input checks that no other test reaches: each raises its own error with its own message."""

import contextlib
import io
import re

import numpy as np
import pytest

from entropic_uncertainty import applications, channels, cli, linalg, measures, states, sweep
from entropic_uncertainty.linalg import NotHermitianError
from entropic_uncertainty.states import BellDiagonalCoeffs

FIG1 = BellDiagonalCoeffs(-0.5, 0.4, 0.8)
CONFIG = "channel = AD\nc1 = 0\nc2 = 0\nc3 = 0\n"


def _eur(argv):
    """Run ``cli.main`` and raise its exit code and stderr as one error, as the table reads."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    raise SystemExit(f"exit {code}: {err.getvalue().strip()}")


CASES = [
    ("kraus-operator-shape", lambda tmp: channels.KrausChannel((np.eye(3),)),
     ValueError, "Kraus operator has shape (3, 3), expected (2, 2)"),
    ("noise-kraus-unknown-channel", lambda tmp: channels.noise_kraus("GAD", 0.5),
     ValueError, "unknown channel family 'GAD'"),
    ("witness-unknown-channel", lambda tmp: applications.witness_threshold("GAD", FIG1),
     ValueError, "unknown channel family 'GAD'"),
    ("errata-unknown-channel", lambda tmp: sweep.errata_report(FIG1, "GAD", [0.0, 1.0]),
     ValueError, "unknown channel family 'GAD'"),
    ("capacity-unknown-channel-with-rate",  # not "a decay rate only parametrizes ..."
     lambda tmp: applications.capacity_curves("GAD", FIG1, [0.0, 1.0], rate_lambda=1.0),
     ValueError, "unknown channel family 'GAD'"),
    ("steering-shape", lambda tmp: channels.SteeringOp(np.eye(3)),
     ValueError, "steering operator has shape (3, 3), expected (2, 2)"),
    ("steering-off-diagonal", lambda tmp: channels.SteeringOp(np.array([[1.0, 0.1], [0.0, 1.0]])),
     ValueError, "steering operator must be diagonal"),
    ("steering-above-1", lambda tmp: channels.SteeringOp(np.diag([1.0, 1.5])),
     ValueError, "diagonal entry (1.5+0j) outside the allowed range [0, 1]"),
    ("steering-imaginary", lambda tmp: channels.SteeringOp(np.diag([1.0, 0.5j])),
     ValueError, "diagonal entry 0.5j outside the allowed range [0, 1]"),
    ("unknown-side",
     lambda tmp: measures.classical_correlation(states.bell_diagonal_density(FIG1), "C"),
     ValueError, "unknown subsystem tag 'C' (expected 'A' or 'B')"),
    ("binary-entropy-above-1", lambda tmp: measures.binary_entropy(1.5),
     ValueError, "probability 1.5 outside [0, 1]"),
    ("binary-entropy-below-0", lambda tmp: measures.binary_entropy(-0.1),
     ValueError, "probability -0.1 outside [0, 1]"),
    ("binary-entropy-nan", lambda tmp: measures.binary_entropy(float("nan")),
     ValueError, "probability nan outside [0, 1]"),
    ("jacobi-not-square", lambda tmp: linalg.jacobi_eigenvalues(np.zeros((2, 3))),
     ValueError, "matrix is not square: (2, 3)"),
    ("jacobi-not-hermitian", lambda tmp: linalg.jacobi_eigenvalues(np.array([[0, 1], [0, 0]])),
     NotHermitianError, "matrix is not Hermitian (max |M - M^dagger| = 1.000e+00)"),
    ("entries-not-square", lambda tmp: linalg._entries(np.zeros((2, 3))),
     ValueError, "matrix is not square: (2, 3)"),
    ("config-duplicate-key", lambda tmp: cli.parse_config_text(CONFIG + "c1 = 0.1\n"),
     cli.ConfigError, "invalid sweep configuration:\n  - <config>:5: duplicate key 'c1'"),
    ("param-points-not-integer",
     lambda tmp: sweep.run_sweep(sweep.SweepConfig("AD", -0.5, 0.4, 0.8, param_points=2.5)),
     sweep.ConfigError, "invalid sweep configuration:\n  - param_points = 2.5 is not an integer"),
    ("negative-time",
     lambda tmp: sweep.run_sweep(cli.parse_config_text(
         CONFIG + "rate_lambda = 1\nparam_start = -1\nparam_stop = 1\n")),
     cli.ConfigError,
     "invalid sweep configuration:\n  - param_start = -1.0 must be nonnegative (time grid)"),
    ("run-sweep-none", lambda tmp: sweep.run_sweep(None),
     TypeError, "cfg = None is not a SweepConfig"),
    ("render-csv-none", lambda tmp: sweep.render_csv(None),
     TypeError, "rows = None is not a list of SweepRows"),
    ("render-csv-string", lambda tmp: sweep.render_csv("AD,0"),
     TypeError, "rows = 'AD,0' is not a list of SweepRows"),
    ("render-csv-array", lambda tmp: sweep.render_csv(np.zeros(3)),
     TypeError, "rows = array([0., 0., 0.]) is not a list of SweepRows"),
    ("render-csv-list-of-lists", lambda tmp: sweep.render_csv([["AD", 0.0]]),
     TypeError, "rows = [['AD', 0.0]] is not a list of SweepRows"),
    ("out-is-a-directory",
     lambda tmp: _eur(["capacity", "--channel", "AD", "--points", "2", "--out", str(tmp)]),
     SystemExit, "exit 4: [Errno 21] Is a directory:"),
]


@pytest.mark.parametrize(("call", "error", "message"), [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check_names_the_problem(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        call(tmp_path)
    assert type(info.value) is error
