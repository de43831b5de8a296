"""API fuzz: each argument of every public callable, in turn, replaced by a wrongly typed,
empty or non-finite value must raise TypeError or ValueError (``ConfigError`` included)
whose message names that argument, never numpy's or Python's own text."""

import dataclasses
import inspect
import math
import re

import numpy as np

import entropic_uncertainty as eur

FIG1 = eur.BellDiagonalCoeffs(-0.5, 0.4, 0.8)
RHO = eur.bell_diagonal_density(FIG1)
CFG = eur.SweepConfig("AD", -0.5, 0.4, 0.8, 0.0, 1.0, 3, "weak", (0.3,), 0.5, ("u",))
BAD_VALUES = (None, "0.3", [], {}, np.eye(2), math.nan, 1j)

# Valid arguments of each public callable, and how a result is read (PointQuantities
# computes on first read).  A SweepConfig's fields go through run_sweep.
CALLS = {
    "BellDiagonalCoeffs": (dict(c1=-0.5, c2=0.4, c3=0.8), None),
    "bell_diagonal_density": (dict(coeffs=FIG1), None),
    "noise_kraus": (dict(family="AD", param=0.5), None),
    "apply_one_sided": (dict(channel=eur.noise_kraus("AD", 0.5), rho=RHO), None),
    "apply_steering": (dict(op=eur.weak_op(0.3), rho=RHO), None),
    "filter_op": (dict(k=0.3), None),
    "weak_op": (dict(s=0.3), None),
    "PointQuantities": (dict(rho=RHO), lambda q: q.u),
    "bound_report": (dict(rho=RHO), None),
    "witness_threshold": (dict(channel_family="AD", coeffs=FIG1, s=0.3), None),
    "capacity_curves": (dict(channel_family="AD", coeffs=FIG1, schedule=[0.0, 1.0],
                             rate_lambda=None), None),
    "channel_capacity": (dict(rho=RHO), None),
    "SweepConfig": (dataclasses.asdict(CFG), eur.run_sweep),
    "run_sweep": (dict(cfg=CFG), None),
    "render_csv": (dict(rows=eur.run_sweep(CFG)), None),
    "errata_report": (dict(coeffs=FIG1, channel="AD", grid=[0.0, 1.0]), None),
}
EXCEPTIONS = {"ConfigError", "NumericError"}
# (callable, argument, repr of a value) that are valid: an absent decay rate, an empty schedule
VALID = {("capacity_curves", "rate_lambda", "None"), ("capacity_curves", "schedule", "[]"),
         ("SweepConfig", "rate_lambda", "None")}
# Other words a message may name an argument by, besides its name (underscores as spaces)
ALIASES = {"param": ("d", "p"), "rho": ("matrix", "state"),
           "steering_strengths": ("steering strength",)}


def _names(argument: str) -> tuple[str, ...]:
    return (argument, argument.replace("_", " "), *ALIASES.get(argument, ()))


def test_every_public_callable_is_fuzzed():
    assert set(CALLS) | EXCEPTIONS == set(eur.__all__)
    for name, (kwargs, _) in CALLS.items():
        assert list(inspect.signature(getattr(eur, name)).parameters) == list(kwargs), name


def test_a_bad_argument_raises_an_error_that_names_it():
    failures = []
    for name, (kwargs, read) in CALLS.items():
        call = getattr(eur, name)
        for argument in kwargs:
            for value in BAD_VALUES:
                if (name, argument, repr(value)) in VALID:
                    continue
                try:
                    result = call(**{**kwargs, argument: value})
                    if read is not None:
                        read(result)
                except Exception as exc:  # AttributeError, KeyError or IndexError fail too
                    if isinstance(exc, (TypeError, ValueError)) and any(
                            re.search(rf"(?<![\w-]){re.escape(word)}(?!\w)", str(exc))
                            for word in _names(argument)):
                        continue
                    failures.append(f"{name}({argument}={value!r}): {type(exc).__name__}: {exc}")
                else:
                    failures.append(f"{name}({argument}={value!r}): no error")
    assert failures == []
