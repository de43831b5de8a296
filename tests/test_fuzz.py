"""Seeded fuzz of ``eur sweep``: boundary and random configs through ``cli.main``.

Every config must end in exit 0 (rows written) or exit 2 (problems listed),
never in a numeric failure (exit 3) or an uncaught exception.  The exit-code
counts are pinned, so a refactor that moves a config from one code to the
other shows up here.
"""

import collections
import itertools

import numpy as np

from entropic_uncertainty.cli import main
from entropic_uncertainty.sweep import OUTPUT_TAGS

BOUNDARY_COEFFS = (1.0 + 9e-10, -(1.0 + 9e-10), 1.0, -1.0, 0.9999999999, 0.0)
BOUNDARY_STEERING = (("filter", (1e-9, 1.0 - 1e-9)), ("weak", (0.0, 0.999999999)))
SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), 0.0, 1.0, 1e-9, 1.0 - 1e-9)


def _config_text(channel, coeffs, start, stop, points, kind=None, strengths=(), rate=None,
                 outputs=OUTPUT_TAGS):
    lines = [f"channel = {channel}"]
    lines += [f"c{i} = {c!r}" for i, c in enumerate(coeffs, start=1)]
    lines += [f"param_start = {start!r}", f"param_stop = {stop!r}", f"param_points = {points}"]
    if kind is not None:
        lines.append(f"steering_kind = {kind}")
    if strengths:
        lines.append("steering_strengths = " + ", ".join(repr(s) for s in strengths))
    if rate is not None:
        lines.append(f"rate_lambda = {rate!r}")
    lines.append("outputs = " + ", ".join(outputs))
    return "\n".join(lines) + "\n"


def _exit_codes(texts, tmp_path, capsys):
    """Exit code of ``eur sweep`` on each config text, checking none raised."""
    path = tmp_path / "fuzz.cfg"
    codes = collections.Counter()
    for text in texts:
        path.write_text(text)
        code = main(["sweep", "--config", str(path)])  # an uncaught exception fails here
        err = capsys.readouterr().err
        assert code in (0, 2), (code, err, text)
        assert "Traceback" not in err, text
        codes[code] += 1
    return codes


def _boundary_texts():
    for coeffs in itertools.product(BOUNDARY_COEFFS, repeat=3):
        for channel in ("AD", "BPF"):
            for kind, strengths in BOUNDARY_STEERING:
                yield _config_text(channel, coeffs, 0.0, 1.0, 2, kind, strengths)


def test_boundary_configs_exit_0_or_2(tmp_path, capsys):
    codes = _exit_codes(_boundary_texts(), tmp_path, capsys)
    assert sum(codes.values()) == 6**3 * 2 * 2
    assert codes == {2: 552, 0: 312}


def _random_float(rng, lo, hi, odd=0.05):
    """Uniform on [lo, hi], or with probability ``odd`` a non-finite or edge value."""
    if rng.uniform() < odd:
        return SPECIAL_FLOATS[rng.randint(len(SPECIAL_FLOATS))]
    return float(rng.uniform(lo, hi))


def _random_texts(rng, count):
    odds = {"bogus": 0.03}  # of each output tag being asked for
    for _ in range(count):
        channel = ("AD", "BPF", "XX")[rng.choice(3, p=(0.48, 0.48, 0.04))]
        # a tetrahedron corner scaled inwards is physical; a few steps past it are not
        corner = np.array(((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))[rng.randint(4)])
        scale = rng.uniform(0.0, 1.03)
        coeffs = tuple(float(c) for c in scale * corner * rng.uniform(0.8, 1.0, 3))
        if rng.uniform() < 0.05:
            coeffs = coeffs[:2] + (_random_float(rng, -1.1, 1.1, odd=1.0),)
        rate = None if rng.uniform() < 0.7 else _random_float(rng, -0.05, 2.0)
        top = 1.0 if rate is None else 12.0
        start, stop = sorted(_random_float(rng, -0.02, top) for _ in range(2))
        if rng.uniform() < 0.05:
            start, stop = stop, start
        points = int(rng.choice((-1, 0, 1, 2, 3, 4, 5), p=(0.02, 0.02, 0.04, 0.3, 0.3, 0.16, 0.16)))
        kind = (None, "filter", "weak", "bogus")[rng.choice(4, p=(0.3, 0.33, 0.33, 0.04))]
        strengths = ()
        if kind is not None:
            strengths = tuple(_random_float(rng, 0.0, 1.0) for _ in range(rng.randint(4)))
        outputs = tuple(t for t in OUTPUT_TAGS + ("bogus",) if rng.uniform() < odds.get(t, 0.3))
        yield _config_text(channel, coeffs, start, stop, points, kind, strengths, rate, outputs)


def test_random_configs_exit_0_or_2(tmp_path, capsys):
    codes = _exit_codes(_random_texts(np.random.RandomState(8191), 200), tmp_path, capsys)
    assert sum(codes.values()) == 200
    assert codes == {2: 113, 0: 87}
