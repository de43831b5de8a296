"""Byte-exact determinism of the figure-preset CSV grids.

Every preset is pinned by a committed golden file, and every run must
reproduce it byte for byte; a missing golden is a failure.  Goldens are only
written by ``python tests/regen_golden.py --write``.  Value correctness is
covered by the oracle tests; this module locks in the determinism contract.
"""

import decimal
import hashlib
import pathlib
import sys

import numpy as np
import pytest

import regen_golden

from entropic_uncertainty.cli import PRESET_NAMES, preset_rows
from entropic_uncertainty.sweep import render_csv

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# sha256 of tests/golden/fig5.csv; the repository benchmark pins the same digest
FIG5_SHA256 = "99eeb78cbb22ab7dee81edf64abdd54007d7ea4260beb799d3f94940fc556042"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_matches_golden(name):
    path = GOLDEN_DIR / f"{name}.csv"
    assert path.exists(), f"missing golden {path}; see tests/regen_golden.py"
    assert render_csv(preset_rows(name)) == path.read_text(encoding="utf-8")


def test_fig5_golden_is_the_pinned_file():
    data = (GOLDEN_DIR / "fig5.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FIG5_SHA256


def test_missing_golden_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    with pytest.raises(AssertionError, match="missing golden"):
        test_preset_matches_golden("fig6")
    assert not list(tmp_path.iterdir())


def test_regen_script_writes_only_with_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regen_golden, "GOLDEN_DIR", tmp_path)
    assert regen_golden.main(["fig6"]) == 1
    assert not list(tmp_path.iterdir())
    assert regen_golden.main(["--write", "fig6"]) == 0
    assert (tmp_path / "fig6.csv").read_bytes() == (GOLDEN_DIR / "fig6.csv").read_bytes()
    assert regen_golden.main(["fig6"]) == 0
    assert capsys.readouterr().out.splitlines() == ["fig6: missing", "fig6: written", "fig6: ok"]


# fewest ulps any nonzero golden cell may sit from its 12-digit rounding edge; the smallest
# margin is 11.68 ulps (fig3's u at d = 0.8)
GOLDEN_MARGIN_ULPS = 8


def _numbers(row):
    """A row's numeric cells in CSV order."""
    optional = (row.steer_strength, row.rate_lambda)
    return [row.param, row.c1, row.c2, row.c3, *(v for v in optional if v is not None),
            *(v for _, v in row.quantities)]


def test_golden_cells_sit_away_from_their_rounding_edges():
    # a few ulps of arithmetic cannot move a golden: each nonzero cell's float64 value is at
    # least GOLDEN_MARGIN_ULPS of its ulps from the nearest edge between two 12-digit numbers
    for name in PRESET_NAMES:
        lines = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()[1:]
        rows = preset_rows(name)
        assert len(rows) == len(lines)
        for row, line in zip(rows, lines):
            cells = [c for c in line.split(",") if c not in ("AD", "BPF", "filter", "weak")]
            values = _numbers(row)
            assert len(values) == len(cells)
            for value, cell in zip(values, cells):
                if value == 0.0:
                    continue
                assert f"{value:.12g}" == cell, (name, line)
                exact, printed = decimal.Decimal(value), decimal.Decimal(cell)
                half_digit = decimal.Decimal(10) ** (exact.adjusted() - 11) / 2
                ulp = decimal.Decimal(np.spacing(abs(value)))
                margin = (half_digit - abs(exact - printed)) / ulp
                assert margin >= GOLDEN_MARGIN_ULPS, (name, line, value, float(margin))


def test_presets_are_run_to_run_deterministic():
    assert render_csv(preset_rows("fig1")) == render_csv(preset_rows("fig1"))


def test_golden_fig1_values_match_independent_oracle():
    # tie the pinned bytes to the oracle pipeline at a few grid points
    from conftest import ad_ops_oracle, bd_oracle, entropy_oracle, evolve_oracle, u_oracle

    text = render_csv(preset_rows("fig1"))
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    for line in (lines[1], lines[26], lines[51], lines[101]):
        row = dict(zip(header, line.split(",")))
        d = float(row["param"])
        rho = evolve_oracle(ad_ops_oracle(d), bd_oracle(-0.5, 0.4, 0.8))
        assert abs(float(row["u"]) - u_oracle(rho)) <= 1e-10
        berta = 1.0 + entropy_oracle(rho) - 1.0  # memory stays maximally mixed
        assert abs(float(row["berta"]) - berta) <= 1e-10
