"""Check or rewrite the golden preset CSVs under tests/golden/.

    python tests/regen_golden.py                 # report each preset, write nothing
    python tests/regen_golden.py --write         # rewrite every golden
    python tests/regen_golden.py --write fig5    # rewrite only the named presets

Without --write it prints ok / differs / missing per preset and exits 1 unless
all are ok.  The goldens are the output contract checked by test_golden.py:
rewrite one only for an intended output change, and record why.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from entropic_uncertainty.cli import PRESET_NAMES, preset_rows  # noqa: E402
from entropic_uncertainty.sweep import render_csv  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help=f"presets (default: all of {PRESET_NAMES})")
    parser.add_argument("--write", action="store_true", help="rewrite the golden files")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in PRESET_NAMES]
    if unknown:
        parser.error(f"unknown preset(s) {unknown}; expected some of {PRESET_NAMES}")
    stale = 0
    for name in args.names or PRESET_NAMES:
        path = GOLDEN_DIR / f"{name}.csv"
        text = render_csv(preset_rows(name))
        if args.write:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="\n")
            status = "written"
        elif not path.exists():
            status = "missing"
        elif path.read_text(encoding="utf-8") != text:
            status = "differs"
        else:
            status = "ok"
        stale += status in ("missing", "differs")
        print(f"{name}: {status}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
