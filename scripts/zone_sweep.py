"""Compare zone level counts on one series and print the sweep table.

Usage: python scripts/zone_sweep.py [path] [--levels-list 3,4,5]

Shows how pool size, summary level, and global RMSE move as the zone
grid refines.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from serinarr.cli import RunConfig, _format_sweep, parse_levels_list, sweep
from serinarr.errors import IngestError

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "data" / "concert_weekly.csv"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path", nargs="?", default=str(FIXTURE))
    ap.add_argument("--format", default=None)
    ap.add_argument("--levels-list", default="3,4,5", dest="levels_list")
    ap.add_argument("--verbosity", type=int, default=5)
    args = ap.parse_args()

    fmt = args.format or ("trends_csv" if args.path == str(FIXTURE) else "csv")
    try:
        levels_list = parse_levels_list(args.levels_list)
        cfg = RunConfig(input=args.path, format=fmt, verbosity=args.verbosity)
    except IngestError as exc:
        ap.error(str(exc))
    rows = sweep(cfg, levels_list)
    print(_format_sweep(rows))


if __name__ == "__main__":
    main()
