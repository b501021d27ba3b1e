"""Record the golden digests the benchmark checks outputs against.

    python3 perfbench/record_goldens.py [--seeds 0-31,7919] [--workload W ...]

For each workload and seed it runs one pass of the workload's ops and
stores the sha256 of each input's ``.txt``, ``.selection.json`` and
``.narration.json`` in ``perfbench/goldens.json``.  Fixture workloads
do not depend on the seed and are recorded once, under ``"*"``.  Only
re-record when an output change is intended, and say why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import GOLDENS, call_cli, digest, import_cli  # noqa: E402

DEFAULT_SEEDS = "0-31,7919"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(cli, workload: str, seed: int, work: Path) -> dict[str, dict[str, str]]:
    p = workloads.plan(workload, seed, work)
    workloads.write_inputs(p)
    out: dict[str, dict[str, str]] = {}
    for argv in p.setup + tuple(op.argv for op in p.ops):
        rc, err = call_cli(cli, argv)
        if rc != 0:
            raise RuntimeError(f"{workload} seed {seed}: {' '.join(argv)}: exit {rc}: {err}")
    for op in p.ops:
        out[op.input] = {s: digest(op.file(s)) for s in op.checks
                         if s in workloads.GOLDEN_SUFFIXES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default=DEFAULT_SEEDS,
                    help=f"seeds for seeded workloads, e.g. 0-31,7919 (default {DEFAULT_SEEDS})")
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                    help="workload to record (repeatable; default all)")
    args = ap.parse_args(argv)
    cli = import_cli()
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    work = Path(__file__).resolve().parent / "_work" / "goldens"
    try:
        for workload in args.workload or workloads.WORKLOADS:
            entry = goldens.setdefault(workload, {})
            seeded = workloads.plan(workload, 0, work).seeded
            for seed in parse_seeds(args.seeds) if seeded else [0]:
                entry[str(seed) if seeded else "*"] = record(cli, workload, seed, work)
                print(f"{workload} seed {seed}: recorded", file=sys.stderr)
                GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
