"""Run workloads under several seeds and print each metric's median and spread.

    python3 perfbench/spread.py                         # every workload, seeds 1-10
    python3 perfbench/spread.py --workload deep-details --seeds 1-5
    python3 perfbench/spread.py --seeds 7919 --trace 1  # one traced run each

Each run is ``perfbench/run.py`` in its own process with BENCHMARK.json's
``run_seconds``.  For every metric it prints the unit, the median and the
quartiles over the runs (``statistics.quantiles(n=4)``), the spread
(third minus first quartile, over the median) and, for end-to-end
metrics, that spread as a share of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record_goldens import parse_seeds  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 3,7919")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failed = True
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed |= not res["correct"]
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<30} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'/bound':>7}")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else float("nan")
            share = f"{spread / bounds[name]:7.2f}" if name in bounds else ""
            print(f"  {name:<30} {m['unit']:<9} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.3f} {share}")
        print(flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
