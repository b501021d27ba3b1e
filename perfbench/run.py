"""serinarr benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload dense-walk --seed 3 --seconds 25 --trace 0

Run from anywhere inside a checkout; the benchmark measures the
``src/serinarr`` next to this directory.  It prints each metric with its
unit and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
record (environment, tail percentile, layer shares, spans) is written
to ``perfbench/_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

E2E_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_rate": "fraction",
}
LAYER_UNITS = {
    "ingest.load_ms": "ms",
    "ingest.normalize_ms": "ms",
    "fitting.build_pool_ms": "ms",
    "fitting.peak_alloc_mib": "MiB",
    "fitting.pool_size": "count",
    "fitting.feasible_ratio": "fraction",
    "fitting.line_ms": "ms",
    "fitting.bilinear_ms": "ms",
    "fitting.tooth_ms": "ms",
    "fitting.sinusoid_ms": "ms",
    "fitting.tooth_pairs": "count",
    "fitting.dump_pool_ms": "ms",
    "fitting.load_pool_ms": "ms",
    "cover.solve_cover_ms": "ms",
    "cover.feasible_levels": "count",
    "details.pick_summary_ms": "ms",
    "details.solve_details_ms": "ms",
    "details.candidates": "count",
    "details.selected": "count",
    "narration.build_narration_ms": "ms",
    "narration.units": "count",
    "textgen.realize_ms": "ms",
    "textgen.chars": "count",
    "render.render_enriched_ms": "ms",
    "render.render_heatmap_ms": "ms",
    "render.svg_bytes": "bytes",
    "cli.emit_self_ms": "ms",
    "cli.bytes_written": "bytes",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "fraction",
}

# Spans that render or write artifacts.
EMIT_SPANS = ("render.render_enriched", "render.render_heatmap", "cli.emit",
              "cli.write_atomic", "fitting.dump_pool")
SETUP_SPAWNS = 11  # after one untimed spawn that warms the file cache
CHILD_TIMEOUT = 150  # seconds; the whole run must end within 180


def child_env() -> dict[str, str]:
    """Single-threaded numeric libraries; no serinarr or Python path overrides."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SERINARR_THREADS", "PYTHONPATH", "PYTHONHOME")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.  The host-speed
    sampler (calibrate.py) then runs on the CPU whose times it rescales:
    on a shared host each virtual CPU changes speed on its own."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def setup_seconds(env: dict[str, str]) -> float:
    """Median time from spawning a fresh interpreter to ``import serinarr.cli``
    done, each spawn rescaled to the nominal host speed like an op."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import serinarr.cli; print(time.monotonic())")
    intervals = []
    with calibrate.Sampler() as sampler:
        for _ in range(SETUP_SPAWNS + 1):
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable, "-c", code, str(SRC)], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT, check=True)
            intervals.append((t0, float(proc.stdout)))
    # The first spawn warms the file cache and is dropped.
    return statistics.median(sampler.scale(intervals[1:]))


def worker(args: list[str], env: dict[str, str]) -> None:
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                   cwd=ROOT, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT,
                   check=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    try:
        setup = None if trace else setup_seconds(env)
        worker(["prepare", *common], env)
        result_file = work / "result.json"
        worker(["run", *common, "--seconds", str(seconds), "--trace", str(int(trace)),
                "--result", str(result_file)], env)
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setup is not None:
        result["metrics"]["setup_s"] = setup
        result["metrics"]["ok_rate"] = 1 - result["failed"] / result["attempted"]
    return result


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    units = LAYER_UNITS if trace else E2E_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    env = result["env"]
    print(f"env: commit={env['commit']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} serinarr={env['serinarr']}")
    golden = "goldens.json" if result["golden"] else "run-to-run identity only (no goldens for this seed)"
    print(f"{workload} seed={seed} trace={int(trace)}: {result['ops']} timed ops over "
          f"{result['inputs']} inputs; outputs checked against {golden}; "
          f"{result['failed']} of {result['attempted']} ops failed")
    for msg in result["errors"]:
        print(f"  error: {msg}")
    for name, m in metrics.items():
        note = (f"  (p{result['tail_percentile']:.1f} of {result['ops']} ops)"
                if name == "op_ms_tail" else "")
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}{note}")
    if not trace:
        print(f"  wall time per op, not rescaled: median {result['wall_ms_p50']:.6g} ms; "
              f"host-speed probe median {result['probe_ms_p50']:.4g} ms "
              f"(nominal {calibrate.PROBE_S * 1e3:g} ms)")
    if trace:
        top = sorted(result["shares"].items(), key=lambda kv: -kv[1])[:6]
        print("  self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        emit = sum(v for k, v in result["shares"].items() if k in EMIT_SPANS)
        print(f"  render plus emit share: {emit:.1%}")
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=int(trace), metrics=metrics)
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one serinarr benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "serinarr" / "__init__.py").is_file():
        print(f"error: no serinarr package at {SRC}; run inside a serinarr checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report(args.workload, args.seed, bool(args.trace), result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
