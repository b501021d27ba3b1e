"""One workload in a fresh interpreter: prepare its inputs, or measure it.

    python worker.py prepare --workload W --seed S --work DIR
    python worker.py run --workload W --seed S --seconds T --trace 0|1 \
        --work DIR --result FILE

``prepare`` writes the generated inputs and makes the workload's untimed
set-up calls.  ``run`` calls ``serinarr.cli.main(argv)`` in-process in
whole round-robin passes, checks every op's outputs, rescales op times
to the nominal host speed (calibrate.py) and writes the result as JSON.
With ``--trace 1`` it alternates untraced passes with passes under layer
spans, then times the per-kind fits, computed counts and tracemalloc
peak outside any op.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def import_cli():
    """Import ``serinarr.cli`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(workloads.SRC))
    import serinarr.cli

    where = Path(serinarr.__file__).resolve().parent
    want = (workloads.SRC / "serinarr").resolve()
    if where != want:
        raise ImportError(f"serinarr resolved to {where}, expected {want}")
    return serinarr.cli


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Output check for one op: every file exists, the golden suffixes
    match their recorded digests, and every file is byte-identical to
    the first op on the same input in this run."""

    def __init__(self, golden: dict | None):
        self.golden = golden or {}
        self.first: dict[tuple[str, str], str] = {}
        self.errors: list[str] = []

    def __call__(self, op: workloads.Op) -> bool:
        ok = True
        for suffix in op.checks:
            try:
                got = digest(op.file(suffix))
            except OSError as exc:
                ok = self._fail(f"{op.input}: {exc}")
                continue
            want = self.golden.get(op.input, {}).get(suffix)
            if want is not None and got != want:
                ok = self._fail(f"{op.input}.{suffix}: digest differs from goldens.json")
            if self.first.setdefault((op.input, suffix), got) != got:
                ok = self._fail(f"{op.input}.{suffix}: differs from an earlier op")
        return ok

    def _fail(self, msg: str) -> bool:
        self.errors.append(msg)
        return False


def call_cli(cli, argv) -> tuple[int | None, str]:
    """``cli.main(argv)`` with its output captured; (exit code, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:
        return None, traceback.format_exc()
    return rc, err.getvalue()


class Runner:
    """Runs ops and keeps the tally of attempted and failed ones."""

    def __init__(self, cli, check: Checker):
        self.cli = cli
        self.check = check
        self.attempted = 0
        self.failed = 0

    def op(self, op: workloads.Op, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run one op; returns its ``time.monotonic()`` start and end."""
        for suffix in op.writes:
            op.file(suffix).unlink(missing_ok=True)
        call = lambda: call_cli(self.cli, op.argv)  # noqa: E731
        t0 = time.monotonic()
        rc, err = tracer.op(call) if tracer is not None else call()
        t1 = time.monotonic()
        self.attempted += 1
        if rc != 0:
            self.check.errors.append(f"{op.input}: exit {rc}: {err.strip()[-400:]}")
            self.failed += 1
        elif not self.check(op):
            self.failed += 1
        return t0, t1

    def warm_up(self, ops, seconds: float = 1.0) -> None:
        """Untimed ops, one pass or ``seconds``, whichever ends first: lazy
        imports, first-call costs and the file cache settle before timing."""
        start = time.perf_counter()
        for op in ops:
            self.op(op)
            if time.perf_counter() - start > seconds:
                return


def repeat(seconds: float, one_pass) -> None:
    """Call ``one_pass()`` while the next call is expected to end within
    ``seconds``; at least once."""
    start = time.perf_counter()
    n = 0
    while True:
        one_pass()
        n += 1
        if (time.perf_counter() - start) * (n + 1) / n > seconds:
            return


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it: (value, percentile)."""
    xs = sorted(times_ms)
    k = max(len(xs) - 11, 0)
    pct = 100.0 * k / (len(xs) - 1) if len(xs) > 1 else 100.0
    return xs[k], pct


def tooth_pairs(series) -> int:
    """Candidate plateau-edge pairs the tooth fit scores over all ranges
    (computed from the series, following the rule in fitting.py)."""
    from serinarr.prototypes import PARAM_COUNTS, CurveKind

    n = series.n_zones
    total = 0
    for i in range(n):
        for j in range(i, n):
            x = series.xs[series.zone_slice(i, j)]
            if len(x) < PARAM_COUNTS[CurveKind.TOOTH]:
                continue
            lo, hi = series.zone_x_range(i, j)
            pos = np.arange(i, j + 2, dtype=float) / n
            if j - i + 1 <= 4:
                pos = np.unique(np.concatenate([pos, x]))
            m = int(((pos >= lo) & (pos <= hi)).sum())
            total += m * (m - 1) // 2
    return total


def fitting_outside_ops(p: workloads.Plan) -> dict[str, float]:
    """Per-kind fit time, computed tooth pairs and tracemalloc peak of one
    pool build, over the workload's distinct inputs, outside any op."""
    from serinarr.fitting import build_pool
    from serinarr.ingest import load, normalize
    from serinarr.prototypes import CurveKind

    inputs = {op.input: op for op in p.ops}.values()
    kinds = tuple(CurveKind.from_label(k) for k in p.kinds)
    per_kind = dict.fromkeys(workloads.ALL_KINDS, 0.0)
    pairs = 0
    peak = 0
    for op in inputs:
        series = normalize(load(op.path, op.format), op.levels)
        for label in workloads.ALL_KINDS:
            t0 = time.perf_counter()
            build_pool(series, (CurveKind.from_label(label),))
            per_kind[label] += time.perf_counter() - t0
        pairs += tooth_pairs(series)
        tracemalloc.start()
        try:
            build_pool(series, kinds)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    n = len(inputs)
    out = {f"fitting.{k}_ms": v * 1e3 / n for k, v in per_kind.items()}
    out["fitting.tooth_pairs"] = pairs / n
    out["fitting.peak_alloc_mib"] = peak / 2**20
    return out


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "commit": git_commit(workloads.ROOT),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "serinarr": str(Path(sys.modules["serinarr"].__file__).parent),
    }


def prepare(workload: str, seed: int, work: Path) -> int:
    p = workloads.plan(workload, seed, work)
    workloads.write_inputs(p)
    if p.setup:
        cli = import_cli()
        for argv in p.setup:
            rc, err = call_cli(cli, argv)
            if rc != 0:
                print(f"set-up call {' '.join(argv)} failed: exit {rc}: {err}",
                      file=sys.stderr)
                return 1
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli = import_cli()
    p = workloads.plan(workload, seed, work)
    golden = load_goldens().get(workload, {}).get(p.golden_key)
    runner = Runner(cli, Checker(golden))
    runner.warm_up(p.ops)

    result: dict = {"env": environment(), "golden": golden is not None,
                    "inputs": len(p.ops)}
    if not trace:
        # Op times are rescaled to the nominal host speed (calibrate.py).
        intervals: list[tuple[float, float]] = []
        with calibrate.Sampler() as sampler:
            repeat(seconds, lambda: intervals.extend(runner.op(op) for op in p.ops))
        times = [t * 1e3 for t in sampler.scale(intervals)]
        wall = [end - start for start, end in intervals]
        value, pct = tail(times)
        metrics = {
            "op_ms_p50": statistics.median(times),
            "op_ms_tail": value,
            "ops_per_s": len(times) / (sum(times) / 1e3),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result.update(ops=len(times), tail_percentile=pct, times_ms=times,
                      wall_ms=[w * 1e3 for w in wall], intervals=intervals,
                      probes=list(zip(sampler.times, sampler.probes)),
                      wall_ms_p50=statistics.median(wall) * 1e3,
                      probe_ms_p50=statistics.median(sampler.probes) * 1e3)
    else:
        # Untraced and traced passes alternate, so drift during the run
        # does not bias the tracing overhead.
        tracer = Tracer()
        untraced: list[tuple[float, float]] = []
        traced: list[tuple[float, float]] = []

        def pair():
            untraced.extend(runner.op(op) for op in p.ops)
            with tracer.installed():
                traced.extend(runner.op(op, tracer) for op in p.ops)

        with calibrate.Sampler() as sampler:
            repeat(seconds, pair)
        tracer.require(p.spans)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (
            sum(sampler.scale(traced)) / sum(sampler.scale(untraced)) - 1)
        metrics.update(fitting_outside_ops(p))
        self_times = tracer.self_times()
        total = sum(self_times.values())
        result.update(ops=len(traced),
                      shares={k: v / total for k, v in self_times.items()},
                      spans=tracer.dump())
    result.update(attempted=runner.attempted, failed=runner.failed,
                  errors=runner.check.errors[:20], metrics=metrics)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prepare", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)
    if args.mode == "prepare":
        return prepare(args.workload, args.seed, args.work)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
