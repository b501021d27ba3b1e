"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import MissingSpanError, Tracer  # noqa: E402
from worker import Checker, Runner, import_cli, load_goldens, tail  # noqa: E402

CLI = import_cli()


def _inputs(workload: str, seed: int, work: Path) -> dict[str, bytes]:
    p = workloads.plan(workload, seed, work)
    workloads.write_inputs(p)
    return {path.name: path.read_bytes() for path, _ in p.files}


@pytest.mark.parametrize("workload", ["dense-walk", "deep-details"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _inputs(workload, 5, tmp_path / "a")
    assert first == _inputs(workload, 5, tmp_path / "b")
    assert first != _inputs(workload, 6, tmp_path / "c")


def _fixture_op(tmp_path, level=3):
    p = workloads.plan("fixture-narrate", 0, tmp_path)
    return p, next(op for op in p.ops if op.levels == level)


class _Flip(Checker):
    """Flips one byte of the op's text output before checking it."""

    def __call__(self, op):
        path = op.file("txt")
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01
        path.write_bytes(bytes(data))
        return super().__call__(op)


def test_flipped_output_byte_counts_as_failed_op(tmp_path):
    _, op = _fixture_op(tmp_path)
    golden = load_goldens()["fixture-narrate"]["*"]
    runner = Runner(CLI, Checker(golden))
    runner.op(op)
    assert (runner.attempted, runner.failed) == (1, 0)

    # Against the golden digests.
    runner = Runner(CLI, _Flip(golden))
    runner.op(op)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "goldens.json" in runner.check.errors[0]

    # Against an earlier op of the same run, for seeds without goldens.
    runner = Runner(CLI, Checker(None))
    runner.op(op)
    flip = _Flip(None)
    flip.first = runner.check.first
    runner.check = flip
    runner.op(op)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "earlier op" in flip.errors[0]


def test_missing_output_file_counts_as_failed_op(tmp_path):
    _, op = _fixture_op(tmp_path)
    runner = Runner(CLI, Checker(None))
    bad = workloads.Op(op.input, op.argv, op.out_dir, op.stem, op.writes,
                       op.checks + ("absent.svg",), op.path, op.format, op.levels)
    runner.op(bad)
    assert runner.failed == 1


def test_traced_ops_fire_every_span_and_report_every_metric(tmp_path):
    p = workloads.plan("fixture-narrate", 0, tmp_path)
    runner = Runner(CLI, Checker(None))
    tracer = Tracer()
    with tracer.installed():
        for op in p.ops:
            runner.op(op, tracer)
    assert runner.failed == 0
    tracer.require(p.spans)
    assert CLI.build_pool.__name__ == "build_pool"
    assert not hasattr(CLI.build_pool, "__wrapped__")  # originals restored
    outside = {f"fitting.{k}_ms" for k in workloads.ALL_KINDS}
    outside |= {"fitting.tooth_pairs", "fitting.peak_alloc_mib", "trace.overhead_frac"}
    assert set(tracer.layer_metrics()) | outside == set(run.LAYER_UNITS)


def test_missing_span_fails_the_traced_run(tmp_path):
    p = workloads.plan("fixture-narrate", 0, tmp_path)
    text_only = workloads.narrate_op("L3", workloads.FIXTURE, "trends_csv", 3,
                                     tmp_path, "text")
    tracer = Tracer()
    runner = Runner(CLI, Checker(None))
    with tracer.installed():
        runner.op(text_only, tracer)
    assert runner.failed == 0
    with pytest.raises(MissingSpanError, match="render.render_enriched"):
        tracer.require(p.spans)


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    times = [float(v) for v in range(1, 101)]
    value, pct = tail(times)
    assert value == 90.0
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 89 / 99)


def test_sampler_rescales_by_the_probes_taken_during_each_interval():
    sampler = calibrate.Sampler()
    nominal = calibrate.PROBE_S
    # The host runs at the nominal speed for 1 s, then 1.5 times slower.
    sampler.times = [0.02 * k for k in range(100)]
    sampler.probes = [nominal] * 50 + [1.5 * nominal] * 50
    assert sampler.scale([(0.2, 0.8), (1.2, 1.9)]) == pytest.approx([0.6, 0.7 / 1.5])
    with pytest.raises(RuntimeError, match="no host-speed sample"):
        sampler.scale([(5.0, 5.1)])


def test_sampler_child_samples_until_stdin_closes():
    with calibrate.Sampler() as sampler:
        time.sleep(0.3)
    assert len(sampler.probes) >= 5
    assert sampler.times == sorted(sampler.times)
    assert sampler.proc.returncode == 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_run_fails_without_a_serinarr_checkout(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rerender", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
