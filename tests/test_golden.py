"""Byte-for-byte goldens for the bundled fixture.

``tests/data/golden/L<levels>/`` holds what ``narrate`` writes for the
concert fixture at zone levels 3, 4 and 5 with default settings.  The
text and json digests are the same ones the benchmark checks
(``perfbench/goldens.json``), so the two can never drift apart.  To
re-record after an intended output change, run ``narrate`` with the
arguments below into each level directory and update both files.  The
saved descriptor pool (``--emit pool``, about 0.7 MB at level 5) is
pinned by its sha256 only.  The benchmark's deep-details inputs, whose
cost is the detail search, and its dense walks, the only inputs fitted
with every kind, sinusoid included, are checked against its digests
directly; the functions its tracer wraps must still exist, and its own
count of tooth plateau pairs must match what the fitter scores.  One
input of each, deep-details wave-0 and dense-walk walk-0, also has its
saved pool pinned by sha256, so every zone error of those fits is
checked, not only what the narration shows of them.  The detail
search's work, sets scored and pruned, is pinned on every deep-details
wave and on two larger two-sine searches at level 6.
"""

import hashlib
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import load_perfbench, make_series
from serinarr import fitting
from serinarr.cli import main
from serinarr.cover import solve_cover
from serinarr.details import DEFAULT_MAX_THR, SelectionConfig, pick_summary, solve_details
from serinarr.ingest import load_series
from serinarr.prototypes import PARAM_COUNTS, CurveKind

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "concert_weekly.csv"
GOLDEN = ROOT / "tests" / "data" / "golden"
BENCH_GOLDENS = ROOT / "perfbench" / "goldens.json"
STEM = FIXTURE.stem
SVGS = ("summary.svg", "details.svg", "heatmap.svg")
SUFFIXES = ("txt", "selection.json", "narration.json") + SVGS
POOL_SHA256 = {
    3: "974e879e8da6b6f9b8e31973c48e252081fb8e1acbf87e859a33ad35452b437b",
    4: "29bce2dc4afcd22b74e9a438fea2fdee8b955e1bf9942b95178a7a2ff31a6db2",
    5: "f7e2d614ba68ee67db46f13a4d4d96d461ef661fc6b025a016fdb707b9c2183b",
}
BENCH_POOL_SHA256 = {
    ("deep-details", "wave-0"): "5a38a85e367da919d8028fcae2daa1837c773d87ff853ce5c6d9cbcd7e6c4221",
    ("dense-walk", "walk-0"): "da5ff8dbc205e632ffd438d3e083646f9a73f1b4b9962a2448693bff6675db24",
}


def _narrate(levels, out_dir, emit="text,json,svg,heatmap"):
    return main([
        "narrate", "--input", str(FIXTURE), "--format", "trends_csv",
        "--levels", str(levels), "--emit", emit, "--out-dir", str(out_dir),
    ])


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_fixture_narrate_matches_golden(levels, tmp_path, capsys):
    assert _narrate(levels, tmp_path) == 0
    want_dir = GOLDEN / f"L{levels}"
    for suffix in SUFFIXES:
        got = (tmp_path / f"{STEM}.{suffix}").read_bytes()
        assert got == (want_dir / f"{STEM}.{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_golden_digests_match_benchmark(levels):
    digests = json.loads(BENCH_GOLDENS.read_text())["fixture-narrate"]["*"]
    for suffix, want in digests[f"L{levels}"].items():
        data = (GOLDEN / f"L{levels}" / f"{STEM}.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, suffix


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_fixture_pool_matches_digest(levels, tmp_path, capsys):
    assert _narrate(levels, tmp_path, emit="pool") == 0
    data = (tmp_path / f"{STEM}.pool.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == POOL_SHA256[levels]


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_render_from_saved_artifacts_matches_golden(levels, tmp_path, capsys):
    assert _narrate(levels, tmp_path, emit="json,pool") == 0
    assert main([
        "render", "--input", str(FIXTURE), "--format", "trends_csv",
        "--levels", str(levels), "--out-dir", str(tmp_path),
    ]) == 0
    for suffix in SVGS:
        got = (tmp_path / f"{STEM}.{suffix}").read_bytes()
        assert got == (GOLDEN / f"L{levels}" / f"{STEM}.{suffix}").read_bytes(), suffix


def test_benchmark_spans_resolve():
    """The functions the benchmark's tracer wraps, and the arguments its
    details counter reads, exist; otherwise ``--trace 1`` runs fail."""
    tracing = load_perfbench("tracing")
    for mod, fn, name, _ in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(f"serinarr.{mod}"), fn)), name
    params = list(inspect.signature(solve_details).parameters)
    assert params[:4] == ["pool", "levels", "s", "cfg"]


def _tooth_edge_counts(series):
    """Each tooth range's plateau edge count, by ``_tooth_edges`` over
    every range that holds enough samples for a tooth fit."""
    span_i, span_j = np.triu_indices(series.n_zones)
    first = series.zone_edges[span_i]
    n = series.zone_edges[span_j + 1] - first
    fits = n >= PARAM_COUNTS[CurveKind.TOOTH]
    _, row = fitting._tooth_edges(series.xs, first[fits], n[fits], span_i[fits],
                                  span_j[fits], series.n_zones)
    return np.bincount(row).tolist()


def test_benchmark_tooth_pairs_follow_the_fitter(monkeypatch):
    """``fitting.tooth_pairs``, which the benchmark computes from the
    series on its own, counts the plateau-edge pairs of every range's
    edges as ``_tooth_edges`` builds them, the edge rule the fitter
    follows; the fitter scores only the cells its bound leaves open."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends
    worker = load_perfbench("worker")
    walk = worker.workloads.random_walk(np.random.default_rng(7919))
    assert len(walk) == 2048
    for series in (load_series(FIXTURE, "trends_csv", 4), make_series(walk, 4)):
        pairs = sum(p * (p - 1) // 2 for p in _tooth_edge_counts(series))
        assert pairs == worker.tooth_pairs(series)


def test_tooth_bound_skips_most_cells(monkeypatch):
    """On the benchmark's seed-7919 dense walks, the tooth fitter scores
    at most half the cells of the ranges' own (start, end) tables: the
    exact bound stays on.  It scores about 25% and 23% of them."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends
    worker = load_perfbench("worker")
    rng = np.random.default_rng(7919)
    cells = fitting._tooth_cells
    for _ in range(2):
        series = make_series(worker.workloads.random_walk(rng), 4)
        scored = []
        monkeypatch.setattr(fitting, "_tooth_cells",
                            lambda *a: scored.append(cells(*a)) or scored[-1])
        fitting.build_pool(series, (CurveKind.TOOTH,))
        table = sum((p - 1) * p for p in _tooth_edge_counts(series))
        assert 0 < sum(s.size for s in scored) <= table // 2


def _match_benchmark_goldens(workload, inputs, work):
    """Run the named ops of ``workload``'s seed-7919 pass and check their
    output bytes against the benchmark's digests."""
    workloads = load_perfbench("workloads")
    plan = workloads.plan(workload, 7919, work)
    workloads.write_inputs(plan)
    want = json.loads(BENCH_GOLDENS.read_text())[workload]["7919"]
    ops = {op.input: op for op in plan.ops}
    for name in inputs:
        op = ops[name]
        assert main(list(op.argv)) == 0, name
        for suffix, digest in want[name].items():
            data = op.file(suffix).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (name, suffix)


def test_deep_details_match_benchmark_goldens(tmp_path, capsys):
    """Every deep-details op (level 5, verbosity 8, penalty_eps 1e-5) at
    the benchmark's held-out seed, as its goldens name them: the only
    inputs where the detail search is a large share of the run."""
    names = sorted(json.loads(BENCH_GOLDENS.read_text())["deep-details"]["7919"])
    assert len(names) == 12
    _match_benchmark_goldens("deep-details", names, tmp_path)


def test_deep_details_search_is_bounded(tmp_path, monkeypatch, capsys):
    """The first draw of each deep-details shape at the held-out seed:
    the bound prunes, and the search scores at most 2000 sets."""
    results = []

    def recorded(*args, **kwargs):
        results.append(solve_details(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr("serinarr.cli.solve_details", recorded)
    workloads = load_perfbench("workloads")
    plan = workloads.plan("deep-details", 7919, tmp_path)
    workloads.write_inputs(plan)
    ops = {op.input: op for op in plan.ops}
    for k in range(len(workloads.WAVE_SHAPES)):
        assert main(list(ops[f"wave-{k}"].argv)) == 0
        res = results.pop()
        assert res.nodes_pruned > 0, k
        assert res.nodes_expanded <= 2000, k


# (nodes_expanded, nodes_pruned) of the detail search, recorded before the
# search read its candidates from the pool's columns.  A change of search
# order or bound moves them while the selection stays the same.
WAVE_SEARCH_WORK = {
    0: (139, 101), 1: (163, 105), 2: (675, 458), 3: (363, 159),
    4: (143, 103), 5: (163, 105), 6: (677, 460), 7: (363, 159),
    8: (141, 103), 9: (163, 105), 10: (676, 459), 11: (339, 156),
}
L6_SEARCH_WORK = {
    ((2.3, 6.1, 4.0), 10): (1517, 1223),
    ((2.3, 7.1, 2.0), 12): (5463, 4195),
}


def test_deep_details_search_work_is_pinned(tmp_path, monkeypatch, capsys):
    """Sets scored and pruned on every deep-details wave of the held-out seed."""
    results = []

    def recorded(*args, **kwargs):
        results.append(solve_details(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr("serinarr.cli.solve_details", recorded)
    workloads = load_perfbench("workloads")
    plan = workloads.plan("deep-details", 7919, tmp_path)
    workloads.write_inputs(plan)
    ops = {op.input: op for op in plan.ops}
    got = {}
    for k in WAVE_SEARCH_WORK:
        assert main(list(ops[f"wave-{k}"].argv)) == 0
        res = results.pop()
        got[k] = res.nodes_expanded, res.nodes_pruned
    assert got == WAVE_SEARCH_WORK


@pytest.mark.parametrize("shape,v", sorted(L6_SEARCH_WORK))
def test_l6_search_work_is_pinned(shape, v):
    """Sets scored and pruned on a 1,024-point two-sine series at level 6,
    a search some ten times larger than a deep-details wave's."""
    workloads = load_perfbench("workloads")
    series = make_series(workloads.two_sine(np.random.default_rng(1), shape, n=1024), 6)
    pool = fitting.build_pool(series)
    levels = solve_cover(pool, v)
    s, met = pick_summary(levels, DEFAULT_MAX_THR)
    res = solve_details(pool, levels, s, SelectionConfig(v=v, penalty_eps=1e-5), met)
    assert (res.nodes_expanded, res.nodes_pruned) == L6_SEARCH_WORK[shape, v]


def test_dense_walk_matches_benchmark_goldens(tmp_path, capsys):
    """Both 2048-point walks of the benchmark's held-out seed, fitted
    with all four kinds: the only golden that pins sinusoid fits."""
    _match_benchmark_goldens("dense-walk", ["walk-0", "walk-1"], tmp_path)


@pytest.mark.parametrize("workload,name", sorted(BENCH_POOL_SHA256))
def test_benchmark_pool_matches_digest(workload, name, tmp_path, capsys):
    """The saved pool of one seed-7919 input per fitted benchmark
    workload, with that op's levels, kinds and config."""
    workloads = load_perfbench("workloads")
    plan = workloads.plan(workload, 7919, tmp_path)
    workloads.write_inputs(plan)
    op = next(op for op in plan.ops if op.input == name)
    argv = list(op.argv)
    argv[argv.index("--emit") + 1] = "pool"
    assert main(argv) == 0
    data = op.file("pool.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == BENCH_POOL_SHA256[workload, name]
