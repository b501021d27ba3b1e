import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import POOL_EDITS, POOL_VALUE_EDITS, edit_pool_record
from serinarr.cli import (
    EXIT_FIT,
    EXIT_INGEST,
    EXIT_OUTPUT,
    EXIT_SOLVE,
    RunConfig,
    _CONFIG_KEYS,
    _artifact,
    _format_sweep,
    _parse_kinds,
    build_parser,
    load_config_file,
    main,
    merge_config,
    run,
    sweep,
    write_atomic,
)
from serinarr.details import SelectionConfig
from serinarr.errors import IngestError, OutputError
from serinarr.fitting import load_pool
from serinarr.prototypes import CurveKind


@pytest.fixture
def sample_csv(tmp_path):
    """64 points with one deep dip, enough texture for every stage."""
    rows = []
    for i in range(64):
        x = i / 63
        y = 0.6 + 0.25 * math.sin(2 * math.pi * x)
        if 0.4 <= x <= 0.55:
            y -= 0.5
        rows.append(f"{x:.6f},{y:.6f}")
    path = tmp_path / "dipper.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


# ----------------------------------------------------------- small pieces


def test_write_atomic_roundtrip(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    write_atomic(target, "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in target.parent.iterdir() if p != target]
    assert leftovers == []


def test_write_atomic_blocked_by_file(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    with pytest.raises(OutputError):
        write_atomic(blocker / "x.txt", "data")


def test_artifact_keeps_dotted_stems():
    cfg = RunConfig(input="data/trend.2024.csv", out_dir="out")
    assert _artifact(cfg, "selection.json") == Path("out/trend.2024.selection.json")
    assert _artifact(cfg, "txt").name == "trend.2024.txt"


@pytest.mark.parametrize("out_dir", [None, ".", "sub/.."])
def test_narrate_refuses_to_overwrite_its_input(sample_csv, tmp_path, monkeypatch, capsys,
                                                out_dir):
    """With the default ``--out-dir .`` and ``--emit text``, narrating
    ``series.txt`` in its own directory would replace it with the text:
    that exits 6 with one output error line, and writes nothing."""
    series = tmp_path / "series.txt"
    series.write_bytes(sample_csv.read_bytes())
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    argv = ["narrate", "--input", "series.txt", "--levels", "3", "--emit", "text,json"]
    assert main(argv + (["--out-dir", out_dir] if out_dir else [])) == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert series.read_bytes() == sample_csv.read_bytes()
    assert sorted(tmp_path.iterdir()) == before
    assert main(argv + ["--out-dir", "sub"]) == 0  # the same run elsewhere writes
    assert series.read_bytes() == sample_csv.read_bytes()
    assert (tmp_path / "sub" / "series.txt").exists()


@pytest.mark.parametrize("cmd, config", [("narrate", "series.txt"), ("fit", "series.pool.jsonl")])
def test_no_artifact_overwrites_the_config_file(cmd, config, sample_csv, tmp_path, monkeypatch,
                                                capsys):
    """A config file in the out dir named like one of the run's artifacts,
    ``narrate``'s text or ``fit``'s pool, would be replaced by it: that
    exits 6 with one output error line and leaves the config as it was."""
    (tmp_path / "series.csv").write_bytes(sample_csv.read_bytes())
    conf = tmp_path / config
    conf.write_text("levels = 3\n")
    monkeypatch.chdir(tmp_path)
    assert main([cmd, "--input", "series.csv", "--config", config]) == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert conf.read_text() == "levels = 3\n"
    assert main([cmd, "--input", "series.csv", "--config", config, "--out-dir", "sub"]) == 0


@pytest.mark.parametrize("cmd, config, emit", [
    ("narrate", "series.pool.jsonl", "text,json,pool"),
    ("narrate", "series.heatmap.svg", "text,json,svg,heatmap,pool"),
    ("render", "series.heatmap.svg", None),
])
def test_a_refused_path_writes_no_file(cmd, config, emit, sample_csv, tmp_path, monkeypatch,
                                       capsys):
    """A config file named like a later artifact than the first is refused
    before any artifact is written: exit 6, one output error line, and
    the out dir, the config file included, holds the bytes it held."""
    (tmp_path / "series.csv").write_bytes(sample_csv.read_bytes())
    monkeypatch.chdir(tmp_path)
    args = ["--input", "series.csv", "--levels", "3"]
    if cmd == "render":
        assert main(["narrate", *args, "--emit", "json,pool"]) == 0
        capsys.readouterr()
    (tmp_path / config).write_text("levels = 3\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [cmd, *args, "--config", config] + (["--emit", emit] if emit else [])
    assert main(argv) == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("cmd, config, text", [
    ("narrate", "series.txt", "levels = 3\n"),
    ("fit", "series.pool.jsonl", "levels = 3\n"),
    ("sweep", "series.sweep.json", "emit = json\n"),
    ("render", "series.heatmap.svg", "levels = 3\n"),
])
def test_a_refused_path_costs_no_work(cmd, config, text, sample_csv, tmp_path, monkeypatch,
                                      capsys):
    """Every subcommand checks its artifact paths against the config file
    before it reads its input: a colliding config exits 6 with one output
    error line, prints nothing, and never reads the series."""
    (tmp_path / "series.csv").write_bytes(sample_csv.read_bytes())
    monkeypatch.chdir(tmp_path)
    args = ["--input", "series.csv"]
    if cmd == "render":
        assert main(["narrate", *args, "--levels", "3", "--emit", "json,pool"]) == 0
    (tmp_path / config).write_text(text)
    capsys.readouterr()

    def read(*a, **k):
        pytest.fail("the input was read before the artifact paths were checked")

    monkeypatch.setattr("serinarr.cli.load_series", read)
    assert main([cmd, *args, "--config", config]) == EXIT_OUTPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("output error: ") and "config file" in err and err.count("\n") == 1
    assert (tmp_path / config).read_text() == text


def test_parse_kinds():
    assert _parse_kinds("line,tooth") == (CurveKind.LINE, CurveKind.TOOTH)
    with pytest.raises(IngestError):
        _parse_kinds(" , ")
    with pytest.raises(ValueError):
        _parse_kinds("spline")


# -------------------------------------------------------------- config


def test_load_config_file(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "# comment\n"
        "\n"
        "levels = 3\n"
        "emit = text, json\n"
        "max_thr = 0.2\n"
    )
    values = load_config_file(cfg)
    assert values == {"levels": "3", "emit": "text, json", "max_thr": "0.2"}


def test_load_config_file_errors(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("levels 3\n")
    with pytest.raises(IngestError, match="line 1"):
        load_config_file(bad)
    with pytest.raises(IngestError):
        load_config_file(tmp_path / "missing.conf")


def test_merge_config_precedence(tmp_path):
    file_values = {"levels": "3", "max_thr": "0.3", "input": "file.csv",
                   "kinds": "line", "emit": "text,json"}
    cfg = merge_config({"levels": 4, "input": None}, file_values)
    assert cfg.levels == 4
    assert cfg.max_thr == 0.3
    assert cfg.input == "file.csv"
    assert cfg.kinds == (CurveKind.LINE,)
    assert cfg.emit == ("text", "json")
    assert cfg.min_thr == 0.02


def test_merge_config_requires_input():
    with pytest.raises(IngestError, match="input"):
        merge_config({"levels": 4}, {})


def test_merge_config_bad_number(tmp_path):
    with pytest.raises(IngestError, match="levels"):
        merge_config({"input": "x.csv"}, {"levels": "three"})


def test_run_config_validation():
    with pytest.raises(IngestError):
        RunConfig(input="x", format="parquet")
    with pytest.raises(IngestError):
        RunConfig(input="x", levels=7)
    with pytest.raises(IngestError):
        RunConfig(input="x", verbosity=0)
    with pytest.raises(OutputError):
        RunConfig(input="x", emit=("text", "pdf"))
    with pytest.raises(IngestError, match="max_thr > min_thr"):
        RunConfig(input="x", max_thr=0.01)  # below the default min_thr
    with pytest.raises(IngestError, match="max_thr > min_thr"):
        RunConfig(input="x", max_thr=0.0)
    with pytest.raises(IngestError, match="penalty_eps"):
        RunConfig(input="x", penalty_eps=0.0)
    with pytest.raises(IngestError, match="penalty_eps must be > 0, got nan"):
        RunConfig(input="x", penalty_eps=math.nan)
    with pytest.raises(IngestError, match="min_thr = 5e-324 .*; set penalty_eps"):
        RunConfig(input="x", min_thr=5e-324)
    with pytest.raises(IngestError, match="max_thr > min_thr"):
        RunConfig(input="x", min_thr=0.0)
    cfg = RunConfig(input="x", verbosity=3, max_thr=0.2)
    assert cfg.selection_config == SelectionConfig(max_thr=0.2, v=3)


# ------------------------------------------------------------- pipeline


def test_run_emits_every_artifact(sample_csv, tmp_path):
    out = tmp_path / "out"
    cfg = RunConfig(input=str(sample_csv), levels=3, verbosity=4,
                    out_dir=str(out),
                    emit=("text", "json", "svg", "heatmap", "pool"))
    report = run(cfg)

    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "dipper.details.svg",
        "dipper.heatmap.svg",
        "dipper.narration.json",
        "dipper.pool.jsonl",
        "dipper.selection.json",
        "dipper.summary.svg",
        "dipper.txt",
    ]
    assert len(report.outputs) == 7
    assert len(report.pool) > 0
    assert report.selection.s >= 1
    text = (out / "dipper.txt").read_text()
    assert re.fullmatch(
        r"In general, the series presents .*\.( In detail, .*\.)?\n", text, re.S)
    assert text.rstrip("\n") == report.text.full_text

    doc = json.loads((out / "dipper.selection.json").read_text())
    assert doc["summary_level"] == report.selection.s
    assert [tuple(d.values()) for d in doc["details"]] or doc["details"] == []
    narr = json.loads((out / "dipper.narration.json").read_text())
    assert narr[0]["role"] == "summary"
    assert any(line.startswith("pool:") for line in report.lines())


def test_run_is_byte_deterministic(sample_csv, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = RunConfig(input=str(sample_csv), levels=3, verbosity=4,
                        out_dir=str(out),
                        emit=("text", "json", "svg", "heatmap", "pool"))
        run(cfg)
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


def test_sweep_rows_and_failure_isolation(sample_csv):
    cfg = RunConfig(input=str(sample_csv), levels=3, verbosity=4)
    rows = sweep(cfg, [3, 9, 4])
    assert [r["levels"] for r in rows] == [3, 9, 4]
    assert "error" in rows[1] and "global_rmse" not in rows[1]
    for row in (rows[0], rows[2]):
        assert row["pool"] > 0
        assert row["global_rmse"] >= 0.0
    table = _format_sweep(rows)
    lines = table.splitlines()
    assert lines[0].split() == [
        "levels", "zones", "pool", "s", "details", "global_rmse", "wall_s"]
    assert "failed:" in lines[2]


# ----------------------------------------------------------- entry point


def test_main_narrate_ok(sample_csv, tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "text",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "In general, the series presents" in captured
    assert (out / "dipper.txt").exists()


def test_main_config_file(sample_csv, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"input = {sample_csv}\n"
        "levels = 3\n"
        "verbosity = 4\n"
        f"out_dir = {tmp_path / 'conf_out'}\n"
        "emit = text\n"
    )
    assert main(["narrate", "--config", str(conf)]) == 0
    assert (tmp_path / "conf_out" / "dipper.txt").exists()


def test_main_fit_writes_pool(sample_csv, tmp_path, capsys):
    out = tmp_path / "fit_out"
    code = main(["fit", "--input", str(sample_csv), "--levels", "3",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "dipper.pool.jsonl").exists()
    assert "pool:" in capsys.readouterr().out


def test_main_sweep_prints_table(sample_csv, capsys):
    code = main(["sweep", "--input", str(sample_csv), "--verbosity", "4",
                 "--levels-list", "3,4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].lstrip().startswith("levels")
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("raw", [",", ""])
def test_main_rejects_empty_kinds(raw, sample_csv, capsys):
    code = main(["narrate", "--input", str(sample_csv), "--kinds", raw])
    assert code == EXIT_INGEST
    assert capsys.readouterr().err == (
        "ingest error: at least one curve kind is required\n")
    with pytest.raises(SystemExit) as exc:  # an unknown kind stays a usage error
        main(["narrate", "--input", str(sample_csv), "--kinds", "spline"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["narrate", "sweep"])
def test_main_bad_format_is_a_usage_error(command, sample_csv):
    """An unknown --format ends in argparse's usage message and exit 2,
    with no traceback, when run as ``python -m serinarr``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "serinarr", command, "--input", str(sample_csv),
         "--format", "bogus"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert err[0].startswith(f"usage: serinarr {command}")
    assert err[-1].startswith(f"serinarr {command}: error: argument --format")


def test_narrate_near_edge_sample_writes_no_warnings(tmp_path):
    """A sample 1e-200 past a zone edge narrates with an empty stderr:
    the bilinear fitter drops the breakpoint whose edge gap squares to 0
    instead of dividing by it."""
    ts = (0.0, 1e-200, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 1.0)
    vs = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
    csv = tmp_path / "edge.csv"
    csv.write_text("".join(f"{t!r},{v}\n" for t, v in zip(ts, vs)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "serinarr", "narrate", "--input", str(csv),
         "--levels", "1", "--verbosity", "2", "--emit", ""],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "In general, the series presents" in proc.stdout


@pytest.mark.parametrize("raw", ["3,x", ","])
def test_main_sweep_rejects_bad_levels_list(raw, sample_csv, capsys):
    code = main(["sweep", "--input", str(sample_csv), "--levels-list", raw])
    assert code == EXIT_INGEST
    err = capsys.readouterr().err
    assert err.startswith("ingest error: --levels-list")
    assert len(err.splitlines()) == 1


def test_main_sweep_honours_config_emit(sample_csv, tmp_path, capsys):
    out = tmp_path / "sweep_out"
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        f"input = {sample_csv}\n"
        "verbosity = 4\n"
        f"out_dir = {out}\n"
        "emit = json\n"
    )
    assert main(["sweep", "--config", str(conf), "--levels-list", "3"]) == 0
    assert [p.name for p in out.iterdir()] == ["dipper.sweep.json"]
    rows = json.loads((out / "dipper.sweep.json").read_text())
    assert [row["levels"] for row in rows] == [3]


def test_main_sweep_json_is_byte_identical_across_runs(sample_csv, tmp_path, capsys):
    """The saved rows hold no timings; the printed table keeps ``wall_s``."""
    saved = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["sweep", "--input", str(sample_csv), "--verbosity", "4",
                     "--levels-list", "3,4", "--emit", "json",
                     "--out-dir", str(out)]) == 0
        saved.append((out / "dipper.sweep.json").read_bytes())
        assert "wall_s" in capsys.readouterr().out
    assert saved[0] == saved[1]
    assert all("wall_s" not in row for row in json.loads(saved[0]))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_main_artifacts_follow_the_umask(sample_csv, tmp_path, capsys, umask, mode):
    """Every artifact gets ``0o666 & ~umask``, as ``open(path, "w")`` gives."""
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["narrate", "--input", str(sample_csv), "--levels", "3",
                     "--verbosity", "4", "--out-dir", str(out),
                     "--emit", "text,json,svg,heatmap,pool"]) == 0
    finally:
        os.umask(old)
    files = sorted(out.iterdir())
    assert len(files) == 7
    assert {p.name: p.stat().st_mode & 0o777 for p in files} == {
        p.name: mode for p in files}


def test_main_render_from_saved_artifacts(sample_csv, tmp_path, capsys):
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    assert not (out / "dipper.summary.svg").exists()
    code = main(["render", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out)])
    assert code == 0
    for name in ("dipper.summary.svg", "dipper.details.svg",
                 "dipper.heatmap.svg"):
        assert (out / name).exists()


def _truncate_bytes(path):
    path.write_bytes(path.read_bytes()[:3000])


def _truncate_lines(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:20]))


def _empty(path):
    path.write_text("")


@pytest.mark.parametrize("render_args, damage", [
    (["--levels", "3", "--verbosity", "1"], None),  # summary level 2 > 1
    (["--levels", "2", "--verbosity", "4"], None),  # pool holds 8 zones
    (["--levels", "3", "--verbosity", "4"], _truncate_bytes),
    (["--levels", "3", "--verbosity", "4"], _truncate_lines),
    (["--levels", "3", "--verbosity", "4"], _empty),
], ids=["verbosity-below-summary", "levels-mismatch", "truncated-record",
        "truncated-at-line", "empty-file"])
def test_main_render_rejects_mismatched_artifacts(
        sample_csv, tmp_path, capsys, render_args, damage):
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    if damage is not None:
        damage(out / "dipper.pool.jsonl")
    capsys.readouterr()
    code = main(["render", "--input", str(sample_csv), "--out-dir", str(out)]
                + render_args)
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert len(err.splitlines()) == 1
    assert not (out / "dipper.summary.svg").exists()


def test_main_render_rejects_another_grid_before_decoding_records(sample_csv, tmp_path, capsys):
    """A saved pool whose header holds another zone count than the series'
    is rejected from its header alone.  This 0.12 MiB pool of one record
    over 1,000 zones and 999 records on the last zone loads into a 7.6 MiB
    (records, zones) matrix; ``render`` exits 6 with the zone count
    message before decoding a record, and its traced peak stays small."""
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    n = 1000
    records = [{"n_zones": n, "kinds": ["line"], "n_infeasible": 0}] + [
        {"id": k, "kind": "line", "params": {"a": 0.5, "b": 0.0}, "zone_end": n - 1,
         "zone_errs": [0.0] * (n if k == 0 else 1), "zone_start": 0 if k == 0 else n - 1}
        for k in range(n)]
    pool = out / "dipper.pool.jsonl"
    pool.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    assert load_pool(pool).errs.nbytes == n * n * 8
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["render", "--input", str(sample_csv), "--levels", "3",
                     "--verbosity", "4", "--out-dir", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OUTPUT
    assert capsys.readouterr().err == (
        f"output error: dipper.pool.jsonl has {n} zones but --levels 3 gives 8; "
        "render with the --levels narrate used\n")
    assert peak < 2 ** 20
    assert not list(out.glob("*.svg"))


@pytest.mark.parametrize("edit", [e for _, e, taken in POOL_EDITS if not taken],
                         ids=[name for name, _, taken in POOL_EDITS if not taken])
def test_main_render_rejects_damaged_pool(sample_csv, tmp_path, capsys, edit):
    """Each pool edit the per-line loader rejects exits 6 with one
    ``output error:`` line and writes no chart."""
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    pool = out / "dipper.pool.jsonl"
    pool.write_text(edit(pool.read_text()), newline="")
    capsys.readouterr()
    code = main(["render", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out)])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: cannot load")
    assert len(err.splitlines()) == 1
    assert not (out / "dipper.summary.svg").exists()


@pytest.mark.parametrize("kind, edit", [case[1:] for case in POOL_VALUE_EDITS],
                         ids=[case[0] for case in POOL_VALUE_EDITS])
def test_main_render_rejects_pool_values_that_break_a_rule(
        sample_csv, tmp_path, capsys, kind, edit):
    """A saved record whose values break a params rule or its zone range
    exits 6 with one ``output error: cannot load`` line and writes no
    chart."""
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3", "--verbosity", "4",
        "--kinds", "line,bilinear,tooth,sinusoid", "--out-dir", str(out),
        "--emit", "json,pool",
    ]) == 0
    pool = out / "dipper.pool.jsonl"
    pool.write_text(edit_pool_record(pool.read_text(), kind, edit))
    capsys.readouterr()
    code = main(["render", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out)])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: cannot load")
    assert len(err.splitlines()) == 1
    assert not (out / "dipper.summary.svg").exists()


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity"])
def test_main_render_rejects_non_finite_zone_errors(sample_csv, tmp_path, capsys, spelling):
    """A saved pool whose records' first zone error is not finite loads,
    as ``dump_pool`` writes such values, but ``render`` exits 6 with one
    ``output error:`` line and writes no chart."""
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    pool = out / "dipper.pool.jsonl"
    header, *lines = pool.read_text().splitlines()
    lines = [re.sub(r'"zone_errs": \[[^,\]]*', f'"zone_errs": [{spelling}', line)
             for line in lines]
    pool.write_text("\n".join([header, *lines]) + "\n")
    load_pool(pool)
    capsys.readouterr()
    code = main(["render", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out)])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error:") and "non-finite" in err
    assert len(err.splitlines()) == 1
    assert not list(out.glob("*.svg"))


def test_main_render_rejects_summary_not_the_tiling(sample_csv, tmp_path, capsys):
    """Saved summary ids that name pool descriptors but not the tiling
    re-solved at the summary level are an output error, not a chart."""
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    sel_path = out / "dipper.selection.json"
    doc = json.loads(sel_path.read_text())
    assert doc["summary_ids"] != [0, 5]
    doc["summary_ids"] = [0, 5]  # both in the pool
    sel_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["render", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out)])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: dipper.selection.json summary ids")
    assert len(err.splitlines()) == 1
    assert not (out / "dipper.summary.svg").exists()


# Edits of one saved value whose json type is wrong: (id, artifact, key,
# new value from the old one).  A pool edit changes the first record whose
# zone_start is 2.
_WRONG_TYPES = [
    ("zone-err-null", "pool.jsonl", "zone_errs", lambda errs: [None, *errs[1:]]),
    ("zone-err-string", "pool.jsonl", "zone_errs", lambda errs: ["x", *errs[1:]]),
    ("zone-err-list", "pool.jsonl", "zone_errs", lambda errs: [[1], *errs[1:]]),
    ("zone-errs-dict", "pool.jsonl", "zone_errs",
     lambda errs: {str(k): e for k, e in enumerate(errs)}),
    ("zone-start-float", "pool.jsonl", "zone_start", float),
    ("zone-err-true", "pool.jsonl", "zone_errs", lambda errs: [True, *errs[1:]]),
    ("zone-err-401-digits", "pool.jsonl", "zone_errs", lambda errs: [10 ** 400, *errs[1:]]),
    ("param-true", "pool.jsonl", "params", lambda p: {**p, min(p): True}),
    ("param-string", "pool.jsonl", "params", lambda p: {**p, min(p): "0.5"}),
    ("id-float", "pool.jsonl", "id", float),
    ("kind-unknown", "pool.jsonl", "kind", lambda _: "spline"),
    ("gain-null", "selection.json", "per_zone_gain", lambda _: None),
    ("gain-string", "selection.json", "per_zone_gain", lambda _: "x"),
    ("gain-list", "selection.json", "per_zone_gain", lambda _: [1]),
]


@pytest.mark.parametrize("artifact, key, edit", [case[1:] for case in _WRONG_TYPES],
                         ids=[case[0] for case in _WRONG_TYPES])
def test_main_render_rejects_wrong_value_types(sample_csv, tmp_path, capsys,
                                               artifact, key, edit):
    """A saved value of the wrong json type exits 6 with one ``output
    error:`` line and writes no chart."""
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    path = out / f"dipper.{artifact}"
    if artifact == "selection.json":
        docs = [json.loads(path.read_text())]
    else:
        docs = [json.loads(line) for line in path.read_text().splitlines()]
    doc = next(d for d in docs if artifact == "selection.json" or d.get("zone_start") == 2)
    doc[key] = edit(doc[key])
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    capsys.readouterr()
    code = main(["render", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out)])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error: cannot load")
    assert len(err.splitlines()) == 1
    assert not (out / "dipper.summary.svg").exists()


_TOO_DEEP = "[" * 100_000  # json nested past the interpreter's recursion limit


@pytest.mark.parametrize("artifact, line", [
    ("pool.jsonl", 0), ("pool.jsonl", 1), ("selection.json", 0)],
    ids=["pool-header", "pool-record", "selection"])
def test_main_render_rejects_json_nested_too_deep(sample_csv, tmp_path, capsys,
                                                   artifact, line):
    """A saved line of json nested past the recursion limit exits 6 with
    one ``output error: cannot load`` line, not a ``RecursionError``
    traceback, and writes no chart."""
    out = tmp_path / "render_out"
    assert main([
        "narrate", "--input", str(sample_csv), "--levels", "3",
        "--verbosity", "4", "--out-dir", str(out), "--emit", "json,pool",
    ]) == 0
    path = out / f"dipper.{artifact}"
    lines = path.read_text().splitlines()
    lines[line] = _TOO_DEEP
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["render", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out)])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot load {path}")
    assert len(err.splitlines()) == 1
    assert not list(out.glob("*.svg"))


def test_main_narrate_rejects_json_input_nested_too_deep(tmp_path, capsys):
    """A json input nested past the recursion limit exits 3 with one
    ``ingest error: invalid json`` line and writes nothing."""
    path = tmp_path / "deep.json"
    path.write_text('{"values": ' + _TOO_DEEP + "]" * len(_TOO_DEEP) + "}")
    out = tmp_path / "out"
    code = main(["narrate", "--input", str(path), "--format", "json", "--levels", "2",
                 "--out-dir", str(out)])
    assert code == EXIT_INGEST
    err = capsys.readouterr().err
    assert err.startswith("ingest error: invalid json:")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_main_narrate_pool_into_new_dir(sample_csv, tmp_path, capsys):
    out = tmp_path / "fresh" / "dir"
    code = main(["narrate", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out), "--emit", "pool"])
    assert code == 0
    assert (out / "dipper.pool.jsonl").exists()


def test_main_empty_emit_writes_nothing(sample_csv, tmp_path, capsys):
    out = tmp_path / "quiet"
    code = main(["narrate", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(out), "--emit", ""])
    assert code == 0
    assert not out.exists()


def test_main_render_needs_artifacts(sample_csv, tmp_path, capsys):
    code = main(["render", "--input", str(sample_csv),
                 "--out-dir", str(tmp_path / "empty")])
    assert code == EXIT_OUTPUT
    assert "run narrate" in capsys.readouterr().err


def test_main_exit_ingest(tmp_path, capsys):
    code = main(["narrate", "--input", str(tmp_path / "nope.csv")])
    assert code == EXIT_INGEST
    assert "ingest error:" in capsys.readouterr().err


def test_main_bad_thresholds_fail_before_reading(
        sample_csv, tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a bad threshold must fail before any input is read")

    monkeypatch.setattr("serinarr.cli.load_series", unreachable)
    conf = tmp_path / "c.conf"
    conf.write_text("penalty_eps = 0\n")
    out = tmp_path / "out"
    for argv in (
        ["narrate", "--max-thr", "0.01"],
        ["narrate", "--config", str(conf)],
        ["render", "--max-thr", "0"],
    ):
        code = main(argv + ["--input", str(sample_csv), "--out-dir", str(out)])
        assert code == EXIT_INGEST, argv
        err = capsys.readouterr().err
        assert err.startswith("ingest error:"), argv
        assert len(err.splitlines()) == 1, argv
    assert not out.exists()


@pytest.mark.parametrize("line, reason", [
    ("penalty_eps = nan", "penalty_eps must be > 0, got nan"),
    ("min_thr = 5e-324", "min_thr = 5e-324 is too small to derive penalty_eps from; "
                         "set penalty_eps"),
], ids=["nan-penalty-eps", "subnormal-min-thr"])
def test_main_bad_penalty_fails_before_reading(
        line, reason, sample_csv, tmp_path, capsys, monkeypatch):
    """A nan ``penalty_eps``, or a ``min_thr`` so small that the derived
    ``penalty_eps`` underflows to 0, exits 3 with one line naming the key
    to change, before any input is read."""
    def unreachable(*args):
        raise AssertionError("a bad penalty must fail before any input is read")

    monkeypatch.setattr("serinarr.cli.load_series", unreachable)
    conf = tmp_path / "c.conf"
    conf.write_text(line + "\n")
    code = main(["narrate", "--input", str(sample_csv), "--config", str(conf),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INGEST
    assert capsys.readouterr().err == f"ingest error: {reason}\n"


def test_main_unknown_config_key_fails_before_reading(
        sample_csv, tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("an unknown config key must fail before any input is read")

    monkeypatch.setattr("serinarr.cli.load_series", unreachable)
    conf = tmp_path / "c.conf"
    conf.write_text("max-thr = 0.01\nverbosty = 99\n")
    code = main(["narrate", "--config", str(conf), "--input", str(sample_csv),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INGEST
    err = capsys.readouterr().err
    assert err.startswith("ingest error: config key max-thr: unknown")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", ["input", "config"])
def test_main_non_utf8_file_is_an_ingest_error(bad, sample_csv, tmp_path, capsys):
    """An input or config file holding byte 0xff exits 3 with one
    ``ingest error:`` line naming the file, not a UnicodeDecodeError
    traceback."""
    data, conf = tmp_path / "in.csv", tmp_path / "c.conf"
    data.write_bytes(sample_csv.read_bytes())
    conf.write_bytes(b"levels = 3\n")
    target = {"input": data, "config": conf}[bad]
    target.write_bytes(b"\xff" + target.read_bytes())
    code = main(["narrate", "--input", str(data), "--config", str(conf),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INGEST
    err = capsys.readouterr().err
    assert err.startswith("ingest error: cannot read ") and str(target) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_file_with_utf8_bom_reads_its_first_key(tmp_path):
    """A byte order mark before a config file's first key is not part of
    the key, so the key is known."""
    conf = tmp_path / "c.conf"
    conf.write_bytes(b"\xef\xbb\xbflevels = 3\nverbosity = 2\n")
    assert load_config_file(conf) == {"levels": "3", "verbosity": "2"}


@pytest.mark.parametrize("fmt, text, reason", [
    ("csv", "t,y\n", "no data rows found in csv input"),
    ("csv", "t,y\nweek,count\n0,1\n1,2\n", "line 2: cannot parse 'week,count'"),
    pytest.param("csv", "0,1\n5\n2,3\n", "line 2: '5' is not a t,value row",
                 id="csv-one-cell-row-among-two"),
    pytest.param("csv", "0,1,junk\n1,2\n", "line 1: '0,1,junk' has more than two cells",
                 id="csv-three-cells"),
    ("trends_csv", "Category: All\n\nWeek,x\n2024-01-07\n", "expected date,value"),
    ("trends_csv", "Category: All\n\nWeek,x\n2024-01-07,lots\n", "bad value"),
    ("trends_csv", "Category: All\n\nWeek,x\n\n", "no data rows found in trends_csv"),
    ("json", '{"points": [{"t": 0, "v": 1}, {"t": 1}]}', 'json "points" entries'),
    ("json", '{"values": [1, "many"]}', 'json "values" must be'),
    ("json", '{"values": "31415926"}', 'json "values" must be a list'),
    ("json", '{"values": [true, false, 3]}', 'json "values" must be a list'),
    ("json", '{"points": "t,v"}', 'json "points" must be a list'),
    ("json", '{"points": [{"t": 0, "v": 1}, {"t": true, "v": 2}]}', 'json "points" entries'),
    ("json", '{"points": [{"t": 0, "v": false}, {"t": 1, "v": 2}]}', 'json "points" entries'),
    ("json", '{"values": ["1", "2.5", " 3 ", "4"]}', 'json "values" must be a list'),
    ("json", '{"points": [{"t": 0, "v": 1}, {"t": "1", "v": 2}]}', 'json "points" entries'),
    ("json", '{"points": [{"t": 0, "v": 1}, {"t": 1, "v": "2"}]}', 'json "points" entries'),
    pytest.param("json", '{"values": [1, 1%s, 3]}' % ("0" * 400),
                 'json "values" must be a list', id="json-int-past-float-range"),
    pytest.param("csv", "".join(f"{t},{(-1) ** t}e308\n" for t in range(16)),
                 "exceeds the float64 range", id="csv-value-range-past-float"),
    pytest.param("csv", "".join(f"{2 * t}e307,{t % 3}\n" for t in range(-8, 8)),
                 "exceeds the float64 range", id="csv-time-range-past-float"),
    pytest.param("json", '{"values": [%s]}' % ", ".join(["1e308, -1e308"] * 8),
                 "exceeds the float64 range", id="json-value-range-past-float"),
    pytest.param("json", '{"points": [%s]}' % ", ".join(
        f'{{"t": {2 * t}e307, "v": {t % 3}}}' for t in range(-8, 8)),
                 "exceeds the float64 range", id="json-time-range-past-float"),
])
def test_main_rejects_bad_input_rows(fmt, text, reason, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code = main(["narrate", "--input", str(bad), "--format", fmt,
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_INGEST
    err = capsys.readouterr().err
    assert err.startswith("ingest error:") and reason in err
    assert len(err.splitlines()) == 1


def test_main_skips_blank_csv_lines(tmp_path, capsys):
    rows = [f"{t},{(t * 7) % 5}" for t in range(8)]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("\n".join(rows) + "\n")
    spaced.write_text("\n\n".join(rows) + "\n  \n")
    for path in (plain, spaced):
        assert main(["fit", "--input", str(path), "--levels", "2",
                     "--out-dir", str(tmp_path)]) == 0
    assert ((tmp_path / "plain.pool.jsonl").read_bytes()
            == (tmp_path / "spaced.pool.jsonl").read_bytes())


def test_main_exit_fit(tmp_path, capsys):
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("0,1\n1,2\n")
    code = main(["narrate", "--input", str(tiny), "--levels", "1",
                 "--kinds", "tooth"])
    assert code == EXIT_FIT
    assert "fit error:" in capsys.readouterr().err


def test_out_of_memory_is_a_fit_error(sample_csv, tmp_path, capsys, monkeypatch):
    """A ``MemoryError`` while fitting exits 4 with one ``fit error:``
    line and no traceback, and fails only its own sweep row."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("serinarr.fitting._fit_ranges", exhausted)
    for command in ("narrate", "fit"):
        code = main([command, "--input", str(sample_csv), "--levels", "3",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_FIT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fit error: out of memory")
    rows = sweep(RunConfig(input=str(sample_csv), verbosity=4), [3, 4])
    assert [row["error"] for row in rows] == [err[0].removeprefix("fit error: ")] * 2


def test_main_exit_solve(sample_csv, tmp_path, capsys):
    conf = tmp_path / "eps.conf"
    conf.write_text("penalty_eps = 1e-4\n")
    code = main(["narrate", "--input", str(sample_csv), "--levels", "3", "--config", str(conf),
                 "--min-thr", "1e-9", "--out-dir", "/tmp/unused"])
    assert code == EXIT_SOLVE
    assert "solve error:" in capsys.readouterr().err


def test_penalty_bound_fails_before_the_fit(sample_csv, tmp_path, capsys, monkeypatch):
    """A zone count that breaks the penalty bound (penalty_eps * v *
    n_zones >= min_thr) of a ``penalty_eps`` the config file sets exits 5
    before any fitting, in every sweep row too."""
    def unreachable(*args, **kwargs):
        raise AssertionError("build_pool reached")

    monkeypatch.setattr("serinarr.cli.build_pool", unreachable)
    conf = tmp_path / "eps.conf"
    conf.write_text("penalty_eps = 1e-4\n")
    for extra in (["--levels", "6"], ["--levels", "5", "--verbosity", "8"]):
        code = main(["narrate", "--input", str(sample_csv), "--config", str(conf),
                     "--out-dir", str(tmp_path)] + extra)
        assert code == EXIT_SOLVE
        assert "solve error: penalty_eps * v * n_zones" in capsys.readouterr().err
    rows = sweep(RunConfig(input=str(sample_csv), verbosity=8, penalty_eps=1e-4), [5, 6])
    assert [row["levels"] for row in rows] == [5, 6]
    assert all(row["error"].startswith("penalty_eps * v * n_zones") for row in rows)


@pytest.mark.parametrize("extra", [["--levels", "6"], ["--levels", "5", "--verbosity", "8"]],
                         ids=["levels-6", "levels-5-verbosity-8"])
def test_unset_penalty_eps_fits_the_zone_grid(extra, tmp_path, capsys):
    """With no ``penalty_eps`` set, the default 1e-4 would break the
    penalty bound here; the derived one keeps it, so the fixture narrates."""
    fixture = Path(__file__).parent / "data" / "concert_weekly.csv"
    code = main(["narrate", "--input", str(fixture), "--format", "trends_csv",
                 "--out-dir", str(tmp_path)] + extra)
    assert code == 0, capsys.readouterr().err
    cfg = merge_config({"input": str(fixture), "levels": int(extra[1]),
                        "verbosity": int(extra[3]) if len(extra) > 2 else None}, {})
    sel = cfg.selection_config
    assert sel.penalty_eps * sel.v * 2 ** cfg.levels < sel.min_thr


@settings(max_examples=25, deadline=None)
@given(levels=st.integers(1, 4), verbosity=st.integers(1, 8), data=st.data())
def test_global_rmse_at_most_the_summary_error(levels, verbosity, data):
    """Details only ever lower a zone's error, so the selection's
    ``global_rmse`` is at most the summary's mean zone error, both summed
    left to right, whatever the series, levels and verbosity."""
    values = data.draw(st.lists(st.floats(-1e3, 1e3) | st.integers(-3, 3).map(float),
                                min_size=2 ** levels, max_size=80))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "series.csv"
        src.write_text("".join(f"{t},{v!r}\n" for t, v in enumerate(values)))
        report = run(RunConfig(input=str(src), levels=levels, verbosity=verbosity, emit=()))
    (summary,) = [lv for lv in report.levels if lv.v == report.selection.s]
    total = 0.0
    for e in summary.zone_errs:
        total += e
    assert report.selection.global_rmse <= total / 2 ** levels


_THRESHOLDS = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e-9, 0.02, 0.15, 1.0, 1e300,
                                math.inf, -math.inf, math.nan]) | st.floats(1e-6, 1.0) | st.floats()


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(1, 6), verbosity=st.integers(1, 8),
       file_values=st.dictionaries(st.sampled_from(["min_thr", "max_thr", "penalty_eps"]),
                                   _THRESHOLDS))
@example(levels=4, verbosity=5, file_values={"penalty_eps": math.nan})
def test_every_config_runs_or_exits_with_a_mapped_code(levels, verbosity, file_values):
    """Any levels 1-6, verbosity 1-8 and config-file thresholds, extremes
    included, narrate the fixture, printing a finite objective, or fail
    with a mapped exit code and one line on stderr; nothing ends in a
    traceback."""
    fixture = Path(__file__).parent / "data" / "concert_weekly.csv"
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "run.conf"
        conf.write_text("".join(f"{k} = {v!r}\n" for k, v in file_values.items()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["narrate", "--input", str(fixture), "--format", "trends_csv",
                         "--levels", str(levels), "--verbosity", str(verbosity),
                         "--config", str(conf), "--out-dir", tmp])
    if code == 0:
        assert err.getvalue() == ""
        (objective,) = re.findall(r"^objective: (.*)$", out.getvalue(), re.M)
        assert math.isfinite(float(objective)), objective
    else:
        assert code in (EXIT_INGEST, EXIT_FIT, EXIT_SOLVE, EXIT_OUTPUT), code
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


FIXTURE = Path(__file__).parent / "data" / "concert_weekly.csv"
HEATMAP_ARGV = ["narrate", "--input", str(FIXTURE), "--format", "trends_csv", "--levels", "2",
                "--verbosity", "6", "--emit", "heatmap"]


def test_fixture_heatmap_at_level_2_is_pinned(tmp_path, capsys):
    """Four zones cannot hold five or six fits, so the heatmap has rows
    1-4 only; the shown fits select 10 of its 16 cells."""
    assert main(HEATMAP_ARGV + ["--out-dir", str(tmp_path)]) == 0
    svg = (tmp_path / "concert_weekly.heatmap.svg").read_bytes()
    assert re.findall(rb">(\d+)</text>", svg) == [b"1", b"2", b"3", b"4"]
    assert svg.count(b"<rect") == 1 + 16
    assert svg.count(b'fill="#28a848"') == 10
    assert hashlib.sha256(svg).hexdigest() == (
        "1a83a6d3d2b7b457d88e5b513b2b4e6f06c1c3733b4609aa65d855d48da0b66f")


def test_heatmap_rows_are_the_feasible_levels_zone_errors(tmp_path, monkeypatch):
    """The heatmap gets one row per feasible level, labelled by its ``v``:
    that level's ``zone_errs``, each zone's error under its covering fit."""
    drawn = []
    monkeypatch.setattr("serinarr.cli.render_heatmap",
                        lambda matrix, labels, selected: drawn.append((matrix, labels)) or "")
    report = run(RunConfig(input=str(FIXTURE), format="trends_csv", levels=2, verbosity=6,
                           emit=("heatmap",), out_dir=str(tmp_path)))
    ((matrix, labels),) = drawn
    feasible = [lv for lv in report.levels if lv.feasible]
    assert labels == [lv.v for lv in feasible] == [1, 2, 3, 4]
    assert [tuple(row) for row in matrix] == [lv.zone_errs for lv in feasible]
    for row, level in zip(matrix, feasible):
        for id_ in level.chosen:
            d = report.pool.get(id_)
            for z in d.zones:
                assert row[z] == d.err(z)


@pytest.fixture(scope="module")
def saved_fixture_run(tmp_path_factory):
    """The bundled fixture narrated at level 3 with ``--emit json,pool``:
    the render argv without ``--out-dir``, and the directory it wrote."""
    fixture = Path(__file__).parent / "data" / "concert_weekly.csv"
    argv = ["--input", str(fixture), "--format", "trends_csv", "--levels", "3"]
    out = tmp_path_factory.mktemp("saved")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["narrate", *argv, "--out-dir", str(out), "--emit", "json,pool"]) == 0
    return argv, out


def _positions(doc, at=()):
    """The key path of every value in a decoded json document, its root first."""
    yield at
    if isinstance(doc, (dict, list)):
        for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _positions(v, at + (k,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_render_never_raises_on_a_mutated_artifact(saved_fixture_run, data):
    """One value anywhere in ``selection.json``, or in one line of the
    pool, replaced by any json value (RFC 8259 has no NaN or Infinity):
    ``render`` exits 0, or 6 with one ``output error:`` line; nothing
    ends in a traceback."""
    argv, saved = saved_fixture_run
    texts = {name: (saved / f"concert_weekly.{name}").read_text()
             for name in ("pool.jsonl", "selection.json")}
    name = data.draw(st.sampled_from(sorted(texts)))
    lines = texts[name].splitlines() if name == "pool.jsonl" else [texts[name]]
    k = data.draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[k])
    at = data.draw(st.sampled_from(list(_positions(doc))))
    value = data.draw(_JSON_VALUES)
    if at:
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        parent[at[-1]] = value
    else:
        doc = value
    lines[k] = json.dumps(doc)
    texts[name] = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        for artifact, text in texts.items():
            (Path(tmp) / f"concert_weekly.{artifact}").write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["render", *argv, "--out-dir", tmp])
    assert code in (0, EXIT_OUTPUT), (code, err.getvalue())
    if code == EXIT_OUTPUT:
        assert err.getvalue().startswith("output error:")
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def test_unset_penalty_eps_keeps_the_default_where_it_fits():
    """Every level and verbosity the default 1e-4 fits keeps it, so runs
    that worked before keep their bytes; the rest get half the bound."""
    for levels in range(1, 7):
        for v in range(1, 9):
            eps = RunConfig(input="x", levels=levels, verbosity=v).selection_config.penalty_eps
            if 1e-4 * v * 2 ** levels < 0.02:
                assert eps == 1e-4, (levels, v)
            else:
                assert eps == 0.02 / (2 * v * 2 ** levels), (levels, v)
    assert RunConfig(input="x", levels=6, penalty_eps=3e-5).selection_config.penalty_eps == 3e-5


def test_main_exit_output(sample_csv, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["narrate", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(blocker)])
    assert code == EXIT_OUTPUT
    assert "output error:" in capsys.readouterr().err


def test_main_failed_rename_leaves_no_temp_file(sample_csv, tmp_path, capsys):
    """An artifact path taken by a directory exits 6, and the temp file
    written beside it is removed."""
    (tmp_path / "dipper.txt").mkdir()
    code = main(["narrate", "--input", str(sample_csv), "--levels", "3",
                 "--verbosity", "4", "--out-dir", str(tmp_path)])
    assert code == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.glob(".dipper.txt.*")) == []


def test_parser_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["explode"])
    assert exc.value.code == 2


# The fields each subcommand does not read, so offers no flag for, each
# with a config-file value that changes nothing and one that fails the
# check.  A bad value exits 3, but a bad emit target is an output error.
_UNREAD = {
    "narrate": {},
    "fit": {"emit": ("text", "bogus"), "verbosity": ("2", "0"), "max_thr": ("0.5", "0.01"),
            "min_thr": ("0.1", "-1")},
    "sweep": {"levels": ("6", "9")},
    "render": {"emit": ("text", "bogus"), "kinds": ("sinusoid", "spline"),
               "min_thr": ("0.1", "0.5")},
}


def _helps(cmd):
    """Each long flag of ``cmd --help``, as a field name, and its help."""
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()) as out:
        main([cmd, "--help"])
    return {m[1].replace("-", "_"): m[2]
            for m in re.finditer(r"^  --([\w-]+)(?: \S+)?\s+(.*)$", out.getvalue(), re.M)}


def test_every_option_is_a_flag_that_shows_its_default(monkeypatch):
    """Each ``RunConfig`` field is a ``_CONFIG_KEYS`` key, and each key but
    penalty_eps is a flag of every subcommand whose help names the
    field's default, but for the fields a subcommand does not read
    (``_UNREAD``)."""
    monkeypatch.setenv("COLUMNS", "1000")  # one help line per flag
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert list(defaults) == list(_CONFIG_KEYS)
    for cmd, fixed in _UNREAD.items():
        helps = _helps(cmd)
        unread = {"penalty_eps"} | set(fixed)
        assert not unread & set(helps)
        for key, default in defaults.items():
            if key in unread:
                continue
            if default is dataclasses.MISSING:
                assert "default" not in helps[key], (cmd, key)
            else:
                shown = ",".join(getattr(v, "label", v) for v in default) \
                    if isinstance(default, tuple) else str(default)
                assert helps[key].endswith(f"(default {shown})"), (cmd, key, helps[key])


def _offers_no_unread_flag(cmd, sample_csv, tmp_path, capsys):
    """No flag of ``cmd`` for a field in ``_UNREAD[cmd]``: it is missing
    from the help, and giving it is a usage error (exit 2).  A config
    file's value for it is still checked, a bad one exiting 3 (6 for
    emit), and changes no output."""
    unread = _UNREAD[cmd]
    assert not set(unread) & set(_helps(cmd))
    out, conf = tmp_path / "out", tmp_path / "run.conf"
    args = [cmd, "--input", str(sample_csv), "--out-dir", str(out)] + (
        ["--levels-list", "2,3", "--emit", "json"] if cmd == "sweep" else ["--levels", "3"])
    if cmd == "render":  # the saved files first, so only the bad value can fail
        assert main(["narrate", "--input", str(sample_csv), "--levels", "3",
                     "--out-dir", str(out), "--emit", "json,pool"]) == 0
    for key, (good, bad) in unread.items():
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            main(args + ["--" + key.replace("_", "-"), good])
        assert exc.value.code == 2
        conf.write_text(f"{key} = {bad}\n")
        code = EXIT_OUTPUT if key == "emit" else EXIT_INGEST
        assert main(args + ["--config", str(conf)]) == code, key
        assert capsys.readouterr().err.count("\n") == 1
    assert main(args) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    suffix = {"fit": ".pool.jsonl", "render": ".svg", "sweep": ".sweep.json"}[cmd]
    for name in written:
        if name.endswith(suffix):
            (out / name).unlink()
    conf.write_text("".join(f"{key} = {good}\n" for key, (good, _) in unread.items()))
    assert main(args + ["--config", str(conf)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


@pytest.mark.parametrize("cmd", ["fit", "render"])
def test_fit_and_render_take_no_emit_flag(cmd, sample_csv, tmp_path, capsys):
    """``fit`` writes the pool and ``render`` the charts whatever is asked,
    so neither offers ``--emit``.  Nor does ``fit`` offer the verbosity
    and thresholds, which it does not read, nor ``render`` min_thr, or
    the kinds, which it takes from the saved pool."""
    _offers_no_unread_flag(cmd, sample_csv, tmp_path, capsys)


def test_sweep_takes_no_levels_flag(sample_csv, tmp_path, capsys):
    """``sweep`` takes its levels from ``--levels-list`` only."""
    _offers_no_unread_flag("sweep", sample_csv, tmp_path, capsys)


def test_main_builds_the_parser_once():
    build_parser.cache_clear()
    with contextlib.redirect_stderr(io.StringIO()):
        for _ in range(2):
            assert main(["narrate", "--input", "missing.csv"]) == EXIT_INGEST
    assert build_parser.cache_info().misses == 1


def test_parser_subcommands_present():
    parser = build_parser()
    for cmd in ("narrate", "fit", "sweep", "render"):
        args = parser.parse_args([cmd, "--input", "x.csv"])
        assert args.command == cmd
