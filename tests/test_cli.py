import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from serinarr.cli import (
    EXIT_FIT,
    EXIT_INGEST,
    EXIT_OUTPUT,
    EXIT_SOLVE,
    RunConfig,
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


@pytest.mark.parametrize("fmt, text, reason", [
    ("csv", "t,y\n", "no data rows found in csv input"),
    ("trends_csv", "Category: All\n\nWeek,x\n2024-01-07\n", "expected date,value"),
    ("trends_csv", "Category: All\n\nWeek,x\n2024-01-07,lots\n", "bad value"),
    ("trends_csv", "Category: All\n\nWeek,x\n\n", "no data rows found in trends_csv"),
    ("json", '{"points": [{"t": 0, "v": 1}, {"t": 1}]}', 'json "points" entries'),
    ("json", '{"values": [1, "many"]}', 'json "values" must be'),
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


def test_main_exit_solve(sample_csv, capsys):
    code = main(["narrate", "--input", str(sample_csv), "--levels", "3",
                 "--min-thr", "1e-9", "--out-dir", "/tmp/unused"])
    assert code == EXIT_SOLVE
    assert "solve error:" in capsys.readouterr().err


def test_penalty_bound_fails_before_the_fit(sample_csv, tmp_path, capsys, monkeypatch):
    """A zone count that breaks the penalty bound (penalty_eps * v *
    n_zones >= min_thr) exits 5 before any fitting, in every sweep row too."""
    def unreachable(*args, **kwargs):
        raise AssertionError("build_pool reached")

    monkeypatch.setattr("serinarr.cli.build_pool", unreachable)
    for extra in (["--levels", "6"], ["--levels", "5", "--verbosity", "8"]):
        code = main(["narrate", "--input", str(sample_csv),
                     "--out-dir", str(tmp_path)] + extra)
        assert code == EXIT_SOLVE
        assert "solve error: penalty_eps * v * n_zones" in capsys.readouterr().err
    rows = sweep(RunConfig(input=str(sample_csv), verbosity=8), [5, 6])
    assert [row["levels"] for row in rows] == [5, 6]
    assert all(row["error"].startswith("penalty_eps * v * n_zones") for row in rows)


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


def test_parser_subcommands_present():
    parser = build_parser()
    for cmd in ("narrate", "fit", "sweep", "render"):
        args = parser.parse_args([cmd, "--input", "x.csv"])
        assert args.command == cmd
