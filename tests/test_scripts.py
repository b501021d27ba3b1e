"""Smoke tests for the scripts under ``scripts/``: each runs on the
bundled fixture at a small zone grid and prints what its docstring
promises."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def test_demo_narrate_runs_on_fixture(tmp_path):
    out = tmp_path / "out"
    proc = _run_script("demo_narrate.py", "--levels", "3", "--verbosity", "4",
                       "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("In general, the series presents")
    assert (out / "concert_weekly.txt").exists()


def test_zone_sweep_runs_on_fixture(tmp_path):
    proc = _run_script("zone_sweep.py", "--levels-list", "2,3", "--verbosity", "4",
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == [
        "levels", "zones", "pool", "s", "details", "global_rmse", "wall_s"]
    assert [line.split()[0] for line in lines[1:]] == ["2", "3"]


def test_zone_sweep_rejects_bad_arguments(tmp_path):
    for args in (["--levels-list", "3,x"], ["--levels-list", ","], ["--format", "bogus"]):
        proc = _run_script("zone_sweep.py", *args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert "Traceback" not in proc.stderr, args
        assert proc.stderr.splitlines()[-1].startswith("zone_sweep.py: error:"), args
