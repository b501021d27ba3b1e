"""Acceptance gate: twelve checks, one visible PASS/FAIL line each.

Each criterion prints its verdict through ``capsys.disabled`` so the
lines show up in a plain ``pytest -v`` run, not only under ``-s``.
"""

import itertools
import math
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import full_random_pool, make_series, series_exact
from test_cover import brute_force_cover
from test_details import _no_redundancy, _ok_pair, fake_levels, naive_details

from serinarr.cli import RunConfig, run, sweep
from serinarr.cover import solve_cover
from serinarr.details import SelectionConfig, pick_summary, solve_details
from serinarr.fitting import DEFAULT_KINDS, build_pool, fit_one
from serinarr.narration import SHARPNESS, classify_bilinear, quantize
from serinarr.prototypes import BilinearParams, CurveKind, ToothParams, evaluate

FIXTURE = Path(__file__).parent / "data" / "concert_weekly.csv"


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:02d}: FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"criterion {num:02d}: PASS  {label}")


def wavy_series(n, levels):
    x = np.arange(n) / (n - 1)
    y = 0.5 + 0.33 * np.sin(2 * np.pi * 2.3 * x) + 0.12 * np.sin(
        2 * np.pi * 7.1 * x + 0.4)
    return make_series(y.tolist(), levels=levels)


def test_criterion_01_pool_cardinality(capsys):
    with criterion(capsys, 1, "pool cardinality 408 / 1584"):
        pool16 = build_pool(wavy_series(512, 4), DEFAULT_KINDS)
        assert len(pool16) == 408
        t0 = time.perf_counter()
        pool32 = build_pool(wavy_series(512, 5), DEFAULT_KINDS)
        elapsed = time.perf_counter() - t0
        assert len(pool32) == 1584
        assert elapsed < 60.0


def test_criterion_02_fitting_exactness(capsys):
    with criterion(capsys, 2, "noise-free prototype recovery"):
        def rmse(s, d, i, j):
            sl = s.zone_slice(i, j)
            res = s.ys[sl] - evaluate(d.params, s.xs[sl])
            return float(np.sqrt(np.mean(res ** 2)))

        x = np.arange(129) / 128.0
        s = series_exact(0.3 + 0.2 * x, levels=2)
        d = fit_one(s, CurveKind.LINE, 0, 3)
        assert rmse(s, d, 0, 3) < 1e-6
        assert abs(d.params.a - 0.3) < 1e-9 and abs(d.params.b - 0.2) < 1e-9

        truth = BilinearParams(x_b=0.5, y_l=1.0, y_b=0.0, y_r=1.0,
                               x_lo=0.0, x_hi=1.0)
        s = series_exact(evaluate(truth, x), levels=2)
        d = fit_one(s, CurveKind.BILINEAR, 0, 3)
        assert rmse(s, d, 0, 3) < 1e-3 and abs(d.params.x_b - 0.5) < 1e-2

        truth = ToothParams(y_out_l=0.8, y_out_r=0.8, x_s=0.25, x_e=0.5,
                            y_in=0.2)
        s = series_exact(evaluate(truth, x), levels=2)
        d = fit_one(s, CurveKind.TOOTH, 0, 3)
        assert rmse(s, d, 0, 3) < 1e-3
        assert abs(d.params.x_s - 0.25) < 1e-2 and abs(d.params.x_e - 0.5) < 1e-2

        x = np.arange(257) / 256.0
        s = series_exact(0.5 + 0.3 * np.sin(2 * np.pi * 3.0 * x), levels=2)
        d = fit_one(s, CurveKind.SINUSOID, 0, 3)
        assert rmse(s, d, 0, 3) < 1e-3
        assert abs(d.params.amp - 0.3) < 0.02 and abs(d.params.freq - 3.0) < 0.1


def test_criterion_03_cover_matches_brute_force(capsys):
    with criterion(capsys, 3, "cover solver == brute force, 50 pools"):
        for case in range(50):
            rnd = random.Random(9000 + case)
            kinds = (CurveKind.LINE,) if case % 2 else (
                CurveKind.LINE, CurveKind.TOOTH)
            pool = full_random_pool(rnd, 8, kinds=kinds)
            levels = solve_cover(pool, 5)
            for lv in levels:
                want_cost, want_ids = brute_force_cover(pool, lv.v)
                assert lv.feasible
                assert lv.cost == want_cost
                assert lv.chosen == want_ids


def test_criterion_04_details_match_naive_enumerator(capsys):
    with criterion(capsys, 4, "detail solver == naive enumerator, 50 instances"):
        for case in range(50):
            rnd = random.Random(7000 + case)
            pool = full_random_pool(rnd, 8)
            levels = solve_cover(pool, 5)
            max_thr = rnd.uniform(0.15, 0.45)
            min_thr = rnd.uniform(0.02, 0.08)
            s, met = pick_summary(levels, max_thr)
            cfg = SelectionConfig(max_thr=max_thr, min_thr=min_thr, v=5,
                                  penalty_eps=1e-5)
            candidates = {i for lv in levels for i in lv.chosen}
            candidates -= set(levels[s - 1].chosen)
            assert len(candidates) <= 15
            res = solve_details(pool, levels, s, cfg, threshold_met=met)
            want_obj, want_details = naive_details(pool, levels, s, cfg)
            assert res.objective == want_obj
            assert tuple(res.details) == want_details
            chosen = [(pool.get(i), lv) for i, lv in res.details]
            summary = [(pool.get(i), s) for i in res.summary]
            for (a, la), (b, lb) in itertools.combinations(chosen + summary, 2):
                assert _ok_pair(a, la, b, lb, cfg.min_thr)
            assert _no_redundancy(chosen)


def test_criterion_05_min_thr_is_strict(capsys):
    from conftest import make_descriptor, make_pool
    from test_details import level_of

    with criterion(capsys, 5, "improvement of exactly min_thr rejected"):
        min_thr = 0.03125
        base = [
            make_descriptor(0, 0, 3, [0.5] * 4, 4),
            make_descriptor(1, 0, 1, [0.46875, 0.46875], 4),
            make_descriptor(2, 2, 3, [0.5, 0.5], 4),
        ]
        cfg = SelectionConfig(max_thr=0.6, min_thr=min_thr, v=2,
                              penalty_eps=1e-4)

        pool = make_pool(base, 4)
        levels = [level_of(1, (0,), pool), level_of(2, (1, 2), pool)]
        assert solve_details(pool, levels, 1, cfg).details == ()

        bumped = make_descriptor(1, 0, 1, [0.46875 - 1e-6, 0.46875], 4)
        pool2 = make_pool([base[0], bumped, base[2]], 4)
        levels2 = [level_of(1, (0,), pool2), level_of(2, (1, 2), pool2)]
        assert solve_details(pool2, levels2, 1, cfg).details == ((1, 2),)


def test_criterion_06_summary_level_rule(capsys):
    with criterion(capsys, 6, "summary picks level 3 for maxima .2/.16/.14"):
        s, met = pick_summary(fake_levels([0.2, 0.16, 0.14]), 0.15)
        assert (s, met) == (3, True)


def test_criterion_07_classification_fidelity(capsys):
    with criterion(capsys, 7, "angle classification incl A=150 boundary"):
        assert classify_bilinear(90.0, 270.0, 0.0) == ("peak", SHARPNESS[3])
        # symmetric V with 45 degree sides
        assert classify_bilinear(90.0, 90.0, 0.0) == ("valley", SHARPNESS[3])
        assert classify_bilinear(90.0, 150.0, 0.0)[0] == "valley"
        assert classify_bilinear(90.0, 150.0 - 1e-9, 0.0)[0] == "valley"
        assert classify_bilinear(90.0, 150.0 + 1e-9, 0.0)[0] == "constant"


def test_criterion_08_quantizer_boundaries(capsys):
    with criterion(capsys, 8, "quantizer boundaries and 7.3x invariance"):
        six = SHARPNESS
        m = 6.0
        probes = [0.0, m / 6, 2 * m / 6 - 1e-9, 5 * m / 6, m]
        want = [six[0], six[1], six[1], six[5], six[5]]
        assert [quantize(v, m, six) for v in probes] == want
        c = 7.3
        for v in probes:
            assert quantize(c * v, c * m, six) == quantize(v, m, six)


def crit9_values(n=256):
    ys = []
    for i in range(n):
        x = i / (n - 1)
        base = 0.12 + 0.76 * x
        y = base
        if x <= 0.125:
            y = 0.12 * (1 - x / 0.125)
        elif x <= 0.25:
            y = (0.12 + 0.76 * 0.25) * (x - 0.125) / 0.125
        elif 0.375 <= x <= 0.5:
            f = (x - 0.375) / 0.125
            if 0.35 <= f <= 0.65:
                y = base - 0.18
        elif 0.5 <= x <= 0.75:
            side = (x - 0.5) if x <= 0.625 else (0.75 - x)
            y = base + 0.22 * side / 0.125
        elif x >= 0.875:
            f = (x - 0.875) / 0.125
            if 0.35 <= f <= 0.65:
                y = 1.0

        ys.append(y)
    return ys


def write_csv(path, values):
    path.write_text("".join(f"{i},{v}\n" for i, v in enumerate(values)))


def test_criterion_09_text_conformance(capsys, tmp_path):
    with criterion(capsys, 9, "connectives occurs/followed/then/finally"):
        src = tmp_path / "four_features.csv"
        write_csv(src, crit9_values())
        cfg = RunConfig(input=str(src), levels=3, verbosity=4,
                        out_dir=str(tmp_path), emit=("text",))
        report = run(cfg)
        assert report.selection.s == 1
        assert len(report.selection.details) == 4
        assert re.fullmatch(
            r"In general, the series presents .*\. In detail, "
            r".* occurs at .*; followed by .*; then by .*; and finally by .*\.",
            report.text.full_text, re.S)
        for num in re.findall(r"\d+\.\d+", report.text.full_text):
            assert len(num.split(".")[1]) <= 2


def test_criterion_10_global_rmse_trend(capsys, tmp_path):
    with criterion(capsys, 10, "sweep 3/4/5 has non-increasing global rmse"):
        values = []
        for i in range(256):
            x = i / 255
            y = 0.5 + 0.22 * math.sin(2 * math.pi * 1.7 * x)
            y += 0.13 * math.sin(2 * math.pi * 5.3 * x)
            if 0.55 <= x <= 0.68:
                y -= 0.3
            values.append(y)
        src = tmp_path / "two_waves_one_notch.csv"
        write_csv(src, values)
        rows = sweep(RunConfig(input=str(src), verbosity=5), [3, 4, 5])
        rmses = [row["global_rmse"] for row in rows]
        assert all("error" not in row for row in rows)
        assert all(b <= a for a, b in zip(rmses, rmses[1:]))


def test_criterion_11_byte_identical_reruns(capsys, tmp_path):
    with criterion(capsys, 11, "reruns byte-identical (text/json/svg)"):
        src = tmp_path / "series.csv"
        write_csv(src, crit9_values())
        snapshots = []
        for name in ("first", "second"):
            out = tmp_path / name
            cfg = RunConfig(input=str(src), levels=3, verbosity=4,
                            out_dir=str(out),
                            emit=("text", "json", "svg", "heatmap"))
            run(cfg)
            snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert snapshots[0] == snapshots[1]
        assert len(snapshots[0]) == 6


def test_criterion_12_end_to_end_runtime(capsys, tmp_path):
    with criterion(capsys, 12, "bundled fixture, defaults, < 30 s"):
        cfg = RunConfig(input=str(FIXTURE), format="trends_csv",
                        out_dir=str(tmp_path), emit=("text",))
        t0 = time.perf_counter()
        report = run(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        assert report.text.full_text.startswith("In general, the series presents")
