import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series, raw_series
from serinarr.errors import EmptyZoneError, IngestError
from serinarr.ingest import (
    FORMATS,
    RawSeries,
    _parse_value,
    load,
    load_series,
    normalize,
)

FIXTURE = Path(__file__).parent / "data" / "concert_weekly.csv"


# ---------------------------------------------------------------- loaders


def test_trends_fixture_row_count_matches_file():
    # independent oracle: count the non-blank rows after the 3 header lines
    lines = FIXTURE.read_text().splitlines()
    expected = sum(1 for ln in lines[3:] if ln.strip())
    raw = load(FIXTURE, "trends_csv")
    assert len(raw) == expected == 261


def test_trends_fixture_shape():
    raw = load(FIXTURE, "trends_csv")
    ts = [t for t, _ in raw.points]
    vs = [v for _, v in raw.points]
    assert ts == [float(k) for k in range(261)]
    assert all(0.0 <= v <= 100.0 for v in vs)
    # the fixture contains sub-floor cells, which must come through as 0.5
    assert any(v == 0.5 for v in vs)


def test_parse_value_floor_token():
    assert _parse_value("<1") == 0.5
    assert _parse_value("<5") == 2.5
    assert _parse_value(' "42" ') == 42.0


def test_trends_csv_inline(tmp_path):
    text = (
        "Category: All categories\n"
        "\n"
        "Week,thing: (Worldwide)\n"
        "2020-01-05,10\n"
        "2020-01-12,<1\n"
        "2020-01-19,33\n"
    )
    p = tmp_path / "t.csv"
    p.write_text(text)
    raw = load(p, "trends_csv")
    assert raw.points == ((0.0, 10.0), (1.0, 0.5), (2.0, 33.0))


def test_trends_csv_too_short(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("just one line\n")
    with pytest.raises(IngestError):
        load(p, "trends_csv")


def test_csv_two_columns_with_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,y\n0,1.5\n1,2.5\n2,3.5\n")
    raw = load(p, "csv")
    assert raw.points == ((0.0, 1.5), (1.0, 2.5), (2.0, 3.5))


def test_csv_single_column_uses_row_index(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("5\n7\n9\n")
    raw = load(p, "csv")
    assert raw.points == ((0.0, 5.0), (1.0, 7.0), (2.0, 9.0))


def test_csv_bad_row_after_data_raises(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0,1\nnot,a,number\n")
    with pytest.raises(IngestError, match="line 2"):
        load(p, "csv")


def test_json_points_form(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"points": [{"t": 0, "v": 1}, {"t": 2, "v": 5}]}')
    raw = load(p, "json")
    assert raw.points == ((0.0, 1.0), (2.0, 5.0))
    # the example given in README.md
    p.write_text('{"points": [{"t": 0, "v": 1.5}, {"t": 7, "v": 2.25}]}')
    assert load(p, "json").points == ((0.0, 1.5), (7.0, 2.25))


def test_json_values_form(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"values": [3, 1, 4, 1, 5]}')
    raw = load(p, "json")
    assert [v for _, v in raw.points] == [3.0, 1.0, 4.0, 1.0, 5.0]


def test_json_rejects_other_shapes(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"rows": []}')
    with pytest.raises(IngestError):
        load(p, "json")
    p.write_text("not json at all")
    with pytest.raises(IngestError):
        load(p, "json")


def test_unknown_format_rejected():
    with pytest.raises(IngestError, match="unknown format"):
        load(FIXTURE, "xml")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(IngestError):
        load(tmp_path / "nope.csv", "csv")


def _write_points(path, fmt, points):
    """Write (t, v) pairs in ``fmt``; trends rows carry the values only."""
    if fmt == "csv":
        text = "".join(f"{t!r},{v!r}\n" for t, v in points)
    elif fmt == "trends_csv":
        text = "Category: All\n\nWeek,x\n" + "".join(
            f"2024-01-{k + 1:02d},{v!r}\n" for k, (_, v) in enumerate(points))
    else:
        text = json.dumps({"points": [{"t": t, "v": v} for t, v in points]})
    path.write_text(text)


@settings(max_examples=60)
@given(fmt=st.sampled_from(FORMATS),
       values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       data=st.data())
def test_non_finite_values_rejected(tmp_path_factory, fmt, values, bad, data):
    k = data.draw(st.integers(0, len(values)))
    values = values[:k] + [bad] + values[k:]
    path = tmp_path_factory.mktemp("nonfinite") / "s.txt"
    _write_points(path, fmt, [(float(t), v) for t, v in enumerate(values)])
    with pytest.raises(IngestError, match="non-finite"):
        load(path, fmt)


@settings(max_examples=40)
@given(fmt=st.sampled_from(["csv", "json"]), n=st.integers(2, 8), data=st.data())
def test_non_increasing_time_rejected(tmp_path_factory, fmt, n, data):
    ts = [float(t) for t in range(n)]
    k = data.draw(st.integers(1, n - 1))
    ts[k] = ts[k - 1] - data.draw(st.floats(0.0, 100.0))
    path = tmp_path_factory.mktemp("unordered") / "s.txt"
    _write_points(path, fmt, [(t, 1.0) for t in ts])
    with pytest.raises(IngestError, match="strictly increasing"):
        load(path, fmt)


# ---------------------------------------------------------------- RawSeries


def test_raw_series_needs_two_points():
    with pytest.raises(IngestError):
        RawSeries(((0.0, 1.0),))


def test_raw_series_requires_increasing_time():
    with pytest.raises(IngestError, match="strictly increasing"):
        RawSeries(((0.0, 1.0), (0.0, 2.0)))


def test_raw_series_rejects_non_finite():
    with pytest.raises(IngestError):
        RawSeries(((0.0, 1.0), (1.0, math.nan)))


# ---------------------------------------------------------------- normalize


def test_normalize_unit_square():
    s = make_series([3.0, 9.0, 6.0, 3.0], levels=1)
    assert s.xs[0] == 0.0 and s.xs[-1] == 1.0
    assert s.ys.min() == 0.0 and s.ys.max() == 1.0
    assert s.n_zones == 2


def test_normalize_constant_series_is_half():
    s = make_series([4.0, 4.0, 4.0, 4.0], levels=1)
    assert np.all(s.ys == 0.5)


def test_normalize_zone_bookkeeping():
    s = make_series(list(range(16)), levels=2)
    assert s.n_zones == 4
    # bounds partition the sample index range in order
    flat = [k for lo, hi in s.zone_bounds for k in range(lo, hi)]
    assert flat == list(range(len(s)))
    for z, (lo, hi) in enumerate(s.zone_bounds):
        assert np.all(np.minimum(np.floor(s.xs[lo:hi] * s.n_zones), s.n_zones - 1) == z)
    assert s.zone_x_range(1, 2) == (0.25, 0.75)
    assert s.zone_slice(0, 3) == slice(0, 16)


def test_normalize_rejects_bad_levels():
    with pytest.raises(IngestError):
        make_series([1.0, 2.0], levels=0)


def test_normalize_rejects_too_few_points():
    with pytest.raises(IngestError, match="at least"):
        make_series([1.0, 2.0, 3.0], levels=2)


def test_empty_zone_reported_with_index():
    # 4 zones, all samples bunched at the ends: zone 1 gets nothing
    raw = raw_series([1.0, 2.0, 3.0, 4.0], ts=[0.0, 0.05, 3.9, 4.0])
    with pytest.raises(EmptyZoneError) as exc:
        normalize(raw, levels=2)
    assert exc.value.zone == 1


def test_normalize_is_idempotent_bitwise():
    s1 = make_series([5.0, 1.0, 7.0, 2.0, 9.0, 9.0, 0.0, 3.0], levels=2)
    again = RawSeries(tuple(zip(s1.xs.tolist(), s1.ys.tolist())))
    s2 = normalize(again, levels=2)
    assert s2.xs.tobytes() == s1.xs.tobytes()
    assert s2.ys.tobytes() == s1.ys.tobytes()
    assert s2.zone_bounds == s1.zone_bounds


def test_series_arrays_are_read_only():
    s = make_series([1.0, 2.0, 3.0, 4.0], levels=1)
    with pytest.raises(ValueError):
        s.ys[0] = 9.0


def test_load_series_wrapper():
    s = load_series(FIXTURE, "trends_csv", levels=4)
    assert s.n_zones == 16
    assert len(s) == 261


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9999))
def test_zone_assignment_matches_formula(levels, seed):
    import random

    r = random.Random(seed)
    n_zones = 2 ** levels
    count = r.randint(n_zones * 3, n_zones * 6)
    values = [r.uniform(0, 10) for _ in range(count)]
    s = make_series(values, levels)
    for k in range(len(s)):
        z = min(int(math.floor(s.xs[k] * n_zones)), n_zones - 1)
        lo, hi = s.zone_bounds[z]
        assert lo <= k < hi
