import json
import math
import sys
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
    TimeSeries,
    _parse_value,
    load,
    load_series,
    normalize,
)
from serinarr.render import PlotSpec

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


def test_csv_single_column_with_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("value\n\n5\n7\n")
    raw = load(p, "csv")
    assert raw.points == ((0.0, 5.0), (1.0, 7.0))


@pytest.mark.parametrize("text, lineno", [
    ("t,y\nweek,count\n0,1\n1,2\n", 2),
    ("value\n\nunits\n5\n7\n", 3),
])
def test_csv_second_header_line_raises(tmp_path, text, lineno):
    """One header line may precede the data; a second unparseable line
    is reported by its line number, blank lines counted."""
    p = tmp_path / "s.csv"
    p.write_text(text)
    with pytest.raises(IngestError, match=f"^line {lineno}: cannot parse"):
        load(p, "csv")


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


@pytest.mark.parametrize("fmt, text", [
    ("csv", "0,1\n1,3\n2,2\n3,5\n4,4\n5,8\n6,7\n7,9\n"),
    ("csv", "t,y\n0,1\n1,3\n2,2\n"),
    ("json", '{"values": [3, 1, 4, 1, 5]}'),
    ("trends_csv", FIXTURE.read_text()),
], ids=["csv", "csv-header", "json", "trends_csv"])
def test_utf8_bom_is_skipped(tmp_path, fmt, text):
    """A leading UTF-8 byte order mark is not part of the text: an 8-row
    csv with one loads all 8 points, not 7 after taking the first row as
    its header, and a json file with one parses."""
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load(marked, fmt) == load(plain, fmt)
    if text.startswith("0,1"):
        assert len(load(marked, fmt)) == 8


def test_non_utf8_file_rejected(tmp_path):
    p = tmp_path / "s.csv"
    p.write_bytes(b"0,1\n1,\xff\n2,3\n")
    with pytest.raises(IngestError, match=f"^cannot read {p}: 'utf-8' codec"):
        load(p, "csv")


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
    # edges partition the sample index range in order
    bounds = list(zip(s.zone_edges[:-1].tolist(), s.zone_edges[1:].tolist()))
    flat = [k for lo, hi in bounds for k in range(lo, hi)]
    assert flat == list(range(len(s)))
    for z, (lo, hi) in enumerate(bounds):
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
    assert s2.zone_edges.tolist() == s1.zone_edges.tolist()


@settings(max_examples=80)
@given(levels=st.integers(1, 3), data=st.data())
def test_normalize_is_idempotent_on_its_outputs(levels, data):
    """normalize of a normalized series gives it back bit for bit: uneven
    and offset timestamps, values with ties, constant series."""
    n = data.draw(st.integers(2 ** levels, 40))
    gaps = data.draw(st.lists(st.floats(0.1, 10.0) | st.integers(1, 4).map(float),
                              min_size=n - 1, max_size=n - 1))
    ts = data.draw(st.floats(-1e6, 1e6)) + np.concatenate([[0.0], np.cumsum(gaps)])
    values = data.draw(st.one_of(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.sampled_from([-2.5, 0.0, 1.0, 3.0]), min_size=n, max_size=n),
        st.floats(-1e6, 1e6).map(lambda v: [v] * n),
    ))
    try:
        s1 = normalize(raw_series(values, ts), levels)
    except EmptyZoneError:
        return  # uneven timestamps left a zone empty
    s2 = normalize(RawSeries(tuple(zip(s1.xs.tolist(), s1.ys.tolist()))), levels)
    assert s2.xs.tobytes() == s1.xs.tobytes()
    assert s2.ys.tobytes() == s1.ys.tobytes()
    assert s2.zone_edges.tolist() == s1.zone_edges.tolist()


def test_series_arrays_are_read_only():
    s = make_series([1.0, 2.0, 3.0, 4.0], levels=1)
    with pytest.raises(ValueError):
        s.ys[0] = 9.0


def test_built_series_arrays_are_read_only():
    """A series built by hand builds its zone grid, and its xs, ys and
    zone_edges are read-only views: the caller's arrays stay writable."""
    xs, ys = np.array([0.0, 0.2, 0.3, 0.6, 1.0]), np.zeros(5)
    s = TimeSeries(xs, ys, 2)
    assert s.zone_edges.tolist() == [0, 3, 5]
    for arr in (s.xs, s.ys, s.zone_edges):
        with pytest.raises(ValueError):
            arr[0] = 1
    xs[1] = 0.1
    assert s.xs[1] == 0.1 and ys.flags.writeable


@pytest.mark.parametrize("xs, zone", [
    ([0.0, 0.1, 0.9, 1.0], 1),
    ([0.0, 0.3, 0.8, 1.0], 2),
    ([0.5, 0.6, 0.7, 1.0], 0),
])
def test_built_series_with_an_empty_zone_raises(xs, zone):
    with pytest.raises(EmptyZoneError) as exc:
        TimeSeries(np.array(xs), np.zeros(len(xs)), 4)
    assert (exc.value.zone, exc.value.n_zones) == (zone, 4)


def test_load_series_wrapper():
    s = load_series(FIXTURE, "trends_csv", levels=4)
    assert s.n_zones == 16
    assert len(s) == 261


def test_series_compare_and_hash_by_identity():
    """Two loads of the fixture are two series: each equals only itself
    and hashes, and so does a ``PlotSpec`` holding one."""
    a, b = (load_series(FIXTURE, "trends_csv", levels=3) for _ in range(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert PlotSpec(series=a) == PlotSpec(series=a) != PlotSpec(series=b)
    assert len({PlotSpec(series=a), PlotSpec(series=a)}) == 1


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
        assert s.zone_edges[z] <= k < s.zone_edges[z + 1]


def _grid_point(n_zones):
    """A timestamp k / n_zones in [0, 1], or the float next to it on either side."""
    def near(k, side):
        x = k / n_zones
        return min(max(math.nextafter(x, side * math.inf), 0.0), 1.0) if side else x
    return st.builds(near, st.integers(0, n_zones), st.sampled_from([-1, 0, 1]))


@settings(max_examples=150)
@given(levels=st.integers(1, 4), data=st.data())
def test_zone_grid_follows_the_floor_rule(levels, data):
    """Zone z holds exactly the samples with min(floor(x * n), n - 1) == z,
    on uneven timestamps, on timestamps at zone edges or one ulp either
    side, and on series too sparse to fill every zone, where the first
    empty zone is named."""
    n_zones = 2 ** levels
    inner = data.draw(st.lists(_grid_point(n_zones) | st.floats(0.0, 1.0),
                               max_size=4 * n_zones))
    # Timestamps in [0, 1] from 0 to 1, scaled by a power of two: normalize
    # maps each back to itself exactly.
    xs = sorted({0.0, 1.0, *inner})
    scale = 2.0 ** data.draw(st.integers(0, 10))
    raw = raw_series(range(len(xs)), [x * scale for x in xs])
    zone_of = [min(math.floor(x * n_zones), n_zones - 1) for x in xs]
    if len(xs) < n_zones:
        with pytest.raises(IngestError, match="at least"):
            normalize(raw, levels)
        return
    empty = [z for z in range(n_zones) if z not in zone_of]
    if empty:
        with pytest.raises(EmptyZoneError) as exc:
            normalize(raw, levels)
        assert exc.value.zone == empty[0]
        return
    s = normalize(raw, levels)
    assert s.xs.tolist() == xs
    index = list(range(len(xs)))
    for z in range(n_zones):
        assert index[s.zone_slice(z, z)] == [k for k in index if zone_of[k] == z]


def test_perfbench_tooth_pairs_on_the_fixture():
    """perfbench's traced-only ``tooth_pairs`` reads the series' zone slices
    and x ranges; its counts on the fixture are pinned."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import worker

    counts = [worker.tooth_pairs(load_series(FIXTURE, "trends_csv", levels))
              for levels in (3, 4, 5)]
    assert counts == [93_770, 64_036, 89_160]
