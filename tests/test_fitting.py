import dataclasses
import hashlib
import json
import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    POOL_EDITS,
    POOL_VALUE_EDITS,
    edit_pool_record,
    make_descriptor,
    make_pool,
    make_series,
    pool_key,
    raw_series,
    series_exact,
)
from serinarr import fitting
from serinarr.errors import FitError
from serinarr.fitting import (
    _CHUNK_CELLS,
    _SIN_GRID,
    DEFAULT_KINDS,
    Descriptor,
    DescriptorPool,
    _fit_ranges,
    _sin_basis,
    _sin_grid,
    _sin_solve,
    build_pool,
    dump_pool,
    fit_one,
    load_pool,
)
from serinarr.ingest import TimeSeries, load, normalize
from serinarr.prototypes import (
    PARAM_COUNTS,
    PARAM_FIELDS,
    PARAMS_CLASS,
    BilinearParams,
    CurveKind,
    LineParams,
    SinusoidParams,
    ToothParams,
    evaluate,
)


FIXTURE = Path(__file__).parent / "data" / "concert_weekly.csv"


def fitted_params(series, kind, ranges):
    """Each range's params as ``_fit_ranges`` fits them, None where it
    has no fit."""
    fit, params, _ = _fit_ranges(series, kind, ranges)
    out = [None] * len(ranges)
    for r, row in zip(fit.tolist(), params.tolist()):
        out[r] = PARAMS_CLASS[kind](*row[: len(PARAM_FIELDS[kind])])
    return out


def overall_rmse(series, d):
    sl = series.zone_slice(d.zone_start, d.zone_end)
    res = series.ys[sl] - evaluate(d.kind, d.params, series.xs[sl])
    return float(np.sqrt(np.mean(res ** 2)))


# ------------------------------------------------------------- recovery


def test_line_exact_recovery():
    x = np.arange(65) / 64.0
    s = series_exact(0.3 + 0.2 * x, levels=2)
    d = fit_one(s, CurveKind.LINE, 0, 3)
    assert d is not None
    assert d.params.a == pytest.approx(0.3, abs=1e-9)
    assert d.params.b == pytest.approx(0.2, abs=1e-9)
    assert all(e < 1e-9 for e in d.zone_errs)
    assert overall_rmse(s, d) < 1e-6


def test_bilinear_v_recovery():
    truth = BilinearParams(x_b=0.5, y_l=1.0, y_b=0.0, y_r=1.0, x_lo=0.0, x_hi=1.0)
    x = np.arange(129) / 128.0
    s = series_exact(evaluate(CurveKind.BILINEAR, truth, x), levels=2)
    d = fit_one(s, CurveKind.BILINEAR, 0, 3)
    assert d is not None
    assert abs(d.params.x_b - 0.5) < 1e-2
    assert overall_rmse(s, d) < 1e-3
    assert d.params.y_b == pytest.approx(0.0, abs=1e-6)


def test_tooth_exact_recovery():
    truth = ToothParams(y_out_l=0.8, y_out_r=0.8, x_s=0.25, x_e=0.5, y_in=0.2)
    x = np.arange(129) / 128.0
    s = series_exact(evaluate(CurveKind.TOOTH, truth, x), levels=2)
    d = fit_one(s, CurveKind.TOOTH, 0, 3)
    assert d is not None
    assert d.params.x_s == pytest.approx(0.25)
    assert d.params.x_e == pytest.approx(0.5)
    assert d.params.y_in == pytest.approx(0.2, abs=1e-9)
    assert overall_rmse(s, d) < 1e-3


def test_sinusoid_recovery():
    x = np.arange(257) / 256.0
    s = series_exact(0.5 + 0.3 * np.sin(2 * np.pi * 3.0 * x), levels=2)
    d = fit_one(s, CurveKind.SINUSOID, 0, 3)
    assert d is not None
    assert abs(d.params.amp - 0.3) < 0.02
    assert abs(d.params.freq - 3.0) < 0.1
    assert d.params.mean == pytest.approx(float(s.ys.mean()))
    assert overall_rmse(s, d) < 1e-3


def test_bilinear_breakpoint_tie_prefers_smaller():
    # perfectly flat data: every breakpoint fits equally well
    s = series_exact(np.full(33, 0.4), levels=1)
    d = fit_one(s, CurveKind.BILINEAR, 0, 1)
    assert d is not None
    inside = s.xs[(s.xs > 0.0) & (s.xs < 1.0)]
    assert d.params.x_b == pytest.approx(float(inside[0]))


def test_tooth_tie_prefers_wider_plateau():
    # flat data again: all plateau placements tie on error
    s = series_exact(np.full(33, 0.4), levels=1)
    d = fit_one(s, CurveKind.TOOTH, 0, 1)
    assert d is not None
    assert d.params.x_s == pytest.approx(0.0)
    assert d.params.x_e == pytest.approx(1.0)


# ------------------------------------------------------------- pool


def test_pool_count_16_zones():
    s = make_series([math.sin(k / 7.0) for k in range(160)], levels=4)
    pool = build_pool(s, kinds=DEFAULT_KINDS)
    assert len(pool) == 408
    assert pool.expected_size == 408
    assert pool.n_infeasible == 0


def test_pool_minimal_two_zones_one_kind():
    s = make_series([1.0, 3.0, 2.0, 4.0], levels=1)
    pool = build_pool(s, kinds=(CurveKind.LINE,))
    assert len(pool) == 3
    ranges = sorted((d.zone_start, d.zone_end) for d in pool)
    assert ranges == [(0, 0), (0, 1), (1, 1)]


def test_pool_ids_contiguous_and_ordered():
    s = make_series([math.sin(k / 5.0) for k in range(64)], levels=3)
    pool = build_pool(s, kinds=(CurveKind.LINE, CurveKind.TOOTH))
    ids = [d.id for d in pool]
    assert ids == list(range(len(pool)))
    keys = [(int(d.kind), d.zone_start, d.zone_end) for d in pool]
    assert keys == sorted(keys)


def test_pool_excludes_infeasible_ranges():
    # one sample per zone: single-zone ranges cannot carry a 2-param fit
    s = make_series(list(range(16)), levels=4)
    pool = build_pool(s, kinds=(CurveKind.LINE,))
    assert pool.n_infeasible == 16
    assert len(pool) == 136 - 16
    assert all(d.width >= 2 for d in pool)


def test_pool_raises_when_nothing_fits():
    s = make_series([1.0, 2.0], levels=1)
    with pytest.raises(FitError):
        build_pool(s, kinds=(CurveKind.TOOTH,))


def test_pool_needs_a_kind():
    with pytest.raises(FitError, match="at least one curve kind"):
        build_pool(make_series(list(range(8)), levels=2), kinds=())


@pytest.mark.parametrize("i, j", [(-1, 0), (2, 1), (0, 4)])
def test_fit_one_rejects_a_bad_range(i, j):
    with pytest.raises(FitError, match="bad zone range"):
        fit_one(make_series(list(range(8)), levels=2), CurveKind.LINE, i, j)


def test_per_zone_rmse_recomputed_independently():
    rnd = random.Random(7)
    s = make_series([rnd.uniform(0, 1) for _ in range(96)], levels=3)
    pool = build_pool(s, kinds=DEFAULT_KINDS)
    for d in [pool.get(0), pool.get(len(pool) // 2), pool.get(len(pool) - 1)]:
        for z in d.zones:
            lo, hi = s.zone_edges[z], s.zone_edges[z + 1]
            res = s.ys[lo:hi] - evaluate(d.kind, d.params, s.xs[lo:hi])
            want = math.sqrt(float(np.mean(res ** 2)))
            assert d.err(z) == pytest.approx(want, abs=1e-12)


def test_dump_load_round_trip(tmp_path):
    rnd = random.Random(3)
    s = make_series([rnd.uniform(0, 1) for _ in range(48)], levels=2)
    pool = build_pool(s, kinds=tuple(CurveKind))
    assert {d.kind for d in pool} == set(CurveKind)
    path = tmp_path / "pool.jsonl"
    dump_pool(pool, path)
    again = load_pool(path)
    assert again.n_zones == pool.n_zones
    assert again.kinds == pool.kinds
    assert again.n_infeasible == pool.n_infeasible
    assert list(again) == list(pool)
    # the dump is line-delimited records
    lines = path.read_text().splitlines()
    assert len(lines) == len(pool) + 1
    json.loads(lines[0])
    json.loads(lines[1])


def _dump_pool_reference(pool: DescriptorPool) -> str:
    """The pool text ``dump_pool`` wrote before its line templates."""
    header = {"n_zones": pool.n_zones, "kinds": [k.label for k in pool.kinds],
              "n_infeasible": pool.n_infeasible}
    records = [{"id": d.id, "kind": d.kind.label, "zone_start": d.zone_start,
                "zone_end": d.zone_end, "params": dataclasses.asdict(d.params),
                "zone_errs": list(d.zone_errs)} for d in pool]
    lines = [json.dumps(rec, sort_keys=True) for rec in [header] + records]
    return "\n".join(lines) + "\n"


def _load_pool_reference(path) -> DescriptorPool:
    """``load_pool`` as it was before it shared one decoder: ``json.loads``
    each line."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty pool dump {path}")
    header = json.loads(lines[0])
    descriptors = []
    for line in lines[1:]:
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = CurveKind.from_label(rec["kind"])
        descriptors.append(
            Descriptor(
                id=rec["id"],
                kind=kind,
                params=PARAMS_CLASS[kind](**rec["params"]),
                zone_start=rec["zone_start"],
                zone_end=rec["zone_end"],
                zone_errs=tuple(rec["zone_errs"]),
                n_zones=header["n_zones"],
            )
        )
    return make_pool(descriptors, header["n_zones"],
                     tuple(CurveKind.from_label(k) for k in header["kinds"]),
                     header.get("n_infeasible", 0))


@settings(max_examples=25, deadline=None)
@given(levels=st.integers(1, 3), data=st.data())
def test_dump_pool_bytes_match_json_dumps(levels, data, tmp_path_factory):
    """Every line ``dump_pool`` fills from its kind's template has the
    bytes ``json.dumps(record, sort_keys=True)`` gives, on random series
    fitted with all four kinds."""
    values = data.draw(st.lists(st.floats(-1e6, 1e6) | st.integers(-3, 3).map(float),
                                min_size=2 ** levels * 3, max_size=40))
    pool = build_pool(make_series(values, levels), tuple(CurveKind))
    path = tmp_path_factory.mktemp("dump") / "pool.jsonl"
    dump_pool(pool, path)
    assert path.read_text() == _dump_pool_reference(pool)


def test_dump_pool_writes_odd_floats_as_json_dumps(tmp_path):
    """Non-finite, signed-zero and subnormal params and zone errors, and
    int params, are written as ``json.dumps`` writes them, and read back
    so."""
    odd = [math.nan, math.inf, -math.inf, -0.0, 1e-310, 5e-324, 1e16, 0.1]
    descriptors = [make_descriptor(k, k % 4, k % 4, [e], 4, params=LineParams(a=a, b=b))
                   for k, (a, b, e) in enumerate(zip(odd, odd[1:] + odd[:1], odd[2:] + odd[:2]))]
    descriptors.append(make_descriptor(len(odd), 0, 1, [0.5, 1.5], 4,
                                       params=LineParams(a=0, b=-1)))
    pool = make_pool(descriptors, 4)
    path = tmp_path / "pool.jsonl"
    dump_pool(pool, path)
    text = path.read_text()
    assert text == _dump_pool_reference(pool)
    assert "NaN" in text and "-Infinity" in text and "1e-310" in text and "-0.0" in text
    again = tmp_path / "again.jsonl"
    dump_pool(load_pool(path), again)
    assert again.read_text() == text


def _outcome(load, *args):
    """What ``load(*args)`` returns, or the type of error it raises."""
    try:
        return load(*args)
    except (ValueError, KeyError, TypeError) as exc:
        return next(t for t in (ValueError, KeyError, TypeError) if isinstance(exc, t))


@pytest.mark.parametrize("edit, taken", [(e, t) for _, e, t in POOL_EDITS],
                         ids=[name for name, _, _ in POOL_EDITS])
def test_load_pool_takes_what_the_per_line_loader_takes(edit, taken, tmp_path):
    """On each edited dump, ``load_pool`` gives the pool the per-line
    loader gives, or raises ``ValueError`` as it does."""
    s = make_series([0.1, 0.9, 0.4, 0.7, 0.2, 0.8, 0.3, 0.6, 0.5, 1.0], levels=1)
    path = tmp_path / "pool.jsonl"
    dump_pool(build_pool(s, tuple(CurveKind)), path)
    path.write_text(edit(path.read_text()), newline="")
    want = _outcome(_load_pool_reference, path)
    assert isinstance(want, DescriptorPool) if taken else want is ValueError
    got = _outcome(load_pool, path)
    assert pool_key(got) == pool_key(want) if taken else got is want


def _move_bilinear_start(recs):
    """Move the first bilinear's x_lo halfway to its breakpoint."""
    params = next(r for r in recs if r.get("kind") == "bilinear")["params"]
    params["x_lo"] = (params["x_lo"] + params["x_b"]) / 2


@pytest.mark.parametrize("edit", [
    lambda recs: recs[3].update(id=2 ** 64),
    lambda recs: recs[3].update(id=0),
    _move_bilinear_start,
], ids=["id-past-int64", "repeated-id", "bilinear-range-moved"])
def test_load_pool_rejects_ids_out_of_order_and_moved_bilinear_ranges(edit, tmp_path):
    """The k-th record's id is k, as ``build_pool`` numbers them, and a
    bilinear's range is its zones': a saved pool that breaks either
    raises ``ValueError``."""
    s = make_series([0.1, 0.9, 0.4, 0.7, 0.2, 0.8, 0.3, 0.6, 0.5, 1.0, 0.2, 0.4], levels=2)
    path = tmp_path / "pool.jsonl"
    dump_pool(build_pool(s, tuple(CurveKind)), path)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    with pytest.raises(ValueError):
        load_pool(path)


@pytest.mark.parametrize("header", [
    {"kinds": ["line"]},
    {"kinds": ["line", "line", "bilinear", "tooth"]},
    {"n_infeasible": -1},
], ids=["kinds-omit-a-record-kind", "kind-repeated", "infeasible-negative"])
def test_load_pool_rejects_a_header_dump_pool_would_not_write(header, tmp_path):
    """A header whose kinds are not distinct, in kind order and every
    record's, or whose infeasible count is negative, would give a wrong
    ``kinds`` and ``expected_size``: it raises ``ValueError``."""
    s = make_series([0.1, 0.9, 0.4, 0.7, 0.2, 0.8, 0.3, 0.6, 0.5, 1.0, 0.2, 0.4], levels=2)
    path = tmp_path / "pool.jsonl"
    dump_pool(build_pool(s), path)
    first, rest = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(first), **header}, sort_keys=True) + "\n" + rest)
    with pytest.raises(ValueError):
        load_pool(path)


@pytest.mark.parametrize("kind, edit", [case[1:] for case in POOL_VALUE_EDITS],
                         ids=[case[0] for case in POOL_VALUE_EDITS])
def test_load_pool_rejects_values_that_break_a_rule(kind, edit, tmp_path):
    """A record whose params break their kind's rule, or whose zone range
    or zone error count is not one ``build_pool`` makes, raises
    ``ValueError``."""
    s = make_series([0.1, 0.9, 0.4, 0.7, 0.2, 0.8, 0.3, 0.6, 0.5, 1.0, 0.2, 0.4], levels=2)
    path = tmp_path / "pool.jsonl"
    dump_pool(build_pool(s, tuple(CurveKind)), path)
    path.write_text(edit_pool_record(path.read_text(), kind, edit))
    with pytest.raises(ValueError):
        load_pool(path)


def test_descriptor_accessors():
    s = make_series([1.0, 2.0, 1.0, 3.0, 2.0, 4.0, 1.0, 5.0], levels=2)
    pool = build_pool(s, kinds=(CurveKind.LINE,))
    (d,) = [d for d in pool if (d.zone_start, d.zone_end) == (1, 2)]
    assert d.zones == range(1, 3)
    assert d.width == 2
    assert [z for z in range(4) if d.zone_start <= z <= d.zone_end] == [1, 2]
    assert d.x_lo == pytest.approx(0.25)
    assert d.x_hi == pytest.approx(0.75)
    with pytest.raises(KeyError):
        pool.get(10 ** 9)


def test_zone_errs_takes_best_covering_descriptor():
    pool = make_pool([
        make_descriptor(0, 0, 3, [0.4, 0.3, 0.2, 0.1], 4),
        make_descriptor(1, 1, 2, [0.5, 0.05], 4),
        make_descriptor(2, 3, 3, [0.1], 4),
    ], 4)
    assert pool.zone_errs([0]) == [0.4, 0.3, 0.2, 0.1]
    assert pool.zone_errs([0, 1, 2]) == [0.4, 0.3, 0.05, 0.1]
    with pytest.raises(ValueError):
        pool.zone_errs([1])  # zones 0 and 3 uncovered


def test_descriptor_rejects_bad_ranges():
    with pytest.raises(ValueError):
        Descriptor(
            id=0, kind=CurveKind.LINE, params=LineParams(0.0, 0.0),
            zone_start=3, zone_end=2, zone_errs=(), n_zones=4,
        )
    with pytest.raises(ValueError):
        Descriptor(
            id=0, kind=CurveKind.LINE, params=LineParams(0.0, 0.0),
            zone_start=0, zone_end=1, zone_errs=(0.1,), n_zones=4,
        )


# ------------------------------------------------- local optimality smoke


def _perturb(rnd, kind, p, scale=0.08):
    j = lambda: rnd.uniform(-scale, scale)
    if kind is CurveKind.LINE:
        return LineParams(a=p.a + j(), b=p.b + j())
    if kind is CurveKind.BILINEAR:
        lo, hi = p.x_lo, p.x_hi
        x_b = min(max(p.x_b + j() * (hi - lo), lo + 1e-6), hi - 1e-6)
        return BilinearParams(
            x_b=x_b, y_l=p.y_l + j(), y_b=p.y_b + j(), y_r=p.y_r + j(),
            x_lo=lo, x_hi=hi,
        )
    if kind is CurveKind.TOOTH:
        x_s = p.x_s + j() * 0.5
        x_e = p.x_e + j() * 0.5
        if x_s >= x_e:
            x_s, x_e = p.x_s, p.x_e
        return ToothParams(
            y_out_l=p.y_out_l + j(), y_out_r=p.y_out_r + j(),
            x_s=x_s, x_e=x_e, y_in=p.y_in + j(),
        )
    return SinusoidParams(
        amp=max(p.amp + j(), 0.0) + 1e-9,
        freq=max(p.freq + j(), 0.1),
        phase=(p.phase + j()) % (2 * math.pi),
        mean=p.mean,
    )


def _sse(series, kind, params, sl):
    res = series.ys[sl] - evaluate(kind, params, series.xs[sl])
    return float(np.sum(res ** 2))


@pytest.mark.parametrize("kind", list(CurveKind))
def test_fit_beats_64_random_perturbations(kind):
    x = np.arange(129) / 128.0
    sources = {
        CurveKind.LINE: 0.2 + 0.6 * x,
        CurveKind.BILINEAR: evaluate(
            CurveKind.BILINEAR,
            BilinearParams(x_b=0.5, y_l=0.9, y_b=0.1, y_r=0.8, x_lo=0.0, x_hi=1.0),
            x,
        ),
        CurveKind.TOOTH: evaluate(
            CurveKind.TOOTH,
            ToothParams(y_out_l=0.7, y_out_r=0.7, x_s=0.25, x_e=0.75, y_in=0.2),
            x,
        ),
        CurveKind.SINUSOID: 0.5 + 0.3 * np.sin(2 * np.pi * 2.0 * x),
    }
    s = series_exact(sources[kind], levels=2)
    d = fit_one(s, kind, 0, 3)
    assert d is not None
    sl = s.zone_slice(0, 3)
    fitted = _sse(s, kind, d.params, sl)
    rnd = random.Random(1000 + int(kind))
    for _ in range(64):
        q = _perturb(rnd, kind, d.params)
        assert fitted <= _sse(s, kind, q, sl) + 1e-12


# ------------------------------------------ batched scans against loops


def _pair_lexsort_tooth(x, y, x_lo, x_hi, boundaries, add_samples):
    """The tooth search as one pass over every (x_s, x_e) pair: prefix
    sums gathered per pair, then a full (sse, -width, x_s) lexsort."""
    n = len(x)
    positions = boundaries
    if add_samples:
        positions = np.unique(np.concatenate([boundaries, x]))
    positions = positions[(positions >= x_lo) & (positions <= x_hi)]
    if len(positions) < 2:
        return None
    lo_idx = np.searchsorted(x, positions, side="left")
    hi_idx = np.searchsorted(x, positions, side="right")
    py = np.concatenate(([0.0], np.cumsum(y)))
    pyy = np.concatenate(([0.0], np.cumsum(y * y)))
    a, b = np.triu_indices(len(positions), k=1)
    start, stop = lo_idx[a], hi_idx[b]
    valid = (stop - start) > 0
    if not valid.any():
        return None

    def seg_sse(lo, hi):
        cnt = (hi - lo).astype(float)
        s = py[hi] - py[lo]
        ss = pyy[hi] - pyy[lo]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = ss - np.where(cnt > 0, s * s / np.where(cnt > 0, cnt, 1.0), 0.0)
        return np.maximum(out, 0.0)

    sse = (seg_sse(np.zeros_like(start), start) + seg_sse(start, stop)
           + seg_sse(stop, np.full_like(start, n)))
    sse = np.where(valid, sse, np.inf)
    width = positions[b] - positions[a]
    best = int(np.lexsort((positions[a], -width, sse))[0])
    if not np.isfinite(sse[best]):
        return None
    s_i, e_i = int(start[best]), int(stop[best])
    y_in = float((py[e_i] - py[s_i]) / (e_i - s_i))
    return ToothParams(
        y_out_l=float(py[s_i] / s_i) if s_i > 0 else y_in,
        y_out_r=float((py[n] - py[e_i]) / (n - e_i)) if e_i < n else y_in,
        x_s=float(positions[a[best]]),
        x_e=float(positions[b[best]]),
        y_in=y_in,
    )


def _random_ranges(rnd, count):
    """(series, i, j) over random series with many exact ties: constant,
    integer-rounded and noisy values, at 2..4 zone levels."""
    for case in range(count):
        levels = rnd.randint(1, 3)
        n = rnd.randint(2 ** levels, 90)
        shape = case % 3
        if shape == 0:
            ys = [0.375] * n
        elif shape == 1:
            ys = [float(rnd.randint(0, 2)) for _ in range(n)]
        else:
            ys = [rnd.gauss(0.5, 0.2) for _ in range(n)]
        s = series_exact(ys, levels)
        i = rnd.randrange(s.n_zones)
        yield s, i, rnd.randrange(i, s.n_zones)


@pytest.mark.parametrize("cells", [1, 7, 64, _CHUNK_CELLS])
def test_tooth_blocks_match_pair_lexsort(monkeypatch, cells):
    """The shared (start, end) tables, reduced to column minima, pick the
    plateau the full pair lexsort picks, ties included, whatever the chunk
    size: chunks of many tables, of one whole table, or of one column."""
    monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
    rnd = random.Random(6100)
    for s, _, _ in _random_ranges(rnd, 60):
        ranges = [(i, j) for i in range(s.n_zones) for j in range(i, s.n_zones)]
        for (i, j), p in zip(ranges, fitted_params(s, CurveKind.TOOTH, ranges)):
            sl = s.zone_slice(i, j)
            x, y = s.xs[sl], s.ys[sl]
            boundaries = np.arange(i, j + 2, dtype=float) / s.n_zones
            want = None
            if len(x) >= PARAM_COUNTS[CurveKind.TOOTH]:
                want = _pair_lexsort_tooth(x, y, *s.zone_x_range(i, j), boundaries,
                                           (j - i + 1) <= 4)
            assert p == want, (i, j)


def _bound_series(rng, count):
    """Series of 150..400 points at levels 1..2, so every range adds its
    sample positions and its table holds 64 edges or more: constant,
    integer-rounded, random-walk and noisy values."""
    for case in range(count):
        n = int(rng.integers(150, 401))
        shape = case % 4
        if shape == 0:
            ys = np.full(n, 0.375)
        elif shape == 1:
            ys = rng.integers(0, 3, n).astype(float)
        elif shape == 2:
            ys = np.cumsum(rng.standard_normal(n))
        else:
            ys = rng.normal(0.5, 0.2, n)
        yield series_exact(ys, 1 + case % 2)


@pytest.mark.parametrize("cells", [64, 4096, _CHUNK_CELLS])
def test_tooth_bound_matches_pair_lexsort(monkeypatch, cells):
    """Tables of 64 edges or more score only the rows their incumbents
    leave open, and still pick the plateau the full pair lexsort picks,
    ties included, whatever the chunk size."""
    monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
    for s in _bound_series(np.random.default_rng(6150), 16):
        ranges = [(i, j) for i in range(s.n_zones) for j in range(i, s.n_zones)]
        for (i, j), p in zip(ranges, fitted_params(s, CurveKind.TOOTH, ranges)):
            sl = s.zone_slice(i, j)
            boundaries = np.arange(i, j + 2, dtype=float) / s.n_zones
            want = _pair_lexsort_tooth(s.xs[sl], s.ys[sl], *s.zone_x_range(i, j),
                                       boundaries, True)
            assert p == want, (cells, i, j)


def test_sinusoid_grid_matches_per_frequency_solve():
    """One (frequency, sample) pass gives bit-identical grid rows: the
    same a, b and SSE as the one-frequency solve."""
    rnd = random.Random(6200)
    grid = _SIN_GRID
    for s, i, j in _random_ranges(rnd, 120):
        sl = s.zone_slice(i, j)
        x, y = s.xs[sl], s.ys[sl]
        x_lo, x_hi = s.zone_x_range(i, j)
        r = y - float(y.mean())
        rr = float((r * r).sum())
        width = x_hi - x_lo
        rows = zip(*_sin_grid(*_sin_basis(x, grid / width), r, rr))
        for f, (a, b, sse) in zip(grid, rows):
            sol = _sin_solve(x, r, f / width, rr)
            assert sse == sol[2], (i, j, f)
            assert sse == np.inf or (a, b) == sol[:2], (i, j, f)


def test_sinusoid_basis_slices_match_per_range_grid(monkeypatch):
    """A row's columns of the basis shared over a longer span give the
    grid that row's own basis gives, bit for bit, at offsets that are not
    multiples of 8; and sinusoid fits, which share one basis per width,
    still equal the per-range fit."""
    rng = np.random.default_rng(6250)
    for case in range(30):
        span = np.sort(rng.random(int(rng.integers(40, 400))))
        n = int(rng.integers(4, len(span) // 2))
        width = float(rng.integers(1, 9)) / 8
        shared = _sin_basis(span, _SIN_GRID / width)
        for off in rng.integers(0, len(span) - n, 10):
            if off % 8 == 0:
                off += 1
            x = span[off : off + n]
            r = rng.standard_normal(n)
            rr = float((r * r).sum())
            own = _sin_basis(x, _SIN_GRID / width)
            cut = [b[:, off : off + n] for b in shared]
            assert all(np.array_equal(a, b) for a, b in zip(own, cut)), (case, off)
            assert np.array_equal(_sin_grid(*cut, r, rr), _sin_grid(*own, r, rr)), (case, off)

    for levels in (2, 3):
        n_zones = 2 ** levels
        # Uneven zones: ranges of one sample count differ in width, and
        # ranges of one width in sample count.
        xs = np.concatenate([(z + np.sort(rng.random(int(rng.integers(3, 20))))) / n_zones
                             for z in range(n_zones)])
        s = _uneven_series(xs, rng.standard_normal(len(xs)), levels)
        ranges = [(i, j) for i in range(n_zones) for j in range(i, n_zones)]
        for cells in (len(_SIN_GRID), 32 * 40, _CHUNK_CELLS):
            monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
            for (i, j), p in zip(ranges, fitted_params(s, CurveKind.SINUSOID, ranges)):
                sl = s.zone_slice(i, j)
                want = _reference_sinusoid(s.xs[sl], s.ys[sl], *s.zone_x_range(i, j))
                assert p == want, (levels, cells, i, j)


def _reference_bilinear(x, y, x_lo, x_hi, seen):
    """The bilinear fit of one range on its own: its own prefix sums and
    its own batch of candidate solves.  Adds "midpoint" to ``seen`` when
    no sample lies strictly inside the range, "singular" when a
    candidate's system is rejected."""
    n = len(x)
    inside = np.nonzero((x > x_lo) & (x < x_hi))[0]
    if inside.size == 0:
        seen.add("midpoint")
        cands = np.array([0.5 * (x_lo + x_hi)])
        left_counts = np.array([int(np.searchsorted(x, cands[0], side="right"))])
    else:
        cands = x[inside]
        left_counts = inside + 1  # samples 0..k have x <= x[k]

    p1 = np.arange(n + 1, dtype=float)
    px = np.concatenate(([0.0], np.cumsum(x)))
    pxx = np.concatenate(([0.0], np.cumsum(x * x)))
    py = np.concatenate(([0.0], np.cumsum(y)))
    pxy = np.concatenate(([0.0], np.cumsum(x * y)))
    syy = float((y * y).sum())

    k = left_counts
    c = cands
    n_l, sx_l, sxx_l = p1[k], px[k], pxx[k]
    sy_l, sxy_l = py[k], pxy[k]
    n_r, sx_r, sxx_r = n - n_l, px[n] - sx_l, pxx[n] - sxx_l
    sy_r, sxy_r = py[n] - sy_l, pxy[n] - sxy_l

    dl = c - x_lo
    dr = x_hi - c

    m = np.zeros((len(c), 3, 3))
    rhs = np.zeros((len(c), 3))
    m[:, 0, 0] = (c * c * n_l - 2 * c * sx_l + sxx_l) / (dl * dl)
    m[:, 0, 1] = ((c + x_lo) * sx_l - c * x_lo * n_l - sxx_l) / (dl * dl)
    m[:, 1, 1] = (sxx_l - 2 * x_lo * sx_l + x_lo * x_lo * n_l) / (dl * dl)
    rhs[:, 0] = (c * sy_l - sxy_l) / dl
    rhs[:, 1] = (sxy_l - x_lo * sy_l) / dl
    m[:, 1, 1] += (x_hi * x_hi * n_r - 2 * x_hi * sx_r + sxx_r) / (dr * dr)
    m[:, 1, 2] = ((x_hi + c) * sx_r - x_hi * c * n_r - sxx_r) / (dr * dr)
    m[:, 2, 2] = (sxx_r - 2 * c * sx_r + c * c * n_r) / (dr * dr)
    rhs[:, 1] += (x_hi * sy_r - sxy_r) / dr
    rhs[:, 2] = (sxy_r - c * sy_r) / dr
    m[:, 1, 0] = m[:, 0, 1]
    m[:, 2, 1] = m[:, 1, 2]

    dets = np.linalg.det(m)
    ok = np.abs(dets) > 1e-12
    if not ok.all():
        seen.add("singular")
    if not ok.any():
        return None
    theta = np.full((len(c), 3), np.nan)
    theta[ok] = np.linalg.solve(m[ok], rhs[ok][..., None])[..., 0]
    sse = syy - 2 * np.einsum("ki,ki->k", theta, rhs) + np.einsum(
        "ki,kij,kj->k", theta, m, theta
    )
    sse = np.where(ok, np.maximum(sse, 0.0), np.inf)

    best = int(np.argmin(sse))
    if not np.isfinite(sse[best]):
        return None
    y_l, y_b, y_r = (float(v) for v in theta[best])
    return BilinearParams(
        x_b=float(c[best]), y_l=y_l, y_b=y_b, y_r=y_r, x_lo=x_lo, x_hi=x_hi
    )


def _edge_series(ys, n_zones):
    """Every sample on its zone's left edge, the same count per zone: no
    sample lies strictly inside a one-zone range."""
    per = len(ys) // n_zones
    xs = np.repeat(np.arange(n_zones) / n_zones, per)
    return TimeSeries(xs, np.asarray(ys, dtype=float)[: len(xs)], n_zones)


def _oracle_series(rng, count):
    """Random walks, integer-rounded walks and noisy sines at levels 1..5,
    from one sample per zone up to a few, plus two edge-sampled series."""
    for case in range(count):
        levels = 1 + case % 5
        n_zones = 2 ** levels
        n = int(rng.integers(n_zones + 1, 4 * n_zones + 2))
        shape = case % 3
        if shape == 0:
            ys = np.cumsum(rng.standard_normal(n))
        elif shape == 1:
            ys = np.round(np.cumsum(rng.standard_normal(n)))
        else:
            ys = np.sin(np.linspace(0.0, 9.0, n)) + 0.2 * rng.standard_normal(n)
        yield series_exact(ys, levels)
    yield _edge_series(rng.standard_normal(32), 4)
    yield _edge_series(np.round(rng.standard_normal(40)), 8)


def test_bilinear_batch_matches_per_range_fit(monkeypatch):
    """The fits of every range, solved as one batch per sample count, in
    chunks of whole ranges, equal each range fitted on its own, bit for
    bit, with the default chunk budget, with one of about 3 candidates
    (one range a chunk) and with one of 24 (several short ranges a chunk)."""
    seen = set()
    for cells in (_CHUNK_CELLS, 96, 32 * 24):
        monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
        for s in _oracle_series(np.random.default_rng(6300), 45):
            ranges = [(i, j) for i in range(s.n_zones) for j in range(i, s.n_zones)]
            for (i, j), p in zip(ranges, fitted_params(s, CurveKind.BILINEAR, ranges)):
                sl = s.zone_slice(i, j)
                x, y = s.xs[sl], s.ys[sl]
                want = None
                if len(x) >= PARAM_COUNTS[CurveKind.BILINEAR]:
                    want = _reference_bilinear(x, y, *s.zone_x_range(i, j), seen)
                assert p == want, (cells, i, j)
    assert seen == {"midpoint", "singular"}


def _tridiagonal_stack(rng, k, decades):
    """k random symmetric tridiagonal systems M theta = r, the diagonals
    spanning ``decades`` decades each way, the off-diagonals up to the
    size the diagonals allow in a positive definite M, some past it."""
    diag = 10.0 ** rng.uniform(-decades, decades, (k, 3))
    off = rng.uniform(-1.2, 1.2, (k, 2)) * np.sqrt(diag[:, :2] * diag[:, 1:])
    mat = np.zeros((k, 3, 3))
    mat[:, [0, 1, 2], [0, 1, 2]] = diag
    mat[:, [0, 1, 1, 2], [1, 0, 2, 1]] = off[:, [0, 0, 1, 1]]
    rhs = rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-decades, decades, (k, 1))
    return mat, rhs


def test_lapack_scores_do_not_depend_on_the_stack():
    """``det``, ``solve`` and both einsums give each system the same bits
    in a stack of 1, 2 or any number of systems as in the full stack.  The
    bilinear fit sends LAPACK only the cells its bound leaves open, so its
    fits equal those of scoring every cell only because of this."""
    rng = np.random.default_rng(6500)
    for case in range(200):
        k = int(rng.integers(3, 400))
        if case % 2:
            mat, rhs = _tridiagonal_stack(rng, k, 4)
        else:
            mat = rng.standard_normal((k, 3, 3)) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
            rhs = rng.standard_normal((k, 3))
        theta = rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-3, 3, (k, 1))

        def scores(at):
            return (np.linalg.det(mat[at]),
                    np.linalg.solve(mat[at], rhs[at][..., None])[..., 0],
                    np.einsum("ki,ki->k", theta[at], rhs[at]),
                    np.einsum("ki,kij,kj->k", theta[at], mat[at], theta[at]))

        full = scores(np.arange(k))
        for size in (1, 2, int(rng.integers(1, k + 1))):
            at = np.sort(rng.choice(k, size, replace=False))
            for want, got in zip(full, scores(at)):
                assert want[at].tobytes() == got.tobytes(), (case, size)


def _entries(mat, rhs):
    """The (a, b, c, d, e, r0, r1, r2) entry arrays of tridiagonal systems
    M theta = r given as a (k, 3, 3) stack and a (k, 3) stack."""
    return (*(mat[:, i, j] for i, j in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2))),
            *rhs.T)


def _bilinear_systems(monkeypatch, series):
    """Every bilinear candidate system the fitter bounds over all ranges of
    each series, as (entries, syy, bound), one element a cell."""
    seen = []
    bound = fitting._bilinear_bound

    def record(*args):
        est, low = bound(*args)
        *entries, syy = args
        seen.append((*(v.ravel() for v in entries),
                     np.broadcast_to(syy, low.shape).ravel(), low.ravel()))
        return est, low

    monkeypatch.setattr(fitting, "_bilinear_bound", record)
    for s in series:
        ranges = [(i, j) for i in range(s.n_zones) for j in range(i, s.n_zones)]
        _fit_ranges(s, CurveKind.BILINEAR, ranges)
    *entries, syy, low = map(np.concatenate, zip(*seen))
    return entries, syy, low


def _assert_bound_holds(entries, syy, low, min_guarded):
    """Every guarded system LAPACK does not reject scores at least its
    bound, and at least ``min_guarded`` of them are checked."""
    sse, _ = fitting._bilinear_sse(*entries, syy)
    checked = (low > -np.inf) & np.isfinite(sse)
    assert checked.sum() >= min_guarded
    bad = np.flatnonzero(checked & (low > sse))
    assert bad.size == 0, (low[bad[:3]], sse[bad[:3]])


def test_bilinear_bound_is_below_the_lapack_score(monkeypatch):
    """The closed-form bound never exceeds the SSE LAPACK scores, on the
    fitter's own systems for random walks, integer-rounded walks, constant
    series (every cell ties), exact polylines and unevenly sampled noise,
    and on random tridiagonal systems whose entries span 16 decades, that
    are nearly singular, or whose least SSE is nearly 0."""
    rng = np.random.default_rng(6600)
    series = []
    for levels in (1, 2, 3, 4):
        n = int(rng.integers(2 ** levels * 3, 300))
        walk = np.cumsum(rng.standard_normal(n))
        t = np.arange(n) / (n - 1)
        series += [series_exact(walk, levels), series_exact(np.round(walk), levels),
                   series_exact(np.full(n, 0.625), levels),
                   series_exact(np.where(t < 0.375, 2 * t, 1.5 - 2 * t), levels),
                   _uneven_series(np.r_[0.0, np.sort(rng.random(n - 2)), 1.0],
                                  rng.standard_normal(n), levels)]
    entries, syy, low = _bilinear_systems(monkeypatch, series)
    _assert_bound_holds(entries, syy, low, len(low) // 2)

    for decades in (0.5, 4, 8):
        mat, rhs = _tridiagonal_stack(rng, 20000, decades)
        # Nearly singular: e within a relative 1e-9 of the e that makes
        # det 0, on either side.
        near = rng.random(len(mat)) < 0.3
        a, b, c, d = mat[near, 0, 0], mat[near, 0, 1], mat[near, 1, 1], mat[near, 1, 2]
        mat[near, 2, 2] = d * d * a / (a * c - b * b) * (1 + rng.uniform(-1e-9, 1e-9, near.sum()))
        r_min = np.einsum("ki,ki->k", rhs, np.linalg.solve(mat, rhs[..., None])[..., 0])
        # syy at, or just above, r M^-1 r: least SSEs of 0 and nearly 0.
        syy = np.abs(r_min) * (1 + rng.choice([0.0, 1e-12, 1e-6, 1.0], len(mat)))
        entries = _entries(mat, rhs)
        _, low = fitting._bilinear_bound(*entries, syy)
        _assert_bound_holds(entries, syy, low, len(low) // 20)


@pytest.mark.parametrize("cells", [_CHUNK_CELLS, 96, 32 * 24])
def test_bilinear_bound_sees_only_real_cells(monkeypatch, cells):
    """Candidate cells are raveled, not padded: over a bilinear pool build
    of the fixture at levels 3 to 5, the cells the bound sees number
    exactly the feasible ranges' samples.  With the default budget a run
    holds ranges of several sample counts, so there are fewer runs than
    counts; budgets of about 3 and 24 cells split the ranges of one count
    over several runs."""
    monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
    seen = []
    bound = fitting._bilinear_bound

    def record(*args):
        seen.append(args[0].size)
        return bound(*args)

    monkeypatch.setattr(fitting, "_bilinear_bound", record)
    for levels in (3, 4, 5):
        s = normalize(load(FIXTURE, "trends_csv"), levels)
        edges = s.zone_edges
        sizes = [edges[j + 1] - edges[i] for i in range(s.n_zones)
                 for j in range(i, s.n_zones)]
        feasible = [n for n in sizes if n >= PARAM_COUNTS[CurveKind.BILINEAR]]
        seen.clear()
        build_pool(s, (CurveKind.BILINEAR,))
        assert sum(seen) == sum(feasible), (cells, levels)
        if cells == _CHUNK_CELLS:
            assert len(seen) < len(set(feasible)), levels
        else:
            assert len(seen) > len(set(feasible)), (cells, levels)


def test_bilinear_sends_lapack_no_zero_last_row(monkeypatch):
    """A candidate system with d = e = 0, such as the last sample's, whose
    right segment is empty, is singular and is never sent to LAPACK, on
    the two 2048-point seed-7919 walks at level 4 and the oracle series,
    edge-sampled ones included."""
    sent = []
    sse = fitting._bilinear_sse

    def record(a, b, c, d, e, *rest):
        sent.append(((d == 0) & (e == 0)).sum())
        return sse(a, b, c, d, e, *rest)

    monkeypatch.setattr(fitting, "_bilinear_sse", record)
    rng = np.random.default_rng(7919)
    walks = [make_series(np.cumsum(rng.standard_normal(2048)), 4) for _ in range(2)]
    for s in walks + list(_oracle_series(np.random.default_rng(6300), 45)):
        ranges = [(i, j) for i in range(s.n_zones) for j in range(i, s.n_zones)]
        _fit_ranges(s, CurveKind.BILINEAR, ranges)
    assert len(sent) > 0 and sum(sent) == 0


def _wave(rng, n=256):
    """A two-sine series with noise of 1e-4, as the benchmark's detail
    workload draws it."""
    x = np.arange(n) / (n - 1)
    y = 0.5 + 0.33 * np.sin(2 * np.pi * 1.1 * x) + 0.12 * np.sin(2 * np.pi * 6.1 * x + 4.0)
    return y + 1e-4 * rng.standard_normal(n)


def test_bilinear_sends_few_cells_to_lapack(monkeypatch):
    """The bound leaves LAPACK under a tenth of the candidate cells on the
    two 2048-point seed-7919 walks at level 4 and on a 256-point two-sine
    wave at level 5, counted by the systems ``np.linalg.solve`` gets."""
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(len(a)) or solve(a, b))
    rng = np.random.default_rng(7919)
    walks = [make_series(np.cumsum(rng.standard_normal(2048)), 4) for _ in range(2)]
    for s in walks + [make_series(_wave(np.random.default_rng(7919)), 5)]:
        edges = s.zone_edges
        cells = sum(edges[j + 1] - edges[i] for i in range(s.n_zones)
                    for j in range(i, s.n_zones))
        solved.clear()
        build_pool(s, (CurveKind.BILINEAR,))
        assert 0 < sum(solved) < 0.1 * cells, (sum(solved), cells)


# Per-range fitters, one range at a time with their own helpers, as
# oracles for the batch fitters: the pool oracle below calls no fitting
# code.


def _reference_line(x: np.ndarray, y: np.ndarray, x_lo: float, x_hi: float):
    n = len(x)
    sx = float(x.sum())
    sy = float(y.sum())
    sxx = float((x * x).sum())
    sxy = float((x * y).sum())
    denom = n * sxx - sx * sx
    if denom <= 0:
        return None
    b = (n * sxy - sx * sy) / denom
    a = (sy - b * sx) / n
    return LineParams(a=a, b=b)


def _seg_sse(cnt: np.ndarray, s: np.ndarray, ss: np.ndarray) -> np.ndarray:
    out = ss - np.where(cnt > 0, s * s / np.where(cnt > 0, cnt, 1.0), 0.0)
    return np.maximum(out, 0.0)


_TOOTH_BLOCK_CELLS = 1 << 20


def _reference_tooth(
    x: np.ndarray,
    py: np.ndarray,
    pyy: np.ndarray,
    boundaries: np.ndarray,
    add_samples: bool,
):
    """Tooth fit of the range ``x`` from prefix sums of y and y^2 that
    may run past it.  Each zone of the range holds a sample, so every
    (start, end) cell with end > start counts at least one."""
    n = len(x)
    positions = np.unique(np.concatenate([boundaries, x])) if add_samples else boundaries
    n_pos = len(positions)

    lo_idx = np.searchsorted(x, positions, side="left")
    hi_idx = np.searchsorted(x, positions, side="right")

    s_lo, s_hi = py[lo_idx], py[hi_idx]
    ss_lo, ss_hi = pyy[lo_idx], pyy[hi_idx]
    # Outer segments per edge position; py[0] and pyy[0] are 0.0, so
    # these equal the per-pair differences exactly.
    left = _seg_sse(lo_idx.astype(float), s_lo, ss_lo)
    right = _seg_sse((n - hi_idx).astype(float), py[n] - s_hi, pyy[n] - ss_hi)

    # The plateau spans rows (start edge) by columns (end edge).  Rows
    # are scored in blocks of at most _TOOTH_BLOCK_CELLS cells, so memory
    # stays bounded.  Ties prefer the wider plateau, then the earlier
    # start: blocks run in start order, and a later block replaces the
    # best only with a strictly smaller (sse, -width).
    cols = np.arange(n_pos)
    step = max(1, _TOOTH_BLOCK_CELLS // n_pos)
    best_key = best_cell = None  # (sse, -width), (row, col)
    for r0 in range(0, n_pos - 1, step):
        rows = np.arange(r0, min(r0 + step, n_pos - 1))
        cnt = hi_idx[None, :] - lo_idx[rows, None]
        # _seg_sse's arithmetic in place; cells with cnt <= 0 are masked below.
        s = s_hi[None, :] - s_lo[rows, None]
        s *= s
        with np.errstate(invalid="ignore", divide="ignore"):
            s /= cnt
        sse = ss_hi[None, :] - ss_lo[rows, None]
        sse -= s
        np.maximum(sse, 0.0, out=sse)
        sse = left[rows, None] + sse
        sse += right[None, :]
        sse[(cols[None, :] <= rows[:, None]) | (cnt <= 0)] = np.inf
        m = float(sse.min())
        tr, tc = np.nonzero(sse == m)
        tr = rows[tr]
        width = positions[tc] - positions[tr]
        k = int(np.lexsort((positions[tr], -width))[0])
        key = (m, float(-width[k]))
        if best_key is None or key < best_key:
            best_key, best_cell = key, (int(tr[k]), int(tc[k]))

    row, col = best_cell
    s_i, e_i = int(lo_idx[row]), int(hi_idx[col])
    y_in = float((py[e_i] - py[s_i]) / (e_i - s_i))
    y_out_l = float(py[s_i] / s_i) if s_i > 0 else y_in
    y_out_r = float((py[n] - py[e_i]) / (n - e_i)) if e_i < n else y_in
    return ToothParams(
        y_out_l=y_out_l,
        y_out_r=y_out_r,
        x_s=float(positions[row]),
        x_e=float(positions[col]),
        y_in=y_in,
    )


def _reference_sin_solve(x, r, freq):
    arg = 2 * math.pi * freq * x
    s = np.sin(arg)
    co = np.cos(arg)
    m00 = float((s * s).sum())
    m01 = float((s * co).sum())
    m11 = float((co * co).sum())
    b0 = float((s * r).sum())
    b1 = float((co * r).sum())
    det = m00 * m11 - m01 * m01
    if abs(det) < 1e-14:
        return None
    a = (m11 * b0 - m01 * b1) / det
    b = (m00 * b1 - m01 * b0) / det
    sse = float((r * r).sum()) - (a * b0 + b * b1)
    return a, b, max(sse, 0.0)


def _reference_sinusoid(x, y, x_lo, x_hi):
    """The sinusoid fit with its grid scanned one frequency at a time."""
    grid = np.geomspace(0.5, 8.0, 32)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    width = x_hi - x_lo
    mean = float(y.mean())
    r = y - mean

    def sse_at(f_range):
        sol = _reference_sin_solve(x, r, f_range / width)
        return sol[2] if sol is not None else np.inf

    sols = [_reference_sin_solve(x, r, f / width) for f in grid]
    sses = [sol[2] if sol is not None else np.inf for sol in sols]
    if not np.isfinite(sses).any():
        return None
    k = int(np.argmin(sses))
    a, b, sse = sols[k]
    freq = grid[k] / width
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    c1 = hi - golden * (hi - lo)
    c2 = lo + golden * (hi - lo)
    f1, f2 = sse_at(c1), sse_at(c2)
    while (hi - lo) > 1e-3 * (0.5 * (hi + lo)):
        if f1 <= f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - golden * (hi - lo)
            f1 = sse_at(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + golden * (hi - lo)
            f2 = sse_at(c2)
    mid = 0.5 * (lo + hi) / width
    sol = _reference_sin_solve(x, r, mid)
    if sol is not None and sol[2] < sse:
        a, b, _ = sol
        freq = mid
    amp = math.hypot(a, b)
    phase = math.atan2(b, a) % (2 * math.pi)
    if phase >= 2 * math.pi:
        phase = 0.0
    return SinusoidParams(amp=amp, freq=freq, phase=phase, mean=mean)


def _reference_pool(series, kinds):
    """``build_pool`` one range at a time, with one mean per zone."""
    kinds = tuple(sorted(set(kinds)))
    n = series.n_zones
    descriptors = []
    n_infeasible = 0
    for kind in kinds:
        for i in range(n):
            for j in range(i, n):
                sl = series.zone_slice(i, j)
                x, y = series.xs[sl], series.ys[sl]
                x_lo, x_hi = series.zone_x_range(i, j)
                params = None
                if len(x) < PARAM_COUNTS[kind]:
                    pass
                elif kind is CurveKind.BILINEAR:
                    params = _reference_bilinear(x, y, x_lo, x_hi, set())
                elif kind is CurveKind.TOOTH:
                    boundaries = np.arange(i, j + 2, dtype=float) / n
                    params = _reference_tooth(
                        x, np.concatenate(([0.0], np.cumsum(y))),
                        np.concatenate(([0.0], np.cumsum(y * y))),
                        boundaries, (j - i + 1) <= 4)
                elif kind is CurveKind.LINE:
                    params = _reference_line(x, y, x_lo, x_hi)
                else:
                    params = _reference_sinusoid(x, y, x_lo, x_hi)
                if params is None:
                    n_infeasible += 1
                    continue
                res_sq = np.square(y - evaluate(kind, params, x))
                errs = tuple(
                    float(np.sqrt(res_sq[lo - sl.start : hi - sl.start].mean()))
                    for lo, hi in zip(series.zone_edges[i : j + 1],
                                      series.zone_edges[i + 1 : j + 2])
                )
                descriptors.append(
                    Descriptor(len(descriptors), kind, params, i, j, errs, n))
    return make_pool(descriptors, n, kinds, n_infeasible)


def test_pool_matches_per_range_reference(monkeypatch):
    """Pools built a sample count at a time equal the per-range build, ids,
    zone errors and infeasible count included, for every kind, with the
    default chunk budget, with one of 32 (one (range, zone) segment a sum
    chunk, one range a bilinear run) and with one of 224 (up to 7
    segments a chunk); and ``fit_one`` returns each descriptor with id -1."""
    rng = np.random.default_rng(6400)
    n_infeasible = 0
    for case, s in enumerate(_oracle_series(rng, 12)):
        if s.n_zones > 16:
            continue
        # The sin/cos basis is degenerate on repeated sample positions.
        distinct = len(np.unique(s.xs)) == len(s.xs)
        kinds = tuple(CurveKind) if case % 2 and distinct else DEFAULT_KINDS
        reference = _reference_pool(s, kinds)
        for cells in (32, 224, _CHUNK_CELLS):
            monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
            pool = build_pool(s, kinds)
            assert pool_key(pool) == pool_key(reference), (case, cells)
        n_infeasible += pool.n_infeasible
        for d in pool:
            assert fit_one(s, d.kind, d.zone_start, d.zone_end) == replace(d, id=-1)
    assert n_infeasible > 0


def _uneven_series(xs, ys, levels):
    """A series on the given sorted positions in [0, 1], each zone holding
    one at least."""
    return TimeSeries(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 2 ** levels)


@st.composite
def _uneven_zones(draw):
    """(levels, xs, ys): 1 to 7 sorted samples a zone at 1 to 4 zone
    levels, offset into their zone on a 1/1000 grid or below 1e-150, and
    integer or random values."""
    levels = draw(st.integers(1, 4))
    n_zones = 2 ** levels
    xs = []
    for z in range(n_zones):
        # Offsets on a 1/1000 grid, or below 1e-150: in zone 0 such a
        # sample's gap to the range edge squares to 0 or nearly.
        offsets = draw(st.lists(
            st.integers(0, 999).map(lambda u: u / 1000) | st.floats(0.0, 1e-150),
            min_size=1, max_size=7))
        xs += sorted({(z + u) / n_zones for u in offsets})
    xs[0], xs[-1] = 0.0, 1.0
    ys = draw(st.lists(st.integers(0, 4).map(float) | st.floats(0.0, 1.0),
                       min_size=len(xs), max_size=len(xs)))
    return levels, xs, ys


# Zone 1 starts with a sample on its left boundary 0.5, the last plateau
# edge of range [0, 0].  ``searchsorted(..., "right")`` counts that sample
# at 0.5, in the tooth table range [0, 1] shares with range [0, 0]; range
# [0, 0]'s plateau [0.2, 0.5] holds only its own samples.
_ON_NEXT_ZONES_EDGE = (1, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0],
                       [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0])


@settings(max_examples=20, deadline=None)
@given(case=_uneven_zones())
@example(case=_ON_NEXT_ZONES_EDGE)
def test_pool_matches_reference_on_uneven_zones(case):
    """Unevenly spaced samples put unequal counts in the zones, so the
    groups of one sample count mix ranges of different widths and starts,
    and tooth groups mix plateau edge counts.  Every kind's pool equals
    the per-range build, and ``fit_one`` each of its descriptors, also
    where a zone's first sample lies on its left boundary, the last
    plateau edge of the ranges that end before it."""
    levels, xs, ys = case
    s = _uneven_series(xs, ys, levels)
    pool = build_pool(s, tuple(CurveKind))
    # The per-range bilinear oracle divides by those squared gaps.
    with np.errstate(divide="ignore", invalid="ignore"):
        assert pool_key(pool) == pool_key(_reference_pool(s, tuple(CurveKind)))
    for d in pool:
        assert fit_one(s, d.kind, d.zone_start, d.zone_end) == replace(d, id=-1)


# 136 flags: one per range of 16 zones, ``_uneven_zones``' finest grid.  The
# example drops range [0, 1], the widest of start 0's group.
@settings(max_examples=15, deadline=None)
@given(case=_uneven_zones(), keep=st.lists(st.booleans(), min_size=136, max_size=136))
@example(case=_ON_NEXT_ZONES_EDGE, keep=[True, False, True] * 45 + [True])
def test_fit_ranges_fits_a_sorted_subset_range_by_range(case, keep):
    """``_fit_ranges`` takes ranges in (start, end) order and cuts them into
    runs and start groups as slices.  On sorted subsets of the grid's
    ranges, with gaps, so that a tooth group can lack its widest range and
    a bilinear run can skip ranges, each range gets exactly the params
    and zone errors of its own one-range pool, for every kind and with
    chunks of 7 cells, of 64 and of the default."""
    levels, xs, ys = case
    s = _uneven_series(xs, ys, levels)
    grid = np.stack(np.triu_indices(s.n_zones), axis=1)
    ranges = grid[np.asarray(keep)[: len(grid)]]
    for kind in CurveKind:
        own = [fitting._fit_pool(s, (kind,), ranges[r : r + 1]) for r in range(len(ranges))]
        for cells in (7, 64, _CHUNK_CELLS):
            fitting._CHUNK_CELLS = cells
            try:
                fit, params, errs = _fit_ranges(s, kind, ranges)
            finally:
                fitting._CHUNK_CELLS = _CHUNK_CELLS
            assert fit.tolist() == [r for r, p in enumerate(own) if len(p)], (kind, cells)
            for r, p, e in zip(fit, params, errs):
                assert np.array_equal(p, own[r].params[0], equal_nan=True), (kind, cells, r)
                assert np.array_equal(e, own[r].errs[0]), (kind, cells, r)


@pytest.mark.parametrize("cells", [7, 64, _CHUNK_CELLS])
def test_tooth_pool_matches_reference_when_edge_groups_mix_sample_counts(
        monkeypatch, cells):
    """Tooth ranges are fitted from their start's prefix sums, whatever
    their sample count.  On unevenly sampled series, where one edge count
    holds ranges of several sample counts, the tooth pool equals the
    per-range build, zone errors included, with chunks of one column, of
    a few and of whole tables."""
    monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
    rng = np.random.default_rng(6800)
    mixed = 0
    for case in range(9):
        levels = 1 + case % 4
        n_zones = 2 ** levels
        xs = []
        for z in range(n_zones):
            count = int(rng.integers(1, 10))
            xs += sorted({(z + u) / n_zones for u in np.round(rng.random(count), 3)})
        xs[0], xs[-1] = 0.0, 1.0
        ys = np.round(rng.normal(1.0, 1.0, len(xs))) if case % 2 else rng.random(len(xs))
        s = _uneven_series(xs, ys, levels)
        samples = {}  # plateau edge count -> the sample counts of its ranges
        for i in range(n_zones):
            for j in range(i, n_zones):
                x = s.xs[s.zone_slice(i, j)]
                if len(x) >= PARAM_COUNTS[CurveKind.TOOTH]:
                    edges = j - i + 2
                    if j - i < 4:
                        edges = len(np.unique(np.r_[np.arange(i, j + 2) / n_zones, x]))
                    samples.setdefault(edges, set()).add(len(x))
        mixed += any(len(counts) > 1 for counts in samples.values())
        assert pool_key(build_pool(s, (CurveKind.TOOTH,))) == pool_key(
            _reference_pool(s, (CurveKind.TOOTH,))), case
    assert mixed >= 3


def _counted_tooth_tables(monkeypatch):
    """Wrap ``_fit_tooth_groups``: the list it returns gets, for each table
    the fitter shares (a start's ranges of at most 4 zones, or its wider
    ones), the set of its ranges' plateau edge counts by ``_tooth_edges``."""
    tables, fit_groups = [], fitting._fit_tooth_groups

    def counted(xs, ys, first, n, span_i, span_j, nz, lead):
        _, row = fitting._tooth_edges(xs, first, n, span_i, span_j, nz)
        counts = np.bincount(row, minlength=len(n))
        tables.extend(set(c.tolist()) for c in np.split(counts, lead[1:]))
        return fit_groups(xs, ys, first, n, span_i, span_j, nz, lead)

    monkeypatch.setattr(fitting, "_fit_tooth_groups", counted)
    return tables


def test_tooth_tables_are_scored_in_few_runs(monkeypatch):
    """At fixture level 5 the tooth ranges have 29 distinct edge counts.
    Their 528 ranges share 60 tables, one per start for its ranges of at
    most 4 zones and one for its wider ones, some holding ranges of several
    edge counts, and every table is scored in fewer passes than there are
    edge counts."""
    tables = _counted_tooth_tables(monkeypatch)
    passes, cells = [], fitting._tooth_cells
    monkeypatch.setattr(fitting, "_tooth_cells", lambda *a: passes.append(1) or cells(*a))
    build_pool(normalize(load(FIXTURE, "trends_csv"), 5), (CurveKind.TOOTH,))
    counts = set().union(*tables)
    assert len(counts) == 29
    assert len(tables) == 60
    assert len(passes) < len(counts)
    assert any(len(c) > 1 for c in tables)


@pytest.mark.parametrize("cells", [7, 64, _CHUNK_CELLS])
def test_tooth_pool_matches_reference_when_runs_mix_edge_counts(monkeypatch, cells):
    """A start's ranges share one table, of its widest range's edges, so
    a table serves ranges of several edge counts.  On unevenly sampled
    series of up to 40 samples a zone, where tables mix counts and hold 64
    edges or more, the tooth pool equals the per-range build, ties and
    zone errors included, with chunks of one column, of a few and of
    whole tables, and no cell raises a RuntimeWarning (tier-1 makes those
    errors)."""
    monkeypatch.setattr(fitting, "_CHUNK_CELLS", cells)
    tables = _counted_tooth_tables(monkeypatch)
    rng = np.random.default_rng(6900)
    for case in range(6):
        levels = 1 + case % 3
        n_zones = 2 ** levels
        xs = []
        for z in range(n_zones):
            count = int(rng.integers(1, 41))
            xs += sorted({(z + u) / n_zones for u in np.round(rng.random(count), 3)})
        xs[0], xs[-1] = 0.0, 1.0
        # Integer values tie often; with only the last sample raised, the
        # best plateau would hold it alone, which no pair of a range's own
        # edges gives: a table edge past its last must not end a plateau.
        ys = [rng.random(len(xs)), rng.integers(0, 3, len(xs)),
              np.arange(len(xs)) == len(xs) - 1][case % 3].astype(float)
        s = _uneven_series(xs, ys, levels)
        assert pool_key(build_pool(s, (CurveKind.TOOTH,))) == pool_key(
            _reference_pool(s, (CurveKind.TOOTH,))), case
    mixed = [c for c in tables if len(c) > 1]
    assert len(mixed) >= 3
    assert any(max(c) >= 64 for c in mixed)


# A sample offset into its zone: on the zone's left boundary (0), on a
# 1/1000 grid, or below 1e-150, where it rounds onto the boundary past
# zone 0.
_OFFSETS = st.lists(st.just(0.0) | st.integers(0, 999).map(lambda u: u / 1000)
                    | st.floats(0.0, 1e-150), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(1, 4), zones=st.lists(_OFFSETS, min_size=16, max_size=16))
@example(levels=1, zones=[[0.0]] * 16)
def test_tooth_edges_match_per_range_unique(levels, zones):
    """The raveled plateau edges of every range equal its own ``np.unique``
    of its zone boundaries and, when it spans at most 4 zones, its
    samples, samples on a boundary included.  Tooth fits are made exactly
    where a range holds 5 samples or more; a 2-sample series has no such range,
    and its tooth build, an empty run, fits none."""
    n_zones = 2 ** levels
    xs = []
    for z in range(n_zones):
        xs += sorted({(z + u) / n_zones for u in zones[z]})
    xs[0], xs[-1] = 0.0, 1.0
    s = _uneven_series(xs, np.linspace(0.0, 1.0, len(xs)), levels)
    # In width order, one range's last boundary is the next one's first.
    ranges = [(i, i + w) for w in range(n_zones) for i in range(n_zones - w)]
    span_i, span_j = np.array(ranges).T
    first = s.zone_edges[span_i]
    n = s.zone_edges[span_j + 1] - first
    edges, row = fitting._tooth_edges(s.xs, first, n, span_i, span_j, n_zones)
    ends = np.cumsum(np.bincount(row, minlength=len(ranges)))
    for (i, j), got in zip(ranges, np.split(edges, ends[:-1])):
        want = np.arange(i, j + 2, dtype=float) / n_zones
        if j - i < 4:
            want = np.unique(np.r_[want, s.xs[s.zone_slice(i, j)]])
        assert got.tolist() == want.tolist(), (i, j)
    # The fitter takes its ranges in (start, end) order.
    order = np.lexsort((span_j, span_i))
    fits = fitted_params(s, CurveKind.TOOTH, [ranges[k] for k in order])
    assert [p is not None for p in fits] == (n[order] >= PARAM_COUNTS[CurveKind.TOOTH]).tolist()


# A sample 1e-200 past the left edge of zone 0 (normalized x = t).
NEAR_EDGE_TS = (0.0, 1e-200, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 1.0)
NEAR_EDGE_VS = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
NEAR_EDGE_POOL_SHA256 = "5c3c788eb43b4b406bdb204f6eb50cfdb4b02117e9c647feece52b948c761d4f"


def test_near_edge_breakpoint_builds_without_warnings(tmp_path):
    """A breakpoint candidate whose gap to its range edge squares to 0 is
    not scored, so nothing divides by 0 and no RuntimeWarning is raised.
    Scoring it only ever rejected it as singular, so every kind's pool
    keeps the bytes pinned from then."""
    s = normalize(raw_series(NEAR_EDGE_VS, NEAR_EDGE_TS), 1)
    assert 0.0 < s.xs[1] and s.xs[1] ** 2 == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pool = build_pool(s, tuple(CurveKind))
    dump_pool(pool, tmp_path / "pool.jsonl")
    data = (tmp_path / "pool.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == NEAR_EDGE_POOL_SHA256


@pytest.mark.parametrize("points, levels, kind, limit_mib", [
    (16384, 4, CurveKind.BILINEAR, 16),
    (2048, 1, CurveKind.TOOTH, 37),
    (16384, 2, CurveKind.SINUSOID, 18),
    (16384, 6, CurveKind.LINE, 8),
], ids=["bilinear-16384-points-L4", "tooth-2048-points-L1", "sinusoid-16384-points-L2",
        "line-16384-points-L6"])
def test_build_pool_memory_is_bounded(points, levels, kind, limit_mib):
    """Dense input: bilinear candidates and tooth tables are processed in
    chunks, so a pool build's traced peak stays small.  Solving every
    bilinear candidate of the 16,384-point walk at once takes about
    51 MiB; scoring the 2048-point walk's largest tooth table unblocked,
    about 128 MiB.  Residuals and zone errors are taken a run of ranges
    at a time, so the peak does not grow with zones squared: holding all
    the L6 line residuals of the 16,384-point walk at once took about
    104 MiB, and the build now peaks near 6 MiB."""
    walk = np.cumsum(np.random.default_rng(7919).standard_normal(points))
    s = make_series(walk, levels)
    tracemalloc.start()
    try:
        build_pool(s, (kind,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2 ** 20


def test_dump_pool_memory_is_bounded(tmp_path):
    """Saving the fixture's level-5 pool, 0.65 MiB of text, holds that
    text whole once while it is written, and its zone errors as Python
    floats and text only a block at a time: the traced peak is about
    1.7 MiB.  Holding the float lists, the joined lines and the header
    and body concatenation whole peaked at 3.6 MiB."""
    pool = build_pool(normalize(load(FIXTURE, "trends_csv"), 5))
    tracemalloc.start()
    try:
        dump_pool(pool, tmp_path / "pool.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20


def test_load_pool_memory_is_bounded(tmp_path):
    """Reloading the fixture's level-5 pool, 0.65 MiB of text, holds its
    lines whole and its decoded records only a block at a time: the
    traced peak is about 2 MiB.  Decoding every record at once peaked at
    4.5 MiB."""
    path = tmp_path / "pool.jsonl"
    dump_pool(build_pool(normalize(load(FIXTURE, "trends_csv"), 5)), path)
    tracemalloc.start()
    try:
        load_pool(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20
