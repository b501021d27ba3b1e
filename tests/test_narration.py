import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import full_random_pool, make_descriptor, make_pool, series_exact
from serinarr.details import SelectionResult
from serinarr.narration import (
    CONSTANCY,
    DEPTH,
    HEIGHT,
    OSCILLATION,
    SHARPNESS,
    STEEPNESS,
    NarrationUnit,
    ShapeClass,
    angles_of_bilinear,
    build_narration,
    classify,
    classify_bilinear,
    narration_structure,
    quantize,
)
from serinarr.prototypes import (
    BilinearParams,
    CurveKind,
    LineParams,
    SinusoidParams,
    ToothParams,
    evaluate,
)


def selection(summary_ids, details, s=1):
    return SelectionResult(
        s=s,
        summary=tuple(summary_ids),
        details=tuple(details),
        objective=0.0,
        per_zone_gain={},
    )


# ---------------------------------------------------------------- quantize


def test_quantize_boundaries_six_list():
    m = 6.0
    idx = lambda v: SHARPNESS.index(quantize(v, m, SHARPNESS))
    assert idx(0.0) == 0
    assert idx(m / 6) == 1
    assert idx(2 * m / 6 - 1e-9) == 1
    assert idx(5 * m / 6) == 5
    assert idx(m) == 5
    assert idx(m + 3.0) == 5  # clamps above the scale


def test_quantize_scale_invariance_c_7_3():
    m, c = 6.0, 7.3
    for v in (0.0, m / 6, 2 * m / 6 - 1e-6, 5 * m / 6, m, 1.8, 3.06, 5.94):
        assert quantize(c * v, c * m, SHARPNESS) == quantize(v, m, SHARPNESS)


def test_quantize_guards():
    with pytest.raises(ValueError):
        quantize(0.5, 0.0, SHARPNESS)
    with pytest.raises(ValueError):
        quantize(-0.1, 1.0, SHARPNESS)


@settings(max_examples=100)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_quantize_monotone(v1, v2):
    lo, hi = sorted((v1, v2))
    i = SHARPNESS.index(quantize(lo, 1.0, SHARPNESS))
    j = SHARPNESS.index(quantize(hi, 1.0, SHARPNESS))
    assert i <= j


@settings(max_examples=100)
@given(
    st.floats(min_value=0.0, max_value=0.995),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_quantize_scale_invariant_off_boundary(frac, c):
    # keep a margin from the bin edges where rounding may flip the bucket
    assume(abs(frac * 6 - round(frac * 6)) > 1e-3)
    m = 2.0
    v = frac * m
    assert quantize(c * v, c * m, SHARPNESS) == quantize(v, m, SHARPNESS)


# ------------------------------------------------------------------ angles


def test_symmetric_v_angles():
    p = BilinearParams(x_b=0.5, y_l=0.5, y_b=0.0, y_r=0.5, x_lo=0.0, x_hi=1.0)
    normal, aperture = angles_of_bilinear(p)
    assert normal == pytest.approx(90.0)
    assert aperture == pytest.approx(90.0)


def test_collinear_segments_are_open():
    p = BilinearParams(x_b=0.5, y_l=0.2, y_b=0.4, y_r=0.6, x_lo=0.0, x_hi=1.0)
    _, aperture = angles_of_bilinear(p)
    assert aperture == pytest.approx(180.0)


def test_inverted_v_angles():
    p = BilinearParams(x_b=0.5, y_l=0.0, y_b=0.5, y_r=0.0, x_lo=0.0, x_hi=1.0)
    normal, aperture = angles_of_bilinear(p)
    assert normal == pytest.approx(90.0)
    assert aperture == pytest.approx(270.0)


def test_classify_peak_at_90_270():
    category, strength = classify_bilinear(90.0, 270.0, 0.0)
    assert category == "peak"
    assert strength == SHARPNESS[3]


def test_classify_valley_symmetric_v():
    category, strength = classify_bilinear(90.0, 90.0, 0.0)
    assert category == "valley"
    assert strength == SHARPNESS[3]


def test_classify_constant_band_boundary():
    # 150 sits on the edge of the band and still reads as a valley
    assert classify_bilinear(90.0, 150.0, 0.0)[0] == "valley"
    assert classify_bilinear(90.0, 150.0 - 1e-9, 0.0)[0] == "valley"
    assert classify_bilinear(90.0, 150.0 + 1e-9, 0.0)[0] == "constant"
    assert classify_bilinear(90.0, 210.0 - 1e-9, 0.0)[0] == "constant"
    assert classify_bilinear(90.0, 210.0, 0.0)[0] == "peak"


def test_classify_rise_drop_fallback():
    # normal far off vertical: apex rules out, direction decides
    assert classify_bilinear(175.0, 90.0, 0.5) == ("rise", STEEPNESS[2])
    assert classify_bilinear(175.0, 90.0, -0.5) == ("drop", STEEPNESS[2])
    assert classify_bilinear(175.0, 90.0, 2.0)[1] == STEEPNESS[3]


@settings(max_examples=100)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_vertical_flip_swaps_valley_and_peak(x_b, y_l, y_b, y_r):
    p = BilinearParams(x_b=x_b, y_l=y_l, y_b=y_b, y_r=y_r, x_lo=0.0, x_hi=1.0)
    q = BilinearParams(
        x_b=x_b, y_l=1.0 - y_l, y_b=1.0 - y_b, y_r=1.0 - y_r,
        x_lo=0.0, x_hi=1.0)
    assume(abs(p.y_r - p.y_l) > 1e-9)
    n_p, a_p = angles_of_bilinear(p)
    n_q, a_q = angles_of_bilinear(q)
    # rounding at the rule boundaries is out of scope for the symmetry claim
    for n, a in ((n_p, a_p), (n_q, a_q)):
        assume(abs(abs(a - 180.0) - 30.0) > 1e-6)
        g = n + a / 2.0 if a < 180.0 else 360.0 - (n + a / 2.0)
        assume(abs(g - 10.0) > 1e-6 and abs(g - 170.0) > 1e-6)
    cat_p, str_p = classify_bilinear(n_p, a_p, p.y_r - p.y_l)
    cat_q, str_q = classify_bilinear(n_q, a_q, q.y_r - q.y_l)
    swap = {"valley": "peak", "peak": "valley",
            "constant": "constant", "rise": "drop", "drop": "rise"}
    assert cat_q == swap[cat_p]
    assert str_q == str_p


# ---------------------------------------------------------------- classify


def tooth_series_and_descriptor(params, levels=2, n_pts=129):
    x = np.arange(n_pts) / (n_pts - 1)
    s = series_exact(evaluate(CurveKind.TOOTH, params, x), levels)
    d = make_descriptor(
        0, 0, s.n_zones - 1, [0.0] * s.n_zones, s.n_zones,
        kind=CurveKind.TOOTH, params=params)
    return s, d


def test_tooth_narrow_low_plateau_is_very_deep_valley():
    p = ToothParams(y_out_l=0.4, y_out_r=0.4, x_s=0.42, x_e=0.69, y_in=0.09)
    s, d = tooth_series_and_descriptor(p)
    shape = classify(d, s)
    assert shape.category == "valley"
    assert shape.strength == "very_deep"
    assert shape.extent == "ranged"
    assert shape.surface == "valley"
    assert shape.anchors["avg"] == pytest.approx(0.09)
    assert shape.anchors["x1"] == 0.42
    assert shape.anchors["x2"] == 0.69
    assert shape.anchors["whole_span"] is True


def test_tooth_wide_low_plateau_wording():
    p = ToothParams(y_out_l=0.8, y_out_r=0.8, x_s=0.25, x_e=0.75, y_in=0.2)
    s, d = tooth_series_and_descriptor(p)
    shape = classify(d, s)
    assert shape.category == "plateau_low"
    assert shape.surface == "lower peak plateau"
    assert shape.strength in DEPTH


def test_tooth_high_plateau_wording():
    p = ToothParams(y_out_l=0.2, y_out_r=0.2, x_s=0.3, x_e=0.8, y_in=0.9)
    s, d = tooth_series_and_descriptor(p)
    shape = classify(d, s)
    assert shape.category == "plateau_high"
    assert shape.surface == "upper peak plateau"
    assert shape.strength == "very_high"


def test_tooth_flip_keeps_strength_index():
    low = ToothParams(y_out_l=0.7, y_out_r=0.7, x_s=0.3, x_e=0.5, y_in=0.3)
    high = ToothParams(y_out_l=0.3, y_out_r=0.3, x_s=0.3, x_e=0.5, y_in=0.7)
    s1, d1 = tooth_series_and_descriptor(low)
    s2, d2 = tooth_series_and_descriptor(high)
    a = classify(d1, s1)
    b = classify(d2, s2)
    assert a.category == "valley" and b.category == "peak"
    assert DEPTH.index(a.strength) == HEIGHT.index(b.strength)


def test_line_classify_rise_and_flat():
    x = np.arange(65) / 64.0
    s = series_exact(0.005 + 0.99 * x, levels=2)
    d = make_descriptor(0, 0, 3, [0.0] * 4, 4, kind=CurveKind.LINE,
                        params=LineParams(a=0.005, b=0.99))
    shape = classify(d, s)
    assert shape.category == "rise"
    assert shape.surface == "increase"
    assert shape.strength == "very_steep"
    assert shape.extent == "point"
    assert shape.anchors["value"] == pytest.approx(0.995)
    assert shape.anchors["x"] == 1.0

    flat = make_descriptor(0, 0, 3, [0.0] * 4, 4, kind=CurveKind.LINE,
                           params=LineParams(a=0.5, b=0.004))
    s2 = series_exact(0.5 + 0.004 * x, levels=2)
    shape2 = classify(flat, s2)
    assert shape2.category == "constant"
    assert shape2.surface == "trend"
    assert shape2.strength == CONSTANCY[0]
    assert shape2.extent == "ranged"


def test_line_decrease_noun():
    x = np.arange(65) / 64.0
    s = series_exact(0.9 - 0.5 * x, levels=2)
    d = make_descriptor(0, 0, 3, [0.0] * 4, 4, kind=CurveKind.LINE,
                        params=LineParams(a=0.9, b=-0.5))
    shape = classify(d, s)
    assert shape.category == "drop"
    assert shape.surface == "decrease"
    assert shape.strength == "steep"  # |dy| = 0.5 lands in bucket 2 of 4


def test_bilinear_classify_valley_point():
    p = BilinearParams(x_b=0.5, y_l=0.9, y_b=0.1, y_r=0.9, x_lo=0.0, x_hi=1.0)
    x = np.arange(129) / 128.0
    s = series_exact(evaluate(CurveKind.BILINEAR, p, x), levels=2)
    d = make_descriptor(0, 0, 3, [0.0] * 4, 4, kind=CurveKind.BILINEAR,
                        params=p)
    shape = classify(d, s)
    assert shape.category == "valley"
    assert shape.extent == "point"
    assert shape.anchors == {"value": 0.1, "x": 0.5}


def test_bilinear_minor_segment_reads_as_main_line():
    # tiny right-hand tail: the left climb is the story
    p = BilinearParams(x_b=0.9, y_l=0.1, y_b=0.9, y_r=0.88, x_lo=0.0, x_hi=1.0)
    x = np.arange(129) / 128.0
    s = series_exact(evaluate(CurveKind.BILINEAR, p, x), levels=2)
    d = make_descriptor(0, 0, 3, [0.0] * 4, 4, kind=CurveKind.BILINEAR,
                        params=p)
    shape = classify(d, s)
    assert shape.category == "rise"
    assert shape.surface == "rise"
    assert shape.extent == "point"
    assert shape.anchors["value"] == pytest.approx(0.9)
    assert shape.anchors["x"] == 0.9


def test_sinusoid_classify():
    p = SinusoidParams(amp=0.3, freq=3.0, phase=0.0, mean=0.5)
    x = np.arange(257) / 256.0
    s = series_exact(evaluate(CurveKind.SINUSOID, p, x), levels=2)
    d = make_descriptor(0, 0, 3, [0.0] * 4, 4, kind=CurveKind.SINUSOID,
                        params=p)
    shape = classify(d, s)
    assert shape.category == "oscillation"
    assert shape.strength == OSCILLATION[1]
    assert shape.anchors["cycles"] == 3
    assert shape.anchors["amp"] == pytest.approx(0.3)


def test_shape_class_validation():
    with pytest.raises(ValueError):
        ShapeClass(category="wiggle", strength="x", extent="point",
                   anchors={}, surface="wiggle")
    with pytest.raises(ValueError):
        ShapeClass(category="valley", strength="x", extent="area",
                   anchors={}, surface="valley")


# --------------------------------------------------------- narration order


def ordered_pool(n=8):
    descs = [
        make_descriptor(0, 0, 3, [0.1] * 4, n),
        make_descriptor(1, 4, 7, [0.1] * 4, n),
        make_descriptor(2, 1, 2, [0.05] * 2, n),
        make_descriptor(3, 4, 5, [0.05] * 2, n),
        make_descriptor(4, 4, 5, [0.04] * 2, n),
    ]
    return make_pool(descs, n)


def test_order_units_positions_and_roles():
    pool = ordered_pool()
    sel = selection([1, 0], [(3, 3), (2, 2)], s=2)
    units = build_narration(sel, pool, series_exact(np.zeros(33), levels=3))
    assert [u.descriptor_id for u in units] == [0, 1, 2, 3]
    assert [u.position for u in units] == [1, 2, 3, 4]
    assert [u.role for u in units] == ["summary", "summary", "detail", "detail"]
    assert [u.level for u in units] == [2, 2, 2, 3]


def test_order_units_detail_level_tiebreak():
    pool = ordered_pool()
    sel = selection([0, 1], [(4, 4), (3, 3)], s=2)
    units = build_narration(sel, pool, series_exact(np.zeros(33), levels=3))
    # same range, coarser source level narrates first
    assert [u.descriptor_id for u in units[2:]] == [3, 4]


def test_connectives_immediate_vs_separated():
    pool = ordered_pool()
    sel = selection([0, 1], [(2, 2)], s=2)
    units = build_narration(sel, pool, series_exact(np.zeros(33), levels=3))
    assert units[0].connective == "immediate"  # 0..3 then 4..7
    assert units[1].connective == "separated"  # 4..7 then detail at 1..2
    assert units[2].connective == "separated"  # last unit


def test_included_in_smallest_enclosing():
    pool = ordered_pool()
    sel = selection([0, 1], [(3, 3), (4, 4)], s=2)
    units = build_narration(sel, pool, series_exact(np.zeros(33), levels=3))
    assert units[0].included_in is None
    assert units[1].included_in is None
    assert units[2].included_in == 2  # 4..5 sits inside 4..7
    # 4..5 fits both the summary (width 4) and the earlier twin (width 2);
    # the tighter width wins and the later unit wins the tie
    assert units[3].included_in == 3


def test_narration_unit_is_frozen_and_needs_a_shape():
    pool = ordered_pool()
    sel = selection([0, 1], [], s=2)
    unit = build_narration(sel, pool, series_exact(np.zeros(33), levels=3))[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        unit.connective = "immediate"
    with pytest.raises(TypeError):
        NarrationUnit(position=1, role="summary", descriptor_id=0, zone_start=0,
                      zone_end=3, level=2, connective="immediate", included_in=None)


def test_build_narration_fills_shapes_and_structure():
    n = 4
    line = LineParams(a=0.1, b=0.8)
    descs = [
        make_descriptor(0, 0, 3, [0.1] * 4, n, params=line),
        make_descriptor(1, 0, 1, [0.05] * 2, n, params=LineParams(0.1, 0.002)),
    ]
    pool = make_pool(descs, n)
    x = np.arange(33) / 32.0
    s = series_exact(0.1 + 0.8 * x, levels=2)
    sel = selection([0], [(1, 2)], s=1)
    units = build_narration(sel, pool, s)
    assert all(u.shape is not None for u in units)
    doc = narration_structure(units)
    assert [row["position"] for row in doc] == [1, 2]
    for row in doc:
        assert set(row) >= {
            "position", "role", "descriptor_id", "zone_start", "zone_end",
            "level", "category", "strength", "extent", "connective",
            "included_in", "anchors",
        }


def _expected_structure(sel, pool):
    """The narration rules, restated without the library's builder:
    (descriptor id, role, level, included_in, connective) per position."""
    span = lambda i: (pool.get(i).zone_start, pool.get(i).zone_end)
    entries = [(i, "summary", sel.s) for i in sorted(sel.summary, key=span)]
    entries += [(i, "detail", lv) for i, lv in
                sorted(sel.details, key=lambda p: (*span(p[0]), p[1]))]
    out = []
    for k, (i, role, level) in enumerate(entries):
        lo, hi = span(i)
        enclosing = [(pl - ph, pos) for pos, (j, _, _) in enumerate(entries[:k], 1)
                     for pl, ph in [span(j)] if pl <= lo and hi <= ph]
        after = entries[k + 1][0] if k + 1 < len(entries) else None
        immediate = after is not None and span(after)[0] == hi + 1
        out.append((i, role, level, max(enclosing)[1] if enclosing else None,
                    "immediate" if immediate else "separated"))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_narration_follows_structure_rules(data):
    """Random tilings and detail subsets over two-kind pools, where equal
    ranges and width ties occur: positions 1..k with the summary first,
    the summary tiling the zones in order, details in (start, end, level)
    order, ``included_in`` the tightest earlier enclosing unit (the later
    one on ties), ``immediate`` exactly when the next unit starts at the
    next zone, and each shape the classification of its descriptor."""
    import random

    levels = data.draw(st.integers(1, 3), label="levels")
    n = 2 ** levels
    kinds = tuple(data.draw(st.permutations(list(CurveKind)), label="kinds")[:2])
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    pool = full_random_pool(random.Random(seed), n, kinds)
    by_range = {}
    for d in pool:
        by_range.setdefault((d.zone_start, d.zone_end), []).append(d.id)
    cuts = data.draw(st.sets(st.integers(1, n - 1)), label="cuts")
    edges = [0, *sorted(cuts), n]
    tiles = [by_range[(a, b - 1)][data.draw(st.integers(0, 1))]
             for a, b in zip(edges, edges[1:])]
    others = [d.id for d in pool if d.id not in tiles]
    picked = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=8),
                       label="details")
    details = [(i, data.draw(st.integers(1, 8))) for i in picked]
    sel = selection(data.draw(st.permutations(tiles)), details,
                    s=data.draw(st.integers(1, 8)))
    ys = np.random.default_rng(seed).uniform(size=4 * n + 1)
    series = series_exact(ys, levels)

    units = build_narration(sel, pool, series)
    expected = _expected_structure(sel, pool)
    assert [u.position for u in units] == list(range(1, len(expected) + 1))
    assert [(u.descriptor_id, u.role, u.level, u.included_in, u.connective)
            for u in units] == expected
    summary = [u for u in units if u.role == "summary"]
    assert [u.zone_start for u in summary] == edges[:-1]
    assert [u.zone_end + 1 for u in summary] == edges[1:]
    spans = [(u.zone_start, u.zone_end, u.level) for u in units[len(summary):]]
    assert spans == sorted(spans)
    for u in units:
        d = pool.get(u.descriptor_id)
        assert (u.zone_start, u.zone_end) == (d.zone_start, d.zone_end)
        assert u.shape == classify(d, series)
