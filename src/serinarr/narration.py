"""Qualitative shape classification and narration ordering.

Every selected descriptor becomes a narration unit: a category such as
valley, peak, rise or plateau, a quantized strength adjective, and the
numeric anchors the surface text needs.  One pass builds each unit
complete, in realization order: the summary tiling first (left to
right), details after (left to right, coarser level first on ties),
with connectives and containment links derived from the zone ranges.

Two-segment shapes are judged by the aperture between their segments
(the angle swept from the left arm to the right arm, 180 degrees when
collinear) and by the direction of the apex normal.  An aperture close
to 180 reads as constant, an aperture pinched below 150 with an upward
normal is a valley, the mirrored case is a peak, and anything else
falls back to a plain rise or drop.  Strengths are quantized into
fixed adjective ladders by linear bucketing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .details import SelectionResult
from .fitting import Descriptor, DescriptorPool
from .ingest import TimeSeries
from .prototypes import (
    BilinearParams,
    CurveKind,
    LineParams,
    SinusoidParams,
    ToothParams,
    evaluate,
)

SHARPNESS = ("very_smooth", "smooth", "rather_smooth", "rather_sharp", "sharp", "very_sharp")
STEEPNESS = ("very_mild", "mild", "steep", "very_steep")
DEPTH = ("slightly_deep", "deep", "very_deep")
HEIGHT = ("slightly_high", "high", "very_high")
CONSTANCY = ("rather_constant", "moderately_constant", "barely_constant")
OSCILLATION = ("slight", "moderate", "strong")

CATEGORIES = frozenset(
    {"valley", "peak", "constant", "rise", "drop",
     "plateau_low", "plateau_high", "oscillation"}
)

# Aperture band around 180 degrees that still reads as constant.
CONSTANT_APERTURE_BAND = 30.0
# Angle-rule guard band for the apex normal, in degrees.
NORMAL_BAND = (10.0, 170.0)
# A segment shorter than this fraction of the range is treated as noise
# and the other segment carries the description.
MINOR_SEGMENT_FRACTION = 0.25
# Plateau wording takes over from valley/peak at this width fraction.
PLATEAU_WIDTH_FRACTION = 0.40
# An end-to-end change that rounds to 0.00 cannot be narrated as movement.
FLAT_DELTA = 0.005


@dataclass(frozen=True)
class ShapeClass:
    category: str
    strength: str
    extent: str  # "point" or "ranged"
    anchors: dict
    surface: str  # noun used by the text generator

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.extent not in ("point", "ranged"):
            raise ValueError(f"unknown extent {self.extent!r}")


@dataclass(frozen=True)
class NarrationUnit:
    position: int  # 1-based order in the narration
    role: str  # "summary" or "detail"
    descriptor_id: int
    zone_start: int
    zone_end: int
    level: int  # verbosity level the descriptor was selected at
    connective: str  # "immediate" or "separated"
    included_in: int | None  # position of the enclosing unit, if any
    shape: ShapeClass


def quantize(value: float, max_value: float, adjectives: Sequence[str]) -> str:
    """Linear bucketing of value over [0, max_value] into len(adjectives) bins.

    Values at or above max_value clamp into the last bin, so the ladder
    is scale invariant: quantize(c*v, c*m) == quantize(v, m).
    """
    if max_value <= 0:
        raise ValueError(f"max_value must be > 0, got {max_value}")
    if value < 0:
        raise ValueError(f"value must be >= 0, got {value}")
    k = len(adjectives)
    return adjectives[min(int(value * k / max_value), k - 1)]


def angles_of_bilinear(params: BilinearParams) -> tuple[float, float]:
    """(normal, aperture) of the two segments, in degrees.

    The aperture is the angle swept from the left arm to the right arm
    (180 when collinear, small for a pinched V, above 180 for an
    inverted V).  The normal is the direction bisecting the two arms,
    90 when the apex points straight up or down.
    """
    slope_l = (params.y_b - params.y_l) / (params.x_b - params.x_lo)
    slope_r = (params.y_r - params.y_b) / (params.x_hi - params.x_b)
    alpha_l = math.degrees(math.atan(slope_l))
    alpha_r = math.degrees(math.atan(slope_r))
    aperture = 180.0 - (alpha_r - alpha_l)
    normal = 90.0 + (alpha_l + alpha_r) / 2.0
    return normal, aperture


def classify_bilinear(
    normal: float, aperture: float, depth: float
) -> tuple[str, str]:
    """Category and strength from the aperture geometry.

    ``depth`` is the signed end-to-end change, used only by the
    rise/drop fallback when the apex rules do not apply.
    """
    off = abs(aperture - 180.0)
    if off < CONSTANT_APERTURE_BAND:
        return "constant", quantize(off, CONSTANT_APERTURE_BAND, CONSTANCY)
    lo, hi = NORMAL_BAND
    if aperture < 180.0 and lo < normal + aperture / 2.0 < hi:
        return "valley", quantize(180.0 - aperture, 180.0, SHARPNESS)
    # exact vertical-flip mirror of the valley rule: (N, A) -> (180-N, 360-A)
    if aperture > 180.0 and lo < 360.0 - (normal + aperture / 2.0) < hi:
        return "peak", quantize(aperture - 180.0, 180.0, SHARPNESS)
    if depth >= 0:
        return "rise", quantize(min(abs(depth), 1.0), 1.0, STEEPNESS)
    return "drop", quantize(min(abs(depth), 1.0), 1.0, STEEPNESS)


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def _pos(x: float) -> float:
    return round(x, 2)


def _ranged_anchors(d: Descriptor, gavg: float, avg: float, x1: float,
                    x2: float, **extra) -> dict:
    """Anchors of a ranged shape: its level ``avg`` over [x1, x2] against
    the series average ``gavg`` over the descriptor's own span."""
    return {
        "avg": avg, "x1": _pos(x1), "x2": _pos(x2),
        "gavg": gavg,
        "whole_span": d.zone_start == 0 and d.zone_end == d.n_zones - 1,
        "e1": _pos(d.x_lo), "e2": _pos(d.x_hi),
        **extra,
    }


def _constant_trend(d: Descriptor, gavg: float, strength: str) -> ShapeClass:
    return ShapeClass(
        category="constant",
        strength=strength,
        extent="ranged",
        anchors=_ranged_anchors(d, gavg, gavg, d.x_lo, d.x_hi),
        surface="trend",
    )


def _point_shape(category: str, strength: str, value: float, x: float,
                 surface: str) -> ShapeClass:
    return ShapeClass(
        category=category,
        strength=strength,
        extent="point",
        anchors={"value": _clamp01(value), "x": _pos(x)},
        surface=surface,
    )


def _line_shape(d: Descriptor, gavg: float, dy: float, y_end: float,
                x_end: float, noun_rise: str, noun_drop: str) -> ShapeClass:
    if abs(dy) < FLAT_DELTA:
        return _constant_trend(d, gavg, CONSTANCY[0])
    return _point_shape(
        "rise" if dy > 0 else "drop",
        quantize(min(abs(dy), 1.0), 1.0, STEEPNESS),
        y_end,
        x_end,
        noun_rise if dy > 0 else noun_drop,
    )


def classify(d: Descriptor, series: TimeSeries) -> ShapeClass:
    """Qualitative shape of one fitted descriptor.

    Anchors are computed against the descriptor's own span: ranged
    shapes report the series average over that span, flagged as the
    whole dataset when the span covers every zone.
    """
    sl = series.zone_slice(d.zone_start, d.zone_end)
    seg_y = series.ys[sl]
    x_lo, x_hi = d.x_lo, d.x_hi
    series_avg = float(seg_y.mean())
    p = d.params

    if d.kind is CurveKind.LINE:
        assert isinstance(p, LineParams)
        dy = p.b * (x_hi - x_lo)
        y_end = evaluate(CurveKind.LINE, p, x_hi)
        return _line_shape(d, series_avg, dy, y_end, x_hi, "increase", "decrease")

    if d.kind is CurveKind.BILINEAR:
        assert isinstance(p, BilinearParams)
        width = x_hi - x_lo
        left = p.x_b - x_lo
        right = x_hi - p.x_b
        if min(left, right) < MINOR_SEGMENT_FRACTION * width:
            # One segment is marginal; describe the main one as a line.
            if left >= right:
                y0, y1, x1 = p.y_l, p.y_b, p.x_b
            else:
                y0, y1, x1 = p.y_b, p.y_r, x_hi
            return _line_shape(d, series_avg, y1 - y0, y1, x1, "rise", "drop")
        normal, aperture = angles_of_bilinear(p)
        category, strength = classify_bilinear(normal, aperture, p.y_r - p.y_l)
        if category in ("valley", "peak"):
            return _point_shape(category, strength, p.y_b, p.x_b, category)
        if category == "constant":
            return _constant_trend(d, series_avg, strength)
        return _point_shape(category, strength, p.y_r, x_hi, category)

    if d.kind is CurveKind.TOOTH:
        assert isinstance(p, ToothParams)
        baseline = 0.5 * (p.y_out_l + p.y_out_r)
        depth = abs(p.y_in - baseline)
        low = p.y_in < baseline
        # Depth is judged against how far the series actually deviates
        # from the baseline on that side within the descriptor's span.
        if low:
            span = baseline - float(seg_y.min())
        else:
            span = float(seg_y.max()) - baseline
        scale = max(span, depth, 1e-9)
        strength = quantize(depth, scale, DEPTH if low else HEIGHT)
        width_frac = (p.x_e - p.x_s) / (x_hi - x_lo)
        if width_frac >= PLATEAU_WIDTH_FRACTION:
            category = "plateau_low" if low else "plateau_high"
            surface = "lower peak plateau" if low else "upper peak plateau"
        else:
            category = "valley" if low else "peak"
            surface = category
        return ShapeClass(
            category=category,
            strength=strength,
            extent="ranged",
            anchors=_ranged_anchors(d, series_avg, _clamp01(p.y_in), p.x_s, p.x_e),
            surface=surface,
        )

    if d.kind is CurveKind.SINUSOID:
        assert isinstance(p, SinusoidParams)
        cycles = max(1, round(p.freq * (x_hi - x_lo)))
        return ShapeClass(
            category="oscillation",
            strength=quantize(min(p.amp, 0.5), 0.5, OSCILLATION),
            extent="ranged",
            anchors=_ranged_anchors(d, series_avg, _clamp01(p.mean), x_lo, x_hi,
                                    amp=p.amp, cycles=cycles),
            surface="oscillation",
        )

    raise ValueError(f"unknown curve kind {d.kind!r}")  # pragma: no cover


def build_narration(
    selection: SelectionResult, pool: DescriptorPool, series: TimeSeries
) -> list[NarrationUnit]:
    """The selected descriptors as complete units, in narration order.

    Summary units come first, left to right; details follow, left to
    right with the coarser source level first on ties, and in the
    selection's order on equal keys.  A unit is "immediate" when the
    next unit starts at the zone right after it.  ``included_in`` points
    at the earlier unit with the tightest range that still contains the
    unit's own range, the later one on ties.
    """
    def key(entry):
        _, d, level = entry
        return d.zone_start, d.zone_end, level

    entries = sorted((("summary", pool.get(i), selection.s) for i in selection.summary),
                     key=key)
    entries += sorted((("detail", pool.get(i), lv) for i, lv in selection.details),
                      key=key)

    units: list[NarrationUnit] = []
    for idx, (role, d, level) in enumerate(entries):
        nxt = entries[idx + 1][1].zone_start if idx + 1 < len(entries) else None
        _, enclosing = max(
            ((u.zone_start - u.zone_end, u.position) for u in units
             if u.zone_start <= d.zone_start and d.zone_end <= u.zone_end),
            default=(0, None),
        )
        units.append(
            NarrationUnit(
                position=idx + 1,
                role=role,
                descriptor_id=d.id,
                zone_start=d.zone_start,
                zone_end=d.zone_end,
                level=level,
                connective="immediate" if nxt == d.zone_end + 1 else "separated",
                included_in=enclosing,
                shape=classify(d, series),
            )
        )
    return units


def narration_structure(units: list[NarrationUnit]) -> list[dict]:
    """JSON-ready view of the narration units."""
    return [
        {
            "position": u.position,
            "role": u.role,
            "descriptor_id": u.descriptor_id,
            "zone_start": u.zone_start,
            "zone_end": u.zone_end,
            "level": u.level,
            "category": u.shape.category,
            "strength": u.shape.strength,
            "extent": u.shape.extent,
            "connective": u.connective,
            "included_in": u.included_in,
            "anchors": dict(u.shape.anchors),
        }
        for u in units
    ]
