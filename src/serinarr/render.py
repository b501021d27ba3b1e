"""Deterministic SVG rendering of enriched charts and error heatmaps.

Charts are built by direct string assembly so identical inputs yield
byte-identical files: fixed two-decimal coordinates, no timestamps, no
generated ids.  The enriched chart shows the normalized series, the
fitted curves on top (at least 128 samples each), and a bottom strip
of zone cells colored green (no error) to red (error at or beyond the
summary threshold).  The heatmap shows per-level zone errors on a
black/red/yellow ramp with the selected cells painted green.

A polyline's points are mapped onto the plot area as whole arrays, by
the float operations one point at a time would take, so only their
two-decimal formatting runs per value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import Descriptor
from .ingest import TimeSeries
from .prototypes import evaluate

CURVE_SAMPLES = 160
CURVE_COLOR = "#d22"
CURVE_STROKE_WIDTH = 2.0
CHART_WIDTH = 720
CHART_HEIGHT = 400
HEATMAP_CELL = 26

_GREEN = (0, 150, 0)
_RED = (208, 28, 28)
_SELECTED = (40, 168, 72)


@dataclass(frozen=True)
class PlotSpec:
    series: TimeSeries
    curves: tuple[Descriptor, ...] = ()
    error_bar: tuple[float, ...] = ()
    max_thr: float = 0.15
    title: str = ""

    def __post_init__(self):
        if self.error_bar and len(self.error_bar) != self.series.n_zones:
            raise ValueError(
                f"error bar has {len(self.error_bar)} cells for "
                f"{self.series.n_zones} zones"
            )


def _hex(rgb: tuple[int, int, int]) -> str:
    r, g, b = (max(0, min(255, int(round(c)))) for c in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


def _lerp(a: tuple[int, int, int], b: tuple[int, int, int], t: float) -> str:
    t = max(0.0, min(1.0, t))
    return _hex(tuple(a[i] + (b[i] - a[i]) * t for i in range(3)))


def error_color(err: float, max_thr: float) -> str:
    """Green at zero error, red at max_thr and beyond."""
    if max_thr <= 0:
        raise ValueError("max_thr must be > 0")
    return _lerp(_GREEN, _RED, err / max_thr)


def heat_color(value: float, max_value: float) -> str:
    """Black at 0 through red at half scale to yellow at full scale."""
    if max_value <= 0:
        return _hex((0, 0, 0))
    t = max(0.0, min(1.0, value / max_value))
    if t <= 0.5:
        return _lerp((0, 0, 0), (255, 0, 0), t * 2.0)
    return _lerp((255, 0, 0), (255, 255, 0), (t - 0.5) * 2.0)


def _f(v: float) -> str:
    return f"{v:.2f}"


def render_enriched(spec: PlotSpec) -> str:
    """SVG document for one enriched chart."""
    w, h = CHART_WIDTH, CHART_HEIGHT
    margin = 12.0
    bar_h = 16.0 if spec.error_bar else 0.0
    bar_gap = 6.0 if spec.error_bar else 0.0
    title_h = 22.0 if spec.title else 0.0
    px = margin
    py = margin + title_h
    pw = w - 2 * margin
    ph = h - 2 * margin - bar_h - bar_gap - title_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
        f'<rect x="{_f(px)}" y="{_f(py)}" width="{_f(pw)}" height="{_f(ph)}" '
        f'fill="#fafafa" stroke="#cccccc"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_f(px)}" y="{_f(margin + 14)}" font-family="sans-serif" '
            f'font-size="13" fill="#333333">{spec.title}</text>'
        )

    def points(x: np.ndarray, y: np.ndarray) -> str:
        # Unit-square points onto the plot area, y clipped to [0, 1].
        sx = px + x * pw
        sy = py + (1.0 - np.clip(y, 0.0, 1.0)) * ph
        return " ".join(map("{:.2f},{:.2f}".format, sx.tolist(), sy.tolist()))

    series = spec.series
    pts = points(series.xs, series.ys)
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#4477aa" stroke-width="1.2"/>'
    )

    for d in spec.curves:
        xs = np.linspace(d.x_lo, d.x_hi, CURVE_SAMPLES)
        # A reloaded pool's params may be any floats: a branch that
        # np.where drops, or a point clipped below, may overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            cpts = points(xs, np.asarray(evaluate(d.kind, d.params, xs), dtype=float))
        parts.append(
            f'<polyline points="{cpts}" fill="none" stroke="{CURVE_COLOR}" '
            f'stroke-width="{_f(CURVE_STROKE_WIDTH)}"/>'
        )

    if spec.error_bar:
        n = series.n_zones
        cell_w = pw / n
        y0 = py + ph + bar_gap
        for z, err in enumerate(spec.error_bar):
            color = error_color(err, spec.max_thr)
            parts.append(
                f'<rect x="{_f(px + z * cell_w)}" y="{_f(y0)}" '
                f'width="{_f(cell_w)}" height="{_f(bar_h)}" fill="{color}" '
                f'stroke="#ffffff" stroke-width="0.5"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_heatmap(
    matrix: np.ndarray,
    row_labels: list[int],
    selected: set[tuple[int, int]] = frozenset(),
) -> str:
    """SVG heatmap of per-level zone errors.

    ``matrix`` has one row per verbosity level and one column per
    zone; ``row_labels`` names each row.  ``selected`` holds (row,
    zone) cells to paint green regardless of their value.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("heatmap needs a 2d matrix")
    rows, cols = matrix.shape
    cell = HEATMAP_CELL
    label_w = 28
    margin = 8
    w = label_w + cols * cell + 2 * margin
    h = rows * cell + 2 * margin
    peak = float(matrix.max()) if matrix.size else 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for r in range(rows):
        parts.append(
            f'<text x="{margin + label_w - 8}" '
            f'y="{margin + r * cell + cell * 0.68:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="#333333">'
            f"{row_labels[r]}</text>"
        )
        for c in range(cols):
            if (r, c) in selected:
                color = _hex(_SELECTED)
            else:
                color = heat_color(float(matrix[r, c]), peak)
            parts.append(
                f'<rect x="{margin + label_w + c * cell}" '
                f'y="{margin + r * cell}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="#ffffff" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
