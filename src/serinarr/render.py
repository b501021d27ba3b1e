"""Deterministic SVG rendering of enriched charts and error heatmaps.

Charts are built by direct string assembly so identical inputs yield
byte-identical files: fixed two-decimal coordinates, no timestamps, no
generated ids.  The enriched chart shows the normalized series, the
fitted curves on top (at least 128 samples each), and a bottom strip
of zone cells colored green (no error) to red (error at or beyond the
summary threshold).  The heatmap shows per-level zone errors on a
black/red/yellow ramp with the selected cells painted green.

A polyline's points are mapped onto the plot area as whole arrays, by
the float operations one point at a time would take, and formatted by
one ``%`` call, as are the error bar and each heatmap row.  Cell colours
come from one array ramp (``_ramp``); ``"%.2f"`` and ``"{:.2f}"`` give
the same bytes, ``inf``, ``nan`` and ``-0.00`` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

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


def _ramp(a, b, t) -> list[str]:
    """The hex colour ``a + (b - a) * t``, per channel, of each ``t`` of a
    1-d array, ``a`` and ``b`` being RGB triples or a row of one per
    ``t``.  ``t`` is clamped to [0, 1] as ``max(0.0, min(1.0, t))`` clamps
    it, NaN to 1, and each channel rounded half to even, as ``round``
    rounds, into 0..255."""
    t = np.fmax(np.fmin(np.asarray(t, dtype=float), 1.0), 0.0)[:, None]
    a, b = np.asarray(a), np.asarray(b)
    rgb = np.clip(np.rint(a + (b - a) * t), 0, 255).astype(int)
    return ("#%02x%02x%02x " * len(rgb) % tuple(rgb.ravel().tolist())).split()


def error_color(err: float, max_thr: float) -> str:
    """Green at zero error, red at max_thr and beyond."""
    return _error_colors([err], max_thr)[0]


def _error_colors(errs, max_thr: float) -> list[str]:
    """``error_color`` of each of ``errs``."""
    if max_thr <= 0:
        raise ValueError("max_thr must be > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        return _ramp(_GREEN, _RED, np.asarray(errs, dtype=float) / max_thr)


def heat_color(value: float, max_value: float) -> str:
    """Black at 0 through red at half scale to yellow at full scale."""
    return _heat_colors(np.array([value], dtype=float), max_value)[0]


def _heat_colors(values: np.ndarray, max_value: float) -> list[str]:
    """``heat_color`` of each of the 1-d ``values``: all black when
    ``max_value <= 0``.  ``_ramp`` clamps each half's ``t``."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.zeros(len(values)) if max_value <= 0 else values / max_value
        low = t <= 0.5
        return _ramp(np.where(low[:, None], (0, 0, 0), (255, 0, 0)),
                     np.where(low[:, None], (255, 0, 0), (255, 255, 0)),
                     np.where(low, t * 2.0, (t - 0.5) * 2.0))


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
        # Unit-square points onto the plot area, y clipped to [0, 1],
        # interleaved and formatted in one call.
        xy = np.empty((len(x), 2))
        xy[:, 0] = px + x * pw
        xy[:, 1] = py + (1.0 - np.clip(y, 0.0, 1.0)) * ph
        return ("%.2f,%.2f " * len(xy) % tuple(xy.ravel().tolist()))[:-1]

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
        cells = zip((px + np.arange(n) * cell_w).tolist(),
                    _error_colors(spec.error_bar, spec.max_thr))
        rect = (f'<rect x="%.2f" y="{_f(y0)}" width="{_f(cell_w)}" height="{_f(bar_h)}" '
                'fill="%s" stroke="#ffffff" stroke-width="0.5"/>')
        parts.append("\n".join([rect] * n) % tuple(chain.from_iterable(cells)))

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
    colors = _heat_colors(matrix.ravel(), peak)
    for r, c in selected:
        if r in range(rows) and c in range(cols):
            colors[int(r) * cols + int(c)] = "#%02x%02x%02x" % _SELECTED
    # A row is its label, then its cells, each at x, y with its colour.
    row = ('<text x="%d" y="%.2f" text-anchor="end" font-family="sans-serif" '
           'font-size="12" fill="#333333">%s</text>'
           + f'\n<rect x="%d" y="%d" width="{cell}" height="{cell}" fill="%s" '
           'stroke="#ffffff" stroke-width="1"/>' * cols)
    xs = range(margin + label_w, margin + label_w + cols * cell, cell)
    for r in range(rows):
        y = margin + r * cell
        cells = zip(xs, repeat(y), colors[r * cols : (r + 1) * cols])
        parts.append(row % (margin + label_w - 8, y + cell * 0.68, row_labels[r],
                            *chain.from_iterable(cells)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
