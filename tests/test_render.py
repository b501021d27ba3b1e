import math

import numpy as np
import pytest
from conftest import make_descriptor, make_series, series_exact

from serinarr.fitting import build_pool
from serinarr.ingest import TimeSeries
from serinarr.prototypes import CurveKind, evaluate
from serinarr.render import (
    CHART_HEIGHT,
    CHART_WIDTH,
    CURVE_COLOR,
    CURVE_SAMPLES,
    CURVE_STROKE_WIDTH,
    PlotSpec,
    error_color,
    heat_color,
    render_enriched,
    render_heatmap,
)


# ---------------------------------------------------------------- colors


def test_error_color_endpoints():
    assert error_color(0.0, 0.15) == "#009600"
    assert error_color(0.15, 0.15) == "#d01c1c"
    assert error_color(0.4, 0.15) == "#d01c1c"


def test_error_color_midpoint():
    # componentwise lerp at t = 0.5: (104, 89, 14)
    assert error_color(0.075, 0.15) == "#68590e"


def test_error_color_rejects_bad_threshold():
    with pytest.raises(ValueError):
        error_color(0.1, 0.0)


def test_heat_color_ramp():
    assert heat_color(0.0, 1.0) == "#000000"
    assert heat_color(0.5, 1.0) == "#ff0000"
    assert heat_color(1.0, 1.0) == "#ffff00"
    assert heat_color(0.2, 1.0) == "#660000"
    assert heat_color(0.75, 1.0) == "#ff8000"
    assert heat_color(7.0, 1.0) == "#ffff00"


def test_heat_color_degenerate_scale_is_black():
    assert heat_color(0.3, 0.0) == "#000000"
    assert heat_color(0.3, -1.0) == "#000000"


# ----------------------------------------------------------- enriched svg


def base_spec(**kw):
    series = make_series([0.0, 0.3, 0.9, 0.4, 0.1, 0.6, 0.8, 0.2], levels=2)
    curve = make_descriptor(0, 0, 3, [0.01] * 4, 4)
    defaults = dict(series=series, curves=(curve,),
                    error_bar=(0.0, 0.05, 0.1, 0.2), max_thr=0.15)
    defaults.update(kw)
    return PlotSpec(**defaults)


def test_enriched_document_shape():
    svg = render_enriched(base_spec(title="demo"))
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 2
    # background, plot area and one bar cell per zone
    assert svg.count("<rect") == 2 + 4
    assert svg.count("<text") == 1
    assert "demo" in svg


def test_enriched_without_extras():
    spec = base_spec(curves=(), error_bar=(), title="")
    svg = render_enriched(spec)
    assert svg.count("<polyline") == 1
    assert svg.count("<rect") == 2
    assert "<text" not in svg


def test_enriched_coordinates_have_two_decimals():
    import re

    svg = render_enriched(base_spec())
    for points in re.findall(r'points="([^"]+)"', svg):
        for pair in points.split():
            x, y = pair.split(",")
            assert re.fullmatch(r"-?\d+\.\d\d", x)
            assert re.fullmatch(r"-?\d+\.\d\d", y)


def test_enriched_error_bar_colors():
    svg = render_enriched(base_spec())
    assert 'fill="#009600"' in svg
    assert 'fill="#d01c1c"' in svg


def test_enriched_is_deterministic():
    a = render_enriched(base_spec(title="x"))
    b = render_enriched(base_spec(title="x"))
    assert a == b


def _f(v: float) -> str:
    return f"{v:.2f}"


def _render_enriched_reference(spec: PlotSpec) -> str:
    """``render_enriched`` as it was, mapping and formatting one point at
    a time through ``sx``, ``sy`` and ``_f``."""
    w, h = CHART_WIDTH, CHART_HEIGHT
    margin = 12.0
    bar_h = 16.0 if spec.error_bar else 0.0
    bar_gap = 6.0 if spec.error_bar else 0.0
    title_h = 22.0 if spec.title else 0.0
    px = margin
    py = margin + title_h
    pw = w - 2 * margin
    ph = h - 2 * margin - bar_h - bar_gap - title_h

    def sx(x: float) -> float:
        return px + x * pw

    def sy(y: float) -> float:
        return py + (1.0 - min(max(y, 0.0), 1.0)) * ph

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

    series = spec.series
    pts = " ".join(
        f"{_f(sx(x))},{_f(sy(y))}" for x, y in zip(series.xs.tolist(), series.ys.tolist())
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#4477aa" stroke-width="1.2"/>'
    )

    for d in spec.curves:
        xs = np.linspace(d.x_lo, d.x_hi, CURVE_SAMPLES)
        ys = np.asarray(evaluate(d.kind, d.params, xs), dtype=float)
        cpts = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in zip(xs.tolist(), ys.tolist()))
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


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_enriched_points_match_per_point_formatting(scale):
    """Curves of all four kinds, on a series within the unit square and
    on one whose fits leave it, render to the bytes of per-point mapping
    and formatting, with and without the title and error bar."""
    rng = np.random.default_rng(19)
    ys = scale * np.sin(np.linspace(0.0, 9.0, 48)) + 0.2 * rng.standard_normal(48)
    s = series_exact(ys, levels=2)
    pool = build_pool(s, tuple(CurveKind))
    curves = tuple(d for kind in CurveKind for d in pool if d.kind is kind)[::3]
    assert {d.kind for d in curves} == set(CurveKind)
    for spec in (PlotSpec(series=s, curves=curves),
                 PlotSpec(series=s, curves=curves, error_bar=(0.0, 0.05, 0.1, 0.3),
                          title="all kinds")):
        assert render_enriched(spec) == _render_enriched_reference(spec)


def test_enriched_points_match_per_point_formatting_at_odd_values():
    """Series y below 0, above 1, exactly 0.0 and 1.0, -0.0 and nan, and x
    of -0.0, map and format as one point at a time does."""
    ys = [-0.5, 1.5, 0.0, 1.0, -0.0, math.nan, 1e-300, -1e-300, 0.125, 0.995, 0.005, 2.0]
    s = series_exact(ys, levels=2)
    s = TimeSeries(xs=np.concatenate([[-0.0], s.xs[1:]]), ys=s.ys, n_zones=s.n_zones,
                   zone_bounds=s.zone_bounds)
    flat = make_descriptor(0, 0, 3, [0.1] * 4, 4)
    for spec in (PlotSpec(series=s),
                 PlotSpec(series=s, curves=(flat,), error_bar=(0.1,) * 4, title="odd")):
        svg = render_enriched(spec)
        assert svg == _render_enriched_reference(spec)
        assert "nan" in svg


def test_plot_spec_validation():
    series = make_series([0.0, 1.0, 0.5, 0.2], levels=1)
    with pytest.raises(ValueError, match="error bar"):
        PlotSpec(series=series, error_bar=(0.1,) * 3)


# ---------------------------------------------------------------- heatmap


def test_heatmap_cells_and_selection():
    matrix = np.array([[0.0, 0.1, 0.2, 0.4], [0.4, 0.3, 0.0, 0.1]])
    svg = render_heatmap(matrix, [1, 2], selected={(0, 1)})
    assert svg.count("<rect") == 1 + 8
    assert svg.count('fill="#28a848"') == 1
    assert svg.endswith("</svg>\n")


def test_heatmap_scales_to_matrix_peak():
    matrix = np.array([[0.0, 0.2], [0.1, 0.4]])
    svg = render_heatmap(matrix, [1, 2])
    assert 'fill="#000000"' in svg
    assert 'fill="#ffff00"' in svg
    assert 'fill="#ff0000"' in svg


def test_heatmap_row_labels_widen_canvas():
    matrix = np.zeros((2, 4))
    labeled = render_heatmap(matrix, [1, 2])
    assert labeled.count("<text") == 2
    assert 'width="148"' in labeled
    assert ">1</text>" in labeled and ">2</text>" in labeled


def test_heatmap_all_zero_matrix_is_black():
    svg = render_heatmap(np.zeros((2, 3)), [1, 2])
    assert svg.count('fill="#000000"') == 6


def test_heatmap_rejects_wrong_rank():
    with pytest.raises(ValueError):
        render_heatmap(np.zeros(5), [1])
    with pytest.raises(ValueError):
        render_heatmap(np.zeros((2, 2, 2)), [1, 2])


def test_heatmap_is_deterministic():
    matrix = np.array([[0.0, 0.1], [0.2, 0.3]])
    assert render_heatmap(matrix, [1, 2], selected={(1, 0)}) == render_heatmap(
        matrix, [1, 2], selected={(1, 0)})
