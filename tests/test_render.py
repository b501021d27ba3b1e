import math

import numpy as np
import pytest
from conftest import make_descriptor, make_series, series_exact
from hypothesis import given, settings
from hypothesis import strategies as st

from serinarr.fitting import build_pool
from serinarr.ingest import TimeSeries
from serinarr.prototypes import BilinearParams, CurveKind, evaluate
from serinarr.render import (
    CHART_HEIGHT,
    CHART_WIDTH,
    CURVE_COLOR,
    CURVE_SAMPLES,
    CURVE_STROKE_WIDTH,
    HEATMAP_CELL,
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


# The colour rule as it was, one value at a time, independent of the code
# under test: ``_render_enriched_reference`` and ``_render_heatmap_reference``
# colour their cells with these.


def _hex_reference(rgb) -> str:
    r, g, b = (max(0, min(255, int(round(c)))) for c in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


def _lerp_reference(a, b, t: float) -> str:
    t = max(0.0, min(1.0, t))
    return _hex_reference(tuple(a[i] + (b[i] - a[i]) * t for i in range(3)))


def _error_color_reference(err: float, max_thr: float) -> str:
    if max_thr <= 0:
        raise ValueError("max_thr must be > 0")
    return _lerp_reference((0, 150, 0), (208, 28, 28), err / max_thr)


def _heat_color_reference(value: float, max_value: float) -> str:
    if max_value <= 0:
        return _hex_reference((0, 0, 0))
    t = max(0.0, min(1.0, value / max_value))
    if t <= 0.5:
        return _lerp_reference((0, 0, 0), (255, 0, 0), t * 2.0)
    return _lerp_reference((255, 0, 0), (255, 255, 0), (t - 0.5) * 2.0)


def _render_heatmap_reference(matrix, row_labels, selected=frozenset()) -> str:
    """``render_heatmap`` as it was, colouring and formatting one cell at a time."""
    matrix = np.asarray(matrix, dtype=float)
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
                color = _hex_reference((40, 168, 72))
            else:
                color = _heat_color_reference(float(matrix[r, c]), peak)
            parts.append(
                f'<rect x="{margin + label_w + c * cell}" '
                f'y="{margin + r * cell}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="#ffffff" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
            color = _error_color_reference(err, spec.max_thr)
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
    s = TimeSeries(np.concatenate([[-0.0], s.xs[1:]]), s.ys, s.n_zones)
    flat = make_descriptor(0, 0, 3, [0.1] * 4, 4)
    for spec in (PlotSpec(series=s),
                 PlotSpec(series=s, curves=(flat,), error_bar=(0.1,) * 4, title="odd")):
        svg = render_enriched(spec)
        assert svg == _render_enriched_reference(spec)
        assert "nan" in svg


def _odd_values(peak):
    """0, the peak, half of it, subnormals, inf, nan and values between."""
    specials = [0.0, peak, peak / 2, 5e-324, 1e-310, math.inf, math.nan, -0.0]
    return st.sampled_from(specials) | st.floats(0.0, peak)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_heatmap_and_error_bar_match_per_cell_colours(data):
    """Heatmaps of 0-8 rows and 0-64 columns, with selected cells inside
    and outside the matrix, and error bars of any zone errors, render to
    the bytes of colouring and formatting one cell at a time."""
    rows, cols = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 64))
    peak = data.draw(st.sampled_from([1.0, 0.15, 1e-300, 1e300]) | st.floats(1e-3, 10.0))
    values = data.draw(st.lists(_odd_values(peak), min_size=rows * cols,
                                max_size=rows * cols))
    matrix = np.array(values, float).reshape(rows, cols)
    cells = st.tuples(st.integers(-2, rows + 1), st.integers(-2, cols + 1))
    selected = data.draw(st.sets(cells, max_size=12))
    labels = list(range(1, rows + 1))
    for m in (matrix, np.zeros((rows, cols))):
        assert render_heatmap(m, labels, selected) == _render_heatmap_reference(m, labels,
                                                                                selected)

    levels = data.draw(st.integers(1, 3))
    max_thr = data.draw(st.sampled_from([0.15, 1e-300, 2.0]) | st.floats(1e-3, 1.0))
    bar = data.draw(st.lists(_odd_values(max_thr) | st.floats(max_thr, 1e308),
                             min_size=2 ** levels, max_size=2 ** levels))
    s = make_series([0.1, 0.9, 0.4, 0.7, 0.2, 0.8, 0.3, 0.6, 0.5, 1.0, 0.2, 0.4, 0.6, 0.1,
                     0.3, 0.9, 0.5], levels)
    spec = PlotSpec(series=s, error_bar=tuple(bar), max_thr=max_thr, title="bar")
    assert render_enriched(spec) == _render_enriched_reference(spec)
    for err in bar:
        assert error_color(err, max_thr) == _error_color_reference(err, max_thr)
        assert heat_color(err, peak) == _heat_color_reference(err, peak)


def test_enriched_clips_a_curve_that_overflows():
    """A reloaded bilinear whose right end is the largest float overflows
    on the dropped branch left of its breakpoint: the chart still renders,
    with no RuntimeWarning, and its points stay on the plot area."""
    params = BilinearParams(x_b=0.9, y_l=0.2, y_b=0.5, y_r=1.7976931348623157e308,
                            x_lo=0.0, x_hi=1.0)
    curve = make_descriptor(0, 0, 3, [0.1] * 4, 4, kind=CurveKind.BILINEAR, params=params)
    svg = render_enriched(base_spec(curves=(curve,)))
    assert "nan" not in svg and "inf" not in svg


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
