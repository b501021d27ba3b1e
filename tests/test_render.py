import numpy as np
import pytest
from conftest import make_descriptor, make_series

from serinarr.render import (
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
