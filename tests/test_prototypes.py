import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_descriptor, make_pool
from serinarr.fitting import dump_pool, load_pool
from serinarr.prototypes import (
    PARAM_COUNTS,
    BilinearParams,
    CurveKind,
    LineParams,
    SinusoidParams,
    ToothParams,
    evaluate,
)


def test_line_example():
    assert evaluate(LineParams(0.2, 0.5), 0.4) == pytest.approx(0.4)


def test_bilinear_example():
    p = BilinearParams(x_b=0.5, y_l=1.0, y_b=0.0, y_r=1.0, x_lo=0.0, x_hi=1.0)
    assert evaluate(p, 0.25) == pytest.approx(0.5)
    assert evaluate(p, 0.5) == pytest.approx(0.0)
    assert evaluate(p, 1.0) == pytest.approx(1.0)


def test_tooth_example():
    p = ToothParams(y_out_l=0.4, y_out_r=0.4, x_s=0.42, x_e=0.69, y_in=0.09)
    assert evaluate(p, 0.5) == pytest.approx(0.09)
    # plateau edges belong to the plateau
    assert evaluate(p, 0.42) == pytest.approx(0.09)
    assert evaluate(p, 0.69) == pytest.approx(0.09)
    assert evaluate(p, 0.41) == pytest.approx(0.4)
    assert evaluate(p, 0.70) == pytest.approx(0.4)


def test_sinusoid_value():
    p = SinusoidParams(amp=0.3, freq=3.0, phase=0.0, mean=0.5)
    assert evaluate(p, 0.25) == pytest.approx(0.2)
    assert evaluate(p, 0.0) == pytest.approx(0.5)


def test_evaluate_vectorized_matches_scalar():
    p = SinusoidParams(amp=0.2, freq=2.0, phase=1.0, mean=0.4)
    xs = np.linspace(0.0, 1.0, 17)
    ys = evaluate(p, xs)
    for x, y in zip(xs, ys):
        assert y == pytest.approx(evaluate(p, float(x)))


def test_evaluate_columns_match_rows():
    """Params given as columns evaluate each row exactly as that row's
    params alone do."""
    rows = {
        CurveKind.LINE: [LineParams(0.2, 0.5), LineParams(-1.0, 3.0)],
        CurveKind.BILINEAR: [
            BilinearParams(x_b=0.3, y_l=0.1, y_b=0.9, y_r=0.4, x_lo=0.0, x_hi=1.0),
            BilinearParams(x_b=0.6, y_l=0.5, y_b=0.2, y_r=0.8, x_lo=0.0, x_hi=1.0),
        ],
        CurveKind.TOOTH: [
            ToothParams(y_out_l=0.4, y_out_r=0.3, x_s=0.25, x_e=0.5, y_in=0.9),
            ToothParams(y_out_l=0.1, y_out_r=0.6, x_s=0.5, x_e=0.875, y_in=0.2),
        ],
        CurveKind.SINUSOID: [
            SinusoidParams(amp=0.2, freq=2.0, phase=1.0, mean=0.4),
            SinusoidParams(amp=0.7, freq=5.5, phase=0.0, mean=0.1),
        ],
    }
    x = np.linspace(0.0, 1.0, 17)
    for kind, ps in rows.items():
        cols = {f: np.array([[getattr(p, f)] for p in ps])
                for f in dataclasses.asdict(ps[0])}
        got = evaluate(SimpleNamespace(kind=kind, **cols), np.stack([x] * len(ps)))
        for k, p in enumerate(ps):
            assert got[k].tolist() == evaluate(p, x).tolist(), kind


def test_bilinear_degenerate_constant():
    p = BilinearParams(x_b=0.3, y_l=0.7, y_b=0.7, y_r=0.7, x_lo=0.0, x_hi=1.0)
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(evaluate(p, xs), 0.7)


def test_bilinear_outside_range_rejected():
    p = BilinearParams(x_b=0.5, y_l=1.0, y_b=0.0, y_r=1.0, x_lo=0.2, x_hi=0.8)
    with pytest.raises(ValueError):
        evaluate(p, 0.1)


def test_bilinear_breakpoint_strictly_inside():
    with pytest.raises(ValueError):
        BilinearParams(x_b=0.0, y_l=1.0, y_b=0.0, y_r=1.0, x_lo=0.0, x_hi=1.0)
    with pytest.raises(ValueError):
        BilinearParams(x_b=1.0, y_l=1.0, y_b=0.0, y_r=1.0, x_lo=0.0, x_hi=1.0)


def test_tooth_needs_ordered_plateau():
    with pytest.raises(ValueError):
        ToothParams(y_out_l=0.4, y_out_r=0.4, x_s=0.7, x_e=0.3, y_in=0.1)


def test_sinusoid_param_guards():
    with pytest.raises(ValueError):
        SinusoidParams(amp=-0.1, freq=1.0, phase=0.0, mean=0.5)
    with pytest.raises(ValueError):
        SinusoidParams(amp=0.1, freq=0.0, phase=0.0, mean=0.5)


def test_param_counts():
    assert PARAM_COUNTS[CurveKind.LINE] == 2
    assert PARAM_COUNTS[CurveKind.BILINEAR] == 4
    assert PARAM_COUNTS[CurveKind.TOOTH] == 5
    assert PARAM_COUNTS[CurveKind.SINUSOID] == 3


def test_kind_labels_round_trip():
    for kind in CurveKind:
        assert CurveKind.from_label(kind.label) is kind
    with pytest.raises(ValueError):
        CurveKind.from_label("spline")


def test_params_dict_round_trip(tmp_path):
    """Each kind's params, saved in a pool record's params dict and
    loaded back into the pool's params row, give the same params."""
    cases = [
        (CurveKind.LINE, LineParams(0.1, -0.2)),
        (CurveKind.BILINEAR,
         BilinearParams(x_b=0.4, y_l=0.9, y_b=0.1, y_r=0.5, x_lo=0.0, x_hi=1.0)),
        (CurveKind.TOOTH,
         ToothParams(y_out_l=0.3, y_out_r=0.5, x_s=0.2, x_e=0.6, y_in=0.9)),
        (CurveKind.SINUSOID,
         SinusoidParams(amp=0.25, freq=2.5, phase=1.5, mean=0.5)),
    ]
    descriptors = [make_descriptor(k, 0, 0, [0.5], 1, params=p)
                   for k, (_, p) in enumerate(cases)]
    path = tmp_path / "pool.jsonl"
    dump_pool(make_pool(descriptors, 1, kinds=tuple(CurveKind)), path)
    assert [d.params for d in load_pool(path)] == [p for _, p in cases]


@settings(max_examples=60)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_bilinear_continuous_at_breakpoint(x_b, y_l, y_b, y_r):
    p = BilinearParams(x_b=x_b, y_l=y_l, y_b=y_b, y_r=y_r, x_lo=0.0, x_hi=1.0)
    eps = 1e-9
    left = evaluate(p, max(x_b - eps, 0.0))
    right = evaluate(p, min(x_b + eps, 1.0))
    at = evaluate(p, x_b)
    assert abs(left - at) < 1e-6
    assert abs(right - at) < 1e-6


@settings(max_examples=60)
@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.5, max_value=8.0),
    st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_sinusoid_bounded_by_amplitude(amp, freq, phase, mean, x):
    p = SinusoidParams(amp=amp, freq=freq, phase=phase, mean=mean)
    y = evaluate(p, x)
    assert mean - amp - 1e-12 <= y <= mean + amp + 1e-12
