"""Curve prototypes used to describe pieces of a series.

Four shapes are supported:

* line: ``y = a + b * x``
* bilinear: a two-segment polyline, continuous at a breakpoint
* tooth: a rectangular plateau between two outside levels
* sinusoid: ``y = mean + amp * sin(2*pi*freq*x + phase)``

The bilinear polyline is anchored at the x range it was fitted on, so
its params carry that range.  The sinusoid's mean is pinned to the
sample mean of the fitted range rather than being a free parameter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Union

import numpy as np


class CurveKind(enum.IntEnum):
    """Prototype families, in fixed tie-breaking order."""

    LINE = 0
    BILINEAR = 1
    TOOTH = 2
    SINUSOID = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "CurveKind":
        try:
            return cls[label.strip().upper()]
        except (KeyError, AttributeError):  # AttributeError: not a str
            raise ValueError(f"unknown curve kind {label!r}") from None


# Free parameters per kind; a fit needs at least this many samples.
PARAM_COUNTS = {
    CurveKind.LINE: 2,
    CurveKind.BILINEAR: 4,
    CurveKind.TOOTH: 5,
    CurveKind.SINUSOID: 3,
}

_EPS = 1e-9


def params_ok(kind: CurveKind, p):
    """Where ``p``'s values keep the kind's rules, ``p`` holding its fields
    as floats or arrays.  Each rule is a positive condition, which NaN breaks."""
    if kind is CurveKind.BILINEAR:  # the breakpoint lies strictly inside
        return (p.x_lo < p.x_b) & (p.x_b < p.x_hi)
    if kind is CurveKind.TOOTH:  # the plateau is ordered
        return p.x_s < p.x_e
    if kind is CurveKind.SINUSOID:  # amp >= 0, freq > 0, phase in [0, 2*pi)
        return (p.amp >= 0) & (p.freq > 0) & (0 <= p.phase) & (p.phase < 2 * math.pi + _EPS)
    return True


class _Params:
    """Frozen params whose values keep the rules of their class's ``kind``."""

    def __post_init__(self):
        if not params_ok(self.kind, self):
            raise ValueError(f"{self.kind.label} params break their rules: {self}")


@dataclass(frozen=True)
class LineParams(_Params):
    kind = CurveKind.LINE
    a: float  # intercept
    b: float  # slope


@dataclass(frozen=True)
class BilinearParams(_Params):
    """Polyline (x_lo, y_l) -- (x_b, y_b) -- (x_hi, y_r).

    ``x_lo``/``x_hi`` are the fitted range, not free parameters.
    """

    kind = CurveKind.BILINEAR
    x_b: float
    y_l: float
    y_b: float
    y_r: float
    x_lo: float
    x_hi: float


@dataclass(frozen=True)
class ToothParams(_Params):
    """Plateau of value y_in on [x_s, x_e], y_out_l / y_out_r outside."""

    kind = CurveKind.TOOTH
    y_out_l: float
    y_out_r: float
    x_s: float
    x_e: float
    y_in: float


@dataclass(frozen=True)
class SinusoidParams(_Params):
    """amp * sin(2*pi*freq*x + phase) around a fixed mean level.

    ``freq`` is in cycles per unit of normalized x.
    """

    kind = CurveKind.SINUSOID
    amp: float
    freq: float
    phase: float
    mean: float


CurveParams = Union[LineParams, BilinearParams, ToothParams, SinusoidParams]

PARAMS_CLASS = {
    CurveKind.LINE: LineParams,
    CurveKind.BILINEAR: BilinearParams,
    CurveKind.TOOTH: ToothParams,
    CurveKind.SINUSOID: SinusoidParams,
}
# Each kind's params field names, in field order.
PARAM_FIELDS = {kind: tuple(f.name for f in fields(cls)) for kind, cls in PARAMS_CLASS.items()}


def evaluate(kind: CurveKind, params, x):
    """Model value(s) at ``x`` (scalar or ndarray).

    ``params`` is the kind's params, or a dict of its field names to
    arrays that broadcast against ``x``, such as (rows, 1) columns against
    (rows, k) samples: each sample is evaluated with its row's values, by
    the same elementwise formula.  Bilinear curves are only defined on
    their fitted range.
    """
    if isinstance(params, dict):
        params = SimpleNamespace(**params)
    elif not isinstance(params, PARAMS_CLASS[kind]):
        raise TypeError(
            f"params of type {type(params).__name__} do not match kind {kind.label}"
        )
    x = np.asarray(x, dtype=float)

    if kind is CurveKind.LINE:
        out = params.a + params.b * x

    elif kind is CurveKind.BILINEAR:
        if np.any(x < params.x_lo - _EPS) or np.any(x > params.x_hi + _EPS):
            raise ValueError(
                f"x outside bilinear range [{params.x_lo}, {params.x_hi}]"
            )
        left_t = (x - params.x_lo) / (params.x_b - params.x_lo)
        right_t = (x - params.x_b) / (params.x_hi - params.x_b)
        out = np.where(
            x <= params.x_b,
            params.y_l + (params.y_b - params.y_l) * left_t,
            params.y_b + (params.y_r - params.y_b) * right_t,
        )

    elif kind is CurveKind.TOOTH:
        out = np.where(
            x < params.x_s,
            params.y_out_l,
            np.where(x > params.x_e, params.y_out_r, params.y_in),
        )

    elif kind is CurveKind.SINUSOID:
        out = params.mean + params.amp * np.sin(
            2 * math.pi * params.freq * x + params.phase
        )

    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind!r}")

    if out.ndim == 0:
        return float(out)
    return out
