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
from dataclasses import dataclass
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
        except KeyError:
            raise ValueError(f"unknown curve kind {label!r}") from None


# Free parameters per kind; a fit needs at least this many samples.
PARAM_COUNTS = {
    CurveKind.LINE: 2,
    CurveKind.BILINEAR: 4,
    CurveKind.TOOTH: 5,
    CurveKind.SINUSOID: 3,
}

_EPS = 1e-9


@dataclass(frozen=True)
class LineParams:
    a: float  # intercept
    b: float  # slope


@dataclass(frozen=True)
class BilinearParams:
    """Polyline (x_lo, y_l) -- (x_b, y_b) -- (x_hi, y_r).

    ``x_lo``/``x_hi`` are the fitted range, not free parameters.
    """

    x_b: float
    y_l: float
    y_b: float
    y_r: float
    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_b < self.x_hi):
            raise ValueError(
                f"breakpoint {self.x_b} must lie strictly inside "
                f"({self.x_lo}, {self.x_hi})"
            )


@dataclass(frozen=True)
class ToothParams:
    """Plateau of value y_in on [x_s, x_e], y_out_l / y_out_r outside."""

    y_out_l: float
    y_out_r: float
    x_s: float
    x_e: float
    y_in: float

    def __post_init__(self):
        if not self.x_s < self.x_e:
            raise ValueError(f"plateau needs x_s < x_e, got [{self.x_s}, {self.x_e}]")


@dataclass(frozen=True)
class SinusoidParams:
    """amp * sin(2*pi*freq*x + phase) around a fixed mean level.

    ``freq`` is in cycles per unit of normalized x.
    """

    amp: float
    freq: float
    phase: float
    mean: float

    def __post_init__(self):
        if self.amp < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amp}")
        if self.freq <= 0:
            raise ValueError(f"frequency must be > 0, got {self.freq}")
        if not (0 <= self.phase < 2 * math.pi + _EPS):
            raise ValueError(f"phase must lie in [0, 2*pi), got {self.phase}")


CurveParams = Union[LineParams, BilinearParams, ToothParams, SinusoidParams]

PARAMS_CLASS = {
    CurveKind.LINE: LineParams,
    CurveKind.BILINEAR: BilinearParams,
    CurveKind.TOOTH: ToothParams,
    CurveKind.SINUSOID: SinusoidParams,
}


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


def params_to_dict(params: CurveParams) -> dict:
    """Flat mapping of parameter names to values, for dumps and reports."""
    return {k: float(v) for k, v in params.__dict__.items()}


def params_from_dict(kind: CurveKind, d: dict) -> CurveParams:
    return PARAMS_CLASS[kind](**d)
