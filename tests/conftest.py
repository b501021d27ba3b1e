"""Shared builders for the test suite.

Everything here is deliberately independent of the library's own
loading path: series are assembled by hand so fitting and solver tests
control the exact sample values, and pools of fake descriptors carry
hand-picked per-zone errors for the optimizer oracles.
"""

import numpy as np
import pytest

from serinarr.fitting import Descriptor, DescriptorPool
from serinarr.ingest import RawSeries, TimeSeries, normalize
from serinarr.prototypes import CurveKind, LineParams


def raw_series(values, ts=None):
    if ts is None:
        ts = range(len(values))
    return RawSeries(tuple((float(t), float(v)) for t, v in zip(ts, values)))


def make_series(values, levels):
    """Normalized series over a uniform time grid."""
    return normalize(raw_series(values), levels)


def series_exact(ys, levels):
    """TimeSeries with the given y values taken verbatim (no min-max).

    Rebuilds the zone grid the same way normalize does, so fitting
    tests can dictate exact sample values.
    """
    ys = np.asarray(ys, dtype=float)
    n = len(ys)
    n_zones = 2 ** levels
    assert n >= n_zones
    xs = np.arange(n, dtype=float) / (n - 1)
    zone_of = np.minimum(np.floor(xs * n_zones).astype(int), n_zones - 1)
    bounds = []
    start = 0
    for z in range(n_zones):
        end = int(np.searchsorted(zone_of, z, side="right"))
        assert end > start, f"zone {z} empty; pick a finer sampling"
        bounds.append((start, end))
        start = end
    for arr in (xs, ys):
        arr.flags.writeable = False
    return TimeSeries(
        xs=xs,
        ys=ys,
        n_zones=n_zones,
        zone_bounds=tuple(bounds),
    )


def make_descriptor(id_, i, j, errs, n_zones, kind=CurveKind.LINE, params=None):
    if params is None:
        params = LineParams(a=0.0, b=0.0)
    return Descriptor(
        id=id_,
        kind=kind,
        params=params,
        zone_start=i,
        zone_end=j,
        zone_errs=tuple(float(e) for e in errs),
        n_zones=n_zones,
    )


def full_random_pool(rng, n_zones, kinds=(CurveKind.LINE,), err_scale=0.5, quantum=None):
    """One descriptor per (kind, range) with random per-zone errors,
    rounded to multiples of ``quantum`` when one is given."""
    descriptors = []
    next_id = 0
    for kind in kinds:
        for i in range(n_zones):
            for j in range(i, n_zones):
                errs = [rng.uniform(0.0, err_scale) for _ in range(j - i + 1)]
                if quantum:
                    errs = [round(e / quantum) * quantum for e in errs]
                descriptors.append(
                    make_descriptor(next_id, i, j, errs, n_zones, kind=kind)
                )
                next_id += 1
    return DescriptorPool(
        descriptors=tuple(descriptors),
        n_zones=n_zones,
        kinds=tuple(kinds),
        n_infeasible=0,
    )


@pytest.fixture
def rng():
    import random

    return random.Random(0xC0FFEE)
