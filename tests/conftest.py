"""Shared builders for the test suite.

Everything here is deliberately independent of the library's own
loading path: series are assembled by hand so fitting and solver tests
control the exact sample values, and pools of fake descriptors carry
hand-picked per-zone errors for the optimizer oracles; ``make_pool``
holds a list of descriptors as a column pool, the k-th one's id k.
``POOL_EDITS`` damages or reflows a dumped pool, for the reload oracle
and the CLI; ``POOL_VALUE_EDITS`` breaks a rule on one saved record's
values.  ``load_perfbench`` loads a benchmark module, for the tests
that reuse its inputs.
"""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from serinarr.fitting import _N_PARAMS, Descriptor, DescriptorPool
from serinarr.ingest import RawSeries, TimeSeries, normalize
from serinarr.prototypes import (
    BilinearParams,
    CurveKind,
    LineParams,
    SinusoidParams,
    ToothParams,
)


def load_perfbench(name):
    """A benchmark module, loaded by path; the benchmark is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def raw_series(values, ts=None):
    if ts is None:
        ts = range(len(values))
    return RawSeries(tuple((float(t), float(v)) for t, v in zip(ts, values)))


def make_series(values, levels):
    """Normalized series over a uniform time grid."""
    return normalize(raw_series(values), levels)


def series_exact(ys, levels):
    """TimeSeries with the given y values taken verbatim (no min-max),
    so fitting tests can dictate exact sample values."""
    ys = np.asarray(ys, dtype=float)
    return TimeSeries(np.arange(len(ys), dtype=float) / (len(ys) - 1), ys, 2 ** levels)


def flat_params(kind, i, j, n_zones):
    """Params of the kind for a constant 0.0 over zones [i, j]."""
    lo, hi = i / n_zones, (j + 1) / n_zones
    if kind is CurveKind.BILINEAR:
        return BilinearParams((lo + hi) / 2, 0.0, 0.0, 0.0, lo, hi)
    if kind is CurveKind.TOOTH:
        return ToothParams(0.0, 0.0, lo, hi, 0.0)
    if kind is CurveKind.SINUSOID:
        return SinusoidParams(0.0, 1.0, 0.0, 0.0)
    return LineParams(a=0.0, b=0.0)


def make_descriptor(id_, i, j, errs, n_zones, kind=CurveKind.LINE, params=None):
    if params is None:
        params = flat_params(kind, i, j, n_zones)
    return Descriptor(
        id=id_,
        kind=kind,
        params=params,
        zone_start=i,
        zone_end=j,
        zone_errs=tuple(float(e) for e in errs),
        n_zones=n_zones,
    )


def make_pool(descriptors, n_zones, kinds=(CurveKind.LINE,), n_infeasible=0):
    """The column pool of ``descriptors``: the k-th one is row k, so its
    id in the pool is k, whatever its own."""
    m = len(descriptors)
    params = np.full((m, _N_PARAMS), np.nan)
    errs = np.zeros((m, n_zones))
    for k, d in enumerate(descriptors):
        row = dataclasses.astuple(d.params)
        params[k, : len(row)] = row
        errs[k, d.zone_start : d.zone_end + 1] = d.zone_errs
    columns = [np.array([getattr(d, name) for d in descriptors], int)
               for name in ("kind", "zone_start", "zone_end")]
    return DescriptorPool(*columns, params, errs, n_zones, tuple(kinds), n_infeasible)


def pool_key(pool):
    """What tells two pools apart: their descriptors and counts."""
    return list(pool), pool.n_zones, pool.kinds, pool.n_infeasible


def full_random_descriptors(rng, n_zones, kinds=(CurveKind.LINE,), err_scale=0.5,
                            quantum=None):
    """One descriptor per (kind, range), in (kind, i, j) order, with random
    per-zone errors, rounded to multiples of ``quantum`` when one is given."""
    descriptors = []
    for kind in kinds:
        for i in range(n_zones):
            for j in range(i, n_zones):
                errs = [rng.uniform(0.0, err_scale) for _ in range(j - i + 1)]
                if quantum:
                    errs = [round(e / quantum) * quantum for e in errs]
                descriptors.append(
                    make_descriptor(len(descriptors), i, j, errs, n_zones, kind=kind))
    return descriptors


def full_random_pool(rng, n_zones, kinds=(CurveKind.LINE,), err_scale=0.5, quantum=None):
    """The pool of ``full_random_descriptors``."""
    return make_pool(full_random_descriptors(rng, n_zones, kinds, err_scale, quantum),
                     n_zones, kinds)


@pytest.fixture
def rng():
    import random

    return random.Random(0xC0FFEE)


def _on_line(k, edit):
    """An edit of line k of a dumped pool's text."""
    def apply(text):
        lines = text.split("\n")
        lines[k] = edit(lines[k])
        return "\n".join(lines)
    return apply


def _join_lines(k):
    """An edit putting lines k and k + 1 of a dumped pool on one line."""
    def apply(text):
        lines = text.split("\n")
        lines[k:k + 2] = [lines[k] + " " + lines[k + 1]]
        return "\n".join(lines)
    return apply


# Edits of a dumped pool's text (header, then at least two records), and
# whether a loader that ``json.loads`` each of its lines takes the result.
POOL_EDITS = [
    ("blank-lines", lambda t: t.replace("\n", "\n\n \t\n"), True),
    ("crlf", lambda t: t.replace("\n", "\r\n"), True),
    ("trailing-spaces", lambda t: t.replace("\n", " \t \n"), True),
    ("header-only", lambda t: t.split("\n")[0] + "\n", True),
    ("kind-in-capitals", _on_line(1, lambda s: s.replace('"kind": "line"', '"kind": "LINE"', 1)),
     True),
    ("kind-padded", _on_line(1, lambda s: s.replace('"kind": "line"', '"kind": " line "', 1)),
     True),
    ("two-records-on-a-line", _join_lines(1), False),
    ("record-over-two-lines", _on_line(2, lambda s: s.replace(", ", ",\n", 1)), False),
    ("kind-not-a-string", _on_line(1, lambda s: s.replace('"kind": "', '"kind": 5, "k": "', 1)),
     False),
    ("garbage-after-a-record", _on_line(1, lambda s: s + " x"), False),
    ("trailing-garbage", lambda t: t + "]\n", False),
    ("truncated-last-line", lambda t: t.rstrip("\n")[:-20], False),
    ("empty-file", lambda t: "", False),
]


def _params(**edit):
    """An edit setting params of a record, each value from its params."""
    return lambda rec, n_zones: rec["params"].update(
        {k: f(rec["params"]) for k, f in edit.items()})


# Edits of one decoded pool record, in place, that break one rule on its
# values; the label of the kind of record each applies to (None: any) and
# the record's zone count are given.
POOL_VALUE_EDITS = [
    ("tooth-plateau-not-ordered", "tooth", _params(x_s=lambda p: p["x_e"])),
    ("bilinear-breakpoint-outside", "bilinear", _params(x_b=lambda p: p["x_hi"])),
    ("sinusoid-amp-negative", "sinusoid", _params(amp=lambda p: -0.5)),
    ("sinusoid-freq-zero", "sinusoid", _params(freq=lambda p: 0.0)),
    ("param-nan", "tooth", _params(x_s=lambda p: math.nan)),
    ("zone-end-past-grid", None, lambda rec, n_zones: rec.update(
        zone_end=n_zones, zone_errs=rec["zone_errs"] + [0.5] * (n_zones - rec["zone_end"]))),
    ("zone-start-past-end", None, lambda rec, n_zones: rec.update(
        zone_start=rec["zone_end"] + 1, zone_errs=[])),
    ("zone-errs-short", None, lambda rec, n_zones: rec.update(zone_errs=rec["zone_errs"][:-1])),
]


def edit_pool_record(text, kind, edit):
    """A dumped pool's text with ``edit`` applied to its first record of
    the kind labelled ``kind`` (any kind for None)."""
    header, *lines = text.splitlines()
    recs = [json.loads(line) for line in lines]
    rec = next(r for r in recs if kind in (None, r["kind"]))
    edit(rec, json.loads(header)["n_zones"])
    return "".join(line + "\n" for line in [header, *map(json.dumps, recs)])
