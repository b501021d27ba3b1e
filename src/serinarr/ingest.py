"""Loading and normalization of scalar time series.

Supported input formats:

``csv``
    Plain ``t,y`` rows with an optional header line.  A single-column
    file is accepted too, in which case the row index becomes the time
    axis.

``trends_csv``
    The CSV export shape used by the Google Trends UI: two metadata
    lines, a header, then ``date,value`` rows.  Values below the
    reporting floor appear as ``"<1"`` and are read as 0.5.  The date
    column only fixes the ordering; rows are treated as evenly spaced.

``json``
    Either ``{"points": [{"t": ..., "v": ...}, ...]}`` or
    ``{"values": [...]}``.  Both must be json lists of json numbers:
    strings and booleans are rejected.

After loading, :func:`normalize` min-max scales both axes into the unit
square and attaches the zone grid used by every later stage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyZoneError, IngestError

FORMATS = ("csv", "trends_csv", "json")


@dataclass(frozen=True)
class RawSeries:
    """An ordered sequence of (timestamp, value) pairs as read from disk."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise IngestError(f"need at least 2 points, got {len(self.points)}")
        ts = [t for t, _ in self.points]
        for k in range(1, len(ts)):
            if not ts[k] > ts[k - 1]:
                raise IngestError(
                    f"timestamps must be strictly increasing "
                    f"(t[{k - 1}]={ts[k - 1]!r} >= t[{k}]={ts[k]!r})"
                )
        for t, y in self.points:
            if not (math.isfinite(t) and math.isfinite(y)):
                raise IngestError("non-finite timestamp or value in input")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TimeSeries:
    """A normalized series on the unit square plus its zone grid.

    ``xs`` and ``ys`` live in [0, 1].  ``zone_bounds[z]`` is the
    half-open sample index range of zone z, so slicing a contiguous zone
    range never rescans the series.
    """

    xs: np.ndarray
    ys: np.ndarray
    n_zones: int
    zone_bounds: tuple[tuple[int, int], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.xs)

    def zone_slice(self, i: int, j: int) -> slice:
        """Sample index slice covering zones i..j inclusive."""
        return slice(self.zone_bounds[i][0], self.zone_bounds[j][1])

    def zone_x_range(self, i: int, j: int) -> tuple[float, float]:
        """The x interval [i/n, (j+1)/n] spanned by zones i..j."""
        return i / self.n_zones, (j + 1) / self.n_zones


# ----------------------------------------------------------------------
# loaders
# ----------------------------------------------------------------------


def _parse_value(token: str) -> float:
    token = token.strip().strip('"')
    if token.startswith("<"):
        # Trends reports sub-floor weeks as "<1"; take half the floor.
        return float(token[1:]) / 2.0
    return float(token)


def _load_csv(text: str) -> RawSeries:
    """``t,value`` rows, or ``value`` rows indexed by row; the first data
    row sets which, and every later row must have its cell count."""
    points = []
    width = 0  # cells per data row, set by the first one
    header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            if len(cells) == 1:
                point = (float(len(points)), _parse_value(cells[0]))
            else:
                point = (float(cells[0]), _parse_value(cells[1]))
        except ValueError:
            if points or header:
                raise IngestError(f"line {lineno}: cannot parse {line!r}") from None
            header = True  # the one header line allowed before the data
            continue
        if len(cells) > 2:
            raise IngestError(f"line {lineno}: {line!r} has more than two cells")
        if width and len(cells) != width:
            shape = "t,value" if width == 2 else "one-value"
            raise IngestError(f"line {lineno}: {line!r} is not a {shape} row "
                              f"like the first data row")
        width = len(cells)
        points.append(point)
    if not points:
        raise IngestError("no data rows found in csv input")
    return RawSeries(tuple(points))


def _load_trends_csv(text: str) -> RawSeries:
    lines = text.splitlines()
    if len(lines) < 4:
        raise IngestError("trends_csv input too short")
    # Two metadata lines (category line and a blank), then the header.
    data_lines = [ln for ln in lines[3:] if ln.strip()]
    points = []
    for offset, line in enumerate(data_lines):
        cells = line.split(",")
        if len(cells) < 2:
            raise IngestError(f"trends_csv row {offset + 4}: expected date,value")
        try:
            value = _parse_value(cells[1])
        except ValueError:
            raise IngestError(
                f"trends_csv row {offset + 4}: bad value {cells[1]!r}"
            ) from None
        # The date only orders the rows; positions are the row indexes.
        points.append((float(offset), value))
    if not points:
        raise IngestError("no data rows found in trends_csv input")
    return RawSeries(tuple(points))


def _json_number(value) -> float:
    # float() also takes strings such as " 3 ", and True and False as 1.0
    # and 0.0; only json ints and floats are numbers.  An int past the
    # float range raises OverflowError.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _load_json(text: str) -> RawSeries:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid json: {exc}") from None
    if isinstance(doc, dict) and "points" in doc:
        if not isinstance(doc["points"], list):
            raise IngestError('json "points" must be a list')
        try:
            points = tuple(
                (_json_number(p["t"]), _json_number(p["v"])) for p in doc["points"]
            )
        except (TypeError, KeyError, ValueError, OverflowError):
            raise IngestError('json "points" entries need numeric "t" and "v"') from None
    elif isinstance(doc, dict) and "values" in doc:
        # A json string is iterable too: without this check "314" loads as 3, 1, 4.
        if not isinstance(doc["values"], list):
            raise IngestError('json "values" must be a list of numbers')
        try:
            points = tuple(
                (float(k), _json_number(v)) for k, v in enumerate(doc["values"])
            )
        except (TypeError, ValueError, OverflowError):
            raise IngestError('json "values" must be a list of numbers') from None
    else:
        raise IngestError('json input needs a "points" or "values" key')
    return RawSeries(points)


_LOADERS = {
    "csv": _load_csv,
    "trends_csv": _load_trends_csv,
    "json": _load_json,
}


def load(path: str | Path, format: str = "csv") -> RawSeries:
    """Read a series from ``path`` in the given format."""
    if format not in _LOADERS:
        raise IngestError(f"unknown format {format!r}, expected one of {FORMATS}")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    return _LOADERS[format](text)


# ----------------------------------------------------------------------
# normalization and the zone grid
# ----------------------------------------------------------------------


def normalize(raw: RawSeries, levels: int) -> TimeSeries:
    """Min-max scale a raw series onto [0,1] x [0,1] and build 2**levels zones.

    A constant series maps to the flat line y = 0.5.  Every zone must
    receive at least one sample; otherwise the requested zone count is
    too fine for the series and the first empty zone is reported.

    Applying normalize to an already normalized series reproduces it
    bit for bit.
    """
    if levels < 1:
        raise IngestError(f"levels must be >= 1, got {levels}")
    n_zones = 2 ** levels
    if n_zones > len(raw):
        raise IngestError(
            f"{n_zones} zones need at least {n_zones} points, series has {len(raw)}"
        )

    ts = np.array([t for t, _ in raw.points], dtype=float)
    vs = np.array([v for _, v in raw.points], dtype=float)

    xs = (ts - ts[0]) / (ts[-1] - ts[0])
    y_min = float(vs.min())
    y_max = float(vs.max())
    if y_max > y_min:
        ys = (vs - y_min) / (y_max - y_min)
    else:
        ys = np.full_like(vs, 0.5)

    zone_of = np.minimum(np.floor(xs * n_zones).astype(int), n_zones - 1)

    bounds = []
    start = 0
    for z in range(n_zones):
        end = int(np.searchsorted(zone_of, z, side="right"))
        if end == start:
            raise EmptyZoneError(z, n_zones)
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


def load_series(path: str | Path, format: str, levels: int) -> TimeSeries:
    """Convenience wrapper: load then normalize."""
    return normalize(load(path, format), levels)
