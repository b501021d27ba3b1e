"""serinarr: hierarchical natural-language narration of scalar time series.

The pipeline normalizes a series onto the unit square, fits curve
prototypes over every contiguous zone range, tiles the zone axis
optimally at each verbosity, picks the details worth telling, and
realizes the result as English text plus SVG charts.
"""

__version__ = "0.1.0"

from .cover import VerbosityLevel, solve_cover
from .details import (
    SelectionConfig,
    SelectionResult,
    coexist,
    pick_summary,
    solve_details,
)
from .errors import (
    EmptyZoneError,
    FitError,
    IngestError,
    OutputError,
    SerinarrError,
    SolveError,
)
from .fitting import Descriptor, DescriptorPool, build_pool, fit_one
from .ingest import RawSeries, TimeSeries, load, load_series, normalize
from .narration import (
    NarrationUnit,
    ShapeClass,
    build_narration,
    classify,
    quantize,
)
from .prototypes import CurveKind, evaluate
from .render import PlotSpec, render_enriched, render_heatmap
from .textgen import NarrationText, realize, realize_unit

__all__ = [
    "CurveKind",
    "Descriptor",
    "DescriptorPool",
    "EmptyZoneError",
    "FitError",
    "IngestError",
    "NarrationText",
    "NarrationUnit",
    "OutputError",
    "PlotSpec",
    "RawSeries",
    "SelectionConfig",
    "SelectionResult",
    "SerinarrError",
    "ShapeClass",
    "SolveError",
    "TimeSeries",
    "VerbosityLevel",
    "build_narration",
    "build_pool",
    "classify",
    "coexist",
    "evaluate",
    "fit_one",
    "load",
    "load_series",
    "normalize",
    "pick_summary",
    "quantize",
    "realize",
    "realize_unit",
    "render_enriched",
    "render_heatmap",
    "solve_cover",
    "solve_details",
]
