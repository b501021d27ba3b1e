"""Command line front end and pipeline orchestration.

Subcommands:

* ``narrate``: full pipeline, emits any of text, json, svg, heatmap,
  pool (comma list via --emit).
* ``fit``: ingest and fitting only, dumps the descriptor pool.
* ``sweep``: run the pipeline over several zone level counts and print
  a comparison table.
* ``render``: rebuild the SVG artifacts from a previous run's saved
  pool and selection files.

Config values resolve as command line > config file > defaults.  The
config file is a flat ``key = value`` document; lists use commas, and
a key that names no option is an error.  ``RunConfig`` checks every
value, thresholds included, when it is built, so a bad value fails
before any input is read.  Every artifact
lands at ``out_dir/<stem>.<suffix>`` and is written atomically by
``write_atomic``; ``render`` rebuilds the charts from the saved
``pool.jsonl`` and ``selection.json`` of an earlier
``narrate --emit json,pool``.

Exit codes: 0 success, 3 ingest failure, 4 fitting failure, 5 solver
failure, 6 output failure (2 is argparse usage).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from . import __version__
from .cover import VerbosityLevel, level_error_matrix, solve_cover
from .details import (
    DEFAULT_MAX_THR,
    DEFAULT_MIN_THR,
    DEFAULT_PENALTY_EPS,
    SelectionConfig,
    SelectionResult,
    pick_summary,
    solve_details,
)
from .errors import (
    FitError,
    IngestError,
    OutputError,
    SerinarrError,
    SolveError,
)
from .fitting import (
    DEFAULT_KINDS,
    DescriptorPool,
    build_pool,
    dump_pool,
    load_pool,
    write_atomic,
)
from .ingest import FORMATS, TimeSeries, load_series
from .narration import build_narration, narration_structure
from .prototypes import CurveKind
from .render import PlotSpec, render_enriched, render_heatmap
from .textgen import NarrationText, realize

EXIT_INGEST = 3
EXIT_FIT = 4
EXIT_SOLVE = 5
EXIT_OUTPUT = 6

EMIT_CHOICES = ("text", "json", "svg", "heatmap", "pool")


@dataclass(frozen=True)
class RunConfig:
    input: str
    format: str = "csv"
    levels: int = 4
    verbosity: int = 5
    max_thr: float = DEFAULT_MAX_THR
    min_thr: float = DEFAULT_MIN_THR
    penalty_eps: float = DEFAULT_PENALTY_EPS
    kinds: tuple[CurveKind, ...] = DEFAULT_KINDS
    out_dir: str = "."
    emit: tuple[str, ...] = ("text",)

    def __post_init__(self):
        if self.format not in FORMATS:
            raise IngestError(f"unknown format {self.format!r}")
        if not 1 <= self.levels <= 6:
            raise IngestError(f"levels must lie in [1, 6], got {self.levels}")
        if not 1 <= self.verbosity <= 8:
            raise IngestError(f"verbosity must lie in [1, 8], got {self.verbosity}")
        for e in self.emit:
            if e not in EMIT_CHOICES:
                raise OutputError(f"unknown emit target {e!r}")
        try:
            self.selection_config
        except ValueError as exc:
            raise IngestError(str(exc)) from None

    @cached_property
    def selection_config(self) -> SelectionConfig:
        """The detail search settings; built, and so checked, on construction."""
        return SelectionConfig(
            max_thr=self.max_thr,
            min_thr=self.min_thr,
            v=self.verbosity,
            penalty_eps=self.penalty_eps,
        )


@dataclass(frozen=True)
class RunReport:
    """One run's results, each held once, plus its timings and outputs."""

    pool: DescriptorPool
    levels: list[VerbosityLevel]
    selection: SelectionResult
    text: NarrationText
    timings: dict[str, float]
    outputs: list[str]

    def lines(self) -> list[str]:
        sel = self.selection
        out = [
            f"pool: {len(self.pool)} descriptors "
            f"({self.pool.n_infeasible} infeasible ranges skipped)",
            "cover: "
            + ", ".join(
                f"v={lv.v} cost={lv.cost:.4f}" if lv.feasible else f"v={lv.v} infeasible"
                for lv in self.levels
            ),
            f"summary: level {sel.s}"
            + ("" if sel.threshold_met else " (threshold unmet)"),
            f"details: {len(sel.details)} selected "
            + str([i for i, _ in sel.details]),
            f"objective: {sel.objective:.6f}",
            f"global_rmse: {sel.global_rmse:.6f}",
            "timings: "
            + ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in self.timings.items()),
        ]
        if self.outputs:
            out.append("wrote: " + ", ".join(self.outputs))
        return out


def _artifact(cfg: RunConfig, suffix: str) -> Path:
    """out_dir/<stem>.<suffix>; plain concatenation so dotted stems survive."""
    return Path(cfg.out_dir) / f"{Path(cfg.input).stem}.{suffix}"


# ----------------------------------------------------------------------
# config file and argument plumbing
# ----------------------------------------------------------------------


def load_config_file(path: str | Path) -> dict:
    """Flat key/value config: one ``key = value`` per line, # comments."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IngestError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IngestError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _parse_levels_list(raw: str) -> list[int]:
    """The zone level counts of ``--levels-list``, a comma list."""
    try:
        levels = [int(v) for v in _parse_list(raw)]
    except ValueError:
        levels = []
    if not levels:
        raise IngestError(
            f"--levels-list must be a comma list of integers, got {raw!r}"
        )
    return levels


def _parse_kinds(raw: str) -> tuple[CurveKind, ...]:
    kinds = tuple(CurveKind.from_label(k) for k in _parse_list(raw))
    if not kinds:
        raise IngestError("at least one curve kind is required")
    return kinds


# RunConfig field -> converter from the config file's text.  The command
# line flags of the same names (dashes for underscores) use the same
# converters; penalty_eps has no flag.
_CONFIG_KEYS = {
    "input": str,
    "format": str,
    "levels": int,
    "verbosity": int,
    "max_thr": float,
    "min_thr": float,
    "penalty_eps": float,
    "kinds": _parse_kinds,
    "out_dir": str,
    "emit": _parse_list,
}


def merge_config(cli_args: dict, file_values: dict) -> RunConfig:
    """Command line beats the config file beats the defaults.  A file
    key that names no ``RunConfig`` field is an error."""
    for key in file_values:
        if key not in _CONFIG_KEYS:
            raise IngestError(
                f"config key {key}: unknown, expected one of {', '.join(_CONFIG_KEYS)}"
            )
    merged: dict = {}
    for key, conv in _CONFIG_KEYS.items():
        if key in file_values:
            try:
                merged[key] = conv(file_values[key])
            except ValueError as exc:
                raise IngestError(f"config key {key}: {exc}") from None
    for key, val in cli_args.items():
        if val is not None:
            merged[key] = val
    if "input" not in merged:
        raise IngestError("an input file is required (--input or config)")
    return RunConfig(**merged)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------


def _emit_outputs(
    cfg: RunConfig,
    pool: DescriptorPool,
    series: TimeSeries | None = None,
    levels: list[VerbosityLevel] | None = None,
    selection: SelectionResult | None = None,
    units=None,
    text=None,
) -> list[str]:
    """Write every artifact named in ``cfg.emit``; returns the paths.

    The one writer for all subcommands: ``fit`` passes only the pool,
    ``render`` everything but the narration.
    """
    wrote = []

    if "text" in cfg.emit:
        p = _artifact(cfg, "txt")
        write_atomic(p, text.full_text + "\n")
        wrote.append(str(p))
    if "json" in cfg.emit:
        p = _artifact(cfg, "selection.json")
        write_atomic(p, json.dumps(selection.as_dict(), indent=2, sort_keys=True) + "\n")
        wrote.append(str(p))
        p = _artifact(cfg, "narration.json")
        write_atomic(
            p, json.dumps(narration_structure(units), indent=2, sort_keys=True) + "\n"
        )
        wrote.append(str(p))
    if "pool" in cfg.emit:
        p = _artifact(cfg, "pool.jsonl")
        dump_pool(pool, p)
        wrote.append(str(p))
    if "svg" in cfg.emit:
        for name, svg in _charts(series, pool, levels, selection, cfg.max_thr):
            p = _artifact(cfg, f"{name}.svg")
            write_atomic(p, svg)
            wrote.append(str(p))
    if "heatmap" in cfg.emit:
        p = _artifact(cfg, "heatmap.svg")
        write_atomic(p, _heatmap(pool, levels, selection))
        wrote.append(str(p))
    return wrote


def _charts(series, pool, levels, selection, max_thr):
    """Summary and details charts, each with its per-zone error bar."""
    summary = next(lv for lv in levels if lv.v == selection.s)
    detail_ids = [i for i, _ in selection.details]
    for name, ids, errs in (
        ("summary", selection.summary, summary.zone_errs),
        ("details", detail_ids, tuple(pool.zone_errs(selection.selected_ids))),
    ):
        yield name, render_enriched(
            PlotSpec(
                series=series,
                curves=tuple(pool.get(i) for i in ids),
                error_bar=errs,
                max_thr=max_thr,
                title=name,
            )
        )


def _heatmap(pool, levels, selection):
    labels, matrix = level_error_matrix(levels)
    row_of = {v: r for r, v in enumerate(labels)}
    shown = [(i, selection.s) for i in selection.summary] + list(selection.details)
    selected = set()
    for id_, lv in shown:
        if lv in row_of:
            for z in pool.get(id_).zones:
                selected.add((row_of[lv], z))
    return render_heatmap(matrix, labels, selected)


def run(cfg: RunConfig) -> RunReport:
    """Full pipeline for one series; returns the run report."""
    timings = {}
    t0 = time.perf_counter()
    series = load_series(cfg.input, cfg.format, cfg.levels)
    timings["ingest"] = time.perf_counter() - t0
    # The penalty bound needs only the zone count: fail before the fit.
    try:
        cfg.selection_config.check_penalty(series.n_zones)
    except ValueError as exc:
        raise SolveError(str(exc)) from None

    t0 = time.perf_counter()
    pool = build_pool(series, cfg.kinds)
    timings["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    levels = solve_cover(pool, cfg.verbosity)
    s, met = pick_summary(levels, cfg.max_thr)
    selection = solve_details(pool, levels, s, cfg.selection_config, threshold_met=met)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    units = build_narration(selection, pool, series)
    text = realize(units, threshold_met=selection.threshold_met)
    timings["narrate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    outputs = _emit_outputs(cfg, pool, series, levels, selection, units, text)
    timings["emit"] = time.perf_counter() - t0
    return RunReport(pool, levels, selection, text, timings, outputs)


def sweep(cfg: RunConfig, levels_list: list[int]) -> list[dict]:
    """Run the pipeline once per zone level count.

    A failing row is reported and skipped; the other rows still run.
    """
    rows = []
    for lv in levels_list:
        row: dict = {"levels": lv}
        try:
            report = run(replace(cfg, levels=lv, emit=()))
            row.update(
                pool=len(report.pool),
                summary_level=report.selection.s,
                n_details=len(report.selection.details),
                global_rmse=report.selection.global_rmse,
                wall_s=sum(report.timings.values()),
            )
        except SerinarrError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _format_sweep(rows: list[dict]) -> str:
    header = f"{'levels':>6} {'zones':>5} {'pool':>6} {'s':>3} {'details':>7} {'global_rmse':>12} {'wall_s':>8}"
    lines = [header]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['levels']:>6} failed: {row['error']}")
        else:
            lines.append(
                f"{row['levels']:>6} {2 ** row['levels']:>5} {row['pool']:>6} "
                f"{row['summary_level']:>3} {row['n_details']:>7} "
                f"{row['global_rmse']:>12.6f} {row['wall_s']:>8.2f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="path to the input series")
    p.add_argument("--format", choices=FORMATS, default=None,
                   help="input format (default csv)")
    p.add_argument("--levels", type=int, default=None,
                   help="zone levels, 2**levels zones (default 4)")
    p.add_argument("--verbosity", type=int, default=None,
                   help="verbosity bound V (default 5)")
    p.add_argument("--max-thr", type=float, default=None, dest="max_thr",
                   help="summary per-zone error threshold (default 0.15)")
    p.add_argument("--min-thr", type=float, default=None, dest="min_thr",
                   help="cross-level improvement threshold (default 0.02)")
    p.add_argument("--kinds", type=_parse_kinds, default=None,
                   help="comma list of curve kinds (default line,bilinear,tooth)")
    p.add_argument("--out-dir", default=None, dest="out_dir",
                   help="directory for emitted files (default .)")
    p.add_argument("--emit", type=_parse_list, default=None,
                   help="comma list of outputs: text,json,svg,heatmap,pool")
    p.add_argument("--config", default=None, help="flat key=value config file")


def _collect(args: argparse.Namespace, force_emit: tuple[str, ...] | None = None):
    cli_values = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    file_values = load_config_file(args.config) if args.config else {}
    cfg = merge_config(cli_values, file_values)
    if force_emit is not None:
        cfg = replace(cfg, emit=force_emit)
    return cfg


def _cmd_narrate(args) -> int:
    cfg = _collect(args)
    report = run(cfg)
    print(report.text.full_text)
    for line in report.lines():
        print(line)
    return 0


def _cmd_fit(args) -> int:
    cfg = _collect(args, force_emit=("pool",))
    series = load_series(cfg.input, cfg.format, cfg.levels)
    pool = build_pool(series, cfg.kinds)
    (out,) = _emit_outputs(cfg, pool)
    print(
        f"pool: {len(pool)} descriptors ({pool.n_infeasible} infeasible), "
        f"wrote {out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _collect(args)
    rows = sweep(cfg, _parse_levels_list(args.levels_list))
    print(_format_sweep(rows))
    if "json" in cfg.emit:
        out = _artifact(cfg, "sweep.json")
        write_atomic(out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"wrote: {out}")
    return 0


def _read_artifact(path: Path, parse):
    """``parse(path)``, reporting an unreadable or damaged file as an
    output error."""
    try:
        return parse(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise OutputError(f"cannot load {path}: {exc}") from None


def _cmd_render(args) -> int:
    cfg = _collect(args, force_emit=("svg", "heatmap"))
    pool_path = _artifact(cfg, "pool.jsonl")
    sel_path = _artifact(cfg, "selection.json")
    if not pool_path.exists() or not sel_path.exists():
        raise OutputError(
            f"render needs {pool_path.name} and {sel_path.name} in {cfg.out_dir}; "
            f"run narrate with --emit json,pool first"
        )
    series = load_series(cfg.input, cfg.format, cfg.levels)
    pool = _read_artifact(pool_path, load_pool)
    selection = _read_artifact(
        sel_path, lambda p: SelectionResult.from_dict(json.loads(p.read_text()))
    )
    if pool.n_zones != series.n_zones:
        raise OutputError(
            f"{pool_path.name} has {pool.n_zones} zones but --levels {cfg.levels} "
            f"gives {series.n_zones}; render with the --levels narrate used"
        )
    unknown = set(selection.selected_ids) - {d.id for d in pool}
    if unknown:
        raise OutputError(
            f"{sel_path.name} names descriptors {sorted(unknown)} missing "
            f"from {pool_path.name}"
        )
    levels = solve_cover(pool, cfg.verbosity)
    if selection.s not in {lv.v for lv in levels if lv.feasible}:
        raise OutputError(
            f"saved summary level {selection.s} is not a feasible level at "
            f"--verbosity {cfg.verbosity}; render with a verbosity of at least "
            f"{selection.s}"
        )
    wrote = _emit_outputs(cfg, pool, series, levels, selection)
    print("wrote: " + ", ".join(wrote))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serinarr",
        description="Narrate a scalar time series as structured English text.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("narrate", help="run the full pipeline")
    _add_common(p)
    p.set_defaults(func=_cmd_narrate)

    p = sub.add_parser("fit", help="fit the descriptor pool only")
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sweep", help="compare several zone level counts")
    _add_common(p)
    p.add_argument("--levels-list", default="3,4,5", dest="levels_list",
                   help="comma list of level counts (default 3,4,5)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="re-render charts from saved artifacts")
    _add_common(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # Inside the try: a flag's converter (--kinds) may raise IngestError.
        args = parser.parse_args(argv)
        return args.func(args)
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except SolveError as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
