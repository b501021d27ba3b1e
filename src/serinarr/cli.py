"""Command line front end and pipeline orchestration.

Subcommands:

* ``narrate``: full pipeline, emits any of text, json, svg, heatmap,
  pool (comma list via --emit).
* ``fit``: ingest and fitting only, dumps the descriptor pool.
* ``sweep``: run the pipeline over several zone level counts and print
  a comparison table.
* ``render``: rebuild the SVG artifacts from a previous run's saved
  pool and selection files.

Config values resolve as command line > config file > defaults.  Each
option is one ``_CONFIG_KEYS`` entry: the converter that its flag and
the flat ``key = value`` config file share, and its flag's help, which
shows the ``RunConfig`` default.  Config lists use commas, and a key that
names no option is an error.  ``RunConfig`` checks every value when it
is built, so a bad value fails before any input is read.  A subcommand
offers a flag only for a field it reads.  Each subcommand names the
files it writes (``narrate``'s by emit target, in ``_EMIT_FILES``),
checks their paths against the config file before it reads its input
(``_artifacts``) and against the input once it has read it
(``_read_series``), so a refused path costs no work and writes no file.
``_emit_outputs`` writes them all: every artifact lands at
``out_dir/<stem>.<suffix>``, written atomically.
``render`` rebuilds the charts from the
``pool.jsonl`` and ``selection.json`` that ``narrate --emit json,pool``
saved.

Exit codes, one ``_EXITS`` entry per error class: 0 success, 3 ingest,
4 fitting, 5 solver, 6 output failure (2 is argparse usage).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .cover import VerbosityLevel, solve_cover
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
    pool_zones,
    write_atomic,
)
from .ingest import FORMATS, TimeSeries, load_series
from .narration import build_narration, narration_structure
from .prototypes import CurveKind
from .render import PlotSpec, render_enriched, render_heatmap
from .textgen import NarrationText, realize

# Each pipeline error's stderr label and exit code.
_EXITS = {
    IngestError: ("ingest error", 3),
    FitError: ("fit error", 4),
    SolveError: ("solve error", 5),
    OutputError: ("output error", 6),
}
EXIT_INGEST, EXIT_FIT, EXIT_SOLVE, EXIT_OUTPUT = (code for _, code in _EXITS.values())

# Each emit target's artifacts, by suffix, in the order ``run`` writes them.
_EMIT_FILES = {
    "text": ("txt",),
    "json": ("selection.json", "narration.json"),
    "pool": ("pool.jsonl",),
    "svg": ("summary.svg", "details.svg"),
    "heatmap": ("heatmap.svg",),
}
EMIT_CHOICES = tuple(_EMIT_FILES)


@dataclass(frozen=True)
class RunConfig:
    input: str
    format: str = "csv"
    levels: int = 4
    verbosity: int = 5
    max_thr: float = DEFAULT_MAX_THR
    min_thr: float = DEFAULT_MIN_THR
    penalty_eps: float | None = None  # None: derived from the zone grid
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
        """The detail search settings; built, and so checked, on construction.

        An unset ``penalty_eps`` is ``DEFAULT_PENALTY_EPS`` while that keeps
        ``penalty_eps * v * 2**levels`` under ``min_thr``, else half the
        largest value that does.
        """
        eps = self.penalty_eps
        if eps is None:
            eps = DEFAULT_PENALTY_EPS
            if eps * self.verbosity * 2 ** self.levels >= self.min_thr:
                eps = self.min_thr / (2 * self.verbosity * 2 ** self.levels)
                if eps == 0.0 and self.min_thr > 0:  # underflow; min_thr <= 0 fails below
                    raise ValueError(f"min_thr = {self.min_thr} is too small to derive "
                                     f"penalty_eps from; set penalty_eps")
        return SelectionConfig(
            max_thr=self.max_thr,
            min_thr=self.min_thr,
            v=self.verbosity,
            penalty_eps=eps,
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


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# config file and argument plumbing
# ----------------------------------------------------------------------


def load_config_file(path: str | Path) -> dict:
    """Flat key/value config: one ``key = value`` per line, # comments."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
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


# RunConfig field -> the argparse settings of its flag, the field name
# with dashes, on every subcommand; the help gets the field's default.
# ``type`` also converts the config file's text.  penalty_eps has no flag.
_CONFIG_KEYS = {
    "input": dict(type=str, help="path to the input series"),
    "format": dict(type=str, choices=FORMATS, help="input format"),
    "levels": dict(type=int, help="zone levels, 2**levels zones"),
    "verbosity": dict(type=int, help="verbosity bound V"),
    "max_thr": dict(type=float, help="summary per-zone error threshold"),
    "min_thr": dict(type=float, help="cross-level improvement threshold"),
    "penalty_eps": dict(type=float),
    "kinds": dict(type=_parse_kinds, help="comma list of curve kinds"),
    "out_dir": dict(type=str, help="directory for emitted files"),
    "emit": dict(type=_parse_list, help=f"comma list of outputs: {','.join(EMIT_CHOICES)}"),
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
    for key, flag in _CONFIG_KEYS.items():
        if key in file_values:
            try:
                merged[key] = flag["type"](file_values[key])
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


def _refuse(paths: list[Path], role: str, src: str | None) -> None:
    """``OutputError`` when one of ``paths`` is the ``role`` file ``src``."""
    if src is not None:
        where = Path(src).resolve()
        for path in paths:
            if path.resolve() == where:
                raise OutputError(f"{path} is the {role} file; choose another --out-dir")


def _artifacts(cfg: RunConfig, suffixes, config: str | None = None) -> list[Path]:
    """The ``_artifact`` path of each suffix, none of them the ``config``
    file.  Every subcommand calls this before it reads its input, so a
    refused path costs no work."""
    paths = [_artifact(cfg, suffix) for suffix in suffixes]
    _refuse(paths, "config", config)
    return paths


def _read_series(cfg: RunConfig, paths: list[Path]) -> TimeSeries:
    """The input series; then none of ``paths`` may be the input file.  A
    bad input is reported as such first, and a refused path costs only
    the read."""
    series = load_series(cfg.input, cfg.format, cfg.levels)
    _refuse(paths, "input", cfg.input)
    return series


def _emit_outputs(paths: list[Path], bodies) -> list[str]:
    """Write each body at its path, in order; returns the paths.

    The one writer for every subcommand.  The paths come from
    ``_artifacts``, so no file is written until every path has passed.
    A body is text, or the ``DescriptorPool`` that ``dump_pool`` writes.
    """
    for path, body in zip(paths, bodies, strict=True):
        if isinstance(body, DescriptorPool):
            dump_pool(body, path)
        else:
            write_atomic(path, body)
    return [str(p) for p in paths]


def _charts(series, pool, levels, selection, max_thr):
    """The svg of the summary chart, then of the details chart, each with
    its per-zone error bar, as ``_EMIT_FILES["svg"]`` names them."""
    summary = next(lv for lv in levels if lv.v == selection.s)
    detail_ids = [i for i, _ in selection.details]
    for name, ids, errs in (
        ("summary", selection.summary, summary.zone_errs),
        ("details", detail_ids, tuple(pool.zone_errs(selection.selected_ids))),
    ):
        yield render_enriched(
            PlotSpec(
                series=series,
                curves=tuple(pool.get(i) for i in ids),
                error_bar=errs,
                max_thr=max_thr,
                title=name,
            )
        )


def _heatmap(pool, levels, selection):
    """Per-zone errors, one row per feasible level, the shown fits' cells selected."""
    feasible = [lv for lv in levels if lv.feasible]
    row_of = {lv.v: r for r, lv in enumerate(feasible)}
    shown = [(i, selection.s) for i in selection.summary] + list(selection.details)
    selected = {(row_of[lv], z) for id_, lv in shown if lv in row_of
                for z in range(pool.zone_start[id_], pool.zone_end[id_] + 1)}
    return render_heatmap([lv.zone_errs for lv in feasible], list(row_of), selected)


def run(cfg: RunConfig, config: str | None = None) -> RunReport:
    """Full pipeline for one series; returns the run report.  ``config``
    is the config file's path, which no artifact may overwrite."""
    targets = [target for target in _EMIT_FILES if target in cfg.emit]
    paths = _artifacts(cfg, [s for target in targets for s in _EMIT_FILES[target]], config)
    timings, marks = {}, [time.perf_counter()]

    def lap(stage: str) -> None:  # the clock is read once at each stage boundary
        marks.append(time.perf_counter())
        timings[stage] = marks[-1] - marks[-2]

    series = _read_series(cfg, paths)
    lap("ingest")
    # The penalty bound needs only the zone count: fail before the fit.
    try:
        cfg.selection_config.check_penalty(series.n_zones)
    except ValueError as exc:
        raise SolveError(str(exc)) from None
    pool = build_pool(series, cfg.kinds)
    lap("fit")
    levels = solve_cover(pool, cfg.verbosity)
    s, met = pick_summary(levels, cfg.max_thr)
    selection = solve_details(pool, levels, s, cfg.selection_config, threshold_met=met)
    lap("solve")
    units = build_narration(selection, pool, series)
    text = realize(units, threshold_met=selection.threshold_met)
    lap("narrate")
    bodies = {  # each target's bodies, in its _EMIT_FILES order
        "text": lambda: [text.full_text + "\n"],
        "json": lambda: [_json(selection.as_dict()), _json(narration_structure(units))],
        "pool": lambda: [pool],
        "svg": lambda: _charts(series, pool, levels, selection, cfg.max_thr),
        "heatmap": lambda: [_heatmap(pool, levels, selection)],
    }
    outputs = _emit_outputs(paths, [body for target in targets for body in bodies[target]()])
    lap("emit")
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


def _spelled(value) -> str:
    """A ``RunConfig`` default as a flag spells it: tuples as comma lists."""
    if isinstance(value, tuple):
        return ",".join(getattr(v, "label", v) for v in value)
    return str(value)


def _add_common(p: argparse.ArgumentParser, unread: tuple[str, ...] = ()) -> None:
    """A flag per ``_CONFIG_KEYS`` help, None unless given, and ``--config``;
    none for the ``unread`` fields, which the subcommand ignores."""
    for f in fields(RunConfig):
        flag = dict(_CONFIG_KEYS[f.name], default=None)
        if "help" in flag and f.name not in unread:
            if f.default is not MISSING:
                flag["help"] += f" (default {_spelled(f.default)})"
            p.add_argument("--" + f.name.replace("_", "-"), **flag)
    p.add_argument("--config", default=None, help="flat key=value config file")


def _collect(args: argparse.Namespace) -> RunConfig:
    """The run's config from the subcommand's flags and its config file."""
    cli_values = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    file_values = load_config_file(args.config) if args.config else {}
    return merge_config(cli_values, file_values)


def _cmd_narrate(args) -> int:
    report = run(_collect(args), args.config)
    print(report.text.full_text)
    for line in report.lines():
        print(line)
    return 0


def _cmd_fit(args) -> int:
    cfg = _collect(args)
    paths = _artifacts(cfg, _EMIT_FILES["pool"], args.config)
    series = _read_series(cfg, paths)
    pool = build_pool(series, cfg.kinds)
    (out,) = _emit_outputs(paths, [pool])
    print(
        f"pool: {len(pool)} descriptors ({pool.n_infeasible} infeasible), "
        f"wrote {out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _collect(args)
    paths = _artifacts(cfg, ["sweep.json"] if "json" in cfg.emit else [], args.config)
    _refuse(paths, "input", cfg.input)  # each level reads the input on its own
    rows = sweep(cfg, _parse_levels_list(args.levels_list))
    print(_format_sweep(rows))
    if paths:
        saved = [{k: v for k, v in row.items() if k != "wall_s"} for row in rows]
        (out,) = _emit_outputs(paths, [_json(saved)])
        print(f"wrote: {out}")
    return 0


def _read_artifact(path: Path, parse):
    """``parse(path)``, reporting an unreadable or damaged file, json
    nested past the recursion limit included, as an output error."""
    try:
        return parse(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise OutputError(f"cannot load {path}: {exc}") from None


def _cmd_render(args) -> int:
    cfg = _collect(args)
    paths = _artifacts(cfg, _EMIT_FILES["svg"] + _EMIT_FILES["heatmap"], args.config)
    pool_path = _artifact(cfg, "pool.jsonl")
    sel_path = _artifact(cfg, "selection.json")
    if not pool_path.exists() or not sel_path.exists():
        raise OutputError(
            f"render needs {pool_path.name} and {sel_path.name} in {cfg.out_dir}; "
            f"run narrate with --emit json,pool first"
        )
    series = _read_series(cfg, paths)
    n_zones = _read_artifact(pool_path, pool_zones)
    if n_zones != series.n_zones:
        raise OutputError(
            f"{pool_path.name} has {n_zones} zones but --levels {cfg.levels} "
            f"gives {series.n_zones}; render with the --levels narrate used"
        )
    pool = _read_artifact(pool_path, load_pool)
    selection = _read_artifact(
        sel_path, lambda p: SelectionResult.from_dict(json.loads(p.read_text()))
    )
    if not np.isfinite(pool.errs).all():
        raise OutputError(f"{pool_path.name} holds non-finite zone errors")
    unknown = {i for i in selection.selected_ids if not 0 <= i < len(pool)}
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
    chosen = next(lv.chosen for lv in levels if lv.v == selection.s)
    if tuple(selection.summary) != chosen:
        raise OutputError(f"{sel_path.name} summary ids {list(selection.summary)} are not "
                          f"the level {selection.s} tiling {list(chosen)} of {pool_path.name}")
    charts = _charts(series, pool, levels, selection, cfg.max_thr)
    wrote = _emit_outputs(paths, [*charts, _heatmap(pool, levels, selection)])
    print("wrote: " + ", ".join(wrote))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; built once per process."""
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
    _add_common(p, unread=("emit", "verbosity", "max_thr", "min_thr"))
    p.set_defaults(func=_cmd_fit)

    # No abbreviations, or --levels would be read as --levels-list.
    p = sub.add_parser("sweep", help="compare several zone level counts", allow_abbrev=False)
    _add_common(p, unread=("levels",))
    p.add_argument("--levels-list", default="3,4,5", dest="levels_list",
                   help="comma list of level counts (default %(default)s)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="re-render charts from saved artifacts")
    # The kinds come from the saved pool's header.
    _add_common(p, unread=("emit", "kinds", "min_thr"))
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # Inside the try: a flag's converter (--kinds) may raise IngestError.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SerinarrError as exc:
        label, code = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
