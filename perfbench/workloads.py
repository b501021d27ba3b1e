"""Benchmark workloads: inputs generated from a seed, and the CLI calls run on them.

An *op* is one ``serinarr narrate`` or ``serinarr render`` call.  A plan
holds one round-robin pass of ops over the workload's inputs; the
harness repeats whole passes so that every input weighs equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "concert_weekly.csv"

WORKLOADS = ("fixture-narrate", "dense-walk", "deep-details", "rerender")
ALL_KINDS = ("line", "bilinear", "tooth", "sinusoid")
DEFAULT_KINDS = ("line", "bilinear", "tooth")
# The suffixes whose digests are recorded in goldens.json.
GOLDEN_SUFFIXES = ("txt", "selection.json", "narration.json")

FIXTURE_LEVELS = (3, 4, 5)
WALK_POINTS = 2048
WALKS_PER_PASS = 2
WAVE_POINTS = 256
WAVE_NOISE = 1e-4
# Two-sine shapes (low cycles, high cycles, high phase) whose summary
# lands at verbosity 3, so the level 5 / verbosity 8 detail search has
# many candidates and outweighs fitting.  Only the noise depends on the
# seed.  The search cost is chaotic in the noise: at 1e-3 and above one
# shape's cost swings several-fold between seeds, which a run holding
# 16 ops cannot average out.  Even at 1e-4 a series' cost moves by up to
# a quarter between seeds, so a pass holds WAVE_DRAWS noise draws of each
# shape, and the median op of a run is taken over 12 series, not 4.
WAVE_SHAPES = ((1.1, 6.1, 4.0), (1.3, 5.3, 0.4), (2.3, 6.1, 4.0), (2.3, 7.1, 2.0))
WAVE_DRAWS = 3

_NARRATE_SPANS = (
    "ingest.load",
    "ingest.normalize",
    "fitting.build_pool",
    "cover.solve_cover",
    "details.pick_summary",
    "details.solve_details",
    "narration.build_narration",
    "textgen.realize",
    "cli.emit",
    "cli.write_atomic",
)


@dataclass(frozen=True)
class Op:
    """One CLI call and the files it leaves in ``out_dir``."""

    input: str  # key of the input in goldens.json
    argv: tuple[str, ...]
    out_dir: Path
    stem: str
    writes: tuple[str, ...]  # suffixes the call writes; removed before it runs
    checks: tuple[str, ...]  # suffixes checked after it ran (writes and set-up artifacts)
    path: Path  # input series
    format: str
    levels: int

    def file(self, suffix: str) -> Path:
        return self.out_dir / f"{self.stem}.{suffix}"


@dataclass(frozen=True)
class Plan:
    seed: int
    seeded: bool  # whether the inputs depend on the seed
    ops: tuple[Op, ...]  # one pass, rotated by the seed
    files: tuple[tuple[Path, str], ...]  # generated inputs and their text
    setup: tuple[tuple[str, ...], ...]  # untimed CLI calls made before measuring
    spans: tuple[str, ...]  # spans each traced run must record
    kinds: tuple[str, ...]  # curve kinds the ops fit

    @property
    def golden_key(self) -> str:
        return str(self.seed) if self.seeded else "*"


def _csv(values: np.ndarray) -> str:
    return "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(values))


def random_walk(rng: np.random.Generator, n: int = WALK_POINTS) -> np.ndarray:
    return np.cumsum(rng.standard_normal(n))


def two_sine(rng: np.random.Generator, shape: tuple[float, float, float],
             n: int = WAVE_POINTS) -> np.ndarray:
    lo, hi, phase = shape
    x = np.arange(n) / (n - 1)
    y = 0.5 + 0.33 * np.sin(2 * np.pi * lo * x)
    y += 0.12 * np.sin(2 * np.pi * hi * x + phase)
    return y + WAVE_NOISE * rng.standard_normal(n)


def narrate_op(name, path, fmt, levels, out_dir, emit, extra=()) -> Op:
    """A ``narrate`` call whose outputs are exactly what ``emit`` asks for."""
    writes = {
        "text": ("txt",),
        "json": ("selection.json", "narration.json"),
        "pool": ("pool.jsonl",),
        "svg": ("summary.svg", "details.svg"),
        "heatmap": ("heatmap.svg",),
    }
    suffixes = tuple(s for e in emit.split(",") for s in writes[e])
    argv = ("narrate", "--input", str(path), "--format", fmt, "--levels", str(levels),
            "--emit", emit, "--out-dir", str(out_dir)) + tuple(extra)
    return Op(name, argv, out_dir, path.stem, suffixes, suffixes, path, fmt, levels)


def _rotate(ops: list[Op], seed: int) -> tuple[Op, ...]:
    k = seed % len(ops)
    return tuple(ops[k:] + ops[:k])


def plan(workload: str, seed: int, work: Path) -> Plan:
    """The inputs and one pass of ops for ``workload`` under ``seed``.

    ``work`` is the directory that receives generated inputs and outputs.
    """
    work = Path(work)
    if workload == "fixture-narrate":
        ops = [
            narrate_op(f"L{lv}", FIXTURE, "trends_csv", lv, work / f"L{lv}",
                       "text,json,svg,heatmap,pool")
            for lv in FIXTURE_LEVELS
        ]
        spans = _NARRATE_SPANS + (
            "fitting.dump_pool", "render.render_enriched", "render.render_heatmap")
        return Plan(seed, False, _rotate(ops, seed), (), (), spans,
                    DEFAULT_KINDS)

    if workload == "rerender":
        ops, setup = [], []
        for lv in FIXTURE_LEVELS:
            prep = narrate_op(f"L{lv}", FIXTURE, "trends_csv", lv, work / f"L{lv}",
                              "json,pool")
            setup.append(prep.argv)
            svgs = ("summary.svg", "details.svg", "heatmap.svg")
            argv = ("render", "--input", str(FIXTURE), "--format", "trends_csv",
                    "--levels", str(lv), "--out-dir", str(prep.out_dir))
            ops.append(Op(prep.input, argv, prep.out_dir, prep.stem, svgs,
                          prep.writes + svgs, FIXTURE, "trends_csv", lv))
        spans = ("ingest.load", "ingest.normalize", "fitting.load_pool",
                 "cover.solve_cover", "render.render_enriched",
                 "render.render_heatmap", "cli.write_atomic")
        return Plan(seed, False, _rotate(ops, seed), (), tuple(setup),
                    spans, DEFAULT_KINDS)

    rng = np.random.default_rng(seed)
    if workload == "dense-walk":
        files, ops = [], []
        for k in range(WALKS_PER_PASS):
            path = work / "inputs" / f"walk-{k}.csv"
            files.append((path, _csv(random_walk(rng))))
            ops.append(narrate_op(f"walk-{k}", path, "csv", 4, work / "out",
                                  "text,json", ("--kinds", ",".join(ALL_KINDS))))
        return Plan(seed, True, _rotate(ops, seed), tuple(files), (),
                    _NARRATE_SPANS, ALL_KINDS)

    if workload == "deep-details":
        conf = work / "inputs" / "deep.conf"
        files, ops = [(conf, "penalty_eps = 1e-5\n")], []
        for k in range(WAVE_DRAWS * len(WAVE_SHAPES)):
            path = work / "inputs" / f"wave-{k}.csv"
            files.append((path, _csv(two_sine(rng, WAVE_SHAPES[k % len(WAVE_SHAPES)]))))
            ops.append(narrate_op(f"wave-{k}", path, "csv", 5, work / "out", "text,json",
                                  ("--verbosity", "8", "--config", str(conf))))
        return Plan(seed, True, _rotate(ops, seed), tuple(files), (),
                    _NARRATE_SPANS, DEFAULT_KINDS)

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_inputs(p: Plan) -> None:
    for path, text in p.files:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
