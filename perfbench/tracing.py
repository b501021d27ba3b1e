"""Spans around serinarr's layer functions, recorded from outside the program.

``Tracer.installed()`` replaces each layer function listed in ``LAYERS``
by a wrapper wherever a ``serinarr`` module refers to it, which covers
the names the CLI orchestrator imported.  A wrapper records a span
(name, parent span, op, start, end).  Its counters are evaluated after
the op ends, so their cost lands in no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


class MissingSpanError(RuntimeError):
    """A span the workload must record never fired."""


def _build_pool_counts(args, kwargs, pool):
    return {"fitting.pool_size": len(pool),
            "fitting.feasible_ratio": len(pool) / pool.expected_size}


def _candidate_counts(args, kwargs, selection):
    """Tiling members up to the verbosity bound, minus the summary."""
    _, levels, s, cfg = args[:4]
    by_v = {lv.v: lv for lv in levels if lv.feasible}
    ids = {i for v, lv in by_v.items() if v <= cfg.v for i in lv.chosen}
    return {"details.candidates": len(ids - set(by_v[s].chosen)),
            "details.selected": len(selection.details)}


def _svg_bytes(args, kwargs, svg):
    return {"render.svg_bytes": len(svg.encode())}


def _text_bytes(args, kwargs, result):
    return {"cli.bytes_written": len(args[1].encode())}


def _pool_file_bytes(args, kwargs, result):
    return {"cli.bytes_written": Path(args[1]).stat().st_size}


# (module, function, span name, counter)
LAYERS = (
    ("ingest", "load", "ingest.load", None),
    ("ingest", "normalize", "ingest.normalize", None),
    ("fitting", "build_pool", "fitting.build_pool", _build_pool_counts),
    ("fitting", "dump_pool", "fitting.dump_pool", _pool_file_bytes),
    ("fitting", "load_pool", "fitting.load_pool", None),
    ("cover", "solve_cover", "cover.solve_cover",
     lambda a, k, levels: {"cover.feasible_levels": sum(lv.feasible for lv in levels)}),
    ("details", "pick_summary", "details.pick_summary", None),
    ("details", "solve_details", "details.solve_details", _candidate_counts),
    ("narration", "build_narration", "narration.build_narration",
     lambda a, k, units: {"narration.units": len(units)}),
    ("textgen", "realize", "textgen.realize",
     lambda a, k, text: {"textgen.chars": len(text.full_text)}),
    ("render", "render_enriched", "render.render_enriched", _svg_bytes),
    ("render", "render_heatmap", "render.render_heatmap", _svg_bytes),
    ("cli", "write_atomic", "cli.write_atomic", _text_bytes),
    ("cli", "_emit_outputs", "cli.emit", None),
)
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(name for _, _, name, _ in LAYERS)
# Every counter a wrapper can add; one that never fires reads 0 per op.
COUNTERS = ("fitting.pool_size", "fitting.feasible_ratio", "cover.feasible_levels",
            "details.candidates", "details.selected", "narration.units",
            "textgen.chars", "render.svg_bytes", "cli.bytes_written")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._pending: list = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, self.ops, name, start, end))

    def op(self, call):
        """Run ``call()`` as one op under the root span; returns its result."""
        try:
            with self.span(ROOT_SPAN):
                return call()
        finally:
            for count, args, kwargs, result in self._pending:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            self._pending.clear()
            self.ops += 1

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self._pending.append((count, args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every ``LAYERS`` function in all loaded serinarr modules."""
        patched = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "serinarr" or name.startswith("serinarr.")]
        try:
            for mod, fn, name, count in LAYERS:
                orig = getattr(importlib.import_module(f"serinarr.{mod}"), fn)
                wrapper = self._wrap(name, orig, count)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(patched):
                setattr(m, attr, orig)

    def require(self, expected) -> None:
        fired = {s.name for s in self.spans}
        missing = sorted(set(expected) - fired)
        if missing:
            raise MissingSpanError(
                "expected span(s) never fired: " + ", ".join(missing))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child[s.id]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-op self time (ms) for every span, plus per-op counters."""
        if not self.ops:
            raise MissingSpanError("no traced op ran")
        st = self.self_times()
        out = {f"{name}_ms": st[name] * 1e3 / self.ops for name in SPAN_NAMES
               if name not in (ROOT_SPAN, "cli.emit", "cli.write_atomic")}
        out["cli.self_ms"] = st[ROOT_SPAN] * 1e3 / self.ops
        out["cli.emit_self_ms"] = (st["cli.emit"] + st["cli.write_atomic"]) * 1e3 / self.ops
        for key in COUNTERS:
            out[key] = self.counts[key] / self.ops
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
