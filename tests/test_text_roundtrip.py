"""Read the narration text back and check it against its units.

A regex parser, written from the text's grammar and not from the
realizer, splits ``full_text`` into clauses: the summary sentence on
"; then ", its first clause perhaps opened by "approximately ", and the
detail sentence, opened by "In detail, ", on its positional connectives.
Each clause gives its strength words, its surface noun and its printed
numbers, which must match the units of ``build_narration`` as
``narration_structure`` shows them: one clause per unit, in order, each
number ``fmt_number`` of its anchor.  The check runs over random series
through ``run`` and over the three fixture goldens.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serinarr.cli import RunConfig, run
from serinarr.ingest import load_series
from serinarr.narration import build_narration, narration_structure
from serinarr.prototypes import CurveKind
from serinarr.textgen import fmt_number

GOLDEN = Path(__file__).parent / "data" / "golden"

# The surface nouns that may name each category.
NOUNS = {
    "constant": {"trend"},
    "rise": {"increase", "rise"},
    "drop": {"decrease", "drop"},
    "valley": {"valley"},
    "peak": {"peak"},
    "plateau_low": {"lower peak plateau"},
    "plateau_high": {"upper peak plateau"},
    "oscillation": {"oscillation"},
}
_NOUN = "|".join(sorted(set().union(*NOUNS.values()), key=len, reverse=True))
_N = r"\d+(?:\.\d+)?"
# Each clause form: point, oscillation, ranged.
_FORMS = {
    "point": re.compile(rf"a (?P<strength>.+?) (?P<noun>{_NOUN}) reaching a value of {_N} "
                        rf"(?P<at>occurs at|at) {_N}"),
    "oscillation": re.compile(rf"a (?P<strength>.+?) (?P<noun>oscillation) of {_N} cycles "
                              rf"reaching an amplitude of {_N} between {_N} and {_N}"),
    "ranged": re.compile(rf"a (?P<strength>.+?) (?P<noun>{_NOUN}) reaching an average of {_N} "
                         rf"between {_N} and {_N} out of a general average of {_N} "
                         rf"(?:(?P<whole>among the whole dataset)|between {_N} and {_N})"),
}
# The connective before detail clause k of n, k >= 1.
_DETAIL_JOINS = {1: "followed by ", 2: "then by "}


def parse_clause(role, phrase):
    """One clause's form, strength, noun, numbers and scope."""
    for form, pattern in _FORMS.items():
        m = pattern.fullmatch(phrase)
        if m:
            return {"role": role, "form": form, "strength": m["strength"], "noun": m["noun"],
                    "numbers": re.findall(_N, phrase), "at": m.groupdict().get("at"),
                    "whole": bool(m.groupdict().get("whole"))}
    raise AssertionError(f"unparsed clause {phrase!r}")


def parse_text(text):
    """The clauses of a narration, summary first, and whether the summary
    is marked approximate."""
    summary, _, detail = text.partition(" In detail, ")
    assert summary.startswith("In general, the series presents ") and summary.endswith(".")
    phrases = summary[len("In general, the series presents "):-1].split("; then ")
    approximate = phrases[0].startswith("approximately ")
    phrases[0] = phrases[0].removeprefix("approximately ")
    clauses = [parse_clause("summary", p) for p in phrases]
    if detail:
        assert detail.endswith(".")
        first, *rest = re.split(r"; (followed by |then by |and finally by |)", detail[:-1])
        joins, phrases = rest[0::2], [first, *rest[1::2]]
        for k, join in enumerate(joins, start=1):
            assert join == ("and finally by " if k == len(joins) else _DETAIL_JOINS.get(k, ""))
        clauses += [parse_clause("detail", p) for p in phrases]
    return clauses, approximate


def check_text(text, doc, threshold_met):
    """``text`` says what the units of ``doc`` (``narration_structure``) hold."""
    clauses, approximate = parse_text(text)
    assert approximate == (not threshold_met)
    assert len(clauses) == len(doc)
    first_detail = next((u["position"] for u in doc if u["role"] == "detail"), None)
    for clause, unit in zip(clauses, doc):
        a = unit["anchors"]
        assert clause["role"] == unit["role"], (clause, unit)
        assert clause["strength"] == unit["strength"].replace("_", " "), (clause, unit)
        assert clause["noun"] in NOUNS[unit["category"]], (clause, unit)
        if unit["extent"] == "point":
            assert clause["form"] == "point"
            assert clause["at"] == ("occurs at" if unit["position"] == first_detail else "at")
            want = [fmt_number(a["value"]), fmt_number(a["x"])]
        elif unit["category"] == "oscillation":
            assert clause["form"] == "oscillation"
            want = [str(a["cycles"])] + [fmt_number(a[k]) for k in ("amp", "x1", "x2")]
        else:
            assert clause["form"] == "ranged"
            assert clause["whole"] == a["whole_span"], (clause, unit)
            keys = ("avg", "x1", "x2", "gavg") + (() if a["whole_span"] else ("e1", "e2"))
            want = [fmt_number(a[k]) for k in keys]
        assert clause["numbers"] == want, (clause, unit)


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_golden_text_says_what_its_units_hold(levels):
    stem = GOLDEN / f"L{levels}" / "concert_weekly"
    text = Path(f"{stem}.txt").read_text().rstrip("\n")
    doc = json.loads(Path(f"{stem}.narration.json").read_text())
    selection = json.loads(Path(f"{stem}.selection.json").read_text())
    check_text(text, doc, selection["threshold_met"])


def _values(shape, rng, n):
    x = np.arange(n) / (n - 1)
    if shape == "walk":
        return np.cumsum(rng.standard_normal(n))
    if shape == "sine":
        cycles = rng.uniform(0.5, 6.0, size=2)
        return (np.sin(2 * np.pi * cycles[0] * x) + rng.uniform(0, 1) * np.sin(
            2 * np.pi * cycles[1] * x + rng.uniform(0, 6)) + 0.05 * rng.standard_normal(n))
    if shape == "spikes":
        ys = 0.05 * rng.standard_normal(n)
        at = rng.integers(0, n, size=rng.integers(1, 4))
        ys[at] += rng.choice([-1.0, 1.0], size=len(at)) * rng.uniform(1, 5, size=len(at))
        return ys
    return np.round(rng.normal(0.0, 2.0, n))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(["walk", "sine", "spikes", "noise"]), levels=st.integers(2, 5),
       verbosity=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_text_says_what_its_units_hold(shape, levels, verbosity, seed, data):
    """Walks, sines, spikes and rounded noise, narrated with all four
    curve kinds: the text read back matches its units."""
    n = data.draw(st.integers(2 ** levels + 1, 4 * 2 ** levels + 8), label="points")
    ys = _values(shape, np.random.default_rng(seed), n)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "series.csv"
        src.write_text("".join(f"{t},{v!r}\n" for t, v in enumerate(ys.tolist())))
        report = run(RunConfig(input=str(src), levels=levels, verbosity=verbosity,
                               kinds=tuple(CurveKind), emit=()))
        series = load_series(src, "csv", levels)
    doc = narration_structure(build_narration(report.selection, report.pool, series))
    check_text(report.text.full_text, doc, report.selection.threshold_met)
