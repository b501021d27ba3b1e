"""Template realization of narration units into English sentences.

The units arrive complete and in order from ``build_narration``, so
realization is one pass over them that builds the full text.  The
summary opens "In general, the series presents ...".  Details form a
second sentence opened by "In detail, ..." whose clauses are joined by
position: the second clause by "; followed by", the third by
"; then by", the last by "; and finally by", and anything between by a
bare "; ".  A point-like first detail reads "... occurs at {x}".

All numerals are printed with at most two decimals; a trailing zero in
the second decimal place is dropped ("1.0", "0.1", but "0.42").
"""

from __future__ import annotations

from dataclasses import dataclass

from .narration import NarrationUnit


@dataclass(frozen=True)
class NarrationText:
    full_text: str


def fmt_number(v: float) -> str:
    """Two-decimal format with a single trailing zero stripped."""
    s = f"{v:.2f}"
    if s.endswith("0"):
        s = s[:-1]
    return s


def _strength_words(token: str) -> str:
    return token.replace("_", " ")


def realize_unit(unit: NarrationUnit, lead: bool = False) -> str:
    """One noun phrase for a unit.

    ``lead`` marks the first detail clause, where a point-like shape is
    phrased "reaching a value of {y} occurs at {x}".
    """
    shape = unit.shape
    strength = _strength_words(shape.strength)
    a = shape.anchors

    if shape.extent == "point":
        value = fmt_number(a["value"])
        x = fmt_number(a["x"])
        joiner = "occurs at" if lead else "at"
        return f"a {strength} {shape.surface} reaching a value of {value} {joiner} {x}"

    if shape.category == "oscillation":
        return (
            f"a {strength} oscillation of {a['cycles']} cycles reaching an "
            f"amplitude of {fmt_number(a['amp'])} between "
            f"{fmt_number(a['x1'])} and {fmt_number(a['x2'])}"
        )

    if a.get("whole_span"):
        scope = "among the whole dataset"
    else:
        scope = f"between {fmt_number(a['e1'])} and {fmt_number(a['e2'])}"
    return (
        f"a {strength} {shape.surface} reaching an average of "
        f"{fmt_number(a['avg'])} between {fmt_number(a['x1'])} and "
        f"{fmt_number(a['x2'])} out of a general average of "
        f"{fmt_number(a['gavg'])} {scope}"
    )


def _connective(idx: int, last: int) -> str:
    if idx == 0:
        return "In detail, "
    if idx == last:
        return "; and finally by "
    if idx == 1:
        return "; followed by "
    if idx == 2:
        return "; then by "
    return "; "


def realize(units: list[NarrationUnit], threshold_met: bool = True) -> NarrationText:
    """Full narration text from the units of ``build_narration``."""
    summary_units = [u for u in units if u.role == "summary"]
    detail_units = [u for u in units if u.role == "detail"]
    if not summary_units:
        raise ValueError("narration needs at least one summary unit")

    phrases = [realize_unit(u) for u in summary_units]
    if not threshold_met:
        phrases[0] = "approximately " + phrases[0]
    text = "In general, the series presents " + "; then ".join(phrases) + "."

    if detail_units:
        last = len(detail_units) - 1
        text += " " + "".join(
            _connective(idx, last) + realize_unit(u, lead=(idx == 0))
            for idx, u in enumerate(detail_units)
        ) + "."
    return NarrationText(text)
