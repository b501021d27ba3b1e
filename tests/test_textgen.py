import re

import pytest

from serinarr.narration import NarrationUnit, ShapeClass
from serinarr.textgen import NarrationText, fmt_number, realize, realize_unit


def unit(role, position, shape, zone_start=0, zone_end=3, level=1):
    return NarrationUnit(
        position=position, role=role, descriptor_id=position,
        zone_start=zone_start, zone_end=zone_end, level=level,
        connective="separated", included_in=None, shape=shape,
    )


def ranged(category, strength, avg, x1, x2, gavg, whole, surface=None,
           e1=0.0, e2=1.0):
    return ShapeClass(
        category=category, strength=strength, extent="ranged",
        anchors={"avg": avg, "x1": x1, "x2": x2, "gavg": gavg,
                 "whole_span": whole, "e1": e1, "e2": e2},
        surface=surface or category,
    )


def point(category, strength, value, x, surface=None):
    return ShapeClass(
        category=category, strength=strength, extent="point",
        anchors={"value": value, "x": x}, surface=surface or category,
    )


# --------------------------------------------------------------- numbers


def test_fmt_number_strips_one_trailing_zero():
    assert fmt_number(1.0) == "1.0"
    assert fmt_number(0.1) == "0.1"
    assert fmt_number(0.42) == "0.42"
    assert fmt_number(0.0) == "0.0"
    assert fmt_number(0.35) == "0.35"
    assert fmt_number(0.999) == "1.0"
    assert fmt_number(0.249) == "0.25"


# ------------------------------------------------------------ unit phrases


def test_ranged_phrase_whole_dataset():
    shape = ranged("valley", "very_deep", 0.09, 0.42, 0.69, 0.42, True)
    assert realize_unit(unit("summary", 1, shape)) == (
        "a very deep valley reaching an average of 0.09 between 0.42 and "
        "0.69 out of a general average of 0.42 among the whole dataset"
    )


def test_ranged_phrase_scoped_to_own_span():
    shape = ranged("peak", "very_high", 0.59, 0.58, 0.66, 0.17, False,
                   e1=0.44, e2=0.69)
    assert realize_unit(unit("detail", 2, shape)) == (
        "a very high peak reaching an average of 0.59 between 0.58 and "
        "0.66 out of a general average of 0.17 between 0.44 and 0.69"
    )


def test_point_phrase():
    shape = point("rise", "very_steep", 0.99, 0.75, surface="increase")
    assert realize_unit(unit("detail", 2, shape)) == (
        "a very steep increase reaching a value of 0.99 at 0.75"
    )


def test_point_phrase_leading_detail_uses_occurs():
    shape = point("valley", "rather_sharp", 0.21, 0.33)
    assert realize_unit(unit("detail", 2, shape), lead=True) == (
        "a rather sharp valley reaching a value of 0.21 occurs at 0.33"
    )


def test_plateau_surface_words():
    shape = ranged("plateau_low", "very_deep", 0.07, 0.2, 0.55, 0.4, True,
                   surface="lower peak plateau")
    text = realize_unit(unit("summary", 1, shape))
    assert text.startswith("a very deep lower peak plateau reaching")


def test_oscillation_phrase():
    shape = ShapeClass(
        category="oscillation", strength="moderate", extent="ranged",
        anchors={"avg": 0.5, "x1": 0.0, "x2": 1.0, "gavg": 0.5,
                 "whole_span": True, "e1": 0.0, "e2": 1.0,
                 "amp": 0.3, "cycles": 3},
        surface="oscillation",
    )
    assert realize_unit(unit("summary", 1, shape)) == (
        "a moderate oscillation of 3 cycles reaching an amplitude of 0.3 "
        "between 0.0 and 1.0"
    )


# ------------------------------------------------------------- assembly


def summary_unit(**kw):
    return unit("summary", 1,
                ranged("valley", "very_deep", 0.11, 0.38, 0.71, 0.44, True),
                **kw)


def detail_points(k):
    shapes = [
        point("valley", "rather_sharp", 0.21, 0.33),
        point("rise", "very_steep", 0.87, 0.52, surface="increase"),
        point("drop", "steep", 0.14, 0.61, surface="decrease"),
        point("peak", "very_sharp", 0.72, 0.8),
        point("peak", "smooth", 0.4, 1.0),
    ]
    return [unit("detail", 2 + i, s) for i, s in enumerate(shapes[:k])]


def test_summary_only():
    text = realize([summary_unit()])
    assert text.full_text == (
        "In general, the series presents a very deep valley reaching an "
        "average of 0.11 between 0.38 and 0.71 out of a general average of "
        "0.44 among the whole dataset."
    )


def test_single_detail():
    text = realize([summary_unit()] + detail_points(1))
    assert text.full_text.endswith(
        "In detail, a rather sharp valley reaching a value of 0.21 "
        "occurs at 0.33."
    )


def connective_sequence(full_text):
    seps = []
    if " occurs at " in full_text:
        seps.append("occurs at")
    for token in ("; followed by ", "; then by ", "; and finally by "):
        if token in full_text:
            seps.append(token.strip("; "))
    return seps


def test_four_details_connective_sequence():
    text = realize([summary_unit()] + detail_points(4))
    detail_part = text.full_text.split(" In detail, ")[1]
    assert re.search(r"occurs at .*; followed by .*; then by .*"
                     r"; and finally by ", detail_part, re.S)


def test_five_details_has_bare_semicolon_clause():
    text = realize([summary_unit()] + detail_points(5))
    detail_part = "In detail, " + text.full_text.split(" In detail, ")[1]
    expected = (
        "In detail, a rather sharp valley reaching a value of 0.21 occurs "
        "at 0.33; followed by a very steep increase reaching a value of "
        "0.87 at 0.52; then by a steep decrease reaching a value of "
        "0.14 at 0.61; a very sharp peak reaching a value of 0.72 at 0.8; "
        "and finally by a smooth peak reaching a value of 0.4 at 1.0."
    )
    assert detail_part == expected


def test_two_details_skip_straight_to_finally():
    text = realize([summary_unit()] + detail_points(2))
    assert "; and finally by " in text.full_text
    assert "; then by " not in text.full_text


def test_multi_unit_summary_joined_with_then():
    units = [
        unit("summary", 1, point("rise", "steep", 0.8, 0.5, surface="rise"),
             zone_start=0, zone_end=3),
        unit("summary", 2, point("drop", "mild", 0.2, 1.0, surface="drop"),
             zone_start=4, zone_end=7),
    ]
    text = realize(units)
    assert text.full_text == (
        "In general, the series presents a steep rise reaching a value of "
        "0.8 at 0.5; then a mild drop reaching a value of 0.2 at 1.0."
    )


def test_threshold_miss_hedges_first_phrase():
    text = realize([summary_unit()], threshold_met=False)
    assert text.full_text.startswith(
        "In general, the series presents approximately a very deep valley")


def test_realize_requires_summary():
    with pytest.raises(ValueError):
        realize(detail_points(2))


def test_grammar_shape_and_decimals():
    text = realize([summary_unit()] + detail_points(4))
    assert re.fullmatch(
        r"In general, the series presents .*\. In detail, .*\.",
        text.full_text, re.S,
    )
    for num in re.findall(r"\d+\.\d+", text.full_text):
        assert len(num.split(".")[1]) <= 2
