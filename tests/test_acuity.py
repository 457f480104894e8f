import dataclasses
import math

import pytest

from fovkit import (
    AcuityModel,
    SnellenFraction,
    SnellenParseError,
    cpd_to_dpi,
    inflate_for_foveation_error,
    make_adf,
    parse_snellen,
    snellen_to_cpd,
)

# Frozen from a 50-digit evaluation of 1/(D*tan((1/(2r)) degrees)).
DPI_ORACLE = {
    (30.0, 24.0): 143.23944474259177,
    (30.0, 12.0): 286.47888948518354,
    (15.0, 24.0): 71.6197163111247,
}


def test_parse_snellen_basic():
    assert parse_snellen("20/20") == SnellenFraction(20, 20)
    assert parse_snellen("20/40") == SnellenFraction(20, 40)
    assert parse_snellen("6/6") == SnellenFraction(6, 6)
    assert parse_snellen(" 12.5/25 ").value() == 0.5


@pytest.mark.parametrize("bad", ["", "20", "20/", "/20", "20/20/20", "a/b", "20/x"])
def test_parse_snellen_rejects_malformed(bad):
    with pytest.raises(SnellenParseError):
        parse_snellen(bad)


def test_parse_snellen_rejects_nonpositive():
    with pytest.raises(SnellenParseError, match="numerator"):
        parse_snellen("0/20")
    with pytest.raises(SnellenParseError, match="denominator"):
        parse_snellen("20/0")


@pytest.mark.parametrize("text", ["1e300/1e-300", "1e-300/1e300"])
def test_parse_snellen_rejects_a_ratio_that_is_not_positive_and_finite(text):
    # 1e300/1e-300 used to parse, and its inf cpd ended `convert` in a traceback.
    with pytest.raises(SnellenParseError, match="acuity ratio"):
        parse_snellen(text)


def test_snellen_to_cpd():
    assert snellen_to_cpd("20/20") == 30.0
    assert snellen_to_cpd("20/40") == 15.0
    assert snellen_to_cpd("20/10") == 60.0
    assert snellen_to_cpd("6/6") == 30.0


def test_snellen_str_round_trips():
    assert str(SnellenFraction(20, 40)) == "20/40"
    assert str(parse_snellen("6/6")) == "6/6"


@pytest.mark.parametrize(("cpd", "dist"), sorted(DPI_ORACLE))
def test_cpd_to_dpi_matches_high_precision_oracle(cpd, dist):
    assert cpd_to_dpi(cpd, dist) == pytest.approx(DPI_ORACLE[(cpd, dist)], rel=1e-12)


def test_cpd_to_dpi_rejects_nonpositive():
    with pytest.raises(ValueError):
        cpd_to_dpi(0.0, 24.0)
    with pytest.raises(ValueError):
        cpd_to_dpi(30.0, -1.0)


@pytest.mark.parametrize(
    "cpd, dist, match",
    [
        (30.0, math.inf, "distance"),  # used to give 0.0 dpi
        (30.0, math.nan, "distance"),
        (math.inf, 24.0, "cycles"),  # used to raise ZeroDivisionError
        (math.nan, 24.0, "cycles"),
        (1e300, 1e-300, "inf dpi"),  # the dot's size underflows to 0
        (0.006, 1e308, "0.0 dpi"),  # the dot's size overflows
        (0.002, 24.0, "90 deg"),  # a 250 deg dot used to give 0.015 dpi
    ],
)
def test_cpd_to_dpi_rejects_non_finite_inputs_and_results(cpd, dist, match):
    with pytest.raises(ValueError, match=match):
        cpd_to_dpi(cpd, dist)


def test_make_adf_defaults():
    m = make_adf("constant-fovea", "20/20")
    assert m.foveal_cpd == 30.0
    assert m.fovea_deg == 2.0
    assert m.rolloff_cpd_per_deg == 75.0
    s = make_adf("slope", "20/20")
    assert s.foveal_cpd == 30.0
    assert s.rolloff_per_deg == 0.55
    low = make_adf("constant-fovea", "20/40")
    assert low.foveal_cpd == 15.0


def test_make_adf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_adf("constant-fovea", "20/20", slope=-1.0)
    with pytest.raises(ValueError):
        make_adf("slope", "20/20", slope=0.0)
    with pytest.raises(ValueError):
        make_adf("nope", "20/20")
    with pytest.raises(ValueError):
        AcuityModel(kind="constant-fovea", foveal_cpd=30.0, rolloff_per_deg=0.55)
    with pytest.raises(ValueError):
        AcuityModel(kind="slope", foveal_cpd=30.0, rolloff_cpd_per_deg=75.0)


def test_eval_constant_fovea():
    m = make_adf("constant-fovea", "20/20")
    assert m.eval(0.0) == 30.0
    assert m.eval(2.0) == 30.0  # plateau boundary
    assert m.eval(4.5) == pytest.approx(15.0)  # 75 / (2.5 + 2.5)


def test_eval_slope_model():
    m = make_adf("slope", "20/20")
    assert m.eval(2.0) == 30.0
    assert m.eval(12.0) == pytest.approx(30.0 / 6.5)  # 30 / (0.55 * 10 + 1)


def test_eval_rejects_negative_eccentricity():
    m = make_adf("constant-fovea", "20/20")
    with pytest.raises(ValueError):
        m.eval(-0.1)
    with pytest.raises(ValueError):
        m.eval_many([-1.0, 2.0])


def test_continuity_at_plateau_edge():
    for kind in ("constant-fovea", "slope"):
        m = make_adf(kind, "20/20")
        delta = 1e-6
        lo, hi = m.eval(m.fovea_deg - delta), m.eval(m.fovea_deg + delta)
        assert abs(lo - hi) <= 1e-6 * max(abs(lo), abs(hi))


def test_foveation_error_shifts_plateau():
    m = make_adf("constant-fovea", "20/20")
    assert inflate_for_foveation_error(m, 0.0) == m
    shifted = inflate_for_foveation_error(m, 5.0)
    assert shifted.eval(5.0) == 30.0  # 5 - 5 = 0 is inside the plateau
    one = inflate_for_foveation_error(m, 1.0)
    assert one.eval(3.0) == 30.0  # 3 - 1 = 2 is the plateau edge
    ten = inflate_for_foveation_error(m, 10.0)
    assert ten.plateau_end_deg == 12.0
    assert ten.eval(12.0) == 30.0
    assert ten.eval(12.5) < 30.0


def test_foveation_error_rejects_negative():
    m = make_adf("constant-fovea", "20/20")
    with pytest.raises(ValueError):
        inflate_for_foveation_error(m, -1.0)


@pytest.mark.parametrize(
    "kind, name",
    [
        ("constant-fovea", "foveal_cpd"),
        ("constant-fovea", "fovea_deg"),
        ("constant-fovea", "foveation_error_deg"),
        ("constant-fovea", "rolloff_cpd_per_deg"),
        ("slope", "rolloff_per_deg"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_numbers(kind, name, value):
    # A NaN plateau width compares false everywhere and used to grade kim D1.
    base = make_adf(kind, "20/20")
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(base, **{name: value})


def test_breakpoints_track_the_plateau():
    m = make_adf("constant-fovea", "20/20", foveation_error_deg=3.0)
    assert m.breakpoints() == (5.0,)


def test_crossings_are_the_roots_on_each_piece():
    adf = make_adf("constant-fovea", "20/20")  # 30 cpd to 2 deg, then 75 / (e + 0.5)
    # Falling line 40 - 2e: above the plateau, then (40 - 2e)(e + 0.5) = 75.
    assert adf.crossings(0.0, 20.0, 40.0, 0.0) == pytest.approx([(39 + math.sqrt(1081)) / 4])
    # A flat line meets the tail where 75 / (e + 0.5) = 10; a zero-length
    # line has no crossing.
    assert adf.crossings([0.0, 5.0], [50.0, 5.0], [10.0, 3.0], [10.0, 1.0]) == pytest.approx([7.0])
    # Along the plateau a flat line has no isolated crossing; it leaves the
    # model where the tail starts.
    assert adf.crossings(0.0, 50.0, 30.0, 30.0) == pytest.approx([2.0])
    # Slope model with the plateau widened to 3.5 deg: 24 + 2e = 30 at 3.
    slope = make_adf("slope", "20/20", foveation_error_deg=1.5)
    assert slope.crossings(0.0, 10.0, 24.0, 44.0) == pytest.approx([3.0])
    assert len(adf.crossings(0.0, 1.0, [1.0, 2.0], 5.0)) == 0
    assert len(adf.crossings([], [], [], [])) == 0


def test_eval_many_matches_scalar_eval():
    m = make_adf("slope", "20/30", foveation_error_deg=1.5)
    es = [0.0, 0.7, 1.5, 3.49, 3.5, 8.0, 40.0]
    many = m.eval_many(es)
    for e, v in zip(es, many):
        assert v == pytest.approx(m.eval(e), rel=1e-12)


def test_dpi_scales_with_first_order_distance():
    # halving the distance doubles the required density, to first order
    near = cpd_to_dpi(30.0, 12.0)
    far = cpd_to_dpi(30.0, 24.0)
    assert near == pytest.approx(2.0 * far, rel=1e-6)
    assert math.isfinite(near)
