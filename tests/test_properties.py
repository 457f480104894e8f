"""Hypothesis checks of the module invariants that are not acceptance-pinned.

The six acceptance property suites (200 cases each) live in
test_acceptance.py; these are the remaining structural invariants.
"""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fovkit import display
from fovkit import (
    ADF_KINDS,
    GAZE_CLASSES,
    RESOLUTION_CLASSES,
    AcuityRangeWarning,
    ClassifierConfig,
    DisplaySpec,
    SnellenFraction,
    Tier,
    build_rdf,
    classify,
    cpd_to_dpi,
    gaze_invariance_range,
    make_adf,
    parse_combined_label,
    perceived_profile,
    pixel_deficit,
    pixel_waste,
)
from support import (
    ClampedMaxCurve,
    display_specs,
    finite,
    grid_invariance_range,
    linear_invariance_range,
    snellen_fractions,
)


@given(display_specs(), st.floats(0.0, 40.0, **finite))
@settings(max_examples=100, deadline=None)
def test_profiles_nonnegative_and_zero_outside_extent(spec, gaze):
    profile = perceived_profile(spec, gaze)
    es = np.linspace(0.0, spec.half_fov_deg + 20.0, 400)
    vals = profile.eval_many(es)
    assert np.all(vals >= 0.0)
    assert np.all(vals[es > profile.extent_deg + 1e-9] == 0.0)


@given(
    display_specs(blends=False, degraded=False),
    st.floats(0.0, 40.0, **finite),
    st.floats(0.0, 60.0, **finite),
)
@settings(max_examples=150, deadline=None)
def test_worst_case_direction_matches_a_brute_force_sampler(spec, gaze, e):
    """Re-derive the perceived value by checking tier membership per radial
    direction, independently of the profile composition code."""

    def tier_shape(tier, pos):
        return tier.resolution_cpd if pos <= tier.half_fov_deg else 0.0

    offsets = [
        max(0.0, gaze - t.steer_range_deg) if t.steerable else gaze for t in spec.tiers
    ]
    # Edge conventions (closed vs open tier boundaries) differ on a measure-
    # zero set; keep the probe off every boundary seen from either direction.
    critical = {0.0}
    for tier, offset in zip(spec.tiers, offsets):
        for c in (tier.half_fov_deg,):
            critical.update((c - offset, c + offset, offset - c))

    while any(abs(e - c) < 1e-6 for c in critical):
        e += 3e-6

    profile = perceived_profile(spec, gaze)
    expected = 0.0
    for tier, offset in zip(spec.tiers, offsets):
        both_directions = min(tier_shape(tier, offset + e), tier_shape(tier, abs(offset - e)))
        expected = max(expected, both_directions)
    assert profile.eval(max(e, 0.0)) == pytest.approx(expected, abs=1e-9)


@given(display_specs(blends=True, degraded=False))
@settings(max_examples=100, deadline=None)
def test_blend_ramps_meet_tier_resolutions_at_band_edges(spec):
    rdf = build_rdf(spec)
    for i, tier in enumerate(spec.tiers):
        if tier.blend_width_deg <= 1e-6:
            continue
        band_start = tier.half_fov_deg - tier.blend_width_deg
        floor = spec.tiers[i + 1].resolution_cpd if i + 1 < len(spec.tiers) else 0.0
        prev_edge = spec.tiers[i - 1].half_fov_deg if i else 0.0
        if band_start > prev_edge + 1e-6:
            # inside the band start the inner tier no longer covers, so the
            # composed value is exactly this tier's resolution
            assert rdf.eval(band_start) == pytest.approx(tier.resolution_cpd, rel=1e-9)
        assert rdf.eval(tier.half_fov_deg) == pytest.approx(floor, rel=1e-9, abs=1e-12)


@given(
    display_specs(max_tiers=2, blends=False, degraded=False, steering=False),
    st.floats(0.5, 10.0, **finite),
    st.floats(1.0, 10.0, **finite),
)
@settings(max_examples=30, deadline=None)
def test_more_steering_never_shrinks_the_invariance_range(spec, steer_a, extra):
    cfg = ClassifierConfig()
    adf = make_adf("constant-fovea", "20/20")

    def with_steer(srange):
        steered = dataclasses.replace(spec.tiers[0], steerable=True, steer_range_deg=srange)
        return DisplaySpec(
            name=spec.name, tiers=(steered,) + spec.tiers[1:], degradation=spec.degradation
        )

    small = gaze_invariance_range(with_steer(steer_a), adf, cfg)
    large = gaze_invariance_range(with_steer(steer_a + extra), adf, cfg)
    assert large >= small


@given(
    st.floats(1.0, 120.0, **finite),
    st.floats(1.0, 120.0, **finite),
    st.floats(6.0, 60.0, **finite),
    st.floats(0.5, 20.0, **finite),
)
@settings(max_examples=200)
def test_dpi_monotone_in_frequency_and_distance(r, r2, d, extra):
    lo_r, hi_r = sorted((r, r2))
    if hi_r > lo_r:
        assert cpd_to_dpi(hi_r, d) > cpd_to_dpi(lo_r, d)
    assert cpd_to_dpi(r, d + extra) < cpd_to_dpi(r, d)


@given(display_specs(), snellen_fractions())
@settings(max_examples=50, deadline=None)
def test_classify_is_total_on_random_specs(spec, fraction):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AcuityRangeWarning)
        result = classify(spec, fraction)
    assert result.resolution_class in RESOLUTION_CLASSES
    assert result.gaze_class in GAZE_CLASSES
    assert result.evidence.gaze_invariance_range >= 0.0
    parsed_fraction, letter, digit = parse_combined_label(result.combined)
    assert str(parsed_fraction) == result.acuity_label
    assert letter == result.resolution_class
    assert digit == result.gaze_class


@given(display_specs(), snellen_fractions())
# The raised ramp's kink lies between the last Gauss node of [0, 1] and the knot at 1.
@example(
    DisplaySpec("_", (Tier(12.0, 1.0, False, 0.0, 1.0), Tier(4.5, 2.0))),
    SnellenFraction(20.0, 132.0),
)
@settings(max_examples=100, deadline=None)
def test_raising_the_profile_to_the_target_splits_cleanly(spec, fraction):
    adf = make_adf("constant-fovea", fraction)
    rdf = build_rdf(spec)
    raised = ClampedMaxCurve(rdf, adf)
    edge = rdf.extent_deg
    assert pixel_deficit(raised, adf, 0.0, edge) == 0.0
    assert pixel_waste(raised, adf, 0.0, edge) == pytest.approx(
        pixel_waste(rdf, adf, 0.0, edge), rel=1e-9, abs=1e-12
    )


@given(
    st.sampled_from(ADF_KINDS),
    snellen_fractions(),
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 30.0, **finite),
    st.floats(0.01, 30.0, **finite),
    st.floats(0.0, 70.0, **finite),
    st.floats(0.0, 70.0, **finite),
)
@settings(max_examples=200, deadline=None)
def test_adf_crossings_are_roots_and_miss_no_sign_change(
    kind, fraction, error, start, length, v0, v1
):
    adf = make_adf(kind, fraction, foveation_error_deg=error)
    end = start + length

    def line(e):
        return v0 + (v1 - v0) * (e - start) / length

    found = adf.crossings(start, end, v0, v1)
    assert np.all((start <= found) & (found <= end))
    assert np.allclose(line(found), adf.eval_many(found), rtol=1e-9, atol=1e-9)
    xs = np.linspace(start, end, 2001)
    d = line(xs) - adf.eval_many(xs)
    for i in np.flatnonzero(d[:-1] * d[1:] < 0):
        assert np.any((xs[i] - 1e-9 <= found) & (found <= xs[i + 1] + 1e-9))


@given(display_specs(), st.sampled_from(ADF_KINDS), snellen_fractions())
@settings(max_examples=100, deadline=None)
def test_exact_scan_never_reaches_past_a_dense_grid(spec, kind, fraction):
    cfg = ClassifierConfig()
    adf = make_adf(kind, fraction)
    assert gaze_invariance_range(spec, adf, cfg) <= grid_invariance_range(spec, adf, cfg)


# 0.3 and 0.7 do not divide the default 25 deg range, so the last step is the range's end.
@given(
    display_specs(),
    st.sampled_from(ADF_KINDS),
    snellen_fractions(),
    st.sampled_from([0.1, 0.3, 0.7]),
)
@settings(max_examples=100, deadline=None)
def test_bisected_scan_equals_the_linear_scan(spec, kind, fraction, step):
    cfg = ClassifierConfig(gaze_scan_step=step)
    adf = make_adf(kind, fraction)
    assert gaze_invariance_range(spec, adf, cfg) == linear_invariance_range(spec, adf, cfg)


@given(display_specs())
@settings(max_examples=150, deadline=None)
def test_degraded_tier_pieces_equal_their_scalar_definition(spec):
    """Under a lens falloff, each piece's end values are the on-axis shape
    times the falloff, float for float, at the piece's own ends, and the
    pieces cut from one on-axis piece tile it exactly.  Without one, the
    pieces are the on-axis shape itself (a ramp ends at its stored value,
    which its interpolation may miss in the last bit)."""
    degradation = spec.degradation
    for i, tier in enumerate(spec.tiers):
        floor = spec.tiers[i + 1].resolution_cpd if i + 1 < len(spec.tiers) else 0.0
        sources = display._tier_segments(tier, floor)
        if degradation.kind == "none":
            assert display._apply_degradation(sources, degradation) == sources
            continue
        cut = [display._apply_degradation([src], degradation) for src in sources]
        assert display._apply_degradation(sources, degradation) == [p for ps in cut for p in ps]
        for src, pieces in zip(sources, cut):
            assert pieces[0].start == src.start and pieces[-1].end == src.end
            for prev, p in zip(pieces, pieces[1:]):
                assert p.start == prev.end
            for p in pieces:
                assert p.value_start == src.value_at(p.start) * degradation.at(p.start)
                assert p.value_end == src.value_at(p.end) * degradation.at(p.end)


def _degraded_pieces(spec):
    """Each tier's on-axis pieces, degraded, with the chords the model defines."""
    pieces = []
    for i, tier in enumerate(spec.tiers):
        floor = spec.tiers[i + 1].resolution_cpd if i + 1 < len(spec.tiers) else 0.0
        segs = display._apply_degradation(display._tier_segments(tier, floor), spec.degradation)
        pieces.append(
            np.array([(s.start, s.end, s.value_start, s.value_end) for s in segs]).reshape(-1, 4)
        )
    return pieces


def _offsets(spec, gaze):
    return [max(0.0, gaze - t.steer_range_deg) if t.steerable else gaze for t in spec.tiers]


def _definition(pieces, offsets, xs):
    """Perceived resolution by definition: the maximum over tiers of each
    tier's degraded pieces shifted left by its gaze offset, floored at 0."""
    out = np.zeros_like(xs)
    for rows, offset in zip(pieces, offsets):
        if not len(rows):
            continue
        start, end, v0, v1 = rows.T
        y = xs + offset
        j = np.minimum(np.searchsorted(end, y), len(end) - 1)
        inside = (start[j] <= y) & (y <= end[j])
        t = (y - start[j]) / np.where(end[j] > start[j], end[j] - start[j], 1.0)
        out = np.where(inside, np.maximum(out, v0[j] + t * (v1[j] - v0[j])), out)
    return out


@given(display_specs(), st.floats(0.0, 25.0, **finite))
# A blend as wide as its tier up to an ulp: the ramp must start on the axis.
@example(DisplaySpec("_", (Tier(14.0, 13.2341571735314, False, 0.0, 13.234157173531399),)), 0.0)
@settings(max_examples=150, deadline=None)
def test_perceived_profile_matches_its_definition(spec, gaze):
    profile = perceived_profile(spec, gaze)
    pieces, offsets = _degraded_pieces(spec), _offsets(spec, gaze)
    knots = [0.0, *profile.breakpoints()]
    for rows, offset in zip(pieces, offsets):
        knots += [x - offset for x in rows[:, :2].ravel() if x >= offset]
    knots = np.unique(knots)
    xs = np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1])])
    # Knots closer than 1e-12 deg are one knot to the composition, so the
    # definition is read over that much eccentricity on either side.
    eps = 1e-12
    around = np.array(
        [_definition(pieces, offsets, x) for x in (np.maximum(xs - eps, 0.0), xs, xs + eps)]
    )
    got = profile.eval_many(xs)
    assert np.all(got >= around.min(axis=0) - 1e-12)
    assert np.all(got <= around.max(axis=0) + 1e-12)


@given(display_specs(), st.floats(0.0, 25.0, **finite))
@settings(max_examples=150, deadline=None)
def test_array_and_panel_loop_compositions_agree_exactly(spec, gaze):
    """Each composition reads the threshold, so patching it forces either path.

    The memo holds the on-axis profile composed by whichever path ran first,
    so it is cleared for each path.
    """
    profiles = []
    for threshold in (0, math.inf):
        with mock.patch.object(display, "_ARRAY_MIN_PIECES", threshold):
            display._tier_pieces.cache_clear()
            profiles.append(perceived_profile(spec, gaze))
    by_arrays, by_panels = profiles
    assert by_arrays.segments == by_panels.segments
