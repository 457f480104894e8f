import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from fovkit import display
from fovkit import (
    AcuityModel,
    ClassifierConfig,
    DisplaySpec,
    DisplaySpecError,
    OffAxisDegradation,
    Tier,
    build_rdf,
    classify,
    gaze_invariance_range,
    load_bundled_spec,
    make_adf,
    parse_display_spec,
    perceived_profile,
    serialize_display_spec,
)
from support import grid_invariance_range, linear_invariance_range


def uniform(res, half_fov, **kw):
    return DisplaySpec(name="u", tiers=(Tier(resolution_cpd=res, half_fov_deg=half_fov),), **kw)


def two_tier(hi, hi_fov, lo, lo_fov, blend=0.0, steer=0.0):
    inner = Tier(
        resolution_cpd=hi,
        half_fov_deg=hi_fov,
        steerable=steer > 0,
        steer_range_deg=steer,
        blend_width_deg=blend,
    )
    return DisplaySpec(
        name="t", tiers=(inner, Tier(resolution_cpd=lo, half_fov_deg=lo_fov))
    )


class TestInvariants:
    def test_tier_validation(self):
        with pytest.raises(DisplaySpecError, match="resolution"):
            Tier(resolution_cpd=0.0, half_fov_deg=10.0)
        with pytest.raises(DisplaySpecError, match="blend"):
            Tier(resolution_cpd=5.0, half_fov_deg=10.0, blend_width_deg=11.0)
        with pytest.raises(DisplaySpecError, match="steer"):
            Tier(resolution_cpd=5.0, half_fov_deg=10.0, steerable=True, steer_range_deg=0.0)
        with pytest.raises(DisplaySpecError, match="steer"):
            Tier(resolution_cpd=5.0, half_fov_deg=10.0, steerable=False, steer_range_deg=5.0)

    @pytest.mark.parametrize(
        "field", ["resolution_cpd", "half_fov_deg", "steer_range_deg", "blend_width_deg"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_tier_rejects_non_finite_values(self, field, value):
        kw = dict(resolution_cpd=5.0, half_fov_deg=10.0, steerable=field == "steer_range_deg")
        with pytest.raises(DisplaySpecError, match=f"{field} must be finite"):
            Tier(**{**kw, field: value})

    def test_spec_needs_tiers(self):
        with pytest.raises(DisplaySpecError, match="at least one tier"):
            DisplaySpec(name="x", tiers=())

    def test_spec_orderings(self):
        with pytest.raises(DisplaySpecError, match="non-increasing resolution"):
            DisplaySpec(
                name="x",
                tiers=(
                    Tier(resolution_cpd=5.0, half_fov_deg=10.0),
                    Tier(resolution_cpd=6.0, half_fov_deg=20.0),
                ),
            )
        with pytest.raises(DisplaySpecError, match="extents"):
            DisplaySpec(
                name="x",
                tiers=(
                    Tier(resolution_cpd=10.0, half_fov_deg=20.0),
                    Tier(resolution_cpd=5.0, half_fov_deg=10.0),
                ),
            )

    def test_blend_band_must_fit_between_edges(self):
        with pytest.raises(DisplaySpecError, match="blend band"):
            DisplaySpec(
                name="x",
                tiers=(
                    Tier(resolution_cpd=30.0, half_fov_deg=16.0),
                    # band [15, 18] would reach inside the 16 deg inner edge
                    Tier(resolution_cpd=7.2, half_fov_deg=18.0, blend_width_deg=3.0),
                ),
            )

    def test_degradation_validation(self):
        with pytest.raises(DisplaySpecError, match="first degradation breakpoint"):
            OffAxisDegradation(kind="piecewise-linear", breakpoints=((1.0, 1.0),))
        with pytest.raises(DisplaySpecError, match="non-increasing"):
            OffAxisDegradation(
                kind="piecewise-linear", breakpoints=((0.0, 1.0), (5.0, 0.5), (9.0, 0.8))
            )
        with pytest.raises(DisplaySpecError, match="strictly increase"):
            OffAxisDegradation(
                kind="piecewise-linear", breakpoints=((0.0, 1.0), (5.0, 0.9), (5.0, 0.8))
            )
        with pytest.raises(DisplaySpecError, match="no breakpoints"):
            OffAxisDegradation(kind="none", breakpoints=((0.0, 1.0),))

    @pytest.mark.parametrize(
        "point", [(math.nan, 0.5), (math.inf, 0.5), (20.0, math.nan), (20.0, -math.inf)]
    )
    def test_degradation_rejects_non_finite_breakpoints(self, point):
        with pytest.raises(DisplaySpecError, match="must be finite"):
            OffAxisDegradation(kind="piecewise-linear", breakpoints=((0.0, 1.0), point))


class TestBuildRdf:
    def test_uniform_profile(self):
        rdf = build_rdf(uniform(5.4, 50.0))
        assert rdf.eval(0.0) == 5.4
        assert rdf.eval(20.0) == 5.4
        assert rdf.eval(50.0) == 5.4
        assert rdf.eval(50.1) == 0.0
        assert rdf.extent_deg == 50.0

    def test_step_profile(self):
        rdf = build_rdf(load_bundled_spec("varjo_vr1"))
        assert rdf.eval(10.0) == 30.0
        assert rdf.eval(16.0) == 30.0  # inset edge belongs to the inset
        assert rdf.eval(20.0) == 7.2
        assert rdf.eval(60.0) == 0.0

    def test_blend_ramp(self):
        spec = two_tier(30.0, 16.0, 7.2, 50.0)
        blended = DisplaySpec(
            name="b",
            tiers=(
                Tier(resolution_cpd=30.0, half_fov_deg=16.0, blend_width_deg=3.0),
                spec.tiers[1],
            ),
        )
        rdf = build_rdf(blended)
        assert rdf.eval(13.0) == pytest.approx(30.0)
        assert rdf.eval(14.5) == pytest.approx((30.0 + 7.2) / 2)
        assert rdf.eval(16.0) == pytest.approx(7.2)
        assert rdf.eval(12.9) == 30.0

    def test_degradation_multiplies_profile(self):
        spec = uniform(
            10.0,
            20.0,
            degradation=OffAxisDegradation(
                kind="piecewise-linear", breakpoints=((0.0, 1.0), (20.0, 0.5))
            ),
        )
        rdf = build_rdf(spec)
        assert rdf.eval(0.0) == pytest.approx(10.0)
        assert rdf.eval(10.0) == pytest.approx(7.5)
        assert rdf.eval(20.0) == pytest.approx(5.0)

    def test_negative_eccentricity_rejected(self):
        rdf = build_rdf(uniform(5.4, 50.0))
        with pytest.raises(ValueError):
            rdf.eval(-1.0)


class TestPerceived:
    def test_gaze_zero_is_the_on_axis_profile(self):
        for name in ("vive", "varjo_vr1", "kim", "hololens"):
            spec = load_bundled_spec(name)
            assert perceived_profile(spec, 0.0) == build_rdf(spec)

    def test_static_inset_shrinks_on_the_worst_side(self):
        p = perceived_profile(load_bundled_spec("varjo_vr1"), 10.0)
        assert p.eval(6.0) == 30.0
        assert p.eval(6.1) == 7.2
        assert p.extent_deg == pytest.approx(40.0)

    def test_steered_inset_keeps_its_full_span(self):
        p = perceived_profile(load_bundled_spec("kim"), 10.0)
        assert p.eval(15.0) == 30.0
        assert p.eval(15.1) == 3.0

    def test_steering_saturates_beyond_its_range(self):
        p = perceived_profile(load_bundled_spec("kim"), 20.0)  # steer range is 18
        assert p.eval(13.0) == 30.0  # inset trails by 2 deg
        assert p.eval(13.1) == 3.0

    def test_gaze_sign_is_canonicalised(self):
        spec = load_bundled_spec("varjo_vr1")
        assert perceived_profile(spec, -10.0) == perceived_profile(spec, 10.0)

    def test_profile_nonnegative_and_zero_outside(self):
        spec = load_bundled_spec("vive")
        p = perceived_profile(spec, 7.0)
        es = np.linspace(0.0, 90.0, 901)
        vals = p.eval_many(es)
        assert np.all(vals >= 0.0)
        assert np.all(vals[es > p.extent_deg + 1e-9] == 0.0)


class TestGazeInvariance:
    def test_wide_uniform_display_reaches_the_cap(self):
        cfg = ClassifierConfig()
        spec = uniform(30.0, cfg.invariance_extent + cfg.full_gaze_range)
        adf = make_adf("constant-fovea", "20/20")
        assert gaze_invariance_range(spec, adf, cfg) == cfg.full_gaze_range

    def test_static_inset_range_matches_the_geometry_oracle(self):
        # Scanned oracle: the change becomes noticeable once the worst-side
        # inset edge (16 - g) moves inside the eccentricity where the falloff
        # still exceeds the surround by more than the tolerance.
        cfg = ClassifierConfig()
        adf = make_adf("constant-fovea", "20/20")
        reach = gaze_invariance_range(load_bundled_spec("varjo_vr1"), adf, cfg)
        threshold = 75.0 / (7.2 + cfg.noticeability_tol) - 0.5  # eccentricity of falloff = 7.45
        expected = np.floor((16.0 - threshold) / cfg.gaze_scan_step) * cfg.gaze_scan_step
        assert reach == pytest.approx(expected, abs=1e-9)
        assert reach == pytest.approx(6.4, abs=1e-9)

    def test_degraded_panel_fails_quickly(self):
        cfg = ClassifierConfig()
        adf = make_adf("constant-fovea", "20/20")
        assert gaze_invariance_range(load_bundled_spec("vive"), adf, cfg) < 5.0

    def test_visible_edge_fails_immediately(self):
        cfg = ClassifierConfig()
        adf = make_adf("constant-fovea", "20/20")
        assert gaze_invariance_range(load_bundled_spec("hololens"), adf, cfg) == 0.0

    def test_peak_just_right_of_a_profile_jump_ends_the_scan(self):
        # Under the slope model at 20/20 the peak gap sits at the right limit
        # of a knot of the perceived profile: 0.2534 cpd just right of 7.5 deg
        # at gaze 8.5 (9.0 deg at gaze 7.0 with tracking error), over the 0.25
        # tolerance, while 0.01 deg further right the gap is already under it.
        cfg = ClassifierConfig()
        spec = load_bundled_spec("varjo_vr1")
        assert gaze_invariance_range(spec, make_adf("slope", "20/20"), cfg) == 8.4
        adf = make_adf("slope", "20/20", foveation_error_deg=1.5)
        assert gaze_invariance_range(spec, adf, cfg) == 6.9

    @pytest.mark.parametrize("step, reach", [(0.1, 24.9), (0.3, 24.9), (0.7, 24.5)])
    def test_last_step_checks_the_end_of_the_range(self, step, reach):
        # 0.3 and 0.7 do not divide the 25 deg range; the scan used to stop at
        # 24.9 and 24.5 without checking 25 and report the whole range.
        spec = DisplaySpec("u", (Tier(30.0, 39.95),))
        cfg = ClassifierConfig(gaze_scan_step=step)
        assert gaze_invariance_range(spec, make_adf("constant-fovea", "20/20"), cfg) == (
            pytest.approx(reach, abs=1e-9)
        )
        assert classify(spec, "20/20", cfg).gaze_class == 2

    @pytest.mark.parametrize("name", ["varjo_vr1", "kim", "vive_pro"])
    def test_scan_cost_does_not_grow_with_the_extent(self, name):
        sizes = []

        class CountingModel(AcuityModel):
            def eval_many(self, eccentricities_deg):
                sizes.append(np.size(eccentricities_deg))
                return super().eval_many(eccentricities_deg)

        spec = load_bundled_spec(name)
        adf = CountingModel(**dataclasses.asdict(make_adf("constant-fovea", "20/20")))
        runs = []
        # At any fixed eccentricity pitch, a 1e12 deg extent is 1e14 points.
        for extent in (2 * spec.half_fov_deg, 1e12):
            sizes.clear()
            reach = gaze_invariance_range(spec, adf, ClassifierConfig(invariance_extent=extent))
            runs.append((reach, sizes.copy()))
        assert 0 < max(runs[1][1]) < 1_000
        # Past the display edge both profiles are 0, so a wider extent
        # changes neither the reach nor the number of points evaluated.
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "name, acuity, reach, most",
        [
            ("hololens", "20/20", 0.0, 1),  # step 1 is already noticeable
            ("uniform_30cpd_80deg", "20/200", 25.0, 9),  # no step is: ceil(log2 250) + 1
        ],
    )
    def test_scan_composes_logarithmically_many_profiles(
        self, monkeypatch, name, acuity, reach, most
    ):
        gazes = []
        perceived = display.perceived_profile

        def counting(spec, gaze_deg):
            gazes.append(gaze_deg)
            return perceived(spec, gaze_deg)

        monkeypatch.setattr(display, "perceived_profile", counting)
        adf = make_adf("constant-fovea", acuity)
        assert gaze_invariance_range(load_bundled_spec(name), adf, ClassifierConfig()) == reach
        tried = [g for g in gazes if g > 0]
        assert 0 < len(tried) == len(set(tried)) <= most

    @pytest.mark.parametrize(
        "steered_edge, outer_edge, gaze", [(3.00001, 4.00001, 1.0), (3.0, 4.1, 1.1)]
    )
    def test_a_shifted_edge_never_cuts_a_steered_tier_short(self, steered_edge, outer_edge, gaze):
        # At this gaze the outer tier's shifted edge rounds to an ulp below the
        # steered tier's edge (4.00001 - 1.0 = 3.0000099999999996).  Merging
        # the two knots used to cut the steered tier short by that ulp: a
        # 1 cpd gap at that one gaze step, which ended the linear scan (and, on
        # the grid point 3.0, the dense-grid oracle) at gaze - 0.1 and which
        # the bisected scan skipped.
        spec = DisplaySpec(
            "_",
            (Tier(2.0, 1.0), Tier(2.0, steered_edge, True, 2.0), Tier(0.5, outer_edge)),
            OffAxisDegradation("piecewise-linear", ((0.0, 1.0), (1.0, 0.5))),
        )
        assert perceived_profile(spec, gaze).extent_deg == steered_edge
        # Until the steered tier moves at gaze 2, the only change is the outer
        # tier's 0.25 cpd falling off the edge: exactly the tolerance, not over.
        adf, cfg = make_adf("constant-fovea", "20/10"), ClassifierConfig()
        reach = gaze_invariance_range(spec, adf, cfg)
        assert reach == linear_invariance_range(spec, adf, cfg) == pytest.approx(2.0, abs=1e-9)
        assert reach <= grid_invariance_range(spec, adf, cfg)

    def test_classify_composes_the_on_axis_profile_once(self, monkeypatch):
        gazes, offsets = [], []
        perceived, compose = display.perceived_profile, display._compose

        def counting_perceived(spec, gaze_deg):
            gazes.append(gaze_deg)
            return perceived(spec, gaze_deg)

        def counting_compose(rows, tier, segments, tier_offsets):
            offsets.append(tier_offsets)
            return compose(rows, tier, segments, tier_offsets)

        monkeypatch.setattr(display, "perceived_profile", counting_perceived)
        monkeypatch.setattr(display, "_compose", counting_compose)
        display._tier_pieces.cache_clear()
        classify(load_bundled_spec("varjo_vr1"), "20/20")
        assert gazes.count(0.0) == 1
        # One composition with no tier shifted, then one per gaze the scan tried.
        assert offsets.count([0.0, 0.0]) == 1
        assert len(offsets) == len(gazes) > 1


ACUITIES = ("20/10", "20/15", "20/20", "20/30", "20/40", "20/80", "20/200")
# Reach of the gaze scan per bundled spec at ACUITIES, recorded from a scan
# that rebuilt every tier piece and compared the profiles on a 0.01 deg grid
# at each step; the exact scan stops at the same step on every one of them.
# Compared float for float: a scan that misses or invents a peak moves a reach.
GOLDEN_REACH = {
    "hololens": (0.0,) * 7,
    "kim": (18.0,) * 6 + (25.0,),
    "uniform_30cpd_80deg": (25.0,) * 7,
    "varjo_vr1": (5.1000000000000005, 5.800000000000001, 6.4, 7.6000000000000005, 8.9, 13.9, 25.0),
    "vive": (0.7000000000000001,) * 5 + (3.4000000000000004, 17.1),
    "vive_pro": (0.5, 0.5, 0.5, 1.7000000000000002, 3.0, 8.0, 25.0),
}
# Sampled segments (start, end, value_start, value_end) of the blended inset
# below, by gaze: the first two, the middle one and the last of 1,005.
GOLDEN_INSET_SEGMENTS = {
    0.0: {
        0: (0.0, 6.0, 30.0, 29.8578),
        1: (6.0, 6.01, 29.8578, 29.83487125212),
        502: (11.01, 11.02, 17.229609911999997, 17.196589008),
        1004: (40.0, 50.0, 1.8525599999999998, 1.48536),
    },
    0.7: {
        0: (0.0, 5.3, 29.98341, 29.8578),
        1: (5.3, 5.31, 29.8578, 29.83487125212),
        502: (10.31, 10.32, 17.229609911999997, 17.196589008),
        1004: (39.3, 49.3, 1.8525599999999998, 1.48536),
    },
    3.1: {
        0: (0.0, 2.9, 29.92653, 29.8578),
        1: (2.9, 2.9099999999999997, 29.8578, 29.83487125212),
        502: (7.91, 7.92, 17.229609911999997, 17.196589008),
        1004: (36.9, 46.9, 1.8525599999999998, 1.48536),
    },
}


def blended_inset(blend=10.0):
    """30 cpd to 16 deg blending into 7.2 cpd to 50 deg, under the vive_pro lens."""
    return DisplaySpec(
        name="inset",
        tiers=(
            Tier(resolution_cpd=30.0, half_fov_deg=16.0, blend_width_deg=blend),
            Tier(resolution_cpd=7.2, half_fov_deg=50.0),
        ),
        degradation=load_bundled_spec("vive_pro").degradation,
    )


def test_scan_reach_and_inset_profile_are_pinned_float_for_float():
    cfg = ClassifierConfig()
    reach = {
        name: tuple(
            gaze_invariance_range(load_bundled_spec(name), make_adf("constant-fovea", a), cfg)
            for a in ACUITIES
        )
        for name in GOLDEN_REACH
    }
    assert reach == GOLDEN_REACH
    for gaze, samples in GOLDEN_INSET_SEGMENTS.items():
        segments = perceived_profile(blended_inset(), gaze).segments
        assert len(segments) == 1005
        for i, expected in samples.items():
            s = segments[i]
            assert (s.start, s.end, s.value_start, s.value_end) == expected


@pytest.mark.parametrize(
    "a, b",
    [
        ("varjo_vr1", "kim"),  # a few pieces each
        (blended_inset(), blended_inset(blend=6.0)),  # hundreds of chords each
    ],
    ids=["few_pieces", "many_pieces"],
)
def test_tier_piece_memo_never_leaks_between_specs(a, b):
    a = load_bundled_spec(a) if isinstance(a, str) else a
    b = load_bundled_spec(b) if isinstance(b, str) else b
    copy_of_a = parse_display_spec(serialize_display_spec(a))
    assert copy_of_a == a and copy_of_a is not a
    gazes = (0.0, 0.7, 3.1, 12.5)

    def fresh(spec):
        out = []
        for g in gazes:
            display._tier_pieces.cache_clear()
            out.append(perceived_profile(spec, g))
        return out

    expected = {id(a): fresh(a), id(b): fresh(b), id(copy_of_a): fresh(a)}
    assert expected[id(a)] != expected[id(b)]
    display._tier_pieces.cache_clear()
    for spec in (a, b, a, copy_of_a):
        assert [perceived_profile(spec, g) for g in gazes] == expected[id(spec)]
        assert display._tier_pieces.cache_info().currsize == 1


def test_tier_piece_memo_is_safe_to_share_between_threads():
    specs = [load_bundled_spec("varjo_vr1"), blended_inset(), load_bundled_spec("kim")]
    gazes = (0.0, 3.1, 12.5)
    expected = {}
    for i, spec in enumerate(specs):
        display._tier_pieces.cache_clear()
        expected[i] = [perceived_profile(spec, g) for g in gazes]
    mismatches, errors = [], []

    def worker(offset):
        try:
            for k in range(12):
                i = (k + offset) % len(specs)
                if [perceived_profile(specs[i], g) for g in gazes] != expected[i]:
                    mismatches.append(i)
        except Exception as e:  # noqa: BLE001 - reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and mismatches == []
