import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovkit import (
    ADF_KINDS,
    CONSTANT_FOVEA,
    SLOPE,
    AcuityModel,
    DisplaySpec,
    EfficiencyUndefinedError,
    ProfileSegment,
    ResolutionProfile,
    SnellenFraction,
    Tier,
    build_rdf,
    bundled_spec_names,
    integrate,
    load_bundled_spec,
    make_adf,
    metrics_report,
    optimal_blend_width,
    pixel_deficit,
    pixel_waste,
    rdf_efficiency,
)
from fovkit import metrics
from fovkit.acuity import QUADRATURE_PANEL_DEG
from fovkit.metrics import MAX_BLEND_CANDIDATES, MAX_QUADRATURE_NODES
from support import (
    ClampedMaxCurve,
    candidate_blend_width,
    constant_fovea_integral,
    display_specs,
    finite,
    slope_model_integral,
    snellen_fractions,
)

ADF = make_adf("constant-fovea", "20/20")
UNIFORM_RDF = build_rdf(load_bundled_spec("uniform_30cpd_80deg"))

# Exact antiderivative values, frozen at 50 digits.
ADF_INTEGRAL_0_80 = 320.3974839412772
WASTE_UNIFORM_0_80 = 2079.6025160587228


class TestIntegrate:
    def test_constant_thirty_over_eighty_degrees(self):
        assert integrate(UNIFORM_RDF, 0.0, 80.0) == pytest.approx(2400.0, rel=1e-9)

    def test_falloff_matches_closed_form(self):
        assert integrate(ADF, 0.0, 80.0) == pytest.approx(ADF_INTEGRAL_0_80, rel=1e-6)

    def test_slope_model_matches_closed_form(self):
        m = make_adf("slope", "20/30")
        expected = slope_model_integral(m.foveal_cpd, 0.55, 2.0, 1.0, 40.0)
        assert integrate(m, 1.0, 40.0) == pytest.approx(expected, rel=1e-6)

    def test_empty_interval_is_zero(self):
        assert integrate(ADF, 12.0, 12.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            integrate(ADF, 10.0, 5.0)

    def test_plain_callable_integrand(self):
        assert integrate(lambda e: 2.0 * e, 0.0, 3.0) == pytest.approx(9.0, rel=1e-12)

    def test_shifted_falloff_matches_closed_form(self):
        m = make_adf("constant-fovea", "20/20", foveation_error_deg=4.0)
        expected = constant_fovea_integral(30.0, 75.0, 2.0, 0.0, 60.0, error=4.0)
        assert integrate(m, 0.0, 60.0) == pytest.approx(expected, rel=1e-6)


# The oracle's log difference cancels on short intervals deep in the tail,
# so the bound is looser than the rule's own error (a few ulps).
@given(
    st.one_of(
        st.tuples(st.just(CONSTANT_FOVEA), st.floats(0.2, 75.0, **finite)),
        st.tuples(st.just(SLOPE), st.floats(0.3, 30.0, **finite)),
    ),
    snellen_fractions(),
    st.floats(0.0, 3.0, **finite),
    st.floats(0.0, 60.0, **finite),
    st.floats(0.0, 60.0, **finite),
)
@settings(max_examples=300, deadline=None)
def test_integrate_matches_the_closed_forms(model, fraction, error, x1, x2):
    kind, rolloff = model
    a, b = sorted((x1, x2))
    adf = make_adf(kind, fraction, slope=rolloff, foveation_error_deg=error)
    oracle = constant_fovea_integral if kind == CONSTANT_FOVEA else slope_model_integral
    expected = oracle(adf.foveal_cpd, rolloff, adf.fovea_deg, a, b, error=error)
    assert integrate(adf, a, b) == pytest.approx(expected, rel=1e-10)


def test_steep_rolloffs_get_graded_cuts_toward_the_pole():
    # c = 0.2 / 60 deg: each panel is at least its own width from the pole at p - c.
    cuts = make_adf(CONSTANT_FOVEA, "20/10", slope=0.2).breakpoints()
    c = 0.2 / 60.0
    assert cuts == pytest.approx([2.0 + c * (2**j - 1) for j in range(9)], rel=1e-15)
    assert make_adf(CONSTANT_FOVEA, "20/20").breakpoints() == (2.0,)
    assert make_adf(SLOPE, "20/10", foveation_error_deg=1.0).breakpoints() == (3.0,)


class TestDeficitWaste:
    def test_sufficient_display_has_no_deficit(self):
        assert pixel_deficit(UNIFORM_RDF, ADF, 0.0, 50.0) == 0.0

    def test_under_provisioned_display_has_deficit(self):
        rdf = build_rdf(
            DisplaySpec(
                name="u", tiers=(Tier(resolution_cpd=5.4, half_fov_deg=50.0),)
            )
        )
        assert pixel_deficit(rdf, ADF, 0.0, 13.39) > 0.0

    def test_empty_range_deficit(self):
        assert pixel_deficit(UNIFORM_RDF, ADF, 7.0, 7.0) == 0.0

    def test_waste_of_the_brute_force_slice(self):
        assert pixel_waste(UNIFORM_RDF, ADF, 0.0, 80.0) == pytest.approx(
            WASTE_UNIFORM_0_80, rel=1e-6
        )

    def test_matching_profile_wastes_nothing(self):
        assert pixel_waste(ADF, ADF, 0.0, 60.0) == 0.0

    def test_profile_below_target_wastes_nothing(self):
        rdf = build_rdf(
            DisplaySpec(
                name="u", tiers=(Tier(resolution_cpd=0.9, half_fov_deg=80.0),)
            )
        )
        assert pixel_waste(rdf, ADF, 0.0, 80.0) == 0.0

    def test_raising_to_the_target_kills_deficit_and_keeps_waste(self):
        rdf = build_rdf(load_bundled_spec("vive"))
        raised = ClampedMaxCurve(rdf, ADF)
        assert pixel_deficit(raised, ADF, 0.0, 50.0) == 0.0
        assert pixel_waste(raised, ADF, 0.0, 50.0) == pytest.approx(
            pixel_waste(rdf, ADF, 0.0, 50.0), rel=1e-12
        )

    def test_a_kink_no_curve_reports_is_found(self):
        # The line crosses the falloff near 38 deg; the plain callable reports
        # neither its knots nor that crossing.
        line = ResolutionProfile((ProfileSegment(0.0, 40.0, 40.0, 0.0),))
        raised = lambda e: max(line.eval(e), ADF.eval(e))  # noqa: E731
        assert pixel_waste(raised, ADF, 0.0, 40.0) == pytest.approx(
            pixel_waste(line, ADF, 0.0, 40.0), rel=1e-9
        )


class TestEfficiency:
    def test_brute_force_efficiency(self):
        eff = rdf_efficiency(UNIFORM_RDF, ADF, 0.0, 80.0)
        assert eff == pytest.approx(1.0 - WASTE_UNIFORM_0_80 / 2400.0, rel=1e-6)
        assert abs(eff - 0.135) < 0.005

    def test_matched_profile_is_fully_efficient(self):
        assert rdf_efficiency(ADF, ADF, 0.0, 60.0) == pytest.approx(1.0)

    def test_under_provisioning_wastes_nothing(self):
        flat = AcuityModel(kind="constant-fovea", foveal_cpd=30.0, fovea_deg=200.0,
                           rolloff_cpd_per_deg=75.0)
        rdf = build_rdf(
            DisplaySpec(
                name="u", tiers=(Tier(resolution_cpd=15.0, half_fov_deg=80.0),)
            )
        )
        assert rdf_efficiency(rdf, flat, 0.0, 80.0) == pytest.approx(1.0)

    def test_zero_cycles_undefined(self):
        with pytest.raises(EfficiencyUndefinedError):
            rdf_efficiency(UNIFORM_RDF, ADF, 80.0, 80.0)
        empty = build_rdf(load_bundled_spec("hololens"))
        with pytest.raises(EfficiencyUndefinedError):
            rdf_efficiency(empty, ADF, 20.0, 30.0)  # beyond the display edge


class TestReport:
    def test_report_fields_cohere(self):
        rdf = build_rdf(load_bundled_spec("vive_pro"))
        rep = metrics_report(rdf, ADF)
        assert rep.eval_range == (0.0, 50.0)
        assert rep.efficiency == pytest.approx(1.0 - rep.waste / rep.cycle_count, rel=1e-12)
        assert rep.deficit >= 0.0 and rep.waste >= 0.0
        assert 0.0 <= rep.efficiency <= 1.0
        assert rep.peripheral_deficit == 0.0  # calibrated falloff stays above the target
        assert rep.foveal_deficit > 0.0

    def test_report_respects_eval_range(self):
        rep = metrics_report(UNIFORM_RDF, ADF, eval_range=(0.0, 40.0))
        assert rep.cycle_count == pytest.approx(1200.0, rel=1e-9)


@pytest.mark.parametrize("name", ["hololens", "kim", "varjo_vr1", "vive", "vive_pro"])
@pytest.mark.parametrize(
    "adf",
    [ADF, make_adf("slope", "20/40", foveation_error_deg=1.5)],
    ids=["constant-fovea", "slope"],
)
def test_report_is_one_sample_of_the_standalone_metrics(name, adf):
    rdf = build_rdf(load_bundled_spec(name))
    rep = metrics_report(rdf, adf, eval_range=(0.5, 44.0))
    a, b = rep.eval_range
    assert rep.deficit == pixel_deficit(rdf, adf, a, b)
    assert rep.waste == pixel_waste(rdf, adf, a, b)
    assert rep.efficiency == rdf_efficiency(rdf, adf, a, b)
    assert rep.efficiency == 1 - rep.waste / rep.cycle_count
    assert rep.cycle_count == pytest.approx(integrate(rdf, a, b), rel=1e-12)
    edge = rdf.extent_deg
    assert rep.foveal_deficit == pixel_deficit(rdf, adf, 0.0, 2.0)
    assert rep.peripheral_deficit == pixel_deficit(rdf, adf, min(10.0, edge), edge)


def _count_evaluations(monkeypatch) -> Counter:
    """Count the calls that evaluate profiles, one at a time or stacked, and models."""
    calls = Counter()

    def counting(key, original):
        def counted(*args):
            calls[key] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(
        ResolutionProfile, "eval_many", counting("ResolutionProfile", ResolutionProfile.eval_many)
    )
    monkeypatch.setattr(
        metrics, "_eval_profiles", counting("ResolutionProfile", metrics._eval_profiles)
    )
    monkeypatch.setattr(AcuityModel, "eval_many", counting("AcuityModel", AcuityModel.eval_many))
    monkeypatch.setattr(metrics._Pass, "sample", counting("pass", metrics._Pass.sample))
    return calls


@pytest.mark.parametrize("name", bundled_spec_names())
def test_profile_and_model_are_each_evaluated_once_per_sample(name, monkeypatch):
    """The crossings are cuts, so no profile x model sample needs a second pass.

    The report samples its range and both regions in that one pass.
    """
    calls = _count_evaluations(monkeypatch)
    rdf = build_rdf(load_bundled_spec(name))
    edge = rdf.extent_deg
    for kind in ADF_KINDS:
        for acuity in ("20/10", "20/15", "20/20", "20/30", "20/40", "20/80", "20/200"):
            adf = make_adf(kind, acuity)
            for metric in (pixel_deficit, pixel_waste, metrics_report):
                calls.clear()
                if metric is metrics_report:
                    metric(rdf, adf)
                else:
                    metric(rdf, adf, 0.0, edge)
                assert calls == {"ResolutionProfile": 1, "AcuityModel": 1, "pass": 1}, (
                    metric, kind, acuity
                )


@pytest.mark.parametrize("kind", ADF_KINDS)
def test_blend_candidates_share_one_evaluation_per_pass(kind, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    hi = Tier(resolution_cpd=30.0, half_fov_deg=8.0)
    lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
    optimal_blend_width(hi, lo, make_adf(kind, "20/20"))  # 81 candidate widths
    assert calls["AcuityModel"] == calls["ResolutionProfile"] == calls["pass"]
    assert calls["pass"] < 81 / 4


# Ranges start anywhere up to 80 deg, past every extent drawn, and may be empty.
_ranges = st.tuples(st.floats(0.0, 80.0, **finite), st.one_of(st.just(0.0), st.floats(0.0, 40.0)))


@given(
    st.lists(display_specs(), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), _ranges), min_size=1, max_size=12),
    st.sampled_from(ADF_KINDS),
    snellen_fractions(),
    st.floats(0.0, 3.0, **finite),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_a_batched_sample_is_each_job_sampled_alone(specs, picks, kind, fraction, error, raised):
    """Every job of a batch gets the bits of a one-job deficit and waste.

    With ``raised`` the curves are generic, so any kink is bisected.
    """
    adf = make_adf(kind, fraction, foveation_error_deg=error)
    curves = [build_rdf(spec) for spec in specs]
    if raised:
        curves = [ClampedMaxCurve(rdf, adf) for rdf in curves]
    jobs = [(curves[i % len(curves)], a, a + length) for i, (a, length) in picks]
    for (rdf, a, b), (widths, rdf_vals, adf_vals) in zip(jobs, metrics._sample(adf, jobs)):
        deficit = metrics._excess(widths, adf_vals, rdf_vals)
        waste = metrics._excess(widths, rdf_vals, adf_vals)
        assert deficit.hex() == pixel_deficit(rdf, adf, a, b).hex()
        assert waste.hex() == pixel_waste(rdf, adf, a, b).hex()


def test_kinks_bisected_in_several_jobs_of_one_batch(monkeypatch):
    rooted = []
    kinks = metrics._Pass.kinks

    def spy(self, nodes, side):
        roots, job = kinks(self, nodes, side)
        rooted.append(len(set(job.tolist())))
        return roots, job

    monkeypatch.setattr(metrics._Pass, "kinks", spy)
    adf = make_adf(CONSTANT_FOVEA, "20/40")
    jobs = [
        (ClampedMaxCurve(build_rdf(load_bundled_spec(name)), adf), a, b)
        for name in ("vive", "vive_pro", "kim")
        for a, b in ((0.0, 50.0), (1.0, 30.0))
    ]
    batched = [metrics._excess(w, r, v).hex() for w, r, v in metrics._sample(adf, jobs)]
    assert max(rooted) >= 2
    assert batched == [pixel_waste(rdf, adf, a, b).hex() for rdf, a, b in jobs]


def test_a_pass_holds_no_more_nodes_than_its_crossings_allow(monkeypatch):
    # Twenty 0.1 deg segments zig-zag across the 30 cpd plateau, crossing it
    # once each: 40 panels, 400 nodes a job, where the plan counts 280.
    zigzag = ResolutionProfile(tuple(
        ProfileSegment(i / 10, (i + 1) / 10, 35.0 - 10.0 * (i % 2), 25.0 + 10.0 * (i % 2))
        for i in range(20)
    ))
    monkeypatch.setattr(metrics, "_PASS_NODES", 600)
    passes = []
    sample = metrics._Pass.sample

    def spy(self):
        nodes, rdf_vals, adf_vals = sample(self)
        passes.append(len(nodes.xs))
        return nodes, rdf_vals, adf_vals

    monkeypatch.setattr(metrics._Pass, "sample", spy)
    for ranges in ([(0.0, 2.0)] * 2, [(0.0, 2.0), (0.5, 2.0), (0.0, 1.0)]):
        passes.clear()
        jobs = [(zigzag, a, b) for a, b in ranges]
        batched = [metrics._excess(w, r, v).hex() for w, r, v in metrics._sample(ADF, jobs)]
        assert max(passes) <= 600 and len(passes) > 1
        assert batched == [pixel_waste(zigzag, ADF, a, b).hex() for a, b in ranges]


def test_a_kink_between_a_cut_and_its_nearest_node_is_found():
    # The ramp meets the 4.545 cpd plateau at 0.99394 deg: after the last
    # Gauss node of [0, 1], at 0.99348, and before the knot at 1.
    spec = DisplaySpec("_", (Tier(12.0, 1.0, False, 0.0, 1.0), Tier(4.5, 2.0)))
    adf = make_adf(CONSTANT_FOVEA, SnellenFraction(20.0, 132.0))
    rdf = build_rdf(spec)
    assert pixel_waste(ClampedMaxCurve(rdf, adf), adf, 0.0, 2.0) == pytest.approx(
        pixel_waste(rdf, adf, 0.0, 2.0), rel=1e-12
    )


class TestRangeValidation:
    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
    def test_non_finite_range_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            integrate(ADF, *bounds)
        with pytest.raises(ValueError, match="must be finite"):
            pixel_deficit(UNIFORM_RDF, ADF, *bounds)
        with pytest.raises(ValueError, match="must be finite"):
            metrics_report(UNIFORM_RDF, ADF, eval_range=bounds)

    def test_node_cap(self):
        # Validation only: the curve fails on its first evaluation, so a range
        # that passes the cap is never integrated.
        def unevaluable(x):
            raise LookupError("passed validation")

        # Ten Gauss nodes per panel.
        widest = MAX_QUADRATURE_NODES / 10 * QUADRATURE_PANEL_DEG
        with pytest.raises(LookupError, match="passed validation"):
            integrate(unevaluable, 0.0, widest)
        with pytest.raises(ValueError, match="needs over 1,000,000 nodes"):
            integrate(unevaluable, 0.0, 2 * widest)
        with pytest.raises(ValueError, match="nodes"):
            pixel_waste(UNIFORM_RDF, ADF, 0.0, 1e9)


class TestOptimalBlendWidth:
    ADF = make_adf("constant-fovea", "20/20")

    def test_equal_resolutions_need_no_transition(self):
        hi = Tier(resolution_cpd=7.2, half_fov_deg=8.0)
        lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
        assert optimal_blend_width(hi, lo, self.ADF) == 0.0

    def test_already_met_target_needs_no_transition(self):
        # Beyond a 16 deg edge the 20/20 falloff is already under 7.2 cpd:
        # any ramp only adds waste.
        hi = Tier(resolution_cpd=30.0, half_fov_deg=16.0)
        lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
        assert optimal_blend_width(hi, lo, self.ADF) == 0.0

    def test_binding_transition_matches_the_scan_oracle(self):
        # With the edge at 8 deg the falloff still exceeds 7.2 cpd out to
        # 9.9167 deg; the narrowest ramp whose chord stays above the falloff
        # ends exactly there (width 1.9167), so the 0.1-deg scan lands on 2.0.
        hi = Tier(resolution_cpd=30.0, half_fov_deg=8.0)
        lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
        assert optimal_blend_width(hi, lo, self.ADF) == pytest.approx(2.0)

    def test_scan_prefers_smaller_width_on_ties(self):
        hi = Tier(resolution_cpd=30.0, half_fov_deg=16.0)
        lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
        low_acuity = make_adf("constant-fovea", "20/40")
        assert optimal_blend_width(hi, lo, low_acuity) == 0.0

    def test_degenerate_tiers_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            optimal_blend_width(
                Tier(resolution_cpd=5.0, half_fov_deg=8.0),
                Tier(resolution_cpd=7.2, half_fov_deg=50.0),
                self.ADF,
            )
        with pytest.raises(ValueError, match="degenerate"):
            optimal_blend_width(
                Tier(resolution_cpd=30.0, half_fov_deg=50.0),
                Tier(resolution_cpd=7.2, half_fov_deg=20.0),
                self.ADF,
            )

    class Unevaluable:
        """An acuity model that fails on its first evaluation."""

        def eval_many(self, xs):
            raise LookupError("passed validation")

    # Validation only: with the model above, a step that passes validation
    # fails at the first quadrature, so a rejected one was never integrated.
    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scan_step_rejected(self, step):
        hi = Tier(resolution_cpd=30.0, half_fov_deg=8.0)
        lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
        with pytest.raises(ValueError, match="scan_step must be a positive finite number"):
            optimal_blend_width(hi, lo, self.Unevaluable(), scan_step=step)

    def test_candidate_cap(self):
        # The widest band here is 8 deg, so 8 / n gives n + 1 candidate widths.
        hi = Tier(resolution_cpd=30.0, half_fov_deg=8.0)
        lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
        at_cap = 8.0 / (MAX_BLEND_CANDIDATES - 1)
        with pytest.raises(LookupError, match="passed validation"):
            optimal_blend_width(hi, lo, self.Unevaluable(), scan_step=at_cap)
        for step in (8.0 / MAX_BLEND_CANDIDATES, 1e-320):
            with pytest.raises(ValueError, match="over 10,000 candidate widths"):
                optimal_blend_width(hi, lo, self.Unevaluable(), scan_step=step)


@pytest.mark.parametrize("name", ["varjo_vr1", "kim"])
@pytest.mark.parametrize("kind", ADF_KINDS)
@pytest.mark.parametrize("error", [0.0, 1.5])
def test_blend_width_equals_the_per_candidate_oracle_on_bundled_tiers(name, kind, error):
    hi, lo = load_bundled_spec(name).tiers[:2]
    for acuity in ("20/10", "20/20", "20/40", "20/200"):
        adf = make_adf(kind, acuity, foveation_error_deg=error)
        assert optimal_blend_width(hi, lo, adf) == candidate_blend_width(hi, lo, adf)


@given(
    st.floats(12.0, 40.0, **finite),
    st.floats(4.0, 20.0, **finite),
    st.floats(4.0, 12.0, **finite),
    st.floats(10.0, 60.0, **finite),
    st.integers(15, 75),
    st.sampled_from(ADF_KINDS),
    snellen_fractions(),
    st.floats(0.0, 3.0, **finite),
)
@settings(max_examples=40, deadline=None)
def test_blend_width_equals_the_per_candidate_oracle(
    inset_cpd, inset_deg, surround_cpd, extra_deg, candidates, kind, fraction, error
):
    hi = Tier(resolution_cpd=inset_cpd, half_fov_deg=inset_deg)
    lo = Tier(resolution_cpd=surround_cpd, half_fov_deg=inset_deg + extra_deg)
    step = min(inset_deg, extra_deg) / candidates
    adf = make_adf(kind, fraction, foveation_error_deg=error)
    expected = candidate_blend_width(hi, lo, adf, step)
    assert optimal_blend_width(hi, lo, adf, scan_step=step) == expected


def test_a_sweep_at_the_candidate_cap_holds_one_pass_of_nodes_at_a_time():
    hi = Tier(resolution_cpd=30.0, half_fov_deg=8.0)
    lo = Tier(resolution_cpd=7.2, half_fov_deg=50.0)
    optimal_blend_width(hi, lo, ADF)  # first-call allocations are not the sweep's
    tracemalloc.start()
    try:
        width = optimal_blend_width(hi, lo, ADF, scan_step=8.0 / (MAX_BLEND_CANDIDATES - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert width == pytest.approx(1.9167, abs=1e-3)
    # The 10,000 candidates have about 10 M nodes, 80 MB per float array of
    # them.  A pass holds at most _PASS_NODES, and at its peak about ten
    # arrays of that length (nodes, values, intervals, temporaries).
    assert peak < 16 * np.dtype(float).itemsize * metrics._PASS_NODES


def test_quadrature_error_well_under_tolerance_near_the_kink():
    # short interval straddling the plateau edge, where curvature peaks
    got = integrate(ADF, 1.95, 2.4)
    expected = constant_fovea_integral(30.0, 75.0, 2.0, 1.95, 2.4)
    assert got == pytest.approx(expected, rel=1e-6)


def test_decomposition_identity_on_a_bundled_display():
    from support import DifferenceCurve

    rdf = build_rdf(load_bundled_spec("varjo_vr1"))
    deficit = pixel_deficit(rdf, ADF, 0.0, 50.0)
    waste = pixel_waste(rdf, ADF, 0.0, 50.0)
    diff = integrate(DifferenceCurve(rdf, ADF), 0.0, 50.0)
    assert waste - deficit == pytest.approx(diff, rel=1e-6, abs=1e-9)


def test_vive_has_nonzero_foveal_deficit():
    rdf = build_rdf(load_bundled_spec("vive"))
    assert pixel_deficit(rdf, ADF, 0.0, 2.0) > 40.0


def test_quadrature_nodes_respect_breakpoints():
    # a pure step integrates exactly because the step edge is a panel boundary
    rdf = build_rdf(load_bundled_spec("varjo_vr1"))
    assert integrate(rdf, 0.0, 50.0) == pytest.approx(16 * 30.0 + 34 * 7.2, rel=1e-12)


def test_integrate_accepts_numpy_scalars():
    assert integrate(ADF, np.float64(0.0), np.float64(2.0)) == pytest.approx(60.0, rel=1e-12)
