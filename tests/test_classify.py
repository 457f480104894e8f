import dataclasses
import math
import warnings

import pytest

from fovkit import (
    AcuityRangeWarning,
    ClassificationEvidence,
    ClassifierConfig,
    DisplaySpec,
    ResolutionEvidence,
    Tier,
    build_rdf,
    classify,
    gaze_class,
    load_bundled_spec,
    make_adf,
    metrics_report,
    parse_combined_label,
    parse_snellen,
    resolution_class,
)
from fovkit.classify import MAX_GAZE_SCAN_STEPS

ADF_2020 = make_adf("constant-fovea", "20/20")

TABLE_ROWS = {
    "vive": "D4",
    "vive_pro": "C4",
    "hololens": "D4",
    "varjo_vr1": "A3",
    "kim": "B2",
}


def test_config_defaults_are_ordered():
    cfg = ClassifierConfig()
    assert cfg.class4_bound < cfg.class3_bound < cfg.full_gaze_range
    assert cfg.periphery_start == 10.0
    assert cfg.min_full_field_half_angle == 50.0


def test_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ClassifierConfig(class4_bound=20.0, class3_bound=15.0)
    with pytest.raises(ValueError):
        ClassifierConfig(noticeability_tol=-0.1)
    with pytest.raises(ValueError):
        ClassifierConfig(gaze_scan_step=0.0)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ClassifierConfig)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(name, value):
    # A NaN tolerance would make every comparison of the gaze scan false.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ClassifierConfig(**{name: value})


def test_config_caps_the_gaze_scan_steps():
    # Validation only: a config is never scanned here.
    cfg = ClassifierConfig(gaze_scan_step=25.0 / MAX_GAZE_SCAN_STEPS)
    assert cfg.full_gaze_range / cfg.gaze_scan_step == MAX_GAZE_SCAN_STEPS
    with pytest.raises(ValueError, match="scan steps, over 100,000"):
        ClassifierConfig(gaze_scan_step=25.0 / (MAX_GAZE_SCAN_STEPS + 1))
    with pytest.raises(ValueError, match="2.5e\\+10 scan steps"):
        ClassifierConfig(gaze_scan_step=1e-9)


class TestResolutionClass:
    def test_bundled_letters_at_normal_acuity(self):
        expected = {name: combined[0] for name, combined in TABLE_ROWS.items()}
        for name, letter in expected.items():
            got, _ = resolution_class(load_bundled_spec(name), ADF_2020)
            assert got == letter, name

    def test_edge_artifact_drives_hololens_to_d(self):
        _, ev = resolution_class(load_bundled_spec("hololens"), ADF_2020)
        assert ev.edge_artifact
        assert ev.peripheral_deficit == 0.0
        assert not ev.foveal_match

    def test_low_acuity_uniform_display_is_matched(self):
        spec = DisplaySpec(name="u", tiers=(Tier(resolution_cpd=15.0, half_fov_deg=50.0),))
        letter, ev = resolution_class(spec, make_adf("constant-fovea", "20/40"))
        assert letter == "A"
        assert ev.foveal_match and ev.peripheral_clean


class TestGazeClass:
    def test_bundled_digits_at_normal_acuity(self):
        expected = {name: int(combined[1]) for name, combined in TABLE_ROWS.items()}
        for name, digit in expected.items():
            got, reach = gaze_class(load_bundled_spec(name), ADF_2020)
            assert got == digit, (name, reach)

    def test_wide_uniform_display_is_class_one(self):
        cfg = ClassifierConfig()
        spec = DisplaySpec(
            name="u",
            tiers=(
                Tier(
                    resolution_cpd=30.0,
                    half_fov_deg=cfg.invariance_extent + cfg.full_gaze_range,
                ),
            ),
        )
        digit, reach = gaze_class(spec, ADF_2020, cfg)
        assert digit == 1
        assert reach == cfg.full_gaze_range


class TestClassify:
    def test_table_of_bundled_designs(self):
        for name, combined in TABLE_ROWS.items():
            result = classify(load_bundled_spec(name), "20/20")
            assert result.combined == f"20/20 {combined}", name

    def test_evidence_is_consistent_with_the_classes(self):
        result = classify(load_bundled_spec("varjo_vr1"), "20/20")
        cfg = ClassifierConfig()
        ev = result.evidence
        assert ev.foveal_deficit <= cfg.foveal_deficit_tol
        assert ev.peripheral_deficit <= cfg.peripheral_deficit_tol
        assert not ev.edge_artifact
        assert cfg.class4_bound <= ev.gaze_invariance_range < cfg.class3_bound

    @pytest.mark.parametrize("name", TABLE_ROWS)
    def test_evidence_carries_the_metrics_report_of_one_computation(self, name):
        spec = load_bundled_spec(name)
        cfg = ClassifierConfig(fovea_boundary=3.0, periphery_start=12.0)
        result = classify(spec, "20/30", cfg)
        fresh = metrics_report(
            build_rdf(spec),
            make_adf("constant-fovea", "20/30"),
            fovea_boundary_deg=3.0,
            periphery_start_deg=12.0,
        )
        ev = result.evidence
        assert ev.report == fresh
        assert ev.foveal_deficit == fresh.foveal_deficit
        assert ev.peripheral_deficit == fresh.peripheral_deficit
        _, res_ev = resolution_class(spec, make_adf("constant-fovea", "20/30"), cfg)
        assert isinstance(ev, ResolutionEvidence)
        assert ev == ClassificationEvidence(
            **vars(res_ev), gaze_invariance_range=ev.gaze_invariance_range
        )

    def test_low_acuity_reclassifies_a_panel_upward(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AcuityRangeWarning)
            result = classify(load_bundled_spec("vive"), "20/200")
        assert result.resolution_class in ("A", "B")
        assert result.gaze_class in (2, 3)

    def test_out_of_range_acuity_warns_but_classifies(self):
        with pytest.warns(AcuityRangeWarning):
            result = classify(load_bundled_spec("vive"), "20/200")
        assert result.combined.startswith("20/200 ")
        with pytest.warns(AcuityRangeWarning):
            classify(load_bundled_spec("vive"), "20/5")

    def test_practical_range_endpoints_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AcuityRangeWarning)
            classify(load_bundled_spec("hololens"), "20/40")
            classify(load_bundled_spec("hololens"), "20/10")

    def test_accepts_fraction_objects(self):
        result = classify(load_bundled_spec("vive"), parse_snellen("20/20"))
        assert result.combined == "20/20 D4"

    def test_tracking_error_shrinks_a_static_insets_gaze_range(self):
        spec = load_bundled_spec("varjo_vr1")
        base = classify(spec, "20/20")
        sloppy = classify(spec, "20/20", foveation_error_deg=3.0)
        assert base.combined == "20/20 A3"
        assert sloppy.combined == "20/20 A4"
        assert (
            sloppy.evidence.gaze_invariance_range < base.evidence.gaze_invariance_range
        )

    def test_tracking_error_is_absorbed_by_a_steered_inset(self):
        spec = load_bundled_spec("kim")
        base = classify(spec, "20/20")
        sloppy = classify(spec, "20/20", foveation_error_deg=5.0)
        assert base.gaze_class == sloppy.gaze_class == 2
        # the widened acuity target still costs cycles in the surround
        assert sloppy.evidence.peripheral_deficit > base.evidence.peripheral_deficit


class TestCombinedLabel:
    def test_round_trip(self):
        for name in TABLE_ROWS:
            result = classify(load_bundled_spec(name), "20/20")
            fraction, letter, digit = parse_combined_label(result.combined)
            assert str(fraction) == result.acuity_label
            assert letter == result.resolution_class
            assert digit == result.gaze_class

    def test_rejects_malformed_labels(self):
        for bad in ("20/20", "20/20 E3", "20/20 A5", "A3"):
            with pytest.raises(ValueError):
                parse_combined_label(bad)
