import pytest

from fovkit import (
    DisplaySpec,
    Tier,
    build_rdf,
    bundled_spec_names,
    cpd_to_dpi,
    integrate,
    load_bundled_spec,
    make_adf,
    pixel_deficit,
    pixel_waste,
    rdf_efficiency,
    serialize_display_spec,
)
from fovkit.cli import main

ACUITIES = ("20/10", "20/15", "20/20", "20/30", "20/40", "20/80", "20/200")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_snellen_to_cpd(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--snellen", "20/20")
        assert code == 0
        assert out == "30.0 cpd\n"

    def test_half_acuity(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--snellen", "20/40")
        assert code == 0
        assert out == "15.0 cpd\n"

    def test_with_distance(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--snellen", "20/20", "--distance-in", "24")
        assert code == 0
        assert "30.0 cpd" in out
        assert "143.2 dpi" in out

    @pytest.mark.parametrize("distance", ["24", "1e308"])
    def test_printed_dpi_reads_back_as_the_result(self, capsys, distance):
        # 1e308 in gives about 3.4e-305 dpi, which used to print as "0.0 dpi".
        code, out, _ = run_cli(capsys, "convert", "--snellen", "20/20", "--distance-in", distance)
        assert code == 0
        printed = float(out.splitlines()[1].removesuffix(" dpi"))
        assert printed == pytest.approx(cpd_to_dpi(30.0, float(distance)), rel=0.01)

    def test_malformed_fraction_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["convert", "--snellen", "twenty-twenty"])
        assert e.value.code == 2

    def test_missing_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["convert"])
        assert e.value.code == 2

    def test_nonpositive_distance_is_a_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--snellen", "20/20", "--distance-in", "-3")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("distance", ["inf", "nan"])
    def test_non_finite_distance_is_a_domain_error(self, capsys, distance):
        # inf used to print "0.0 dpi" and exit 0.
        code, out, err = run_cli(capsys, "convert", "--snellen", "20/20", "--distance-in", distance)
        assert code == 1
        assert out == ""
        assert "error: viewing distance must be > 0 and finite" in err

    def test_overflowing_fraction_is_a_usage_error(self, capsys):
        # Its inf cpd used to end in a ZeroDivisionError traceback; like every
        # fraction the parser rejects, it now fails argument parsing.
        with pytest.raises(SystemExit) as e:
            main(["convert", "--snellen", "1e300/1e-300", "--distance-in", "24"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid parse_snellen value: '1e300/1e-300'" in captured.err


class TestCurves:
    def test_writes_csv_with_expected_grid(self, capsys, tmp_path):
        out = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys,
            "curves",
            "--acuity", "20/20",
            "--adf-model", "constant-fovea",
            "--range", "0:80",
            "--step", "0.5",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eccentricity_deg,adf_constant-fovea_20_20"
        assert len(lines) == 162  # header + 161 samples
        assert lines[1].startswith("0.000000,30.000000")

    def test_tracking_error_family(self, capsys, tmp_path):
        out = tmp_path / "family.csv"
        argv = ["curves", "--acuity", "20/20", "--range", "0:80", "--step", "0.5",
                "--out", str(out)]
        for err in range(1, 11):
            argv += ["--fov-error", str(err)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.count("adf_") == 10
        assert "err10" in header

    def test_model_comparison_and_spec_overlay(self, capsys, tmp_path):
        out = tmp_path / "cmp.csv"
        code, _, _ = run_cli(
            capsys,
            "curves",
            "--acuity", "20/20", "--acuity", "20/40",
            "--adf-model", "constant-fovea", "--adf-model", "slope",
            "--spec", "varjo_vr1",
            "--range", "0:50", "--step", "1",
            "--out", str(out),
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.count("adf_") == 4
        assert "rdf_varjo_vr1" in header

    def test_output_is_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "curves", "--acuity", "20/30", "--range", "0:30",
                    "--step", "0.25", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_model_parameters_change_the_samples(self, capsys, tmp_path):
        default, custom = tmp_path / "d.csv", tmp_path / "c.csv"
        base = ["curves", "--acuity", "20/20", "--range", "0:20", "--step", "1"]
        run_cli(capsys, *base, "--out", str(default))
        code, _, _ = run_cli(capsys, *base, "--e0", "0", "--slope", "40", "--out", str(custom))
        assert code == 0
        d_rows = default.read_text().splitlines()
        c_rows = custom.read_text().splitlines()
        assert d_rows[1] == c_rows[1]  # on axis both say 30 cpd
        assert d_rows[10] != c_rows[10]  # off axis they differ

    def test_reversed_range_is_a_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "curves", "--acuity", "20/20", "--range", "80:0", "--step", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("bounds", ["0:inf", "nan:10"])
    def test_non_finite_range_is_a_domain_error(self, capsys, tmp_path, bounds):
        code, _, err = run_cli(
            capsys, "curves", "--acuity", "20/20", "--range", bounds, "--step", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "must be finite" in err

    def test_no_curves_requested(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "curves", "--range", "0:30", "--step", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "nothing to sample" in err


class TestMetrics:
    def test_brute_force_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "metrics", "--spec", "uniform_30cpd_80deg", "--acuity", "20/20"
        )
        assert code == 0
        assert "cycle count: 2400.000000" in out
        fields = dict(
            line.split(": ") for line in out.strip().splitlines() if ": " in line
        )
        assert abs(float(fields["rdf efficiency"]) - 0.135) < 0.005

    def test_vive_has_foveal_deficit(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--spec", "vive", "--acuity", "20/20")
        assert code == 0
        foveal = [l for l in out.splitlines() if l.startswith("foveal deficit")][0]
        assert float(foveal.rsplit(": ", 1)[1]) > 40.0

    def test_explicit_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "metrics", "--spec", "uniform_30cpd_80deg", "--acuity", "20/20",
            "--range", "0:40",
        )
        assert code == 0
        assert "cycle count: 1200.000000" in out

    def test_spec_file_path(self, capsys, tmp_path):
        from fovkit import bundled_spec_text

        path = tmp_path / "copy.spec.json"
        path.write_text(bundled_spec_text("vive_pro"))
        code, out, _ = run_cli(capsys, "metrics", "--spec", str(path), "--acuity", "20/20")
        assert code == 0
        assert "display: vive_pro" in out

    def test_slope_model_changes_the_numbers(self, capsys):
        outputs = {}
        for model in ("constant-fovea", "slope"):
            code, out, _ = run_cli(
                capsys, "metrics", "--spec", "uniform_30cpd_80deg", "--acuity", "20/20",
                "--adf-model", model,
            )
            assert code == 0
            outputs[model] = out
        assert "(slope)" in outputs["slope"]
        # the slope model concedes less acuity in the periphery, so a uniform
        # panel wastes more cycles against it
        waste = {
            m: float([l for l in o.splitlines() if l.startswith("pixel waste")][0].rsplit(": ", 1)[1])
            for m, o in outputs.items()
        }
        assert waste["slope"] > waste["constant-fovea"]


    def test_non_finite_range_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "metrics", "--spec", "vive", "--acuity", "20/20", "--range", "0:inf"
        )
        assert code == 1
        assert out == ""
        assert "integration range must be finite" in err

    def test_non_finite_plateau_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "metrics", "--spec", "vive", "--acuity", "20/20", "--e0", "nan"
        )
        assert code == 1
        assert out == ""
        assert "fovea_deg must be finite" in err


class TestClassify:
    def test_bundled_batch_matches_the_reference_classes(self, capsys):
        argv = ["classify", "--acuity", "20/20"]
        for name in ("vive", "vive_pro", "hololens", "varjo_vr1", "kim"):
            argv += ["--spec", name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        for line in (
            "vive: 20/20 D4",
            "vive_pro: 20/20 C4",
            "hololens: 20/20 D4",
            "varjo_vr1: 20/20 A3",
            "kim: 20/20 B2",
        ):
            assert line in out
        assert "config:" in out
        assert "rdf efficiency:" in out
        assert "cycle count:" in out

    def test_machine_lines_preserve_argument_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", "kim", "--spec", "vive"
        )
        assert code == 0
        assert out.index("kim: 20/20 B2") < out.index("vive: 20/20 D4")

    def test_low_acuity_warning_appears_in_the_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--acuity", "20/200", "--spec", "vive")
        assert code == 0
        assert "warning:" in out
        assert "vive: 20/200 A" in out  # letter improves at low acuity

    def test_threshold_overrides_change_the_outcome(self, capsys):
        # Accepting a 15 deg half field removes the edge artifact that makes
        # the narrow-field design class D; its periphery is otherwise clean.
        code, out, _ = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", "hololens",
            "--min-full-field-half-angle", "15",
        )
        assert code == 0
        assert "hololens: 20/20 C4" in out

    def test_tracking_error_flag_degrades_the_gaze_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", "varjo_vr1",
            "--fov-error", "3",
        )
        assert code == 0
        assert "varjo_vr1: 20/20 A4" in out

    def test_scan_sees_the_gap_just_right_of_a_profile_jump(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", "varjo_vr1", "--adf-model", "slope"
        )
        assert code == 0
        assert "gaze class: 3 (invariance range 8.4 deg)" in out.splitlines()

    def test_last_gaze_step_checks_the_end_of_the_range(self, capsys, tmp_path):
        # 0.3 does not divide the 25 deg range: gaze 25 itself must be checked.
        path = tmp_path / "u.spec.json"
        path.write_text(serialize_display_spec(DisplaySpec("u", (Tier(30.0, 39.95),))))
        code, out, _ = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", str(path), "--gaze-scan-step", "0.3"
        )
        assert code == 0
        assert "gaze class: 2 (invariance range 24.9 deg)" in out.splitlines()

    def test_duplicate_key_in_a_spec_file_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "dup.spec.json"
        path.write_text(
            '{"name": "x", "tiers": [{"resolution_cpd": 30, "half_fov_deg": 20,'
            ' "half_fov_deg": 40}]}'
        )
        code, out, err = run_cli(capsys, "classify", "--acuity", "20/20", "--spec", str(path))
        assert code == 1
        assert out == ""
        assert "duplicate key 'half_fov_deg'" in err

    def test_missing_spec_file_names_the_path(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", "/nope/missing.spec.json"
        )
        assert code == 1
        assert "/nope/missing.spec.json" in err

    def test_non_finite_threshold_is_a_domain_error(self, capsys):
        # NaN would otherwise pass every check and grade kim B1 instead of B2.
        code, out, err = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", "kim", "--noticeability-tol", "nan"
        )
        assert code == 1
        assert out == ""
        assert "noticeability_tol must be finite" in err

    @pytest.mark.parametrize(
        "flag, field", [("--e0", "fovea_deg"), ("--fov-error", "foveation_error_deg")]
    )
    def test_non_finite_acuity_model_is_a_domain_error(self, capsys, flag, field):
        # NaN here used to grade kim D1 instead of B2 and exit 0.
        code, out, err = run_cli(
            capsys, "classify", "--acuity", "20/20", "--spec", "kim", flag, "nan"
        )
        assert code == 1
        assert out == ""
        assert f"{field} must be finite" in err

    @pytest.mark.parametrize("name", bundled_spec_names())
    @pytest.mark.parametrize("acuity", ACUITIES)
    def test_metrics_lines_are_the_standalone_metrics(self, capsys, name, acuity):
        code, out, _ = run_cli(capsys, "classify", "--acuity", acuity, "--spec", name)
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        rdf = build_rdf(load_bundled_spec(name))
        adf = make_adf("constant-fovea", acuity)
        edge = rdf.extent_deg
        assert lines["cycle count"] == f"{integrate(rdf, 0.0, edge):.6f}"
        assert lines["pixel deficit"] == f"{pixel_deficit(rdf, adf, 0.0, edge):.6f}"
        assert lines["pixel waste"] == f"{pixel_waste(rdf, adf, 0.0, edge):.6f}"
        assert lines["rdf efficiency"] == f"{rdf_efficiency(rdf, adf, 0.0, edge):.6f}"
        foveal = pixel_deficit(rdf, adf, 0.0, 2.0)
        peripheral = pixel_deficit(rdf, adf, min(10.0, edge), edge)
        assert (
            f"(foveal deficit {foveal:.6f}, peripheral deficit {peripheral:.6f}, "
            in lines["resolution class"]
        )

    def test_output_is_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "classify", "--acuity", "20/20", "--spec", "varjo_vr1")
            runs.append(out)
        assert runs[0] == runs[1]
