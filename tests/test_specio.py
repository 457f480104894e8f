import math

import pytest

from fovkit import (
    DisplaySpec,
    build_rdf,
    DisplaySpecError,
    SpecFileError,
    Tier,
    bundled_spec_names,
    emit_curves,
    load_bundled_spec,
    make_adf,
    parse_display_spec,
    serialize_display_spec,
)
from fovkit.specio import MAX_CURVE_ROWS


class TestParse:
    def test_bundled_vive(self):
        spec = load_bundled_spec("vive")
        assert spec.name == "vive"
        assert len(spec.tiers) == 1
        assert spec.tiers[0].resolution_cpd == 5.4
        assert spec.tiers[0].half_fov_deg == 50.0
        assert spec.degradation.kind == "piecewise-linear"

    def test_bundled_names(self):
        assert set(bundled_spec_names()) == {
            "vive",
            "vive_pro",
            "hololens",
            "varjo_vr1",
            "kim",
            "uniform_30cpd_80deg",
        }

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError, match="no bundled display spec"):
            load_bundled_spec("rift")

    def test_defaults_are_optional(self):
        spec = parse_display_spec(
            '{"name": "mini", "tiers": [{"resolution_cpd": 12, "half_fov_deg": 20}]}'
        )
        assert spec.tiers[0].steerable is False
        assert spec.tiers[0].blend_width_deg == 0.0
        assert spec.degradation.kind == "none"
        assert spec.notes == ""

    def test_syntax_error_reports_line_and_column(self):
        with pytest.raises(SpecFileError, match=r"syntax error at line 2, column"):
            parse_display_spec('{\n  "name": }')

    def test_unknown_key_reports_location(self):
        with pytest.raises(SpecFileError, match=r"unknown key 'fov' at \$\.tiers\[0\]"):
            parse_display_spec(
                '{"name": "x", "tiers": [{"resolution_cpd": 1, "half_fov_deg": 2, "fov": 3}]}'
            )
        with pytest.raises(SpecFileError, match=r"unknown key 'color' at \$"):
            parse_display_spec('{"name": "x", "tiers": [], "color": "red"}')

    def test_missing_keys_are_schema_errors(self):
        with pytest.raises(SpecFileError, match="missing key 'tiers'"):
            parse_display_spec('{"name": "x"}')
        with pytest.raises(SpecFileError, match=r"missing key 'half_fov_deg' at \$\.tiers\[0\]"):
            parse_display_spec('{"name": "x", "tiers": [{"resolution_cpd": 1}]}')

    def test_empty_tiers_is_a_schema_error(self):
        with pytest.raises(SpecFileError, match="at least one tier"):
            parse_display_spec('{"name": "x", "tiers": []}')

    def test_wrong_types_are_schema_errors(self):
        with pytest.raises(SpecFileError, match=r"wrong type at \$\.tiers\[0\]\.resolution_cpd"):
            parse_display_spec(
                '{"name": "x", "tiers": [{"resolution_cpd": true, "half_fov_deg": 2}]}'
            )
        with pytest.raises(SpecFileError, match=r"wrong type at \$\.name"):
            parse_display_spec('{"name": 5, "tiers": [{"resolution_cpd": 1, "half_fov_deg": 2}]}')

    def test_invariant_violations_name_the_invariant(self):
        with pytest.raises(DisplaySpecError, match="resolution must be > 0"):
            parse_display_spec(
                '{"name": "x", "tiers": [{"resolution_cpd": -4, "half_fov_deg": 2}]}'
            )

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"name": "x", "tiers": [{"resolution_cpd": 1, "half_fov_deg": 2}], "tiers": []}',
             "tiers"),
            ('{"name": "x", "tiers": [{"resolution_cpd": 1, "half_fov_deg": 2, "half_fov_deg": 3}]}',
             "half_fov_deg"),
        ],
    )
    def test_duplicate_keys_are_rejected(self, text, key):
        with pytest.raises(SpecFileError, match=f"duplicate key '{key}'"):
            parse_display_spec(text)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_numbers_are_rejected(self, token):
        with pytest.raises(SpecFileError, match=f"non-standard JSON number '{token}'"):
            parse_display_spec(
                f'{{"name": "x", "tiers": [{{"resolution_cpd": 1, "half_fov_deg": {token}}}]}}'
            )

    def test_unknown_degradation_kind(self):
        with pytest.raises(SpecFileError, match="unknown degradation kind"):
            parse_display_spec(
                '{"name": "x", "tiers": [{"resolution_cpd": 1, "half_fov_deg": 2}],'
                ' "degradation": {"kind": "quadratic"}}'
            )


class TestSerialize:
    def test_round_trip_every_bundled_spec(self):
        for name in bundled_spec_names():
            spec = load_bundled_spec(name)
            assert parse_display_spec(serialize_display_spec(spec)) == spec

    def test_serializer_emits_defaults_explicitly(self):
        spec = DisplaySpec(name="mini", tiers=(Tier(resolution_cpd=12.0, half_fov_deg=20.0),))
        text = serialize_display_spec(spec)
        assert '"steerable": false' in text
        assert '"steer_range_deg": 0.0' in text
        assert '"blend_width_deg": 0.0' in text
        assert '"kind": "none"' in text
        assert '"notes": ""' in text

    def test_serialization_is_canonical(self):
        spec = load_bundled_spec("varjo_vr1")
        once = serialize_display_spec(spec)
        again = serialize_display_spec(parse_display_spec(once))
        assert once == again


class TestEmitCurves:
    def test_grid_row_count(self):
        adf = make_adf("constant-fovea", "20/20")
        table = emit_curves([("adf", adf)], 0.0, 80.0, 0.5)
        assert len(table.rows) == 161
        assert table.columns == ("eccentricity_deg", "adf")
        assert table.rows[0][0] == 0.0
        assert table.rows[-1][0] == pytest.approx(80.0)

    def test_two_curves_share_the_grid(self):
        adf = make_adf("constant-fovea", "20/20")
        rdf = build_rdf(load_bundled_spec("varjo_vr1"))
        table = emit_curves([("adf", adf), ("rdf", rdf)], 0.0, 50.0, 1.0)
        assert table.columns == ("eccentricity_deg", "adf", "rdf")
        assert all(len(row) == 3 for row in table.rows)

    def test_model_family_columns(self):
        curves = []
        for label in ("20/10", "20/20", "20/30", "20/40"):
            for kind in ("constant-fovea", "slope"):
                curves.append((f"{kind}_{label}", make_adf(kind, label)))
        table = emit_curves(curves, 0.0, 80.0, 0.5)
        assert len(table.columns) == 9

    def test_csv_is_deterministic(self):
        adf = make_adf("slope", "20/20")
        a = emit_curves([("a", adf)], 0.0, 10.0, 0.1).to_csv()
        b = emit_curves([("a", adf)], 0.0, 10.0, 0.1).to_csv()
        assert a == b
        assert a.endswith("\n") and "\r" not in a
        assert a.splitlines()[0] == "eccentricity_deg,a"

    def test_empty_curve_list_rejected(self):
        with pytest.raises(ValueError, match="no curves"):
            emit_curves([], 0.0, 10.0, 0.1)

    def test_bad_step_rejected(self):
        adf = make_adf("slope", "20/20")
        with pytest.raises(ValueError, match="step"):
            emit_curves([("a", adf)], 0.0, 10.0, 0.0)

    @pytest.mark.parametrize(
        "start, stop, step",
        [(0.0, math.inf, 1.0), (math.nan, 10.0, 1.0), (0.0, 10.0, math.inf), (0.0, 10.0, math.nan)],
    )
    def test_non_finite_grid_rejected(self, start, stop, step):
        adf = make_adf("slope", "20/20")
        with pytest.raises(ValueError, match="must be finite"):
            emit_curves([("a", adf)], start, stop, step)

    def test_row_cap(self):
        # Validation only: the curve fails on its first evaluation, so a grid
        # that passes the cap is never sampled.
        class Unevaluable:
            def eval_many(self, xs):
                raise LookupError(f"passed validation with {len(xs)} rows")

        with pytest.raises(LookupError, match=f"with {MAX_CURVE_ROWS} rows"):
            emit_curves([("a", Unevaluable())], 0.0, MAX_CURVE_ROWS - 1.0, 1.0)
        with pytest.raises(ValueError, match="rows, over 1,000,000"):
            emit_curves([("a", Unevaluable())], 0.0, float(MAX_CURVE_ROWS), 1.0)
        with pytest.raises(ValueError, match="8e\\+10 rows"):
            emit_curves([("a", Unevaluable())], 0.0, 80.0, 1e-9)
