"""fovkit: acuity falloff models, display resolution profiles, provisioning
metrics and a two-axis classification for displays whose resolution varies
across the visual field."""

from .acuity import (
    ADF_KINDS,
    ALT_ROLLOFF_PER_DEG,
    CONSTANT_FOVEA,
    DEFAULT_FOVEA_DEG,
    DEFAULT_ROLLOFF_CPD_PER_DEG,
    DEFAULT_ROLLOFF_PER_DEG,
    SLOPE,
    SNELLEN_BASELINE_CPD,
    AcuityModel,
    SnellenFraction,
    SnellenParseError,
    cpd_to_dpi,
    inflate_for_foveation_error,
    make_adf,
    parse_snellen,
    snellen_to_cpd,
)
from .classify import (
    GAZE_CLASSES,
    PRACTICAL_ACUITY_RANGE,
    RESOLUTION_CLASSES,
    AcuityRangeWarning,
    ClassificationEvidence,
    ClassificationResult,
    ClassifierConfig,
    ResolutionEvidence,
    classify,
    gaze_class,
    parse_combined_label,
    resolution_class,
)
from .display import (
    DisplaySpec,
    DisplaySpecError,
    OffAxisDegradation,
    ProfileSegment,
    ResolutionProfile,
    Tier,
    build_rdf,
    gaze_invariance_range,
    perceived_profile,
)
from .metrics import (
    EfficiencyUndefinedError,
    MetricsReport,
    integrate,
    metrics_report,
    optimal_blend_width,
    pixel_deficit,
    pixel_waste,
    rdf_efficiency,
)
from .specio import (
    CurveTable,
    SpecFileError,
    bundled_spec_names,
    bundled_spec_text,
    emit_curves,
    load_bundled_spec,
    load_display_spec,
    parse_display_spec,
    serialize_display_spec,
)

__version__ = "0.1.0"
