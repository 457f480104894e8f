"""Two-axis display classification.

The letter grades resolution matching against an acuity model: A meets the
target everywhere, B only in the fovea, C only in the periphery, D in
neither.  B and C are distinguished, not ranked.  The digit grades gaze
behaviour by how far the user can look before the perceived, acuity-clamped
profile changes noticeably: 1 across the full range of gaze, 2 across a
practical range, 3 across a small range, 4 almost immediately.

Every threshold the grading depends on lives in :class:`ClassifierConfig`;
the defaults are a calibration, and results should always be reported
together with the acuity they were evaluated at.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, fields

from .acuity import (
    CONSTANT_FOVEA,
    DEFAULT_FOVEA_DEG,
    AcuityModel,
    SnellenFraction,
    make_adf,
    _as_fraction,
)
from .display import DisplaySpec, build_rdf, gaze_invariance_range
from .metrics import MetricsReport, metrics_report

RESOLUTION_CLASSES = ("A", "B", "C", "D")
GAZE_CLASSES = (1, 2, 3, 4)

# Acuity fractions considered practical for evaluating mass-market designs.
PRACTICAL_ACUITY_RANGE = (0.5, 2.0)

# Most gaze steps a config may ask the invariance scan for; the defaults ask for 250.
MAX_GAZE_SCAN_STEPS = 100_000


class AcuityRangeWarning(UserWarning):
    """Evaluation acuity outside the practical 20/40..20/10 range."""


@dataclass(frozen=True)
class ClassifierConfig:
    """All thresholds of the classifier, in degrees, cycles and cpd."""

    fovea_boundary: float = 2.0
    periphery_start: float = 10.0
    min_full_field_half_angle: float = 50.0
    peripheral_deficit_tol: float = 0.5
    foveal_deficit_tol: float = 1e-9
    noticeability_tol: float = 0.25
    invariance_extent: float = 15.0
    gaze_scan_step: float = 0.1
    class4_bound: float = 5.0
    class3_bound: float = 15.0
    full_gaze_range: float = 25.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not 0 < self.class4_bound < self.class3_bound < self.full_gaze_range:
            raise ValueError(
                "gaze-class bounds must satisfy 0 < class4 < class3 < full range, got "
                f"{self.class4_bound!r} / {self.class3_bound!r} / {self.full_gaze_range!r}"
            )
        for name in ("peripheral_deficit_tol", "foveal_deficit_tol", "noticeability_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("fovea_boundary", "periphery_start", "invariance_extent", "gaze_scan_step"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        steps = self.full_gaze_range / self.gaze_scan_step
        if steps > MAX_GAZE_SCAN_STEPS:
            raise ValueError(
                f"gaze_scan_step implies {steps:.3g} scan steps, over {MAX_GAZE_SCAN_STEPS:,}"
            )
        if self.min_full_field_half_angle < 0:
            raise ValueError(
                f"min_full_field_half_angle must be >= 0, got {self.min_full_field_half_angle!r}"
            )


@dataclass(frozen=True)
class ResolutionEvidence:
    """The letter's inputs: metrics at the config's region boundaries, and the edge check."""

    report: MetricsReport
    edge_artifact: bool
    foveal_match: bool
    peripheral_clean: bool

    @property
    def foveal_deficit(self) -> float:
        return self.report.foveal_deficit

    @property
    def peripheral_deficit(self) -> float:
        return self.report.peripheral_deficit


@dataclass(frozen=True)
class ClassificationEvidence(ResolutionEvidence):
    """The letter grade's evidence plus the gaze-invariance range behind the digit."""

    gaze_invariance_range: float


@dataclass(frozen=True)
class ClassificationResult:
    acuity_label: str
    resolution_class: str
    gaze_class: int
    combined: str
    evidence: ClassificationEvidence


def resolution_class(
    spec: DisplaySpec, adf: AcuityModel, cfg: ClassifierConfig | None = None
) -> tuple[str, ResolutionEvidence]:
    """Letter grade plus the metrics report and edge check it was derived from."""
    cfg = cfg or ClassifierConfig()
    rdf = build_rdf(spec)
    report = metrics_report(rdf, adf, fovea_boundary_deg=cfg.fovea_boundary,
                            periphery_start_deg=cfg.periphery_start)
    edge_artifact = rdf.extent_deg < cfg.min_full_field_half_angle
    foveal_match = report.foveal_deficit <= cfg.foveal_deficit_tol
    peripheral_clean = report.peripheral_deficit <= cfg.peripheral_deficit_tol and not edge_artifact
    if foveal_match:
        letter = "A" if peripheral_clean else "B"
    else:
        letter = "C" if peripheral_clean else "D"
    return letter, ResolutionEvidence(
        report=report,
        edge_artifact=edge_artifact,
        foveal_match=foveal_match,
        peripheral_clean=peripheral_clean,
    )


def gaze_class(
    spec: DisplaySpec, adf: AcuityModel, cfg: ClassifierConfig | None = None
) -> tuple[int, float]:
    """Digit grade plus the gaze-invariance range it was derived from."""
    cfg = cfg or ClassifierConfig()
    reach = gaze_invariance_range(spec, adf, cfg)
    if reach < cfg.class4_bound:
        digit = 4
    elif reach < cfg.class3_bound:
        digit = 3
    elif reach < cfg.full_gaze_range:
        digit = 2
    else:
        digit = 1
    return digit, reach


def classify(
    spec: DisplaySpec,
    acuity: SnellenFraction | str,
    cfg: ClassifierConfig | None = None,
    *,
    kind: str = CONSTANT_FOVEA,
    fovea_deg: float = DEFAULT_FOVEA_DEG,
    slope: float | None = None,
    foveation_error_deg: float = 0.0,
) -> ClassificationResult:
    """Combined label (e.g. ``"20/20 A3"``) for a display at a given acuity."""
    cfg = cfg or ClassifierConfig()
    fraction = _as_fraction(acuity)
    lo, hi = PRACTICAL_ACUITY_RANGE
    if not lo <= fraction.value() <= hi:
        warnings.warn(
            f"acuity {fraction} is outside the practical evaluation range 20/40..20/10; "
            "the grade may not transfer to typical users",
            AcuityRangeWarning,
            stacklevel=2,
        )
    adf = make_adf(
        kind, fraction, fovea_deg=fovea_deg, slope=slope, foveation_error_deg=foveation_error_deg
    )
    letter, res_evidence = resolution_class(spec, adf, cfg)
    digit, reach = gaze_class(spec, adf, cfg)
    label = str(fraction)
    return ClassificationResult(
        acuity_label=label,
        resolution_class=letter,
        gaze_class=digit,
        combined=f"{label} {letter}{digit}",
        evidence=ClassificationEvidence(**vars(res_evidence), gaze_invariance_range=reach),
    )


_LABEL_RE = re.compile(r"^\s*(\S+)\s+([ABCD])([1-4])\s*$")


def parse_combined_label(text: str) -> tuple[SnellenFraction, str, int]:
    """Split a combined label back into acuity fraction, letter and digit."""
    m = _LABEL_RE.match(text)
    if m is None:
        raise ValueError(f"not a combined classification label: {text!r}")
    fraction = _as_fraction(m.group(1))
    return fraction, m.group(2), int(m.group(3))
