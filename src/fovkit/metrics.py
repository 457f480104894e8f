"""Quadrature over resolution curves and pixel-provisioning metrics.

Integrals use the composite trapezoid rule with any breakpoints of the
integrand inserted as panel boundaries, so piecewise-linear profiles
integrate exactly.  The fixed panel width of 0.0025 degrees keeps even
short intervals hugging a falloff kink (where curvature peaks) inside 1e-6
relative error against the closed forms.

The provisioning metrics compare a display profile against an acuity model
over a 1D eccentricity slice: *deficit* is the integral of the shortfall
where the display under-serves the user, *waste* the integral of the excess
where it over-serves, and *efficiency* is one minus waste over the display's
total cycle count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .display import ProfileSegment, ResolutionProfile

DEFAULT_QUADRATURE_STEP_DEG = 0.0025
# Most nodes one quadrature may use: a range of 2,500 degrees.
MAX_QUADRATURE_NODES = 1_000_000
# Most candidate widths one optimal_blend_width call may integrate.
MAX_BLEND_CANDIDATES = 10_000

_EPS = 1e-12


class EfficiencyUndefinedError(ValueError):
    """Raised when efficiency is requested over a range with zero cycles."""


def _breakpoints_of(curve) -> tuple[float, ...]:
    bp = getattr(curve, "breakpoints", None)
    return tuple(bp()) if callable(bp) else ()


def _eval_curve(curve, xs: np.ndarray) -> np.ndarray:
    ev = getattr(curve, "eval_many", None)
    if callable(ev):
        return np.asarray(ev(xs), dtype=float)
    return np.array([float(curve(x)) for x in xs])


# Profiles are left-continuous at their knots, so the first node of each
# panel is evaluated a hair inside the panel: step discontinuities then
# integrate with the correct one-sided limits (the duplicated boundary node
# carries zero trapezoid weight).
_JUMP_NUDGE = 1e-9


def _nodes(a: float, b: float, breakpoints) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes over [a, b]: (weight positions, evaluation positions)."""
    pts = [a]
    for p in sorted(set(breakpoints)):
        if a + _EPS < p < b - _EPS:
            pts.append(p)
    pts.append(b)
    weight_chunks, eval_chunks = [], []
    for x0, x1 in zip(pts, pts[1:]):
        if x1 - x0 <= _EPS:
            continue
        n = max(1, math.ceil((x1 - x0) / DEFAULT_QUADRATURE_STEP_DEG - 1e-9))
        seg = np.linspace(x0, x1, n + 1)
        seg_eval = seg.copy()
        seg_eval[0] = x0 + min(_JUMP_NUDGE, (x1 - x0) / 2)
        weight_chunks.append(seg)
        eval_chunks.append(seg_eval)
    if not weight_chunks:  # range narrower than the degeneracy epsilon
        ab = np.array([a, b])
        return ab, ab
    return np.concatenate(weight_chunks), np.concatenate(eval_chunks)


def _trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.dot(ys[1:] + ys[:-1], np.diff(xs)) * 0.5)


def _check_range(a: float, b: float) -> tuple[float, float]:
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration range must be finite, got [{a!r}, {b!r}]")
    if a > b:
        raise ValueError(f"integration range is reversed: [{a!r}, {b!r}]")
    if (b - a) / DEFAULT_QUADRATURE_STEP_DEG > MAX_QUADRATURE_NODES:
        raise ValueError(f"integration range [{a!r}, {b!r}] needs over {MAX_QUADRATURE_NODES:,} nodes")
    return a, b


def integrate(curve, a: float, b: float) -> float:
    """Integral of an evaluable curve over [a, b] degrees, in cycles."""
    a, b = _check_range(a, b)
    if a == b:
        return 0.0
    xs_w, xs_e = _nodes(a, b, _breakpoints_of(curve))
    return _trapezoid(xs_w, _eval_curve(curve, xs_e))


def _sample(rdf, adf, a: float, b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight positions and both curves' values on shared nodes; one node if a == b."""
    a, b = _check_range(a, b)
    if a == b:
        return np.array([a]), np.zeros(1), np.zeros(1)
    xs_w, xs_e = _nodes(a, b, _breakpoints_of(rdf) + _breakpoints_of(adf))
    return xs_w, _eval_curve(rdf, xs_e), _eval_curve(adf, xs_e)


def _excess(xs, over, under) -> float:
    return _trapezoid(xs, np.maximum(over - under, 0.0))


def _efficiency(waste: float, count: float, a: float, b: float) -> float:
    if count <= 0.0:
        raise EfficiencyUndefinedError(f"efficiency is undefined: zero cycle count over [{a!r}, {b!r}]")
    return 1.0 - waste / count


def pixel_deficit(rdf, adf, a: float, b: float) -> float:
    """Cycles by which the display falls short of the acuity target on [a, b]."""
    xs, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    return _excess(xs, adf_vals, rdf_vals)


def pixel_waste(rdf, adf, a: float, b: float) -> float:
    """Cycles the display provides beyond the acuity target on [a, b]."""
    xs, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    return _excess(xs, rdf_vals, adf_vals)


def rdf_efficiency(rdf, adf, a: float, b: float) -> float:
    """Fraction of the display's cycles that are not wasted: 1 - waste/count."""
    xs, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    waste, count = _excess(xs, rdf_vals, adf_vals), _trapezoid(xs, rdf_vals)
    return _efficiency(waste, count, float(a), float(b))


@dataclass(frozen=True)
class MetricsReport:
    """Provisioning metrics of one display profile against one acuity model.

    The first four come from one sample over ``eval_range``.
    """

    deficit: float
    waste: float
    efficiency: float
    cycle_count: float
    eval_range: tuple[float, float]
    foveal_deficit: float
    peripheral_deficit: float


def metrics_report(
    rdf,
    adf,
    *,
    eval_range: tuple[float, float] | None = None,
    fovea_boundary_deg: float = 2.0,
    periphery_start_deg: float = 10.0,
) -> MetricsReport:
    """Full metrics over ``eval_range`` (default: axis to the display edge).

    Regional deficits use the same boundaries as the classifier: the foveal
    deficit covers [0, fovea boundary] and the peripheral deficit
    [periphery start, display edge].
    """
    if eval_range is None:
        extent = getattr(rdf, "extent_deg", None)
        if extent is None:
            raise ValueError("eval_range is required for curves without an extent")
        eval_range = (0.0, float(extent))
    a, b = _check_range(*eval_range)
    xs, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    waste, cycle_count = _excess(xs, rdf_vals, adf_vals), _trapezoid(xs, rdf_vals)
    edge = getattr(rdf, "extent_deg", b)
    return MetricsReport(
        deficit=_excess(xs, adf_vals, rdf_vals),
        waste=waste,
        efficiency=_efficiency(waste, cycle_count, a, b),
        cycle_count=cycle_count,
        eval_range=(a, b),
        foveal_deficit=pixel_deficit(rdf, adf, 0.0, fovea_boundary_deg),
        peripheral_deficit=pixel_deficit(rdf, adf, min(periphery_start_deg, edge), edge),
    )


def _two_tier_profile(hi, lo, blend_width: float) -> ResolutionProfile:
    """High tier to its edge, a ramp of the given width filling into the low tier."""
    segs = [ProfileSegment(0.0, hi.half_fov_deg, hi.resolution_cpd, hi.resolution_cpd)]
    ramp_end = hi.half_fov_deg + blend_width
    if blend_width > 0:
        segs.append(
            ProfileSegment(hi.half_fov_deg, ramp_end, hi.resolution_cpd, lo.resolution_cpd)
        )
    if ramp_end < lo.half_fov_deg:
        segs.append(
            ProfileSegment(ramp_end, lo.half_fov_deg, lo.resolution_cpd, lo.resolution_cpd)
        )
    return ResolutionProfile(tuple(segs))


def optimal_blend_width(hi, lo, adf, *, scan_step: float = 0.1) -> float:
    """Narrowest transition band minimising the two-tier profile's deficit.

    Candidate widths from 0 up to the high tier's half field of view are
    scanned at ``scan_step``; each candidate ramps from the high tier's
    resolution at its edge down to the low tier's resolution over the band.
    Where the low tier already meets the acuity target at the edge, every
    candidate has zero deficit and the result is 0: a band there only adds
    waste.  Ties go to the smaller width.  A ``scan_step`` that is not a
    positive finite number, or that gives more than ``MAX_BLEND_CANDIDATES``
    candidates, raises ``ValueError``.
    """
    if not (math.isfinite(scan_step) and scan_step > 0):
        raise ValueError(f"scan_step must be a positive finite number, got {scan_step!r}")
    if hi.resolution_cpd < lo.resolution_cpd:
        raise ValueError(
            "degenerate tiers: the high tier must not have lower resolution than the low tier"
        )
    if lo.half_fov_deg <= hi.half_fov_deg:
        raise ValueError("degenerate tiers: the low tier must extend past the high tier")
    cap = min(hi.half_fov_deg, lo.half_fov_deg - hi.half_fov_deg)
    widths = cap / scan_step + 1e-9
    if widths >= MAX_BLEND_CANDIDATES:  # floor(widths) + 1 candidates, counting width 0
        raise ValueError(f"scan_step {scan_step!r} gives over {MAX_BLEND_CANDIDATES:,} candidate widths")
    n = int(math.floor(widths))
    if hi.resolution_cpd == lo.resolution_cpd:
        return 0.0
    best_width = 0.0
    best_deficit = pixel_deficit(_two_tier_profile(hi, lo, 0.0), adf, 0.0, lo.half_fov_deg)
    for i in range(1, n + 1):
        width = i * scan_step
        deficit = pixel_deficit(_two_tier_profile(hi, lo, width), adf, 0.0, lo.half_fov_deg)
        if deficit < best_deficit:
            best_width, best_deficit = width, deficit
    return best_width
