"""Shared strategies and independent oracles for the test suite.

The closed-form integrals here are the quadrature oracles: they are written
directly from the antiderivatives and never call the library's integrator.
"""

import math

import numpy as np
from hypothesis import strategies as st

from fovkit import (
    DisplaySpec,
    OffAxisDegradation,
    ProfileSegment,
    ResolutionProfile,
    SnellenFraction,
    Tier,
    display,
    perceived_profile,
    pixel_deficit,
)


def constant_fovea_integral(peak, rolloff, fovea, a, b, error=0.0):
    """Exact integral of the constant-fovea falloff over [a, b].

    Antiderivative of the tail is rolloff * ln(e - plateau_end + rolloff/peak);
    the plateau contributes peak * length.
    """
    plateau_end = fovea + error
    c = rolloff / peak
    plateau = peak * max(0.0, min(b, plateau_end) - min(a, plateau_end))
    ta, tb = max(a, plateau_end), max(b, plateau_end)
    tail = 0.0
    if tb > ta:
        tail = rolloff * (math.log(tb - plateau_end + c) - math.log(ta - plateau_end + c))
    return plateau + tail


def slope_model_integral(peak, rolloff, fovea, a, b, error=0.0):
    """Exact integral of the slope-model falloff over [a, b]."""
    plateau_end = fovea + error
    plateau = peak * max(0.0, min(b, plateau_end) - min(a, plateau_end))
    ta, tb = max(a, plateau_end), max(b, plateau_end)
    tail = 0.0
    if tb > ta:
        tail = (peak / rolloff) * (
            math.log(rolloff * (tb - plateau_end) + 1.0) - math.log(rolloff * (ta - plateau_end) + 1.0)
        )
    return plateau + tail


class DifferenceCurve:
    """rdf - adf with the union of both breakpoint sets, for node-identical quadrature."""

    def __init__(self, rdf, adf):
        self.rdf = rdf
        self.adf = adf

    def eval_many(self, xs):
        return self.rdf.eval_many(xs) - self.adf.eval_many(xs)

    def breakpoints(self):
        return tuple(self.rdf.breakpoints()) + tuple(self.adf.breakpoints())


class ClampedMaxCurve:
    """max(rdf, adf): raising the profile to the target kills deficit only."""

    def __init__(self, rdf, adf):
        self.rdf = rdf
        self.adf = adf

    def eval_many(self, xs):
        return np.maximum(self.rdf.eval_many(xs), self.adf.eval_many(xs))

    def breakpoints(self):
        return tuple(self.rdf.breakpoints()) + tuple(self.adf.breakpoints())


def candidate_blend_width(hi, lo, adf, scan_step=0.1):
    """Best blend width by its definition: one standalone deficit per candidate.

    Candidate i has width i * scan_step, for i = 0 .. floor(cap / scan_step)
    with cap = min(hi.half_fov_deg, lo.half_fov_deg - hi.half_fov_deg); its
    profile holds the high tier to its edge, ramps down to the low tier over
    the band and then holds the low tier.  The first candidate with the least
    deficit over [0, lo.half_fov_deg] wins.
    """
    (e0, v0), (e1, v1) = (hi.half_fov_deg, hi.resolution_cpd), (lo.half_fov_deg, lo.resolution_cpd)
    if v0 == v1:
        return 0.0
    n = math.floor(min(e0, e1 - e0) / scan_step + 1e-9)
    best_width, best_deficit = 0.0, math.inf
    for i in range(n + 1):
        width = i * scan_step
        segs = [ProfileSegment(0.0, e0, v0, v0)]
        if width > 0:
            segs.append(ProfileSegment(e0, e0 + width, v0, v1))
        if e0 + width < e1:
            segs.append(ProfileSegment(e0 + width, e1, v1, v1))
        deficit = pixel_deficit(ResolutionProfile(tuple(segs)), adf, 0.0, e1)
        if deficit < best_deficit:
            best_width, best_deficit = width, deficit
    return best_width


def grid_invariance_range(spec, adf, cfg, pitch=0.002):
    """Reach of the gaze scan by its definition, on a fixed eccentricity grid.

    At each gaze step the perceived and straight-ahead profiles, both clamped
    by the acuity model, are compared at every grid point of
    [0, invariance_extent]; the first step where they differ by more than the
    tolerance ends the scan.  A grid can only miss a peak, so an exact scan
    never reaches further than this.
    """
    xs = np.linspace(0.0, cfg.invariance_extent, max(1, round(cfg.invariance_extent / pitch)) + 1)
    acuity = adf.eval_many(xs)
    base = np.minimum(perceived_profile(spec, 0.0).eval_many(xs), acuity)
    steps = math.floor(cfg.full_gaze_range / cfg.gaze_scan_step + 1e-9)
    for i in range(1, steps + 1):
        current = perceived_profile(spec, i * cfg.gaze_scan_step).eval_many(xs)
        if np.max(np.abs(np.minimum(current, acuity) - base)) > cfg.noticeability_tol:
            return (i - 1) * cfg.gaze_scan_step
    return cfg.full_gaze_range


def linear_invariance_range(spec, adf, cfg):
    """Reach of the gaze scan by its definition: every step in turn, in order.

    Step i checks gaze i * gaze_scan_step, and the last step checks
    full_gaze_range itself also when the step does not divide it; the reach is
    the gaze of the step before the first noticeable one.  Each step is judged
    by the library's own per-step check, so comparing the scan with this tests
    its search alone.
    """
    noticeable = display._noticeable_change(spec, adf, cfg)
    steps = cfg.full_gaze_range / cfg.gaze_scan_step
    reached = 0.0
    for i in range(1, math.ceil(steps - 1e-9) + 1):
        gaze = i * cfg.gaze_scan_step if i <= steps + 1e-9 else cfg.full_gaze_range
        if noticeable(gaze):
            return reached
        reached = gaze
    return cfg.full_gaze_range


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def snellen_fractions(draw, min_value=0.1, max_value=2.0):
    numerator = 20.0
    denominator = draw(st.floats(numerator / max_value, numerator / min_value, **finite))
    return SnellenFraction(numerator, denominator)


@st.composite
def degradations(draw):
    k = draw(st.integers(1, 3))
    eccs, prev = [], 0.0
    for _ in range(k):
        prev = prev + draw(st.floats(0.5, 20.0, **finite))
        eccs.append(prev)
    mults, m = [], 1.0
    for _ in range(k):
        m = m * draw(st.floats(0.3, 1.0, **finite))
        mults.append(m)
    points = ((0.0, 1.0), *zip(eccs, mults))
    return OffAxisDegradation(kind="piecewise-linear", breakpoints=points)


@st.composite
def display_specs(draw, max_tiers=3, blends=True, steering=True, degraded=True):
    n = draw(st.integers(1, max_tiers))
    resolutions = sorted(
        draw(st.lists(st.floats(0.5, 60.0, **finite), min_size=n, max_size=n)), reverse=True
    )
    tiers, prev_edge = [], 0.0
    for i in range(n):
        edge = prev_edge + draw(st.floats(1.0, 25.0, **finite))
        gap = edge - prev_edge
        blend = 0.0
        if blends and draw(st.booleans()):
            blend = draw(st.floats(0.0, gap, **finite))
        steer = 0.0
        if steering and draw(st.booleans()):
            steer = draw(st.floats(0.1, 25.0, **finite))
        tiers.append(
            Tier(
                resolution_cpd=resolutions[i],
                half_fov_deg=edge,
                steerable=steer > 0,
                steer_range_deg=steer,
                blend_width_deg=blend,
            )
        )
        prev_edge = edge
    degradation = OffAxisDegradation()
    if degraded and draw(st.booleans()):
        degradation = draw(degradations())
    name = draw(st.text(alphabet="abcdefghij_", min_size=1, max_size=12))
    notes = draw(st.text(alphabet="abcdefghij ", max_size=20))
    return DisplaySpec(name=name, tiers=tuple(tiers), degradation=degradation, notes=notes)
