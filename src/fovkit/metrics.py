"""Quadrature over resolution curves and pixel-provisioning metrics.

Every integral uses one rule: 10-point Gauss–Legendre on panels at most
``QUADRATURE_PANEL_DEG`` (0.5 degrees) wide, with a panel boundary at every
cut.  The cuts are the integrand's breakpoints (profile knots, the acuity
plateau end and the acuity model's graded cuts toward its tail's pole) and,
for the provisioning metrics, the eccentricities where the profile crosses
the acuity model.  Between cuts the integrands are lines or a smooth acuity
tail minus a line, which the rule integrates exact to rounding.  Gauss nodes
lie inside their panel, so a profile that jumps at a knot is integrated with
the correct one-sided values.

Curves that do not report their kinks get them found: where the sign of
``rdf - adf`` changes between two neighbouring nodes of one cut interval,
the change is bisected, every bracket at once, and the sample is taken
again with the roots as cuts.

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

from .acuity import QUADRATURE_PANEL_DEG
from .display import ProfileSegment, ResolutionProfile

# Most Gauss nodes one quadrature may use, counted at 10 per 0.5 degree
# panel before cuts: a range of 50,000 degrees.
MAX_QUADRATURE_NODES = 1_000_000
# Most candidate widths one optimal_blend_width call may integrate.
MAX_BLEND_CANDIDATES = 10_000

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)
_HALF_WEIGHTS = 0.5 * _GAUSS_W


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


def _nodes(a: float, b: float, cuts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes over [a, b], the width of each panel and the cut interval of each node."""
    edges = np.unique(np.concatenate(([a, b], np.asarray(cuts, dtype=float))))
    edges = edges[(a <= edges) & (edges <= b)]
    width = np.diff(edges)
    n = np.ceil(width / QUADRATURE_PANEL_DEG).astype(int)
    interval = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(interval)) - np.repeat(np.cumsum(n) - n, n)
    panels = np.append(edges[interval] + k * (width / n)[interval], b)
    widths = np.diff(panels)
    xs = (panels[:-1, None] + 0.5 * widths[:, None] * (1.0 + _GAUSS_X)).ravel()
    return xs, widths, np.repeat(interval, len(_GAUSS_X))


def _quadrature(widths: np.ndarray, values: np.ndarray) -> float:
    """Sum of the panels' Gauss sums, each scaled by its width last.

    Scaling last keeps a panel of subnormal width from having its weights
    rounded to 0 before its values are summed.
    """
    return float(widths @ (values.reshape(-1, len(_GAUSS_W)) @ _HALF_WEIGHTS))


def _check_range(a: float, b: float) -> tuple[float, float]:
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration range must be finite, got [{a!r}, {b!r}]")
    if a > b:
        raise ValueError(f"integration range is reversed: [{a!r}, {b!r}]")
    if (b - a) / QUADRATURE_PANEL_DEG * len(_GAUSS_X) > MAX_QUADRATURE_NODES:
        raise ValueError(f"integration range [{a!r}, {b!r}] needs over {MAX_QUADRATURE_NODES:,} nodes")
    return a, b


def integrate(curve, a: float, b: float) -> float:
    """Integral of an evaluable curve over [a, b] degrees, in cycles."""
    a, b = _check_range(a, b)
    if a == b:
        return 0.0
    xs, widths, _ = _nodes(a, b, _breakpoints_of(curve))
    return _quadrature(widths, _eval_curve(curve, xs))


def _bisect(rdf, adf, lo: np.ndarray, hi: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Where ``sign(rdf - adf)`` leaves ``side``, its sign at ``lo``, before ``hi``; all at once."""
    while True:
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
        if not active.any():
            return mid
        same = np.sign(_eval_curve(rdf, mid) - _eval_curve(adf, mid)) == side
        lo = np.where(active & same, mid, lo)
        hi = np.where(active & ~same, mid, hi)


def _sample(rdf, adf, a: float, b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel widths and both curves' values on shared nodes; no node if a == b."""
    a, b = _check_range(a, b)
    if a == b:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    cuts = np.asarray(_breakpoints_of(rdf) + _breakpoints_of(adf), dtype=float)
    crossings = getattr(adf, "crossings", None)
    if isinstance(rdf, ResolutionProfile) and callable(crossings):
        cuts = np.concatenate((cuts, crossings(*rdf._arrays[:4])))
    xs, widths, interval = _nodes(a, b, cuts)
    rdf_vals, adf_vals = _eval_curve(rdf, xs), _eval_curve(adf, xs)
    # A sign change inside a cut interval is a kink no curve reported.
    side = np.sign(rdf_vals - adf_vals)
    kinked = np.flatnonzero((side[1:] != side[:-1]) & (interval[1:] == interval[:-1]))
    if len(kinked):
        roots = _bisect(rdf, adf, xs[kinked], xs[kinked + 1], side[kinked])
        xs, widths, _ = _nodes(a, b, np.concatenate((cuts, roots)))
        rdf_vals, adf_vals = _eval_curve(rdf, xs), _eval_curve(adf, xs)
    return widths, rdf_vals, adf_vals


def _excess(widths, over, under) -> float:
    return _quadrature(widths, np.maximum(over - under, 0.0))


def _efficiency(waste: float, count: float, a: float, b: float) -> float:
    if count <= 0.0:
        raise EfficiencyUndefinedError(f"efficiency is undefined: zero cycle count over [{a!r}, {b!r}]")
    return 1.0 - waste / count


def pixel_deficit(rdf, adf, a: float, b: float) -> float:
    """Cycles by which the display falls short of the acuity target on [a, b]."""
    widths, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    return _excess(widths, adf_vals, rdf_vals)


def pixel_waste(rdf, adf, a: float, b: float) -> float:
    """Cycles the display provides beyond the acuity target on [a, b]."""
    widths, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    return _excess(widths, rdf_vals, adf_vals)


def rdf_efficiency(rdf, adf, a: float, b: float) -> float:
    """Fraction of the display's cycles that are not wasted: 1 - waste/count."""
    widths, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    waste, count = _excess(widths, rdf_vals, adf_vals), _quadrature(widths, rdf_vals)
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
    widths, rdf_vals, adf_vals = _sample(rdf, adf, a, b)
    waste, cycle_count = _excess(widths, rdf_vals, adf_vals), _quadrature(widths, rdf_vals)
    edge = getattr(rdf, "extent_deg", b)
    return MetricsReport(
        deficit=_excess(widths, adf_vals, rdf_vals),
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
