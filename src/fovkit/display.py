"""Display descriptions and radial resolution profiles.

A display is a stack of concentric resolution tiers ordered from highest to
lowest resolution, each optionally steerable (it tracks the gaze up to a
limit) and optionally blended (its outer edge ramps down to the next tier's
resolution), plus an off-axis degradation curve multiplying the whole thing.

Resolution profiles are piecewise linear in cpd over eccentricity.  The
on-axis profile describes the display looking straight ahead; the perceived
profile under a gaze offset scores non-tracking content along the radial
direction that loses the most resolution, which for these monotone profiles
is the direction away from the display centre.

Everything here is immutable.  The on-axis pieces of each tier do not depend
on gaze, so they are memoised for the most recent spec only, in a
single-entry ``functools.lru_cache`` of read-only arrays and tuples, together
with the on-axis profile they compose.  Equal specs have equal pieces, so
the memo changes no result, and the cache is thread-safe: the module stays
pure, and profiles may be built and evaluated from any number of threads
concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .acuity import AcuityModel
    from .classify import ClassifierConfig

DEGRADATION_NONE = "none"
DEGRADATION_PIECEWISE_LINEAR = "piecewise-linear"
DEGRADATION_KINDS = (DEGRADATION_NONE, DEGRADATION_PIECEWISE_LINEAR)

# Panel width used when a blend ramp overlaps a varying degradation span; the
# product is quadratic there and is approximated by chords at this pitch.
_PRODUCT_SUBDIV_DEG = 0.01

_KNOT_EPS = 1e-12
# Below this many tier pieces, composing panel by panel in Python costs less
# than the fixed overhead of the array path's numpy calls; on a two-tier
# inset under lens falloff the two break even at 12-16 pieces.
_ARRAY_MIN_PIECES = 16


class DisplaySpecError(ValueError):
    """Raised when a display description violates one of its invariants."""


@dataclass(frozen=True)
class Tier:
    """One resolution tier: a disc of constant resolution around its centre."""

    resolution_cpd: float
    half_fov_deg: float
    steerable: bool = False
    steer_range_deg: float = 0.0
    blend_width_deg: float = 0.0

    def __post_init__(self):
        for name in ("resolution_cpd", "half_fov_deg", "steer_range_deg", "blend_width_deg"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DisplaySpecError(f"tier {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not self.resolution_cpd > 0:
            raise DisplaySpecError(f"tier resolution must be > 0, got {self.resolution_cpd!r}")
        if not self.half_fov_deg > 0:
            raise DisplaySpecError(f"tier half field of view must be > 0, got {self.half_fov_deg!r}")
        if not 0 <= self.blend_width_deg <= self.half_fov_deg:
            raise DisplaySpecError(
                "blend width must lie in [0, half field of view], "
                f"got {self.blend_width_deg!r} for half fov {self.half_fov_deg!r}"
            )
        if self.steer_range_deg < 0:
            raise DisplaySpecError(f"steer range must be >= 0, got {self.steer_range_deg!r}")
        if self.steerable != (self.steer_range_deg > 0):
            raise DisplaySpecError(
                "steerable tiers must have steer range > 0 and fixed tiers steer range 0, "
                f"got steerable={self.steerable!r} with steer_range_deg={self.steer_range_deg!r}"
            )


@dataclass(frozen=True)
class OffAxisDegradation:
    """Resolution multiplier vs display eccentricity (lens falloff).

    Piecewise linear between breakpoints, held constant past the last one.
    The first breakpoint must be (0, 1): no degradation on axis.
    """

    kind: str = DEGRADATION_NONE
    breakpoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple((float(e), float(m)) for e, m in self.breakpoints)
        )
        for point in self.breakpoints:
            if not all(map(math.isfinite, point)):
                raise DisplaySpecError(f"degradation breakpoints must be finite, got {point!r}")
        if self.kind not in DEGRADATION_KINDS:
            raise DisplaySpecError(
                f"unknown degradation kind {self.kind!r}, expected one of {DEGRADATION_KINDS}"
            )
        if self.kind == DEGRADATION_NONE:
            if self.breakpoints:
                raise DisplaySpecError("degradation kind 'none' takes no breakpoints")
            return
        if not self.breakpoints:
            raise DisplaySpecError("piecewise-linear degradation needs at least one breakpoint")
        if self.breakpoints[0] != (0.0, 1.0):
            raise DisplaySpecError(
                f"first degradation breakpoint must be (0, 1), got {self.breakpoints[0]!r}"
            )
        prev_e, prev_m = self.breakpoints[0]
        for e, m in self.breakpoints[1:]:
            if e <= prev_e:
                raise DisplaySpecError(
                    f"degradation eccentricities must strictly increase, got {e!r} after {prev_e!r}"
                )
            if not 0 < m <= prev_m:
                raise DisplaySpecError(
                    "degradation multipliers must be non-increasing and in (0, 1], "
                    f"got {m!r} after {prev_m!r}"
                )
            prev_e, prev_m = e, m

    def at(self, eccentricity_deg: float) -> float:
        if self.kind == DEGRADATION_NONE:
            return 1.0
        es = [e for e, _ in self.breakpoints]
        ms = [m for _, m in self.breakpoints]
        return float(np.interp(eccentricity_deg, es, ms))


@dataclass(frozen=True)
class DisplaySpec:
    """Declarative description of a display as seen from one eye."""

    name: str
    tiers: tuple[Tier, ...]
    degradation: OffAxisDegradation = field(default=OffAxisDegradation())
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "tiers", tuple(self.tiers))
        if not self.tiers:
            raise DisplaySpecError("display needs at least one tier")
        prev = self.tiers[0]
        for tier in self.tiers[1:]:
            if tier.resolution_cpd > prev.resolution_cpd:
                raise DisplaySpecError(
                    "tiers must be ordered by non-increasing resolution, "
                    f"got {tier.resolution_cpd!r} after {prev.resolution_cpd!r}"
                )
            if tier.half_fov_deg < prev.half_fov_deg:
                raise DisplaySpecError(
                    "tier extents must be non-decreasing, "
                    f"got {tier.half_fov_deg!r} after {prev.half_fov_deg!r}"
                )
            if tier.half_fov_deg - tier.blend_width_deg < prev.half_fov_deg - _KNOT_EPS:
                raise DisplaySpecError(
                    "blend band wider than the gap between tier edges: "
                    f"band starts at {tier.half_fov_deg - tier.blend_width_deg!r} "
                    f"but the inner tier extends to {prev.half_fov_deg!r}"
                )
            prev = tier

    @property
    def half_fov_deg(self) -> float:
        """The outermost tier defines the display's half field of view."""
        return self.tiers[-1].half_fov_deg


class ProfileSegment(NamedTuple):
    """Linear-in-cpd piece of a profile on [start, end]."""

    start: float
    end: float
    value_start: float
    value_end: float

    def value_at(self, x: float) -> float:
        if self.end == self.start:
            return self.value_start
        t = (x - self.start) / (self.end - self.start)
        return self.value_start + t * (self.value_end - self.value_start)


@dataclass(frozen=True)
class ResolutionProfile:
    """Piecewise-linear resolution vs eccentricity; zero outside [0, extent]."""

    segments: tuple[ProfileSegment, ...]

    @property
    def extent_deg(self) -> float:
        return self.segments[-1].end if self.segments else 0.0

    @cached_property
    def _arrays(self):
        return _segment_arrays(self.segments)

    def eval(self, eccentricity_deg: float) -> float:
        """Resolution presented at one eccentricity; 0 beyond the display edge."""
        return float(self.eval_many(np.array([float(eccentricity_deg)]))[0])

    def eval_many(self, eccentricities_deg) -> np.ndarray:
        e = np.asarray(eccentricities_deg, dtype=float)
        if np.any(e < 0):
            raise ValueError("eccentricities must be >= 0")
        arrays = self._arrays
        return _interpolate(arrays, np.searchsorted(arrays[1], e, side="left"), e)

    def breakpoints(self) -> tuple[float, ...]:
        if not self.segments:
            return ()
        return tuple(s.start for s in self.segments) + (self.segments[-1].end,)


def _segment_arrays(segments) -> tuple[np.ndarray, ...]:
    """Starts, ends, start values, end values and spans (1 where a segment has no length)."""
    starts, ends, v0, v1 = np.array(segments, dtype=float).reshape(-1, 4).T.copy()
    return starts, ends, v0, v1, np.where(ends > starts, ends - starts, 1.0)


def _interpolate(arrays, idx: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Each ``e`` on its segment ``idx`` of ``arrays``; 0 where ``idx`` is past the last."""
    starts, ends, v0, v1, spans = arrays
    out = np.zeros_like(e)
    inside = idx < len(ends)
    i = idx[inside]
    t = np.clip((e[inside] - starts[i]) / spans[i], 0.0, 1.0)
    out[inside] = v0[i] + t * (v1[i] - v0[i])
    return out


def _eval_profiles(arrays, counts, xs: np.ndarray, bounds) -> np.ndarray:
    """Many profiles, each on its own stretch of ``xs``, in one interpolation.

    ``arrays`` are the :func:`_segment_arrays` of every profile's segments,
    profile after profile, ``counts[j]`` of them for profile ``j``, which is
    evaluated at ``xs[bounds[j]:bounds[j + 1]]``.  Each value equals the one
    the profile's own :meth:`ResolutionProfile.eval_many` gives.
    """
    if np.any(xs < 0):
        raise ValueError("eccentricities must be >= 0")
    ends = arrays[1]
    idx = np.empty(len(xs), dtype=np.intp)
    first = 0
    for n, lo, hi in zip(counts, bounds, bounds[1:]):
        last = first + n
        i = np.searchsorted(ends[first:last], xs[lo:hi], side="left")
        if first:
            i += first
        if last < len(ends):
            i[i == last] = len(ends)  # past this profile's edge
        idx[lo:hi] = i
        first = last
    return _interpolate(arrays, idx, xs)


def _tier_segments(tier: Tier, floor_cpd: float) -> list[ProfileSegment]:
    """On-axis shape of one tier: constant body plus an outer blend ramp."""
    body_end = tier.half_fov_deg - tier.blend_width_deg
    segs = []
    if body_end > _KNOT_EPS:
        segs.append(ProfileSegment(0.0, body_end, tier.resolution_cpd, tier.resolution_cpd))
    else:  # a body too short to keep leaves the ramp starting on the axis
        body_end = 0.0
    if tier.blend_width_deg > _KNOT_EPS:
        segs.append(ProfileSegment(body_end, tier.half_fov_deg, tier.resolution_cpd, floor_cpd))
    return segs


def _apply_degradation(
    segs: list[ProfileSegment], degradation: OffAxisDegradation
) -> list[ProfileSegment]:
    if degradation.kind == DEGRADATION_NONE:
        return segs
    knots, mults = zip(*degradation.breakpoints)
    out = []
    for s in segs:
        cuts = sorted({s.start, s.end, *(k for k in knots if s.start < k < s.end)})
        for x0, x1 in zip(cuts, cuts[1:]):
            v0, v1 = s.value_at(x0), s.value_at(x1)
            m0, m1 = degradation.at(x0), degradation.at(x1)
            if v0 == v1 or m0 == m1:
                out.append(ProfileSegment(x0, x1, v0 * m0, v1 * m1))
                continue
            # Both vary: the product is quadratic, approximate by short chords.
            n = max(1, math.ceil((x1 - x0) / _PRODUCT_SUBDIV_DEG - 1e-9))
            xs = np.linspace(x0, x1, n + 1)
            ys = (_value_at(*s, xs) * np.interp(xs, knots, mults)).tolist()
            xs = xs.tolist()
            out += map(ProfileSegment, xs[:-1], xs[1:], ys[:-1], ys[1:])
    return out


class _Pieces(NamedTuple):
    """The on-axis, degraded pieces of every tier, and the profile they compose."""

    rows: np.ndarray  # all pieces as the columns of a 4 x n array, tier after tier
    tier: np.ndarray  # the tier of each column of ``rows``
    segments: tuple[tuple[ProfileSegment, ...], ...]  # the same pieces, per tier
    on_axis: ResolutionProfile  # their maximum with no tier shifted


@lru_cache(maxsize=1)
def _tier_pieces(spec: DisplaySpec) -> _Pieces:
    """The tiers' pieces do not depend on gaze, so a gaze scan builds them once.

    The on-axis profile is composed here too, once per spec: grading reads it
    both as the display's profile and as the gaze scan's reference.  Only the
    most recent spec is kept: a per-spec cache would hold every chord of
    every design a sweep visits.  The arrays are read-only.
    """
    segments = []
    for i, tier in enumerate(spec.tiers):
        floor = spec.tiers[i + 1].resolution_cpd if i + 1 < len(spec.tiers) else 0.0
        segments.append(tuple(_apply_degradation(_tier_segments(tier, floor), spec.degradation)))
    flat = [s for segs in segments for s in segs]
    rows = np.array(flat, dtype=float).reshape(-1, 4).T.copy()
    tier = np.repeat(np.arange(len(segments)), [len(segs) for segs in segments])
    rows.flags.writeable = tier.flags.writeable = False
    segments = tuple(segments)
    return _Pieces(rows, tier, segments, _compose(rows, tier, segments, [0.0] * len(segments)))


def _value_at(start, end, v0, v1, x):
    """:meth:`ProfileSegment.value_at` over arrays, with the same arithmetic."""
    span = end - start
    t = (x - start) / np.where(span == 0, 1.0, span)
    return np.where(span == 0, v0, v0 + t * (v1 - v0))


def _shift_left(segs: list[tuple], offset: float) -> list[tuple]:
    """Worst-case view of fixed content from a gaze offset: shift toward 0."""
    if offset <= 0:
        return segs
    out = []
    for start, end, v0, v1 in segs:
        if end - offset <= _KNOT_EPS:
            continue
        a = max(start, offset)
        va = v0 if end == start else v0 + (a - start) / (end - start) * (v1 - v0)
        out.append((a - offset, end - offset, va, v1))
    return out


def _shift_left_array(rows: np.ndarray, tier: np.ndarray, offsets: np.ndarray):
    """:func:`_shift_left` of every tier at once; ``offsets`` has one per tier."""
    off = offsets[tier]
    keep = (off <= 0) | (rows[1] - off > _KNOT_EPS)
    if not keep.all():
        rows, tier, off = rows[:, keep], tier[keep], off[keep]
    start, end, v0, v1 = rows
    a = np.maximum(start, off)
    return np.array([a - off, end - off, _value_at(start, end, v0, v1, a), v1]), tier


def _dedup_sorted(values, anchors=()) -> list[float]:
    """Sorted ``values`` with each run within ``_KNOT_EPS`` of its first value kept once.

    A run is kept as its first value, unless a later value of the run is in
    ``anchors`` and the first is not: then it is kept as that anchor.
    """
    out, first = [], -math.inf
    for v in values:
        if v - first > _KNOT_EPS:
            out.append(v)
            first = v
        elif v in anchors and out[-1] not in anchors:
            out[-1] = v
    return out


def _split_panel(x0: float, x1: float, lines: list[tuple[float, float]]) -> list[tuple]:
    """Maximum of the lines on one panel, cut where two of them cross."""
    cuts = {x0, x1}
    span = x1 - x0
    for i in range(len(lines)):
        a0, a1 = lines[i]
        for j in range(i + 1, len(lines)):
            b0, b1 = lines[j]
            d0, d1 = a0 - b0, a1 - b1
            if d0 == d1 or d0 * d1 >= 0:
                continue  # parallel or no sign change: no interior crossing
            xc = x0 + span * d0 / (d0 - d1)
            if x0 + _KNOT_EPS < xc < x1 - _KNOT_EPS:
                cuts.add(xc)
    sub = _dedup_sorted(sorted(cuts))
    out = []
    for u0, u1 in zip(sub, sub[1:]):
        v0 = max(max(a + (b - a) * (u0 - x0) / span for a, b in lines), 0.0)
        v1 = max(max(a + (b - a) * (u1 - x0) / span for a, b in lines), 0.0)
        out.append((u0, u1, v0, v1))
    return out


def _compose_max(contributions: list[list[tuple]], anchors=()) -> list[tuple]:
    """Pointwise maximum of piecewise-linear contributions, exactly.

    The knots of all contributions cut the axis into panels, on each of
    which every contribution is one line (0 where it does not reach).
    Knots closer than ``_KNOT_EPS`` make one panel edge, an anchor if one of
    them is (see :func:`_compose`).  Returns the (start, end, v0, v1)
    segments of the maximum.
    """
    knots = {0.0}
    for segs in contributions:
        for s in segs:
            knots.add(s[0])
            knots.add(s[1])
    xs = _dedup_sorted(sorted(knots), anchors)
    ends = [[s[1] for s in segs] for segs in contributions]
    out = []
    for x0, x1 in zip(xs, xs[1:]):
        mid = 0.5 * (x0 + x1)
        lines = []
        for segs, seg_ends in zip(contributions, ends):
            i = bisect_left(seg_ends, mid)
            if i < len(segs) and segs[i][0] - _KNOT_EPS <= mid <= segs[i][1] + _KNOT_EPS:
                start, end, v0, v1 = segs[i]
                if end == start:
                    lines.append((v0, v0))
                else:
                    span = end - start
                    lines.append((
                        v0 + (x0 - start) / span * (v1 - v0),
                        v0 + (x1 - start) / span * (v1 - v0),
                    ))
            else:
                lines.append((0.0, 0.0))
        out += _split_panel(x0, x1, lines)
    return out


def _compose_max_array(rows: np.ndarray, tier: np.ndarray, anchors=()) -> list[tuple]:
    """:func:`_compose_max` over all panels at once, for many pieces.

    A panel where two lines cross is handed to :func:`_split_panel`; every
    other panel is one segment, computed here with the arithmetic of
    :func:`_split_panel`.
    """
    start, end, v0, v1 = rows
    xs = np.unique(np.concatenate(([0.0], start, end)))
    if not (np.diff(xs) > _KNOT_EPS).all():
        xs = np.array(_dedup_sorted(xs.tolist(), anchors))
    x0, x1 = xs[:-1], xs[1:]
    mid = 0.5 * (x0 + x1)
    span = x1 - x0

    # Each tier's line on each panel comes from its first piece ending at or
    # after the panel's midpoint.
    idx, last = [], []
    lo = 0
    for n in np.bincount(tier).tolist():
        if n:
            idx.append(end[lo : lo + n].searchsorted(mid) + lo)
            last.append([lo + n])
            lo += n
    idx, last = np.array(idx), np.array(last)
    s, e, a, b = rows[:, np.minimum(idx, last - 1)]
    covered = (idx < last) & (s - _KNOT_EPS <= mid) & (mid <= e + _KNOT_EPS)
    lines = np.where(  # tier x {x0, x1} x panel
        covered[:, None],
        _value_at(s[:, None], e[:, None], a[:, None], b[:, None], np.array((x0, x1))),
        0.0,
    )

    crossed = []
    if len(lines) > 1:
        pi, pj = (list(p) for p in zip(*combinations(range(len(lines)), 2)))
        d = lines[pi] - lines[pj]
        d0, d1 = d[:, 0], d[:, 1]
        pair, k = ((d0 != d1) & (d0 * d1 < 0)).nonzero()
        if len(k):
            xc = x0[k] + span[k] * d0[pair, k] / (d0[pair, k] - d1[pair, k])
            crossed = np.unique(k[(x0[k] + _KNOT_EPS < xc) & (xc < x1[k] - _KNOT_EPS)]).tolist()

    values = lines[:, :1] + (lines[:, 1:] - lines[:, :1]) * np.array((x0 - x0, x1 - x0)) / span
    top = values[0]
    for v in values[1:]:
        top = np.where(v > top, v, top)
    top = np.where(0.0 > top, 0.0, top)

    out = list(zip(x0.tolist(), x1.tolist(), *top.tolist()))
    for p in reversed(crossed):
        out[p : p + 1] = _split_panel(out[p][0], out[p][1], lines[:, :, p].tolist())
    return out


def _merge_collinear(rows: list[tuple]) -> tuple[ProfileSegment, ...]:
    merged: list[tuple] = []
    for s in rows:
        if merged:
            p = merged[-1]
            p_slope = (p[3] - p[2]) / (p[1] - p[0])
            s_slope = (s[3] - s[2]) / (s[1] - s[0])
            if (
                abs(p[3] - s[2]) <= 1e-9 * max(1.0, abs(p[3]))
                and abs(p_slope - s_slope) <= 1e-9 * max(1.0, abs(p_slope))
            ):
                merged[-1] = (p[0], s[1], p[2], s[3])
                continue
        merged.append(s)
    return tuple(map(ProfileSegment._make, merged))


def _compose(
    rows: np.ndarray, tier: np.ndarray, segments, offsets: list[float]
) -> ResolutionProfile:
    """Maximum of the tier pieces, each tier shifted toward the axis by its offset.

    The knots of an unshifted tier are also knots of the on-axis profile.  A
    shifted knot that rounds to within ``_KNOT_EPS`` of one, say 4.00001 - 1
    = 3.0000099999999996 next to 3.00001, must not move it: cutting the
    unshifted tier short by that ulp would open a full-height gap to the
    on-axis profile at that one gaze only, and the gaze scan's verdict would
    no longer grow with gaze.  So where knots merge, an unshifted one is kept.
    """
    anchors = ()
    if any(offsets) and not all(offsets):
        anchors = {x for segs, o in zip(segments, offsets) if not o for s in segs for x in s[:2]}
    if len(tier) < _ARRAY_MIN_PIECES:
        contributions = [segs for segs in map(_shift_left, segments, offsets) if segs]
        out = _compose_max(contributions, anchors) if contributions else []
    else:
        rows, tier = _shift_left_array(rows, tier, np.array(offsets))
        out = _compose_max_array(rows, tier, anchors) if len(tier) else []
    return ResolutionProfile(_merge_collinear(out))


def perceived_profile(spec: DisplaySpec, gaze_deg: float) -> ResolutionProfile:
    """Worst-case resolution over gaze eccentricity for a given gaze direction.

    Steerable tiers track the gaze up to their steer range and saturate
    beyond it; fixed content is scored along the radial direction away from
    the display centre, the minimum over directions for these profiles.  The
    result is clamped to the display extent as seen from the gaze direction.
    Negative gaze is folded to positive by radial symmetry.
    """
    g = abs(float(gaze_deg))
    pieces = _tier_pieces(spec)
    offsets = [max(0.0, g - t.steer_range_deg) if t.steerable else g for t in spec.tiers]
    if not any(offsets):
        return pieces.on_axis
    return _compose(pieces.rows, pieces.tier, pieces.segments, offsets)


def build_rdf(spec: DisplaySpec) -> ResolutionProfile:
    """On-axis resolution profile: tier maximum, blend ramps, degradation."""
    return perceived_profile(spec, 0.0)


def _noticeable_change(
    spec: DisplaySpec, adf: "AcuityModel", cfg: "ClassifierConfig"
) -> Callable[[float], bool]:
    """The gaze scan's check of one gaze angle, with the gaze-free work done once.

    The returned function tells whether the perceived profile at a gaze,
    clamped by the acuity model, differs from the clamped straight-ahead
    profile by more than ``cfg.noticeability_tol`` over
    ``cfg.invariance_extent``.  It compares them exactly at a few points: 0,
    the extent, the acuity plateau end, both profiles' knots and their right
    limits, and the straight-ahead profile's crossings with the acuity model.
    Tiers never rise with eccentricity and gaze only shifts them toward the
    axis, so the perceived profile never exceeds the straight-ahead one, and
    between two such points the gap is a line or the convex acuity tail
    minus a line (floored at 0): it peaks at an end.
    """
    base = _tier_pieces(spec).on_axis
    extent = cfg.invariance_extent

    def knots(profile: ResolutionProfile) -> np.ndarray:
        k = np.asarray(profile.breakpoints(), dtype=float)
        k = k[(0.0 < k) & (k < extent)]
        return np.concatenate([k, np.nextafter(k, np.inf)])

    fixed = np.concatenate(
        [[0.0, extent, adf.plateau_end_deg], knots(base), adf.crossings(*base._arrays[:4])]
    )
    fixed = fixed[fixed <= extent]

    def noticeable(gaze_deg: float) -> bool:
        current = perceived_profile(spec, gaze_deg)
        points = np.concatenate([fixed, knots(current)])
        acuity = adf.eval_many(points)
        gap = np.minimum(base.eval_many(points), acuity) - np.minimum(current.eval_many(points), acuity)
        return float(np.max(np.abs(gap))) > cfg.noticeability_tol

    return noticeable


def gaze_invariance_range(
    spec: DisplaySpec, adf: "AcuityModel", cfg: "ClassifierConfig"
) -> float:
    """Largest scanned gaze angle with no noticeable perceived-profile change.

    Profiles are clamped by the acuity model (only differences the user can
    resolve count) and compared to the straight-ahead profile over
    ``cfg.invariance_extent``; a difference above ``cfg.noticeability_tol``
    anywhere is noticeable.  Step ``i`` of the scan checks gaze
    ``i * cfg.gaze_scan_step``, and the reach is the gaze of the step before
    the first noticeable one.  The scan is capped at ``cfg.full_gaze_range``,
    which its last step checks also when the step does not divide it, and
    which is returned when no step is noticeable.

    The verdict is monotone in gaze.  A tier's shift toward the axis is the
    gaze, or the gaze beyond its steer range for a steerable tier, and both
    never decrease as the gaze grows, while every tier shape is
    non-increasing in eccentricity.  So a larger gaze gives a perceived
    profile that is nowhere above a smaller gaze's, the clamped gap to the
    straight-ahead profile never shrinks, and once a step is noticeable
    every later one is too.  The first noticeable step is therefore found by
    galloping (steps 1, 2, 4, ...) and then bisecting: O(log n) profile
    compositions for n steps instead of up to n, one when step 1 is already
    noticeable and ``ceil(log2 n) + 1`` when none is.
    """
    noticeable = _noticeable_change(spec, adf, cfg)
    count = cfg.full_gaze_range / cfg.gaze_scan_step
    n = math.ceil(count - 1e-9)

    def gaze(i: int) -> float:
        return i * cfg.gaze_scan_step if i <= count + 1e-9 else cfg.full_gaze_range

    # Step lo is not noticeable (step 0 is straight ahead) and step hi is,
    # with n + 1 standing for "no step is".
    lo, hi, probe = 0, n + 1, min(1, n)
    while lo < probe < hi:
        if noticeable(gaze(probe)):
            hi = probe
        else:
            lo, probe = probe, min(2 * probe, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if noticeable(gaze(mid)):
            hi = mid
        else:
            lo = mid
    return cfg.full_gaze_range if hi > n else gaze(lo)
