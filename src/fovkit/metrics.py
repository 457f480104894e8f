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
or, unless the crossings are cuts, between a cut and its nearest node, the
change is bisected, every bracket at once, and the sample is taken again
with the roots as cuts.

One sampler serves every metric.  It takes a sequence of ranges, each of
its own curve, against one acuity curve, and samples consecutive ranges
together in passes of a bounded number of nodes: one crossing computation,
one node layout and one evaluation of each curve per pass.  Each range gets
the nodes, values and sums it would get alone, bit for bit.  A report
samples its range and both regions in one pass; the blend-width scan
integrates its candidate widths pass by pass.

The provisioning metrics compare a display profile against an acuity model
over a 1D eccentricity slice: *deficit* is the integral of the shortfall
where the display under-serves the user, *waste* the integral of the excess
where it over-serves, and *efficiency* is one minus waste over the display's
total cycle count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .acuity import QUADRATURE_PANEL_DEG, AcuityModel
from .display import ProfileSegment, ResolutionProfile, _eval_profiles, _segment_arrays

# Most Gauss nodes one quadrature may use, counted at 10 per 0.5 degree
# panel before cuts: a range of 50,000 degrees.
MAX_QUADRATURE_NODES = 1_000_000
# Most candidate widths one optimal_blend_width call may integrate.
MAX_BLEND_CANDIDATES = 10_000
# Most Gauss nodes one sampling pass holds.  This bounds memory: jobs share
# a pass only up to this many nodes (a larger job is a pass of its own), so
# the ~10 M nodes of MAX_BLEND_CANDIDATES candidate widths are never held at once.
_PASS_NODES = 8192

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)
_HALF_WEIGHTS = 0.5 * _GAUSS_W
_START, _END = attrgetter("start"), attrgetter("end")


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


def _ranks(size: np.ndarray) -> np.ndarray:
    """``0 .. size[i] - 1`` for each ``i`` in turn."""
    return np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)


class _Intervals(NamedTuple):
    """The cut intervals of many jobs, job after job."""

    left: np.ndarray  # the cut starting each interval
    right: np.ndarray  # the cut ending each interval
    owner: np.ndarray  # the job of each interval
    panels: np.ndarray  # the number of panels of each interval


def _intervals(a: np.ndarray, b: np.ndarray, cuts: np.ndarray, owner: np.ndarray) -> _Intervals:
    """Cut intervals of every job at once.

    Job ``j`` spans ``[a[j], b[j]]``, with ``a[j] < b[j]``, and is cut where
    ``owner`` is ``j``.  Each job gets the intervals it would get alone: its
    cuts are sorted within it, and every later step is elementwise.
    """
    order = np.lexsort((cuts, owner))
    cuts, owner = cuts[order], owner[order]
    keep = (a[owner] <= cuts) & (cuts <= b[owner])
    cuts, owner = cuts[keep], owner[keep]
    # Intervals run between neighbouring distinct cuts of one job.
    inner = np.flatnonzero((owner[1:] == owner[:-1]) & (cuts[1:] != cuts[:-1]))
    left, right = cuts[inner], cuts[inner + 1]
    panels = np.ceil((right - left) / QUADRATURE_PANEL_DEG).astype(int)
    return _Intervals(left, right, owner[inner], panels)


class _Nodes(NamedTuple):
    """Gauss nodes of many jobs, job after job."""

    xs: np.ndarray  # the nodes
    widths: np.ndarray  # the width of each panel
    interval: np.ndarray  # the cut interval of each node, numbered across jobs
    first: np.ndarray  # the first panel of each job, then the number of panels
    intervals: _Intervals


def _nodes(b: np.ndarray, intervals: _Intervals) -> _Nodes:
    """Gauss nodes of every job at once, on its intervals; job ``j`` ends at ``b[j]``."""
    left, right, owner, n = intervals
    width = right - left
    interval = np.repeat(np.arange(len(n)), n)
    panels = left[interval] + _ranks(n) * (width / n)[interval]
    first = np.searchsorted(owner[interval], np.arange(len(b) + 1))
    ends = np.empty_like(panels)
    ends[:-1] = panels[1:]
    ends[first[1:] - 1] = b
    widths = ends - panels
    xs = (panels[:, None] + 0.5 * widths[:, None] * (1.0 + _GAUSS_X)).ravel()
    return _Nodes(xs, widths, np.repeat(interval, len(_GAUSS_X)), first, intervals)


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
    a, b, cuts = np.array([a]), np.array([b]), np.array((a, b, *_breakpoints_of(curve)))
    nodes = _nodes(b, _intervals(a, b, cuts, np.zeros(len(cuts), dtype=int)))
    return _quadrature(nodes.widths, _eval_curve(curve, nodes.xs))


class _Job(NamedTuple):
    """One range of one curve to sample against the acuity curve."""

    rdf: object
    a: float
    b: float

    @property
    def profile(self) -> bool:
        return isinstance(self.rdf, ResolutionProfile)

    def node_bound(self, adf_cuts: int) -> int:
        """Most nodes this job can have before its crossings, given the acuity curve's cut count."""
        if self.a == self.b:
            return 0
        if self.profile:
            # Each knot in range adds at most one panel: the starts of the
            # segments meeting the range, and the last end.
            segs = self.rdf.segments
            cuts = bisect_right(segs, self.b, key=_START) - bisect_left(segs, self.a, key=_END) + 1
        else:
            cuts = len(_breakpoints_of(self.rdf))
        panels = math.ceil((self.b - self.a) / QUADRATURE_PANEL_DEG) + cuts + adf_cuts + 2
        return len(_GAUSS_X) * panels


class _Pass:
    """Jobs of one kind sampled together, each as a pass of its own would sample it.

    Profiles are stacked into one set of segment arrays: their crossings
    with an acuity model are one computation, and their values one
    interpolation.  Any other curve is evaluated job by job.  The acuity
    curve is evaluated once for all the jobs' nodes.
    """

    def __init__(
        self, adf, adf_cuts: tuple[float, ...], jobs: list[_Job], roots=None, root_job=None
    ):
        """The first of ``jobs`` (a < b in each) that fit in ``_PASS_NODES`` nodes, at least one.

        Given ``roots``, kinks found before, they are cuts of their jobs too
        and every job is taken: each root adds at most one panel.
        """
        self.adf, self.adf_cuts = adf, adf_cuts
        self.profiles = jobs[0].profile
        if self.profiles:
            # A run of consecutive jobs of one profile shares its segments.
            self.runs = [
                j for j, job in enumerate(jobs) if j == 0 or job.rdf is not jobs[j - 1].rdf
            ]
            distinct = [jobs[j].rdf for j in self.runs]
            self.runs.append(len(jobs))
            self.counts = [len(p.segments) for p in distinct]
            self.arrays = (
                distinct[0]._arrays if len(distinct) == 1
                else _segment_arrays([s for p in distinct for s in p.segments])
            )
        # Where the crossings are cuts, no kink can sit between a cut and a node.
        self.crossings = self.profiles and isinstance(adf, AcuityModel)
        b = np.array([job.b for job in jobs])
        intervals = _intervals(*self._cuts(jobs, b, roots, root_job))
        take = len(jobs)
        if roots is None and take > 1:
            # The crossings can take a pass past the bound it was planned by.
            nodes = np.cumsum(np.bincount(intervals.owner, intervals.panels, len(jobs)))
            take = max(1, int(np.searchsorted(nodes * len(_GAUSS_X), _PASS_NODES, side="right")))
        self.jobs, self.b, self.intervals = jobs[:take], b[:take], intervals
        if take < len(jobs):
            end = np.searchsorted(intervals.owner, take)
            self.intervals = _Intervals(*(x[:end] for x in intervals))
            if self.profiles:
                runs = [j for j in self.runs if j < take]
                self.runs, self.counts = runs + [take], self.counts[:len(runs)]

    def _cuts(self, jobs, b, roots, root_job):
        """Starts, ends, cuts and the job of each cut, for ``_intervals``."""
        a = np.array([job.a for job in jobs])
        cuts, owner = [], []
        for j, job in enumerate(jobs):
            if j == 0 or job.rdf is not jobs[j - 1].rdf:
                knots = _breakpoints_of(job.rdf)
            cuts += (job.a, job.b, *knots, *self.adf_cuts)
            owner += [j] * (len(knots) + len(self.adf_cuts) + 2)
        cuts, owner = [np.array(cuts)], [np.array(owner)]
        if self.crossings:
            # A crossing of a run's profile is a cut of every job of the run.
            found, line = self.adf._line_crossings(*self.arrays[:4])
            run = np.repeat(np.arange(len(self.counts)), self.counts)[line]
            if len(self.counts) == len(jobs):  # one job a run
                cuts.append(found)
                owner.append(run)
            else:
                size = np.diff(self.runs)[run]
                cuts.append(np.repeat(found, size))
                owner.append(np.repeat(np.array(self.runs[:-1])[run], size) + _ranks(size))
        if roots is not None:
            cuts.append(roots)
            owner.append(root_job)
        return a, b, np.concatenate(cuts), np.concatenate(owner)

    def rdf_at(self, xs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Job j's curve at ``xs[bounds[j]:bounds[j + 1]]``, for every job."""
        if self.profiles:
            return _eval_profiles(self.arrays, self.counts, xs, bounds[self.runs])
        out = np.empty_like(xs)
        for job, lo, hi in zip(self.jobs, bounds, bounds[1:]):
            if hi > lo:
                out[lo:hi] = _eval_curve(job.rdf, xs[lo:hi])
        return out

    def sign_at(self, xs: np.ndarray, job: np.ndarray) -> np.ndarray:
        """``sign(rdf - adf)`` at ``xs``, each on the curve of its job; ``job`` is sorted."""
        bounds = np.searchsorted(job, np.arange(len(self.jobs) + 1))
        return np.sign(self.rdf_at(xs, bounds) - _eval_curve(self.adf, xs))

    def sample(self):
        """Nodes of every job and both curves' values there."""
        nodes = _nodes(self.b, self.intervals)
        rdf_vals = self.rdf_at(nodes.xs, nodes.first * len(_GAUSS_X))
        return nodes, rdf_vals, _eval_curve(self.adf, nodes.xs)

    def kinks(self, nodes: _Nodes, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kinks no curve reported, and the job of each, bisected from sign changes.

        A sign change of ``rdf - adf`` between neighbouring nodes of one cut
        interval brackets one.  Where the crossings are not cuts, so does one
        between a cut and its nearest node.
        """
        same_interval = nodes.interval[1:] == nodes.interval[:-1]
        kinked = np.flatnonzero((side[1:] != side[:-1]) & same_interval)
        if self.crossings and not len(kinked):
            return kinked, kinked
        lo, hi, at_lo = [nodes.xs[kinked]], [nodes.xs[kinked + 1]], [side[kinked]]
        left, right, owner, _ = nodes.intervals
        job = [owner[nodes.interval[kinked]]]
        if not self.crossings:
            first = np.searchsorted(nodes.interval, np.arange(len(left)))
            last = np.append(first[1:], len(side)) - 1
            at_cut = self.sign_at(
                np.stack((left, right), axis=1).ravel(), np.repeat(owner, 2)
            ).reshape(-1, 2)
            into, out = at_cut[:, 0] != side[first], side[last] != at_cut[:, 1]
            lo += [left[into], nodes.xs[last][out]]
            hi += [nodes.xs[first][into], right[out]]
            at_lo += [at_cut[into, 0], side[last][out]]
            job += [owner[into], owner[out]]
        job = np.concatenate(job)
        if not len(job):
            return job, job
        order = np.argsort(job, kind="stable")
        job = job[order]
        lo, hi, at_lo = (np.concatenate(x)[order] for x in (lo, hi, at_lo))
        while True:  # bisect every bracket at once
            mid = 0.5 * (lo + hi)
            active = (lo < mid) & (mid < hi)
            if not active.any():
                return mid, job
            same = self.sign_at(mid, job) == at_lo
            lo = np.where(active & same, mid, lo)
            hi = np.where(active & ~same, mid, hi)

    def samples(self):
        """``(widths, rdf_vals, adf_vals)`` of each job, in order."""
        nodes, rdf_vals, adf_vals = self.sample()
        taken = [(nodes, rdf_vals, adf_vals, j) for j in range(len(self.jobs))]
        roots, root_job = self.kinks(nodes, np.sign(rdf_vals - adf_vals))
        if len(roots):
            # Sample the jobs with a kink again, with their kinks as cuts.
            again = np.unique(root_job)
            redo = [self.jobs[j] for j in again]
            redone = _Pass(self.adf, self.adf_cuts, redo, roots, np.searchsorted(again, root_job))
            nodes, rdf_vals, adf_vals = redone.sample()
            for k, j in enumerate(again):
                taken[j] = (nodes, rdf_vals, adf_vals, k)
        for nodes, rdf_vals, adf_vals, j in taken:
            p0, p1 = nodes.first[j], nodes.first[j + 1]
            n0, n1 = p0 * len(_GAUSS_X), p1 * len(_GAUSS_X)
            yield nodes.widths[p0:p1], rdf_vals[n0:n1], adf_vals[n0:n1]


def _passes(adf, adf_cuts: tuple[float, ...], jobs: list[_Job]):
    """The samples of ``jobs``, in as many passes as their nodes need."""
    while jobs:
        first = _Pass(adf, adf_cuts, jobs)
        yield from first.samples()
        jobs = jobs[len(first.jobs):]


def _sample(adf, jobs):
    """Panel widths and both curves' values on shared nodes for each ``(rdf, a, b)`` job.

    Yields one ``(widths, rdf_vals, adf_vals)`` per job, in order; no node if
    a == b.  Consecutive jobs of one kind (profiles or not) share a pass of
    at most ``_PASS_NODES`` nodes, and every job gets the nodes and values a
    pass of its own would give it.
    """
    adf_cuts = _breakpoints_of(adf)
    batch, size = [], 0
    for rdf, a, b in jobs:
        job = _Job(rdf, *_check_range(a, b))
        nodes = job.node_bound(len(adf_cuts))
        if batch and (size + nodes > _PASS_NODES or job.profile != batch[0].profile or not nodes):
            yield from _passes(adf, adf_cuts, batch)
            batch, size = [], 0
        if not nodes:
            yield np.zeros(0), np.zeros(0), np.zeros(0)
            continue
        batch.append(job)
        size += nodes
    yield from _passes(adf, adf_cuts, batch)


def _excess(widths, over, under) -> float:
    return _quadrature(widths, np.maximum(over - under, 0.0))


def _deficit(widths, rdf_vals, adf_vals) -> float:
    return _excess(widths, adf_vals, rdf_vals)


def _efficiency(waste: float, count: float, a: float, b: float) -> float:
    if count <= 0.0:
        raise EfficiencyUndefinedError(f"efficiency is undefined: zero cycle count over [{a!r}, {b!r}]")
    return 1.0 - waste / count


def pixel_deficit(rdf, adf, a: float, b: float) -> float:
    """Cycles by which the display falls short of the acuity target on [a, b]."""
    [sample] = _sample(adf, [(rdf, a, b)])
    return _deficit(*sample)


def pixel_waste(rdf, adf, a: float, b: float) -> float:
    """Cycles the display provides beyond the acuity target on [a, b]."""
    [(widths, rdf_vals, adf_vals)] = _sample(adf, [(rdf, a, b)])
    return _excess(widths, rdf_vals, adf_vals)


def rdf_efficiency(rdf, adf, a: float, b: float) -> float:
    """Fraction of the display's cycles that are not wasted: 1 - waste/count."""
    [(widths, rdf_vals, adf_vals)] = _sample(adf, [(rdf, a, b)])
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
    edge = getattr(rdf, "extent_deg", b)
    regions = [(rdf, 0.0, fovea_boundary_deg), (rdf, min(periphery_start_deg, edge), edge)]
    (widths, rdf_vals, adf_vals), fovea, periphery = _sample(adf, [(rdf, a, b), *regions])
    waste, cycle_count = _excess(widths, rdf_vals, adf_vals), _quadrature(widths, rdf_vals)
    return MetricsReport(
        deficit=_deficit(widths, rdf_vals, adf_vals),
        waste=waste,
        efficiency=_efficiency(waste, cycle_count, a, b),
        cycle_count=cycle_count,
        eval_range=(a, b),
        foveal_deficit=_deficit(*fovea),
        peripheral_deficit=_deficit(*periphery),
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
    # Candidate i has width i * scan_step; all are integrated in shared passes.
    jobs = ((_two_tier_profile(hi, lo, i * scan_step), 0.0, lo.half_fov_deg) for i in range(n + 1))
    best_width, best_deficit = 0.0, math.inf
    for i, sample in enumerate(_sample(adf, jobs)):
        deficit = _deficit(*sample)
        if deficit < best_deficit:
            best_width, best_deficit = i * scan_step, deficit
    return best_width
