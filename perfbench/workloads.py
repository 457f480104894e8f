"""Benchmark workloads: seeded inputs, one operation each, and output checks.

A workload is a fixed cycle of operations built from the seed.  The runner
calls them in order, one at a time, and checks each result outside the timed
region.  Operations call fovkit through module attributes looked up at call
time, so the tracer's rebinding (see ``spans.py``) sees every call.

The checks hold for any correct implementation, not just today's sampling
one: grades are pinned only where the acceptance suite pins them, and the
numeric checks are identities of the definitions or closed forms with the
quadrature's documented 1e-6 relative accuracy.
"""

from __future__ import annotations

import importlib
import io
import itertools
import math
import random
from contextlib import redirect_stderr, redirect_stdout

acuity = importlib.import_module("fovkit.acuity")
classify_mod = importlib.import_module("fovkit.classify")
cli = importlib.import_module("fovkit.cli")
display = importlib.import_module("fovkit.display")
metrics = importlib.import_module("fovkit.metrics")
specio = importlib.import_module("fovkit.specio")

CFG = classify_mod.ClassifierConfig()  # the defaults the CLI and classify use

# cli_grid: every bundled spec at the acuities of scripts/classify_bundled.py.
CLI_SPECS = ("hololens", "kim", "uniform_30cpd_80deg", "varjo_vr1", "vive", "vive_pro")
CLI_ACUITIES = ("20/10", "20/20", "20/30", "20/40", "20/80", "20/200")
# The only grades the acceptance suite pins (criterion 2, at 20/20).
PINNED_20_20 = {"vive": "D4", "vive_pro": "C4", "hololens": "D4", "varjo_vr1": "A3", "kim": "B2"}

# blend_lens: a blended high-resolution inset over the 7.2 cpd surround of
# the fixed input below, under the vive_pro lens falloff.  The product of a
# blend ramp and the falloff is subdivided into chords, ~100 segments per
# degree of blend; 2-3 deg keeps operations in the tens to hundreds of ms.
# How far the gaze scan gets grows with the acuity denominator.  Acuity and
# blend width form a grid with one design per cell, drawn inside the cell, so
# every seed spreads its cost the same way; the rest are drawn by Latin
# hypercube.
BLEND_GRID = {  # parameter: (low, high, cells)
    "acuity_denominator": (15, 40, 12),  # acuity 20/N, N an integer
    "blend_width_deg": (2.0, 3.0, 4),
}
BLEND_FREE = {  # parameter: (low, high)
    "inset_cpd": (24.0, 40.0),
    "inset_half_fov_deg": (13.0, 17.0),
    "surround_half_fov_deg": (45.0, 55.0),
}
# One fixed input per cycle: the 1,005-segment inset of ROADMAP's baseline at
# 20/20.  20/200 on it takes seconds per operation and is left out.
ROADMAP_INSET = {"inset_cpd": 30.0, "inset_half_fov_deg": 16.0, "blend_width_deg": 10.0,
                 "surround_cpd": 7.2, "surround_half_fov_deg": 50.0, "acuity": "20/20"}

# metrics_sweep: two-tier designs without lens falloff and no gaze scan.
# optimal_blend_width dominates: it integrates the deficit over the
# surround's extent once per candidate width.  The number of candidates
# (scan_step is the widest possible band over it) and that extent form the
# grid.
SWEEP_GRID = {
    "candidate_widths": (15, 75, 12),
    "surround_half_fov_deg": (40.0, 60.0, 2),
}
SWEEP_FREE = {
    "inset_cpd": (20.0, 40.0),
    "inset_half_fov_deg": (8.0, 20.0),
    "blend_width_deg": (0.0, 3.0),
    "surround_cpd": (4.0, 12.0),
    "acuity_denominator": (15, 40),
    "foveation_error_deg": (0.5, 3.0),
}

WORKLOAD_INPUTS = {
    "cli_grid": {"specs": CLI_SPECS, "acuities": CLI_ACUITIES},
    "blend_lens": {"grid": BLEND_GRID, "free": BLEND_FREE, "fixed": ROADMAP_INSET},
    "metrics_sweep": {"grid": SWEEP_GRID, "free": SWEEP_FREE},
}


# ---- checks ----------------------------------------------------------------


def _adf_integral(adf, a: float, b: float) -> float:
    """Closed-form integral of an acuity model over [a, b]."""
    p = adf.plateau_end_deg
    plateau = adf.foveal_cpd * max(0.0, min(b, p) - min(a, p))
    ta, tb = max(a, p) - p, max(b, p) - p
    if adf.kind == acuity.CONSTANT_FOVEA:
        s = adf.rolloff_cpd_per_deg
        c = s / adf.foveal_cpd
        return plateau + s * (math.log(tb + c) - math.log(ta + c))
    r = adf.rolloff_per_deg
    return plateau + adf.foveal_cpd / r * (math.log1p(r * tb) - math.log1p(r * ta))


def _rdf_integral(profile, a: float, b: float) -> float:
    """Exact integral of a piecewise-linear profile over [a, b]."""
    total = 0.0
    for s in profile.segments:
        x0, x1 = max(s.start, a), min(s.end, b)
        if x1 > x0:
            total += (x1 - x0) * (s.value_at(x0) + s.value_at(x1)) / 2
    return total


def check_report(rdf, adf, report) -> list[str]:
    problems = []
    if not math.isclose(report.efficiency, 1 - report.waste / report.cycle_count,
                        rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"efficiency {report.efficiency!r} != 1 - waste/cycle_count")
    a, b = report.eval_range
    adf_cycles, rdf_cycles = _adf_integral(adf, a, b), _rdf_integral(rdf, a, b)
    gap = (report.deficit - report.waste) - (adf_cycles - rdf_cycles)
    if abs(gap) > 1e-6 * max(abs(adf_cycles), abs(rdf_cycles)):
        problems.append(f"deficit - waste is off the closed form by {gap!r} cycles")
    return problems


def check_grade(result, rdf) -> list[str]:
    """The letter follows from the evidence deficits, the digit from the reach."""
    ev = result.evidence
    edge = rdf.extent_deg < CFG.min_full_field_half_angle
    foveal = ev.foveal_deficit <= CFG.foveal_deficit_tol
    peripheral = ev.peripheral_deficit <= CFG.peripheral_deficit_tol and not edge
    letter = ("A" if peripheral else "B") if foveal else ("C" if peripheral else "D")
    reach = ev.gaze_invariance_range
    if reach < CFG.class4_bound:
        digit = 4
    elif reach < CFG.class3_bound:
        digit = 3
    elif reach < CFG.full_gaze_range:
        digit = 2
    else:
        digit = 1
    problems = []
    if ev.edge_artifact != edge:
        problems.append(f"edge artifact {ev.edge_artifact} for extent {rdf.extent_deg!r}")
    if not 0.0 <= reach <= CFG.full_gaze_range:
        problems.append(f"invariance range {reach!r} outside [0, {CFG.full_gaze_range}]")
    if (result.resolution_class, result.gaze_class) != (letter, digit):
        problems.append(
            f"grade {result.resolution_class}{result.gaze_class}, evidence gives {letter}{digit}"
        )
    if result.combined != f"{result.acuity_label} {result.resolution_class}{result.gaze_class}":
        problems.append(f"combined label {result.combined!r} does not match its parts")
    return problems


# ---- operations ------------------------------------------------------------


class CliClassify:
    """``fovkit classify --acuity A --spec NAME`` in process, stdout captured."""

    def __init__(self, name: str, acuity_text: str):
        self.label = f"cli {name} {acuity_text}"
        self.name, self.acuity_text = name, acuity_text
        self.argv = ["classify", "--acuity", acuity_text, "--spec", name]
        self._expected = None  # (final line, problems) from the library, computed once
        self._first_output = None

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def _library_view(self):
        spec = specio.load_bundled_spec(self.name)
        result = classify_mod.classify(spec, self.acuity_text)
        rdf = display.build_rdf(spec)
        adf = acuity.make_adf(acuity.CONSTANT_FOVEA, self.acuity_text)
        report = metrics.metrics_report(rdf, adf)
        problems = check_grade(result, rdf) + check_report(rdf, adf, report)
        pinned = PINNED_20_20.get(self.name) if self.acuity_text == "20/20" else None
        if pinned and result.combined != f"20/20 {pinned}":
            problems.append(f"grade {result.combined!r}, acceptance suite pins 20/20 {pinned}")
        return f"{spec.name}: {result.combined}", problems

    def check(self, output) -> list[str]:
        code, out, err = output
        if self._expected is None:
            self._expected = self._library_view()
        line, problems = self._expected
        problems = list(problems)
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()}")
        last = out.splitlines()[-1] if out else ""
        if last != line:
            problems.append(f"final line {last!r}, library gives {line!r}")
        if self._first_output is None:
            self._first_output = out
        elif out != self._first_output:
            problems.append("output differs from an earlier run of the same command")
        return problems


class BlendClassify:
    """Library ``classify`` plus ``metrics_report`` of one design."""

    def __init__(self, spec, acuity_text: str):
        self.label = f"blend {spec.name} {acuity_text}"
        self.spec, self.acuity_text = spec, acuity_text

    def run(self):
        result = classify_mod.classify(self.spec, self.acuity_text)
        rdf = display.build_rdf(self.spec)
        adf = acuity.make_adf(acuity.CONSTANT_FOVEA, self.acuity_text)
        report = metrics.metrics_report(rdf, adf)
        return result, rdf, adf, report

    def check(self, output) -> list[str]:
        result, rdf, adf, report = output
        return check_grade(result, rdf) + check_report(rdf, adf, report)


def _widest_band(spec) -> float:
    """The widest blend band optimal_blend_width considers for a two-tier spec."""
    hi, lo = spec.tiers
    return min(hi.half_fov_deg, lo.half_fov_deg - hi.half_fov_deg)


class MetricsSweep:
    """``build_rdf``, four ``metrics_report``s and ``optimal_blend_width``."""

    def __init__(self, spec, acuity_text: str, foveation_error_deg: float, scan_step: float):
        self.label = f"sweep {spec.name} {acuity_text}"
        self.spec, self.acuity_text = spec, acuity_text
        self.foveation_error_deg, self.scan_step = foveation_error_deg, scan_step

    def run(self):
        rdf = display.build_rdf(self.spec)
        reports = []
        for kind in acuity.ADF_KINDS:
            for error in (0.0, self.foveation_error_deg):
                adf = acuity.make_adf(kind, self.acuity_text, foveation_error_deg=error)
                reports.append((adf, metrics.metrics_report(rdf, adf)))
        hi, lo = self.spec.tiers
        width = metrics.optimal_blend_width(hi, lo, reports[0][0], scan_step=self.scan_step)
        return rdf, reports, width

    def check(self, output) -> list[str]:
        rdf, reports, width = output
        problems = [p for adf, report in reports for p in check_report(rdf, adf, report)]
        cap = _widest_band(self.spec)
        if not 0.0 <= width <= cap + 1e-9:
            problems.append(f"optimal blend width {width!r} outside [0, {cap!r}]")
        return problems


# ---- inputs ----------------------------------------------------------------


def _value(lo, hi, u: float):
    v = lo + (hi - lo) * u
    return round(v) if isinstance(lo, int) else round(v, 3)


def _designs(rng: random.Random, grid: dict, free: dict) -> list[dict]:
    """One design per cell of the grid, each value drawn inside its cell.

    The ``free`` parameters are drawn by Latin hypercube: each takes one value
    from each of as many equal strata as there are cells, in shuffled order.
    """
    cells = list(itertools.product(*(range(n) for _, _, n in grid.values())))
    designs = [
        {key: _value(lo, hi, (k + rng.random()) / n)
         for (key, (lo, hi, n)), k in zip(grid.items(), cell)}
        for cell in cells
    ]
    for key, (lo, hi) in free.items():
        strata = list(range(len(cells)))
        rng.shuffle(strata)
        for design, k in zip(designs, strata):
            design[key] = _value(lo, hi, (k + rng.random()) / len(cells))
    rng.shuffle(designs)
    return designs


def _round_trip(spec):
    """Serialize and re-parse a generated spec; fovkit sees only the parsed one."""
    parsed = specio.parse_display_spec(specio.serialize_display_spec(spec))
    if parsed != spec:
        raise ValueError(f"spec {spec.name!r} does not survive a serialize/parse round trip")
    return parsed


def _two_tier(name: str, d: dict, degradation):
    return _round_trip(display.DisplaySpec(
        name=name,
        tiers=(
            display.Tier(d["inset_cpd"], d["inset_half_fov_deg"],
                         blend_width_deg=d["blend_width_deg"]),
            display.Tier(d["surround_cpd"], d["surround_half_fov_deg"]),
        ),
        degradation=degradation,
    ))


def _cli_grid(rng: random.Random) -> list:
    ops = [CliClassify(name, a) for name in CLI_SPECS for a in CLI_ACUITIES]
    rng.shuffle(ops)
    return ops


def _blend_lens(rng: random.Random) -> list:
    lens = specio.load_bundled_spec("vive_pro").degradation
    surround = ROADMAP_INSET["surround_cpd"]
    ops = [
        BlendClassify(_two_tier(f"blend_{i:02d}", dict(d, surround_cpd=surround), lens),
                      f"20/{d['acuity_denominator']}")
        for i, d in enumerate(_designs(rng, BLEND_GRID, BLEND_FREE))
    ]
    fixed = BlendClassify(_two_tier("roadmap_inset", ROADMAP_INSET, lens), ROADMAP_INSET["acuity"])
    ops.insert(rng.randrange(len(ops) + 1), fixed)
    return ops


def _metrics_sweep(rng: random.Random) -> list:
    ops = []
    for i, d in enumerate(_designs(rng, SWEEP_GRID, SWEEP_FREE)):
        spec = _two_tier(f"sweep_{i:02d}", d, display.OffAxisDegradation())
        ops.append(MetricsSweep(spec, f"20/{d['acuity_denominator']}", d["foveation_error_deg"],
                                _widest_band(spec) / d["candidate_widths"]))
    return ops


WORKLOADS = {"cli_grid": _cli_grid, "blend_lens": _blend_lens, "metrics_sweep": _metrics_sweep}


def build(workload: str, seed: int) -> list:
    """The cycle of operations for a workload; the same seed gives the same cycle."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
