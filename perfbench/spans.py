"""Span tracing of fovkit's public functions, installed from outside the package.

``install`` rebinds each function in ``TARGETS`` to a wrapper that records a
span (name, start, end, parent) and a few work counters read from the call's
arguments and result.  Every binding a caller can reach is replaced: the
defining module's attribute and each name another fovkit module imported it
under (``classify`` imports ``gaze_invariance_range`` and ``pixel_deficit``
by name, the package re-exports nearly everything).  Methods are rebound on
their class.  ``uninstall`` puts the originals back.

Spans are kept in flat arrays in memory and summarised or written out when
the run ends.  A span's self time is its duration minus the durations of its
direct children and minus the tracer's own bookkeeping done in its scope
(counting breakpoints, segments and points), so the self times of all spans
in an operation add up to the operation's duration exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, qualified name) of every traced function; spans are named
# "<module>.<qualified name>".
TARGETS = (
    ("cli", "main"),
    ("classify", "classify"),
    ("classify", "resolution_class"),
    ("classify", "gaze_class"),
    ("specio", "load_bundled_spec"),
    ("specio", "bundled_spec_names"),
    ("specio", "parse_display_spec"),
    ("display", "build_rdf"),
    ("display", "perceived_profile"),
    ("display", "gaze_invariance_range"),
    ("display", "ResolutionProfile.eval_many"),
    ("acuity", "make_adf"),
    ("acuity", "AcuityModel.eval_many"),
    ("metrics", "metrics_report"),
    ("metrics", "optimal_blend_width"),
    ("metrics", "pixel_deficit"),
    ("metrics", "pixel_waste"),
    ("metrics", "rdf_efficiency"),
    ("metrics", "integrate"),
)
SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)
ROOT = "op"

# Work counters, summed over a run; reported per operation.
COUNTERS = (
    "display.ResolutionProfile.eval_many.points",
    "acuity.AcuityModel.eval_many.points",
    "display.segments_out",
    "display.gaze_steps",
    "display.gaze_steps_useful",
    "metrics.breakpoints_in",
)

_QUADRATURES = {"pixel_deficit": 2, "pixel_waste": 2, "rdf_efficiency": 2, "integrate": 1}


def _n_breakpoints(curve) -> int:
    bp = getattr(curve, "breakpoints", None)
    return len(bp()) if callable(bp) else 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counters of one traced run, all in memory."""

    def __init__(self):
        self.names: list[str] = [ROOT, *SPAN_NAMES]
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.bookkeeping = array("q")  # tracer time spent inside the span, not the program's
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.recording = False
        self._stack: list[int] = []
        self._scans: list[list[float]] = []  # gaze angles tried by each open invariance scan

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.bookkeeping.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> int:
        t = perf_counter_ns()
        self.end[idx] = t
        self._stack.pop()
        return t

    def charge(self, ns: int) -> None:
        """Attribute tracer bookkeeping to the enclosing span."""
        if self._stack:
            self.bookkeeping[self._stack[-1]] += ns

    def begin_op(self) -> int:
        """Open the root span of one operation and start recording."""
        self._stack.clear()
        self._scans.clear()
        idx = self.open(0)
        self.recording = True
        return idx

    def end_op(self, idx: int, start_ns: int, end_ns: int) -> None:
        """Close the root span with the operation's own timestamps."""
        self.recording = False
        self.start[idx] = start_ns
        self.end[idx] = end_ns
        self._stack.clear()

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-operation calls, self and total time of each span, and counters."""
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        covered = np.zeros(len(dur), dtype=np.int64)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_ns = dur - covered - np.frombuffer(self.bookkeeping, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_total = np.bincount(name_id, weights=self_ns, minlength=k)
        dur_total = np.bincount(name_id, weights=dur, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES, start=1):
            out[f"{name}.calls"] = calls[i] / n_ops
            out[f"{name}.self_ms"] = self_total[i] / n_ops / 1e6
            out[f"{name}.total_ms"] = dur_total[i] / n_ops / 1e6
        for name, value in self.counters.items():
            if name != "display.gaze_steps_useful":
                out[name] = value / n_ops
        tried = self.counters["display.gaze_steps"]
        out["display.gaze_steps_useful_ratio"] = (
            self.counters["display.gaze_steps_useful"] / tried if tried else 0.0
        )
        out["trace.op_ms"] = dur_total[0] / n_ops / 1e6
        # Root self time: benchmark code inside the timed op plus all tracer bookkeeping.
        out["trace.bench_overhead_ms"] = (
            self_total[0] + float(np.sum(np.frombuffer(self.bookkeeping, dtype=np.int64)))
        ) / n_ops / 1e6
        return out

    def write(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent_index]."""
        doc = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [self.names[n], s, e, p]
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))

    # ---- counters, called from the wrappers with recording on -------------

    def _before(self, short: str, args, kwargs):
        if short in _QUADRATURES:
            self.counters["metrics.breakpoints_in"] += sum(
                _n_breakpoints(a) for a in args[: _QUADRATURES[short]]
            )
        elif short == "eval_many":
            return np.size(_arg(args, kwargs, 1, "eccentricities_deg"))
        elif short == "gaze_invariance_range":
            self._scans.append([])
        elif short == "perceived_profile" and self._scans:
            gaze = abs(float(_arg(args, kwargs, 1, "gaze_deg")))
            if gaze > 0:
                self._scans[-1].append(gaze)
        return None

    def _after(self, name: str, short: str, state, result) -> None:
        if short == "eval_many":
            self.counters[f"{name}.points"] += state
        elif short == "build_rdf":
            self.counters["display.segments_out"] += len(result.segments)
        elif short == "perceived_profile":
            # build_rdf's own profile is counted once, at build_rdf.
            if self.names[self.name_id[self._stack[-1]]] != "display.build_rdf":
                self.counters["display.segments_out"] += len(result.segments)
        elif short == "gaze_invariance_range":
            tried = self._scans.pop()
            self.counters["display.gaze_steps"] += len(tried)
            self.counters["display.gaze_steps_useful"] += sum(g <= result + 1e-9 for g in tried)


def _traced(tracer: Tracer, name: str, f):
    name_id = tracer.names.index(name)
    short = name.rsplit(".", 1)[1]

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return f(*args, **kwargs)
        t0 = perf_counter_ns()
        state = tracer._before(short, args, kwargs)
        idx = tracer.open(name_id)
        try:
            result = f(*args, **kwargs)
        finally:
            t2 = tracer.close(idx)
        tracer._after(name, short, state, result)
        tracer.charge(perf_counter_ns() - t0 - (t2 - tracer.start[idx]))
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every target to a traced wrapper; returns what ``uninstall`` needs."""
    undo = []
    fovkit_modules = [m for n, m in sys.modules.items() if n == "fovkit" or n.startswith("fovkit.")]
    for module_name, qualname in TARGETS:
        module = importlib.import_module(f"fovkit.{module_name}")
        name = f"{module_name}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _traced(tracer, name, original))
            undo.append((cls, attr, original))
            continue
        original = getattr(module, qualname)
        wrapper = _traced(tracer, name, original)
        for m in fovkit_modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
