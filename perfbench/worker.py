"""One workload process: set up, report when set-up ended, run the closed loop.

Started by ``run.py`` with the checkout's ``src`` on the import path.  It
prints one JSON object on stdout.  With ``--setup-only`` it stops right
where the first timed operation would start, so the parent can time set-up
on its own.

The loop is closed and single-threaded: one caller, and the next operation
starts only after the previous one returned and was checked.  A run is a
whole number of cycles: it stops at the cycle boundary nearest to
``--seconds`` of operation time, so every input weighs the same in a run,
but not before ``MIN_OPS`` ops when untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import resource  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import fovkit  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURE_SAMPLES = 20
MIN_OPS = 100  # per untraced run, so that at least 10 ops lie beyond p90

# The machine this benchmark was tuned on (a 2-vCPU Xeon VM on a shared host)
# changes CPU speed by up to 2x over seconds to minutes: a fixed pure-Python
# loop shows it, with nothing else running.  That swamps code changes in raw
# wall time.  So right before every untraced op, and once after set-up, the
# worker times a fixed reference kernel that does not touch fovkit, and the
# end-to-end times are scaled to the speed at which that kernel takes
# REFERENCE_NOMINAL_NS.  The raw times are reported alongside.
REFERENCE_NOMINAL_NS = 1_500_000
REFERENCE_WINDOW = 4  # reference times of this many ops on each side are pooled
_REF_XS = np.linspace(0.0, 15.0, 1501)
_REF_KNOTS = np.linspace(0.5, 50.0, 40)


def reference_ns() -> int:
    """Time of a fixed mix of interpreter arithmetic and small numpy calls."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for k in range(6000):
        acc += (k * 0.5) % 7.0
    for _ in range(50):
        acc += float(np.max(np.abs(np.minimum(_REF_XS, 3.0) - _REF_XS[::-1])))
        acc += float(np.searchsorted(_REF_KNOTS, _REF_XS)[-1])
    return time.perf_counter_ns() - t0


def at_reference_speed(latencies_ns: list[int], reference: list[int]) -> list[float]:
    """Each latency scaled by the median reference time of the ops around it."""
    w = REFERENCE_WINDOW
    return [
        lat * REFERENCE_NOMINAL_NS / statistics.median(reference[max(0, i - w):i + w + 1])
        for i, lat in enumerate(latencies_ns)
    ]


class Phase:
    """Latencies and failed checks of the operations run one way."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.reference_ns: list[int] = []  # reference kernel time before each op
        self.total_ns = 0
        self.failed = 0
        self.failures: list[tuple[str, list[str]]] = []

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    def run(self, op, tracer=None) -> None:
        root = tracer.begin_op() if tracer else None
        error = None
        t0 = time.perf_counter_ns()
        try:
            output = op.run()
        except Exception as e:  # a failed op is counted, the loop goes on
            error = e
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.end_op(root, t0, t1)
        self.latencies_ns.append(t1 - t0)
        self.total_ns += t1 - t0
        try:
            problems = [f"{type(error).__name__}: {error}"] if error else op.check(output)
        except Exception as e:
            problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_SAMPLES:
                self.failures.append((op.label, problems))


def run_loop(cycle, seconds: float, tracer=None, min_ops: int = 1) -> tuple[Phase, Phase]:
    """Whole cycles for about ``seconds`` of op time and at least ``min_ops`` ops.

    With a tracer every op runs twice in a row, untraced and then traced, so
    the two phases see the same inputs under the same machine conditions.
    The wrappers are installed only around the traced run.
    """
    plain, traced = Phase(), Phase()
    n = len(cycle)
    i = 0
    while True:
        if i >= min_ops and i % n == 0:
            # Stop at the cycle boundary nearest to the time budget.
            elapsed = plain.total_ns + traced.total_ns
            if elapsed + elapsed / (i // n) / 2 >= seconds * 1e9:
                break
        op = cycle[i % n]
        plain.reference_ns.append(reference_ns())
        plain.run(op)
        if tracer:
            undo = spans.install(tracer)
            try:
                traced.run(op, tracer)
            finally:
                spans.uninstall(undo)
        i += 1
    return plain, traced


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def latency_metrics(latencies_ns) -> dict[str, float]:
    lat = sorted(latencies_ns)
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_ms.p50": percentile(lat, 50) / 1e6,
        "op_ms.p90": percentile(lat, 90) / 1e6,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()

    if not Path(fovkit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fovkit imported from {fovkit.__file__}, not from this checkout")
    warnings.simplefilter("ignore", fovkit.AcuityRangeWarning)
    cycle = workloads.build(args.workload, args.seed)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # Machine speed at the end of set-up, to scale set-up time like op times.
    speed = REFERENCE_NOMINAL_NS / statistics.median(reference_ns() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns, "speed": speed}))
        return 0

    result = {
        "ready_ns": ready_ns, "speed": speed, "cycle_ops": len(cycle),
        "numpy": np.__version__, "fovkit": fovkit.__version__,
        "inputs": dict(workloads.WORKLOAD_INPUTS[args.workload], cycle=[op.label for op in cycle]),
    }
    tracer = spans.Tracer() if args.trace else None
    plain, traced = run_loop(cycle, args.seconds, tracer, min_ops=1 if tracer else MIN_OPS)
    phases = (plain, traced)
    if tracer:
        result["metrics"] = tracer.summary(traced.ops)
        result["metrics"]["trace.overhead_ratio"] = plain.total_ns / traced.total_ns
        if args.spans_out:
            tracer.write(args.spans_out)
        result["samples"] = traced.ops
    else:
        scaled = at_reference_speed(plain.latencies_ns, plain.reference_ns)
        result["metrics"] = dict(
            latency_metrics(scaled),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        result["raw_metrics"] = latency_metrics(plain.latencies_ns)
        ref = sorted(plain.reference_ns)
        result["reference_ms"] = {"min": ref[0] / 1e6, "median": percentile(ref, 50) / 1e6,
                                  "max": ref[-1] / 1e6}
        result["samples"] = plain.ops
    result["attempted"] = sum(p.ops for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["failures"] = [f for p in phases for f in p.failures][:MAX_FAILURE_SAMPLES]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
