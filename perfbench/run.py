"""fovkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fovkit is imported from its ``src``.  The
workload runs in a child process (``worker.py``) so that set-up can be timed
from process launch.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` a separate run reports per-module metrics from
spans recorded around fovkit's public functions (``spans.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
restate every metric with its unit and the error rate.  The full record
(environment, seed, inputs, sample counts, failures) goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("cli_grid", "blend_lens", "metrics_sweep")
SETUP_LAUNCHES = 9  # set-up is timed this many times per run; the median is reported
DEADLINE_S = 170  # every run ends within this, whatever --seconds says

END_TO_END = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer():
    import spans  # only the metric names; importing it loads no fovkit

    rows = []
    for name in spans.SPAN_NAMES:
        rows += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower"),
                 (f"{name}.total_ms", "ms", "lower")]
    rows += [(name, "count", "lower") for name in spans.COUNTERS if not name.endswith("_useful")]
    rows += [
        ("display.gaze_steps_useful_ratio", "ratio", "higher"),
        ("trace.op_ms", "ms", "lower"),
        ("trace.bench_overhead_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "higher"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def launch(argv, env, deadline: float) -> tuple[dict, int]:
    """Run a worker to completion; its result and its launch time (monotonic ns)."""
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env, capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fovkit" / "__init__.py").is_file():
        print(f"error: no fovkit sources under {ROOT / 'src'}; run from a fovkit checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Single-threaded numpy: the closed loop has one caller and nothing else runs.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []  # (raw, scaled to the reference speed) set-up time, ns
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                probe, launched = launch([*common, "--setup-only"], env, deadline)
                setups.append((probe["ready_ns"] - launched, probe["speed"]))
        argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            argv += ["--spans-out", str(OUT / f"{stem}-spans.json.gz")]
        result, launched = launch(argv, env, deadline)
        setups.append((result["ready_ns"] - launched, result["speed"]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    values = dict(result["metrics"], setup_s=statistics.median(ns * k for ns, k in setups) / 1e9)
    raw = dict(result.get("raw_metrics", {}))
    if not args.trace:
        raw["setup_s"] = statistics.median(ns for ns, _ in setups) / 1e9
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in wanted}
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(environment(), numpy=result["numpy"], fovkit=result["fovkit"]),
        "inputs": result["inputs"],
        "samples": result["samples"],
        "raw_metrics": raw,
        "reference_ms": result.get("reference_ms"),
        "setup_s_samples": [ns / 1e9 for ns, _ in setups],
        "speed_samples": [k for _, k in setups],
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": result["failures"],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {result['samples']} ops sampled "
          f"in cycles of {result['cycle_ops']}, {attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"  {'raw ' + name:<44} {value:>14.6g} {metrics[name]['unit']}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio")
    for label, problems in result["failures"]:
        print(f"  FAILED {label}: {'; '.join(problems)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
