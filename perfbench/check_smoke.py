"""Smoke check of the benchmark: every workload once, short, untraced and traced.

    python3 perfbench/check_smoke.py
    python3 -m pytest perfbench/check_smoke.py

Each run must exit 0 with no failed output check and emit exactly the
metrics BENCHMARK.json names, with their units.  A traced run's per-module
self times plus the benchmark overhead must add up to its traced op time.
Run as a script, it prints every run's metrics by name and unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = 1  # a run is whole cycles, so this is one cycle of each workload
SEED = 7


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        accounted = values["trace.bench_overhead_ms"] + sum(
            v for name, v in values.items() if name.endswith(".self_ms")
        )
        assert math.isclose(accounted, values["trace.op_ms"], rel_tol=1e-6), (
            accounted, values["trace.op_ms"])
    else:
        assert all(v > 0 for v in values.values())
    return proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_spec()
    assert spec["workloads"] and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, rows in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(rows)


def test_every_workload_untraced_and_traced():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace)


if __name__ == "__main__":
    test_benchmark_json_matches_the_runner()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            print(smoke(workload, trace).rsplit("\n", 2)[0])
    print("smoke check passed")
