#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (about two minutes).

    python3 bench/smoke.py

Runs bench/run.py --tiny on every workload with tracing off and on, and
checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced spans nest (self time >= 0, each child inside its parent)
and that their summed self time accounts for the traced wall time.
Exits 0 when every check holds.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
COVERED = 0.9  # share of the traced wall time the spans must account for

problems = []


def check(ok: bool, what: str):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode} {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}


def check_metrics(label: str, result: dict, spec: list):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result.get("attempted", 0) >= 1, f"{label}: attempted >= 1")
    print(f"{label}: correct={result.get('correct')} failed={result.get('failed')}/{result.get('attempted')}")
    metrics = result.get("metrics", {})
    check(set(metrics) == {m["name"] for m in spec}, f"{label}: metric names differ from BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"], f"{label}: {m['name']} unit {got.get('unit')!r}")
        value = got.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {m['name']} value {value!r}")


def check_spans(label: str, path: Path):
    doc = json.loads(path.read_text())
    spans, wall = doc["spans"], doc["wall_s"]
    own = [end - start for _, _, start, end, _ in spans]
    for i, (name, parent, start, end, _) in enumerate(spans):
        check(end >= start, f"{label}: span {i} {name} ends before it starts")
        if parent is not None:
            p_start, p_end = spans[parent][2], spans[parent][3]
            check(parent < i and p_start <= start and end <= p_end,
                  f"{label}: span {i} {name} lies outside its parent {spans[parent][0]}")
            own[parent] -= end - start
    check(min(own) >= -1e-9, f"{label}: negative self time {min(own)}")
    covered = sum(own) / wall
    print(f"{label}: {len(spans)} spans cover {covered:.3f} of the traced wall time")
    check(COVERED <= covered <= 1.0 + 1e-9, f"{label}: spans cover {covered:.3f} of wall_s")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        check_metrics(f"{name} trace 0", run(name, 0), spec["end_to_end"])
        traced = run(name, 1)
        check_metrics(f"{name} trace 1", traced, spec["per_layer"])
        check_spans(f"{name} spans", ROOT / ".bench_out" / f"{name}-s{SEED}-t1-spans.json")
        layers = traced.get("metrics", {})
        if name == "sweep_tissue":
            rational = layers.get("afe.mixer_dc_pair.rational.calls", {}).get("value")
            check(rational == 0, f"{name}: rational route ran {rational} times")
        if name == "link_sessions":
            distinct = layers.get("afe.mixer_dc_pair.distinct_frac", {}).get("value")
            check(distinct == 1.0, f"{name}: distinct_frac {distinct}, expected 1.0")
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
