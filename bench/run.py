#!/usr/bin/env python3
"""Benchmark runner for biozsim.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  A set-up step builds the reference
calibration table with `bioz calibrate`, which the sweep and link
workloads read.  Then, for about S seconds, the runner starts worker
interpreters (bench/worker.py) one after the other; each imports biozsim
once and makes its timed runs in forked children, one at a time, so every
run starts with empty program caches.  Runs rotate through the workload's
cases.  With --trace 1 every second run is traced and the result holds
the per-layer metrics; with --trace 0 it holds the end-to-end metrics.
Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (with `all`, one such line per
workload).  The environment stamp, output digests and every run's figures
go to .bench_out/<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 120
WORKER_SECONDS = 8.0  # one worker's share of the run: one set-up sample, then forked runs
# Printed and recorded beside the BENCHMARK.json metrics, not gated by a
# bound: all but the last are simulated (identical for a fixed seed, so a
# speed-only change must leave them exactly equal, but they vary widely
# from seed to seed; the two readback_* ones are the fresh-noise 100 ohm
# read-back of `calibrate` against the paper's 1 ohm claim) and the share
# of failed operations is `failed` over `attempted` in the result line.
REPORTED_UNITS = {"z_err_max_pct": "%", "phase_err_max_deg": "deg", "reservoir_min_v": "V",
                  "readback_err_max_ohm": "ohm", "readback_over_1ohm": "count",
                  "failed_frac": "ratio"}
BLAS_THREADS = "1"  # at most nproc; one thread keeps fresh-process timings steady


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list, result: Path) -> tuple:
    """Run one worker to completion; return (result dict or None, error)."""
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args, "--result", str(result)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    return json.loads(result.read_text()), ""


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    tag = f"{name}-s{seed}-t{trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = ["--workload", name, "--seed", str(seed), "--workdir", str(work), "--trace", str(trace)]
    base += ["--tiny"] if tiny else []
    base += ["--spans", str(OUT / f"{tag}-spans.json")] if trace else []
    try:
        setup, error = spawn(base + ["--setup"], work / "setup.json")
        if setup is None:
            fail(f"set-up step failed: {error}")
        workers, runs, errors = [], [], []
        start = time.perf_counter()
        n_cases = 1
        # Cover every case (traced and untraced), then run until time is up.
        while len(runs) + len(errors) < n_cases * (2 if trace else 1) \
                or time.perf_counter() - start < seconds:
            budget = max(0.0, min(WORKER_SECONDS, seconds - (time.perf_counter() - start)))
            res, error = spawn(base + ["--first", str(len(runs) + len(errors)),
                                       "--budget", str(budget)], work / "worker.json")
            if res is None:
                errors.append({"case": None, "error": error})
                continue
            workers.append(res)
            runs += res["runs"]
            errors += res["errors"]
            n_cases = res["cases"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not runs:
        fail(f"no run of {name} completed: {errors[-1]['error']}")

    # Every run of a case must reproduce the first run's outputs byte for byte.
    attempted, failed = setup["ops"], setup["failed"]
    reasons = setup["reasons"] + [e["error"] for e in errors]
    digests, ops_of = {}, {}
    for r in runs:
        attempted += r["ops"]
        failed += r["failed"]
        reasons += r["reasons"]
        ops_of[r["case"]] = r["ops"]
        first = digests.setdefault(r["case"], r["digest"])
        if r["digest"] != first:
            failed += r["ops"] - r["failed"]
            reasons.append(f"case {r['case']}: output differs from an earlier run of the same seed")
    for e in errors:
        lost = ops_of.get(e["case"], 1)
        attempted += lost
        failed += lost

    plain = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    wall = median([r["wall_s"] for r in plain])
    values = {
        "setup_s": median([w["setup_s"] for w in workers if w["setup_s"] is not None]),
        "wall_s": wall,
        "sequences_per_s": median([r["sequences"] / r["wall_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    if traced_runs:
        for key in traced_runs[0]["layers"]:
            values[key] = median([r["layers"][key] for r in traced_runs])
        values["trace.overhead_s"] = median([r["wall_s"] for r in traced_runs]) - wall

    def extreme(fn, key):
        found = [r[key] for r in runs if r[key] is not None]
        return fn(found) if found else None

    reported = {
        "z_err_max_pct": extreme(max, "z_err_max_pct"),
        "phase_err_max_deg": extreme(max, "phase_err_max_deg"),
        "reservoir_min_v": extreme(min, "reservoir_min_v"),
        "readback_err_max_ohm": extreme(max, "readback_err_max_ohm"),
        "readback_over_1ohm": extreme(max, "readback_over_1ohm"),
        "failed_frac": failed / attempted,
    }

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            fail(f"{name}: no value for metric {m['name']}: {reasons[:3]}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "env": {**workers[0]["versions"], "nproc": nproc(), "git_rev": git_rev(),
                "blas_threads": BLAS_THREADS, "seed": seed},
        "workers": len(workers), "runs": len(runs), "traced_runs": len(traced_runs),
        "failed_runs": len(errors),
        "setup_samples_s": [w["setup_s"] for w in workers],
        "digests": [digests[c] for c in sorted(digests)],
        "setup_table_digest": setup["digest"],
        "values": values,
        "reported": reported,
        "reasons": reasons[:50],
        "samples": runs,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


def main() -> int:
    p = argparse.ArgumentParser(description="biozsim benchmark runner")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = p.parse_args()

    if not (ROOT / "src" / "biozsim" / "__init__.py").is_file():
        fail(f"no biozsim sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail(f"unknown workload {args.workload!r}; have {names} or all")

    for name in names if args.workload == "all" else [args.workload]:
        res = run_workload(spec, name, args.seed, args.seconds, args.trace, args.tiny)
        d = res["details"]
        print(f"# {name} seed {args.seed}: {d['workers']} workers, {d['runs']} runs "
              f"({d['traced_runs']} traced), "
              f"{res['failed']}/{res['attempted']} operations failed, "
              f"digests {' '.join(x[:12] for x in d['digests'])}")
        print("#   env " + " ".join(f"{k}={v}" for k, v in d["env"].items()))
        for key, m in res["metrics"].items():
            print(f"#   {key:<44} {m['value']:>14.6g} {m['unit']}")
        for key, value in d["reported"].items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"#   {key:<44} {shown:>14} {REPORTED_UNITS[key]}")
        for reason in d["reasons"][:5]:
            print(f"#   failure: {reason}")
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
