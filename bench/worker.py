"""A fresh interpreter that imports biozsim and then makes timed runs.

run.py starts one worker at a time.  The worker imports biozsim once and
then forks one child per timed run, one after the other.  A child starts
from the parent's state right after the import, with every program cache
still empty, exactly as a new `bioz` process would; so no run can profit
from caches an earlier run filled.  Forking skips re-importing numpy and
scipy for every run, which buys many more runs per second of benchmark
and so steadier medians.

Set-up time is the import, timed from the first line of this file, plus
the first child's writing and parsing of its inputs.  Each child runs the
checks after its timed call; they never raise on a wrong answer.  A child
whose output bytes have the digest of an output this worker already
checked in full may skip the rest of the checks (see workloads.py) and
takes that verdict over.  The results are written as JSON to --result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


# The fields of a run's result that its checks decide.
VERDICT = ("ops", "failed", "reasons", "z_err_max_pct", "phase_err_max_deg", "reservoir_min_v",
           "readback_err_max_ohm", "readback_over_1ohm")


def timed_run(wl, case: dict, index: int, tag: str, traced: bool, args, checked: dict) -> dict:
    """One run in the current process: prepare, time the call, check."""
    t_prep = time.perf_counter()
    prepared = wl.setup(case, args.workdir, tag, args.tiny)
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    t1 = time.perf_counter()
    out = wl.run(prepared)
    wall_s = time.perf_counter() - t1
    if tracer:
        tracer.restore()
    outcome = wl.check(prepared, out, checked.keys())
    result = {
        "prepare_s": t1 - t_prep,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sequences": wl.sequences(case, args.tiny),
        "case": index,
        "traced": traced,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "reasons": outcome.reasons,
        "digest": outcome.digest,
        "z_err_max_pct": max(outcome.z_err_pct, default=None),
        "phase_err_max_deg": max(outcome.phase_err_deg, default=None),
        "reservoir_min_v": outcome.reservoir_min_v,
        **outcome.readback_summary(),
    }
    if outcome.reused:
        result.update(checked[outcome.digest])
    if tracer:
        result["layers"] = spans.layer_stats(tracer.spans, len(tracer.mixer_inputs))
        if args.spans:
            args.spans.write_text(json.dumps({"wall_s": wall_s, "spans": tracer.spans}))
    return result


def forked(fn, out: Path) -> str:
    """Run fn() in a forked child that writes its JSON result to `out`;
    return "" on success, else the child's error."""
    out.unlink(missing_ok=True)
    err = out.with_suffix(".err")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            out.write_text(json.dumps(fn()))
            code = 0
        except BaseException:
            err.write_text(traceback.format_exc())
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) == 0 and out.is_file():
        return ""
    lines = err.read_text().strip().splitlines() if err.is_file() else []
    return f"run exited with status {status}: {lines[-1] if lines else ''}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--first", type=int, default=0, help="global index of this worker's first run")
    p.add_argument("--budget", type=float, default=0.0,
                   help="start runs until this many seconds after start-up (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: every second run is traced")
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    p.add_argument("--setup", action="store_true",
                   help="only build the calibration table the sweep and link workloads read")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    import biozsim
    import numpy
    import scipy

    if not Path(biozsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"biozsim imported from {biozsim.__file__}, not from this checkout's src/",
              file=sys.stderr)
        return 2
    import workloads

    if args.setup:
        wl = workloads.WORKLOADS["calibrate"]
        prepared = wl.setup({"seed": args.seed}, args.workdir, "setup", args.tiny)
        outcome = wl.check_table(prepared, wl.run(prepared))
        args.result.write_text(json.dumps(
            {"ops": outcome.ops, "failed": outcome.failed, "reasons": outcome.reasons,
             "digest": outcome.digest}))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    cases = wl.cases(args.seed, args.tiny)
    per_case = 2 if args.trace else 1
    import_s = time.perf_counter() - T0
    runs, errors = [], []
    checked = {}  # output digest -> verdict of its full check
    g = args.first
    while not runs and not errors or time.perf_counter() - T0 < args.budget:
        index = (g // per_case) % len(cases)
        traced = bool(args.trace) and g % 2 == 1
        out = args.workdir / f"run-{g}.json"
        error = forked(lambda: timed_run(wl, cases[index], index, str(g), traced, args, checked),
                       out)
        if error:
            errors.append({"case": index, "error": error})
        else:
            runs.append(json.loads(out.read_text()))
            checked.setdefault(runs[-1]["digest"], {k: runs[-1][k] for k in VERDICT})
        g += 1
    args.result.write_text(json.dumps({
        "setup_s": import_s + runs[0]["prepare_s"] if runs else None,
        "cases": len(cases),
        "runs": runs,
        "errors": errors,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
