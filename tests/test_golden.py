"""Golden outputs: the exact bytes of `bioz calibrate` tables, sweep CSVs,
one sweep's JSON and `bioz link-demo --trace` stdout for two scripts.

A change that claims only speed must leave every seeded output
byte-identical; these files pin them at two seeds.  A change that moves
seeded outputs on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and states why in its description.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from biozsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (3, 14)
REPEATS = 3

CAL_SCENARIO = {"model": {"type": "parallel_rc", "r": 100.0, "c": 0.0}, "gain": "111"}

# name -> (scenario, calibrated)
SWEEPS = {
    "rc_interface": (
        {"model": {"type": "parallel_rc", "r": 220.0, "c": 4.7e-9, "r_interface": 50.0},
         "gain": "111"},
        True,
    ),
    "cole": (
        {"model": {"type": "cole", "r_inf": 60.0, "r0": 150.0, "tau": 7.9577e-7, "alpha": 0.8},
         "gain": "111"},
        True,
    ),
    "blood": ({"model": {"type": "builtin", "name": "blood"}, "gain": "111"}, True),
    "auto_gain": (
        {"model": {"type": "parallel_rc", "r": 2000.0, "c": 2e-10}, "gain": "auto"},
        False,
    ),
    "time_varying": (
        {"model": {"type": "time_varying",
                   "base": {"type": "parallel_rc", "r": 120.0, "c": 1e-9},
                   "schedule": {"r": [[0.0, 100.0], [10.0, 200.0]]},
                   "time": 5.0},
         "gain": "111"},
        True,
    ),
}


#: The sweep also written as JSON (`--format json`).
JSON_SWEEP = "auto_gain"

#: A reader script: PING, then configure, measure and read at two plan indices.
LINK_SCRIPT = [{"op": "ping"}] + [
    op for idx in (0, 10)
    for op in ({"op": "set_config", "freq_sel": idx}, {"op": "start_measure"}, {"op": "read_result"})
]

#: PING, then three measurements at one plan index: repeats 0, 1 and 2 of
#: that index's seed streams.
LINK_REPEATS_SCRIPT = [{"op": "ping"}, {"op": "set_config", "freq_sel": 4},
                       *({"op": "start_measure"}, {"op": "read_result"}) * 3]


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def calibrate_bytes(workdir: Path, seed: int) -> bytes:
    out = workdir / f"cal_s{seed}.json"
    scen = _write(workdir / "cal_scenario.json", CAL_SCENARIO)
    rc = cli.main([
        "calibrate", "--scenario", str(scen), "--out", str(out),
        "--seed", str(seed), "--created-at", "pinned",
    ])
    assert rc == cli.EXIT_OK
    return out.read_bytes()


def sweep_bytes(workdir: Path, name: str, seed: int, fmt: str = "") -> bytes:
    """Sweep output, CSV or as `--format fmt` asks; a calibrated one reads
    the table `calibrate_bytes` left in `workdir`."""
    doc, calibrated = SWEEPS[name]
    scen = _write(workdir / f"{name}.json", doc)
    out = workdir / f"{name}_s{seed}.{fmt or 'csv'}"
    argv = ["sweep", "--scenario", str(scen), "--seed", str(seed),
            "--repeats", str(REPEATS), "--out", str(out)] + (["--format", fmt] if fmt else [])
    if calibrated:
        argv += ["--cal", str(workdir / f"cal_s{seed}.json")]
    else:
        argv.append("--uncalibrated")
    assert cli.main(argv) == cli.EXIT_OK
    return out.read_bytes()


def link_demo_bytes(workdir: Path, seed: int, doc=LINK_SCRIPT) -> bytes:
    """stdout of `bioz link-demo --trace` on the script `doc`: frames,
    reservoir summary, full trace."""
    script = _write(workdir / "link_script.json", doc)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["link-demo", "--script", str(script), "--seed", str(seed), "--trace"])
    assert rc == cli.EXIT_OK
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One directory holding the calibration table of every seed."""
    path = tmp_path_factory.mktemp("golden")
    for seed in SEEDS:
        calibrate_bytes(path, seed)
    return path


@pytest.mark.parametrize("seed", SEEDS)
def test_calibration_table_bytes(workdir, seed):
    got = (workdir / f"cal_s{seed}.json").read_bytes()
    assert got == (GOLDEN / f"calibrate_s{seed}.json").read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_bytes(workdir, name, seed):
    assert sweep_bytes(workdir, name, seed) == (GOLDEN / f"sweep_{name}_s{seed}.csv").read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_json_bytes(workdir, seed):
    got = sweep_bytes(workdir, JSON_SWEEP, seed, "json")
    assert got == (GOLDEN / f"sweep_{JSON_SWEEP}_s{seed}.json").read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_link_demo_bytes(tmp_path, seed):
    assert link_demo_bytes(tmp_path, seed) == (GOLDEN / f"link_demo_s{seed}.txt").read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_link_demo_repeats_bytes(tmp_path, seed):
    got = link_demo_bytes(tmp_path, seed, LINK_REPEATS_SCRIPT)
    assert got == (GOLDEN / f"link_demo_repeats_s{seed}.txt").read_bytes()


def main():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for seed in SEEDS:
            (GOLDEN / f"calibrate_s{seed}.json").write_bytes(calibrate_bytes(workdir, seed))
            for name in sorted(SWEEPS):
                (GOLDEN / f"sweep_{name}_s{seed}.csv").write_bytes(sweep_bytes(workdir, name, seed))
            (GOLDEN / f"sweep_{JSON_SWEEP}_s{seed}.json").write_bytes(
                sweep_bytes(workdir, JSON_SWEEP, seed, "json"))
            (GOLDEN / f"link_demo_s{seed}.txt").write_bytes(link_demo_bytes(workdir, seed))
            (GOLDEN / f"link_demo_repeats_s{seed}.txt").write_bytes(
                link_demo_bytes(workdir, seed, LINK_REPEATS_SCRIPT))


if __name__ == "__main__":
    main()
