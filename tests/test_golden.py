"""Golden outputs: the exact bytes of `bioz calibrate` tables and sweep CSVs.

A change that claims only speed must leave every seeded output
byte-identical; these files pin them at two seeds.  A change that moves
seeded outputs on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and states why in its description.
"""

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


def _write(path: Path, doc: dict) -> Path:
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


def sweep_bytes(workdir: Path, name: str, seed: int) -> bytes:
    """Sweep CSV; a calibrated one reads the table `calibrate_bytes` left in `workdir`."""
    doc, calibrated = SWEEPS[name]
    scen = _write(workdir / f"{name}.json", doc)
    out = workdir / f"{name}_s{seed}.csv"
    argv = ["sweep", "--scenario", str(scen), "--seed", str(seed),
            "--repeats", str(REPEATS), "--out", str(out)]
    if calibrated:
        argv += ["--cal", str(workdir / f"cal_s{seed}.json")]
    else:
        argv.append("--uncalibrated")
    assert cli.main(argv) == cli.EXIT_OK
    return out.read_bytes()


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


def main():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for seed in SEEDS:
            (GOLDEN / f"calibrate_s{seed}.json").write_bytes(calibrate_bytes(workdir, seed))
            for name in sorted(SWEEPS):
                (GOLDEN / f"sweep_{name}_s{seed}.csv").write_bytes(sweep_bytes(workdir, name, seed))


if __name__ == "__main__":
    main()
