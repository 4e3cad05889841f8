"""The benchmark's workloads: inputs drawn from the seed, the one call a
timed run makes into biozsim, and the checks on what that call produced.

A *case* is the input of one timed run.  A workload has one or more cases
and run.py rotates through them; every run starts with the empty program
caches a `bioz` user gets (see worker.py).

Every check runs after the timed region and reports failures as counts;
nothing here raises on a wrong answer.  `check` gets the digests of
outputs this worker has already checked in full (`known`); `calibrate`,
whose checks cost more than its timed call, then stops after the digest,
and the worker reuses the earlier verdict for the identical bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from biozsim import acquire, afe, calib, cli, link, tissue
from biozsim.waveforms import plan_frequencies

REFERENCE_R = 100.0
GAIN_WORD = "111"
GAIN_BITS = int(GAIN_WORD, 2)
TAPS = 32
PLAN = plan_frequencies()
CREATED_AT = "pinned"  # fixed table timestamp, so tables are byte-comparable
TABLE = "table-setup.json"  # written by the set-up step; sweeps and link read it

# The sweep CSV header the CLI documents as frozen; spelled out here so a
# change to it in the program shows as a failure.
FROZEN_HEADER = "freq_hz,re_ohm,im_ohm,mag_ohm,phase_deg,stderr_ohm,gain_word,flags"

# The paper's claim, as tests/test_cli.py asserts it: a calibrated 100 ohm
# load reads back within 1 ohm at every plan frequency.  With fresh noise
# it is a noise-limited claim: the table's own error at 1953.125 Hz, from
# its 10 reference reads, exceeds 1 ohm on some seeds (1.66 ohm on seed
# 14).  So the fresh read-back is recorded against this bound, and the
# gate is the exact identity below.
READBACK_TOL_OHM = 1.0
# build_equalization sets coeff = 100 ohm / mean of its reference reads,
# so those same reads through the table must land on 100 ohm up to
# rounding.
IDENTITY_TOL_OHM = 1e-6
CAL_REPEATS = 10  # build_equalization's reference reads per frequency

# `bioz calibrate` runs 8 gain words x 4 source-off offset sequences, then
# 11 frequencies x 10 reference reads (calib.build_equalization defaults).
CALIBRATE_SEQUENCES = 8 * 4 + len(PLAN) * 10


@dataclass
class Outcome:
    """What the checks found in one run's outputs."""

    ops: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    digest: str = ""
    z_err_pct: list = field(default_factory=list)
    phase_err_deg: list = field(default_factory=list)
    reservoir_min_v: float | None = None
    reused: bool = False  # same digest as an output already checked in full
    readback_err_ohm: list | None = None  # calibrate: | |Z| - 100 | per record

    def readback_summary(self) -> dict:
        """The fresh-noise read-back against the 1 ohm claim (None off calibrate)."""
        errs = self.readback_err_ohm
        return {"readback_err_max_ohm": max(errs, default=None) if errs is not None else None,
                "readback_over_1ohm": sum(e > READBACK_TOL_OHM for e in errs)
                if errs is not None else None}

    def fail(self, count: int, reason: str):
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _quiet(argv) -> int:
    """Run `bioz` in-process with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_scenario(path: Path, model: dict, seed: int):
    path.write_text(json.dumps({"model": model, "seed": seed, "taps": TAPS, "gain": GAIN_WORD}))


def _score(outcome: Outcome, z, z_true):
    """Record one reading's simulated error against the true impedance."""
    outcome.z_err_pct.append(100.0 * abs(z - z_true) / abs(z_true))
    dphi = math.degrees(math.atan2(z.imag, z.real) - math.atan2(z_true.imag, z_true.real))
    outcome.phase_err_deg.append(abs((dphi + 180.0) % 360.0 - 180.0))


def check_sweep_csv(text: str, truth, outcome: Outcome) -> list:
    """Check a `bioz sweep` CSV: frozen header, one finite, unflagged row per
    plan frequency; score each row against `truth(freq)`.  Return
    | |Z| - |truth| | of each scored row."""
    lines = text.splitlines()
    outcome.ops += len(PLAN)
    mag_err = []
    if not lines or lines[0] != FROZEN_HEADER:
        outcome.fail(len(PLAN), "missing frozen CSV header")
        return mag_err
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(PLAN):
        outcome.fail(len(PLAN), f"{len(rows)} records, expected {len(PLAN)}")
        return mag_err
    for row in rows:
        try:
            values = [float(v) for v in row[:6]]
        except (ValueError, IndexError):
            outcome.fail(1, f"unparsable record {row!r}")
            continue
        if len(row) != 8 or not all(math.isfinite(v) for v in values):
            outcome.fail(1, f"malformed or non-finite record {row!r}")
            continue
        freq, re, im = values[:3]
        if row[7]:
            outcome.fail(1, f"{freq:g} Hz flagged {row[7]}")
            continue
        z, z_true = complex(re, im), complex(truth(freq))
        _score(outcome, z, z_true)
        mag_err.append(abs(abs(z) - abs(z_true)))
    return mag_err


def _drawn_rc(rng, r_lo: float, r_hi: float) -> dict:
    """A parallel-RC load whose corner lies inside the plan (20-500 kHz)."""
    r = float(rng.uniform(r_lo, r_hi))
    corner = float(10 ** rng.uniform(math.log10(20e3), math.log10(500e3)))
    return {"type": "parallel_rc", "r": r, "c": 1.0 / (2 * math.pi * r * corner)}


class Calibrate:
    """`bioz calibrate` on the 100 ohm reference, then a 100 ohm read-back.

    Same acquire/afe layers as the sweeps in a different shape: long
    source-off offset sequences (256 taps) and 110 reference reads.  The
    checks read the reference back twice (see `check`), outside the timed
    call."""

    name = "calibrate"

    def cases(self, seed: int, tiny: bool) -> list:
        return [{"seed": seed}]

    def sequences(self, case: dict, tiny: bool) -> int:
        return CALIBRATE_SEQUENCES

    def setup(self, case: dict, work: Path, tag: str, tiny: bool) -> dict:
        scenario = work / f"reference-{tag}.json"
        _write_scenario(scenario, {"type": "parallel_rc", "r": REFERENCE_R, "c": 0.0}, case["seed"])
        cli.load_scenario(scenario)
        return {"scenario": scenario, "seed": case["seed"], "table": work / f"table-{tag}.json",
                "readback": work / f"readback-{tag}.csv"}

    def run(self, prepared: dict) -> int:
        return _quiet(["calibrate", "--scenario", str(prepared["scenario"]),
                       "--out", str(prepared["table"]), "--created-at", CREATED_AT])

    def check_table(self, prepared: dict, code: int) -> Outcome:
        """The calibration itself: exit code 0 and a complete, finite table."""
        outcome = Outcome(ops=1)
        if code != cli.EXIT_OK or not prepared["table"].is_file():
            outcome.fail(1, f"bioz calibrate exited {code}")
            return outcome
        data = prepared["table"].read_bytes()
        outcome.digest = _digest(data)
        table = calib.CalibrationTable.from_json(data.decode())
        numbers = [v for c in table.eq_coeffs.values() for v in (c.real, c.imag)]
        numbers += [v for o in table.offsets.values() for v in o]
        if len(table.eq_coeffs) != len(PLAN) or not all(map(math.isfinite, numbers)):
            outcome.fail(1, "calibration table incomplete or non-finite")
        return outcome

    def check(self, prepared: dict, code: int, known=()) -> Outcome:
        """The table; then the reference read back through it with the
        calibration's own noise, which must land on 100 ohm (11 records);
        then a 100 ohm read-back with fresh noise (11 records), gated like
        a sweep, whose distance from 100 ohm is recorded against the
        paper's 1 ohm claim."""
        outcome = self.check_table(prepared, code)
        if outcome.digest in known:
            outcome.reused = True
            return outcome
        if outcome.failed:
            outcome.ops += 2 * len(PLAN)
            outcome.fail(2 * len(PLAN), "no usable table to read back through")
            return outcome
        table = calib.CalibrationTable.load(prepared["table"])
        setup = cli.load_scenario(prepared["scenario"]).setup()
        # The reference-read seed streams of build_equalization: after 8
        # offset streams, one per plan frequency.
        streams = np.random.SeedSequence(prepared["seed"]).spawn(8 + len(PLAN))[8:]
        for idx, (freq, stream) in enumerate(zip(PLAN, streams)):
            outcome.ops += 1
            z = complex(np.mean([
                calib.measure_impedance(setup, idx, GAIN_WORD, table=table, seed=s).z
                for s in stream.spawn(CAL_REPEATS)]))
            if not abs(z - REFERENCE_R) <= IDENTITY_TOL_OHM:
                outcome.fail(1, f"{freq:g} Hz: the calibration's own reference reads give "
                                f"{z:.9g} ohm through the table, not {REFERENCE_R:g}")
        code = _quiet(["sweep", "--scenario", str(prepared["scenario"]),
                       "--cal", str(prepared["table"]), "--out", str(prepared["readback"])])
        if code != cli.EXIT_OK:
            outcome.ops += len(PLAN)
            outcome.fail(len(PLAN), f"read-back sweep exited {code}")
            return outcome
        outcome.readback_err_ohm = check_sweep_csv(prepared["readback"].read_text(),
                                                   lambda f: REFERENCE_R, outcome)
        return outcome


class Sweep:
    """A calibrated `bioz sweep`: 11 frequencies x 10 repeats at gain 111."""

    def __init__(self, name: str, draw):
        self.name = name
        self._draw = draw

    def cases(self, seed: int, tiny: bool) -> list:
        rng = np.random.default_rng([seed, 0x5EE9])
        return [{"seed": seed, "model": model} for model in self._draw(rng)]

    def repeats(self, tiny: bool) -> int:
        return 5 if tiny else 10

    def sequences(self, case: dict, tiny: bool) -> int:
        return len(PLAN) * self.repeats(tiny)

    def setup(self, case: dict, work: Path, tag: str, tiny: bool) -> dict:
        scenario = work / f"{self.name}-{tag}.json"
        _write_scenario(scenario, case["model"], case["seed"])
        model = cli.load_scenario(scenario).model
        return {"argv": ["sweep", "--scenario", str(scenario), "--cal", str(work / TABLE),
                         "--repeats", str(self.repeats(tiny)),
                         "--out", str(work / f"{self.name}-{tag}.csv")],
                "out": work / f"{self.name}-{tag}.csv",
                "truth": lambda f: tissue.impedance_at(model, f)}

    def run(self, prepared: dict) -> int:
        return _quiet(prepared["argv"])

    def check(self, prepared: dict, code: int, known=()) -> Outcome:
        outcome = Outcome()
        if code != cli.EXIT_OK or not prepared["out"].is_file():
            outcome.ops = len(PLAN)
            outcome.fail(len(PLAN), f"bioz sweep exited {code}")
            return outcome
        data = prepared["out"].read_bytes()
        outcome.digest = _digest(data)
        check_sweep_csv(data.decode(), prepared["truth"], outcome)
        return outcome


def _rc_loads(rng) -> list:
    # One load from each third of the 100-390 ohm range, so every seed
    # covers the range.
    return [_drawn_rc(rng, lo, hi) for lo, hi in ((100.0, 190.0), (190.0, 290.0), (290.0, 390.0))]


def _tissue_loads(rng) -> list:
    cole = {
        "type": "cole",
        "r_inf": float(rng.uniform(40.0, 80.0)),
        "r0": float(rng.uniform(200.0, 350.0)),
        "tau": float(1.0 / (2 * math.pi * 10 ** rng.uniform(math.log10(50e3), math.log10(500e3)))),
        "alpha": float(rng.uniform(0.7, 0.95)),
    }
    return [{"type": "builtin", "name": "blood"}, cole]


class LinkSessions:
    """Reader sessions through `link.session` with the `bioz link-demo`
    backend: PING, then SET_CONFIG / START_MEASURE / READ_RESULT at every
    plan frequency, a different RC load in each session."""

    name = "link_sessions"

    def cases(self, seed: int, tiny: bool) -> list:
        rng = np.random.default_rng([seed, 0x11F4])
        sessions = 2 if tiny else 12
        return [{"loads": [_drawn_rc(rng, 100.0, 390.0) for _ in range(sessions)],
                 "seeds": [int(s) for s in rng.integers(0, 2**31, sessions)],
                 "tokens": [int(t) for t in rng.integers(0, 256, sessions)]}]

    def sequences(self, case: dict, tiny: bool) -> int:
        return len(case["loads"]) * len(PLAN)

    def setup(self, case: dict, work: Path, tag: str, tiny: bool) -> dict:
        adc = acquire.AdcSpec()
        params = afe.ChainParams()
        sessions = []
        for load, seed, token in zip(case["loads"], case["seeds"], case["tokens"]):
            model = tissue.ParallelRC(r=load["r"], c=load["c"])

            def backend(word, model=model, seed=seed):
                config = word.to_afe_config()
                f0 = PLAN[word.freq_sel]
                res = acquire.run_sequence(model, f0, config, params, taps=TAPS, seed=seed)
                return (acquire.adc_sample(0.9 + res.v_i_dc / 2.0, adc),
                        acquire.adc_sample(0.9 + res.v_q_dc / 2.0, adc))

            frames = [link.Frame(link.OP_PING, bytes([token]))]
            for idx in range(len(PLAN)):
                word = link.ConfigWord(freq_sel=idx, source_enable=1, gain=GAIN_BITS)
                frames += [
                    link.Frame(link.OP_SET_CONFIG, link.encode_config(word).to_bytes(2, "big")),
                    link.Frame(link.OP_START_MEASURE),
                    link.Frame(link.OP_READ_RESULT),
                ]
            sessions.append({"model": model, "frames": frames, "backend": backend, "token": token})
        return {"sessions": sessions, "table": work / TABLE, "adc": adc, "params": params}

    def run(self, prepared: dict) -> list:
        results = []
        for s in prepared["sessions"]:
            device = link.ImplantDevice(measure_backend=s["backend"])
            try:
                results.append(link.session(s["frames"], link.ChannelParams(), link.PowerState(), device))
            except link.BrownOutError as exc:
                results.append(exc)
        return results

    def check(self, prepared: dict, results: list, known=()) -> Outcome:
        outcome = Outcome()
        table = calib.CalibrationTable.load(prepared["table"])
        offset = table.offset_for(GAIN_WORD)
        config = afe.AfeConfig.from_gain_word(GAIN_WORD)
        gain = prepared["params"].total_gain(config.g2)
        adc = prepared["adc"]
        wire = bytearray()
        v_min = math.inf
        for s, result in zip(prepared["sessions"], results):
            frames = s["frames"]
            outcome.ops += len(frames)
            if isinstance(result, link.BrownOutError):
                outcome.fail(len(frames), str(result))
                continue
            v_min = min(v_min, min(v for _, v, _ in result.trace))
            expected = [(link.OP_PONG, bytes([s["token"]]))]
            expected += [(link.OP_ACK, bytes([link.OP_SET_CONFIG])),
                         (link.OP_ACK, bytes([link.OP_START_MEASURE])),
                         (link.OP_RESULT, None)] * len(PLAN)
            for k, (rsp, (opcode, payload)) in enumerate(zip(result.responses, expected)):
                wire += rsp.to_bytes()
                if rsp.opcode != opcode or (payload is not None and rsp.payload != payload):
                    outcome.fail(1, f"frame {k}: got {rsp.hex()}")
                    continue
                if opcode != link.OP_RESULT:
                    continue
                codes = (int.from_bytes(rsp.payload[:2], "big"), int.from_bytes(rsp.payload[2:], "big"))
                if any(c in (0, adc.codes - 1) for c in codes):
                    outcome.fail(1, f"frame {k}: RESULT code clamped at a rail {codes}")
                    continue
                # Reader-side decode: code -> differential volts, offsets,
                # quadrature scaling, then the set-up table's correction.
                v_i, v_q = (2.0 * (c * adc.lsb - 0.9) for c in codes)
                freq = PLAN[(k - 1) // 3]
                raw = calib.RawIq(v_i - offset[0], v_q - offset[1],
                                  config.current_amplitude, gain, freq)
                z = calib.apply_calibration(calib.extract_impedance(raw), table, freq, GAIN_WORD).z
                _score(outcome, z, tissue.impedance_at(s["model"], freq))
            missing = len(frames) - len(result.responses)
            if missing:
                outcome.fail(missing, f"{missing} frames without a response")
        outcome.digest = _digest(bytes(wire))
        outcome.reservoir_min_v = v_min if math.isfinite(v_min) else None
        return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep_rc", _rc_loads),
        Sweep("sweep_tissue", _tissue_loads),
        Calibrate(),
        LinkSessions(),
    )
}
