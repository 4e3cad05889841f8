"""Command-line front end.

Verbs:

  bioz plan                         print the frequency plan
  bioz calibrate  --scenario f.json --out table.json
  bioz sweep      --scenario f.json --cal table.json [--uncalibrated]
                  [--repeats N] [--seed N] [--format csv|json]
                  [--out file] [--strict]
  bioz link-demo  --script script.json [--cap uF]

Exit codes: 0 success, 1 usage/parse error, 2 measurement range
(saturation or out-of-range impedance under --strict), 3 brown-out.

Scenario file (JSON): a load model plus instrument overrides::

    {
      "model": {"type": "parallel_rc", "r": 100.0, "c": 0.0},
      "chain": {"lna_pole": 2.2e6},          # ChainParams overrides
      "seed": 99,                            # master seed
      "taps": 32,
      "gain": "111",                         # 3-bit word or "auto"
      "frequencies": [1953.125, 125000.0],   # optional plan subset
      "time": 0.0                            # for time-varying models
    }

Model types: parallel_rc (r, c, r_interface), cole (r_inf, r0, tau,
alpha), table (path to a text file with `freq_hz re_ohm im_ohm` rows),
builtin (name: blood | muscle_transversal | saline), and time_varying
(base model plus {"schedule": {param: [[t, value], ...]}}).

Sweep output (CSV) has the frozen header
`freq_hz,re_ohm,im_ohm,mag_ohm,phase_deg,stderr_ohm,gain_word,flags`;
stderr_ohm is the standard error of the repeat mean (0 for one repeat).
Per-measurement seeds derive deterministically from (master seed,
frequency index, repeat), so identical scenario + seed gives
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import acquire, afe, calib, link, tissue
from .waveforms import plan_frequencies

CSV_HEADER = "freq_hz,re_ohm,im_ohm,mag_ohm,phase_deg,stderr_ohm,gain_word,flags"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RANGE = 2
EXIT_BROWNOUT = 3


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: the load model plus instrument configuration."""

    model: object
    params: afe.ChainParams
    seed: int = 0
    taps: int = 32
    gain: str = "111"
    frequencies: tuple = ()
    output_format: str = "csv"

    def setup(self) -> calib.MeasurementSetup:
        return calib.MeasurementSetup(model=self.model, params=self.params, taps=self.taps)

    def freq_indices(self):
        plan = plan_frequencies()
        if not self.frequencies:
            return list(range(len(plan)))
        idx = []
        for f in self.frequencies:
            matches = [i for i, pf in enumerate(plan) if abs(pf - f) <= 1e-6 * pf]
            if not matches:
                raise ScenarioError(f"{f} Hz is not a plan frequency")
            idx.append(matches[0])
        return idx


def build_model(spec: dict, base_dir: Path):
    kind = spec.get("type")
    if kind == "parallel_rc":
        return tissue.ParallelRC(
            r=float(spec["r"]),
            c=float(spec.get("c", 0.0)),
            r_interface=float(spec.get("r_interface", 0.0)),
        )
    if kind == "cole":
        return tissue.ColeModel(
            r_inf=float(spec["r_inf"]),
            r0=float(spec["r0"]),
            tau=float(spec["tau"]),
            alpha=float(spec.get("alpha", 1.0)),
        )
    if kind == "table":
        path = Path(spec["path"])
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ScenarioError(f"table file not found: {path}")
        return tissue.TabulatedTwoPort.from_text(path)
    if kind == "builtin":
        name = spec["name"]
        try:
            return tissue.builtin_model(name)
        except KeyError as exc:
            raise ScenarioError(exc.args[0]) from None
    if kind == "time_varying":
        base = build_model(spec["base"], base_dir)
        schedule = {
            name: [(float(t), float(v)) for t, v in points]
            for name, points in spec["schedule"].items()
        }
        model = tissue.TimeVaryingModel(base=base, schedule=schedule)
        return model.at_time(float(spec.get("time", 0.0)))
    raise ScenarioError(f"unknown model type {kind!r}")


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("model"), dict):
        raise ScenarioError("scenario must define a model object")
    try:
        model = build_model(doc["model"], path.parent)
    except ScenarioError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"model is missing field {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"bad model: {exc}") from None

    chain = doc.get("chain", {})
    if not isinstance(chain, dict):
        raise ScenarioError("chain must be an object of parameter overrides")
    hints = typing.get_type_hints(afe.ChainParams)
    for name, value in chain.items():
        numeric = (isinstance(value, (int, float)) and not isinstance(value, bool)
                   and math.isfinite(value))
        nullable = value is None and type(None) in typing.get_args(hints.get(name))
        if name in hints and not (numeric or nullable):
            raise ScenarioError(
                f"chain parameter {name!r} must be a finite number, got {value!r}")
    defaults = afe.ChainParams().to_dict()
    defaults.update(chain)
    try:
        params = afe.ChainParams.from_dict(defaults)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad chain parameters: {exc}")

    taps = int(doc.get("taps", 32))
    if taps < 1:
        raise ScenarioError("taps must be >= 1")
    gain = str(doc.get("gain", "111"))
    if gain != "auto":
        afe.AfeConfig.from_gain_word(gain)  # validates
    return Scenario(
        model=model,
        params=params,
        seed=int(doc.get("seed", 0)),
        taps=taps,
        gain=gain,
        frequencies=tuple(float(f) for f in doc.get("frequencies", ())),
        output_format=str(doc.get("format", "csv")),
    )


def _measure_seed(master: int, freq_index: int, repeat: int):
    """Deterministic per-measurement seed stream."""
    return np.random.SeedSequence((master, freq_index, repeat))


@dataclass
class SweepRecord:
    freq: float
    z: complex
    stderr_ohm: float
    gain_word: str
    flags: tuple = ()

    def csv_row(self) -> str:
        mag = abs(self.z)
        phase = float(np.degrees(np.angle(self.z))) if mag else 0.0
        fields = [
            repr(float(self.freq)),
            repr(self.z.real),
            repr(self.z.imag),
            repr(mag),
            repr(phase),
            repr(float(self.stderr_ohm)),
            self.gain_word,
            ";".join(self.flags),
        ]
        return ",".join(fields)

    def as_dict(self) -> dict:
        return {
            "freq_hz": self.freq,
            "re_ohm": self.z.real,
            "im_ohm": self.z.imag,
            "mag_ohm": abs(self.z),
            "phase_deg": float(np.degrees(np.angle(self.z))) if abs(self.z) else 0.0,
            "stderr_ohm": self.stderr_ohm,
            "gain_word": self.gain_word,
            "flags": list(self.flags),
        }


def run_sweep(
    scenario: Scenario,
    table: calib.CalibrationTable | None,
    repeats: int = 10,
) -> list:
    """Measure every scenario frequency `repeats` times; one record each.

    In auto gain mode a pilot measurement at the widest range (word 000)
    picks the word per frequency.  When a calibration table is supplied
    but was built under a different word, the record is flagged
    gain_mismatch and left uncorrected beyond derotation.
    """
    if repeats < 1:
        raise ScenarioError(f"repeats must be >= 1, got {repeats}")
    setup = scenario.setup()
    records = []
    for idx in scenario.freq_indices():
        freq = plan_frequencies()[idx]
        flags: tuple = ()

        if scenario.gain == "auto":
            pilot = calib.measure_impedance(
                setup, idx, "000",
                seed=_measure_seed(scenario.seed, idx, 10_000),
            )
            try:
                word = calib.auto_gain(abs(pilot.z))
            except ValueError:
                records.append(SweepRecord(freq, pilot.z, 0.0, "000", ("out_of_range",)))
                continue
        else:
            word = scenario.gain

        use_table = table
        if table is not None and word != table.gain_word:
            use_table = None
            flags = flags + ("gain_mismatch",)

        zs = []
        for rep in range(repeats):
            reading = calib.measure_impedance(
                setup, idx, word, table=use_table,
                seed=_measure_seed(scenario.seed, idx, rep),
            )
            zs.append(reading.z)
            for f in reading.flags:
                if f not in flags:
                    flags = flags + (f,)
        z_mean = complex(np.mean(zs))
        if repeats > 1:
            mags = np.abs(zs)
            stderr = float(np.std(mags, ddof=1) / np.sqrt(repeats))
        else:
            stderr = 0.0
        records.append(SweepRecord(freq, z_mean, stderr, word, flags))
    return records


def format_records(records, fmt: str, scenario_doc: dict | None = None) -> str:
    if fmt == "csv":
        lines = [CSV_HEADER] + [r.csv_row() for r in records]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {"records": [r.as_dict() for r in records]}
        if scenario_doc:
            doc["scenario"] = scenario_doc
        return json.dumps(doc, indent=2) + "\n"
    raise ScenarioError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    plan = plan_frequencies()
    print("index  divider_hz      sine_hz")
    for i, f in enumerate(plan):
        print(f"{i:>5}  {f * 8:>12.3f}  {f:>12.3f}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    scenario = load_scenario(args.scenario)
    word = "111" if scenario.gain == "auto" else scenario.gain
    setup = scenario.setup()
    try:
        table = calib.build_equalization(
            setup,
            reference_r=args.reference,
            gain_word=word,
            seed=scenario.seed if args.seed is None else args.seed,
            created_at=args.created_at,
        )
    except calib.CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_RANGE
    table.save(args.out)
    print(f"calibration table written to {args.out}")
    print(f"reference {table.reference_r:g} ohm, gain word {table.gain_word}")
    for f, c in sorted(table.eq_coeffs.items(), reverse=True):
        print(f"  {f:>12.3f} Hz  |coeff| = {abs(c):.4f}  angle = {np.degrees(np.angle(c)):+7.2f} deg")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    table = None
    if not args.uncalibrated:
        if not args.cal:
            print("sweep needs --cal TABLE or --uncalibrated", file=sys.stderr)
            return EXIT_USAGE
        table = calib.CalibrationTable.load(args.cal)
    records = run_sweep(scenario, table, repeats=args.repeats)
    fmt = args.format or scenario.output_format
    text = format_records(records, fmt)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    bad = [r for r in records if r.flags]
    if bad and args.strict:
        for r in bad:
            print(f"flagged at {r.freq:g} Hz: {','.join(r.flags)}", file=sys.stderr)
        return EXIT_RANGE
    return EXIT_OK


def _link_script_frames(doc):
    frames = []
    for entry in doc:
        op = entry["op"]
        corrupt = bool(entry.get("corrupt", False))
        if op == "ping":
            token = int(entry.get("token", 0x5A))
            frames.append(link.Frame(link.OP_PING, bytes([token]), corrupt=corrupt))
        elif op == "set_config":
            w = link.ConfigWord(
                pll_cal=int(entry.get("pll_cal", 0)),
                freq_sel=int(entry.get("freq_sel", 10)),
                source_enable=int(entry.get("source_enable", 1)),
                iq_sel=int(entry.get("iq_sel", 0)),
                gain=int(entry.get("gain", 0b111)),
            )
            payload = link.encode_config(w).to_bytes(2, "big")
            frames.append(link.Frame(link.OP_SET_CONFIG, payload, corrupt=corrupt))
        elif op == "start_measure":
            frames.append(link.Frame(link.OP_START_MEASURE, corrupt=corrupt))
        elif op == "read_result":
            frames.append(link.Frame(link.OP_READ_RESULT, corrupt=corrupt))
        else:
            raise ScenarioError(f"unknown link op {op!r}")
    return frames


def cmd_link_demo(args) -> int:
    try:
        doc = json.loads(Path(args.script).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        frames = _link_script_frames(doc)
    except (ScenarioError, ValueError, KeyError) as exc:
        print(f"bad script: {exc}", file=sys.stderr)
        return EXIT_USAGE

    model = tissue.ParallelRC(r=100.0, c=0.0)
    params = afe.ChainParams()
    adc = acquire.AdcSpec()

    def backend(word: link.ConfigWord):
        config = word.to_afe_config()
        f0 = plan_frequencies()[word.freq_sel]
        res = acquire.run_sequence(model, f0, config, params, taps=32, seed=args.seed)
        to_code = lambda v: acquire.adc_sample(0.9 + v / 2.0, adc)
        return to_code(res.v_i_dc), to_code(res.v_q_dc)

    device = link.ImplantDevice(measure_backend=backend)
    power = link.PowerState(reservoir_cap=args.cap * 1e-6)
    try:
        result = link.session(frames, link.ChannelParams(), power, device)
    except link.BrownOutError as exc:
        print(f"session aborted: {exc}", file=sys.stderr)
        for t, v, tag in exc.trace[-6:]:
            print(f"  t={t * 1e3:9.3f} ms  V={v:.3f}  {tag}", file=sys.stderr)
        return EXIT_BROWNOUT

    for cmd, rsp in zip(frames, result.responses):
        print(f">> {cmd.hex()}")
        print(f"<< {rsp.hex()}")
    vmin = min(v for _, v, _ in result.trace)
    print(f"reservoir: start 3.000 V, min {vmin:.4f} V over {result.trace[-1][0] * 1e3:.2f} ms")
    if args.trace:
        for t, v, tag in result.trace:
            print(f"  t={t * 1e3:9.3f} ms  V={v:.4f}  {tag}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bioz",
        description="Simulated 4-terminal bio-impedance spectroscopy bench (2 kHz - 2 MHz)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("plan", help="print the frequency plan")

    p_cal = sub.add_parser("calibrate", help="measure offsets and equalization coefficients")
    p_cal.add_argument("--scenario", required=True)
    p_cal.add_argument("--out", required=True, help="output table path")
    p_cal.add_argument("--reference", type=float, default=100.0, help="reference resistor, ohm")
    p_cal.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_cal.add_argument("--created-at", default=None, help="timestamp override (reproducible files)")

    p_sw = sub.add_parser("sweep", help="frequency sweep with repeats")
    p_sw.add_argument("--scenario", required=True)
    p_sw.add_argument("--cal", default=None, help="calibration table path")
    p_sw.add_argument("--uncalibrated", action="store_true")
    p_sw.add_argument("--repeats", type=int, default=10)
    p_sw.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sw.add_argument("--format", choices=("csv", "json"), default=None)
    p_sw.add_argument("--out", default=None, help="write records here instead of stdout")
    p_sw.add_argument("--strict", action="store_true", help="flagged records fail the run")

    p_ld = sub.add_parser("link-demo", help="run a scripted reader<->implant session")
    p_ld.add_argument("--script", required=True, help="JSON list of link operations")
    p_ld.add_argument("--cap", type=float, default=20.0, help="reservoir capacitance, uF")
    p_ld.add_argument("--seed", type=int, default=0)
    p_ld.add_argument("--trace", action="store_true", help="print the full voltage trace")

    args = parser.parse_args(argv)
    try:
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "link-demo":
            return cmd_link_demo(args)
    except (ScenarioError, tissue.TableRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except calib.CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
