"""Command-line front end.

Verbs:

  bioz plan                         print the frequency plan
  bioz calibrate  --scenario f.json --out table.json
  bioz sweep      --scenario f.json --cal table.json [--uncalibrated]
                  [--repeats N] [--seed N] [--format csv|json]
                  [--out file] [--strict]
  bioz link-demo  --script script.json [--cap uF] [--seed N] [--trace]

Each verb's options are declared once, in `_VERBS`; `_parse` reads the
command line by it and the help is printed from it.  An option takes its
value as `--name value` or `--name=value`; a flag takes none, so
`--strict=1` is an error.  A value is the next word, so `--seed -1`
reads -1, but an option-looking one (`--out --strict`) or `--` is an
error.  A unique prefix names its option (`--rep 3`); a prefix of
several (`--s` in sweep) is an error.  Given twice, an option keeps its
last value.  `-h`/`--help`, before the verb or after it, prints its
usage and exits 0.  Any other rejected line, `--` anywhere included, is
one `error: bioz ...` line, exit 1.

Exit codes: 0 success (also --help), 1 usage/parse error or an unreadable
or unwritable file, 2 measurement range (saturation or out-of-range
impedance under --strict, or a load whose mixer DC is not finite),
3 brown-out.

Scenario file (JSON): a load model plus instrument overrides::

    {
      "model": {"type": "parallel_rc", "r": 100.0, "c": 0.0},
      "chain": {"lna_pole": 2.2e6},          # ChainParams overrides
      "seed": 99,                            # master seed
      "taps": 32,
      "gain": "111",                         # 3-bit word or "auto"
      "frequencies": [1953.125, 125000.0],   # optional plan subset
      "format": "csv"                        # sweep output: csv | json
    }

Model types: parallel_rc (r, c, r_interface), cole (r_inf, r0, tau,
alpha), table (path to a text file with `freq_hz re_ohm im_ohm` rows),
builtin (name: blood | muscle_transversal | saline), and time_varying,
a parallel_rc or cole base at one time::

    "model": {"type": "time_varying",
              "base": {"type": "parallel_rc", "r": 100.0, "c": 0.0},
              "schedule": {"r": [[0.0, 100.0], [10.0, 200.0]]},
              "time": 5.0}                   # seconds, default 0.0

`time` is read from the model object only.  Each scheduled field takes
its piecewise-linear value at that time (breakpoint times strictly
increasing; held past the first and last).
A parallel_rc's r_interface lies on the injection side, outside the
sense electrodes: a sweep measures r || c, and only
`tissue.impedance_at` includes it.

Each object of a scenario or link script holds only the keys declared for
it (`_SCENARIO`, `_MODELS`, `_CHAIN` from `afe.ChainParams`' fields,
`_LINK_OPS`), each of its declared JSON kind: a number is a finite JSON
number, never a string or a boolean, and an integer a whole one.  Any
other key or value is a one-line error, exit 1, before any measurement;
so is a `frequencies` entry not within 1e-6 (relative) of a plan
frequency.  That tolerance applies there and to a calibration table's
`freq_hz` only (`waveforms.plan_index`): each reads as the exact plan
frequency, and past them `afe.mixer_dc_pair` rejects any other.  A
calibration table is read by the same reader, `calib.read_fields`.

Sweep output (CSV) has the frozen header
`freq_hz,re_ohm,im_ohm,mag_ohm,phase_deg,stderr_ohm,gain_word,flags`;
stderr_ohm is the standard error of the repeat mean (0 for one repeat).
Per-measurement seeds derive deterministically from (master seed,
frequency index, repeat), so identical scenario + seed gives
byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import acquire, afe, calib, link, tissue
from .calib import BOOL, INTEGER, NUMBER, OBJECT, STRING, finite_number, read_fields
from .seeds import seed_grid, seed_words
from .waveforms import N_PLAN, plan_frequencies, plan_index

CSV_HEADER = "freq_hz,re_ohm,im_ohm,mag_ohm,phase_deg,stderr_ohm,gain_word,flags"
OUTPUT_FORMATS = ("csv", "json")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RANGE = 2
EXIT_BROWNOUT = 3

#: Longest I-then-Q sequence, in output samples, that a scenario may ask
#: for: 35x the 28 100 of calibrate's 256-tap offset sequence at the
#: default chain, and 8 MB a series.
MAX_SEQUENCE_SAMPLES = 1_000_000


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: the load model plus instrument configuration."""

    model: object
    params: afe.ChainParams
    seed: int = 0
    taps: int = acquire.TAPS
    gain: str = "111"
    frequencies: tuple = ()
    output_format: str = "csv"

    def setup(self) -> calib.MeasurementSetup:
        return calib.MeasurementSetup(model=self.model, params=self.params, taps=self.taps)

    def freq_indices(self):
        """The plan index of each of `frequencies`, or of the whole plan; a
        plan frequency given twice, exactly or within the plan match, is an
        error."""
        indices = [plan_index(f, ScenarioError) for f in self.frequencies]
        for k, idx in enumerate(indices):
            if idx in indices[:k]:
                raise ScenarioError(f"plan frequency {plan_frequencies()[idx]:g} Hz given twice")
        return indices or list(range(N_PLAN))


def _numbers(value) -> bool:
    return isinstance(value, list) and all(map(finite_number, value))


#: The scenario's own JSON kinds, beside those of `calib`.
_NUMBER_OR_NULL = (lambda v: v is None or finite_number(v), "a finite number or null")
_NUMBERS = (_numbers, "a list of finite numbers")
_SCHEDULE = (lambda v: isinstance(v, dict) and all(
    isinstance(points, list) and all(_numbers(p) and len(p) == 2 for p in points)
    for points in v.values()), "an object of lists of [time, value] numbers")

#: Each document object's table, {field: (kind, default)}, where a
#: default of MISSING marks a field that must be given: a scenario, its
#: model by type (a parallel_rc or cole model is its class's fields) and
#: its chain of `ChainParams` overrides.
_SCENARIO = {"model": (OBJECT, MISSING), "chain": (OBJECT, {}), "seed": (INTEGER, 0),
             "taps": (INTEGER, acquire.TAPS),
             "gain": ((lambda v: v == "auto" or v in calib.GAIN_WORDS, 'a 3-bit word or "auto"'),
                      "111"),
             "frequencies": (_NUMBERS, ()),
             "format": ((lambda v: v in OUTPUT_FORMATS, '"csv" or "json"'), "csv")}
_TYPE = {"type": (STRING, MISSING)}
_CLASSES = {"parallel_rc": tissue.ParallelRC, "cole": tissue.ColeModel}
_MODELS = {
    **{kind: {**_TYPE, **{f.name: (NUMBER, f.default) for f in fields(cls)}}
       for kind, cls in _CLASSES.items()},
    "table": {**_TYPE, "path": (STRING, MISSING)},
    "builtin": {**_TYPE, "name": (STRING, MISSING)},
    "time_varying": {**_TYPE, "base": (OBJECT, MISSING), "schedule": (_SCHEDULE, MISSING),
                     "time": (NUMBER, 0.0)},
}
_CHAIN = {f.name: (_NUMBER_OR_NULL if f.type.startswith("Optional") else NUMBER, f.default)
          for f in fields(afe.ChainParams)}


def build_model(spec: dict, base_dir: Path):
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ScenarioError(f"unknown model type {kind!r}")
    values = read_fields(spec, _MODELS[kind], f"a {kind} model", ScenarioError)
    del values["type"]
    if kind in _CLASSES:
        return _CLASSES[kind](**{name: float(v) for name, v in values.items()})
    if kind == "table":
        path = Path(values["path"])
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ScenarioError(f"table file not found: {path}")
        return tissue.TabulatedTwoPort.from_text(path)
    if kind == "builtin":
        try:
            return tissue.builtin_model(values["name"])
        except KeyError as exc:
            raise ScenarioError(exc.args[0]) from None
    base = build_model(values["base"], base_dir)
    if not isinstance(base, (tissue.ParallelRC, tissue.ColeModel)):
        raise ScenarioError(
            f"a time_varying base must be parallel_rc or cole, got {values['base']['type']!r}")
    names = {f.name for f in fields(base)}
    changes = {}
    for name, points in values["schedule"].items():
        times = [t for t, _ in points]
        if not all(b > a for a, b in zip(times, times[1:])):
            raise ValueError(f"schedule times for {name!r} must be strictly increasing")
        if name not in names:
            raise ValueError(f"base model has no parameter {name!r}")
        changes[name] = float(np.interp(values["time"], times, [v for _, v in points]))
    return replace(base, **changes)


def load_scenario(path) -> Scenario:
    """Parse and check a scenario file; any fault raises ScenarioError.

    Besides each field's own check, the longest sequence the scenario can
    run (its taps, or calibrate's `calib.OFFSET_TAPS`, after
    `chain.settle_time`) must fit in `MAX_SEQUENCE_SAMPLES` (1 000 000)
    output samples, so a runaway settle time or tap count fails here,
    before any measurement.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}")
    values = read_fields(doc, _SCENARIO, "scenario", ScenarioError)
    try:
        model = build_model(values["model"], path.parent)
    except ScenarioError:
        raise
    except (OSError, ValueError, TypeError) as exc:  # OSError: a table path that is no file
        raise ScenarioError(f"bad model: {exc}") from None

    chain = values["chain"]
    read_fields(chain, _CHAIN, "chain", ScenarioError)
    try:  # given the chain's own keys alone, ChainParams fills in the rest
        params = afe.ChainParams(**chain)
    except ValueError as exc:
        raise ScenarioError(f"bad chain parameters: {exc}")

    taps, seed = values["taps"], values["seed"]
    if taps < 1:
        raise ScenarioError("taps must be >= 1")
    if seed < 0:
        raise ScenarioError("seed must be >= 0")
    scenario = Scenario(model=model, params=params, seed=seed, taps=taps, gain=values["gain"],
                        frequencies=tuple(float(f) for f in values["frequencies"]),
                        output_format=values["format"])
    scenario.freq_indices()  # every frequency is a plan frequency
    try:
        _, _, phase_n = acquire._phase_samples(params, max(taps, calib.OFFSET_TAPS))
    except OverflowError:  # settle_time * output_rate is not a finite number
        phase_n = math.inf
    except ValueError as exc:
        raise ScenarioError(f"bad chain parameters: {exc}") from None
    if 2 * phase_n > MAX_SEQUENCE_SAMPLES:
        raise ScenarioError(
            f"a sequence would exceed {MAX_SEQUENCE_SAMPLES} output samples; "
            "lower chain.settle_time or taps")
    return scenario


def _check_writable(path) -> None:
    """Reject an output path no file can be written to, before any
    measurement runs, so a bad path costs nothing."""
    path = Path(path)
    if path.is_dir():
        raise ScenarioError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise ScenarioError(f"cannot write {path}: no directory {path.parent}")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise ScenarioError(f"cannot write {path}: permission denied")


def _measure_seeds(master: int, indices: list, repeats: int, first: int = 0) -> list:
    """The seeds `SeedSequence((master, i, first + r))` for r < `repeats` at
    each plan index i, one list per index, as words: no SeedSequence is
    built."""
    return seed_grid(len(indices), repeats,
                     lambda k, r: seed_words((master, np.asarray(indices)[k], first + r), ()))


@dataclass
class SweepRecord:
    freq: float
    z: complex
    stderr_ohm: float
    gain_word: str
    flags: tuple = ()

    def csv_row(self) -> str:
        d = self.as_dict()
        numbers = [repr(float(d[k])) for k in CSV_HEADER.split(",")[:6]]
        return ",".join(numbers + [self.gain_word, ";".join(self.flags)])

    def as_dict(self) -> dict:
        mag = abs(self.z)
        return {
            "freq_hz": self.freq,
            "re_ohm": self.z.real,
            "im_ohm": self.z.imag,
            "mag_ohm": mag,
            "phase_deg": float(np.degrees(np.angle(self.z))) if mag else 0.0,
            "stderr_ohm": self.stderr_ohm,
            "gain_word": self.gain_word,
            "flags": list(self.flags),
        }


def run_sweep(
    scenario: Scenario,
    table: calib.CalibrationTable | None,
    repeats: int = 10,
) -> list:
    """Measure every scenario frequency `repeats` times; one record each,
    the mean of its repeats' impedances, flagged as its reading is.

    The frequencies measured under one gain word are one stack of
    (frequency, seed) rows, one `calib.measure_impedance` pass: each
    frequency's reading, mean and standard error are bit for bit those of
    that frequency measured alone, a 1-D reduction over its own rows.
    Repeat r at plan index i is seeded by `SeedSequence((seed, i, r))`,
    computed as words (`_measure_seeds`).

    In auto gain mode a pilot measurement at the widest range (word 000),
    all frequencies in one stack, picks the word per frequency; then each
    chosen word's frequencies are one pass.  When a calibration table is
    supplied but was built under a different word, the record is flagged
    gain_mismatch and left uncorrected beyond derotation.
    """
    if repeats < 1:
        raise ScenarioError(f"repeats must be >= 1, got {repeats}")
    setup = scenario.setup()
    indices = scenario.freq_indices()
    records = {}
    if scenario.gain == "auto":
        words = {}
        pilots = calib.measure_impedance(setup, indices, "000",
                                         seed=_measure_seeds(scenario.seed, indices, 1, 10_000))
        for idx, pilot in zip(indices, pilots):
            z = complex(pilot.z[0])
            try:
                words[idx] = calib.auto_gain(abs(z))
            except ValueError:
                records[idx] = SweepRecord(pilot.freq, z, 0.0, "000", ("out_of_range",))
    else:
        words = dict.fromkeys(indices, scenario.gain)

    seeds = dict(zip(indices, _measure_seeds(scenario.seed, indices, repeats)))
    for word in dict.fromkeys(words.values()):
        group = [idx for idx in indices if words.get(idx) == word]
        use_table, flags = table, ()
        if table is not None and word != table.gain_word:
            use_table, flags = None, ("gain_mismatch",)
        readings = calib.measure_impedance(setup, group, word, table=use_table,
                                           seed=[seeds[idx] for idx in group])
        for idx, reading in zip(group, readings):
            z_mean = complex(np.mean(reading.z))
            if repeats > 1:
                stderr = float(np.std(np.abs(reading.z), ddof=1) / np.sqrt(repeats))
            else:
                stderr = 0.0
            records[idx] = SweepRecord(reading.freq, z_mean, stderr, word, flags + reading.flags)
    return [records[idx] for idx in indices]


def format_records(records, fmt: str) -> str:
    if fmt == "csv":
        lines = [CSV_HEADER] + [r.csv_row() for r in records]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {"records": [r.as_dict() for r in records]}
        return json.dumps(doc, indent=2) + "\n"
    raise ScenarioError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_plan() -> int:
    plan = plan_frequencies()
    print("index  divider_hz      sine_hz")
    for i, f in enumerate(plan):
        print(f"{i:>5}  {f * 8:>12.3f}  {f:>12.3f}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    scenario = load_scenario(args.scenario)
    _check_writable(args.out)
    word = "111" if scenario.gain == "auto" else scenario.gain
    setup = scenario.setup()
    table = calib.build_equalization(
        setup,
        reference_r=args.reference,
        gain_word=word,
        seed=scenario.seed if args.seed is None else args.seed,
        created_at=args.created_at,
    )
    try:
        table.save(args.out)
    except OSError as exc:
        raise ScenarioError(f"cannot write calibration table: {exc}") from None
    print(f"calibration table written to {args.out}")
    print(f"reference {table.reference_r:g} ohm, gain word {table.gain_word}")
    for f, c in sorted(table.eq_coeffs.items(), reverse=True):
        print(f"  {f:>12.3f} Hz  |coeff| = {abs(c):.4f}  angle = {np.degrees(np.angle(c)):+7.2f} deg")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.out:
        _check_writable(args.out)
    table = None
    if not args.uncalibrated:
        if not args.cal:
            raise ScenarioError("sweep needs --cal TABLE or --uncalibrated")
        try:
            table = calib.CalibrationTable.load(args.cal)
        except (OSError, calib.CalibrationError) as exc:
            raise ScenarioError(
                f"cannot read calibration table {args.cal}: {type(exc).__name__}: {exc}") from None
    records = run_sweep(scenario, table, repeats=args.repeats)
    fmt = args.format or scenario.output_format
    text = format_records(records, fmt)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ScenarioError(f"cannot write sweep records: {exc}") from None
    else:
        sys.stdout.write(text)
    bad = [r for r in records if r.flags]
    if bad and args.strict:
        for r in bad:
            print(f"flagged at {r.freq:g} Hz: {','.join(r.flags)}", file=sys.stderr)
        return EXIT_RANGE
    return EXIT_OK


#: Each link-script op: its opcode and its entry's table.  Every entry
#: names its `op` and may set `corrupt`.
_ENTRY = {"op": (STRING, MISSING), "corrupt": (BOOL, False)}
_LINK_OPS = {
    "ping": (link.OP_PING, {**_ENTRY, "token": (INTEGER, 0x5A)}),
    "set_config": (link.OP_SET_CONFIG, {**_ENTRY, "pll_cal": (INTEGER, 0),
                                        "freq_sel": (INTEGER, 10), "source_enable": (INTEGER, 1),
                                        "iq_sel": (INTEGER, 0), "gain": (INTEGER, 0b111)}),
    "start_measure": (link.OP_START_MEASURE, _ENTRY),
    "read_result": (link.OP_READ_RESULT, _ENTRY),
}


def _link_script_frames(doc):
    """The frames of a link script: a list of objects, each read by its
    op's table (a ping's `token` a byte)."""
    if not isinstance(doc, list):
        raise ScenarioError("a link script must be a list of operations")
    frames = []
    for entry in doc:
        if not isinstance(entry, dict):
            raise ScenarioError(f"a link script entry must be an object, got {json.dumps(entry)}")
        if "op" not in entry:
            raise ScenarioError(f"a link script entry must name its op, got {json.dumps(entry)}")
        op = entry["op"]
        if not isinstance(op, str) or op not in _LINK_OPS:
            raise ScenarioError(f"unknown link op {op!r}")
        opcode, table = _LINK_OPS[op]
        values = read_fields(entry, table, f"link op {op!r}", ScenarioError)
        del values["op"]
        corrupt = values.pop("corrupt")
        if op == "ping":
            if not 0 <= values["token"] < 256:
                raise ScenarioError(f"token out of range: {values['token']}")
            payload = bytes([values["token"]])
        elif op == "set_config":
            payload = link.encode_config(link.ConfigWord(**values)).to_bytes(2, "big")
        else:
            payload = b""
        frames.append(link.Frame(opcode, payload, corrupt=corrupt))
    return frames


def cmd_link_demo(args) -> int:
    try:
        doc = json.loads(Path(args.script).read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read script: {exc}") from None
    try:
        frames = _link_script_frames(doc)
    except ValueError as exc:
        raise ScenarioError(f"bad script: {exc}") from None

    model = tissue.ParallelRC(r=100.0, c=0.0)
    params = afe.ChainParams()
    measured = [0] * len(plan_frequencies())  # measurements so far per plan index

    def backend(word: link.ConfigWord):
        config = word.to_afe_config()
        # the r-th measurement at plan index i draws the stream of a sweep's repeat r
        idx = config.freq_index
        seed = _measure_seeds(args.seed, [idx], 1, measured[idx])[0][0]
        measured[idx] += 1
        res = acquire.run_sequence(model, config.fundamental, config, params,
                                   taps=acquire.TAPS, seed=seed)
        return acquire.pin_code(res.v_i_dc), acquire.pin_code(res.v_q_dc)

    device = link.ImplantDevice(measure_backend=backend)  # busy for the default chain at TAPS
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
    vmin = min(result.trace.volts)
    print(f"reservoir: start 3.000 V, min {vmin:.4f} V over {result.trace[-1][0] * 1e3:.2f} ms")
    if args.trace:
        for t, v, tag in result.trace:
            print(f"  t={t * 1e3:9.3f} ms  V={v:.4f}  {tag}")
    return EXIT_OK


#: Each verb's help and its options, {option: (kind, default, help)}: a
#: kind of str, int or float reads one value, a tuple of choices one of
#: them, and bool is a flag, False unless given; a default of MISSING
#: marks an option that must be given.  Every verb also takes -h/--help.
_VERBS = {
    "plan": ("print the frequency plan", {}),
    "calibrate": ("measure offsets and equalization coefficients", {
        "scenario": (str, MISSING, "scenario file (JSON)"),
        "out": (str, MISSING, "output table path"),
        "reference": (float, 100.0, "reference resistor, ohm"),
        "seed": (int, None, "override scenario seed"),
        "created-at": (str, None, "timestamp override (reproducible files)"),
    }),
    "sweep": ("frequency sweep with repeats", {
        "scenario": (str, MISSING, "scenario file (JSON)"),
        "cal": (str, None, "calibration table path"),
        "uncalibrated": (bool, False, "measure without a calibration table"),
        "repeats": (int, 10, "measurements per frequency"),
        "seed": (int, None, "override scenario seed"),
        "format": (OUTPUT_FORMATS, None, "output format, if not the scenario's"),
        "out": (str, None, "write records here instead of stdout"),
        "strict": (bool, False, "flagged records fail the run"),
    }),
    "link-demo": ("run a scripted reader<->implant session", {
        "script": (str, MISSING, "JSON list of link operations"),
        "cap": (float, 20.0, "reservoir capacitance, uF"),
        "seed": (int, 0, "master seed"),
        "trace": (bool, False, "print the full voltage trace"),
    }),
}
_HELP = ("-h", "--help")


def _usage(verb=None) -> str:
    """The root's help, or a verb's, from `_VERBS`."""
    if verb is None:
        return "\n".join([
            f"usage: bioz [-h] {{{','.join(_VERBS)}}} ...", "",
            "Simulated 4-terminal bio-impedance spectroscopy bench (2 kHz - 2 MHz)", "", "verbs:",
            *(f"  {name:<11} {text}" for name, (text, _) in _VERBS.items())]) + "\n"
    text, options = _VERBS[verb]
    rows = [("-h, --help", "show this help message and exit")]
    words = [f"bioz {verb}", "[-h]"]
    for name, (kind, default, note) in options.items():
        form = f"--{name}" if kind is bool else f"--{name} " + (
            f"{{{','.join(kind)}}}" if isinstance(kind, tuple) else name.replace("-", "_").upper())
        words.append(form if default is MISSING else f"[{form}]")
        if default not in (MISSING, None) and kind is not bool:
            note = f"{note} (default {default})"
        rows.append((form, note))
    lines = ["usage:"]
    for word in words:
        if len(lines[-1]) + len(word) >= 79:
            lines.append(" " * 6)
        lines[-1] += " " + word
    width = max(len(form) for form, _ in rows) + 4
    return "\n".join([*lines, "", text, "", "options:",
                      *(f"  {form:<{width - 2}}{note}" for form, note in rows)]) + "\n"


def _option(token: str, names: tuple, prog: str):
    """What `token` is to a parser of option strings `names`: None for a
    word, else (name, value), with value the text after `=` or None, and
    name None for an unknown option.  A token is matched whole, then by
    its name before `=`, then `--` tokens by unique prefix and `-h...` as
    -h with the rest as its value.  A prefix of several names is an
    error.  A negative number, or a token with a space, is a word."""
    if not token.startswith("-") or token in ("-", "--"):
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        matches = [n for n in names if n.startswith(name)]
        value = value if eq else None
    else:
        matches = [n for n in names if n == token[:2]]
        value = token[2:]
    if len(matches) > 1:
        raise ScenarioError(f"{prog}: ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, token


def _help(name: str, value, verb=None):
    """Print the root's or the verb's usage and exit 0 for -h or --help
    with no value; `-hh` is -h twice.  Any other value is an error."""
    if value is None or name == "-h" and value and not value.strip("h"):
        sys.stdout.write(_usage(verb))
        raise SystemExit(EXIT_OK)
    prog = "bioz" if verb is None else f"bioz {verb}"
    raise ScenarioError(f"{prog}: argument -h/--help: ignored explicit argument {value!r}")


def _parse(argv) -> SimpleNamespace:
    """Read a command line by `_VERBS`: the verb, then its options in any
    order.  Every option is `command`'s attribute, named with `_` for
    `-`, at its default unless given.  A rejected line raises
    ScenarioError; help raises SystemExit(0).

    The checks fall in argparse's order, which the tests hold it to:
    help or a malformed option where it stands; an ambiguous prefix
    before any option of its verb acts; a missing option or value, an
    unknown option or an extra word only once the whole line is read."""
    unknown = []
    for at, token in enumerate(argv):
        match = _option(token, _HELP, "bioz")
        if match is None:
            break
        if match[0] is None:
            unknown.append(token)
        else:
            _help(*match)
    else:
        raise ScenarioError(f"bioz: a verb is required, one of {', '.join(_VERBS)}")
    verb = argv[at]
    if verb not in _VERBS:
        raise ScenarioError(f"bioz: invalid verb {verb!r} (choose from {', '.join(_VERBS)})")
    prog = f"bioz {verb}"
    options = _VERBS[verb][1]
    names = _HELP + tuple(f"--{name}" for name in options)
    rest = argv[at + 1:]
    end = rest.index("--") if "--" in rest else len(rest)  # past "--", every token is a word
    matches = [_option(token, names, prog) for token in rest[:end]]
    values = {name: default for name, (_, default, _) in options.items()}
    k = 0
    while k < end:
        match = matches[k]
        k += 1
        if match is None or match[0] is None:
            unknown.append(rest[k - 1])
            continue
        name, value = match
        if name in _HELP:
            _help(name, value, verb)
        name = name[2:]
        kind = options[name][0]
        if kind is bool:
            if value is not None:
                raise ScenarioError(
                    f"{prog}: argument --{name}: ignored explicit argument {value!r}")
            values[name] = True
            continue
        if value is None and k < end and matches[k] is None:
            value = rest[k]
            k += 1
        if value is None:
            raise ScenarioError(f"{prog}: argument --{name}: expected one argument")
        if value == "--":  # `--name=--` gives no value: an error unless given again
            values[name] = MISSING
            continue
        if isinstance(kind, tuple):
            if value not in kind:
                raise ScenarioError(f"{prog}: argument --{name}: invalid choice: {value!r} "
                                    f"(choose from {', '.join(map(repr, kind))})")
        elif kind is not str:
            try:
                value = kind(value)
            except ValueError:
                raise ScenarioError(f"{prog}: argument --{name}: invalid {kind.__name__} value: "
                                    f"{value!r}") from None
        values[name] = value
    missing = [f"--{name}" for name, value in values.items() if value is MISSING]
    if missing:
        raise ScenarioError(f"{prog}: no value given for {', '.join(missing)}")
    if unknown or end < len(rest):
        raise ScenarioError(f"{prog}: unrecognized arguments: {' '.join(unknown + rest[end:])}")
    return SimpleNamespace(command=verb, **{name.replace("-", "_"): value
                                            for name, value in values.items()})


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ScenarioError(f"--seed must be >= 0, got {args.seed}")
        # checked in SI units: a positive --cap below ~2.5e-318 uF is 0 F
        for name, unit, scale in (("reference", "ohm", 1.0), ("cap", "F", 1e-6)):
            value = getattr(args, name, 1.0)
            if not 0 < value * scale < math.inf:
                raise ScenarioError(
                    f"--{name} must be a positive number, got {value} ({value * scale:g} {unit})")
        if args.command == "plan":
            return cmd_plan()
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "link-demo":
            return cmd_link_demo(args)
    except (ScenarioError, tissue.TableRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (calib.CalibrationError, acquire.MeasurementRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
