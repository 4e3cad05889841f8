"""Software-side impedance extraction and calibration.

Processing order for one reading:

  1. the offset, measured with the source disabled under the table's
     gain word when the table is built, is subtracted from the averaged
     I/Q voltages (voltage domain, so offset handling stays orthogonal to
     gain-word changes);
  2. quadrature scaling: Re = (pi/2) V_I / (|I| G), Im = (pi/2) V_Q / (|I| G);
  3. derotation by exp(+j*pi/8), undoing the source lag (the raw resistor
     constellation sits at -22.5 deg);
  4. per-frequency complex equalization, a single complex multiplier
     obtained by measuring a known reference resistor; it corrects the
     amplification-chain roll-off (the offending pole is inside the chain,
     isolated from the electrodes, so one tap per frequency suffices).

Derotation is frequency independent, so steps 3 and 4 commute; this
module fixes derotation first.  Calibration tables persist with the gain
word they were measured under; applying a table under a different word is
an error since compression differs.  Tables are immutable after build and
safe to apply concurrently; building one needs exclusive system access.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import MISSING, dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import acquire, afe, tissue
from .seeds import seed_grid, seed_words
from .waveforms import N_PLAN, SOURCE_LAG, plan_frequencies, plan_index

#: Derotation factor undoing the pi/8 source lag.
DEROTATION = cmath.exp(1j * SOURCE_LAG)

#: Format version written to and required of a saved calibration table.
TABLE_VERSION = 1

#: Taps averaged per offset sequence while building a calibration table.
OFFSET_TAPS = 256

#: Reference reads averaged per plan frequency while building a table.
REFERENCE_REPEATS = 10

#: The eight 3-bit gain words, in order.
GAIN_WORDS = tuple(f"{a}{b}{c}" for a in "01" for b in "01" for c in "01")

#: Gain-range breakpoints (ohms) and the word for each range, highest gain
#: first.  Ties resolve to the lower-gain word (safety against compression).
GAIN_RANGES = (
    (400.0, "111"),
    (1200.0, "101"),
    (3600.0, "001"),
    (11000.0, "000"),
)


class CalibrationError(RuntimeError):
    """Calibration could not be built or applied."""


@dataclass(frozen=True)
class RawIq:
    """Offset-corrected averaged I/Q voltages plus the scaling context; the
    voltages may be arrays, one entry per row of a stack, and then `freq`
    lists the frequency of each of its groups."""

    v_i_dc: float
    v_q_dc: float
    i_amplitude: float
    gain_G: float
    freq: float


@dataclass(frozen=True)
class ImpedanceReading:
    """A corrected complex impedance with bookkeeping flags.  For a group
    of a stack `z` is a complex array, one entry per seed, and the flags
    are those of any entry."""

    z: complex
    freq: float
    flags: tuple = ()


def _complex(re, im):
    """re + j*im assembled without rounding: a complex from scalars, a
    complex array from arrays."""
    if np.ndim(re) == 0:
        return complex(re, im)
    z = np.empty(np.shape(re), complex)
    z.real, z.imag = re, im
    return z


def _mul(z, c):
    """z * c, z a complex or a complex array and c a complex or an array of
    one per entry, in real arithmetic in the order of CPython's complex
    product.  numpy's array complex multiply rounds differently in about
    half of the entries, and every entry of a stack must equal, bit for
    bit, its reading alone."""
    return _complex(z.real * c.real - z.imag * c.imag, z.real * c.imag + z.imag * c.real)


def extract_impedance(raw: RawIq):
    """Uncorrected complex impedance from the averaged I/Q voltages (a
    complex array for arrays of voltages)."""
    if raw.i_amplitude <= 0 or raw.gain_G <= 0:
        raise ValueError("i_amplitude and gain_G must be positive")
    scale = (np.pi / 2) / (raw.i_amplitude * raw.gain_G)
    return _complex(scale * raw.v_i_dc, scale * raw.v_q_dc)


def derotate(z):
    """Rotate the constellation back by +pi/8 (source lags the references)."""
    return _mul(z, DEROTATION)


def auto_gain(z_estimate: float) -> str:
    """Gain word for an impedance magnitude estimate, per the linear ranges.

    111 below 400 ohm, 101 to 1.2 kohm, 001 to 3.6 kohm, and the
    G2-disabled word 000 up to 11 kohm; boundary values take the
    lower-gain word.
    """
    if z_estimate < 0:
        raise ValueError("z_estimate must be non-negative")
    for limit, word in GAIN_RANGES:
        if z_estimate < limit:
            return word
    if z_estimate <= GAIN_RANGES[-1][0]:
        return GAIN_RANGES[-1][1]
    raise ValueError(f"impedance {z_estimate:g} ohm above the 11 kohm measurement range")


@dataclass(frozen=True)
class CalibrationTable:
    """Per-frequency equalization coefficients plus measured offsets.

    `offsets` maps gain word -> (v_i, v_q) volts; `eq_coeffs` maps each
    plan frequency, exactly, to its complex multiplier.  A built table's
    offsets hold its own gain word alone, the one word a reading through
    it may be taken under; a loaded table may hold more (tables saved
    before held all eight), and only its own word's offset is read.
    Saved, its keys are declared with their JSON kinds in `_TABLE`
    (version, reference_r, gain_word, created_at, offsets, eq_coeffs),
    `_OFFSETS` (a gain word each), `_OFFSET` (v_i, v_q) and `_COEFF`
    (freq_hz, re, im); `from_json` also requires each plan frequency at
    most once.  Every table, built or loaded, holds an offset for its own
    gain word (a reading under that word subtracts it), and its
    coefficients are sanity bounded to [0.5, 2] in magnitude.  At the
    lowest frequency, where the chain's poles are negligible, they are not
    1: the staircase's hold images fold onto the mixer DC, so `bioz
    calibrate` on the default chain reads |coeff| = 1.0249 at 1953.125 Hz
    (seed 3; 1.0365 at seed 14, the spread being the reference reads'
    noise).
    """

    reference_r: float
    gain_word: str
    offsets: dict
    eq_coeffs: dict
    created_at: str = ""

    def __post_init__(self):
        if self.gain_word not in self.offsets:
            raise _malformed(f"no offset for its own gain word {self.gain_word}")
        for f, c in self.eq_coeffs.items():
            if not 0.5 <= abs(c) <= 2.0:
                raise CalibrationError(
                    f"equalization coefficient at {f:g} Hz has magnitude "
                    f"{abs(c):.3f}, outside the sanity bounds [0.5, 2]"
                )

    def offset_for(self, gain_word: str):
        return self.offsets.get(gain_word)

    def to_json(self) -> str:
        doc = {
            "version": TABLE_VERSION,
            "reference_r": self.reference_r,
            "gain_word": self.gain_word,
            "created_at": self.created_at,
            "offsets": {w: {"v_i": o[0], "v_q": o[1]} for w, o in self.offsets.items()},
            "eq_coeffs": [
                {"freq_hz": f, "re": c.real, "im": c.imag}
                for f, c in sorted(self.eq_coeffs.items(), reverse=True)
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CalibrationTable":
        """Parse a saved table; a malformed document raises CalibrationError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise CalibrationError(f"calibration table is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise CalibrationError("a calibration table must be a JSON object")
        if type(doc.get("version")) is not int or doc["version"] != TABLE_VERSION:
            raise CalibrationError(f"unsupported calibration table version {doc.get('version')}")
        values = read_fields(doc, _TABLE, "the table", _malformed)
        offsets = {word: read_fields(o, _OFFSET, f"offset {word}", _malformed)
                   for word, o in read_fields(values["offsets"], _OFFSETS, "offsets",
                                              _malformed).items() if o is not None}
        coeffs = {}
        for i, entry in enumerate(values["eq_coeffs"]):
            e = read_fields(entry, _COEFF, f"eq_coeffs entry {i}", _malformed)
            f = plan_frequencies()[plan_index(e["freq_hz"], _malformed)]
            if f in coeffs:
                raise _malformed(f"plan frequency {f:g} Hz given twice")
            coeffs[f] = complex(e["re"], e["im"])
        return cls(reference_r=values["reference_r"], gain_word=values["gain_word"],
                   offsets={w: (o["v_i"], o["v_q"]) for w, o in offsets.items()},
                   eq_coeffs=coeffs, created_at=values["created_at"])

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise CalibrationError(f"calibration table is not UTF-8 text: {exc}") from None
        return cls.from_json(text)


def finite_number(value) -> bool:
    """A JSON number that is a finite double: not a bool, a string, an
    infinity, a NaN or an integer beyond the float range."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


#: The JSON kinds a field may take: a test of the parsed value and the
#: rule an error states.  A number is a finite JSON number, an integer a
#: whole one (2 or 2.0, not "2", 2.5 or true).
NUMBER = (finite_number, "a finite number")
INTEGER = (lambda v: finite_number(v) and v == int(v), "an integer")
STRING = (lambda v: isinstance(v, str), "a string")
BOOL = (lambda v: isinstance(v, bool), "true or false")
OBJECT = (lambda v: isinstance(v, dict), "an object")
LIST = (lambda v: isinstance(v, list), "a list")


def read_fields(obj, table: dict, what: str, error) -> dict:
    """`obj`'s fields by `table`, {field: (kind, default MISSING if
    required)}, integers as ints and the absent fields at their defaults:
    every object of a scenario, link script or calibration table.  A
    non-object, an unknown, missing or wrongly kinded field raises
    `error(message)` naming `what`."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be an object, got {json.dumps(obj)}")
    values = {}
    for name, value in obj.items():
        if name not in table:
            raise error(f"{what} has no field {name!r}")
        kind = table[name][0]
        if not kind[0](value):
            raise error(f"{what} field {name!r} must be {kind[1]}, got {json.dumps(value)}")
        values[name] = int(value) if kind is INTEGER else value
    for name, (_, default) in table.items():
        if name not in values:
            if default is MISSING:
                raise error(f"{what} is missing field {name!r}")
            values[name] = default
    return values


def _malformed(message: str) -> CalibrationError:
    return CalibrationError(f"malformed calibration table: {message}")


#: A saved calibration table's fields: the table, its offsets by gain
#: word (each optional), one offset, and one equalization coefficient.
_TABLE = {"version": (INTEGER, MISSING), "reference_r": (NUMBER, MISSING),
          "gain_word": ((lambda v: v in GAIN_WORDS, "a 3-bit word"), MISSING),
          "created_at": (STRING, ""), "offsets": (OBJECT, MISSING), "eq_coeffs": (LIST, MISSING)}
_OFFSETS = {word: (OBJECT, None) for word in GAIN_WORDS}
_OFFSET = {"v_i": (NUMBER, MISSING), "v_q": (NUMBER, MISSING)}
_COEFF = {"freq_hz": (NUMBER, MISSING), "re": (NUMBER, MISSING), "im": (NUMBER, MISSING)}


@dataclass(frozen=True)
class MeasurementSetup:
    """Handle bundling a load model with the simulated instrument state."""

    model: object
    params: afe.ChainParams = afe.ChainParams()
    taps: int = acquire.TAPS

    def run(self, configs: list, seeds: list):
        """A stack of groups, one list of seeds per configuration, at the
        setup's taps (see `acquire.run_sequence`)."""
        return acquire.run_sequence(self.model, [c.fundamental for c in configs], configs,
                                    self.params, taps=self.taps, seed=seeds)


def _bounds(seeds) -> list:
    """(start, stop) of each group's rows in a stacked record, for one list
    of seeds per group."""
    stops = np.cumsum([len(s) for s in seeds]).tolist()
    return list(zip([0] + stops[:-1], stops))


def measure_offsets(setup: MeasurementSetup, gain_words: list, seeds: list) -> dict:
    """Averaged I/Q output with the source disabled (the clock stays active),
    {word: (v_i, v_q)}, each word averaging one `OFFSET_TAPS` sequence per
    seed of its list.

    The chain offset is frequency independent, so the clock is parked at
    the top plan frequency (index 0), where the least front-end noise
    folds down onto the reading.  Every later reading subtracts this
    stored value, so any residual offset error biases all of them;
    average generously (a table's offset is measured once).  Every word's
    sequences run as one stack, and each word's are summed by `np.sum`:
    in row order below 8 seeds, pairwise from 8 on.  Each word's offset is
    that word measured alone.  A word with no seeds raises ValueError.
    """
    configs = [afe.AfeConfig.from_gain_word(w, freq_index=0, source_enable=0) for w in gain_words]
    res = replace(setup, taps=OFFSET_TAPS).run(configs, seeds)
    return {w: (float(np.sum(res.v_i_dc[a:b] / (b - a))), float(np.sum(res.v_q_dc[a:b] / (b - a))))
            for w, (a, b) in zip(gain_words, _bounds(seeds))}


def _raw_reading(params: afe.ChainParams, configs: list, result, offsets):
    """The extracted impedance of every row of a stacked record of
    `configs`, all of one gain word, less the offsets when given."""
    v_i, v_q = result.v_i_dc, result.v_q_dc
    if offsets is not None:
        v_i = v_i - offsets[0]
        v_q = v_q - offsets[1]
    return extract_impedance(RawIq(v_i_dc=v_i, v_q_dc=v_q,
                                   i_amplitude=configs[0].current_amplitude,
                                   gain_G=params.total_gain(configs[0].g2),
                                   freq=[c.fundamental for c in configs]))


def _spawned(seed, first: int, groups: int, repeats: int) -> list:
    """`SeedSequence(seed).spawn(n)[first + k].spawn(repeats)` for each
    group k < `groups`, as words: no SeedSequence is built."""
    return seed_grid(groups, repeats, lambda k, r: seed_words(seed, (first + k, r)))


def build_equalization(
    setup: MeasurementSetup,
    reference_r: float,
    gain_word: str,
    seed,
    created_at: str | None,
) -> CalibrationTable:
    """Measure the reference resistor at every plan frequency.

    The offset for `gain_word` is measured first, then each frequency
    is measured `REFERENCE_REPEATS` times and averaged (calibration happens
    once, so spending acquisition time here keeps its noise out of every
    later reading) and coeff = reference_r / z_measured.  The
    coefficients are saved with the table for reuse.  Saturation during
    the reference sweep aborts the calibration.

    The seeds are children of `SeedSequence(seed).spawn(8 + 11)`, each
    spawned once more: 4 for the offset, from child
    `GAIN_WORDS.index(gain_word)`, then `REFERENCE_REPEATS` per plan
    frequency from children 8 to 18.  They are computed as words, and the
    4 offset sequences run as one stack, the 110 reference reads as
    another.  The table is stamped `created_at`, or the current UTC time
    when it is None.
    """
    configs = [afe.AfeConfig.from_gain_word(gain_word, freq_index=i) for i in range(N_PLAN)]
    offsets = measure_offsets(setup, [gain_word], _spawned(seed, GAIN_WORDS.index(gain_word), 1, 4))

    ref_setup = replace(setup, model=tissue.ParallelRC(r=reference_r, c=0.0))
    seeds = _spawned(seed, 8, N_PLAN, REFERENCE_REPEATS)
    res = ref_setup.run(configs, seeds)
    z_raw = _raw_reading(setup.params, configs, res, offsets[gain_word])
    coeffs = {}
    for f0, (a, b) in zip(plan_frequencies(), _bounds(seeds)):
        if res.saturated[a:b].any():
            raise CalibrationError(
                f"reference measurement saturated at {f0:g} Hz "
                f"(gain word {gain_word}); calibration aborted"
            )
        z_meas = derotate(np.mean(z_raw[a:b]))
        if z_meas == 0:
            raise CalibrationError(f"zero reading for the reference at {f0:g} Hz")
        # numpy's complex division, which saved tables were built with:
        # CPython's rounds about half of all quotients differently
        coeffs[f0] = reference_r / np.complex128(z_meas)

    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return CalibrationTable(
        reference_r=reference_r,
        gain_word=gain_word,
        offsets=offsets,
        eq_coeffs=coeffs,
        created_at=created_at,
    )


def apply_calibration(
    z_raw: complex,
    table: CalibrationTable,
    freq: float,
    gain_word: str,
) -> ImpedanceReading:
    """Derotate and equalize an extracted impedance.

    The gain word must match the one the table was measured under
    (compression differs between words).  A frequency absent from the
    table yields an out-of-table flag with the derotated-only value.
    """
    if gain_word != table.gain_word:
        raise CalibrationError(f"table was calibrated under gain word {table.gain_word}, "
                               f"cannot apply under {gain_word}")
    z = derotate(z_raw)
    coeff = table.eq_coeffs.get(freq)
    if coeff is None:
        return ImpedanceReading(z=z, freq=freq, flags=("out_of_table",))
    return ImpedanceReading(z=_mul(z, coeff), freq=freq)


def measure_impedance(
    setup: MeasurementSetup,
    freq_index,
    gain_word: str,
    table: CalibrationTable | None = None,
    *,
    seed,
):
    """One full reading: sequence, offset subtraction (the table's offset
    for the gain word; none without a table), extraction, and derotation
    and equalization by `apply_calibration` (derotation alone without a
    table).  One plan index, an integer (numpy integers included), and one
    seed give one reading with a complex `z`, flagged `saturated` when the
    sequence saturated.

    Any other `freq_index` is a sequence of plan indices (a list or a
    tuple), with one list of seeds per index (any number each): a stack of
    groups run in one pass (see
    `acquire.run_sequence`): a list of readings comes back, one per index,
    whose `z` has one entry per seed, each bit for bit that seed's reading
    alone, flagged `saturated` when any entry saturated.
    """
    groups = not isinstance(freq_index, (int, np.integer))
    indices, seeds = (freq_index, seed) if groups else ([freq_index], [[seed]])
    configs = [afe.AfeConfig.from_gain_word(gain_word, freq_index=i) for i in indices]
    res = setup.run(configs, seeds)
    z = _raw_reading(setup.params, configs, res,
                     None if table is None else table.offset_for(gain_word))
    readings = []
    for i, (a, b) in zip(indices, _bounds(seeds)):
        f = plan_frequencies()[i]
        reading = (ImpedanceReading(z=derotate(z[a:b]), freq=f)
                   if table is None else apply_calibration(z[a:b], table, f, gain_word))
        if res.saturated[a:b].any():
            reading = replace(reading, flags=reading.flags + ("saturated",))
        readings.append(reading)
    return readings if groups else replace(readings[0], z=complex(readings[0].z[0]))
