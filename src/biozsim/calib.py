"""Software-side impedance extraction and calibration.

Processing order for one reading:

  1. offsets, measured once per gain word with the source disabled, are
     subtracted from the averaged I/Q voltages (voltage domain, so offset
     handling stays orthogonal to gain-word changes);
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
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import acquire, afe, tissue
from .waveforms import Phase, plan_frequencies

#: Derotation factor undoing the pi/8 source lag.
DEROTATION = cmath.exp(1j * np.pi / 8)

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
    """Offset-corrected averaged I/Q voltages plus the scaling context."""

    v_i_dc: float
    v_q_dc: float
    i_amplitude: float
    gain_G: float
    freq: float


@dataclass(frozen=True)
class ImpedanceReading:
    """A corrected complex impedance with bookkeeping flags."""

    z: complex
    freq: float
    gain_word: str
    flags: tuple = ()

    @property
    def magnitude(self) -> float:
        return abs(self.z)

    @property
    def phase_deg(self) -> float:
        return float(np.degrees(cmath.phase(self.z)))


def extract_impedance(raw: RawIq) -> complex:
    """Uncorrected complex impedance from the averaged I/Q voltages."""
    if raw.i_amplitude <= 0 or raw.gain_G <= 0:
        raise ValueError("i_amplitude and gain_G must be positive")
    scale = (np.pi / 2) / (raw.i_amplitude * raw.gain_G)
    return complex(scale * raw.v_i_dc, scale * raw.v_q_dc)


def derotate(z: complex) -> complex:
    """Rotate the constellation back by +pi/8 (source lags the references)."""
    return z * DEROTATION


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
    plan frequency to its complex multiplier.  Coefficients are sanity
    bounded to [0.5, 2] in magnitude.  At the lowest frequency, where the
    chain's poles are negligible, they are not 1: the staircase's hold
    images fold onto the mixer DC, so `bioz calibrate` on the default
    chain reads |coeff| = 1.0306 at 1953.125 Hz (seed 3; 1.0103 at seed
    14, the spread being the reference reads' noise).
    """

    reference_r: float
    gain_word: str
    offsets: dict
    eq_coeffs: dict
    created_at: str = ""
    version: int = 1

    def __post_init__(self):
        for f, c in self.eq_coeffs.items():
            if not 0.5 <= abs(c) <= 2.0:
                raise CalibrationError(
                    f"equalization coefficient at {f:g} Hz has magnitude "
                    f"{abs(c):.3f}, outside the sanity bounds [0.5, 2]"
                )

    def coeff(self, freq: float):
        for f, c in self.eq_coeffs.items():
            if abs(f - freq) <= 1e-6 * f:
                return c
        return None

    def offset_for(self, gain_word: str):
        return self.offsets.get(gain_word)

    def to_json(self) -> str:
        doc = {
            "version": self.version,
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
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise CalibrationError(f"unsupported calibration table version {doc.get('version')}")
        return cls(
            reference_r=doc["reference_r"],
            gain_word=doc["gain_word"],
            offsets={w: (o["v_i"], o["v_q"]) for w, o in doc["offsets"].items()},
            eq_coeffs={e["freq_hz"]: complex(e["re"], e["im"]) for e in doc["eq_coeffs"]},
            created_at=doc.get("created_at", ""),
            version=doc["version"],
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class MeasurementSetup:
    """Handle bundling a load model with the simulated instrument state."""

    model: object
    params: afe.ChainParams = afe.ChainParams()
    adc: acquire.AdcSpec = acquire.AdcSpec()
    taps: int = 32
    tap_spacing: float = 1e-3
    include_interface: bool = False

    def with_model(self, model) -> "MeasurementSetup":
        return replace(self, model=model)

    def run(self, freq_index: int, gain_word: str, source_enable: int = 1,
            seed=None, taps: int | None = None) -> acquire.SequenceResult:
        config = afe.AfeConfig.from_gain_word(
            gain_word, freq_index=freq_index, source_enable=source_enable
        )
        f0 = plan_frequencies()[freq_index]
        return acquire.run_sequence(
            self.model, f0, config, self.params,
            taps=self.taps if taps is None else taps,
            seed=seed, adc=self.adc, tap_spacing=self.tap_spacing,
            include_interface=self.include_interface,
        )


def measure_offsets(
    setup: MeasurementSetup,
    gain_word: str,
    seed=None,
    taps: int | None = None,
    repeats: int = 1,
    freq_index: int = 0,
) -> tuple:
    """Averaged I/Q output with the source disabled (the clock stays active).

    The chain offset is frequency independent, so the clock is parked at
    the top plan frequency by default, where the least front-end noise
    folds down onto the reading.  Every later reading subtracts this
    stored value, so any residual offset error biases all of them;
    average generously (offsets are measured once).
    """
    vi = vq = 0.0
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for ss in root.spawn(repeats):
        res = setup.run(freq_index=freq_index, gain_word=gain_word,
                        source_enable=0, seed=ss, taps=taps)
        vi += res.v_i_dc / repeats
        vq += res.v_q_dc / repeats
    return (vi, vq)


def _raw_reading(setup, result, gain_word: str, offsets) -> complex:
    config = result.config
    v_i, v_q = result.v_i_dc, result.v_q_dc
    if offsets is not None:
        v_i -= offsets[0]
        v_q -= offsets[1]
    raw = RawIq(
        v_i_dc=v_i,
        v_q_dc=v_q,
        i_amplitude=config.current_amplitude,
        gain_G=setup.params.total_gain(config.g2),
        freq=config.fundamental,
    )
    return extract_impedance(raw)


def build_equalization(
    setup: MeasurementSetup,
    reference_r: float = 100.0,
    gain_word: str = "111",
    seed=None,
    offsets: dict | None = None,
    created_at: str | None = None,
    repeats: int = 10,
) -> CalibrationTable:
    """Measure the reference resistor at every plan frequency.

    Offsets for all gain words are measured first (unless supplied), then
    each frequency is measured `repeats` times and averaged (calibration
    happens once, so spending acquisition time here keeps its noise out of
    every later reading) and coeff = reference_r / z_measured.  The
    coefficients are saved with the table for reuse.  Saturation during
    the reference sweep aborts the calibration.
    """
    children = np.random.SeedSequence(seed).spawn(8 + 11)
    if offsets is None:
        offsets = {}
        words = sorted({f"{a}{b}{c}" for a in "01" for b in "01" for c in "01"})
        for word, ss in zip(words, children[:8]):
            offsets[word] = measure_offsets(setup, word, seed=ss, taps=256, repeats=4)

    ref_setup = setup.with_model(tissue.ParallelRC(r=reference_r, c=0.0))
    coeffs = {}
    for idx, f0 in enumerate(plan_frequencies()):
        readings = []
        for rep_seed in children[8 + idx].spawn(repeats):
            res = ref_setup.run(freq_index=idx, gain_word=gain_word, seed=rep_seed)
            if res.saturated:
                raise CalibrationError(
                    f"reference measurement saturated at {f0:g} Hz "
                    f"(gain word {gain_word}); calibration aborted"
                )
            readings.append(_raw_reading(ref_setup, res, gain_word, offsets.get(gain_word)))
        z_meas = derotate(np.mean(readings))
        if z_meas == 0:
            raise CalibrationError(f"zero reading for the reference at {f0:g} Hz")
        coeffs[f0] = reference_r / z_meas

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
        raise CalibrationError(
            f"table was calibrated under gain word {table.gain_word}, "
            f"cannot apply under {gain_word}"
        )
    z = derotate(z_raw)
    coeff = table.coeff(freq)
    if coeff is None:
        return ImpedanceReading(z=z, freq=freq, gain_word=gain_word, flags=("out_of_table",))
    return ImpedanceReading(z=z * coeff, freq=freq, gain_word=gain_word)


def measure_impedance(
    setup: MeasurementSetup,
    freq_index: int,
    gain_word: str,
    table: CalibrationTable | None = None,
    offsets: dict | None = None,
    seed=None,
) -> ImpedanceReading:
    """One full reading: sequence, offset subtraction, extraction, correction."""
    res = setup.run(freq_index=freq_index, gain_word=gain_word, seed=seed)
    off = None
    if table is not None:
        off = table.offset_for(gain_word)
    if offsets is not None:
        off = offsets.get(gain_word)
    z_raw = _raw_reading(setup, res, gain_word, off)
    freq = plan_frequencies()[freq_index]
    if table is not None:
        reading = apply_calibration(z_raw, table, freq, gain_word)
    else:
        reading = ImpedanceReading(z=derotate(z_raw), freq=freq, gain_word=gain_word)
    if res.saturated:
        reading = replace(reading, flags=reading.flags + ("saturated",))
    return reading
