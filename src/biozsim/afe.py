"""Analog front-end behavior: programmable current injection, low-noise
transconductance amplification, square-wave I/Q mixing, filtering,
compression, offset, and noise.

Chain order, applied by the time-domain engine:

    sensed voltage -> LNA transconductance (single parasitic pole)
                   -> current-commutating mixer (ideal +/-1 by the selected
                      I or Q clock)
                   -> transimpedance stage (gain + single pole)
                   -> 2nd-order Chebyshev 50 Hz low-pass (bilinear with
                      pre-warp at the cutoff, 0.5 dB ripple, unity DC gain)
                   -> soft compression -> additive offset -> additive noise

Sign conventions (fixed by the pure-resistor test): the I reference
renders as sign(sin), the Q reference as sign(cos), and the stepped-sine
source lags the reference pair by pi/8.  A purely resistive load therefore
produces a positive I output, a negative Q output, and a raw constellation
angle of -22.5 deg; the calibration layer removes the rotation by
multiplying by exp(+j*pi/8).

Configured current amplitudes (1.11 / 3.33 / 10 uA) refer to the
fundamental component of the stepped waveform; the raw staircase is
1/sinc(1/8) = 1.0262x taller.  This makes the quadrature extraction
formulas Re{Z} = (pi/2) V_I / (|I| G), Im{Z} = (pi/2) V_Q / (|I| G) exact
at the fundamental with no hold-gain correction.

Stateless apart from filter states threaded explicitly; independent
measurements may run concurrently with independent seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import signal

from ._dsp import dc_normalized, gated_mean_exact, onepole_bilinear, periodic_lfilter
from .waveforms import (
    FUNDAMENTAL_GAIN,
    IqClock,
    Phase,
    SampleSeries,
    SOURCE_LAG,
    SteppedSine,
    plan_frequencies,
    synthesize,
)
from . import tissue

#: (g0, g1) -> fundamental current amplitude, amps.
CURRENT_LEVELS = {
    (1, 1): 10e-6,
    (1, 0): 10e-6 / 3,
    (0, 1): 10e-6 / 3,
    (0, 0): 10e-6 / 9,
}

#: g2 -> LNA transconductance, siemens (20 uS or 6.67 uS).
GM_LEVELS = {1: 20e-6, 0: 20e-6 / 3}

#: Soft-limit argument at which the compressive deviation is 1%.
_KNEE_X = float((0.99**-4 - 1.0) ** 0.25)


@dataclass(frozen=True)
class AfeConfig:
    """Front-end configuration: gain word bits, clock select, frequency index."""

    g0: int = 1
    g1: int = 1
    g2: int = 1
    iq_select: Phase = Phase.I
    source_enable: int = 1
    freq_index: int = 10

    def __post_init__(self):
        for name in ("g0", "g1", "g2", "source_enable"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
        if not 0 <= self.freq_index <= 10:
            raise ValueError("freq_index must be in 0..10")

    @property
    def gain_word(self) -> str:
        return f"{self.g0}{self.g1}{self.g2}"

    @classmethod
    def from_gain_word(cls, word: str, **kw) -> "AfeConfig":
        if len(word) != 3 or any(c not in "01" for c in word):
            raise ValueError(f"gain word must be 3 bits, got {word!r}")
        return cls(g0=int(word[0]), g1=int(word[1]), g2=int(word[2]), **kw)

    @property
    def current_amplitude(self) -> float:
        """Fundamental amplitude of the injected current, amps."""
        return CURRENT_LEVELS[(self.g0, self.g1)]

    @property
    def gm(self) -> float:
        return GM_LEVELS[self.g2]

    @property
    def fundamental(self) -> float:
        return plan_frequencies()[self.freq_index]


@dataclass(frozen=True)
class ChainParams:
    """Behavioral parameters of the demodulation chain.

    total gain G (the divisor in the impedance extraction) is
    gm * tia_gain * lpf_gain: 700 with G2 set, 700/3 with G2 clear.
    `compression_knee` is the output level at which a single component
    deviates 1% from linear (None disables compression).  The noise model
    is output-referred: a white floor of `noise_floor` V/rtHz shaped by
    1/f below `flicker_corner` (integrating 1-100 Hz at the defaults gives
    1.3 mVrms), plus a front-end term that the mixer folds down from the
    carrier, white per tap with amplitude carrier_noise_v *
    (carrier_flicker_corner / f0) at the high-gain setting.
    """

    lna_pole: Optional[float] = 2.2e6
    tia_gain: float = 5e6
    tia_pole: float = 10e3
    lpf_cutoff: float = 50.0
    lpf_order: int = 2
    lpf_ripple_db: float = 0.5
    lpf_gain: float = 7.0
    compression_knee: Optional[float] = 1.606
    offset: float = 0.012
    noise_floor: float = 5.496e-5
    flicker_corner: float = 100.0
    carrier_noise_v: float = 0.036
    carrier_flicker_corner: float = 2000.0
    settle_time: float = 0.025
    output_rate: float = 50e3
    rf_oversampling: int = 256

    def __post_init__(self):
        if not (self.settle_time >= 0) or not math.isfinite(self.settle_time):
            raise ValueError("settle_time must be non-negative and finite")

    def total_gain(self, g2: int) -> float:
        return GM_LEVELS[g2] * self.tia_gain * self.lpf_gain

    def without_noise(self) -> "ChainParams":
        return replace(self, noise_floor=0.0, carrier_noise_v=0.0)

    def ideal(self) -> "ChainParams":
        """No pole, no compression, no offset, no noise: the bare math chain."""
        return replace(
            self,
            lna_pole=None,
            compression_knee=None,
            offset=0.0,
            noise_floor=0.0,
            carrier_noise_v=0.0,
        )

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ChainParams":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown chain parameters: {sorted(unknown)}")
        return cls(**d)


def _lna_response(params: ChainParams, freq) -> np.ndarray:
    """Continuous-time normalized LNA response at `freq` Hz."""
    if params.lna_pole is None:
        return np.ones_like(np.asarray(freq, dtype=float), dtype=complex)
    return 1.0 / (1.0 + 1j * np.asarray(freq, dtype=float) / params.lna_pole)


def apply_compression(v, params: ChainParams):
    """Soft saturating nonlinearity of the output stage.

    y = v / (1 + (v/vs)^4)^(1/4), a hard-knee odd limiter saturating at
    vs = compression_knee / 0.4501.  Deviation from linear grows as the
    fourth power of level: 1% at the knee, 0.06% at half the knee, which
    keeps the chain linear to within 1% up to the gain-range breakpoints
    while doubling a mid-range signal stays linear to better than 0.1%.
    """
    if params.compression_knee is None:
        return v
    vs = params.compression_knee / _KNEE_X
    x = np.asarray(v, dtype=float) / vs
    y = np.asarray(v) / (1.0 + x**4) ** 0.25
    return y if np.ndim(v) else float(y)


def noise_process(
    params: ChainParams, rng_seed, duration: float, sample_rate: float
) -> SampleSeries:
    """Output-referred baseband noise: white floor plus 1/f shaping.

    One-sided PSD noise_floor^2 * (1 + flicker_corner/f), realized by
    spectral shaping of seeded white Gaussian noise (DC bin zeroed, so the
    realization is exactly zero-mean).  Deterministic for a fixed seed.
    At the default floor and corner the 1-100 Hz integral is 1.3 mVrms.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    n = int(round(duration * sample_rate))
    if params.noise_floor == 0.0 or n == 0:
        return SampleSeries(sample_rate, np.zeros(n))
    sigma_white = params.noise_floor * np.sqrt(sample_rate / 2.0)
    white = rng.standard_normal(n) * sigma_white
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, 1.0 / sample_rate)
    shape = np.ones_like(f)
    shape[1:] = np.sqrt(1.0 + params.flicker_corner / f[1:])
    shape[0] = 0.0
    return SampleSeries(sample_rate, np.fft.irfft(spec * shape, n=n))


def _carrier_noise_sigma(params: ChainParams, f0: float, g2: int) -> float:
    """Per-sample std of the noise folded down from the carrier at f0."""
    if params.carrier_noise_v == 0.0:
        return 0.0
    gain_ratio = params.total_gain(g2) / params.total_gain(1)
    return params.carrier_noise_v * (params.carrier_flicker_corner / f0) * gain_ratio


# ---------------------------------------------------------------------------
# RF stage: rendered waveforms -> steady-state post-mixer DC
# ---------------------------------------------------------------------------

#: Samples per fundamental period for the spectral (non-rational) RF route.
#: Product components at multiples of this rate alias onto the mixer DC;
#: 4096 keeps them below 0.05%.
_SPECTRAL_OVERSAMPLE = 4096

#: Highest staircase image applied to a tabulated/fractional load in the
#: spectral route (images beyond this carry < 2e-5 of the mixer DC).
_SPECTRAL_N_CUT = 255


def _sense_tf(model, params: ChainParams, include_interface: bool):
    """Combined s-domain numerator/denominator of Z_sense(s) * LNA(s)."""
    r_ser = model.r_interface if include_interface else 0.0
    if model.c == 0:
        num, den = [model.r + r_ser], [1.0]
    else:
        tau = model.r * model.c
        num = [tau * r_ser, model.r + r_ser] if r_ser else [model.r]
        den = [tau, 1.0]
    if params.lna_pole is not None:
        num = np.polymul(num, [1.0])
        den = np.polymul(den, [1.0 / (2 * np.pi * params.lna_pole), 1.0])
    return num, den


def mixer_dc_pair(
    model,
    f0: float,
    config: AfeConfig,
    params: ChainParams,
    include_interface: bool = False,
) -> tuple:
    """Steady-state post-mixer DC (amps, after the LNA gm) for I and Q.

    The result does not depend on the seed, so it is memoized per process
    in an LRU cache of 256 entries keyed on (model, f0, config, params,
    include_interface): the repeats of a reading compute it once.  Frozen
    models and parameters key by value; a TabulatedTwoPort keys by
    identity.  A disabled source returns (0.0, 0.0) without a lookup, and
    a TimeVaryingModel is frozen at t = 0 before it.

    Rational (RC) loads: the load and LNA pole form one state-space system
    driven by the rendered staircase; an appended integrator state makes
    each sample step yield the exact continuous integral of its output, so
    the clock-gated cycle mean is the exact continuous mixer DC including
    every hold image (sampled products would otherwise alias image-times-
    clock-harmonic terms onto DC).

    Tabulated/fractional loads: the sensed voltage is synthesized from the
    staircase's spectrum (hold-compensated bins up to the 255th image,
    each scaled by Z at its own frequency), the LNA pole is a bilinear
    recursion pre-warped at the fundamental, and the mixer is a
    sample-wise multiply by the rendered square clocks at 4096 samples per
    period, keeping product aliasing below 0.05%.
    """
    if not config.source_enable:
        return 0.0, 0.0
    if isinstance(model, tissue.TimeVaryingModel):
        model = model.at_time(0.0)
    return _mixer_dc(model, f0, config, params, include_interface)


@functools.lru_cache(maxsize=256)
def _mixer_dc(model, f0, config, params, include_interface) -> tuple:
    amp_staircase = config.current_amplitude / FUNDAMENTAL_GAIN
    if tissue.is_rational(model):
        per_n = params.rf_oversampling
        rate = per_n * f0
        u = synthesize(SteppedSine(amp_staircase, f0), rate, 1 / f0).samples
        sq_i = synthesize(IqClock(f0, Phase.I), rate, 1 / f0).samples
        sq_q = synthesize(IqClock(f0, Phase.Q), rate, 1 / f0).samples
        num, den = _sense_tf(model, params, include_interface)
        dc_i, dc_q = gated_mean_exact(num, den, u, (sq_i, sq_q), 1.0 / rate, per_n)
        return config.gm * dc_i, config.gm * dc_q

    per_n = _SPECTRAL_OVERSAMPLE
    rate = per_n * f0
    x = synthesize(SteppedSine(amp_staircase, f0), rate, 1 / f0).samples
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(per_n, 1.0 / rate)
    bins = np.arange(len(spec))
    live = (np.abs(spec) > 1e-9 * np.abs(spec).max()) & (bins > 0) & (bins <= _SPECTRAL_N_CUT)
    h = np.zeros(len(spec), dtype=complex)
    hold = np.sinc(freqs[live] / rate) * np.exp(-1j * np.pi * freqs[live] / rate)
    h[live] = tissue._sense_z(model, freqs[live], include_interface) * hold
    v = np.fft.irfft(spec * h, n=per_n)

    if params.lna_pole is not None:
        b, a = onepole_bilinear(params.lna_pole, rate, prewarp_hz=f0)
        v = periodic_lfilter(b, a, v, per_n)
    i_lna = config.gm * v

    sq_i = synthesize(IqClock(f0, Phase.I), rate, 1 / f0).samples
    sq_q = synthesize(IqClock(f0, Phase.Q), rate, 1 / f0).samples
    return float(np.mean(i_lna * sq_i)), float(np.mean(i_lna * sq_q))


# ---------------------------------------------------------------------------
# Baseband stage: post-mixer DC steps -> settling output series
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _baseband_filters(params: ChainParams) -> tuple:
    """DC-normalized (b, a) of the TIA pole and the Chebyshev low-pass, read-only."""
    fs = params.output_rate
    tb, ta = dc_normalized(*onepole_bilinear(params.tia_pole, fs))
    cb, ca = signal.cheby1(params.lpf_order, params.lpf_ripple_db, params.lpf_cutoff, fs=fs)
    cb, ca = dc_normalized(cb, ca)
    coeffs = (tb, ta, cb, ca)
    for c in coeffs:
        c.setflags(write=False)
    return coeffs


def baseband_output(
    steps,
    params: ChainParams,
    f0: float,
    g2: int,
    rng_seed=None,
) -> SampleSeries:
    """Drive the TIA + Chebyshev chain with piecewise-constant mixer DC.

    `steps` is a list of (n_samples, dc_amps) intervals at the output
    rate.  Filter states start at rest and are carried across all steps,
    so the settling transients (about 25 ms to 1% at the default 50 Hz
    cutoff) emerge from the discretized filters themselves.  Compression,
    offset, and seeded noise are applied at the output.  The TIA and
    Chebyshev coefficients are designed once per `params` (an LRU cache
    keyed on the frozen ChainParams); only the noise depends on the seed.
    """
    fs = params.output_rate
    u = np.concatenate([np.full(int(n), dc) for n, dc in steps])

    tb, ta, cb, ca = _baseband_filters(params)
    y = signal.lfilter(tb, ta, u) * params.tia_gain
    y = signal.lfilter(cb, ca, y) * params.lpf_gain

    y = apply_compression(y, params)
    y = y + params.offset

    if params.noise_floor or params.carrier_noise_v:
        rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
        y = y + noise_process(params, rng, len(u) / fs, fs).samples
        sig = _carrier_noise_sigma(params, f0, g2)
        if sig:
            y = y + sig * rng.standard_normal(len(u))
    return SampleSeries(fs, y)


def demodulate_time_domain(
    v_sense: SampleSeries,
    config: AfeConfig,
    params: ChainParams,
    rng_seed=None,
    duration: Optional[float] = None,
) -> SampleSeries:
    """Full demodulation of a sensed-voltage series for one clock select.

    `v_sense` must be sampled at >= 64x and commensurate with the
    fundamental (clock edges on samples) and contain at least one whole
    period; its time origin is the reference-clock edge.  The trailing
    whole periods determine the steady-state mixer DC; the returned series
    is the filtered output over `duration` (default: the input duration),
    which must cover the settling time.  With the default parameters the
    output settles in approximately 25 ms.
    """
    f0 = config.fundamental
    rate = v_sense.sample_rate
    per_n = rate / f0
    if abs(per_n - round(per_n)) > 1e-9:
        raise ValueError("v_sense sample rate is not commensurate with the fundamental")
    per_n = int(round(per_n))
    if rate < 64 * f0:
        raise ValueError("v_sense sample rate below 64x the fundamental")
    n_whole = len(v_sense) // per_n
    if n_whole < 1:
        raise ValueError("v_sense must contain at least one whole period")

    if duration is None:
        duration = v_sense.duration
    if duration < params.settle_time + 1e-3:
        raise ValueError(
            f"duration {duration:g} s too short to settle "
            f"(settle_time {params.settle_time:g} s)"
        )

    if config.source_enable:
        x = v_sense.samples[: n_whole * per_n]
        if params.lna_pole is None:
            v_lna = x
        else:
            b, a = onepole_bilinear(params.lna_pole, rate, prewarp_hz=f0)
            v_lna = signal.lfilter(b, a, x)
        sq = synthesize(IqClock(f0, config.iq_select), rate, n_whole / f0).samples
        tail = slice((n_whole - 1) * per_n, n_whole * per_n)
        dc_mix = config.gm * float(np.mean(v_lna[tail] * sq[tail]))
    else:
        dc_mix = 0.0

    n_out = int(round(duration * params.output_rate))
    return baseband_output([(n_out, dc_mix)], params, f0, config.g2, rng_seed)


# ---------------------------------------------------------------------------
# Analytic oracle
# ---------------------------------------------------------------------------

def _image_orders(n_max: int) -> np.ndarray:
    n = np.arange(1, n_max + 1)
    return n[(n % 8 == 1) | (n % 8 == 7)]


def analytic_dc_oracle(
    model,
    f0: float,
    config: AfeConfig,
    params: ChainParams,
    n_max: int = 63,
    include_interface: bool = False,
) -> float:
    """Settled output DC from the per-harmonic product sum (volts).

    The stepped current carries images only at n = 8k +/- 1 with
    fundamental-relative amplitude 1/n; each is scaled by the load and LNA
    response at n*f0 and multiplied by the matching square-clock harmonic
    4/(pi*n), whose product contributes half the amplitude times the trig
    of the accumulated phase to the DC:

        V_dc = G * (2/pi) * |I| * sum_n |W(n f0)| / n^2 * T_n + offset
        T_n(I) = cos(phi_n - n*pi/8)
        T_n(Q) = (-1)^((n-1)/2) * sin(phi_n - n*pi/8)

    with W = Z_sense * LNA and phi its phase.  Assumes noise and
    compression are disabled; this is the ground truth the time-domain
    engine must match.
    """
    if not config.source_enable:
        return params.offset
    if isinstance(model, tissue.TimeVaryingModel):
        model = model.at_time(0.0)
    n = _image_orders(n_max)
    freqs = n * f0
    w = np.asarray(tissue._sense_z(model, freqs, include_interface), dtype=complex)
    w = w * _lna_response(params, freqs)
    phi = np.angle(w)
    if config.iq_select == Phase.I:
        t = np.cos(phi - n * SOURCE_LAG)
    else:
        t = np.where((n % 8) == 1, 1.0, -1.0) * np.sin(phi - n * SOURCE_LAG)
    g = params.total_gain(config.g2)
    total = np.sum(np.abs(w) / n.astype(float) ** 2 * t)
    return float(g * (2 / np.pi) * config.current_amplitude * total + params.offset)
