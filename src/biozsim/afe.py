"""Analog front-end behavior: programmable current injection, low-noise
transconductance amplification, square-wave I/Q mixing, filtering,
compression, offset, and noise.

Chain order.  The RF stage up to the mixer is reduced to its steady-state
post-mixer DC (`mixer_dc_pair`); the baseband stage runs in the time
domain:

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

Mixer DC.  Every load takes one route, the sum over the staircase's
images n = 8k +/- 1 <= 255 of W = Z_sense * LNA at n * f0 (`_image_dc`).
Z_sense is the impedance between the sense electrodes: a ParallelRC's
r_interface lies outside them, on the injection side, and only
`tissue.impedance_at` includes it.  The image terms alternate in sign,
so past n = 127 the sum takes Euler's transform of its tail, a fixed
weight per image; each image's weight, rotation and clock sign are one
module constant (`_IMAGE_WEIGHTS`).  Tests hold the DC within 1e-13 of
|I + jQ| of 50-digit evaluations on RC loads and on Cole loads at
alpha = 1, and of a 30-digit sum of the series on Cole loads with
alpha < 1 (about 1e-15 measured); on the builtin tables, whose
interpolation kinks limit the transform, within 1e-8 of the same
transform taken to n <= 895.  The route takes a vector of frequencies as
one numpy stack and gives each row bit for bit its frequency's value
alone.  A load's DC at all 11 plan frequencies is computed in one such
pass the first time any of them is measured, and kept per process as a
read-only 11 x 2 table (`_plan_dc`): a sweep or a link session on one
load pays for one evaluation of the plan, not eleven.

Baseband.  The TIA pole and the Chebyshev low-pass are first- and
second-order sections, each at unity DC gain and each defined by its
pole; the Chebyshev poles come from the analog prototype, pre-warped and
bilinear-mapped in numpy (`_cheby1_poles`).  The chain is linear and starts
at rest, and its input is piecewise constant, so its output is a sum of
copies of one unit-step response, one per change of the mixer DC.  That
response is computed once per chain and length, from a recursion in
rotation-scaling form that stays within 1e-13 of a 50-digit evaluation
even for slow, high-order filters, stepped by elementwise products and
`np.add.reduce`, so that no measurement calls BLAS; it is evaluated only
on the lattice of samples the ADC reads (`_render`).  A load's I-then-Q
sequences at the 11 plan frequencies differ only in their row of
`_plan_dc`, so their noise-free lattices are rendered in one stacked pass
the first time any of them is measured and kept per process, read-only
(`_plan_lattice`, at most 4 x 10^6 doubles in all): every repeat of a
sweep and every sequence of a link session on that load reads a row of
it.  `noise_process` takes a list of seeds and returns a 2-D array, one
row per seed.  `baseband_output` takes a stack of groups, as
`acquire.run_sequence` does: per group one noise-free lattice, one
carrier frequency, one gain bit and one list of seeds, such as a whole
sweep's repeats at every plan frequency under one gain word.  Each seed
draws its noise from its own generator (a precomputed `seeds.SeedWords`
seeds it without a SeedSequence), the 1/f noise of every row is shaped
by the one folded spectrum of the chain and tap count in one pass, and
each group adds its lattice and its carrier term to its own rows, each
row bit for bit that seed's output alone.

Stateless apart from per-process caches of seed-independent results;
independent measurements may run concurrently with independent seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
# numpy loads these on first use; loading them with the package keeps
# module loading out of the first measurement's time
from numpy.fft import irfft, rfft
from numpy.random import default_rng

from .waveforms import N_PLAN, SOURCE_LAG, plan_frequencies
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

#: Seconds between successive ADC taps of a select phase: the output rate
#: must place them on whole output samples.
TAP_SPACING = 1e-3

#: The bounds `ChainParams` checks (see its docstring): the highest
#: low-pass order, the ripple's range in dB, the range of the TIA pole,
#: cutoff and output rate in Hz, the largest noise, offset and knee, and
#: the smallest total gain at g2 = 0.
MAX_LPF_ORDER = 6
RIPPLE_DB = (1e-12, 3000.0)
FREQUENCY_RANGE = (1e-6, 1e12)
MAX_VOLTS = 1e6
MIN_TOTAL_GAIN = 1e-140

#: Soft-limit argument at which the compressive deviation is 1%.
_KNEE_X = float((0.99**-4 - 1.0) ** 0.25)


@dataclass(frozen=True)
class AfeConfig:
    """Front-end configuration: gain word bits, source enable, frequency
    index.  A sequence measures I and then Q (`acquire.run_sequence`), so
    no clock select is held here."""

    g0: int = 1
    g1: int = 1
    g2: int = 1
    source_enable: int = 1
    freq_index: int = 10

    def __post_init__(self):
        for name in ("g0", "g1", "g2", "source_enable"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
        if not 0 <= self.freq_index < N_PLAN:
            raise ValueError(f"freq_index must be in 0..{N_PLAN - 1}")

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
    (carrier_flicker_corner / f0) at the high-gain setting.  Both terms
    are drawn only on the lattice of output samples the ADC reads (every
    gcd(settle, tap spacing)-th sample): the 1/f term from its spectrum
    folded onto that lattice, the white term per lattice point, so each
    tap's noise has exactly the full series' joint distribution.

    Construction refuses, with a one-line ValueError naming the field, a
    chain the engine cannot run.  The bounds:

    * `lpf_order` an integer from 1 to 6 (`MAX_LPF_ORDER`), the orders
      the step response is tested to 1e-13 for; the response's state
      grows as the order squared.
    * `lpf_ripple_db` in [1e-12, 3000] dB (`RIPPLE_DB`): the design's
      eps^2 = 10^(ripple/10) - 1 rounds to 0 below about 5e-16 dB and
      overflows above about 3083 dB.
    * `output_rate` and `tia_pole` in [1e-6, 1e12] Hz
      (`FREQUENCY_RANGE`), `lpf_cutoff` from 1e-6 Hz to below
      output_rate / 2, `lna_pole` finite and at least 1e-6 Hz, and
      `flicker_corner` and `carrier_flicker_corner` in [0, 1e12] Hz, so
      every digital pole is a number, a pole pair stays off the real
      axis, and the noise PSD stays finite.
      The output rate also rounds to at least one sample per 1 ms tap
      (500 Hz) and places every tap on a whole sample, within 1e-9.
    * `noise_floor` (V/rtHz) and `carrier_noise_v` in [0, 1e6], `offset`
      within +/-1e6 V and `compression_knee` in (0, 1e6] V
      (`MAX_VOLTS`), so the noise and offset stay finite.
    * tia_gain and lpf_gain positive, with G finite at g2 = 1 and at
      least 1e-140 at g2 = 0 (`MIN_TOTAL_GAIN`): a reading is
      (pi/2) * V / (|I| * G), with |V| <= 1.8 V and |I| >= 10 uA / 9, so
      it stays below 1e147 ohm and its square, in a standard error,
      stays finite.
    * `settle_time` non-negative, with settle_time * output_rate finite.

    The chain's output past a double is past the ADC's rails too: a load
    whose output overflows reads a rail code.
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

    def __post_init__(self):
        def check(name, ok, rule):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        lo, hi = FREQUENCY_RANGE
        for name in ("output_rate", "tia_pole"):
            check(name, lo <= getattr(self, name) <= hi, f"in [{lo:g}, {hi:g}] Hz")
        check("lna_pole", self.lna_pole is None or lo <= self.lna_pole < math.inf,
              f"finite and at least {lo:g} Hz, or null")
        check("lpf_cutoff", lo <= self.lpf_cutoff < self.output_rate / 2,
              f"in [{lo:g} Hz, output_rate / 2)")
        for name in ("flicker_corner", "carrier_flicker_corner"):
            check(name, 0 <= getattr(self, name) <= hi, f"in [0, {hi:g}] Hz")
        for name in ("noise_floor", "carrier_noise_v"):
            check(name, 0 <= getattr(self, name) <= MAX_VOLTS, f"in [0, {MAX_VOLTS:g}]")
        check("compression_knee",
              self.compression_knee is None or 0 < self.compression_knee <= MAX_VOLTS,
              f"in (0, {MAX_VOLTS:g}] V, or null")
        check("offset", abs(self.offset) <= MAX_VOLTS, f"at most {MAX_VOLTS:g} V in magnitude")
        for name in ("tia_gain", "lpf_gain"):
            check(name, 0 < getattr(self, name) < math.inf, "positive and finite")
        if not (self.total_gain(0) >= MIN_TOTAL_GAIN and self.total_gain(1) < math.inf):
            raise ValueError(f"tia_gain and lpf_gain must give a finite total gain of at least "
                             f"{MIN_TOTAL_GAIN:g} at g2 = 0, got {self.total_gain(0)!r}")
        check("lpf_order", self.lpf_order in range(1, MAX_LPF_ORDER + 1),
              f"an integer from 1 to {MAX_LPF_ORDER}")
        check("lpf_ripple_db", RIPPLE_DB[0] <= self.lpf_ripple_db <= RIPPLE_DB[1],
              f"in [{RIPPLE_DB[0]:g}, {RIPPLE_DB[1]:g}] dB")
        check("settle_time", 0 <= self.settle_time * self.output_rate < math.inf,
              "non-negative and finite in output samples")
        taps = TAP_SPACING * self.output_rate
        check("output_rate", round(taps) >= 1, "at least the 1 kHz tap rate")
        check("output_rate", abs(taps - round(taps)) <= 1e-9 * round(taps),
              "a rate that places the 1 ms taps on whole output samples")

    def total_gain(self, g2: int) -> float:
        return GM_LEVELS[g2] * self.tia_gain * self.lpf_gain

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

    The fourth root is taken as two square roots of 1 + (x*x)^2, which
    avoids libm `pow` (about 10x slower on negative arrays) and stays
    within 2 ULP of the `pow` form.  Where x^4 overflows (|x| above about
    1e77, an infinite v included), (1 + x^4)^(1/4) is |x| to the last bit,
    so y is +/-vs there.
    """
    if params.compression_knee is None:
        return v
    vs = params.compression_knee / _KNEE_X
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(v, dtype=float) / vs
        x2 = x * x
        x4 = x2 * x2
        y = np.asarray(v) / np.sqrt(np.sqrt(1.0 + x4))
    y = np.where(np.isinf(x4), np.copysign(vs, x), y)
    return y if np.ndim(v) else float(y)


def _normals(rngs, m: int) -> np.ndarray:
    """(len(rngs), m) standard normals, row r the next m draws of rngs[r]."""
    out = np.empty((len(rngs), m))
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=out[r])
    return out


def noise_process(
    params: ChainParams, seeds: list, duration: float, sample_rate: float, stride: int = 1
) -> np.ndarray:
    """Output-referred baseband noise at every `stride`-th sample, one row
    per seed of the list (a seed or a Generator).

    One-sided PSD noise_floor^2 * (1 + flicker_corner/f): seeded white
    Gaussian noise at `sample_rate`, spectrally shaped over the circular
    series of n = duration * sample_rate samples (DC bin zeroed), then
    read at samples 0, stride, 2*stride, ...  Deterministic for a fixed
    seed.  At the default floor and corner the 1-100 Hz integral is
    1.3 mVrms.  Each row is drawn from its seed's own generator, and the
    rows are shaped in one pass, each bit for bit the series of its seed
    alone.  Nothing is drawn at a zero floor.

    The full series is never built.  It is circular-stationary with
    covariance c = irfft(S), S the per-bin power noise_floor^2 *
    sample_rate / 2 * (1 + flicker_corner/f) (zero at DC), so its every
    stride-th sample is circular-stationary over n/stride points with
    covariance c[::stride], whose spectrum is the folded PSD
    S.reshape(stride, n // stride).sum(0) / stride (non-negative).  The
    draw shapes n/stride standard normals by that spectrum's square root:
    exactly the full series' distribution at the samples read.  Stride 1
    is the full series, exactly zero-mean; n must be a multiple of the
    stride.  The rows run at sample_rate / stride.
    """
    n = int(round(duration * sample_rate))
    if n % stride:
        raise ValueError(f"{n} samples do not divide into stride {stride}")
    m = n // stride
    if params.noise_floor == 0.0 or n == 0:
        return np.zeros((len(seeds), m))
    # default_rng hands a Generator back as it is
    spectrum = rfft(_normals([default_rng(s) for s in seeds], m))
    spectrum *= _folded_root_spectrum(params, n, sample_rate, stride)
    return irfft(spectrum, n=m)


@functools.lru_cache(maxsize=8)
def _folded_root_spectrum(params: ChainParams, n: int, sample_rate: float, stride: int):
    """Square root of the noise PSD folded to n/stride bins (rfft half), read-only.

    Bin k of the n-point series sits at |f| = min(k, n - k) / (n / sample_rate),
    `fftfreq`'s value, and folds into bin k mod m, m = n/stride.  Only the
    m // 2 + 1 folded bins of the rfft half are formed: the (stride, m // 2 + 1)
    grid of k = r * m + j, summed over r in order."""
    m = n // stride
    k = (np.arange(stride) * m)[:, None] + np.arange(m // 2 + 1)
    f = np.minimum(k, n - k) * (1.0 / (n * (1.0 / sample_rate)))
    with np.errstate(divide="ignore", invalid="ignore"):
        psd = params.noise_floor**2 * (sample_rate / 2.0) * (1.0 + params.flicker_corner / f)
    psd[0, 0] = 0.0  # the DC bin
    root = np.sqrt(np.add.reduce(psd, axis=0) / stride)
    root.setflags(write=False)
    return root


def _carrier_noise_sigma(params: ChainParams, f0: float, g2: int) -> float:
    """Per-sample std of the noise folded down from the carrier at f0 with
    gain bit g2."""
    if params.carrier_noise_v == 0.0:
        return 0.0
    gain_ratio = params.total_gain(g2) / params.total_gain(1)
    return params.carrier_noise_v * (params.carrier_flicker_corner / f0) * gain_ratio


# ---------------------------------------------------------------------------
# RF stage: load, LNA and square clocks -> steady-state post-mixer DC
# ---------------------------------------------------------------------------

#: The staircase's images that the mixer DC sums: n = 8k +/- 1 <= 255.
_IMAGES = np.array([n for n in range(1, 256) if n % 8 in (1, 7)])


def _image_weights() -> np.ndarray:
    """The I and Q weight of each of `_IMAGES`, 2 x 64 complex, read-only
    (see `_image_dc`).

    Past n = 127 the terms alternate in sign with each image pair, so the
    tail takes Euler's transform: the 17 partial sums that end at
    n = 127, 135, ..., 255 are averaged with the binomial weights
    C(16, j) / 2^16.  Image pair i past 127 lies in the last 17 - i of
    those sums, so its weight is the tail sum_{j >= i} C(16, j) / 2^16,
    and every image up to 127 weighs 1.
    """
    n = _IMAGES
    tail = np.cumsum([math.comb(16, j) for j in range(16, 0, -1)])[::-1] / 2.0**16
    euler = np.concatenate([np.ones(np.count_nonzero(n <= 127)), np.repeat(tail, 2)])
    # e^(-j n pi/8) has period 16 in n: reducing n first keeps the angle exact
    c = (2 / np.pi) * euler / n**2 * np.exp(-1j * SOURCE_LAG * (n % 16))
    weights = np.stack([c, -1j * np.where(n % 8 == 1, 1.0, -1.0) * c])
    weights.setflags(write=False)
    return weights


_IMAGE_WEIGHTS = _image_weights()


def _image_dc(model, f0s, config, params) -> np.ndarray:
    """Post-mixer DC (amps, after the LNA gm), one (I, Q) row per frequency
    in `f0s`, summed per image.

    The stepped current carries images only at n = 8k +/- 1 with
    fundamental-relative amplitude 1/n; each is scaled by W = Z_sense * LNA
    at n*f0 and multiplied by the matching square-clock harmonic 4/(pi*n),
    whose product contributes half the amplitude times the trig of the
    accumulated phase to the DC:

        dc_I = gm * |I| * (2/pi) * sum_n e_n * Re(W(n f0) e^(-j n pi/8)) / n^2
        dc_Q = gm * |I| * (2/pi) * sum_n e_n * s_n * Im(W(n f0) e^(-j n pi/8)) / n^2

    with s_n = +1 at n = 8k + 1 and -1 at n = 8k + 7, and e_n the Euler
    weight of the tail (see `_image_weights`).  Both sums are the real part
    of W times `_IMAGE_WEIGHTS`, reduced over the images axis, with W
    evaluated once on the frequencies-by-images grid.
    """
    f = np.multiply.outer(np.asarray(f0s, dtype=float), _IMAGES)
    # a load too large for doubles gives a non-finite DC, which the caller
    # reports as MeasurementRangeError, so its overflow is not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        w = tissue._sense_z(model, f) * _lna_response(params, f)
        dc = np.add.reduce((w[:, None, :] * _IMAGE_WEIGHTS).real, axis=-1)
        # the weights are below 1, so a W whose modulus overflows can still
        # sum to a finite DC: such a row is out of range too
        dc[np.logical_or.reduce(np.isinf(np.abs(w)), axis=1)] = np.inf
    return config.gm * config.current_amplitude * dc


def mixer_dc_pair(model, f0: float, config: AfeConfig, params: ChainParams) -> tuple:
    """Steady-state post-mixer DC (amps, after the LNA gm) for I and Q.

    The result does not depend on the seed or the frequency index, so a
    load's DC is computed for all 11 plan frequencies in one pass and
    memoized per process as a read-only 11 x 2 table (`_plan_dc`, an
    LRU cache of `_PLAN_CACHE_SIZE` tables keyed on (model, gain word,
    params)): every reading of a sweep or a link session on the same load
    reads a row of it.  ParallelRC and Cole models and the parameters key
    by value; a TabulatedTwoPort keys by identity.  An f0 other than
    `config.fundamental` raises ValueError, source on or off.  A table
    whose range misses some plan frequency's images is evaluated alone,
    a one-row stack, not cached.  A disabled source returns (0.0, 0.0).

    Every load takes the image sum of `_image_dc` over n = 8k +/- 1 <= 255,
    its alternating tail past n = 127 taken by a fixed Euler transform.  It
    sees Z_sense, which leaves out a ParallelRC's r_interface: it lies
    outside the sense electrodes (see `tissue.ParallelRC`).  Tests hold
    the DC within 1e-13 of |I + jQ|:
    - on RC loads, of a 50-digit evaluation by partial fractions (100 ohm
      with 1e-26 F to tau * f0 = 1.4e5), and of a general matrix
      exponential on random loads, the load's pole within 1e-7 of the
      LNA's on some;
    - on Cole loads at alpha = 1, of the 50-digit DCs of their two RC
      parts;
    - on Cole loads with alpha < 1, of a 30-digit `mpmath.nsum` of the
      image series (about 4e-16 measured).
    On the builtin tables the kinks of the linear-in-log-f interpolation
    limit the transform: tests hold the DC within 1e-8 of |I + jQ| of the
    same transform taken to n <= 895, or to the end of the table at 2 MHz
    (9.1e-9 measured).  Plain truncation at n = 255 was 1e-5 off on all of
    these loads.  A capacitor too small to move a double of W reads as its
    resistor, and an LNA pole too high to move one reads as no pole.  A W
    whose modulus overflows a double at any image gives an infinite DC.

    Each row of a stack is bit for bit the value of that frequency alone.
    """
    if f0 != config.fundamental:
        raise ValueError(f"f0 {f0:g} does not match plan frequency {config.fundamental:g}")
    if not config.source_enable:
        return 0.0, 0.0
    try:
        dc = _plan_dc(model, config.gain_word, params)[config.freq_index]
    except tissue.TableRangeError:  # the table may still cover this f0's images
        dc = _image_dc(model, [f0], config, params)[0]
    return float(dc[0]), float(dc[1])

#: Plan tables kept per process: one per (load, gain word, chain) measured.
_PLAN_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan_dc(model, gain_word: str, params: ChainParams) -> np.ndarray:
    """(I, Q) mixer DC at every plan frequency, 11 x 2, read-only."""
    config = AfeConfig.from_gain_word(gain_word)
    dc = _image_dc(model, plan_frequencies(), config, params)
    dc.setflags(write=False)
    return dc


# ---------------------------------------------------------------------------
# Baseband stage: post-mixer DC steps -> settling output series
# ---------------------------------------------------------------------------

def _cheby1_poles(order: int, ripple_db: float, cutoff: float, fs: float) -> np.ndarray:
    """Poles of the digital Chebyshev type I low-pass.

    The analog prototype's poles -sinh(mu + j*theta) lie on an ellipse.
    They are scaled to the cutoff pre-warped on the Nyquist-normalized
    axis, 4 tan(pi * cutoff / fs), and taken through the bilinear map
    z = (4 + s) / (4 - s), which sends the N zeros at infinity to z = -1.
    These are the steps, and the pole order, of
    `scipy.signal.cheby1(..., output="zpk")`.
    """
    eps = math.sqrt(10 ** (0.1 * ripple_db) - 1.0)
    mu = 1.0 / order * math.asinh(1 / eps)
    p = -np.sinh(mu + 1j * (np.pi * np.arange(-order + 1, order, 2) / (2 * order)))
    p = 4.0 * math.tan(math.pi * (cutoff / (fs / 2)) / 2.0) * p
    return (4.0 + p) / (4.0 - p)


def _baseband_sections(params: ChainParams) -> np.ndarray:
    """The pole of each section of the TIA + Chebyshev cascade.

    A section is first order, a real pole q with its zero at -1, or second
    order, a pole pair p, p* with a double zero at -1; either is scaled to
    unity DC gain, so its pole defines it.  The TIA pole comes first, its
    bilinear map at k = 2 fs, (k - wp) / (k + wp); then the Chebyshev
    low-pass's upper-half-plane poles and, at odd order, its real one.
    """
    wp = 2 * np.pi * params.tia_pole
    k = 2 * params.output_rate
    order = int(params.lpf_order)  # a scenario's JSON may give 4.0
    p = _cheby1_poles(order, params.lpf_ripple_db, params.lpf_cutoff, params.output_rate)
    return np.concatenate([[(k - wp) / (k + wp)], p[: (order + 1) // 2]])


def _section_recursion(poles) -> tuple:
    """(a, c, x0) of the section cascade driven by a unit step: the state
    update, the output row and the initial state, all in deviation from
    the settled state, so that sample t of the step response is
    1 + c a^t x0.

    A real pole q keeps one state w, a pair keeps the real and imaginary
    parts of one complex state w, with w' = p w + (1 - p) v for section
    input v.  A pair's diagonal block is then the rotation-scaling
    [[Re p, -Im p], [Im p, Re p]], whose powers never grow, so a slow
    cascade runs long without the cancellation of a direct form.  The
    output y = D v + Re(kappa w) has D = (1 - q) / 2, kappa = (1 + q) / 2
    for a real pole and D = |1 - p|^2 / 4,
    kappa = (1 - p*) (1 + p)^2 / (4j Im p) for a pair.  At unity DC gain
    every section's input, output and Re w settle at 1, so the deviation
    starts at -1 in each Re w and runs free.
    """
    n = len(poles) + int(np.count_nonzero(np.imag(poles)))
    a, c, x0 = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    i = 0
    for p in poles:
        if p.imag:
            kappa = (1 - p.conjugate()) * (1 + p) ** 2 / (4j * p.imag)
            block, gain_in = [[p.real, -p.imag], [p.imag, p.real]], [1 - p.real, -p.imag]
            gain_out, direct = [kappa.real, -kappa.imag], abs(1 - p) ** 2 / 4
        else:
            q = p.real
            block, gain_in, gain_out, direct = [[q]], [1 - q], [(1 + q) / 2], (1 - q) / 2
        j = i + len(block)
        a[i:j] = np.outer(gain_in, c)  # driven by the output so far
        a[i:j, i:j] = block
        c *= direct
        c[i:j] = gain_out
        x0[i] = -1.0
        i = j
    return a, c, x0


#: Samples per block of a step response (see `_cascade_step_response`).
_STEP_BLOCK = 128


def _cascade_step_response(poles, n: int) -> np.ndarray:
    """Unit-step response of the section cascade at rest, n samples or a
    few more (whole blocks).

    The deviation from the settled value 1 runs free, x' = a x (see
    `_section_recursion`).  One block's output rows c a^j and its map
    a^block come from `_STEP_BLOCK` single steps of that recursion, the
    block-start states x0, a^block x0, ... from one product each, and
    every sample is its row times its block's start.  Each matrix product
    is an elementwise multiply summed by `np.add.reduce` over the few
    states, not BLAS.  A sample's arithmetic depends on its index alone,
    so a shorter response is a prefix of a longer one, bit for bit.
    """
    a, c, x0 = _section_recursion(poles)
    walk = np.vstack([c, np.eye(len(a))])  # [c; I] a^j
    rows = np.empty((_STEP_BLOCK, len(a)))
    for j in range(_STEP_BLOCK):
        rows[j] = walk[0]
        walk = np.add.reduce(walk[:, :, None] * a, axis=1)
    starts = np.empty((-(-n // _STEP_BLOCK), len(a)))
    x = x0
    for b in range(len(starts)):
        starts[b] = x
        x = np.add.reduce(walk[1:] * x, axis=1)
    deviation = np.zeros((len(starts), _STEP_BLOCK))
    for k in range(len(a)):  # a fixed order of summation, whatever n is
        deviation += np.outer(starts[:, k], rows[:, k])
    return 1.0 + deviation.ravel()


@functools.lru_cache(maxsize=8)
def _step_response(params: ChainParams, n: int) -> np.ndarray:
    """Unit-step response of the TIA + Chebyshev chain (unity DC gain), at
    least n samples, read-only."""
    s = _cascade_step_response(_baseband_sections(params), n)
    s.setflags(write=False)
    return s


def _render(steps, params: ChainParams, stride: int) -> np.ndarray:
    """Compressed, offset, noise-free output at every stride-th sample for
    (n, dc) steps at the output rate, the chain starting at rest.

    The chain is linear, so before compression its output is the
    superposition

        sum_k (dc_k - dc_{k-1}) * G * s[t - start_k]    (dc_{-1} = 0)

    of its unit-step response s, started at each step's first sample,
    with G = tia_gain * lpf_gain; each jump adds its copy from the first
    lattice sample on.  The settling transients (about 25 ms to 1% at the
    default 50 Hz cutoff) are those of the discretized filters: s is the
    step response of the bilinear TIA pole and the Chebyshev low-pass
    realized as first- and second-order sections, each at unity DC gain
    (`_section_recursion`), memoized per `params` and length.  Tests hold
    s within 1e-13 of its settled value of a 50-digit evaluation of the
    same design over 28 100 samples, for orders 1-6 at cutoffs down to
    5 Hz (about 1e-14 measured); the (b, a) polynomial form of a whole
    filter is 2e-12 off at the default chain and loses the filter at high
    order or low cutoff.  The levels may be arrays of one shape, a stack:
    the result then has one row per entry, each bit for bit that entry's
    steps rendered alone.  A row whose level holds still while another's
    jumps adds a zero, which moves no sample: the sum starts at +0.0 and
    an addition gives -0.0 only from two -0.0 terms.
    """
    total = sum(n for n, _ in steps)
    if total % stride:
        raise ValueError(f"{total} samples do not divide into stride {stride}")
    levels = np.array([dc for _, dc in steps], dtype=float)
    y = np.zeros(levels.shape[1:] + (total // stride,))
    start, level = 0, 0.0
    for (n, _), dc in zip(steps, levels):
        if np.logical_or.reduce(dc != level, axis=None):
            first = -(-start // stride)
            s = _step_response(params, total)
            y[..., first:] += np.multiply.outer(dc - level,
                                                s[first * stride - start : total - start : stride])
        start, level = start + n, dc
    with np.errstate(over="ignore"):  # an output past a double is past the rails too
        y = y * params.tia_gain * params.lpf_gain
    return apply_compression(y, params) + params.offset


#: Plan lattices kept per process.  A sweep, a calibration's reference
#: reads or a link session on one load reads one; an auto-gain sweep reads
#: one per gain word, four at most.
_LATTICE_CACHE_SIZE = 4

#: Most doubles a plan lattice may hold: 11 rows of up to 90 909 lattice
#: samples.  A default 32-tap reading's row is 114 samples (1254 doubles
#: for the plan).  A longer sequence, up to `cli.MAX_SEQUENCE_SAMPLES`
#: (10^6) samples at a lattice stride of 1, is rendered alone and not
#: kept, so the cache never holds more than 4 x 10^6 doubles (32 MB).
_LATTICE_ENTRY_DOUBLES = 1_000_000


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _plan_lattice(model, gain_word: str, params: ChainParams, phase_n: int,
                  stride: int) -> np.ndarray:
    """Noise-free I-then-Q lattice of the load at every plan frequency, one
    row per `_plan_dc` row, `phase_n` samples a phase, read-only."""
    dc = _plan_dc(model, gain_word, params)
    y = _render([(phase_n, dc[:, 0]), (phase_n, dc[:, 1])], params, stride)
    y.setflags(write=False)
    return y


def _sequence_lattice(model, config: AfeConfig, params: ChainParams, dc: tuple,
                      phase_n: int, stride: int) -> np.ndarray:
    """Noise-free lattice of one I-then-Q sequence, `phase_n` samples a
    phase, whose mixer DC is `dc` = mixer_dc_pair(model,
    config.fundamental, config, params).  A disabled source makes no step,
    so the lattice is the offset alone (compression keeps 0.0).  Where the
    plan's lattice fits `_LATTICE_ENTRY_DOUBLES`, it is the config's row
    of `_plan_lattice`, read-only; otherwise, or where the DC came alone
    (a table short of the plan's images), the sequence is rendered
    alone."""
    if not config.source_enable:
        return np.zeros(2 * phase_n // stride) + params.offset
    if N_PLAN * (2 * phase_n // stride) <= _LATTICE_ENTRY_DOUBLES:
        try:
            plan = _plan_lattice(model, config.gain_word, params, phase_n, stride)
            return plan[config.freq_index]
        except tissue.TableRangeError:  # as in mixer_dc_pair: the DC came alone
            pass
    return _render([(phase_n, dc[0]), (phase_n, dc[1])], params, stride)


def baseband_output(
    trajectories: list,
    params: ChainParams,
    f0s: list,
    g2s: list,
    seeds: list,
    stride: int,
) -> np.ndarray:
    """The chain's output at every `stride`-th sample of a stack of groups,
    one row per seed, groups in order: each group's noise-free lattice plus
    each of its seeds' noise.

    A group is one entry of each list: its lattice, the compressed, offset,
    noise-free output on the stride's lattice (rate output_rate / stride),
    as `_render` gives it for piecewise-constant mixer DC (a sequence takes
    its row of the load's plan lattice, `_sequence_lattice`); its carrier
    frequency f0 and gain bit g2, which set its carrier term; and its list
    of seeds.  Both noise terms are exact on the lattice: `noise_process`
    draws every row's 1/f noise from the one folded spectrum in one pass,
    and the carrier term is white per sample.  Only the noise depends on
    the seed: each seed's generator draws its 1/f normals and then, where
    its group's carrier term is not zero, its carrier normals, and each row
    is bit for bit the output of that seed alone.  The rows are a fresh
    array, so the caller always owns the samples.
    """
    m = trajectories[0].shape[-1]
    fs = params.output_rate
    rngs = [default_rng(s) for group in seeds for s in group]
    y = noise_process(params, rngs, m * stride / fs, fs, stride)
    stop = 0
    for lattice, f0, g2, group in zip(trajectories, f0s, g2s, seeds, strict=True):
        start, stop = stop, stop + len(group)
        rows = y[start:stop]
        rows += lattice
        sig = _carrier_noise_sigma(params, f0, g2)
        if sig:  # a group whose carrier term is 0 draws no carrier normals
            carrier = _normals(rngs[start:stop], m)
            carrier *= sig
            rows += carrier
    return y
