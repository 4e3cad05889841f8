"""Excitation and reference-clock synthesis for the stepped-sine front end.

The current source is an 8-step zero-order-hold approximation of a sine.
Per period the eight hold levels are ideal sine samples taken at the step
centers,

    level[k] = A * sin(2*pi*(k + 0.5)/8),   k = 0..7

which gives only two distinct magnitudes (0.383*A and 0.924*A) and cancels
every harmonic except the hold images at n = 8k +/- 1.  Relative to the
fundamental those images carry amplitude exactly 1/n: the 7th sits 16.9 dB
down and the 9th 19.1 dB down.  The fundamental itself is sinc(1/8) =
0.97450 of the nominal amplitude.

The in-phase and quadrature references are 50%-duty square clocks at the
fundamental, in exact quadrature with each other.  The stepped sine is
rendered lagging the references by pi/8 rad (half a step): the divider that
clocks the synthesis state machine updates the hold DAC half a tick after
the reference edges.  That lag rotates the demodulated constellation by
-22.5 deg, which the calibration layer removes by derotation.

Everything here is exact/closed-form; no randomness is involved, and all
functions are pure (safe for concurrent use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

REF_CLOCK_HZ = 500e3
PLL_MULTIPLIER = 32
N_STEPS = 8
N_PLAN = 11

#: Phase lag of the stepped sine relative to the I/Q clocks, in radians.
SOURCE_LAG = np.pi / 8

#: Zero-order-hold gain of the fundamental: sin(pi/8) / (pi/8).
FUNDAMENTAL_GAIN = float(np.sin(np.pi / 8) / (np.pi / 8))

#: Minimum oversampling relative to the fundamental (keeps the 9th image
#: at least 3.5x below Nyquist).
MIN_OVERSAMPLING = 64


class Phase(str, Enum):
    """Reference clock selection."""

    I = "I"
    Q = "Q"


@dataclass(frozen=True)
class FrequencyPlan:
    """The fixed 11-point measurement frequency plan.

    A 500 kHz reference is multiplied by 32 to 16 MHz; ten divide-by-two
    stages provide 16 MHz down to 15.625 kHz, and the 8-step synthesis
    divides each by a further 8, spanning 2 MHz down to 1.953125 kHz in
    exact octaves.  Every entry is a dyadic rational and therefore exactly
    representable in binary floating point.
    """

    ref_clock: float = REF_CLOCK_HZ
    pll_multiplier: int = PLL_MULTIPLIER
    divider_outputs: tuple = field(
        default_factory=lambda: tuple(16e6 / 2**k for k in range(N_PLAN))
    )
    sine_fundamentals: tuple = field(
        default_factory=lambda: tuple(16e6 / 2**k / N_STEPS for k in range(N_PLAN))
    )


_PLAN = FrequencyPlan()


def frequency_plan() -> FrequencyPlan:
    """Return the fixed 11-entry frequency plan."""
    return _PLAN


def plan_frequencies() -> tuple:
    """Shorthand for the 11 sine fundamentals, 2 MHz first."""
    return _PLAN.sine_fundamentals


def stepped_sine_levels(amplitude: float) -> np.ndarray:
    """Eight zero-order-hold levels of one period of the stepped sine.

    level[k] = amplitude * sin(2*pi*(k + 0.5)/8).  The half-step sample
    offset is what makes the rendered staircase lag the reference clocks
    by pi/8 once the hold grid is shifted half a step (see `synthesize`).

    Zero amplitude is allowed (all-zero levels, the source-disabled case);
    negative amplitude is rejected.
    """
    if amplitude < 0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    return amplitude * np.sin(2 * np.pi * (np.arange(N_STEPS) + 0.5) / N_STEPS)


@dataclass(frozen=True)
class SteppedSine:
    """Differential stepped-sine excitation.

    `amplitude` is the nominal sine amplitude scaling the hold levels
    (differential peak of the underlying sine, 100 mV nominal for the
    voltage ladder).  The rendered samples are the differential signal,
    whose one-period mean is exactly zero by odd symmetry.
    """

    amplitude: float = 0.1
    fundamental: float = 1953.125
    lag_radians: float = SOURCE_LAG

    @property
    def levels(self) -> np.ndarray:
        return stepped_sine_levels(self.amplitude)


@dataclass(frozen=True)
class IqClock:
    """50%-duty reference clock at the fundamental.

    The I clock renders as sign(sin(2*pi*f*t)) and the Q clock as its
    exact quadrature partner sign(cos(2*pi*f*t)); the stepped sine lags
    the pair by pi/8.
    """

    fundamental: float
    phase: Phase = Phase.I


@dataclass(frozen=True)
class SampleSeries:
    """Uniformly sampled real-valued signal."""

    sample_rate: float
    samples: np.ndarray

    def __len__(self):
        return len(self.samples)

    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.sample_rate


def _samples_per_step(fundamental: float, sample_rate: float) -> int:
    """Validate commensurability and return integer samples per hold step."""
    if fundamental <= 0:
        raise ValueError("fundamental must be positive")
    m = sample_rate / (N_STEPS * fundamental)
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValueError(
            f"sample_rate {sample_rate} is not an integer multiple of "
            f"8 x fundamental ({N_STEPS * fundamental}); step edges would "
            "fall between samples and corrupt oracle comparisons"
        )
    if sample_rate < MIN_OVERSAMPLING * fundamental:
        raise ValueError(
            f"sample_rate {sample_rate} below minimum oversampling "
            f"{MIN_OVERSAMPLING} x fundamental"
        )
    return int(round(m))


def synthesize(spec, sample_rate: float, duration: float) -> SampleSeries:
    """Render a periodic zero-order-hold waveform.

    SteppedSine renders as the 8-level staircase delayed by its lag
    (pi/8 = half a step by default), IqClock as +/-1.  The sample rate
    must be an integer multiple of 8 x fundamental; for the lagged
    stepped sine it must additionally be a multiple of 16 x fundamental
    so the shifted step edges still land on samples.
    """
    n = int(round(sample_rate * duration))
    if n < 1:
        raise ValueError("duration too short for one sample")
    i = np.arange(n)

    if isinstance(spec, SteppedSine):
        m = _samples_per_step(spec.fundamental, sample_rate)
        lag_steps = spec.lag_radians / (2 * np.pi / N_STEPS)
        shift = lag_steps * m
        if abs(shift - round(shift)) > 1e-9:
            raise ValueError(
                "sample_rate cannot place the lagged step edges on samples; "
                f"use a multiple of {2 * N_STEPS} x fundamental"
            )
        idx = ((i - int(round(shift))) // m) % N_STEPS
        return SampleSeries(sample_rate, spec.levels[idx])

    if isinstance(spec, IqClock):
        m = _samples_per_step(spec.fundamental, sample_rate)
        per = N_STEPS * m
        pos = i % per
        if spec.phase == Phase.I:
            samples = np.where(pos < per // 2, 1.0, -1.0)
        else:
            samples = np.where((pos < per // 4) | (pos >= 3 * per // 4), 1.0, -1.0)
        return SampleSeries(sample_rate, samples)

    raise TypeError(f"cannot synthesize {type(spec).__name__}")


def harmonic_coefficients(
    levels,
    n_max: int,
    samples_per_period: int | None = None,
    lag_radians: float = 0.0,
) -> np.ndarray:
    """One-sided complex harmonic amplitudes of the held staircase.

    Returns an array c of length n_max + 1 such that the waveform is
    c[0] + sum_n Re{c[n] * exp(j*2*pi*n*f0*t)}.  With the continuous-time
    hold (samples_per_period=None) the closed form is

        c[n] = (sinc(n/8)/4) * sum_k level[k] * exp(-j*2*pi*n*(k+0.5)/8)

    which for ideal levels is nonzero only at n = 8k +/- 1 with magnitude
    amplitude * sinc(1/8) / n.  With samples_per_period = M the exact DFT
    coefficients of one rendered period are returned instead; those are
    complete below the Nyquist bin, so a 10^-9-exact reconstruction of the
    sampled staircase needs only n_max >= M/2 - 1.
    """
    if n_max < 9:
        raise ValueError("n_max must be at least 9 (first image pair)")
    levels = np.asarray(levels, dtype=float)
    if levels.shape != (N_STEPS,):
        raise ValueError(f"expected {N_STEPS} levels, got shape {levels.shape}")

    n = np.arange(n_max + 1)
    if samples_per_period is None:
        k = np.arange(N_STEPS)
        dft = np.sum(
            levels[None, :] * np.exp(-2j * np.pi * np.outer(n, k + 0.5) / N_STEPS),
            axis=1,
        )
        env = np.sinc(n / N_STEPS)  # numpy sinc: sin(pi x)/(pi x)
        coeffs = dft * env * (2.0 / N_STEPS)  # one-sided amplitudes, 2 * c_n
        coeffs[0] = levels.mean()
    else:
        if samples_per_period % (2 * N_STEPS) and lag_radians:
            raise ValueError("samples_per_period must be a multiple of 16 for a lagged render")
        m = samples_per_period // N_STEPS
        if m * N_STEPS != samples_per_period:
            raise ValueError("samples_per_period must be a multiple of 8")
        period = levels[(np.arange(samples_per_period) // m) % N_STEPS]
        bins = np.fft.rfft(period) / samples_per_period
        if n_max >= len(bins):
            raise ValueError("n_max exceeds the Nyquist bin of the rendered period")
        coeffs = 2.0 * bins[: n_max + 1]
        coeffs[0] = bins[0].real

    if lag_radians:
        coeffs = coeffs * np.exp(-1j * n * lag_radians)
        coeffs[0] = coeffs[0].real
    return coeffs
