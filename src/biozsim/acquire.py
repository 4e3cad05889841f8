"""Digitization and measurement sequencing.

The microcontroller's 10-bit ADC digitizes one single-ended output pin
that carries the differential chain output; `pin_code` and `code_volts`
hold that pin rule.  A sequence reads each tap's volts and rail flag from
two tables with one entry per code, `code_volts` of every code and
whether the code is a rail, built once per process.

A measurement sequence follows the fixed timing: enable the source with
the I reference, wait the settling time, take `taps` ADC samples at 1 ms
spacing (`TAPS` by default) and average; switch the reference to Q (never
overlapping -- one demodulator chain, time-multiplexed), settle, sample,
average; disable the source.  Filter states are carried across the whole
sequence, so the I->Q transition settles through the filters exactly as
the turn-on does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import afe


@dataclass(frozen=True)
class AdcSpec:
    """Successive-approximation ADC: 10 bits over 0..1.8 V."""

    bits: int = 10
    full_scale: float = 1.8

    @property
    def lsb(self) -> float:
        return self.full_scale / 2**self.bits

    @property
    def codes(self) -> int:
        return 2**self.bits


#: The one ADC every sequence digitizes with.
ADC = AdcSpec()

#: ADC taps a select phase averages by default.
TAPS = 32


class MeasurementRangeError(ValueError):
    """The chain cannot represent a reading: its mixer DC is not finite."""


def adc_sample(v: float, spec: AdcSpec = ADC):
    """Round-to-nearest code, clamped at the rails (scalar or array).

    The clamp comes before the integer cast, so a voltage beyond any
    integer (inf included) reads as a rail code.  A finite float takes
    plain Python arithmetic: clamping before `round` (round-half-even, as
    `np.rint`) gives the same code and keeps a quotient that overflows to
    inf at a rail.  Every other input takes the numpy path: `np.rint`,
    then the clamp by the `np.maximum` and `np.minimum` ufuncs.  A NaN has
    no code: it raises ValueError.
    """
    if isinstance(v, float) and math.isfinite(v):
        return round(min(max(float(v) / spec.lsb, 0.0), spec.codes - 1))
    with np.errstate(over="ignore"):  # past a double is past the rails
        x = np.rint(np.asarray(v) / spec.lsb)
    if np.logical_or.reduce(np.isnan(x), axis=None):
        raise ValueError("ADC input is NaN")
    code = np.minimum(np.maximum(x, 0.0), spec.codes - 1).astype(int)
    return int(code) if np.ndim(v) == 0 else code


def pin_code(v):
    """The ADC code of differential output `v` (scalar or array): the pin
    carries it at half swing on the 0.9 V common mode, pin = 0.9 + v/2."""
    return adc_sample(0.9 + v / 2.0)


def code_volts(code):
    """The differential output a code reads back, the inverse of `pin_code`:
    a code step is two ADC LSBs of output (3.52 mV), so an output between
    the rails reads back within one LSB (1.76 mV)."""
    return 2.0 * (code * ADC.lsb - 0.9)


#: The volts each ADC code reads back, `code_volts` of every code.
_CODE_VOLTS = code_volts(np.arange(ADC.codes))
_CODE_VOLTS.setflags(write=False)

#: True at the two rail codes, 0 and the top code.
_AT_RAIL = np.isin(np.arange(ADC.codes), (0, ADC.codes - 1))
_AT_RAIL.setflags(write=False)


@dataclass(frozen=True)
class SequenceResult:
    """Averaged I/Q DC readings of one measurement sequence, or of a stack
    of groups: then `v_i_dc`, `v_q_dc` and `saturated` are arrays with one
    entry per row."""

    v_i_dc: float
    v_q_dc: float
    saturated: bool = False


def _phase_samples(params: afe.ChainParams, taps: int) -> tuple:
    """(settle_n, spacing_n, phase_n): output samples to settle, between
    taps, and in one select phase (settling plus the averaging window)."""
    fs = params.output_rate
    settle_n = int(round(params.settle_time * fs))
    spacing_n = int(round(afe.TAP_SPACING * fs))
    return settle_n, spacing_n, settle_n + spacing_n * taps


def sequence_duration(params: afe.ChainParams, taps: int) -> float:
    """Seconds one I-then-Q sequence occupies: two settle-plus-averaging
    windows (0.114 s at the default chain and `TAPS`)."""
    return 2 * _phase_samples(params, taps)[2] / params.output_rate


def run_sequence(
    model,
    f0: float,
    config: afe.AfeConfig,
    params: afe.ChainParams,
    taps: int,
    seed,
) -> SequenceResult:
    """Run the I-then-Q time-multiplexed sequence and average the taps.

    `f0` must be exactly `config.fundamental`, the plan frequency of
    config.freq_index: any other f0 raises ValueError (from
    `afe.mixer_dc_pair`), whether the source is on or off.  The averaged
    result is exactly seed-invariant when the noise amplitudes are zero.
    The saturated flag is set when at least 1% of the ADC taps clamp at a
    rail.  The taps are digitized by `pin_code`, and each code's volts
    (`code_volts`) and rail flag are read from a table of every code.  A
    mixer DC that is not finite (a load whose impedance overflows a
    double) raises MeasurementRangeError before anything is drawn or
    digitized.

    Two call shapes, told apart by `config`'s type.  One `afe.AfeConfig`,
    its f0 and one seed run one sequence, a group of one row: Python
    floats and a bool.  Any other `config` is a sequence of configurations
    (a list or a tuple), `f0` the sequence of their plan frequencies and
    `seed` one list of seeds per configuration: a stack of groups, one set
    of (configuration, seed) rows run as one pass, with any plan
    frequencies, gain words and source states, and any number of repeats
    in each group.  Each group's noise-free output is its row of the
    load's plan lattice (rendered once per process), and the groups go to
    `afe.baseband_output` as they are, each configuration setting its
    group's carrier term: every row's noise is drawn per seed and shaped
    in one pass (one folded spectrum serves every plan frequency), each
    group adds its lattice and its carrier term to its rows, and the rows
    are digitized and averaged as arrays.  One record comes back whose
    `v_i_dc`, `v_q_dc` and `saturated` are arrays with one entry per row,
    groups in order, each bit for bit the result of that row's seed at its
    configuration alone.  Repeats at one configuration are the one-group
    case.  A stack with other than one non-empty seed list per
    configuration raises ValueError.
    """
    if taps < 1:
        raise ValueError("taps must be >= 1")
    stack = not isinstance(config, afe.AfeConfig)
    configs, f0s, seeds = (config, f0, seed) if stack else ((config,), (f0,), ([seed],))
    counts = [len(s) for s in seeds]
    if len(counts) != len(configs) or 0 in counts:
        raise ValueError(f"each of {len(configs)} configurations takes a list of at least one "
                         f"seed; got {len(counts)} lists of {counts} seeds")
    dcs = []
    for f, c in zip(f0s, configs, strict=True):
        dc_i, dc_q = afe.mixer_dc_pair(model, f, c, params)
        if not (math.isfinite(dc_i) and math.isfinite(dc_q)):
            raise MeasurementRangeError(
                f"mixer DC is not finite at {f:g} Hz ({dc_i!r}, {dc_q!r}): "
                "the load's impedance overflows the chain")
        dcs.append((dc_i, dc_q))

    settle_n, spacing_n, phase_n = _phase_samples(params, taps)
    # every tap index and the series length are multiples of g: render
    # only that lattice of output samples
    g = math.gcd(settle_n, spacing_n)
    lattices = [afe._sequence_lattice(model, c, params, dc, phase_n, g)
                for c, dc in zip(configs, dcs)]
    y = afe.baseband_output(lattices, params, configs, seeds, stride=g)

    # (row, I or Q, tap): each select phase is half of a row
    first, step = settle_n // g, spacing_n // g
    tapped = y.reshape(len(y), 2, phase_n // g)[:, :, first : first + step * taps : step]
    codes = pin_code(tapped)
    # the tables index into C-ordered arrays, so each phase's taps sum in
    # the order of a 1-D mean
    means = np.add.reduce(_CODE_VOLTS[codes], axis=2) / taps
    clamped = np.add.reduce(_AT_RAIL[codes], axis=(1, 2))
    saturated = clamped >= max(1, math.ceil(0.01 * (2 * taps)))

    if stack:
        return SequenceResult(means[:, 0], means[:, 1], saturated)
    v_i, v_q = means[0].tolist()
    return SequenceResult(v_i, v_q, bool(saturated[0]))
