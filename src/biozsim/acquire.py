"""Digitization and measurement sequencing.

The microcontroller's 10-bit ADC digitizes one single-ended output pin;
the differential chain output rides half-swing on the 0.9 V common mode
(pin = 0.9 + v_diff/2), so the effective quantization step referred to the
differential value is two ADC steps (3.52 mV) and a reconstructed value is
within one ADC LSB (1.76 mV) of the true differential voltage.

A measurement sequence follows the fixed timing: enable the source with
the I reference, wait the settling time, take `taps` ADC samples at 1 ms
spacing and average; switch the reference to Q (never overlapping -- one
demodulator chain, time-multiplexed), settle, sample, average; disable the
source.  Filter states are carried across the whole sequence, so the I->Q
transition settles through the filters exactly as the turn-on does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import afe
from .waveforms import Phase, plan_frequencies


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


def adc_sample(v: float, spec: AdcSpec = AdcSpec()):
    """Round-to-nearest code, clamped at the rails (scalar or array)."""
    code = np.rint(np.asarray(v) / spec.lsb).astype(int)
    code = np.clip(code, 0, spec.codes - 1)
    return int(code) if np.ndim(v) == 0 else code


@dataclass(frozen=True)
class SequenceResult:
    """Averaged I/Q DC readings of one measurement sequence."""

    v_i_dc: float
    v_q_dc: float
    taps_used: int
    settle_time: float
    config: afe.AfeConfig
    saturated: bool = False


def _phase_taps(series, start_n: int, settle_n: int, spacing_n: int, taps: int,
                adc: AdcSpec):
    """Digitize `taps` samples of one select phase; return (mean_v, codes)."""
    idx = start_n + settle_n + spacing_n * np.arange(taps)
    pin = 0.9 + series.samples[idx] / 2.0
    codes = adc_sample(pin, adc)
    v = 2.0 * (codes * adc.lsb - 0.9)
    return float(np.mean(v)), codes


def run_sequence(
    model,
    f0: float,
    config: afe.AfeConfig,
    params: afe.ChainParams,
    taps: int = 32,
    seed=None,
    adc: AdcSpec = AdcSpec(),
    tap_spacing: float = 1e-3,
    include_interface: bool = False,
) -> SequenceResult:
    """Run the I-then-Q time-multiplexed sequence and average the taps.

    `f0` must be the plan frequency selected by config.freq_index.  The
    averaged result is exactly seed-invariant when the noise amplitudes
    are zero.  The saturated flag is set when at least 1% of the ADC taps
    clamp at a rail.
    """
    if taps < 1:
        raise ValueError("taps must be >= 1")
    plan_f = plan_frequencies()[config.freq_index]
    if abs(f0 - plan_f) > 1e-6 * plan_f:
        raise ValueError(
            f"f0 {f0:g} does not match plan frequency {plan_f:g} "
            f"of freq_index {config.freq_index}"
        )

    dc_i, dc_q = afe.mixer_dc_pair(model, f0, config, params, include_interface)

    fs = params.output_rate
    settle_n = int(round(params.settle_time * fs))
    spacing_n = int(round(tap_spacing * fs))
    if spacing_n < 1:
        raise ValueError("tap_spacing below the output sample period")
    phase_n = settle_n + spacing_n * taps
    series = afe.baseband_output(
        [(phase_n, dc_i), (phase_n, dc_q)], params, f0, config.g2, seed
    )

    v_i, codes_i = _phase_taps(series, 0, settle_n, spacing_n, taps, adc)
    v_q, codes_q = _phase_taps(series, phase_n, settle_n, spacing_n, taps, adc)

    codes = np.concatenate([codes_i, codes_q])
    clamped = np.count_nonzero((codes == 0) | (codes == adc.codes - 1))
    saturated = clamped >= max(1, int(np.ceil(0.01 * len(codes))))

    return SequenceResult(
        v_i_dc=v_i,
        v_q_dc=v_q,
        taps_used=taps,
        settle_time=params.settle_time,
        config=config,
        saturated=saturated,
    )
