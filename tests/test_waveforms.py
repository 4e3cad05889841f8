import numpy as np
import pytest

from biozsim.waveforms import plan_frequencies
from reference import (
    FUNDAMENTAL_GAIN,
    IqClock,
    Phase,
    SteppedSine,
    frequency_plan,
    harmonic_coefficients,
    stepped_sine_levels,
    synthesize,
    times,
)


class TestFrequencyPlan:
    def test_entries_exact(self):
        plan = frequency_plan()
        assert len(plan.divider_outputs) == 11
        for k in range(11):
            assert plan.divider_outputs[k] == 16e6 / 2**k  # dyadic, no rounding
            assert plan.sine_fundamentals[k] == plan.divider_outputs[k] / 8

    def test_endpoints(self):
        plan = frequency_plan()
        assert plan.sine_fundamentals[0] == 2e6
        assert plan.sine_fundamentals[10] == 1953.125
        assert plan.divider_outputs[5] == 500e3

    def test_ref_and_multiplier(self):
        plan = frequency_plan()
        assert plan.ref_clock * plan.pll_multiplier == plan.divider_outputs[0]

    def test_octave_spacing(self):
        f = plan_frequencies()
        assert all(a / b == 2.0 for a, b in zip(f, f[1:]))


class TestSteppedSineLevels:
    def test_zero_amplitude(self):
        assert np.all(stepped_sine_levels(0.0) == 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stepped_sine_levels(-0.1)

    def test_values_100mv(self):
        lv = stepped_sine_levels(0.1)
        assert lv[0] == pytest.approx(0.1 * np.sin(np.pi / 8), rel=1e-12)
        assert lv[0] == pytest.approx(0.03827, abs=5e-6)
        assert lv[1] == pytest.approx(lv[2], rel=1e-12)
        assert lv[1] == pytest.approx(0.09239, abs=5e-6)

    def test_odd_symmetry(self):
        lv = stepped_sine_levels(1.0)
        assert np.allclose(lv[:4], -lv[4:], atol=1e-15)


class TestSynthesize:
    def test_iq_clock_i_one_period(self):
        f0 = 1953.125
        s = synthesize(IqClock(f0, Phase.I), 128 * f0, 1 / f0)
        assert np.all(s.samples[:64] == 1.0)
        assert np.all(s.samples[64:] == -1.0)

    def test_iq_quadrature_exact(self):
        f0 = 15625.0
        rate = 128 * f0
        i = synthesize(IqClock(f0, Phase.I), rate, 4 / f0)
        q = synthesize(IqClock(f0, Phase.Q), rate, 4 / f0)
        t = times(i)
        ref = np.exp(-2j * np.pi * f0 * t)
        phase_i = np.angle(np.sum(i.samples * ref))
        phase_q = np.angle(np.sum(q.samples * ref))
        delta = np.degrees((phase_q - phase_i + np.pi) % (2 * np.pi) - np.pi)
        assert abs(abs(delta) - 90.0) < 1e-9

    def test_stepped_sine_zero_mean(self):
        f0 = 1953.125
        s = synthesize(SteppedSine(0.1, f0), 128 * f0, 1 / f0)
        assert abs(np.mean(s.samples)) < 1e-16

    def test_stepped_sine_lags_i_clock_22p5(self):
        for f0 in plan_frequencies():
            rate = 128 * f0
            dur = 2 / f0
            x = synthesize(SteppedSine(0.1, f0), rate, dur)
            c = synthesize(IqClock(f0, Phase.I), rate, dur)
            t = times(x)
            ref = np.exp(-2j * np.pi * f0 * t)
            lag = np.angle(np.sum(x.samples * ref)) - np.angle(np.sum(c.samples * ref))
            lag = np.degrees((lag + np.pi) % (2 * np.pi) - np.pi)
            assert lag == pytest.approx(-22.5, abs=0.01)

    def test_noncommensurate_rate_rejected(self):
        with pytest.raises(ValueError):
            synthesize(IqClock(1000.0), 100 * 1000.0, 1e-3)  # not a multiple of 8k

    def test_undersampled_rejected(self):
        with pytest.raises(ValueError):
            synthesize(IqClock(1000.0), 32 * 1000.0, 1e-2)

    def test_stepped_sine_odd_multiple_rejected(self):
        # 72x = 9 samples per step: edges of the half-step-lagged staircase
        # cannot land on samples
        with pytest.raises(ValueError):
            synthesize(SteppedSine(0.1, 1000.0), 72 * 1000.0, 1e-2)

    def test_harmonic_structure_fft(self):
        f0 = 62500.0
        rate = 512 * f0
        s = synthesize(SteppedSine(0.1, f0), rate, 1 / f0)
        spec = np.abs(np.fft.rfft(s.samples))
        fund = spec[1]
        # images only at 8k +/- 1
        for n in range(2, 32):
            if n % 8 in (1, 7):
                continue
            assert spec[n] < 1e-9 * fund
        db7 = 20 * np.log10(fund / spec[7])
        db9 = 20 * np.log10(fund / spec[9])
        # continuous-time ratios are exactly 1/7 (16.90 dB) and 1/9 (19.08 dB)
        assert 16.8 < db7 < 17.1
        assert 18.9 < db9 < 19.3


class TestHarmonicCoefficients:
    def test_odd_images_only(self):
        c = harmonic_coefficients(stepped_sine_levels(1.0), 12)
        assert np.all(np.abs(c[2:7]) < 1e-12)
        assert np.abs(c[8]) < 1e-12

    def test_image_amplitude_is_one_over_n(self):
        c = harmonic_coefficients(stepped_sine_levels(1.0), 63)
        assert abs(c[7]) / abs(c[1]) == pytest.approx(1 / 7, rel=1e-9)
        assert abs(c[9]) / abs(c[1]) == pytest.approx(1 / 9, rel=1e-9)

    def test_fundamental_hold_gain(self):
        c = harmonic_coefficients(stepped_sine_levels(0.1), 9)
        assert abs(c[1]) == pytest.approx(0.1 * FUNDAMENTAL_GAIN, rel=1e-12)
        assert abs(c[1]) == pytest.approx(0.097450, abs=5e-7)

    def test_n_max_validated(self):
        with pytest.raises(ValueError):
            harmonic_coefficients(stepped_sine_levels(1.0), 5)

    def test_reconstruction_matches_synthesis(self):
        # DFT coefficients of the sampled staircase are complete below the
        # Nyquist bin: n <= 63 reconstructs a 128-sample period exactly.
        f0 = 31250.0
        rate = 128 * f0
        spec = SteppedSine(0.1, f0)
        series = synthesize(spec, rate, 2 / f0)
        c = harmonic_coefficients(
            spec.levels, 63, samples_per_period=128, lag_radians=spec.lag_radians
        )
        t = times(series)
        recon = np.full(len(t), c[0].real)
        for n in range(1, 64):
            recon += np.real(c[n] * np.exp(2j * np.pi * n * f0 * t))
        rms_err = np.sqrt(np.mean((recon - series.samples) ** 2))
        rms_sig = np.sqrt(np.mean(series.samples**2))
        assert rms_err / rms_sig < 1e-9
