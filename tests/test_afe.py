import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as sps

from biozsim import acquire, afe, tissue
from biozsim.afe import (
    AfeConfig,
    ChainParams,
    apply_compression,
    baseband_output,
    mixer_dc_pair,
    noise_process,
)
from biozsim.tissue import ColeModel, ParallelRC, builtin_model
from biozsim.waveforms import plan_frequencies
from reference import (
    FUNDAMENTAL_GAIN,
    HALF_PERIOD_GATES,
    HALF_PERIOD_LEVELS,
    IqClock,
    Phase,
    SteppedSine,
    analytic_dc_oracle,
    cascade_step_reference,
    euler_image_dc,
    exact_mixer_dc,
    expm_mixer_dc,
    folded_root_spectrum,
    nsum_mixer_dc,
    sampled_mixer_dc,
    synthesize,
)

QUIET = ChainParams(noise_floor=0.0, carrier_noise_v=0.0)
BARE = ChainParams(noise_floor=0.0, carrier_noise_v=0.0, compression_knee=None, offset=0.0)


def drive(steps, params, seeds, stride=1):
    """The chain driven by (n, dc) steps at the 1953.125 Hz carrier and the
    high gain, one row per seed: the steps rendered alone plus the noise."""
    return baseband_output([afe._render(steps, params, stride)], params, [AfeConfig()], [seeds],
                           stride=stride)


def image_dc(model, f0, config, params):
    """The mixer DC's (I, Q) at one frequency: a one-row stack, uncached."""
    return tuple(afe._image_dc(model, [f0], config, params)[0].tolist())


def settled_dc(model, f0, config, params):
    """Pre-ADC settled output I DC from the engine's mixer DC."""
    dc, _ = mixer_dc_pair(model, f0, config, params)
    v = apply_compression(dc * params.tia_gain * params.lpf_gain, params)
    return v + params.offset


def euler_tail_weight(bins):
    """Weight of each bin in Euler's transform of the image tail: 1 up to
    the 127th, then, for the i-th image pair past it, the share
    sum_{j >= i} C(16, j) / 2^16 of the binomial weights on the 17 partial
    sums that end at 127, 135, ..., 255."""
    pair = np.maximum((np.asarray(bins) - 121) // 8, 0)
    return np.array([sum(math.comb(16, j) for j in range(i, 17)) / 2.0**16 for i in pair])


def spectral_reference(model, f0, config, params, euler=False):
    """Post-mixer DC (I, Q) by FFT of a rendered period: an independent check
    of the image sum.  Bins up to the 255th are scaled by the sense impedance,
    the zero-order-hold sinc and the continuous LNA response (and with
    `euler`, by `euler_tail_weight`), then mixed sample-wise with the
    rendered clocks at 4096 samples per period."""
    rate = 4096 * f0
    x = synthesize(SteppedSine(config.current_amplitude / FUNDAMENTAL_GAIN, f0), rate, 1 / f0)
    spec = np.fft.rfft(x.samples)
    freqs = np.fft.rfftfreq(len(x), 1 / rate)
    bins = np.arange(len(spec))
    live = (bins > 0) & (bins <= 255)
    h = np.zeros(len(spec), dtype=complex)
    h[live] = (tissue._sense_z(model, freqs[live]) * np.sinc(freqs[live] / rate)
               * afe._lna_response(params, freqs[live]))
    if euler:
        h[live] *= euler_tail_weight(bins[live])
    v = config.gm * np.fft.irfft(spec * h, n=len(x))
    return tuple(float(np.mean(v * synthesize(IqClock(f0, ph), rate, 1 / f0).samples))
                 for ph in (Phase.I, Phase.Q))


class TestAfeConfig:
    def test_current_levels(self):
        # nominal 10 / 3.33 / 1.11 uA (exact ratios 1 : 1/3 : 1/9)
        assert AfeConfig(g0=1, g1=1).current_amplitude == pytest.approx(10e-6)
        assert AfeConfig(g0=1, g1=0).current_amplitude == pytest.approx(3.33e-6, rel=2e-3)
        assert AfeConfig(g0=0, g1=0).current_amplitude == pytest.approx(1.11e-6, rel=2e-3)

    def test_gm_select(self):
        assert AfeConfig(g2=1).gm == pytest.approx(20e-6)
        assert AfeConfig(g2=0).gm == pytest.approx(6.67e-6, rel=1e-3)

    def test_gain_word_round_trip(self):
        for word in ("000", "001", "101", "111", "010"):
            assert AfeConfig.from_gain_word(word).gain_word == word

    def test_validation(self):
        with pytest.raises(ValueError):
            AfeConfig(g0=2)
        with pytest.raises(ValueError):
            AfeConfig(freq_index=11)
        with pytest.raises(ValueError):
            AfeConfig.from_gain_word("11")

    def test_total_gain(self):
        p = ChainParams()
        assert p.total_gain(1) == pytest.approx(700.0)
        assert p.total_gain(0) == pytest.approx(700.0 / 3)


class TestChainParams:
    @pytest.mark.parametrize("field,value", [
        ("lpf_order", 2.5), ("lpf_order", 0),
        ("output_rate", 0.0), ("output_rate", -50e3),
        ("lpf_cutoff", 30000.0), ("lpf_cutoff", 0.0),
        ("tia_pole", -10.0), ("tia_pole", 0.0),
        ("compression_knee", 0.0), ("compression_knee", -1.0),
        ("lna_pole", 0.0), ("lna_pole", -1e6),
        ("tia_gain", 0.0), ("lpf_gain", 0.0), ("lpf_ripple_db", 0.0),
        ("settle_time", -0.01), ("settle_time", float("inf")),
        ("noise_floor", -1.0), ("flicker_corner", -100.0),
        ("carrier_noise_v", -0.036), ("carrier_flicker_corner", -2000.0),
        ("offset", float("nan")),
        # past what the engine can run
        ("lpf_order", 7), ("lpf_order", 10**6),
        ("lpf_ripple_db", 4.8e-16), ("lpf_ripple_db", 3083.0),
        ("noise_floor", 1.4e154), ("carrier_noise_v", 1.1e6), ("offset", -1.1e6),
        ("compression_knee", 1.1e6), ("tia_pole", 2.9e307), ("tia_pole", 1.1e12),
        ("lna_pole", 1e-300), ("lpf_cutoff", 5e-324), ("flicker_corner", 1.1e12),
        ("carrier_flicker_corner", 1.1e12), ("output_rate", 1.1e12),
        ("tia_gain", 1e-300), ("tia_gain", 1e-200), ("lpf_gain", 1e-250), ("lpf_gain", 1e308),
        ("output_rate", 150.0), ("output_rate", 1400.0), ("settle_time", 1e305),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChainParams(**{field: value})

    def test_accepts_boundaries(self):
        ChainParams(lpf_order=2.0, lpf_cutoff=24999.0, settle_time=0.0, noise_floor=0.0,
                    lna_pole=None, compression_knee=None, offset=-0.5)
        ChainParams(lpf_order=afe.MAX_LPF_ORDER, lpf_ripple_db=afe.RIPPLE_DB[1],
                    noise_floor=afe.MAX_VOLTS, carrier_noise_v=afe.MAX_VOLTS,
                    offset=-afe.MAX_VOLTS, compression_knee=afe.MAX_VOLTS, lna_pole=1e-6,
                    tia_pole=1e12, flicker_corner=1e12, carrier_flicker_corner=1e12)
        ChainParams(lpf_ripple_db=afe.RIPPLE_DB[0], lpf_cutoff=1e-6, tia_pole=1e-6,
                    output_rate=1e12, lna_pole=1.7e308)
        for g2 in (0, 1):
            assert ChainParams(tia_gain=2e-135, lpf_gain=1.0).total_gain(g2) >= afe.MIN_TOTAL_GAIN


class TestOracle:
    def test_fundamental_only_matches_quadrature_formula(self):
        # single-harmonic case: G * (2/pi) * |I| * R * cos/sin(22.5 deg)
        r = 100.0
        model = ParallelRC(r=r, c=0.0)
        p = ChainParams(lna_pole=None, noise_floor=0.0, carrier_noise_v=0.0,
                        compression_knee=None, offset=0.0)
        cfg = AfeConfig(freq_index=10)
        base = 700.0 * (2 / np.pi) * 10e-6 * r
        assert analytic_dc_oracle(model, 1953.125, cfg, p, n_max=1) == pytest.approx(
            base * np.cos(np.pi / 8), rel=1e-12
        )
        # Q reads negative for a resistor: the source lags the references,
        # so derotation by +pi/8 restores zero phase
        assert analytic_dc_oracle(model, 1953.125, cfg, p, n_max=1, phase=Phase.Q) == pytest.approx(
            -base * np.sin(np.pi / 8), rel=1e-12
        )

    def test_source_disabled_returns_offset(self):
        model = ParallelRC(r=100.0, c=0.0)
        cfg = AfeConfig(freq_index=10, source_enable=0)
        assert analytic_dc_oracle(model, 1953.125, cfg, QUIET) == QUIET.offset

    def test_image_products_flat_resistor(self):
        # the 7th/9th image pair lands on DC with the opposite sign of the
        # fundamental product; the exact hold math gives a 3.3% step from
        # n_max=1 to n_max=9 (the first-order estimate of "~1% per product"
        # underestimates: the two products add)
        model = ParallelRC(r=100.0, c=0.0)
        p = ChainParams(lna_pole=None, noise_floor=0.0, carrier_noise_v=0.0,
                        compression_knee=None, offset=0.0)
        cfg = AfeConfig(freq_index=10)
        d1 = analytic_dc_oracle(model, 1953.125, cfg, p, n_max=1)
        d9 = analytic_dc_oracle(model, 1953.125, cfg, p, n_max=9)
        rel = abs(d9 - d1) / abs(d9)
        assert 0.030 < rel < 0.037

    def test_image_products_low_pass_load_below_1pct(self):
        # a tissue-like load with its corner at the fundamental attenuates
        # the images before mixing
        f0 = 15625.0
        model = ParallelRC(r=1e3, c=1 / (2 * np.pi * 1e3 * f0))
        p = ChainParams(lna_pole=None, noise_floor=0.0, carrier_noise_v=0.0,
                        compression_knee=None, offset=0.0)
        cfg = AfeConfig(freq_index=7)
        d1 = analytic_dc_oracle(model, f0, cfg, p, n_max=1)
        d9 = analytic_dc_oracle(model, f0, cfg, p, n_max=9)
        assert abs(d9 - d1) / abs(d9) < 0.01

    def test_n_max_convergence(self):
        model = ParallelRC(r=100.0, c=0.0)
        cfg = AfeConfig(freq_index=10)
        d63 = analytic_dc_oracle(model, 1953.125, cfg, BARE, n_max=63)
        d501 = analytic_dc_oracle(model, 1953.125, cfg, BARE, n_max=501)
        assert abs(d501 - d63) / abs(d501) < 5e-4


class TestOracleEquivalence:
    """The engine's image sum against the plain truncated oracle and an FFT
    of a rendered period."""

    MODELS = {
        "r100": ParallelRC(r=100.0, c=0.0),
        "rc_builtin": ParallelRC(r=1e3, c=0.1e-6),
        "rc_interface": ParallelRC(r=330.0, c=10e-9, r_interface=25.0),
        "blood": builtin_model("blood"),
        "saline": builtin_model("saline"),
        "muscle": builtin_model("muscle_transversal"),
        "cole": ColeModel(r_inf=50.0, r0=500.0, tau=1e-5, alpha=0.8),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_time_domain_matches_oracle(self, name):
        model = self.MODELS[name]
        g_post = BARE.tia_gain * BARE.lpf_gain
        for idx in range(11):
            f0 = plan_frequencies()[idx]
            for word in ("111", "101", "001", "000"):
                cfg = AfeConfig.from_gain_word(word, freq_index=idx)
                oi = analytic_dc_oracle(model, f0, cfg, BARE)
                oq = analytic_dc_oracle(model, f0, cfg, BARE, phase=Phase.Q)
                di, dq = mixer_dc_pair(model, f0, cfg, BARE)
                z_td = complex(di * g_post, dq * g_post)
                z_or = complex(oi, oq)
                assert abs(z_td - z_or) / abs(z_or) < 5e-3

    @pytest.mark.parametrize("chain", ["default", "ideal"])
    @pytest.mark.parametrize("name", ["blood", "cole", "muscle", "saline"])
    def test_spectral_route_matches_255_image_oracle(self, name, chain):
        # the FFT reference keeps the bins up to the 255th image: weighted
        # by Euler's tail it is the engine, unweighted the plain oracle
        model = self.MODELS[name]
        params = ChainParams() if chain == "default" else ChainParams().ideal()
        g_post = params.tia_gain * params.lpf_gain
        for idx, f0 in enumerate(plan_frequencies()):
            got = mixer_dc_pair(model, f0, AfeConfig(freq_index=idx), params)
            euler = spectral_reference(model, f0, AfeConfig(freq_index=idx), params, euler=True)
            want = spectral_reference(model, f0, AfeConfig(freq_index=idx), params)
            for dc, ref in zip(got, euler):
                assert abs(dc - ref) <= 1e-6 * abs(ref)
            for ref, phase in zip(want, (Phase.I, Phase.Q)):
                oracle = analytic_dc_oracle(model, f0, AfeConfig(freq_index=idx), params,
                                            n_max=255, phase=phase) - params.offset
                assert abs(oracle - ref * g_post) <= 1e-6 * abs(ref * g_post)

    def test_all_eight_gain_words(self):
        model = ParallelRC(r=100.0, c=0.0)
        g = lambda w: BARE.total_gain(int(w[2]))
        for word in (f"{a}{b}{c}" for a in "01" for b in "01" for c in "01"):
            cfg = AfeConfig.from_gain_word(word, freq_index=5)
            oi = analytic_dc_oracle(model, 62500.0, cfg, BARE)
            di, _ = mixer_dc_pair(model, 62500.0, cfg, BARE)
            assert di * BARE.tia_gain * BARE.lpf_gain == pytest.approx(oi, rel=2e-3)

    def test_quadrature_rotation_is_22p5(self):
        # raw constellation of a resistor sits at -22.5 deg (the source lags
        # the references); magnitude of the rotation is the invariant
        model = ParallelRC(r=100.0, c=0.0)
        p = ChainParams(lna_pole=None, noise_floor=0.0, carrier_noise_v=0.0,
                        compression_knee=None, offset=0.0)
        for idx in (0, 5, 10):
            cfg = AfeConfig(freq_index=idx)
            di, dq = mixer_dc_pair(model, plan_frequencies()[idx], cfg, p)
            angle = np.degrees(np.arctan2(dq, di))
            assert abs(angle) == pytest.approx(22.5, abs=0.1)

    def test_linearity_doubling(self):
        # below the knee, doubling |Z| doubles the DC output within 0.2%
        # (compression at its default setting)
        cfg = AfeConfig(freq_index=10)
        v100 = settled_dc(ParallelRC(r=100.0, c=0.0), 1953.125, cfg, QUIET)
        v200 = settled_dc(ParallelRC(r=200.0, c=0.0), 1953.125, cfg, QUIET)
        off = QUIET.offset
        assert (v200 - off) / (v100 - off) == pytest.approx(2.0, rel=2e-3)


class TestRationalSegments:
    """RC loads against the 256-sample render, and the half-period segments
    of `expm_mixer_dc` against the render."""

    #: The reference's own rounding grows with tau * f0 (its 256-step
    #: full-period steady-state recursion); these loads keep tau * f0 <= 200.
    LOADS = [
        ParallelRC(r=100.0, c=0.0),
        ParallelRC(r=150.0, c=0.0, r_interface=50.0),
        ParallelRC(r=330.0, c=10e-9, r_interface=25.0),
        ParallelRC(r=1e3, c=0.1e-6),
        ParallelRC(r=2000.0, c=2e-10, r_interface=50.0),
    ]

    @pytest.mark.parametrize("f0", plan_frequencies())
    def test_segments_repeat_to_the_256_sample_render(self, f0):
        # the rendered period holds still over each sixteenth: the first 8
        # are the reference's segments, the last 8 their negatives (to the few
        # ulps by which the rounded sin of the larger angle misses them)
        segments = np.array([HALF_PERIOD_LEVELS, *HALF_PERIOD_GATES])
        segments[0] *= 1e-5
        specs = (SteppedSine(1e-5, f0), IqClock(f0, Phase.I), IqClock(f0, Phase.Q))
        for seg, spec in zip(segments, specs):
            assert len(seg) == 8
            period = synthesize(spec, 256 * f0, 1 / f0).samples.reshape(16, 16)
            np.testing.assert_array_equal(period, period[:, :1].repeat(16, axis=1))
            np.testing.assert_array_equal(period[:8, 0], seg)
            np.testing.assert_allclose(period[8:, 0], -seg, rtol=2e-15, atol=0)

    @pytest.mark.parametrize("chain", ["default", "ideal"])
    def test_matches_256_sample_reference(self, chain):
        params = ChainParams() if chain == "default" else ChainParams().ideal()
        for model in self.LOADS:
            for idx, f0 in enumerate(plan_frequencies()):
                config = AfeConfig(freq_index=idx)
                got = mixer_dc_pair(model, f0, config, params)
                want = sampled_mixer_dc(model, f0, config, params)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-10 * abs(w)


class TestExactReference:
    """The mixer DC against 50-digit evaluations on RC and Cole alpha = 1
    loads, a 30-digit sum of the series on Cole alpha < 1 loads, and the
    transform taken further on tables."""

    MODELS = [
        ParallelRC(r=100.0, c=0.0),
        ParallelRC(r=150.0, c=0.0, r_interface=50.0),
        ParallelRC(r=330.0, c=10e-9, r_interface=25.0),
        ParallelRC(r=1e3, c=0.1e-6),
        ParallelRC(r=2000.0, c=2e-10, r_interface=50.0),
        ParallelRC(r=1e4, c=1e-6),  # tau * f0 = 2e4 at 2 MHz
        ParallelRC(r=9746.0, c=7.34e-6, r_interface=30.0),  # tau * f0 = 1.4e5 at 2 MHz
        ParallelRC(r=100.0, c=1e-20),
        ParallelRC(r=100.0, c=1e-26),
        ParallelRC(r=1.0, c=2.78e-177),
    ]

    @pytest.mark.parametrize("interface", [False, True])
    @pytest.mark.parametrize("chain", ["default", "ideal"])
    @pytest.mark.parametrize("load", range(len(MODELS)))
    def test_within_1e_11_of_mpmath(self, load, chain, interface):
        # with `interface`, the load gains 1 kohm on the injection side,
        # outside the sense electrodes: the route must still read r || c
        model = self.MODELS[load]
        tested = replace(model, r_interface=model.r_interface + 1e3) if interface else model
        params = ChainParams() if chain == "default" else ChainParams().ideal()
        for idx, f0 in enumerate(plan_frequencies()):
            config = AfeConfig(freq_index=idx)
            got = image_dc(tested, f0, config, params)
            want = exact_mixer_dc(model, f0, config, params)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * abs(complex(*want))

    @pytest.mark.parametrize("chain", ["default", "ideal"])
    @pytest.mark.parametrize("c", [1e-30, 1e-60, 2.78e-177, 5e-324])
    def test_stiff_capacitor_reads_as_the_resistor(self, c, chain):
        params = ChainParams() if chain == "default" else ChainParams().ideal()
        for idx, f0 in enumerate(plan_frequencies()):
            config = AfeConfig(freq_index=idx)
            got = image_dc(ParallelRC(r=100.0, c=c), f0, config, params)
            want = image_dc(ParallelRC(r=100.0), f0, config, params)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(complex(*want))

    @pytest.mark.parametrize("c", [0.0, 1e-210])
    def test_huge_resistance_scales_the_dc(self, c):
        params = ChainParams()
        for idx, f0 in enumerate(plan_frequencies()):
            config = AfeConfig(freq_index=idx)
            got = image_dc(ParallelRC(r=1e200, c=c), f0, config, params)
            want = image_dc(ParallelRC(r=100.0, c=c * 1e198), f0, config, params)
            assert all(np.isfinite(got))
            for g, w in zip(got, want):
                assert abs(g - 1e198 * w) <= 1e-12 * abs(1e198 * complex(*want))

    def test_negligible_lna_pole_is_dropped(self):
        # a pole this far above f0 cannot move a double of W
        model = ParallelRC(r=330.0, c=10e-9)
        for pole in (1e300, 1.7e308):
            params = ChainParams(lna_pole=pole)
            for idx, f0 in enumerate(plan_frequencies()):
                config = AfeConfig(freq_index=idx)
                assert image_dc(model, f0, config, params) == image_dc(
                    model, f0, config, ChainParams(lna_pole=None))

    #: Cole loads at alpha = 1: the builtins' fits, one whose corner sits on
    #: a plan frequency, and a narrow one.
    COLES = [*(replace(c, alpha=1.0) for c in tissue._BUILTIN_COLE.values()),
             ColeModel(r_inf=50.0, r0=500.0, tau=1 / (2 * np.pi * plan_frequencies()[6])),
             ColeModel(r_inf=90.0, r0=100.0, tau=1e-7)]

    @pytest.mark.parametrize("chain", ["default", "ideal"])
    @pytest.mark.parametrize("load", range(len(COLES)))
    def test_cole_at_alpha_1_within_1e_11_of_mpmath(self, load, chain):
        # r_inf in series with (r0 - r_inf) || c: the sum of the two RC DCs
        cole = self.COLES[load]
        r = cole.r0 - cole.r_inf
        parts = (ParallelRC(r=cole.r_inf), ParallelRC(r=r, c=cole.tau / r))
        params = ChainParams() if chain == "default" else ChainParams().ideal()
        for idx, f0 in enumerate(plan_frequencies()):
            config = AfeConfig(freq_index=idx)
            got = mixer_dc_pair(cole, f0, config, params)
            want = [sum(pair) for pair in zip(*(exact_mixer_dc(m, f0, config, params)
                                                 for m in parts))]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * abs(complex(*want))

    @pytest.mark.parametrize("chain", ["default", "ideal"])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 0.95])
    def test_cole_below_alpha_1_within_1e_13_of_the_series_sum(self, alpha, chain):
        cole = ColeModel(r_inf=50.0, r0=500.0, tau=1e-5, alpha=alpha)
        params = ChainParams() if chain == "default" else ChainParams().ideal()
        for idx in (10, 5, 0):  # 1953.125 Hz, 62.5 kHz, 2 MHz
            f0, config = plan_frequencies()[idx], AfeConfig(freq_index=idx)
            got = mixer_dc_pair(cole, f0, config, params)
            want = nsum_mixer_dc(cole, f0, config, params)
            assert abs(complex(*got) - complex(*want)) <= 1e-13 * abs(complex(*want))

    @pytest.mark.parametrize("chain", ["default", "ideal"])
    @pytest.mark.parametrize("name", tissue.BUILTIN_NAMES)
    def test_builtin_table_within_1e_8_of_the_longer_transform(self, name, chain):
        # the same transform ending at n = 895, or where the table ends
        # (n = 495 at 2 MHz); 9.1e-9 measured, on saline with the ideal chain
        table = builtin_model(name)
        params = ChainParams() if chain == "default" else ChainParams().ideal()
        for idx, f0 in enumerate(plan_frequencies()):
            config = AfeConfig(freq_index=idx)
            last = min(895, int(table.freqs_hz[-1] / f0) // 8 * 8 - 1)
            got = mixer_dc_pair(table, f0, config, params)
            want = euler_image_dc(table, f0, config, params, last)
            assert abs(complex(*got) - complex(*want)) <= 1e-8 * abs(complex(*want))

    def test_cole_whose_capacitor_overflows_reads_as_r_inf(self):
        # c = tau / (r0 - r_inf) = 1e300 / 1e-9 overflows a double; that
        # branch is shorted at every plan frequency, leaving r_inf
        cole = ColeModel(r_inf=100.0, r0=100.0 + 1e-9, tau=1e300)
        for idx, f0 in enumerate(plan_frequencies()):
            config = AfeConfig(freq_index=idx)
            got = mixer_dc_pair(cole, f0, config, ChainParams())
            want = mixer_dc_pair(ParallelRC(r=100.0), f0, config, ChainParams())
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(complex(*want))

    def test_matches_the_matrix_exponential_on_random_loads(self):
        # 240 loads, r 1-1e5 ohm, c 1e-12-1e-5 F, LNA pole none or
        # 1e2-1e8 Hz; in a third of those with a pole the load's rate is
        # within 1e-7 of the pole's, where exact_mixer_dc (distinct poles
        # only) cannot go
        rng = np.random.default_rng(17)
        config, plan = AfeConfig.from_gain_word("101"), plan_frequencies()
        for k in range(240):
            r = float(10 ** rng.uniform(0, 5))
            pole = None if k % 4 == 0 else float(10 ** rng.uniform(2, 8))
            if pole is not None and k % 3 == 0:
                c = 1 / (2 * np.pi * pole * (1 + rng.uniform(-1e-7, 1e-7))) / r
            else:
                c = float(10 ** rng.uniform(-12, -5))
            model = ParallelRC(r=r, c=c, r_interface=float(rng.uniform(0, 100)))
            params = ChainParams(lna_pole=pole)
            got = afe._image_dc(model, plan, config, params)
            want = expm_mixer_dc(model, plan, config, params)
            assert np.all(np.abs(got - want) <= 1e-13 * np.hypot(*want.T)[:, None])


class TestPlanStack:
    """A load's DC for the whole plan in one stacked pass is, row by row, bit
    for bit the DC of that frequency alone; mixer_dc_pair serves plan
    frequencies from the cached table and nothing else."""

    PLAN = plan_frequencies()

    @staticmethod
    def rc_loads():
        rng = np.random.default_rng(2024)
        for k in range(40):
            model = ParallelRC(r=float(10 ** rng.uniform(0, 5)), c=float(10 ** rng.uniform(-12, -5)),
                               r_interface=float(rng.uniform(0, 100)))
            yield model, ChainParams(lna_pole=float(10 ** rng.uniform(2, 8)))
        for model in (ParallelRC(r=330.0, c=10e-9, r_interface=25.0), ParallelRC(r=100.0, c=0.0),
                      ParallelRC(r=100.0, c=1e-26), ParallelRC(r=1e200, c=0.0),
                      ParallelRC(r=1e200, c=1e-210), ParallelRC(r=9746.0, c=7.34e-6)):
            for params in (ChainParams(), ChainParams(lna_pole=None)):
                yield model, params

    LOADS = {
        "cole_alpha_1": ColeModel(r_inf=50.0, r0=500.0, tau=1e-5),
        **{name: TestOracleEquivalence.MODELS[name] for name in ("blood", "muscle", "saline", "cole")},
    }

    @pytest.mark.parametrize("load", ["rc", *LOADS])
    def test_rows_equal_single_evaluations(self, load):
        if load == "rc":
            cases = self.rc_loads()
        else:
            cases = ((self.LOADS[load], p) for p in (ChainParams(), ChainParams(lna_pole=None)))
        config = AfeConfig.from_gain_word("101")
        for model, params in cases:
            stack = afe._image_dc(model, self.PLAN, config, params)
            assert stack.shape == (11, 2)
            for f0, row in zip(self.PLAN, stack):
                alone = afe._image_dc(model, [f0], config, params)
                assert row.tobytes() == alone[0].tobytes()

    def test_plan_frequencies_read_the_table(self):
        model = ParallelRC(r=270.0, c=3e-9)
        for idx, f0 in enumerate(self.PLAN):
            config = AfeConfig(g0=0, freq_index=idx)
            table = afe._plan_dc(model, config.gain_word, ChainParams())
            assert mixer_dc_pair(model, f0, config, ChainParams()) == tuple(table[idx].tolist())
        assert not table.flags.writeable

    def test_off_plan_frequency_is_rejected(self):
        # only the documents' readers match a frequency within a tolerance
        afe._plan_dc.cache_clear()
        model = ParallelRC(r=270.0, c=3e-9)
        for source_enable in (1, 0):
            config = AfeConfig(freq_index=4, source_enable=source_enable)
            for f0 in (self.PLAN[4] * (1 + 1e-9), self.PLAN[5]):
                with pytest.raises(ValueError, match="does not match plan frequency"):
                    mixer_dc_pair(model, f0, config, ChainParams())
                with pytest.raises(ValueError, match="does not match plan frequency"):
                    acquire.run_sequence(model, [f0], [config], ChainParams(), taps=acquire.TAPS,
                                         seed=[[1, 2]])
        assert afe._plan_dc.cache_info().currsize == 0

    def test_table_short_of_the_top_images_still_serves_low_frequencies(self):
        # images of 1953.125 Hz reach 498 kHz; those of 2 MHz pass 1 MHz
        full = builtin_model("blood")
        short = tissue.TabulatedTwoPort(full.freqs_hz[full.freqs_hz <= 1e6],
                                        full.z21[full.freqs_hz <= 1e6])
        config = AfeConfig(freq_index=10)
        got = mixer_dc_pair(short, self.PLAN[10], config, ChainParams())
        want = afe._image_dc(short, [self.PLAN[10]], config, ChainParams())
        assert got == tuple(want[0].tolist())
        with pytest.raises(tissue.TableRangeError):
            mixer_dc_pair(short, self.PLAN[0], AfeConfig(freq_index=0), ChainParams())


class TestPlanLattice:
    """A load's noise-free I-then-Q lattice for the whole plan, rendered in
    one stacked pass and cached, is row by row bit for bit that
    frequency's steps rendered alone."""

    LOADS = {
        "rc": ParallelRC(r=270.0, c=3e-9),
        "cole": ColeModel(r_inf=50.0, r0=500.0, tau=1e-5, alpha=0.8),
        "cole_alpha_1": ColeModel(r_inf=50.0, r0=500.0, tau=1e-5),
        "table": builtin_model("blood"),
    }
    CHAINS = {
        "default": ChainParams(),
        "ideal": ChainParams().ideal(),
        "no_compression": ChainParams(compression_knee=None),
        "order_1": ChainParams(lpf_order=1),
        "order_3": ChainParams(lpf_order=3),
        "order_5": ChainParams(lpf_order=5),
        "stride_5": ChainParams(settle_time=0.0251),
    }

    @staticmethod
    def sequence(params):
        settle_n, spacing_n, phase_n = acquire._phase_samples(params, 32)
        return phase_n, math.gcd(settle_n, spacing_n)

    def assert_rows_are_single_renders(self, model, params):
        phase_n, g = self.sequence(params)
        for word in ("111", "000"):
            for idx, f0 in enumerate(plan_frequencies()):
                config = AfeConfig.from_gain_word(word, freq_index=idx)
                dc = mixer_dc_pair(model, f0, config, params)
                row = afe._sequence_lattice(model, config, params, dc, phase_n, g)
                alone = afe._render([(phase_n, dc[0]), (phase_n, dc[1])], params, g)
                assert row.shape == alone.shape == (2 * phase_n // g,)
                assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("chain", list(CHAINS))
    @pytest.mark.parametrize("load", list(LOADS))
    def test_rows_equal_single_renders(self, load, chain):
        afe._plan_lattice.cache_clear()
        self.assert_rows_are_single_renders(self.LOADS[load], self.CHAINS[chain])
        info = afe._plan_lattice.cache_info()
        assert (info.misses, info.hits) == (2, 20)
        assert not afe._plan_lattice(self.LOADS[load], "111", self.CHAINS[chain],
                                     *self.sequence(self.CHAINS[chain])).flags.writeable

    @pytest.mark.parametrize("params", [BARE, QUIET])
    def test_a_row_whose_level_holds_still_renders_as_alone(self, params):
        # row 0 holds at 1e-8 while row 1 jumps; row 1 starts at -0.0
        first, second = np.array([1e-8, -0.0, 5e-9]), np.array([1e-8, 3e-8, -5e-9])
        stack = afe._render([(300, first), (0, second), (300, second)], params, 3)
        for r in range(3):
            alone = afe._render([(300, first[r]), (0, second[r]), (300, second[r])], params, 3)
            assert stack[r].tobytes() == alone.tobytes()

    def test_the_stride_follows_the_settle_time(self):
        assert self.sequence(ChainParams()) == (2850, 50)
        assert self.sequence(ChainParams(settle_time=0.0251)) == (2855, 5)

    def test_a_table_short_of_the_top_images_renders_every_row_alone(self):
        # its plan DC table is None, and so is its plan lattice
        full = builtin_model("blood")
        short = tissue.TabulatedTwoPort(full.freqs_hz[full.freqs_hz <= 1e6],
                                        full.z21[full.freqs_hz <= 1e6])
        afe._plan_lattice.cache_clear()
        config = AfeConfig(freq_index=10)
        dc = mixer_dc_pair(short, config.fundamental, config, ChainParams())
        row = afe._sequence_lattice(short, config, ChainParams(), dc, 2850, 50)
        alone = afe._render([(2850, dc[0]), (2850, dc[1])], ChainParams(), 50)
        assert row.tobytes() == alone.tobytes()
        assert afe._plan_lattice.cache_info().currsize == 1
        assert afe._plan_lattice(short, config.gain_word, ChainParams(), 2850, 50) is None

    def test_a_disabled_source_reads_the_offset(self):
        params = ChainParams(offset=-0.0)
        config = AfeConfig(source_enable=0)
        for p in (params, ChainParams()):
            got = afe._sequence_lattice(None, config, p, (0.0, 0.0), 2850, 50)
            assert got.tobytes() == afe._render([(2850, 0.0), (2850, 0.0)], p, 50).tobytes()


class TestDemodulateTimeDomain:
    """The exact mixer DC of a resistor, and the baseband chain it drives."""

    R100 = ParallelRC(r=100.0, c=0.0)
    FLAT = ChainParams(lna_pole=None, noise_floor=0.0, carrier_noise_v=0.0,
                       compression_knee=None, offset=0.0)

    def exact_and_deep_oracle(self, phase):
        # the exact route carries every hold image; compare against a deep sum
        g_post = self.FLAT.tia_gain * self.FLAT.lpf_gain
        for idx, f0 in enumerate(plan_frequencies()):
            cfg = AfeConfig(freq_index=idx)
            dc_i, dc_q = mixer_dc_pair(self.R100, f0, cfg, self.FLAT)
            yield (dc_i if phase == Phase.I else dc_q) * g_post, analytic_dc_oracle(
                self.R100, f0, cfg, self.FLAT, n_max=2001, phase=phase)

    def test_flat_resistor_settles_to_quadrature_value(self):
        for got, want in self.exact_and_deep_oracle(Phase.I):
            assert got > 0
            assert abs(got - want) <= 1e-6 * abs(want)
        dc_i, _ = mixer_dc_pair(self.R100, 1953.125, AfeConfig(freq_index=10), self.FLAT)
        out = drive([(10000, dc_i)], self.FLAT, [None])[0]
        want = dc_i * self.FLAT.tia_gain * self.FLAT.lpf_gain
        assert np.mean(out[-250:]) == pytest.approx(want, rel=1e-6)

    def test_q_select_sign_and_magnitude(self):
        base = 700.0 * (2 / np.pi) * 10e-6 * 100.0
        for got, want in self.exact_and_deep_oracle(Phase.Q):
            # fundamental product magnitude G*(2/pi)*|I|*R*sin(22.5deg); image
            # products shift the full value by ~3%, captured by the deep oracle
            assert got < 0
            assert abs(got) == pytest.approx(base * np.sin(np.pi / 8), rel=0.04)
            assert abs(got - want) <= 1e-6 * abs(want)

    def test_source_disabled_gives_offset_only(self):
        cfg = AfeConfig(freq_index=10, source_enable=0)
        dc_i, _ = mixer_dc_pair(self.R100, 1953.125, cfg, QUIET)
        out = drive([(2500, dc_i)], QUIET, [None])[0]
        assert np.allclose(out[-100:], QUIET.offset, atol=1e-12)

    def test_settles_in_approximately_25_ms(self):
        dc_i, _ = mixer_dc_pair(self.R100, 1953.125, AfeConfig(freq_index=10), QUIET)
        out = drive([(5000, dc_i)], QUIET, [None])[0]
        final = np.mean(out[-100:])
        k25 = int(0.025 * QUIET.output_rate)
        k5 = int(0.005 * QUIET.output_rate)
        assert abs(out[k25] - final) < 0.01 * abs(final - QUIET.offset)
        assert abs(out[k5] - final) > 0.05 * abs(final - QUIET.offset)

    def test_seeded_noise_is_deterministic(self):
        dc_i, _ = mixer_dc_pair(self.R100, 1953.125, AfeConfig(freq_index=10), ChainParams())
        a = drive([(3000, dc_i)], ChainParams(), [11])
        b = drive([(3000, dc_i)], ChainParams(), [11])
        assert np.array_equal(a, b)


class TestBasebandChain:
    """The numpy Chebyshev design against scipy's, and the chain's unit-step
    response against a 50-digit evaluation of scipy's design."""

    N = 28100  # samples in a default 256-tap source-off sequence
    TIMES = sorted(set(range(300)) | set(range(0, N, 61)) | {N - 1})

    @staticmethod
    def scipy_poles(params):
        # the TIA pole (bilinear at k = 2 fs), then every pole of scipy's design
        k, wp = 2 * params.output_rate, 2 * np.pi * params.tia_pole
        _, p, _ = sps.cheby1(params.lpf_order, params.lpf_ripple_db, params.lpf_cutoff,
                             fs=params.output_rate, output="zpk")
        return [(k - wp) / (k + wp), *p]

    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("ripple, cutoff", [(0.5, 5.0), (0.5, 50.0), (3.0, 1000.0),
                                                (0.1, 20e3)])
    def test_design_matches_scipy_zpk(self, order, ripple, cutoff):
        # the sections put every zero at -1 and renormalize to unity DC
        # gain, so the poles are all they take from the design
        zs, ps, _ = sps.cheby1(order, ripple, cutoff, fs=50e3, output="zpk")
        assert np.array_equal(zs, -np.ones(order))
        assert np.max(np.abs(afe._cheby1_poles(order, ripple, cutoff, 50e3) - ps)) <= 1e-14

    def test_an_integral_float_order_runs_as_its_integer(self):
        # a scenario's JSON gives the order as a float, such as 2.0
        steps = [(2000, 1e-8), (3000, -1e-8)]
        runs = []
        for order in (2.0, 2):
            afe._step_response.cache_clear()
            runs.append(drive(steps, ChainParams(lpf_order=order), [3]))
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize("cutoff", [5.0, 20.0, 50.0])
    def test_step_response_within_1e_13_of_the_settled_value(self, order, cutoff):
        params = ChainParams(lpf_order=order, lpf_cutoff=cutoff)
        s = afe._step_response(params, self.N)
        want = cascade_step_reference(self.scipy_poles(params), self.TIMES)
        assert np.max(np.abs(s[self.TIMES] - want)) <= 1e-13

    @pytest.mark.parametrize("order, cutoff", [(6, 5.0), (5, 20.0), (4, 50.0)])
    def test_a_long_step_follows_the_design(self, order, cutoff):
        # lfilter on the whole filter's (b, a) ended this step at 6.9e193x,
        # 0.9797x and 1 + 2.6e-8 of its settled value
        params = replace(BARE, lpf_order=order, lpf_cutoff=cutoff)
        n = 200_000
        out = drive([(n, 1e-8)], params, [None])[0]
        settled = 1e-8 * params.tia_gain * params.lpf_gain
        times = [0, 999, n // 2, n - 1]
        want = settled * cascade_step_reference(self.scipy_poles(params), times)
        assert np.max(np.abs(out[times] - want)) <= 1e-13 * settled


class TestCompression:
    def test_identity_when_disabled(self):
        p = ChainParams(compression_knee=None)
        v = np.linspace(-5, 5, 11)
        assert np.array_equal(apply_compression(v, p), v)

    def test_well_below_knee(self):
        p = ChainParams()
        v = 0.5 * p.compression_knee
        assert apply_compression(v, p) == pytest.approx(v, rel=1e-3)

    def test_one_percent_at_knee(self):
        p = ChainParams()
        y = apply_compression(p.compression_knee, p)
        assert 1 - y / p.compression_knee == pytest.approx(0.01, rel=1e-3)

    def test_odd_and_monotone(self):
        p = ChainParams()
        v = np.linspace(-10, 10, 401)
        y = apply_compression(v, p)
        assert np.allclose(y, -apply_compression(-v, p))
        assert np.all(np.diff(y) > 0)

    def test_matches_the_pow_form(self):
        p = ChainParams()
        knee = p.compression_knee
        vs = knee / afe._KNEE_X
        v = np.concatenate([np.random.default_rng(7).normal(0.0, 3.0, 5000),
                            [0.0, knee, -knee, 1e3 * knee, -1e3 * knee, -0.3, -4.0]])
        reference = v / (1.0 + (v / vs) ** 4) ** 0.25
        y = apply_compression(v, p)
        assert np.all(np.abs(y - reference) <= 1e-15 * np.abs(reference))
        for scalar in (0.0, knee, -knee, 1e3 * knee, -2.5):
            y = apply_compression(scalar, p)
            assert type(y) is float
            assert abs(y - scalar / (1.0 + (scalar / vs) ** 4) ** 0.25) <= 1e-15 * abs(scalar)

    def test_saturates_however_large_the_input(self):
        # x^4 overflows beyond |x| ~ 1e77: the output must stay at the rail
        p = ChainParams()
        vs = p.compression_knee / afe._KNEE_X
        v = np.array([1e80, -1e80, 1e300, -1e300, 1.7e308, -1.7e308])
        np.testing.assert_array_equal(apply_compression(v, p), np.copysign(vs, v))
        for scalar in v:
            assert apply_compression(float(scalar), p) == np.copysign(vs, scalar)

    def breakpoint_deviation(self, r_ohm, word):
        """|Z|-domain compressive deviation of a resistor at a gain word."""
        cfg = AfeConfig.from_gain_word(word, freq_index=10)
        p = ChainParams(lna_pole=None, noise_floor=0.0, carrier_noise_v=0.0, offset=0.0)
        scale = (np.pi / 2) / (cfg.current_amplitude * p.total_gain(cfg.g2))
        base = p.total_gain(cfg.g2) * (2 / np.pi) * cfg.current_amplitude * r_ohm
        vi = apply_compression(base * np.cos(np.pi / 8), p)
        vq = apply_compression(-base * np.sin(np.pi / 8), p)
        z = abs(complex(vi, vq)) * scale
        return 1 - z / r_ohm

    @pytest.mark.parametrize("r,word", [(400.0, "111"), (1200.0, "101"), (3600.0, "001")])
    def test_linear_up_to_breakpoints(self, r, word):
        assert self.breakpoint_deviation(r, word) <= 0.010

    @pytest.mark.parametrize("r,word", [(500.0, "111"), (1500.0, "101"), (4500.0, "001")])
    def test_compresses_beyond_breakpoints(self, r, word):
        assert self.breakpoint_deviation(r, word) > 0.010


class TestNoiseProcess:
    def test_deterministic(self):
        p = ChainParams()
        a = noise_process(p, [42], 1.0, 10e3)
        b = noise_process(p, [42], 1.0, 10e3)
        assert np.array_equal(a, b)

    def test_zero_mean(self):
        p = ChainParams()
        s = noise_process(p, [3], 10.0, 5e3)[0]
        n = len(s)
        assert abs(np.mean(s)) <= 3 * np.std(s) / np.sqrt(n)

    def test_integrated_band_default(self):
        p = ChainParams()
        s = noise_process(p, [7], 200.0, 2000.0)[0]
        f, psd = sps.welch(s, fs=2000.0, nperseg=16384)
        m = (f >= 1.0) & (f <= 100.0)
        vrms = np.sqrt(np.trapezoid(psd[m], f[m]))
        assert vrms == pytest.approx(1.3e-3, rel=0.30)

    def test_measured_corner_configuration(self):
        # scaling the floor to the single-ended measurement level moves the
        # integral to ~1.63 mVrms
        p = ChainParams(noise_floor=5.496e-5 * (1.63 / 1.3))
        s = noise_process(p, [7], 200.0, 2000.0)[0]
        f, psd = sps.welch(s, fs=2000.0, nperseg=16384)
        m = (f >= 1.0) & (f <= 100.0)
        vrms = np.sqrt(np.trapezoid(psd[m], f[m]))
        assert vrms == pytest.approx(1.63e-3, rel=0.30)

    def test_flicker_shape(self):
        # PSD near 2 Hz should sit roughly (1 + 100/2) / (1 + 100/80) times
        # above the PSD near 80 Hz
        p = ChainParams()
        s = noise_process(p, [11], 500.0, 2000.0)[0]
        f, psd = sps.welch(s, fs=2000.0, nperseg=65536)
        lo = psd[(f > 1.5) & (f < 2.5)].mean()
        hi = psd[(f > 70) & (f < 90)].mean()
        expect = (1 + 100 / 2.0) / (1 + 100 / 80.0)
        assert lo / hi == pytest.approx(expect, rel=0.35)

    def test_disabled_floor_gives_zeros(self):
        p = ChainParams(noise_floor=0.0)
        assert np.all(noise_process(p, [1], 0.5, 10e3) == 0.0)


class TestFoldedSpectrum:
    """The folded root spectrum, formed on the rfft half of the fold only,
    equals bit for bit the fold of the whole series' PSD."""

    CHAINS = [ChainParams(), ChainParams(flicker_corner=0.0),
              ChainParams(noise_floor=1e-3, flicker_corner=7.3)]

    @staticmethod
    def check(params, n, rate, stride):
        got = afe._folded_root_spectrum(params, n, rate, stride)
        assert got.shape == (n // stride // 2 + 1,)
        assert got.tobytes() == folded_root_spectrum(params, n, rate, stride).tobytes()

    @pytest.mark.parametrize("n,stride", [(28100, 50), (5700, 50), (11400, 50), (5700, 5),
                                          (562, 1), (100, 4), (28100, 1), (101, 1)])
    @pytest.mark.parametrize("chain", range(len(CHAINS)))
    def test_the_sequence_lengths(self, n, stride, chain):
        self.check(self.CHAINS[chain], n, 50e3, stride)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 600), st.sampled_from([50e3, 2000.0, 1234.5]))
    def test_any_length_and_stride(self, stride, m, rate):
        self.check(ChainParams(), stride * m, rate, stride)


class TestLatticeNoise:
    """The stride draw has the full series' joint distribution on its lattice."""

    N, RATE = 60, 2000.0

    def full_covariance(self, p):
        # the full-series noise as an explicit linear map of unit white noise:
        # x sigma -> rfft -> x shape (DC zeroed) -> irfft
        sigma = p.noise_floor * np.sqrt(self.RATE / 2.0)
        f = np.fft.rfftfreq(self.N, 1.0 / self.RATE)
        shape = np.zeros_like(f)
        shape[1:] = np.sqrt(1.0 + p.flicker_corner / f[1:])
        a = np.fft.irfft(np.fft.rfft(sigma * np.eye(self.N), axis=0) * shape[:, None],
                         n=self.N, axis=0)
        return a @ a.T

    def stride_map(self, p, g):
        # noise_process is linear in the m normals it draws: recover its map
        # by least squares from 4m seeded draws and the normals behind them
        # (a tall Gaussian system is well conditioned)
        m = self.N // g
        seeds = range(4 * m)
        x = noise_process(p, [np.random.default_rng(s) for s in seeds], self.N / self.RATE,
                          self.RATE, g)
        z = np.array([np.random.default_rng(s).standard_normal(m) for s in seeds])
        return np.linalg.lstsq(z, x, rcond=None)[0].T

    @pytest.mark.parametrize("g", [1, 3, 6])
    @pytest.mark.parametrize("corner", [100.0, 0.0])
    def test_covariance_matches_full_series_on_the_lattice(self, g, corner):
        p = ChainParams(flicker_corner=corner)
        full = self.full_covariance(p)
        b = self.stride_map(p, g)
        assert np.max(np.abs(b @ b.T - full[::g, ::g])) <= 1e-12 * np.max(np.abs(full))

    def test_output_rate_and_length(self):
        s = noise_process(ChainParams(), [1, 2], self.N / self.RATE, self.RATE, 6)
        assert s.shape == (2, self.N // 6)

    def test_stride_must_divide_the_series(self):
        with pytest.raises(ValueError, match="stride"):
            noise_process(ChainParams(), [1], self.N / self.RATE, self.RATE, 7)
        with pytest.raises(ValueError, match="stride"):
            drive([(61, 1e-8)], QUIET, [None], stride=2)

    @pytest.mark.parametrize("g", [3, 6, 50])
    def test_steps_between_lattice_samples(self, g):
        # each jump's response starts at its own sample, between lattice points
        steps = [(301, 1e-8), (0, 5e-8), (248, -2e-8), (1, 0.0), (50, 3e-8)]
        full = drive(steps, QUIET, [None])
        lattice = drive(steps, QUIET, [None], stride=g)
        assert lattice.tobytes() == full[:, ::g].tobytes()
        bare = drive(steps, BARE, [None])[0]
        s = afe._step_response(BARE, 600)
        want = np.zeros(600)
        for start, jump in [(0, 1e-8), (301, -3e-8), (549, 2e-8), (550, 3e-8)]:
            want[start:] += jump * s[: 600 - start]
        assert np.allclose(bare, want * BARE.tia_gain * BARE.lpf_gain, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("g", [1, 3, 6, 50])
    def test_noise_free_output_is_the_full_output_sliced(self, g):
        steps = [(300, 1e-8), (300, -2e-8)]
        full = drive(steps, QUIET, [None])
        lattice = drive(steps, QUIET, [5], stride=g)
        assert lattice.tobytes() == full[:, ::g].tobytes()
        assert lattice.flags.writeable
