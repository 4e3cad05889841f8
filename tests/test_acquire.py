import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biozsim import acquire, afe
from biozsim.seeds import SeedWords, seed_words
from biozsim.acquire import (TAPS, AdcSpec, SequenceResult, _phase_samples, adc_sample, code_volts,
                             pin_code, run_sequence)
from biozsim.afe import AfeConfig, ChainParams, mixer_dc_pair
from biozsim.tissue import ParallelRC, TabulatedTwoPort
from biozsim.waveforms import plan_frequencies
from reference import analytic_dc_oracle, sequence_readout

QUIET = ChainParams(noise_floor=0.0, carrier_noise_v=0.0)


class TestAdc:
    def test_lsb(self):
        spec = AdcSpec()
        assert spec.lsb == 1.8 / 1024
        assert spec.lsb == pytest.approx(1.75e-3, abs=1e-5)  # quoted step

    def test_codes(self):
        spec = AdcSpec()
        assert adc_sample(0.0, spec) == 0
        assert adc_sample(0.9, spec) == 512
        assert adc_sample(1.75e-3, spec) == 1

    def test_reconstruction_within_half_lsb(self):
        spec = AdcSpec()
        # codeable range: above (1023.5) lsb the converter clamps
        v = np.linspace(0.0, 1023.49 * spec.lsb, 1001)
        codes = adc_sample(v, spec)
        assert np.max(np.abs(codes * spec.lsb - v)) <= spec.lsb / 2 + 1e-12

    def test_clamping(self):
        spec = AdcSpec()
        assert adc_sample(-0.5, spec) == 0
        assert adc_sample(2.5, spec) == 1023

    def test_voltages_beyond_any_integer_clamp_without_a_cast_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert adc_sample(1e300) == 1023
            assert adc_sample(float("-inf")) == 0
            assert adc_sample(np.array([np.inf, -1e300, 0.9])).tolist() == [1023, 0, 512]


def numpy_code(v, spec=acquire.ADC):
    """The numpy expression every input took before scalars had their own path."""
    with np.errstate(over="ignore", invalid="ignore"):
        return int(np.clip(np.rint(np.asarray(v) / spec.lsb), 0, spec.codes - 1).astype(int))


class TestScalarAdc:
    """A scalar reads the same code, as the same type, as the numpy path gives it."""

    @staticmethod
    def check(v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = adc_sample(v)
        assert type(code) is int
        assert code == numpy_code(v)

    def test_half_lsb_ties_round_half_even(self):
        lsb = acquire.ADC.lsb
        for k in range(-3, 2 * 1024 + 3):  # every tie between codes, both rails beyond
            self.check(k * lsb / 2)

    @pytest.mark.parametrize("v", [0.0, -0.0, 1.8, -1e-300, 1e300, -1e300,
                                   1.7e308, -1.7e308, np.nextafter(1023.5 * 1.8 / 1024, 0)])
    def test_rails_and_extremes(self, v):
        self.check(v)

    @pytest.mark.parametrize("v", [np.float64(0.45), np.float64(-2.0), np.float64(1e300), 3, -1, 0])
    def test_numpy_floats_and_ints(self, v):
        self.check(v)

    @pytest.mark.parametrize("v", [float("inf"), float("-inf"), np.float64(np.inf)])
    def test_infinities_read_as_rails(self, v):
        self.check(v)

    def test_nan_is_a_value_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (float("nan"), np.float64("nan"), np.array(np.nan), np.array([0.9, np.nan])):
                with pytest.raises(ValueError, match="NaN"):
                    adc_sample(v)

    def test_arrays_keep_their_types(self):
        zero_d = adc_sample(np.array(0.9))
        assert type(zero_d) is int and zero_d == 512
        codes = adc_sample(np.array([0.9, 2.0]))
        assert isinstance(codes, np.ndarray) and codes.tolist() == [512, 1023]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False) | st.floats(-0.1, 1.9) | st.integers(-10**6, 10**6))
    def test_any_scalar_matches_numpy(self, v):
        self.check(v)


class TestRunSequence:
    MODEL = ParallelRC(r=100.0, c=0.0)

    def run(self, params, taps=TAPS, seed=None, model=None, idx=10, word="111",
            source=1):
        cfg = AfeConfig.from_gain_word(word, freq_index=idx, source_enable=source)
        return run_sequence(model or self.MODEL, plan_frequencies()[idx], cfg,
                            params, taps=taps, seed=seed)

    def test_matches_oracle_within_one_lsb(self):
        res = self.run(QUIET)
        cfg = AfeConfig.from_gain_word("111", freq_index=10)
        oi = analytic_dc_oracle(self.MODEL, 1953.125, cfg, QUIET, n_max=501)
        # reconstruction step is 2 ADC LSB (half-swing pin conditioning), so
        # the quantization bound referred to the reading is one LSB, plus a
        # small settling residue
        assert abs(res.v_i_dc - oi) <= AdcSpec().lsb + 0.3e-3

    def test_seed_invariant_when_noise_off(self):
        a = self.run(QUIET, seed=1)
        b = self.run(QUIET, seed=999)
        assert a.v_i_dc == b.v_i_dc
        assert a.v_q_dc == b.v_q_dc

    def test_source_disabled_measures_quantized_offset(self):
        res = self.run(QUIET, source=0)
        step = 2 * AdcSpec().lsb
        assert res.v_i_dc == pytest.approx(code_volts(pin_code(QUIET.offset)), abs=1e-12)
        assert abs(res.v_i_dc - QUIET.offset) <= step / 2

    def test_i_q_windows_do_not_overlap(self):
        p = QUIET
        fs = p.output_rate
        settle_n = int(round(p.settle_time * fs))
        spacing_n = int(round(1e-3 * fs))
        taps = 32
        last_i_tap = settle_n + spacing_n * (taps - 1)
        phase_n = settle_n + spacing_n * taps
        first_q_tap = phase_n + settle_n
        assert last_i_tap < phase_n <= first_q_tap

    def test_averaging_reduces_spread_near_sqrt32(self):
        p = ChainParams()
        sig1 = np.array([self.run(p, taps=1, seed=s, idx=5).v_i_dc for s in range(100)])
        sig32 = np.array([self.run(p, taps=32, seed=s, idx=5).v_i_dc for s in range(100)])
        s1, s32 = sig1.std(ddof=1), sig32.std(ddof=1)
        assert s32 < s1  # strictly smaller (the 1/f floor limits the gain)
        assert s1 / s32 > 2.5  # near sqrt(32) for the near-white tap noise

    def test_spread_monotone_in_taps(self):
        p = ChainParams()
        spreads = []
        for taps in (1, 4, 32):
            v = [self.run(p, taps=taps, seed=s, idx=5).v_i_dc for s in range(100)]
            spreads.append(np.std(v, ddof=1))
        # allow the ~7% estimation error of a 100-sample std at 3 sigma
        assert spreads[1] <= spreads[0] * 1.2
        assert spreads[2] <= spreads[1] * 1.2

    def test_saturation_flagged(self):
        res = self.run(QUIET, model=ParallelRC(r=3200.0, c=0.0))  # ~8x over range
        assert res.saturated

    def test_in_range_not_flagged(self):
        assert not self.run(QUIET).saturated

    def test_taps_validation(self):
        with pytest.raises(ValueError):
            self.run(QUIET, taps=0)

    def test_frequency_index_consistency(self):
        cfg = AfeConfig(freq_index=10)
        with pytest.raises(ValueError):
            run_sequence(self.MODEL, 2e6, cfg, QUIET, taps=TAPS)

    def test_taps_fall_on_whole_output_samples(self):
        assert _phase_samples(ChainParams(output_rate=20e3), 32) == (500, 20, 1140)
        # 1 ms is 1.4 or 0.6 samples here: rounding would move the taps
        for rate in (1400.0, 600.0):
            with pytest.raises(ValueError, match="whole output samples"):
                _phase_samples(ChainParams(output_rate=rate), 32)


class TestTapLattice:
    """A sequence renders only the output samples its taps read."""

    MODEL = ParallelRC(r=180.0, c=2e-9)

    def full_series_read(self, params, cfg, taps=TAPS):
        # the taps read off the full output-rate series, noise-free
        fs = params.output_rate
        settle_n = int(round(params.settle_time * fs))
        spacing_n = int(round(1e-3 * fs))
        phase_n = settle_n + spacing_n * taps
        dc_i, dc_q = mixer_dc_pair(self.MODEL, cfg.fundamental, cfg, params)
        series = afe._render([(phase_n, dc_i), (phase_n, dc_q)], params, 1)
        means = []
        for start in (0, phase_n):
            idx = start + settle_n + spacing_n * np.arange(taps)
            means.append(float(np.mean(code_volts(pin_code(series[idx])))))
        return means

    def strides(self, monkeypatch):
        seen = []
        real = afe.baseband_output

        def spy(*args, **kwargs):
            seen.append(kwargs["stride"])
            return real(*args, **kwargs)

        monkeypatch.setattr(afe, "baseband_output", spy)
        return seen

    @pytest.mark.parametrize("settle_time,stride", [(0.025, 50), (0.0251, 5), (0.0, 50)])
    @pytest.mark.parametrize("idx", [0, 6, 10])
    def test_noise_free_taps_match_the_full_series(self, monkeypatch, settle_time, stride, idx):
        params = ChainParams(noise_floor=0.0, carrier_noise_v=0.0, settle_time=settle_time)
        cfg = AfeConfig(freq_index=idx)
        strides = self.strides(monkeypatch)
        res = run_sequence(self.MODEL, cfg.fundamental, cfg, params, taps=TAPS, seed=3)
        assert strides == [stride]
        assert [res.v_i_dc, res.v_q_dc] == self.full_series_read(params, cfg)


class TestSeedStack:
    """A group of seeds runs a reading's repeats as one stack; every row is,
    bit for bit, that seed run alone.  Row identity of the stacked FFT is a
    property of this numpy, not a guarantee, so this pins it."""

    MODEL = ParallelRC(r=270.0, c=3e-9)
    # the carrier-only chain draws no 1/f normals, so its carrier normals
    # are each generator's first draw
    CHAINS = {"default": ChainParams(), "quiet": QUIET, "carrier_only": ChainParams(noise_floor=0.0)}

    @staticmethod
    def key(res):
        return np.array([res.v_i_dc, res.v_q_dc]).tobytes(), res.saturated

    def assert_rows_are_single_runs(self, model, cfg, params, taps, seeds):
        record = run_sequence(model, [cfg.fundamental], [cfg], params, taps=taps, seed=[seeds])
        stack = [SequenceResult(v_i, v_q, s) for v_i, v_q, s in zip(
            record.v_i_dc.tolist(), record.v_q_dc.tolist(), record.saturated.tolist(), strict=True)]
        assert len(stack) == len(seeds)
        for seed, row in zip(seeds, stack):
            alone = run_sequence(model, cfg.fundamental, cfg, params, taps=taps, seed=seed)
            assert self.key(row) == self.key(alone)
        return stack

    @pytest.mark.parametrize("chain", list(CHAINS))
    @pytest.mark.parametrize("taps", [32, 256])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_rows_equal_single_runs(self, chain, taps, k):
        params = self.CHAINS[chain]
        seeds = np.random.SeedSequence([k, taps]).spawn(k)
        for cfg in (AfeConfig(freq_index=7), AfeConfig(freq_index=7, source_enable=0)):
            stack = self.assert_rows_are_single_runs(self.MODEL, cfg, params, taps, seeds)
            distinct = len({self.key(res) for res in stack})
            assert distinct == (1 if chain == "quiet" else k)

    def test_saturated_flag_stays_per_row(self):
        cfg = AfeConfig(freq_index=10)
        seeds = np.random.SeedSequence(9).spawn(10)
        stack = self.assert_rows_are_single_runs(ParallelRC(r=430.0, c=0.0), cfg, ChainParams(),
                                                 32, seeds)
        assert 0 < sum(res.saturated for res in stack) < len(stack)

    #: Groups of a stack: plan frequencies, gain words, a disabled source,
    #: and a different number of repeats in each.
    GROUPS = [(AfeConfig.from_gain_word("111", freq_index=10), 3),
              (AfeConfig.from_gain_word("111", freq_index=0), 1),
              (AfeConfig.from_gain_word("000", freq_index=10), 5),
              (AfeConfig.from_gain_word("101", freq_index=3, source_enable=0), 2),
              (AfeConfig.from_gain_word("111", freq_index=6), 4)]

    @pytest.mark.parametrize("chain", [*CHAINS, "carrier_underflow"])
    @pytest.mark.parametrize("taps", [32, 256])
    def test_groups_equal_single_runs(self, chain, taps):
        # a carrier term of 5e-324 V is 0 at 2 MHz and at word 000 but not at
        # 1953 Hz under 111: those rows draw no carrier normals, as alone
        params = self.CHAINS.get(chain, ChainParams(carrier_noise_v=5e-324))
        configs = [c for c, _ in self.GROUPS]
        # seeds of every kind: ints, SeedSequences and precomputed words
        words = seed_words((taps, np.arange(15)), ())
        pool = [3, np.random.SeedSequence(4), *map(SeedWords, words)]
        seeds, k = [], 0
        for _, n in self.GROUPS:
            seeds.append(pool[k : k + n])
            k += n
        record = run_sequence(self.MODEL, [c.fundamental for c in configs], configs, params,
                              taps=taps, seed=seeds)
        # one row per seed of each configuration built
        assert len(record.v_i_dc) == sum(n for _, n in self.GROUPS)
        rows = [SequenceResult(v_i, v_q, s) for v_i, v_q, s in zip(
            record.v_i_dc.tolist(), record.v_q_dc.tolist(), record.saturated.tolist(),
            strict=True)]
        alone = [run_sequence(self.MODEL, c.fundamental, c, params, taps=taps, seed=s)
                 for c, group in zip(configs, seeds) for s in group]
        assert [self.key(row) for row in rows] == [self.key(single) for single in alone]

    def test_a_group_stack_checks_every_frequency(self):
        configs = [AfeConfig(freq_index=2), AfeConfig(freq_index=3)]
        with pytest.raises(ValueError, match="does not match"):
            run_sequence(self.MODEL, [configs[0].fundamental, configs[0].fundamental], configs,
                         ChainParams(), taps=TAPS, seed=[[1], [2]])

    @pytest.mark.parametrize("n_configs,seeds", [
        (1, [[1, 2], [3, 4, 5]]),  # a second group no configuration takes
        (2, [[1, 2]]),
        (2, [[1], [2], [3]]),
        (1, [[]]),
        (2, [[1], []]),
    ], ids=["two_lists_one_config", "one_list_two_configs", "three_lists_two_configs",
            "one_empty_list", "one_of_two_lists_empty"])
    def test_a_stack_takes_one_non_empty_seed_list_per_configuration(self, n_configs, seeds):
        configs = [AfeConfig(freq_index=3), AfeConfig(freq_index=4)][:n_configs]
        with pytest.raises(ValueError) as info:
            run_sequence(self.MODEL, [c.fundamental for c in configs], configs, ChainParams(),
                         taps=TAPS, seed=seeds)
        message = str(info.value)
        assert "\n" not in message
        assert f"each of {n_configs} configurations" in message
        assert f"got {len(seeds)} lists of {[len(s) for s in seeds]} seeds" in message

    def test_noise_rows_equal_single_draws(self):
        params = ChainParams()
        seeds = [3, np.random.SeedSequence(4), np.random.default_rng(5)]
        stack = afe.noise_process(params, seeds, 0.114, 50e3, 50)
        assert stack.shape == (3, 114)
        for seed, row in zip([3, np.random.SeedSequence(4), np.random.default_rng(5)], stack):
            assert row.tobytes() == afe.noise_process(params, [seed], 0.114, 50e3, 50)[0].tobytes()

    def test_out_of_range_raises_before_any_draw(self, monkeypatch):
        rendered = []
        monkeypatch.setattr(afe, "baseband_output", lambda *args, **kw: rendered.append(args))
        huge = TabulatedTwoPort([100.0, 1e9], [1.5e308 + 1.5e308j] * 2)
        cfg = AfeConfig(freq_index=10)
        # the overflow inside the image sum warns; the raise is what is checked
        with np.errstate(all="ignore"), pytest.raises(acquire.MeasurementRangeError,
                                                      match="not finite"):
            run_sequence(huge, [cfg.fundamental], [cfg], ChainParams(), taps=TAPS, seed=[[1, 2, 3]])
        assert rendered == []


class TestTableReadout:
    """A sequence's means and saturated flag equal, bit for bit, the
    readout of `reference.sequence_readout` applied to the output rows the
    run read."""

    # I near the top rail and Q near the bottom one at 1953 Hz, so that the
    # carrier noise clamps a few of 512 taps at each rail
    RAILS = ParallelRC(r=594.0, c=5.68e-8)

    @pytest.fixture(autouse=True)
    def spy(self, monkeypatch):
        self.seen = []
        real = afe.baseband_output

        def spy(*args, **kwargs):
            rows = real(*args, **kwargs)
            self.seen.append((rows.copy(), kwargs["stride"]))
            return rows

        monkeypatch.setattr(afe, "baseband_output", spy)

    @staticmethod
    def bits(*values):
        return [np.asarray(v, dtype=float).tobytes() for v in values]

    def check(self, model, config, params, taps, seed):
        """Run the sequence, hold it to the reference readout of the rows
        it read, and return the reference's rail counts."""
        f0 = [c.fundamental for c in config] if isinstance(config, list) else config.fundamental
        record = run_sequence(model, f0, config, params, taps=taps, seed=seed)
        (rows, stride), = self.seen
        self.seen.clear()
        v_i, v_q, saturated, low, high = sequence_readout(rows, params, taps, stride)
        if isinstance(config, list):
            assert record.saturated.dtype == bool
            assert record.saturated.tolist() == saturated.tolist()
        else:
            assert type(record.v_i_dc) is float and type(record.saturated) is bool
            assert [record.saturated] == saturated.tolist()
        assert self.bits(record.v_i_dc, record.v_q_dc) == self.bits(v_i, v_q)
        return low, high

    def test_one_seed_on_the_default_chain(self):
        for cfg in (AfeConfig(freq_index=7), AfeConfig(freq_index=10),
                    AfeConfig(freq_index=7, source_enable=0)):
            self.check(ParallelRC(r=270.0, c=3e-9), cfg, ChainParams(), TAPS, 3)

    def test_a_stack_on_the_default_chain(self):
        configs = [AfeConfig.from_gain_word("111", freq_index=10),
                   AfeConfig.from_gain_word("000", freq_index=0),
                   AfeConfig.from_gain_word("101", freq_index=3, source_enable=0)]
        self.check(ParallelRC(r=270.0, c=3e-9), configs, ChainParams(), TAPS,
                   [[1, 2, 3], [4], [5, 6]])

    def test_taps_clamped_at_both_rails_below_and_at_the_flag(self):
        # 256 taps a phase: the flag is 6 of 512 taps
        cfg = AfeConfig(freq_index=10)
        low, high = self.check(self.RAILS, [cfg], ChainParams(), 256, [list(range(12))])
        both = (low > 0) & (high > 0)
        assert (both & (low + high == 5)).any() and (both & (low + high == 6)).any()
        # the same rows run alone
        for seed in np.flatnonzero(both & ((low + high == 5) | (low + high == 6))):
            one_low, one_high = self.check(self.RAILS, cfg, ChainParams(), 256, int(seed))
            assert (one_low.tolist(), one_high.tolist()) == ([low[seed]], [high[seed]])
