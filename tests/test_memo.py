"""The seed-independent stages of a reading run once, not once per repeat.

Counted by monkeypatching the computation behind each cache, never by
timing.  Each test clears the caches it counts first.
"""

import numpy as np

from biozsim import acquire, afe, calib, cli, link
from biozsim.afe import AfeConfig, ChainParams
from biozsim.tissue import ParallelRC
from biozsim.waveforms import plan_frequencies


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_rc_sweep_computes_the_mixer_dc_once_per_load(monkeypatch):
    afe._plan_dc.cache_clear()
    calls = count_calls(monkeypatch, afe, "_rc_mixer_dc")
    scenario = cli.Scenario(model=ParallelRC(r=150.0, c=2e-9), params=ChainParams(), seed=5)
    records = cli.run_sweep(scenario, None, repeats=10)
    assert len(records) == 11
    assert len(calls) == 1
    assert list(calls[0][1]) == list(plan_frequencies())


def test_link_sessions_compute_one_stack_per_load(monkeypatch):
    # as `bioz link-demo` measures, a different RC load in each session
    afe._plan_dc.cache_clear()
    calls = count_calls(monkeypatch, afe, "_stacked_dc")
    params = ChainParams()
    rng = np.random.default_rng(12)
    for k in range(12):
        model = ParallelRC(r=float(rng.uniform(100.0, 390.0)), c=float(rng.uniform(1e-10, 1e-8)))

        def backend(word, model=model, seed=k):
            config = word.to_afe_config()
            res = acquire.run_sequence(model, plan_frequencies()[word.freq_sel], config, params,
                                       seed=seed)
            return tuple(acquire.adc_sample(0.9 + v / 2.0, acquire.AdcSpec())
                         for v in (res.v_i_dc, res.v_q_dc))

        frames = []
        for idx in range(11):
            word = link.ConfigWord(freq_sel=idx, source_enable=1, gain=0b111)
            frames += [link.Frame(link.OP_SET_CONFIG, link.encode_config(word).to_bytes(2, "big")),
                       link.Frame(link.OP_START_MEASURE), link.Frame(link.OP_READ_RESULT)]
        result = link.session(frames, device=link.ImplantDevice(measure_backend=backend))
        assert [r.opcode for r in result.responses[2::3]] == [link.OP_RESULT] * 11
    assert len(calls) == 12
    assert all(len(args[1]) == 11 for args in calls)


def test_chebyshev_designed_once_per_chain(monkeypatch):
    afe._step_response.cache_clear()
    afe._trajectory.cache_clear()
    calls = count_calls(monkeypatch, afe, "_cheby1_poles")
    chains = [ChainParams(), ChainParams(lpf_cutoff=40.0), ChainParams(), ChainParams(lpf_cutoff=40.0)]
    for seed, params in enumerate(chains):
        afe.baseband_output([(100, 1e-8)], params, 1953.125, 1, [seed])
    assert len(calls) == 2


def test_calibration_computes_one_step_response_per_chain(monkeypatch):
    # the 256-tap source-off sequences superpose no step, and the 110
    # 32-tap reads at 11 frequencies share one response
    afe._step_response.cache_clear()
    calls = count_calls(monkeypatch, afe, "_cascade_step_response")
    calib.build_equalization(calib.MeasurementSetup(model=None), seed=4, created_at="pinned")
    assert len(calls) == 1
    assert not afe._step_response(ChainParams(), calls[0][1]).flags.writeable


def test_a_shorter_step_response_is_a_prefix_of_a_longer_one():
    poles = afe._baseband_sections(ChainParams(lpf_order=5, lpf_cutoff=20.0))
    long = afe._cascade_step_response(poles, 28100)
    for n in (1, 127, 128, 5700):
        short = afe._cascade_step_response(poles, n)
        assert len(short) >= n
        assert short.tobytes() == long[: len(short)].tobytes()


def test_equal_models_share_one_mixer_entry():
    afe._plan_dc.cache_clear()
    config = AfeConfig(freq_index=6)
    f0 = config.fundamental
    first = afe.mixer_dc_pair(ParallelRC(r=120.0, c=1e-9), f0, config, ChainParams())
    second = afe.mixer_dc_pair(ParallelRC(r=120.0, c=1e-9), f0, config, ChainParams())
    info = afe._plan_dc.cache_info()
    assert first == second
    assert (info.currsize, info.hits) == (1, 1)


def test_disabled_source_bypasses_the_cache():
    afe._plan_dc.cache_clear()
    config = AfeConfig(source_enable=0)
    assert afe.mixer_dc_pair(ParallelRC(r=100.0), config.fundamental, config, ChainParams()) == (0.0, 0.0)
    assert afe._plan_dc.cache_info().currsize == 0


def count_trajectory_renders(monkeypatch):
    """Each uncached trajectory render compresses its output exactly once."""
    afe._trajectory.cache_clear()
    return count_calls(monkeypatch, afe, "apply_compression")


def test_rc_sweep_renders_one_trajectory_per_frequency(monkeypatch):
    renders = count_trajectory_renders(monkeypatch)
    scenario = cli.Scenario(model=ParallelRC(r=150.0, c=2e-9), params=ChainParams(), seed=5)
    cli.run_sweep(scenario, None, repeats=10)
    assert len(renders) == 11


def test_calibration_renders_one_offset_trajectory_and_one_per_frequency(monkeypatch):
    renders = count_trajectory_renders(monkeypatch)
    calib.build_equalization(calib.MeasurementSetup(model=None), seed=4, created_at="pinned")
    source_off = [args for args in renders if not np.any(args[0])]
    assert len(source_off) == 1
    assert len(renders) - len(source_off) == 11


def test_returned_samples_belong_to_the_caller():
    afe._trajectory.cache_clear()
    quiet = ChainParams(noise_floor=0.0, carrier_noise_v=0.0)
    steps = [(200, 1e-8), (200, -1e-8)]
    first = afe.baseband_output(steps, quiet, 1953.125, 1, [None])
    expected = first.copy()
    first[:] = 99.0
    again = afe.baseband_output(steps, quiet, 1953.125, 1, [None])
    assert afe._trajectory.cache_info().hits == 1
    assert np.array_equal(again, expected)
    again[:, 100:] = -5.0
    assert np.array_equal(afe.baseband_output(steps, quiet, 1953.125, 1, [None]), expected)


def test_rc_sweep_folds_the_noise_spectrum_once():
    afe._folded_root_spectrum.cache_clear()
    scenario = cli.Scenario(model=ParallelRC(r=150.0, c=2e-9), params=ChainParams(), seed=5)
    cli.run_sweep(scenario, None, repeats=10)
    info = afe._folded_root_spectrum.cache_info()
    assert (info.misses, info.hits) == (1, 10)
    assert not afe._folded_root_spectrum(ChainParams(), 5700, 50e3, 50).flags.writeable


def test_a_reading_shapes_its_repeats_noise_in_one_pass(monkeypatch):
    # one stack per plan frequency in a sweep; in a calibration, one per
    # gain word's offset sequences and one per frequency's reference reads
    calls = count_calls(monkeypatch, afe, "noise_process")
    scenario = cli.Scenario(model=ParallelRC(r=150.0, c=2e-9), params=ChainParams(), seed=5)
    cli.run_sweep(scenario, None, repeats=10)
    assert len(calls) == 11
    assert all(len(args[1]) == 10 for args in calls)
    calls.clear()
    calib.build_equalization(calib.MeasurementSetup(model=None), seed=4, created_at="pinned")
    assert [len(args[1]) for args in calls] == [4] * 8 + [10] * 11
