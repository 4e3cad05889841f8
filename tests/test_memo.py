"""The seed-independent stages of a reading run once, not once per repeat.

Counted by monkeypatching the computation behind each cache, never by
timing.  Each test clears the caches it counts first.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from biozsim import acquire, afe, calib, cli, link
from biozsim.afe import AfeConfig, ChainParams
from biozsim.tissue import ColeModel, ParallelRC, TabulatedTwoPort, builtin_model
from biozsim.waveforms import plan_frequencies


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("model", [
    ParallelRC(r=150.0, c=2e-9),
    ColeModel(r_inf=50.0, r0=500.0, tau=1e-5),
    ColeModel(r_inf=50.0, r0=500.0, tau=1e-5, alpha=0.8),
    builtin_model("blood"),
], ids=["rc", "cole_alpha_1", "cole", "blood"])
def test_sweep_computes_the_mixer_dc_once_per_load(monkeypatch, model):
    afe._plan_dc.cache_clear()
    calls = count_calls(monkeypatch, afe, "_image_dc")
    scenario = cli.Scenario(model=model, params=ChainParams(), seed=5)
    records = cli.run_sweep(scenario, None, repeats=10)
    assert len(records) == 11
    assert len(calls) == 1
    assert list(calls[0][1]) == list(plan_frequencies())


def test_a_short_table_evaluates_the_plan_once(monkeypatch):
    # blood cut at 120 MHz misses the images of plan indices 0-2: the plan
    # is evaluated once and kept as None, and each covered index, 3-10,
    # then computes its own row alone
    full = builtin_model("blood")
    keep = full.freqs_hz <= 120e6
    short = TabulatedTwoPort(full.freqs_hz[keep], full.z21[keep])
    afe._plan_dc.cache_clear()
    calls = count_calls(monkeypatch, afe, "_image_dc")
    scenario = cli.Scenario(model=short, params=ChainParams(), seed=5, indices=tuple(range(3, 11)))
    records = cli.run_sweep(scenario, None, repeats=10)
    assert len(records) == 8
    assert [len(args[1]) for args in calls] == [11] + [1] * 8
    assert afe._plan_dc(short, "111", ChainParams()) is None


def test_link_sessions_compute_one_stack_per_load(monkeypatch):
    # as `bioz link-demo` measures, a different RC load in each session
    afe._plan_dc.cache_clear()
    calls = count_calls(monkeypatch, afe, "_image_dc")
    renders = count_renders(monkeypatch)
    params = ChainParams()
    rng = np.random.default_rng(12)
    for k in range(12):
        model = ParallelRC(r=float(rng.uniform(100.0, 390.0)), c=float(rng.uniform(1e-10, 1e-8)))

        def backend(word, model=model, seed=k):
            config = word.to_afe_config()
            res = acquire.run_sequence(model, plan_frequencies()[word.freq_sel], config, params,
                                       taps=acquire.TAPS, seed=seed)
            return acquire.pin_code(res.v_i_dc), acquire.pin_code(res.v_q_dc)

        frames = []
        for idx in range(11):
            word = link.ConfigWord(freq_sel=idx, source_enable=1, gain=0b111)
            frames += [link.Frame(link.OP_SET_CONFIG, link.encode_config(word).to_bytes(2, "big")),
                       link.Frame(link.OP_START_MEASURE), link.Frame(link.OP_READ_RESULT)]
        result = link.session(frames, link.ChannelParams(), link.PowerState(),
                              link.ImplantDevice(measure_backend=backend))
        assert [r.opcode for r in result.responses[2::3]] == [link.OP_RESULT] * 11
    assert len(calls) == 12
    assert all(len(args[1]) == 11 for args in calls)
    assert len(renders) == 12
    assert all(rows_of(args) == 11 for args in renders)


def test_link_sessions_build_no_constant_frame_and_decode_each_word_once(monkeypatch):
    # 12 sessions of 11 frequencies each, as `bioz link-demo` measures,
    # with a PING and a corrupt PING each: the ACKs and NAKs are the
    # module's constants, and each config word is decoded and mapped to
    # its front-end configuration once
    params, model = ChainParams(), ParallelRC(r=150.0, c=2e-9)
    plan = plan_frequencies()

    def backend(word, seed):
        config = word.to_afe_config()
        res = acquire.run_sequence(model, plan[word.freq_sel], config, params, taps=acquire.TAPS,
                                   seed=seed)
        return acquire.pin_code(res.v_i_dc), acquire.pin_code(res.v_q_dc)

    frames = [link.Frame(link.OP_PING, b"\x5a"), link.Frame(link.OP_PING, b"\x00", corrupt=True)]
    for idx in range(11):
        word = link.ConfigWord(freq_sel=idx, source_enable=1, gain=0b111)
        frames += [link.Frame(link.OP_SET_CONFIG, link.encode_config(word).to_bytes(2, "big")),
                   link.Frame(link.OP_START_MEASURE), link.Frame(link.OP_READ_RESULT)]

    def run_sessions():
        for k in range(12):
            device = link.ImplantDevice(measure_backend=lambda word, k=k: backend(word, k))
            result = link.session(frames, link.ChannelParams(), link.PowerState(), device)
            assert [r.opcode for r in result.responses[4::3]] == [link.OP_RESULT] * 11

    run_sessions()  # the load's plan tables, which build a configuration of their own
    link._decode_config.cache_clear()
    link.ConfigWord.to_afe_config.cache_clear()
    built = count_calls(monkeypatch, link.Frame, "__post_init__")
    words = count_calls(monkeypatch, link.ConfigWord, "__post_init__")
    configs = count_calls(monkeypatch, AfeConfig, "__post_init__")
    run_sessions()
    assert sorted({frame.opcode for frame, in built}) == [link.OP_RESULT, link.OP_PONG]
    assert len(built) == 12 * (1 + 11)
    assert len(words) == 11
    assert len(configs) == 11


def test_a_sweep_computes_one_step_response(monkeypatch, tmp_path, capsys):
    # load_scenario's settling check reads the response the sequences render
    afe._step_response.cache_clear()
    afe._plan_lattice.cache_clear()
    calls = count_calls(monkeypatch, afe, "_cascade_step_response")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"model": {"type": "parallel_rc", "r": 150.0, "c": 2e-9}}))
    argv = ["sweep", "--scenario", str(scenario), "--uncalibrated", "--repeats", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 12
    assert len(calls) == 1


def test_chebyshev_designed_once_per_chain(monkeypatch):
    afe._step_response.cache_clear()
    calls = count_calls(monkeypatch, afe, "_cheby1_poles")
    chains = [ChainParams(), ChainParams(lpf_cutoff=40.0), ChainParams(), ChainParams(lpf_cutoff=40.0)]
    for params in chains:
        afe._render([(100, 1e-8)], params, 1)
    assert len(calls) == 2


def test_calibration_computes_one_step_response_per_chain(monkeypatch):
    # the 256-tap source-off sequences superpose no step, and the 110
    # 32-tap reads at 11 frequencies share one response
    afe._step_response.cache_clear()
    calls = count_calls(monkeypatch, afe, "_cascade_step_response")
    calib.build_equalization(calib.MeasurementSetup(model=None), 100.0, "111", seed=4,
                             created_at="pinned")
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


def count_renders(monkeypatch):
    """Each uncached noise-free lattice is one `_render` call."""
    afe._plan_lattice.cache_clear()
    return count_calls(monkeypatch, afe, "_render")


def rows_of(render_args):
    """Rows a `_render` call renders at once: the size of its levels."""
    steps = render_args[0]
    return np.size(steps[0][1])


def test_rc_sweep_renders_one_plan_lattice_per_load(monkeypatch):
    renders = count_renders(monkeypatch)
    for r in (150.0, 220.0):
        scenario = cli.Scenario(model=ParallelRC(r=r, c=2e-9), params=ChainParams(), seed=5)
        cli.run_sweep(scenario, None, repeats=10)
    assert [rows_of(args) for args in renders] == [11, 11]
    assert afe._plan_lattice.cache_info().hits == 2 * 11 - 2


def test_calibration_renders_one_lattice_for_its_reference_reads(monkeypatch):
    # a source-off sequence makes no step, so its lattice is the offset and
    # nothing is rendered; the 11 frequencies of reference reads share one
    # plan lattice
    renders = count_renders(monkeypatch)
    calib.build_equalization(calib.MeasurementSetup(model=None), 100.0, "111", seed=4,
                             created_at="pinned")
    assert [rows_of(args) for args in renders] == [11]


def test_a_sequence_too_long_for_the_lattice_budget_renders_alone(monkeypatch):
    # the default 32-tap reading's plan lattice is 11 rows of 114 doubles
    monkeypatch.setattr(afe, "_LATTICE_ENTRY_DOUBLES", 11 * 114)
    renders = count_renders(monkeypatch)
    setup = calib.MeasurementSetup(model=ParallelRC(r=150.0, c=2e-9))
    for taps in (32, 33, 32):
        replace(setup, taps=taps).run([AfeConfig.from_gain_word("111", freq_index=4)], [[1, 2]])
    assert [rows_of(args) for args in renders] == [11, 1]
    info = afe._plan_lattice.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_the_lattice_cache_holds_at_most_4e6_doubles(tmp_path):
    # the longest sequence a scenario may ask for: cli.MAX_SEQUENCE_SAMPLES
    # output samples at a lattice stride of 1 (output_rate 1 kHz, 256 taps)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": {"type": "parallel_rc", "r": 100.0},
                                "chain": {"output_rate": 1000.0, "settle_time": 499.744}}))
    params = cli.load_scenario(path).params
    settle_n, spacing_n, phase_n = acquire._phase_samples(params, calib.OFFSET_TAPS)
    assert (2 * phase_n, math.gcd(settle_n, spacing_n)) == (cli.MAX_SEQUENCE_SAMPLES, 1)
    # 11 rows of it would not fit an entry, so no entry is larger than the
    # budget, and the cache holds at most 4 x 10^6 doubles (32 MB)
    assert 11 * cli.MAX_SEQUENCE_SAMPLES > afe._LATTICE_ENTRY_DOUBLES
    assert afe._LATTICE_CACHE_SIZE * afe._LATTICE_ENTRY_DOUBLES <= 4 * 10**6
    assert afe._plan_lattice.cache_info().maxsize == afe._LATTICE_CACHE_SIZE


def test_returned_samples_belong_to_the_caller():
    afe._plan_lattice.cache_clear()
    quiet = ChainParams(noise_floor=0.0, carrier_noise_v=0.0)
    model, config = ParallelRC(r=150.0, c=2e-9), AfeConfig(freq_index=10)
    dc = afe.mixer_dc_pair(model, config.fundamental, config, quiet)

    def output(params):
        lattice = afe._sequence_lattice(model, config, quiet, dc, 200, 1)
        assert not lattice.flags.writeable
        return afe.baseband_output([lattice], params, [config], [[None, 3]], stride=1)

    first = output(quiet)
    expected = first.copy()
    first[:] = 99.0
    again = output(quiet)
    assert afe._plan_lattice.cache_info().hits == 1
    assert np.array_equal(again, expected)
    again[:, 100:] = -5.0
    noisy = output(replace(quiet, carrier_noise_v=0.036))
    noisy[:] = 7.0
    assert np.array_equal(output(quiet), expected)


def test_rc_sweep_folds_the_noise_spectrum_once():
    # one noise pass for the whole sweep: the spectrum is folded once and
    # not looked up again
    afe._folded_root_spectrum.cache_clear()
    scenario = cli.Scenario(model=ParallelRC(r=150.0, c=2e-9), params=ChainParams(), seed=5)
    cli.run_sweep(scenario, None, repeats=10)
    info = afe._folded_root_spectrum.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    assert not afe._folded_root_spectrum(ChainParams(), 5700, 50e3, 50).flags.writeable


def test_a_reading_shapes_its_repeats_noise_in_one_pass(monkeypatch):
    # one stack per gain word: a fixed-gain sweep is one pass of 11 x 10
    # rows; a calibration is one pass of its gain word's 4 offset sequences
    # and one of its 11 x 10 reference reads
    calls = count_calls(monkeypatch, afe, "noise_process")
    scenario = cli.Scenario(model=ParallelRC(r=150.0, c=2e-9), params=ChainParams(), seed=5)
    cli.run_sweep(scenario, None, repeats=10)
    assert [len(args[1]) for args in calls] == [110]
    calls.clear()
    calib.build_equalization(calib.MeasurementSetup(model=None), 100.0, "111", seed=4,
                             created_at="pinned")
    assert [len(args[1]) for args in calls] == [4, 110]


def test_an_auto_gain_sweep_runs_one_pass_per_chosen_word(monkeypatch):
    # the 11 pilots are one pass; then one pass per word the pilots chose
    calls = count_calls(monkeypatch, afe, "noise_process")
    scenario = cli.Scenario(model=ParallelRC(r=1000.0, c=1e-9), params=ChainParams(), seed=5,
                            gain="auto")
    records = cli.run_sweep(scenario, None, repeats=10)
    words = list(dict.fromkeys(r["gain_word"] for r in records))  # in frequency order
    assert len(words) > 1
    assert len(calls) == 1 + len(words)
    assert [len(args[1]) for args in calls] == [11] + [
        10 * sum(r["gain_word"] == w for r in records) for w in words]


def test_sweeps_and_calibrations_build_no_seed_sequence(monkeypatch, tmp_path):
    # every seed of a sweep and a calibration comes as precomputed words:
    # no SeedSequence is built, and no generator is seeded from an int
    # (which builds one inside numpy); a link demo seeds each measurement
    # by its stream tuple (seed, plan index, repeat), one per measurement
    built, seeded = [], []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    real_rng = afe.default_rng

    def counting_rng(seed):
        if not isinstance(seed, np.random.Generator):
            seeded.append(seed)
        if not isinstance(seed, (ISeedSequence, np.random.Generator)):
            built.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    monkeypatch.setattr(afe, "default_rng", counting_rng)
    for gain in ("111", "auto"):
        scenario = cli.Scenario(model=ParallelRC(r=1000.0, c=1e-9), params=ChainParams(),
                                seed=2**40 + 3, gain=gain)
        cli.run_sweep(scenario, None, repeats=10)
    calib.build_equalization(calib.MeasurementSetup(model=None), 100.0, "111", seed=4,
                             created_at="pinned")
    assert built == []
    # two measurements at one plan index and one at another
    measure = [{"op": "start_measure"}, {"op": "read_result"}]
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"op": "set_config", "freq_sel": 3}, *measure, *measure,
                                  {"op": "set_config", "freq_sel": 9}, *measure]))
    seeded.clear()
    assert cli.main(["link-demo", "--script", str(script), "--seed", "7"]) == cli.EXIT_OK
    assert seeded == [(7, 3, 0), (7, 3, 1), (7, 9, 0)]  # one seed per measurement
    assert built == seeded
    built.clear()
    # the counters do see a seed that is not words
    config = AfeConfig(freq_index=4, source_enable=0)
    acquire.run_sequence(None, config.fundamental, config, ChainParams(), taps=acquire.TAPS, seed=3)
    assert built and built[0] == 3
