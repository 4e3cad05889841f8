"""The seed-independent stages of a reading run once, not once per repeat.

Counted by monkeypatching the computation behind each cache, never by
timing.  Each test clears the caches it counts first.
"""

from biozsim import afe, cli
from biozsim.afe import AfeConfig, ChainParams
from biozsim.tissue import ParallelRC, TimeVaryingModel


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_rc_sweep_computes_mixer_dc_once_per_frequency(monkeypatch):
    afe._mixer_dc.cache_clear()
    calls = count_calls(monkeypatch, afe, "gated_mean_exact")
    scenario = cli.Scenario(model=ParallelRC(r=150.0, c=2e-9), params=ChainParams(), seed=5)
    records = cli.run_sweep(scenario, None, repeats=10)
    assert len(records) == 11
    assert len(calls) == 11


def test_chebyshev_designed_once_per_chain(monkeypatch):
    afe._baseband_filters.cache_clear()
    calls = count_calls(monkeypatch, afe.signal, "cheby1")
    chains = [ChainParams(), ChainParams(lpf_cutoff=40.0), ChainParams(), ChainParams(lpf_cutoff=40.0)]
    for seed, params in enumerate(chains):
        afe.baseband_output([(100, 1e-8)], params, 1953.125, 1, seed)
    assert len(calls) == 2
    for coeffs in afe._baseband_filters(ChainParams()):
        assert not coeffs.flags.writeable


def test_equal_models_share_one_mixer_entry():
    afe._mixer_dc.cache_clear()
    config = AfeConfig(freq_index=6)
    f0 = config.fundamental
    first = afe.mixer_dc_pair(ParallelRC(r=120.0, c=1e-9), f0, config, ChainParams())
    second = afe.mixer_dc_pair(ParallelRC(r=120.0, c=1e-9), f0, config, ChainParams())
    info = afe._mixer_dc.cache_info()
    assert first == second
    assert (info.currsize, info.hits) == (1, 1)


def test_time_varying_model_keys_on_its_t0_snapshot():
    afe._mixer_dc.cache_clear()
    base = ParallelRC(r=120.0, c=1e-9)
    moving = TimeVaryingModel(base=base, schedule={"r": [(0.0, 120.0), (1.0, 240.0)]})
    config = AfeConfig(freq_index=3)
    f0 = config.fundamental
    assert afe.mixer_dc_pair(moving, f0, config, ChainParams()) == afe.mixer_dc_pair(
        base, f0, config, ChainParams())
    assert afe._mixer_dc.cache_info().currsize == 1


def test_disabled_source_bypasses_the_cache():
    afe._mixer_dc.cache_clear()
    config = AfeConfig(source_enable=0)
    assert afe.mixer_dc_pair(ParallelRC(r=100.0), config.fundamental, config, ChainParams()) == (0.0, 0.0)
    assert afe._mixer_dc.cache_info().currsize == 0
