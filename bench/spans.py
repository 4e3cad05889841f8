"""Spans for the traced run, recorded from outside the program.

`install` replaces public functions of biozsim's modules by wrappers that
record (name, parent, start, end, error) in memory.  The program finds
them through the module attribute at call time (`afe.mixer_dc_pair(...)`
in acquire, `measure_offsets(...)` inside calib), so its source stays
untouched.  `tissue`, `waveforms` and `_dsp` get no spans: their time
counts toward the afe span that calls them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import statistics
import time

import numpy as np

# (module, attribute path, span name); mixer_dc_pair is split by route.
TARGETS = (
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "format_records", "cli.format_records"),
    ("calib", "build_equalization", "calib.build_equalization"),
    ("calib", "measure_offsets", "calib.measure_offsets"),
    ("calib", "measure_impedance", "calib.measure_impedance"),
    ("acquire", "run_sequence", "acquire.run_sequence"),
    ("afe", "mixer_dc_pair", "afe.mixer_dc_pair"),
    ("afe", "baseband_output", "afe.baseband_output"),
    ("afe", "noise_process", "afe.noise_process"),
    ("link", "session", "link.session"),
    ("link", "ImplantDevice.handle", "link.ImplantDevice.handle"),
)
MIXER = "afe.mixer_dc_pair"
MIXER_ROUTES = ("rational", "spectral", "off")
SPAN_NAMES = tuple(n for _, _, n in TARGETS if n != MIXER) + tuple(
    f"{MIXER}.{r}" for r in MIXER_ROUTES)

# A p90 is reported only with at least ten calls beyond it.
P90_MIN_CALLS = 100


def value_key(obj):
    """Hashable key equal for inputs of equal value (arrays by content)."""
    if obj is None or isinstance(obj, (str, int, float, complex, enum.Enum)):
        return obj
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return tuple(value_key(o) for o in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            value_key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return (type(obj).__name__,) + tuple(
        (k, value_key(v)) for k, v in sorted(vars(obj).items()))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end, raised]
        self.mixer_inputs = set()
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr: str, name: str, route=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if route is None else f"{name}.{route(*args, **kwargs)}"
            span = [label, self._stack[-1] if self._stack else None, 0.0, 0.0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self):
        from biozsim import tissue

        def mixer_route(model, f0, config, params, include_interface=False):
            self.mixer_inputs.add(value_key((model, f0, config, params, include_interface)))
            if not config.source_enable:
                return "off"
            return "rational" if tissue.is_rational(model) else "spectral"

        for module, path, name in TARGETS:
            owner = importlib.import_module(f"biozsim.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name, mixer_route if name == MIXER else None)

    def restore(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_stats(spans, mixer_distinct: int) -> dict:
    """Per-layer metrics of one traced run, for every span name."""
    own = self_times(spans)
    by_name = {name: ([], []) for name in SPAN_NAMES}
    errors = dict.fromkeys(SPAN_NAMES, 0)
    for (name, _, start, end, raised), self_s in zip(spans, own):
        by_name[name][0].append(end - start)
        by_name[name][1].append(self_s)
        errors[name] += raised
    stats = {}
    for name, (durations, selfs) in by_name.items():
        ms = sorted(1e3 * d for d in durations)
        stats[f"{name}.calls"] = len(ms)
        stats[f"{name}.self_s"] = sum(selfs)
        stats[f"{name}.p50_ms"] = statistics.median(ms) if ms else 0.0
        stats[f"{name}.p90_ms"] = (
            statistics.quantiles(ms, n=10)[-1] if len(ms) >= P90_MIN_CALLS else 0.0)
        stats[f"{name}.errors"] = errors[name]
    mixer_calls = sum(stats[f"{MIXER}.{r}.calls"] for r in MIXER_ROUTES)
    stats[f"{MIXER}.calls"] = mixer_calls
    stats[f"{MIXER}.distinct_frac"] = mixer_distinct / mixer_calls if mixer_calls else 0.0
    return stats
