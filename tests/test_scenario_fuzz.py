"""Fuzzed scenario documents through `bioz sweep --uncalibrated --repeats 1`.

Valid documents and documents with one field set to a junk value, removed
or added must all end with a documented exit code, at most one `error:`
line and no traceback, never with a NaN in a record, and never with a
NaN or infinity cast to an ADC code.  A valid document with one key
renamed, or one number made a string or a boolean, must end at load with
exit 1 and one `error:` line.  Model fields (r, c, r_interface,
the Cole fields) and chain and schedule times are drawn over the whole
finite float range; `load_scenario` rejects any document whose sequence
would pass `cli.MAX_SEQUENCE_SAMPLES`, so none asks for more than a few
MB.  Bounded so the suite stays fast: at most 100 examples, one repeat,
one or two frequencies.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from biozsim import cli
from biozsim.waveforms import plan_frequencies

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_RANGE, cli.EXIT_BROWNOUT}


def positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


#: Any finite non-negative double, and any finite positive one.
anything = positive(0.0, sys.float_info.max)
above_zero = st.floats(0.0, sys.float_info.max, exclude_min=True, allow_infinity=False)

parallel_rc = st.fixed_dictionaries(
    {"type": st.just("parallel_rc"), "r": above_zero},
    optional={"c": anything, "r_interface": anything},
)
cole = st.builds(
    lambda r_inf, spread, tau, alpha: {"type": "cole", "r_inf": r_inf, "r0": r_inf + spread,
                                       "tau": tau, "alpha": alpha},
    above_zero, above_zero, above_zero, st.floats(0.0, 1.0, exclude_min=True),
)
builtin = st.builds(lambda name: {"type": "builtin", "name": name},
                    st.sampled_from(["blood", "muscle_transversal", "saline"]))
time_varying = st.builds(
    lambda base, r1, t: {"type": "time_varying", "base": base,
                         "schedule": {"r": [[0.0, base["r"]], [10.0, r1]]}, "time": t},
    parallel_rc, above_zero, anything,
)
chains = st.fixed_dictionaries({}, optional={
    "lna_pole": st.one_of(st.none(), positive(1e5, 1e7)),
    "compression_knee": st.one_of(st.none(), positive(0.5, 3.0)),
    "offset": positive(-0.05, 0.05),
    "noise_floor": positive(0.0, 1e-4),
    "carrier_noise_v": positive(0.0, 0.1),
    "settle_time": anything,
    "lpf_cutoff": positive(10.0, 200.0),
})
documents = st.fixed_dictionaries(
    {"model": st.one_of(parallel_rc, cole, builtin, time_varying),
     "frequencies": st.lists(st.sampled_from(plan_frequencies()), min_size=1, max_size=2,
                             unique=True)},
    optional={"chain": chains, "seed": st.integers(0, 2**32), "taps": st.integers(1, 64),
              "gain": st.sampled_from(["111", "101", "001", "000", "auto"]),
              "format": st.sampled_from(cli.OUTPUT_FORMATS)},
)
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), positive(-10.0, 10.0),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)


@st.composite
def mutated(draw):
    """A valid document with one field, top level or nested, junked, removed or added."""
    doc = draw(documents)
    owners = [doc] + [v for v in (doc["model"], doc.get("chain")) if isinstance(v, dict)]
    owner = draw(st.sampled_from(owners))
    key = draw(st.sampled_from(sorted(owner) + ["frequencies", "r"]))
    if draw(st.booleans()):
        owner.pop(key, None)
    else:
        owner[key] = draw(junk)
    return doc


def slots(node):
    """Each (container, key or index) of a JSON document, nested ones included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from slots(value)


@st.composite
def broken(draw):
    """A valid document with one key, at any depth, renamed to one no table
    declares, or one number made a string or a boolean."""
    doc = draw(documents)
    if draw(st.booleans()):
        owner, key = draw(st.sampled_from([s for s in slots(doc) if isinstance(s[0], dict)]))
        owner[key.upper()] = owner.pop(key)
    else:
        owner, key = draw(st.sampled_from([(o, k) for o, k in slots(doc)
                                           if type(o[k]) in (int, float)]))
        owner[key] = draw(st.sampled_from([str(owner[key]), True, False]))
    return doc


def sweep(doc: dict) -> tuple:
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "scenario.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["sweep", "--scenario", str(path), "--uncalibrated",
                           "--repeats", "1"])
    casts = [w for w in caught if "cast" in str(w.message)]
    return rc, out.getvalue(), err.getvalue(), casts


def record_values(text: str, fmt: str) -> list:
    if fmt == "json":
        return [v for r in json.loads(text)["records"] for v in r.values()
                if isinstance(v, float)]
    rows = text.strip().splitlines()[1:]
    return [float(x) for row in rows for x in row.split(",")[:6]]


@settings(max_examples=100, deadline=None)
@given(st.one_of(documents, mutated()))
def test_sweep_ends_cleanly(doc):
    rc, out, err, casts = sweep(doc)
    assert casts == []
    assert rc in EXIT_CODES
    assert "Traceback" not in err
    assert err.count("error:") <= 1
    if rc == cli.EXIT_OK:
        values = record_values(out, doc.get("format", "csv"))
        assert values and all(math.isfinite(v) for v in values)


@settings(max_examples=100, deadline=None)
@given(broken())
def test_broken_document_is_one_line_error(doc):
    rc, out, err, _ = sweep(doc)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
