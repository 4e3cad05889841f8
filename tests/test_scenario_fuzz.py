"""Fuzzed scenario documents through `bioz sweep --uncalibrated --repeats 1`.

Valid documents and documents with one field set to a junk value, removed
or added must all end with a documented exit code, at most one `error:`
line and no traceback, never with a NaN in a record, and never with a
NaN or infinity cast to an ADC code.  A valid document with one key
renamed, or one number made a string or a boolean, must end at load with
exit 1 and one `error:` line, and so must one that lists a plan
frequency twice.  Model fields (r, c, r_interface,
the Cole fields) and chain and schedule times are drawn over the whole
finite float range; `load_scenario` rejects any document whose sequence
would pass `cli.MAX_SEQUENCE_SAMPLES`, so none asks for more than a few
MB.  Bounded so the suite stays fast: at most 100 examples, one repeat,
one or two frequencies.

A calibration table as `to_json` writes it, with one key at any depth
dropped or added or one value swapped for another kind, must end `bioz
sweep --cal` at one frequency with exit 0 or 1, at most one `error:` line
and no traceback; every key `to_json` writes is declared in the table's
field tables.
"""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from biozsim import calib, cli
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
    lambda r, tau, alpha: {"type": "cole", "r_inf": r[0], "r0": r[1], "tau": tau, "alpha": alpha},
    st.lists(above_zero, min_size=2, max_size=2, unique=True).map(sorted), above_zero,
    st.floats(0.0, 1.0, exclude_min=True),
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


def sweep(doc: dict, table=None) -> tuple:
    """`bioz sweep` on the scenario `doc`, through the calibration table
    document `table` if one is given, else uncalibrated."""
    with tempfile.TemporaryDirectory() as workdir:
        path, cal = Path(workdir) / "scenario.json", Path(workdir) / "table.json"
        path.write_text(json.dumps(doc))
        if table is not None:
            cal.write_text(json.dumps(table))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["sweep", "--scenario", str(path), "--repeats", "1",
                           *(["--uncalibrated"] if table is None else ["--cal", str(cal)])])
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


@settings(max_examples=200, deadline=None)
@given(documents)
def test_every_drawn_model_loads(doc):
    # the strategies draw only valid models, so a valid document fails
    # nowhere at load
    cli.build_model(doc["model"], Path("."))


@settings(max_examples=100, deadline=None)
@given(broken())
def test_broken_document_is_one_line_error(doc):
    rc, out, err, _ = sweep(doc)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=30, deadline=None)
@given(documents, st.data())
def test_a_frequency_given_twice_is_one_line_error(doc, data):
    # once as listed and once more, exactly or within the 1e-6 plan match;
    # the model is one that loads, so the repeat is the document's one fault
    doc["model"] = {"type": "parallel_rc", "r": 100.0}
    freq = data.draw(st.sampled_from(doc["frequencies"]))
    again = freq * (1 + data.draw(st.sampled_from([0.0, 5e-7, -5e-7])))
    doc["frequencies"].insert(data.draw(st.integers(0, len(doc["frequencies"]))), again)
    rc, out, err, _ = sweep(doc)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and "given twice" in err and err.count("\n") == 1


#: A calibration table with every gain word's offset, as `to_json` writes it.
TABLE = json.loads(calib.CalibrationTable(
    reference_r=100.0, gain_word="111", offsets={w: (0.012, -0.003) for w in calib.GAIN_WORDS},
    eq_coeffs={f: 1.02 - 0.01j for f in plan_frequencies()}, created_at="t").to_json())


def test_table_keys_are_declared():
    declared = {*calib._TABLE, *calib._OFFSETS, *calib._OFFSET, *calib._COEFF}
    assert {key for owner, key in slots(TABLE) if isinstance(owner, dict)} <= declared


@st.composite
def mutated_table(draw):
    """`TABLE` with one key or entry, at any depth, dropped or added, or
    its value swapped for one of another kind."""
    doc = copy.deepcopy(TABLE)
    owner, key = draw(st.sampled_from(list(slots(doc))))
    change = draw(st.sampled_from(["drop", "add", "swap"]))
    if change == "drop":
        del owner[key]
    elif change == "add" and isinstance(owner, list):
        owner.append(draw(junk))
    else:
        value = draw(junk.filter(lambda v: type(v) is not type(owner[key])))
        owner["spare" if change == "add" else key] = value
    return doc


@settings(max_examples=50, deadline=None)
@given(mutated_table(), st.sampled_from(plan_frequencies()))
def test_mutated_calibration_table_ends_cleanly(table, freq):
    scenario = {"model": {"type": "parallel_rc", "r": 100.0}, "frequencies": [freq]}
    rc, _, err, _ = sweep(scenario, table)
    assert rc in {cli.EXIT_OK, cli.EXIT_USAGE}
    assert "Traceback" not in err
    assert err.count("error:") <= 1
