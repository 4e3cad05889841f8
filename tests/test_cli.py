import contextlib
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biozsim import cli
from biozsim.afe import ChainParams
from biozsim.calib import GAIN_WORDS, CalibrationTable, measure_offsets
from biozsim.tissue import ParallelRC
from biozsim.waveforms import plan_frequencies

from reference import argparse_args


def write_scenario(tmp_path, name="scen.json", **overrides):
    doc = {
        "model": {"type": "parallel_rc", "r": 100.0, "c": 0.0},
        "seed": 99,
        "taps": 32,
        "gain": "111",
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def table_text(**changes) -> str:
    """A well-formed calibration table's JSON text with `changes` to its
    top-level fields."""
    table = CalibrationTable(reference_r=100.0, gain_word="111", offsets={"111": (0.01, 0.01)},
                             eq_coeffs={f: 1.0 + 0j for f in plan_frequencies()},
                             created_at="t")
    return json.dumps({**json.loads(table.to_json()), **changes})


@pytest.fixture
def r100_scenario(tmp_path):
    return write_scenario(tmp_path)


@pytest.fixture
def cal_table(tmp_path, r100_scenario):
    out = tmp_path / "cal.json"
    rc = cli.main([
        "calibrate", "--scenario", str(r100_scenario), "--out", str(out),
        "--created-at", "pinned",
    ])
    assert rc == cli.EXIT_OK
    return out


class TestPlan:
    def test_prints_all_eleven(self, capsys):
        assert cli.main(["plan"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "2000000.000" in out
        assert "1953.125" in out
        assert len(out.strip().splitlines()) == 12  # header + 11 rows


class TestScenario:
    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main([
            "sweep", "--scenario", str(tmp_path / "nope.json"), "--uncalibrated",
        ])
        assert rc == cli.EXIT_USAGE

    def test_bad_model_type(self, tmp_path):
        path = write_scenario(tmp_path, model={"type": "warp_core"})
        assert cli.main(["sweep", "--scenario", str(path), "--uncalibrated"]) == cli.EXIT_USAGE

    def test_missing_table_file(self, tmp_path):
        path = write_scenario(tmp_path, model={"type": "table", "path": "missing.z21"})
        assert cli.main(["sweep", "--scenario", str(path), "--uncalibrated"]) == cli.EXIT_USAGE

    def test_chain_override_rejected_when_unknown(self, tmp_path):
        path = write_scenario(tmp_path, chain={"bogus_knob": 1.0})
        assert cli.main(["sweep", "--scenario", str(path), "--uncalibrated"]) == cli.EXIT_USAGE

    def test_builtin_model_loads(self, tmp_path):
        path = write_scenario(
            tmp_path, model={"type": "builtin", "name": "saline"},
            frequencies=[1953.125],
        )
        assert cli.main(["sweep", "--scenario", str(path), "--uncalibrated"]) == cli.EXIT_OK

    @pytest.mark.parametrize("verb", ["sweep", "calibrate"])
    def test_integral_float_lpf_order_runs(self, tmp_path, capsys, verb):
        path = write_scenario(tmp_path, chain={"lpf_order": 4.0}, frequencies=[1953.125])
        args = {"sweep": ["--uncalibrated", "--repeats", "1"],
                "calibrate": ["--out", str(tmp_path / "t.json"), "--created-at", "pinned"]}[verb]
        assert cli.main([verb, "--scenario", str(path), *args]) == cli.EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

    def test_non_plan_frequency_rejected(self, tmp_path):
        path = write_scenario(tmp_path, frequencies=[1234.5])
        assert cli.main(["sweep", "--scenario", str(path), "--uncalibrated"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("overrides", [
        {"model": {"type": "parallel_rc", "c": 0.0}},
        {"model": {"type": "parallel_rc", "r": -5.0}},
        {"model": {"type": "parallel_rc", "r": float("nan")}},
        {"model": {"type": "cole", "r_inf": 50.0, "r0": 100.0, "tau": float("nan")}},
        {"model": {"type": "builtin", "name": "plasma"}},
        {"chain": {"settle_time": -0.01}},
        {"chain": {"lpf_cutoff": [50.0]}},
        {"chain": {"lpf_cutoff": float("nan")}},
        {"chain": {"rf_oversampling": 16}},
        {"chain": {"lpf_order": 2.5}},
        {"chain": {"output_rate": 0}},
        {"chain": {"lpf_cutoff": 30000}},
        {"chain": {"tia_pole": -10}},
        {"chain": {"compression_knee": 0}},
        {"chain": {"lna_pole": 0}},
        {"seed": "x"},
        {"seed": -1},
        {"taps": "x"},
        {"taps": 2.5},
        {"frequencies": "abc"},
        {"model": {"type": "time_varying", "base": 5, "schedule": {}}},
        {"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                   "schedule": [["r", 1]]}},
        {"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                   "schedule": {"r": [[1.0, 100.0], [1.0, 200.0]]}}},
        {"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                   "schedule": {"r": [[0.0, 100.0], [float("nan"), 200.0]]}}},
        # the JSON number 1e309 parses to inf, as this override's Infinity does
        {"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                   "schedule": {"r": [[0, 100], [float("inf"), 200]]}, "time": 5.0}},
        {"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                   "schedule": {"x": [[0.0, 1.0]]}}},
        {"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                   "schedule": {"tau": [[0.0, 1e-6], [1.0, 2e-6]]}}},
        {"model": {"type": "time_varying", "base": {"type": "builtin", "name": "blood"},
                   "schedule": {}}},
        {"gain": "11x"},
        {"format": "xml"},
        {"format": ["csv"]},
        {"chain": {"settle_time": 1e308}},
        {"chain": {"settle_time": 1e3}},
        {"taps": 1e6},
        {"chain": {"output_rate": 150.0}},
        {"chain": {"output_rate": 1400.0}},
        # the model's own time: JSON 1e309 and -1e309 parse to +/-inf
        *({"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                     "schedule": {"r": [[0.0, 100.0], [10.0, 200.0]]}, "time": t}}
          for t in (float("inf"), -float("inf"), float("nan"), "5", True)),
        # a JSON integer beyond the float range
        {"chain": {"offset": 10**400}},
        {"taps": 10**400},
        # only declared keys, and numbers as JSON numbers
        {"model": {"type": "parallel_rc", "r": 100.0, "C": 1e-6}},
        {"seeds": 5},
        {"time": 5.0},
        {"model": {"type": "cole", "r_inf": 50.0, "r0": 100.0, "tau": 1e-6, "beta": 2}},
        {"model": {"type": "parallel_rc", "r": "100"}},
        {"model": {"type": "parallel_rc", "r": True}},
        {"gain": 111},
        {"model": {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0},
                   "schedule": {"r": [["0", 100.0], [10.0, 200.0]]}}},
        {"frequencies": [1000.0]},
        {"model": {"type": "table", "path": "."}},
        {"frequencies": [1953.125, 2e6, 1953.125]},
        {"frequencies": [1953.125, 1953.1251]},
    ], ids=["missing_r", "negative_r", "nan_r", "nan_tau", "unknown_builtin",
            "negative_settle_time", "list_chain_value", "nan_chain_value",
            "removed_rf_oversampling", "fractional_lpf_order", "zero_output_rate",
            "lpf_cutoff_above_nyquist", "negative_tia_pole", "zero_compression_knee",
            "zero_lna_pole", "string_seed", "negative_seed", "string_taps", "fractional_taps",
            "string_frequencies", "time_varying_base_not_object",
            "time_varying_schedule_not_object", "time_varying_times_not_increasing",
            "time_varying_nan_time", "time_varying_infinite_time", "time_varying_unknown_parameter",
            "time_varying_property_not_field", "time_varying_builtin_base", "bad_gain_word",
            "unknown_format",
            "list_format", "overflowing_settle_time", "hour_long_settle_time",
            "million_taps", "output_rate_below_tap_rate", "output_rate_off_tap_lattice",
            "time_varying_infinite_model_time", "time_varying_negative_infinite_model_time",
            "time_varying_nan_model_time", "time_varying_string_model_time",
            "time_varying_bool_model_time", "integer_beyond_float_chain_value",
            "integer_beyond_float_taps", "misspelt_c", "top_level_seeds", "top_level_time",
            "cole_beta", "string_r", "bool_r", "numeric_gain", "string_schedule_time",
            "off_plan_frequency", "table_path_is_a_directory", "plan_frequency_twice",
            "plan_frequency_twice_within_match"])
    def test_malformed_scenario_one_line_error(self, tmp_path, capsys, monkeypatch, overrides):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: calls.append(a))
        path = write_scenario(tmp_path, **{"frequencies": [1953.125], **overrides})
        rc = cli.main(["sweep", "--scenario", str(path), "--uncalibrated", "--repeats", "2"])
        captured = capsys.readouterr()
        assert calls == []  # rejected at load, before any measurement
        assert rc == cli.EXIT_USAGE
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("rows", ["nan 100.0 0.0\n1e7 90.0 -5.0\n",
                                      "1e3 100.0 0.0\ninf 90.0 -5.0\n",
                                      "1e3 nan 0.0\n1e7 90.0 -5.0\n"],
                             ids=["nan_frequency", "inf_frequency", "nan_impedance"])
    def test_non_finite_table_row_one_line_error(self, tmp_path, capsys, rows):
        (tmp_path / "electrode.z21").write_text(rows)
        path = write_scenario(tmp_path, model={"type": "table", "path": "electrode.z21"})
        rc = cli.main(["sweep", "--scenario", str(path), "--uncalibrated"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "error: bad model: frequencies and impedances must be finite\n"

    @pytest.mark.parametrize("field, value", [
        ("lpf_ripple_db", 4.8e-16), ("lpf_ripple_db", 3083.0), ("noise_floor", 1.35e154),
        ("lpf_order", 7), ("lpf_order", 1000), ("lpf_order", 3000), ("lpf_order", 10**6),
        ("tia_gain", 1e-300), ("tia_gain", 1e-200), ("lpf_gain", 1e-250),
        ("settle_time", 1e305),
    ])
    def test_unrunnable_chain_one_line_error(self, tmp_path, capsys, monkeypatch, field, value):
        # refused where ChainParams is built: no order above 6 ever reaches the engine
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: calls.append(a))
        path = write_scenario(tmp_path, chain={field: value})
        rc = cli.main(["sweep", "--scenario", str(path), "--uncalibrated"])
        captured = capsys.readouterr()
        assert (rc, captured.out, calls) == (cli.EXIT_USAGE, "", [])
        assert captured.err.startswith("error: bad chain parameters: ")
        assert field in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("chain", [{"tia_pole": 1e-6}, {"settle_time": 0.0},
                                       {"lpf_cutoff": 1e-6}, {"lpf_ripple_db": 20.0}])
    def test_unsettled_chain_one_line_error(self, tmp_path, capsys, monkeypatch, chain):
        # 100%, 100%, 100% and 54% off at the first tap: through a 1 uHz TIA
        # pole this 100 ohm load once read 3.79 ohm, exit 0, unflagged
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: calls.append(a))
        path = write_scenario(tmp_path, chain=chain, frequencies=[1953.125])
        rc = cli.main(["sweep", "--scenario", str(path), "--uncalibrated"])
        captured = capsys.readouterr()
        assert (rc, captured.out, calls) == (cli.EXIT_USAGE, "", [])
        assert captured.err.startswith("error: the chain does not settle: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("chain", [{}, {"lpf_order": 6}, {"lpf_ripple_db": 3.0}])
    def test_settled_chain_loads(self, tmp_path, chain):
        # 0.25%, 19% and 7% off at the first tap
        cli.load_scenario(write_scenario(tmp_path, chain=chain))

    @pytest.mark.parametrize("overrides,message", [
        ({"frequencies": [1234.5]}, "plan frequency"),
        ({"frequencies": [1953.125, 1953.125]}, "given twice"),
        ({"taps": 10**6}, "would exceed"),
        ({"seed": -1}, "seed must be"),
    ])
    def test_settling_is_checked_last(self, tmp_path, overrides, message):
        path = write_scenario(tmp_path, chain={"tia_pole": 1e-6}, **overrides)
        with pytest.raises(cli.ScenarioError, match=message):
            cli.load_scenario(path)

    @pytest.mark.parametrize("text", ["", "# freq_hz re_ohm im_ohm\n\n# no rows yet\n"],
                             ids=["empty", "comments_only"])
    def test_table_without_rows_one_line_error(self, tmp_path, capsys, text):
        (tmp_path / "electrode.z21").write_text(text)
        path = write_scenario(tmp_path, model={"type": "table", "path": "electrode.z21"})
        rc = cli.main(["sweep", "--scenario", str(path), "--uncalibrated"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "error: bad model: the table has no rows\n"

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}",
                                         b'{"seed": 1' + b"0" * 5000 + b"}"],
                             ids=["directory", "not_utf8", "integer_past_the_digit_limit"])
    def test_unreadable_scenario_one_line_error(self, tmp_path, capsys, content):
        path = tmp_path / "scen.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert cli.main(["sweep", "--scenario", str(path), "--uncalibrated"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["sweep", "calibrate", "link-demo"])
    def test_negative_seed_option_one_line_error(self, tmp_path, capsys, r100_scenario, verb):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"op": "ping"}]))
        args = {"sweep": ["--scenario", str(r100_scenario), "--uncalibrated"],
                "calibrate": ["--scenario", str(r100_scenario), "--out", str(tmp_path / "t.json")],
                "link-demo": ["--script", str(script)]}[verb]
        assert cli.main([verb, *args, "--seed", "-1"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def docstring_examples() -> list:
    """The scenario examples of the `cli` module docstring, comments
    stripped and a bare `"model"` member wrapped into a document."""
    texts = [re.sub(r"#.*", "", block).strip()
             for block in re.findall(r"::\n\n(.*?)\n\n", cli.__doc__, re.S)]
    return [json.loads(t if t.startswith("{") else "{" + t + "}") for t in texts]


def keys(node):
    """Every object key in a JSON document, nested ones included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from keys(value)


@pytest.mark.parametrize("doc", docstring_examples(), ids=["scenario", "time_varying"])
def test_docstring_examples_show_declared_keys_and_load(tmp_path, doc):
    declared = {*cli._SCENARIO, *cli._CHAIN, *(k for table in cli._MODELS.values() for k in table)}
    assert set(keys(doc)) <= declared
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    cli.load_scenario(path)


class TestTimeVarying:
    """A time_varying model is its base with each scheduled field taken,
    piecewise linearly, at the model object's `time`."""

    def model(self, tmp_path, **spec):
        return cli.build_model({"type": "time_varying",
                                "base": {"type": "parallel_rc", "r": 120.0, "c": 1e-9},
                                "schedule": {"r": [[0.0, 1000.0], [10.0, 2000.0]]}, **spec},
                               tmp_path)

    @pytest.mark.parametrize("spec, r", [({}, 1000.0), ({"time": 0.0}, 1000.0),
                                         ({"time": 5.0}, 1500.0), ({"time": 20.0}, 2000.0)],
                             ids=["default_time", "start", "midpoint", "held_past_the_end"])
    def test_schedule_interpolation(self, tmp_path, spec, r):
        assert self.model(tmp_path, **spec) == ParallelRC(r=r, c=1e-9)

    @pytest.mark.parametrize("spec, message", [
        ({"schedule": {"r": [[1.0, 100.0], [1.0, 200.0]]}},
         "bad model: schedule times for 'r' must be strictly increasing"),
        ({"schedule": {"x": [[0.0, 1.0]]}}, "bad model: base model has no parameter 'x'"),
        ({"schedule": {"tau": [[0.0, 1e-6]]}}, "bad model: base model has no parameter 'tau'"),
        ({"base": {"type": "builtin", "name": "blood"}, "schedule": {}},
         "a time_varying base must be parallel_rc or cole, got 'builtin'"),
        ({"base": {"type": "table", "path": "electrode.z21"}, "schedule": {}},
         "a time_varying base must be parallel_rc or cole, got 'table'"),
    ], ids=["times_not_increasing", "unknown_parameter", "property_not_field", "builtin_base",
            "table_base"])
    def test_schedule_errors(self, tmp_path, spec, message):
        (tmp_path / "electrode.z21").write_text("1e3 100.0 0.0\n1e7 90.0 -5.0\n")
        model = {"type": "time_varying", "base": {"type": "parallel_rc", "r": 100.0}, **spec}
        with pytest.raises(cli.ScenarioError) as exc:
            cli.load_scenario(write_scenario(tmp_path, model=model))
        assert str(exc.value) == message


class TestCommandLine:
    def one_line_usage_error(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--scenario", "s.json", "--repeats", "x"],
        ["sweep", "--uncalibrated"],
        ["frobnicate"],
        [],
        ["link-demo", "--script", "s.json", "--cap", "x"],
        ["sweep", "--s", "x"],
        ["sweep", "--scenario", "s", "--out", "--strict"],
        ["sweep", "--scenario", "s", "--strict=1"],
        ["plan", "extra"],
        ["sweep", "--scenario", "s", "--", "x"],
    ], ids=["non_integer_repeats", "missing_scenario", "unknown_verb", "no_verb",
            "non_numeric_cap", "ambiguous_prefix", "option_as_value", "flag_with_value",
            "extra_word", "double_dash"])
    def test_rejected_arguments_exit_usage(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bioz") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["sweep", "-h"],
                                      ["link-demo", "--h"]])
    def test_help_exits_ok(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: bioz") and captured.err == ""

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "1e-319"])
    def test_link_demo_cap_must_be_positive(self, tmp_path, capsys, value):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"op": "ping"}]))
        self.one_line_usage_error(capsys, ["link-demo", "--script", str(script), "--cap", value])

    @pytest.mark.parametrize("value", ["0", "-100", "nan"])
    def test_calibrate_reference_must_be_positive(self, tmp_path, capsys, r100_scenario, value):
        self.one_line_usage_error(capsys, [
            "calibrate", "--scenario", str(r100_scenario), "--out", str(tmp_path / "t.json"),
            "--reference", value])

    @pytest.mark.parametrize("content", [None, "not json", json.dumps({"version": 1}),
                                         json.dumps([1, 2]),
                                         json.dumps({"version": 1, "reference_r": 10**400}),
                                         table_text(offsets={"101": {"v_i": 0.0, "v_q": 0.0}}),
                                         table_text(gain_word="1111"),
                                         table_text(offsets={"111": {"v_i": 0.0, "v_q": 0.0},
                                                             "abc": {"v_i": 0.0, "v_q": 0.0}}),
                                         table_text(eq_coeffs=[{"freq_hz": 1000.0, "re": 1.0,
                                                                "im": 0.0}]),
                                         table_text(eq_coeffs=[{"freq_hz": 1953.125, "re": 1.0,
                                                                "im": 0.0}] * 2),
                                         table_text(comment="spare"),
                                         table_text(created_at=None)],
                             ids=["missing", "not_json", "missing_key", "not_object",
                                  "integer_beyond_float_reference", "no_offset_for_own_gain_word",
                                  "gain_word_not_3_bits", "offset_key_not_3_bits",
                                  "off_plan_frequency", "plan_frequency_twice", "unknown_key",
                                  "null_created_at"])
    def test_unreadable_calibration_table(self, tmp_path, capsys, r100_scenario, content):
        table = tmp_path / "table.json"
        if content is not None:
            table.write_text(content)
        self.one_line_usage_error(capsys, [
            "sweep", "--scenario", str(r100_scenario), "--cal", str(table)])

    def unwritable_table(self, capsys, monkeypatch, scenario, out):
        calls = []
        monkeypatch.setattr(cli.calib, "build_equalization", lambda *a, **k: calls.append(a))
        self.one_line_usage_error(capsys, [
            "calibrate", "--scenario", str(scenario), "--out", str(out)])
        assert calls == []  # rejected before any measurement

    def test_unwritable_calibration_table(self, tmp_path, capsys, monkeypatch, r100_scenario):
        self.unwritable_table(capsys, monkeypatch, r100_scenario, tmp_path / "missing" / "t.json")

    def test_calibration_table_path_is_a_directory(self, tmp_path, capsys, monkeypatch,
                                                   r100_scenario):
        self.unwritable_table(capsys, monkeypatch, r100_scenario, tmp_path)

    def test_unwritable_sweep_output_fails_before_measuring(
            self, tmp_path, capsys, monkeypatch, r100_scenario):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: calls.append(a))
        self.one_line_usage_error(capsys, [
            "sweep", "--scenario", str(r100_scenario), "--uncalibrated",
            "--out", str(tmp_path / "missing" / "z.csv")])
        assert calls == []

    def test_sweep_without_table_or_uncalibrated(self, capsys, r100_scenario):
        self.one_line_usage_error(capsys, ["sweep", "--scenario", str(r100_scenario)])


class TestCalibrate:
    def test_writes_table_with_top_frequency_boost(self, cal_table, capsys):
        table = CalibrationTable.load(cal_table)
        assert abs(table.eq_coeffs[2e6]) > 1.2
        assert table.gain_word == "111"
        assert table.created_at == "pinned"

    @pytest.mark.parametrize("gain", ["111", "000"])
    def test_table_holds_its_own_word_offset_alone(self, tmp_path, capsys, gain):
        # bit for bit that word measured alone, on the stream it had when a
        # calibration measured all eight words: child GAIN_WORDS.index(gain)
        scen = write_scenario(tmp_path, gain=gain)
        out = tmp_path / "cal.json"
        assert cli.main(["calibrate", "--scenario", str(scen), "--out", str(out),
                         "--created-at", "pinned"]) == cli.EXIT_OK
        offsets = CalibrationTable.load(out).offsets
        child = np.random.SeedSequence(99).spawn(8 + 11)[GAIN_WORDS.index(gain)]
        alone = measure_offsets(cli.load_scenario(scen).setup(), [gain], [child.spawn(4)])
        assert list(offsets) == [gain]
        assert [v.hex() for v in offsets[gain]] == [v.hex() for v in alone[gain]]

    def test_ideal_chain_coefficients(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, name="ideal.json", chain={"lna_pole": None})
        out = tmp_path / "ideal_cal.json"
        assert cli.main([
            "calibrate", "--scenario", str(scen), "--out", str(out),
            "--created-at", "pinned",
        ]) == cli.EXIT_OK
        table = CalibrationTable.load(out)
        # flat chain: only the hold-image product factor (~1.03) remains
        for c in table.eq_coeffs.values():
            assert abs(abs(c) - 1.03) < 0.02
            assert abs(np.degrees(np.angle(c))) < 1.0

    def test_off_plan_frequency_fails_before_measuring(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.calib, "build_equalization", lambda *a, **k: calls.append(a))
        scen = write_scenario(tmp_path, frequencies=[1000.0])
        rc = cli.main(["calibrate", "--scenario", str(scen), "--out", str(tmp_path / "t.json")])
        captured = capsys.readouterr()
        assert (rc, calls, captured.out) == (cli.EXIT_USAGE, [], "")
        assert captured.err == "error: 1000.0 Hz is not a plan frequency\n"

    def test_saturation_exits_range(self, tmp_path, capsys):
        scen = write_scenario(tmp_path)
        out = tmp_path / "cal.json"
        rc = cli.main([
            "calibrate", "--scenario", str(scen), "--out", str(out),
            "--reference", "3000.0", "--created-at", "pinned",
        ])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_RANGE
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()


class TestSweep:
    def test_requires_cal_or_flag(self, r100_scenario):
        assert cli.main(["sweep", "--scenario", str(r100_scenario)]) == cli.EXIT_USAGE

    def test_csv_header_frozen(self, r100_scenario, cal_table, capsys):
        rc = cli.main([
            "sweep", "--scenario", str(r100_scenario), "--cal", str(cal_table),
        ])
        assert rc == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "freq_hz,re_ohm,im_ohm,mag_ohm,phase_deg,stderr_ohm,gain_word,flags"
        assert len(lines) == 12

    def test_calibrated_100_ohm_within_1_ohm(self, r100_scenario, cal_table, capsys):
        cli.main(["sweep", "--scenario", str(r100_scenario), "--cal", str(cal_table)])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        for row in rows:
            mag = float(row.split(",")[3])
            assert abs(mag - 100.0) <= 1.0

    def test_byte_identical_output(self, tmp_path, r100_scenario, cal_table):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = cli.main([
                "sweep", "--scenario", str(r100_scenario), "--cal", str(cal_table),
                "--out", str(out),
            ])
            assert rc == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_rejected(self, r100_scenario, capsys, repeats):
        rc = cli.main([
            "sweep", "--scenario", str(r100_scenario), "--uncalibrated", "--repeats", repeats,
        ])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_single_repeat_has_zero_stderr(self, r100_scenario, cal_table, capsys):
        cli.main([
            "sweep", "--scenario", str(r100_scenario), "--cal", str(cal_table),
            "--repeats", "1",
        ])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(float(r.split(",")[5]) == 0.0 for r in rows)

    def test_json_format(self, r100_scenario, cal_table, capsys):
        cli.main([
            "sweep", "--scenario", str(r100_scenario), "--cal", str(cal_table),
            "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["records"]) == 11
        assert {"freq_hz", "re_ohm", "im_ohm", "mag_ohm", "phase_deg",
                "stderr_ohm", "gain_word", "flags"} <= set(doc["records"][0])

    def test_strict_flags_exit_range(self, tmp_path, cal_table, capsys):
        scen = write_scenario(
            tmp_path, name="big.json",
            model={"type": "parallel_rc", "r": 3000.0, "c": 0.0},
        )
        rc = cli.main([
            "sweep", "--scenario", str(scen), "--cal", str(cal_table),
            "--repeats", "1", "--strict",
        ])
        assert rc == cli.EXIT_RANGE

    @pytest.mark.parametrize("r0", [1e85, 1.7e308])
    def test_huge_cole_load_saturates(self, tmp_path, capsys, r0):
        # the output stage saturates toward its rails, however large the load
        scen = write_scenario(tmp_path, model={"type": "cole", "r_inf": 50.0, "r0": r0,
                                               "tau": 1e-5}, frequencies=[1953.125])
        rc = cli.main(["sweep", "--scenario", str(scen), "--uncalibrated", "--repeats", "1"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert captured.err == ""
        assert captured.out.strip().splitlines()[1].split(",")[7] == "saturated"

    def test_overflowing_cole_load_sweeps_without_a_warning(self, tmp_path, capsys, recwarn):
        # w tau overflows at every image: the load reads its r_inf
        scen = write_scenario(tmp_path, model={"type": "cole", "r_inf": 50.0, "r0": 100.0,
                                               "tau": 1e308}, frequencies=[1953.125, 2e6])
        rc = cli.main(["sweep", "--scenario", str(scen), "--uncalibrated", "--repeats", "1"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert captured.err == ""
        assert not recwarn.list
        assert len(captured.out.strip().splitlines()) == 3

    def test_non_finite_mixer_dc_exits_range(self, tmp_path, capsys, recwarn):
        table = tmp_path / "huge.z21"
        table.write_text("100 1.5e308 1.5e308\n1e9 1.5e308 1.5e308\n")
        scen = write_scenario(tmp_path, model={"type": "table", "path": str(table)},
                              frequencies=[1953.125])
        out = tmp_path / "records.csv"
        rc = cli.main(["sweep", "--scenario", str(scen), "--uncalibrated", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_RANGE
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "not finite" in captured.err
        assert not out.exists()
        assert not recwarn.list

    def test_vanishing_capacitor_reads_as_its_resistor(self, tmp_path, capsys):
        outputs = []
        for c in (2.78e-177, 0.0):
            scen = write_scenario(tmp_path, model={"type": "parallel_rc", "r": 1.0, "c": c})
            rc = cli.main(["sweep", "--scenario", str(scen), "--uncalibrated", "--repeats", "2"])
            assert rc == cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("gain,model", [
        ("111", ParallelRC(r=270.0, c=3e-9)),
        ("auto", ParallelRC(r=1000.0, c=1e-9)),  # 111 at the top, 101 further down
        ("auto", ParallelRC(r=20000.0, c=1e-10)),  # and out of range at the bottom
    ], ids=["fixed_gain", "auto_gain", "auto_gain_out_of_range"])
    def test_records_equal_each_frequency_swept_alone(self, cal_table, gain, model):
        # one stack per gain word, every record as its frequency alone
        table = CalibrationTable.load(cal_table)
        scenario = cli.Scenario(model=model, params=ChainParams(), seed=2**33 + 7, gain=gain)
        records = cli.run_sweep(scenario, table, repeats=4)
        alone = [cli.run_sweep(replace(scenario, indices=(i,)), table, repeats=4)[0]
                 for i in range(len(plan_frequencies()))]
        assert cli.format_records(records, "csv") == cli.format_records(alone, "csv")
        if gain == "auto":
            assert len({r["gain_word"] for r in records}) > 1

    def test_auto_gain_ranges(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path, name="auto.json", gain="auto",
            model={"type": "parallel_rc", "r": 2000.0, "c": 0.0},
            frequencies=[1953.125],
        )
        rc = cli.main(["sweep", "--scenario", str(scen), "--uncalibrated", "--repeats", "3"])
        assert rc == cli.EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[6] == "001"

    def test_uncalibrated_droop_vs_calibrated_flat(self, tmp_path, capsys):
        # saline-like scenario: uncalibrated magnitude droops at the top of
        # the band (the amplification pole), calibrated stays flat
        scen = write_scenario(
            tmp_path, name="sal.json",
            model={"type": "builtin", "name": "saline"},
            frequencies=[1953.125, 2e6],
        )
        out = tmp_path / "sal_cal.json"
        assert cli.main([
            "calibrate", "--scenario", str(scen), "--out", str(out),
            "--created-at", "pinned",
        ]) == cli.EXIT_OK
        capsys.readouterr()  # drop the calibrate summary
        cli.main(["sweep", "--scenario", str(scen), "--uncalibrated"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        mag_unc = {float(r.split(",")[0]): float(r.split(",")[3]) for r in rows}
        cli.main(["sweep", "--scenario", str(scen), "--cal", str(out)])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        mag_cal = {float(r.split(",")[0]): float(r.split(",")[3]) for r in rows}
        assert mag_unc[2e6] < 0.80 * mag_unc[1953.125]  # > 20% droop
        assert abs(mag_cal[2e6] - mag_cal[1953.125]) < 1.0  # flat after cal


class TestLinkDemo:
    def script(self, tmp_path, entries, name="script.json"):
        path = tmp_path / name
        path.write_text(json.dumps(entries))
        return path

    def test_ping_echo(self, tmp_path, capsys):
        path = self.script(tmp_path, [{"op": "ping", "token": 90}])
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "a5045a03" in out  # pong echoes the token

    def test_full_transaction(self, tmp_path, capsys):
        path = self.script(tmp_path, [
            {"op": "set_config", "freq_sel": 10, "source_enable": 1, "gain": 7},
            {"op": "start_measure"},
            {"op": "read_result"},
        ])
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "<< a581" in out  # ACKs
        assert "<< a582" in out  # result frame
        assert "min" in out

    def test_each_measurement_draws_its_own_noise(self, tmp_path, capsys):
        # measured twice at one configuration: two noise draws, two RESULT
        # frames; the same --seed replays the session byte for byte
        measure = [{"op": "start_measure"}, {"op": "read_result"}]
        path = self.script(tmp_path, [
            {"op": "set_config", "freq_sel": 10, "source_enable": 1, "gain": 7},
            *measure, *measure,
        ])
        outs = []
        for _ in range(2):
            assert cli.main(["link-demo", "--script", str(path), "--seed", "3"]) == cli.EXIT_OK
            outs.append(capsys.readouterr().out)
        results = [line for line in outs[0].splitlines() if line.startswith("<< a582")]
        assert len(results) == 2 and results[0] != results[1]
        assert outs[0] == outs[1]

    def test_corrupted_checksum_naks(self, tmp_path, capsys):
        path = self.script(tmp_path, [{"op": "ping", "corrupt": True}])
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_OK
        assert "a57f" in capsys.readouterr().out  # NAK response

    def test_brownout_exit_code(self, tmp_path, capsys):
        entries = [{"op": "ping", "token": k % 256} for k in range(40)]
        path = self.script(tmp_path, entries)
        rc = cli.main(["link-demo", "--script", str(path), "--cap", "0.05"])
        assert rc == cli.EXIT_BROWNOUT

    def test_bad_script(self, tmp_path, capsys):
        path = self.script(tmp_path, [{"op": "launch"}])
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: bad script: unknown link op 'launch'\n"

    @pytest.mark.parametrize("entries", [
        {"op": "ping"},
        ["ping"],
        [{"op": "ping", "token": 1.7}],
        [{"op": "set_config", "freq_sel": True}],
        [{"op": "set_config", "gain": "7"}],
        [{"op": "set_config", "pll_cal": 1.9}],
        [{"op": "ping", "corrupt": "no"}],
        [{"op": "start_measure", "corrupt": 1}],
        [{"op": "ping", "tokn": 7}],
        [{"op": "read_result", "freq_sel": 3}],
        [{"op": "ping", "token": 300}],
        [{"op": "ping", "token": -1}],
        [{"op": ["x"]}],
        [{"token": 3}],
    ], ids=["object", "string_entry", "float_token", "bool_freq_sel", "string_gain",
            "float_pll_cal", "string_corrupt", "integer_corrupt", "misspelt_field",
            "field_of_another_op", "token_above_a_byte", "negative_token", "list_op",
            "missing_op"])
    def test_script_of_wrong_shape(self, tmp_path, capsys, entries):
        path = self.script(tmp_path, entries)
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: bad script: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("entry, message", [
        ({"op": "ping", "token": 300}, "token out of range: 300"),
        ({"op": "ping", "token": -1}, "token out of range: -1"),
        ({"op": "set_config", "freq_sel": 16}, "freq_sel out of range: 16"),
        ({"op": ["x"]}, "unknown link op ['x']"),
        ("ping", 'a link script entry must be an object, got "ping"'),
        ({"token": 3}, 'a link script entry must name its op, got {"token": 3}'),
    ], ids=["token_above_a_byte", "negative_token", "freq_sel_above_4_bits", "list_op",
            "string_entry", "missing_op"])
    def test_script_error_names_the_field_or_entry(self, tmp_path, capsys, entry, message):
        path = self.script(tmp_path, [entry])
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: bad script: {message}\n"

    @pytest.mark.parametrize("text", [None, b"not json", b"\xff\xfe[]",
                                      b"[1" + b"0" * 5000 + b"]"],
                             ids=["missing", "not_json", "not_utf8",
                                  "integer_past_the_digit_limit"])
    def test_unreadable_script(self, tmp_path, capsys, text):
        path = tmp_path / "script.json"
        if text is not None:
            path.write_bytes(text)
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read script: ")
        assert captured.err.count("\n") == 1


#: Each verb's options with a value a user might give (None for a flag),
#: written out apart from `cli._VERBS`, and each verb's required options.
OPTION_VALUES = {
    "calibrate": {"--scenario": "s.json", "--out": "t.json", "--reference": "50",
                  "--seed": "3", "--created-at": "2020-01-01"},
    "sweep": {"--scenario": "s.json", "--cal": "t.json", "--uncalibrated": None,
              "--repeats": "2", "--seed": "4", "--format": "json", "--out": "z.csv",
              "--strict": None},
    "link-demo": {"--script": "l.json", "--cap": "5.5", "--seed": "1", "--trace": None},
}
REQUIRED = {"plan": [], "calibrate": ["--scenario", "s.json", "--out", "t.json"],
            "sweep": ["--scenario", "s.json"], "link-demo": ["--script", "l.json"]}


def option_lines(verb):
    """Every option of the verb in both forms and by every prefix,
    without its value, with an option-looking, negative or odd value, and
    with a flag's `=value`."""
    base = [verb, *REQUIRED[verb]]
    for name, value in OPTION_VALUES[verb].items():
        if value is None:
            yield base + [name]
            yield base + [f"{name}=1"]
            yield base + [f"{name}="]
            yield base + [name, name]
        else:
            yield base + [name, value]
            yield base + [f"{name}={value}"]
            yield base + [f"{name}="]
            yield base + [name]
            yield base + [name, value, name, "9"]
            for odd in ("--strict", "--bogus", "-x", "-1", "-.5", "-1e-5", "-inf", "-",
                        "", "-a b", "--", "x y", "-h"):
                yield base + [name, odd]
        for k in range(3, len(name)):
            yield base + [name[:k]] + ([] if value is None else [value])
            yield base + [f"{name[:k]}={value or ''}"]


COMMAND_LINES = [
    [], ["plan"], ["frobnicate"], ["plan", "extra"], ["-h"], ["--help"], ["--he"], ["--h"],
    ["-hh"], ["-h=h"], ["-hx"], ["-h="], ["--help=x"], ["--help="], ["--bogus"],
    ["--bogus", "plan"], ["--bogus", "--help"], ["-x", "plan"], ["--", "plan"], ["plan", "--"],
    ["plan", "--help"], ["plan", "-h", "x"], ["x", "--help"], ["-1"], ["", "plan"],
    ["sweep"], ["sweep", "--help", "--s"], ["sweep", "--s", "--help"],
    ["sweep", "--help", "--repeats", "x"], ["sweep", "--repeats", "x", "--help"],
    ["sweep", "--bogus", "--help"], ["sweep", "--", "--help"], ["sweep", "--help", "--"],
    ["sweep", "--scenario", "s", "extra"], ["sweep", "--scenario", "s", "--", "x"],
    ["sweep", "--scenario", "s", "--bogus=1"], ["sweep", "--scenario", "s", "---scenario", "t"],
    ["sweep", "--scenario", "s", "--=x"], ["sweep", "--scenario", "s", "--format", "CSV"],
    ["sweep", "--scenario", "s", "--repeats", "1.5"], ["sweep", "--scenario", "s", "--seed", " 7 "],
    ["sweep", "--scenario", "s", "--seed", "1_0"], ["sweep", "--scenario", "s", "--seed", "-1"],
    ["sweep", "--scen", "s", "--rep", "3", "--uncal", "--str"],
    ["calibrate", "--scenario", "s"], ["calibrate", "--out", "t"], ["calibrate", "--c", "x"],
    ["calibrate", "--scenario", "s", "--out", "t", "--reference", "nan"],
    ["link-demo", "--s", "x"], ["link-demo", "--script", "l", "--cap", "inf"],
    ["link-demo", "--script", "l", "--t", "--c=1e-3", "--se=-2"],
    ["sweep", "--scenario=--"], ["sweep", "--scenario", "s", "--out=--", "--help"],
    ["sweep", "--scenario=--", "--scenario", "s"], ["sweep", "--scenario", "s", "--format=--"],
]


def outcome(parse, argv):
    """A parser's reading of `argv`: each option's value by repr, "error"
    for a rejected line, or the exit code and first word of its help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(list(argv))
    except cli.ScenarioError:
        return "error"
    except SystemExit as exc:
        return exc.code, out.getvalue().split(" ")[0]
    return {name: repr(value) for name, value in vars(args).items()}


def assert_read_as_argparse(argv):
    ours, theirs = outcome(cli._parse, argv), outcome(argparse_args, argv)
    if isinstance(theirs, dict) and "[]" in theirs.values():
        # argparse reads `--name=--` as an empty list, which no verb can
        # use (`--scenario=--` died on it with a TypeError); `_parse` reads
        # no value, an error once the line is read
        assert ours == "error", argv
    else:
        assert ours == theirs, argv


class TestParserParity:
    """`cli._parse` reads every command line as the argparse parser it
    replaced does: the same values, or both reject it, or both print help."""

    @pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
    def test_same_reading_as_argparse(self, argv):
        assert_read_as_argparse(argv)

    @pytest.mark.parametrize("verb", OPTION_VALUES)
    def test_every_option_reads_as_argparse(self, verb):
        for argv in option_lines(verb):
            assert_read_as_argparse(argv)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["plan", "calibrate", "sweep", "link-demo", "--help", "-h", "x", ""]),
           st.lists(st.one_of(
               st.sampled_from([n for options in OPTION_VALUES.values() for n in options]
                               + ["-h", "--help", "--", "--s", "--sc", "--c", "--se", "--r",
                                  "--t", "--st", "--cr", "--bogus"]),
               st.sampled_from([v for options in OPTION_VALUES.values()
                                for v in options.values() if v] + ["-1", "x", "csv", "nan"]),
               st.text(alphabet="-=h1.x s", max_size=6)), max_size=7))
    def test_random_lines_read_as_argparse(self, verb, tokens):
        assert_read_as_argparse([verb, *tokens])
