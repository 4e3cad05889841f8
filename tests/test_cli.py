import json

import numpy as np
import pytest

from biozsim import cli
from biozsim.calib import CalibrationTable


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
    ], ids=["missing_r", "negative_r", "nan_r", "nan_tau", "unknown_builtin",
            "negative_settle_time", "list_chain_value", "nan_chain_value"])
    def test_malformed_scenario_one_line_error(self, tmp_path, capsys, overrides):
        path = write_scenario(tmp_path, frequencies=[1953.125], **overrides)
        rc = cli.main(["sweep", "--scenario", str(path), "--uncalibrated", "--repeats", "2"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestCalibrate:
    def test_writes_table_with_top_frequency_boost(self, cal_table, capsys):
        table = CalibrationTable.load(cal_table)
        assert abs(table.coeff(2e6)) > 1.2
        assert table.gain_word == "111"
        assert table.created_at == "pinned"

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

    def test_saturation_exits_range(self, tmp_path, capsys):
        scen = write_scenario(tmp_path)
        out = tmp_path / "cal.json"
        rc = cli.main([
            "calibrate", "--scenario", str(scen), "--out", str(out),
            "--reference", "3000.0", "--created-at", "pinned",
        ])
        assert rc == cli.EXIT_RANGE


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

    def test_corrupted_checksum_naks(self, tmp_path, capsys):
        path = self.script(tmp_path, [{"op": "ping", "corrupt": True}])
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_OK
        assert "a57f" in capsys.readouterr().out  # NAK response

    def test_brownout_exit_code(self, tmp_path, capsys):
        entries = [{"op": "ping", "token": k % 256} for k in range(40)]
        path = self.script(tmp_path, entries)
        rc = cli.main(["link-demo", "--script", str(path), "--cap", "0.05"])
        assert rc == cli.EXIT_BROWNOUT

    def test_bad_script(self, tmp_path):
        path = self.script(tmp_path, [{"op": "launch"}])
        assert cli.main(["link-demo", "--script", str(path)]) == cli.EXIT_USAGE
