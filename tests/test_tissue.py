import numpy as np
import pytest

from biozsim.tissue import (
    ColeModel,
    ParallelRC,
    TableRangeError,
    TabulatedTwoPort,
    TimeVaryingModel,
    builtin_model,
    impedance_at,
    sense_voltage,
)
from biozsim.waveforms import SampleSeries, SteppedSine, plan_frequencies, synthesize


def rc_closed_form(r, c, f, r_int=0.0):
    w = 2 * np.pi * f
    return r / (1 + 1j * w * r * c) + r_int


class TestImpedanceAt:
    def test_parallel_rc_reported_points(self):
        m = ParallelRC(r=1e3, c=0.1e-6)
        assert abs(impedance_at(m, 2e3)) == pytest.approx(622.7, abs=0.5)
        assert abs(impedance_at(m, 125e3)) == pytest.approx(12.73, abs=0.02)

    def test_pure_resistor_any_frequency(self):
        m = ParallelRC(r=220.0, c=0.0, r_interface=30.0)
        for f in (2e3, 125e3, 2e6):
            z = impedance_at(m, f)
            assert z == pytest.approx(250.0)
            assert np.angle(z) == 0.0

    def test_matches_closed_form(self):
        m = ParallelRC(r=1e3, c=10e-9, r_interface=50.0)
        for f in plan_frequencies():
            assert impedance_at(m, f) == pytest.approx(rc_closed_form(1e3, 10e-9, f, 50.0), rel=1e-12)

    def test_rc_phase_range_and_monotone(self):
        m = ParallelRC(r=1e3, c=0.1e-6)
        f = np.logspace(1, 7, 200)
        ph = np.angle(impedance_at(m, f))
        assert np.all(ph <= 0.0)
        assert np.all(ph > -np.pi / 2)
        assert np.all(np.diff(ph) < 0)

    def test_cole_reduces_to_rc_at_alpha_1(self):
        rc = ParallelRC(r=1e3, c=0.1e-6, r_interface=20.0)
        # r || c with series r_int == Cole(r_inf=r_int, r0=r+r_int, tau=rc)
        cole = ColeModel(r_inf=20.0, r0=1020.0, tau=1e3 * 0.1e-6, alpha=1.0)
        for f in plan_frequencies():
            assert impedance_at(cole, f) == pytest.approx(impedance_at(rc, f), rel=1e-12)

    def test_cole_limits(self):
        cole = ColeModel(r_inf=100.0, r0=1000.0, tau=1e-5, alpha=0.8)
        assert abs(impedance_at(cole, 0.01)) == pytest.approx(1000.0, rel=1e-3)
        assert abs(impedance_at(cole, 1e9)) == pytest.approx(100.0, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelRC(r=-1.0)
        with pytest.raises(ValueError):
            ColeModel(r_inf=100.0, r0=50.0, tau=1e-5)
        with pytest.raises(ValueError):
            ColeModel(r_inf=10.0, r0=50.0, tau=1e-5, alpha=1.5)
        with pytest.raises(ValueError):
            impedance_at(ParallelRC(r=1.0), 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["r", "c", "r_interface"])
    def test_parallel_rc_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            ParallelRC(**{"r": 100.0, "c": 1e-9, "r_interface": 10.0, field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["r_inf", "r0", "tau", "alpha"])
    def test_cole_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            ColeModel(**{"r_inf": 50.0, "r0": 100.0, "tau": 1e-6, "alpha": 0.8, field: value})


class TestTabulatedTwoPort:
    def make_table(self):
        f = np.logspace(2, 8, 61)
        z = rc_closed_form(500.0, 1e-9, f)
        return TabulatedTwoPort(f, z)

    def test_exact_at_nodes(self):
        t = self.make_table()
        for i in (0, 17, 60):
            assert impedance_at(t, t.freqs_hz[i]) == pytest.approx(t.z21[i], rel=1e-12)

    def test_log_interpolation_between_nodes(self):
        f = np.array([1e3, 1e4])
        z = np.array([100.0 + 0j, 200.0 + 0j])
        t = TabulatedTwoPort(f, z)
        # midpoint in log frequency
        assert impedance_at(t, np.sqrt(1e3 * 1e4)).real == pytest.approx(150.0, rel=1e-12)

    def test_no_extrapolation(self):
        t = self.make_table()
        with pytest.raises(TableRangeError):
            impedance_at(t, 10.0)
        with pytest.raises(TableRangeError):
            impedance_at(t, 1e9)

    def test_needs_two_increasing_rows(self):
        with pytest.raises(ValueError):
            TabulatedTwoPort([1e3], [1 + 0j])
        with pytest.raises(ValueError):
            TabulatedTwoPort([1e3, 1e3], [1 + 0j, 2 + 0j])

    def test_text_round_trip(self, tmp_path):
        t = self.make_table()
        p = tmp_path / "electrode.z21"
        p.write_text(t.to_text())
        back = TabulatedTwoPort.from_text(p)
        assert np.array_equal(back.freqs_hz, t.freqs_hz)
        assert np.array_equal(back.z21, t.z21)

    def test_builtin_low_frequency_magnitudes(self):
        assert abs(impedance_at(builtin_model("blood"), 2e3)) == pytest.approx(107.0, rel=0.02)
        assert abs(impedance_at(builtin_model("muscle_transversal"), 2e3)) == pytest.approx(2491.0, rel=0.02)
        assert abs(impedance_at(builtin_model("saline"), 2e3)) == pytest.approx(47.0, rel=0.02)

    def test_saline_flat_through_plan_drops_past_30mhz(self):
        sal = builtin_model("saline")
        assert abs(impedance_at(sal, 2e6)) == pytest.approx(47.0, rel=0.01)
        assert abs(impedance_at(sal, 3e8)) < 10.0


class TestTimeVarying:
    def test_schedule_interpolation(self):
        tv = TimeVaryingModel(
            base=ParallelRC(r=1000.0, c=1e-9),
            schedule={"r": [(0.0, 1000.0), (10.0, 2000.0)]},
        )
        assert tv.at_time(0.0).r == 1000.0
        assert tv.at_time(5.0).r == 1500.0
        assert tv.at_time(20.0).r == 2000.0  # held at the last breakpoint

    def test_strictly_increasing_times(self):
        with pytest.raises(ValueError):
            TimeVaryingModel(
                base=ParallelRC(r=1.0), schedule={"r": [(1.0, 1.0), (1.0, 2.0)]}
            )


class TestSenseVoltage:
    def current(self, f0=15625.0, amp=10e-6, periods=4):
        return synthesize(SteppedSine(amp, f0), 256 * f0, periods / f0), 256

    def test_resistor_is_memoryless(self):
        i, per = self.current()
        m = ParallelRC(r=100.0, c=0.0)
        v = sense_voltage(m, i, method="filter", period_samples=per)
        assert np.allclose(v.samples, 100.0 * i.samples, rtol=0, atol=1e-15)

    def test_interface_excluded_by_default(self):
        i, per = self.current()
        m = ParallelRC(r=100.0, c=0.0, r_interface=50.0)
        v = sense_voltage(m, i, period_samples=per)
        assert np.allclose(v.samples, 100.0 * i.samples, atol=1e-15)

    def test_interface_flag_restores_ohms_law_on_150(self):
        # 10 uA through 100 + 50 ohm: 1.5 mV amplitude on the sensed pair
        f0 = 15625.0
        rate = 256 * f0
        t = np.arange(int(rate / f0 * 4)) / rate
        i = SampleSeries(rate, 10e-6 * np.sin(2 * np.pi * f0 * t))
        m = ParallelRC(r=100.0, c=0.0, r_interface=50.0)
        v = sense_voltage(m, i, include_interface=True)
        assert np.max(np.abs(v.samples)) == pytest.approx(1.5e-3, rel=1e-6)

    def test_capacitive_asymptote(self):
        # far above the corner the response amplitude approaches |I|/(2 pi f c)
        f0 = 1e6
        rate = 256 * f0
        t = np.arange(int(rate / f0 * 8)) / rate
        i = SampleSeries(rate, 10e-6 * np.sin(2 * np.pi * f0 * t))
        m = ParallelRC(r=1e3, c=0.1e-6)
        v = sense_voltage(m, i, method="phasor")
        expect = 10e-6 / (2 * np.pi * f0 * 0.1e-6)
        assert np.max(np.abs(v.samples)) == pytest.approx(expect, rel=1e-3)

    def test_phasor_and_filter_routes_agree_per_harmonic(self):
        # the two independent routes must produce the same harmonic content;
        # compare every image component up to the 25th.  Models here have
        # their corner at or below the fundamental so the hold images beyond
        # Nyquist (present only in the exact filter route) are negligible.
        cases = [
            (1953.125, ParallelRC(r=1e3, c=0.1e-6)),
            (62500.0, ParallelRC(r=1e3, c=1 / (2 * np.pi * 1e3 * 62500.0))),
            (2e6, ParallelRC(r=330.0, c=10e-9, r_interface=25.0)),
        ]
        for f0, model in cases:
            i, per = self.current(f0=f0)
            va = sense_voltage(model, i, method="phasor")
            vb = sense_voltage(model, i, method="filter", period_samples=per)
            sa = np.fft.rfft(va.samples[-per:])
            sb = np.fft.rfft(vb.samples[-per:])
            fund = abs(sa[1])
            for n in (1, 7, 9, 15, 17, 23, 25):
                assert abs(sa[n] - sb[n]) < 1e-3 * fund

    def test_filter_route_rms_agreement_smooth_load(self):
        # for loads that attenuate the hold images the raw waveforms agree
        # closely as well (0.1% RMS)
        f0 = 15625.0
        model = ParallelRC(r=1e3, c=1 / (2 * np.pi * 1e3 * f0))  # corner at f0
        i, per = self.current(f0=f0)
        va = sense_voltage(model, i, method="phasor")
        vb = sense_voltage(model, i, method="filter", period_samples=per)
        rms = np.sqrt(np.mean((va.samples - vb.samples) ** 2))
        assert rms / np.sqrt(np.mean(va.samples**2)) < 1e-3

    def test_filter_route_rejects_nonrational(self):
        i, _ = self.current()
        with pytest.raises(ValueError):
            sense_voltage(ColeModel(r_inf=10.0, r0=100.0, tau=1e-5, alpha=0.8), i, method="filter")
