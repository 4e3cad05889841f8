import io
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from biozsim import afe, tissue
from biozsim.tissue import (
    ColeModel,
    ParallelRC,
    TableRangeError,
    TabulatedTwoPort,
    _BUILTIN_COLE,
    _sense_z,
    builtin_model,
    impedance_at,
    is_rational,
)
from biozsim.afe import AfeConfig, ChainParams, mixer_dc_pair
from biozsim.waveforms import plan_frequencies
from reference import exact_mixer_dc


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


class TestOverflowingProducts:
    """Where w r c or w tau overflows a double, the impedance takes its limit;
    elsewhere the closed form is evaluated as written, bit for bit."""

    FREQS = [1e3, np.array([1e3, 2e6, 5e8])]

    @staticmethod
    def quiet(model, freq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.asarray(impedance_at(model, freq))

    @pytest.mark.parametrize("freq", FREQS)
    @pytest.mark.parametrize("model, want", [
        (ParallelRC(r=1e308, c=1e308), 0.0),
        (ParallelRC(r=1e308, c=1e308, r_interface=3.0), 3.0),
        (ParallelRC(r=1e308, c=0.0, r_interface=3.0), 1e308),
        (ColeModel(50.0, 100.0, tau=1e308), 50.0),
    ])
    def test_limit(self, model, want, freq):
        z = self.quiet(model, freq)
        assert np.all(np.abs(z - want) <= 1e-15 * want + 1e-300)

    @pytest.mark.parametrize("freq", FREQS)
    def test_a_huge_resistor_leaves_its_capacitor(self, freq):
        z = self.quiet(ParallelRC(r=1e308, c=1.0), freq)
        want = 1 / (2j * np.pi * np.asarray(freq))
        assert np.all(np.abs(z - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("freq", FREQS)
    def test_a_fractional_cole_keeps_its_remainder(self, freq):
        # (w tau)^0.01 is only about 1e3 at w tau = 1e311
        cole = ColeModel(50.0, 100.0, tau=1e308, alpha=0.01)
        z = self.quiet(cole, freq)
        with mpmath.workdps(40):
            want = np.array([complex(50 + 50 / (1 + (2j * mpmath.pi * mpmath.mpf(float(f))
                                                      * mpmath.mpf(1e308)) ** mpmath.mpf(0.01)))
                             for f in np.atleast_1d(freq)])
        assert np.all(np.abs(z - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("model", [
        ParallelRC(r=330.0, c=4.7e-9, r_interface=20.0), ParallelRC(r=1e6, c=1e-12),
        ColeModel(55.0, 107.0, tau=6.4e-8, alpha=0.85), ColeModel(1.0, 47.0, tau=1e290),
    ])
    def test_finite_products_keep_the_closed_form(self, model):
        def closed_form(freq):
            w = 2 * np.pi * np.asarray(freq)  # a numpy scalar for a scalar frequency
            if isinstance(model, ParallelRC):
                return model.r / (1 + 1j * w * model.r * model.c) + model.r_interface
            return model.r_inf + (model.r0 - model.r_inf) / (1 + (1j * w * model.tau) ** model.alpha)

        freqs = np.array([1953.125, 2e6, 5.1e8])
        assert impedance_at(model, freqs).tobytes() == closed_form(freqs).tobytes()
        for f in freqs:
            z = impedance_at(model, f)
            assert (z.real, z.imag) == (closed_form(f).real, closed_form(f).imag)


    @pytest.mark.parametrize("model", [
        ParallelRC(r=150.0, c=2e-9), ParallelRC(r=330.0, c=4.7e-9, r_interface=20.0),
        ParallelRC(r=100.0), ParallelRC(r=1e6, c=1e-12),
    ])
    def test_a_finite_grid_never_takes_the_divided_form(self, monkeypatch, model):
        taken = []
        real = tissue._divided_rc
        monkeypatch.setattr(tissue, "_divided_rc", lambda m, w: taken.append(w) or real(m, w))
        # the frequencies-by-images grid of the mixer DC (`afe._image_dc`)
        grid = np.multiply.outer(plan_frequencies(), afe._IMAGES).astype(float)
        assert np.isfinite(impedance_at(model, grid)).all()
        assert taken == []
        # where w r c overflows at one entry, that entry alone takes it
        # (w r overflows at 1 kHz before c scales it down)
        huge = ParallelRC(r=1e308, c=1e-300)
        z = self.quiet(huge, np.array([1e-10, 1e3]))
        assert [len(w) for w in taken] == [1]
        w = 2 * np.pi * np.array([1e-10])
        assert z[0] == (huge.r / (1 + 1j * w * huge.r * huge.c))[0]
        want = 1 / (1 / huge.r + 2j * np.pi * 1e3 * huge.c)  # as an admittance, no overflow
        assert abs(z[1] - want) <= 1e-15 * abs(want)


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
        p = tmp_path / "electrode.z21"
        p.write_text("# freq_hz re_ohm im_ohm\n"
                     "1000.0 499.5 -3.14\n"
                     "1e6 12.25 -78.0625\n"
                     "2.5e7 0.1 -0.5\n")
        back = TabulatedTwoPort.from_text(p)
        assert back.freqs_hz.tolist() == [1e3, 1e6, 2.5e7]
        assert back.z21.tolist() == [499.5 - 3.14j, 12.25 - 78.0625j, 0.1 - 0.5j]
        # a path and an open file read as the same table
        opened = TabulatedTwoPort.from_text(io.StringIO(p.read_text()))
        assert opened.freqs_hz.tolist() == back.freqs_hz.tolist()
        assert opened.z21.tolist() == back.z21.tolist()

    def test_builtin_low_frequency_magnitudes(self):
        assert abs(impedance_at(builtin_model("blood"), 2e3)) == pytest.approx(107.0, rel=0.02)
        assert abs(impedance_at(builtin_model("muscle_transversal"), 2e3)) == pytest.approx(2491.0, rel=0.02)
        assert abs(impedance_at(builtin_model("saline"), 2e3)) == pytest.approx(47.0, rel=0.02)

    def test_saline_flat_through_plan_drops_past_30mhz(self):
        sal = builtin_model("saline")
        assert abs(impedance_at(sal, 2e6)) == pytest.approx(47.0, rel=0.01)
        assert abs(impedance_at(sal, 3e8)) < 10.0


class TestSenseVoltage:
    """The sensed voltage as the mixer sees it: interface handling, and the
    per-image (phasor) sum against a 50-digit evaluation of the load as
    first-order sections (filter) relaxing over each step."""

    @staticmethod
    def dc(model, idx, params=ChainParams()):
        f0 = plan_frequencies()[idx]
        return complex(*mixer_dc_pair(model, f0, AfeConfig(freq_index=idx), params))

    @staticmethod
    def image_dc(model, idx, params=ChainParams()):
        """The per-image sum as a one-row stack, uncached."""
        f0 = plan_frequencies()[idx]
        config = AfeConfig(freq_index=idx)
        return complex(*afe._image_dc(model, [f0], config, params)[0])

    @staticmethod
    def cole_as_rc(cole, idx, params=ChainParams()):
        """alpha = 1: r_inf in series with (r0 - r_inf) || c, c = tau / (r0 - r_inf).
        The mixer DC is linear in the sensed impedance: the sum of the two
        RC DCs, each evaluated at 50 digits."""
        r = cole.r0 - cole.r_inf
        f0, config = plan_frequencies()[idx], AfeConfig(freq_index=idx)
        return sum(complex(*exact_mixer_dc(rc, f0, config, params))
                   for rc in (ParallelRC(r=cole.r_inf), ParallelRC(r=r, c=cole.tau / r)))

    def test_resistor_is_memoryless(self):
        freqs = 1953.125 * np.arange(1, 256)
        assert np.array_equal(_sense_z(ParallelRC(r=100.0, c=0.0), freqs),
                              np.full(len(freqs), 100.0 + 0j))

    def test_interface_excluded_by_default(self):
        # the interface lies outside the sense electrodes: bit for bit no DC moves
        for r, c in ((100.0, 0.0), (270.0, 3e-9)):
            for params in (ChainParams(), ChainParams().ideal()):
                for idx in range(11):
                    assert self.dc(ParallelRC(r=r, c=c, r_interface=50.0), idx, params) == (
                        self.dc(ParallelRC(r=r, c=c), idx, params))

    def test_capacitive_asymptote(self):
        # far above the corner the sensed impedance approaches 1/(2 pi f c)
        m = ParallelRC(r=1e3, c=0.1e-6)
        freqs = 1e6 * np.array([1, 7, 9])
        expect = 1 / (2 * np.pi * freqs * 0.1e-6)
        assert np.abs(_sense_z(m, freqs)) == pytest.approx(expect, rel=1e-3)

    def test_phasor_and_filter_routes_agree_per_harmonic(self):
        # a Cole load with alpha = 1 is an RC: its image sum, the tail past
        # the 127th image taken by Euler's transform, must stay within the
        # stated 1e-13 of the exact DC (plain truncation at the 255th was
        # 1e-5 off)
        coles = [ColeModel(r_inf=50.0, r0=500.0, tau=1e-5),
                 ColeModel(r_inf=90.0, r0=100.0, tau=1e-7),
                 *(replace(c, alpha=1.0) for c in _BUILTIN_COLE.values())]
        for params in (ChainParams(), ChainParams().ideal()):
            for cole in coles:
                for idx in range(11):
                    exact = self.cole_as_rc(cole, idx, params)
                    assert abs(self.image_dc(cole, idx, params) - exact) <= 1e-13 * abs(exact)

    def test_filter_route_rms_agreement_smooth_load(self):
        # a load whose corner sits at the fundamental and that falls to a
        # small r_inf, so that its images fall off faster than 1/n^2
        for idx, f0 in enumerate(plan_frequencies()):
            cole = ColeModel(r_inf=1.0, r0=1000.0, tau=1 / (2 * np.pi * f0))
            exact = self.cole_as_rc(cole, idx)
            assert abs(self.image_dc(cole, idx) - exact) <= 1e-13 * abs(exact)

    def test_filter_route_rejects_nonrational(self):
        # the load-class label of the benchmark's spans: ParallelRC and
        # Cole at alpha = 1 (the default); every load takes the same route
        assert is_rational(ParallelRC(r=100.0, c=1e-9))
        assert not is_rational(ColeModel(r_inf=10.0, r0=100.0, tau=1e-5, alpha=0.8))
        assert is_rational(ColeModel(r_inf=10.0, r0=100.0, tau=1e-5))
        assert not is_rational(builtin_model("blood"))
