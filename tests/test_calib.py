import cmath
import json

import numpy as np
import pytest

from biozsim.afe import AfeConfig, ChainParams, apply_compression, mixer_dc_pair
from biozsim.calib import (
    GAIN_WORDS,
    CalibrationError,
    CalibrationTable,
    MeasurementSetup,
    RawIq,
    apply_calibration,
    auto_gain,
    build_equalization,
    derotate,
    extract_impedance,
    measure_impedance,
    measure_offsets,
)
from biozsim.tissue import ParallelRC, impedance_at
from biozsim.waveforms import plan_frequencies

QUIET = ChainParams(noise_floor=0.0, carrier_noise_v=0.0)


def analog_reading(model, idx, word, params):
    """Extraction from the pre-ADC settled DCs (no quantization)."""
    f0 = plan_frequencies()[idx]
    cfg = AfeConfig.from_gain_word(word, freq_index=idx)
    di, dq = mixer_dc_pair(model, f0, cfg, params)
    g_post = params.tia_gain * params.lpf_gain
    vi = apply_compression(di * g_post, params)
    vq = apply_compression(dq * g_post, params)
    raw = RawIq(vi, vq, cfg.current_amplitude, params.total_gain(cfg.g2), f0)
    return derotate(extract_impedance(raw))


def analog_table(params, word="111", reference_r=100.0):
    model = ParallelRC(r=reference_r, c=0.0)
    return {
        idx: reference_r / analog_reading(model, idx, word, params)
        for idx in range(11)
    }


class TestExtraction:
    def test_zero_reading(self):
        raw = RawIq(0.0, 0.0, 10e-6, 700.0, 1953.125)
        assert extract_impedance(raw) == 0

    def test_equal_components_is_45_degrees(self):
        raw = RawIq(0.1, 0.1, 10e-6, 700.0, 1953.125)
        assert np.degrees(cmath.phase(extract_impedance(raw))) == pytest.approx(45.0)

    def test_scaling(self):
        raw = RawIq(0.41171, 0.0, 10e-6, 700.0, 1953.125)
        z = extract_impedance(raw)
        assert z.real == pytest.approx((np.pi / 2) * 0.41171 / (10e-6 * 700.0))

    def test_invalid_context_rejected(self):
        with pytest.raises(ValueError):
            extract_impedance(RawIq(0.1, 0.1, 0.0, 700.0, 1953.125))
        with pytest.raises(ValueError):
            extract_impedance(RawIq(0.1, 0.1, 10e-6, 0.0, 1953.125))


class TestDerotate:
    def test_definition(self):
        z = cmath.rect(1.0, np.radians(-22.5))
        assert cmath.phase(derotate(z)) == pytest.approx(0.0, abs=1e-12)

    def test_zero(self):
        assert derotate(0j) == 0

    def test_magnitude_preserved(self):
        z = 3.0 - 4.0j
        assert abs(derotate(z)) == pytest.approx(5.0)

    def test_commutes_with_equalization(self):
        z = 2.0 - 1.0j
        coeff = 1.3 * cmath.exp(0.7j)
        assert derotate(z) * coeff == pytest.approx(derotate(z * coeff))

    def test_resistor_phase_after_derotation(self):
        # noise-off analog chain output: |angle| < 0.1 deg at the lowest
        # plan frequency (the LNA pole contributes only -0.05 deg there)
        z = analog_reading(ParallelRC(r=100.0, c=0.0), 10, "111", QUIET)
        assert abs(np.degrees(cmath.phase(z))) < 0.1


class TestAutoGain:
    @pytest.mark.parametrize(
        "z,word",
        [
            (100.0, "111"),
            (399.9, "111"),
            (400.0, "101"),  # boundary takes the lower-gain word
            (1000.0, "101"),
            (1200.0, "001"),
            (2000.0, "001"),
            (3600.0, "000"),
            (11000.0, "000"),
        ],
    )
    def test_ranges(self, z, word):
        assert auto_gain(z) == word

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            auto_gain(11001.0)
        with pytest.raises(ValueError):
            auto_gain(-1.0)


class TestOffsets:
    def test_noise_off_measures_chain_offset(self):
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=QUIET)
        vi, vq = measure_offsets(setup, ["111"], [[0]])["111"]
        step = 2 * 1.8 / 1024
        assert abs(vi - QUIET.offset) <= step / 2
        assert abs(vq - QUIET.offset) <= step / 2

    def test_injected_50mv_recovered(self):
        p = ChainParams(offset=0.050, noise_floor=0.0, carrier_noise_v=0.0)
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=p)
        vi, _ = measure_offsets(setup, ["111"], [[0]])["111"]
        assert abs(vi - 0.050) <= 1.8 / 1024  # one reconstructed-domain LSB

    def test_deterministic_with_seed(self):
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=ChainParams())
        assert measure_offsets(setup, ["111"], [[5]]) == measure_offsets(setup, ["111"], [[5]])

    def test_zero_offset_zero_noise(self):
        p = ChainParams(offset=0.0, noise_floor=0.0, carrier_noise_v=0.0)
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=p)
        assert measure_offsets(setup, ["111"], [[0]]) == {"111": (0.0, 0.0)}

    def test_a_word_without_seeds_is_rejected(self):
        # its rows would be none, and its offset would read (0.0, 0.0)
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=QUIET)
        with pytest.raises(ValueError, match="at least one seed"):
            measure_offsets(setup, ["111", "000"], [[0], []])


class TestEqualization:
    def test_ideal_chain_coefficients_near_unity(self):
        # without the LNA pole the only residual is the hold-image product
        # deficit of the flat reference (~3.3%), absorbed as a real factor
        coeffs = analog_table(ChainParams(lna_pole=None, noise_floor=0.0,
                                          carrier_noise_v=0.0, offset=0.0))
        for c in coeffs.values():
            assert 1.0 < abs(c) < 1.05
            assert abs(np.degrees(np.angle(c))) < 0.05

    def test_default_chain_top_frequency_boost(self):
        coeffs = analog_table(QUIET)
        top = coeffs[0]
        # single-pole response at 2 MHz / 2.2 MHz: |coeff| ~ 1.35, +42 deg
        assert abs(top) == pytest.approx(1.35, abs=0.03)
        assert np.degrees(np.angle(top)) == pytest.approx(42.3, abs=1.0)

    def test_low_frequency_coefficient_near_unity(self):
        coeffs = analog_table(QUIET)
        assert abs(coeffs[10]) == pytest.approx(1.03, abs=0.01)
        assert abs(np.degrees(np.angle(coeffs[10]))) < 0.5

    def test_full_pipeline_build_and_idempotence(self):
        params = ChainParams()
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=params)
        table = build_equalization(setup, 100.0, "111", seed=42, created_at="t")
        # re-measuring the reference through the table returns it
        zs = [
            measure_impedance(setup, 5, "111", table=table, seed=s).z
            for s in range(10)
        ]
        assert abs(np.mean(zs) - 100.0) < 0.5

    def test_saturation_aborts(self):
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=QUIET)
        with pytest.raises(CalibrationError):
            build_equalization(setup, reference_r=3000.0, gain_word="111", seed=1,
                               created_at="t")

    def test_a_malformed_gain_word_is_named(self):
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0))
        with pytest.raises(ValueError, match="gain word must be 3 bits, got '11'"):
            build_equalization(setup, gain_word="11", seed=1, created_at="t")

    def test_sanity_bounds_enforced(self):
        with pytest.raises(CalibrationError, match="sanity bounds"):
            CalibrationTable(
                reference_r=100.0, gain_word="111", offsets={"111": (0.0, 0.0)},
                eq_coeffs={1953.125: 3.0 + 0j}, created_at="t",
            )

    def test_a_table_needs_its_own_words_offset(self):
        # built in code as from a file: a reading under the table's word
        # would otherwise subtract no offset
        with pytest.raises(CalibrationError, match="no offset for its own gain word 111"):
            CalibrationTable(reference_r=100.0, gain_word="111", offsets={"101": (0.0, 0.0)},
                             eq_coeffs={})


class TestApplyCalibration:
    def make_table(self):
        return CalibrationTable(
            reference_r=100.0,
            gain_word="111",
            offsets={"111": (0.01, 0.01)},
            eq_coeffs={f: 1.0 + 0j for f in plan_frequencies()},
            created_at="t",
        )

    def test_identity_coefficients(self):
        t = self.make_table()
        z = cmath.rect(100.0, np.radians(-22.5))
        reading = apply_calibration(z, t, 1953.125, "111")
        assert reading.z == pytest.approx(100.0 + 0j)
        assert reading.flags == ()

    def test_gain_word_mismatch_rejected(self):
        t = self.make_table()
        with pytest.raises(CalibrationError):
            apply_calibration(100 + 0j, t, 1953.125, "101")

    def test_out_of_table_flagged(self):
        t = self.make_table()
        reading = apply_calibration(100 + 0j, t, 3000.0, "111")
        assert "out_of_table" in reading.flags

    def test_json_round_trip_exact(self, tmp_path):
        params = ChainParams()
        setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=params)
        table = build_equalization(setup, 100.0, "111", seed=7, created_at="pinned")
        path = tmp_path / "cal.json"
        table.save(path)
        back = CalibrationTable.load(path)
        assert back.reference_r == table.reference_r
        assert back.gain_word == table.gain_word
        assert back.created_at == table.created_at
        assert back.offsets == table.offsets
        assert back.eq_coeffs == table.eq_coeffs  # bit-exact floats
        # a second save is byte-identical
        assert back.to_json() == table.to_json()

    def test_version_checked(self):
        with pytest.raises(CalibrationError):
            CalibrationTable.from_json('{"version": 2}')

    @pytest.mark.parametrize("version", [True, 1.0], ids=["boolean", "float"])
    def test_version_must_be_the_integer_1(self, version):
        # True == 1.0 == 1, so an equality test alone accepts both
        doc = json.loads(self.make_table().to_json())
        doc["version"] = version
        with pytest.raises(CalibrationError, match="version"):
            CalibrationTable.from_json(json.dumps(doc))

    def test_non_json_text_rejected(self):
        with pytest.raises(CalibrationError, match="not valid JSON"):
            CalibrationTable.from_json("not json")

    def test_non_object_document_rejected(self):
        with pytest.raises(CalibrationError, match="JSON object"):
            CalibrationTable.from_json("[1, 2]")

    def test_missing_key_rejected(self):
        with pytest.raises(CalibrationError, match="reference_r"):
            CalibrationTable.from_json('{"version": 1}')

    @pytest.mark.parametrize("field,value", [
        ("reference_r", "100"), ("gain_word", 111), ("offsets", [1, 2]),
        ("offsets", {"111": {"v_i": "x", "v_q": 0.0}}), ("eq_coeffs", 5),
        ("eq_coeffs", [{"freq_hz": "2e6", "re": 1.0, "im": 0.0}]),
        ("eq_coeffs", [{"freq_hz": 2e6, "re": float("nan"), "im": 0.0}]),
        ("reference_r", 10**400),
        ("offsets", {"101": {"v_i": 0.0, "v_q": 0.0}}), ("gain_word", "112"),
        ("offsets", {"111": {"v_i": 0.0, "v_q": 0.0}, "11": {"v_i": 0.0, "v_q": 0.0}}),
        ("eq_coeffs", [{"freq_hz": 2000.0, "re": 1.0, "im": 0.0}]),
        ("eq_coeffs", [{"freq_hz": 2e6, "re": 1.0, "im": 0.0},
                       {"freq_hz": 2e6 * (1 + 1e-7), "re": 1.0, "im": 0.0}]),
        ("colour", "blue"), ("created_at", 5),
    ], ids=["string_reference", "integer_gain_word", "offsets_list", "string_offset",
            "coeffs_not_list", "string_frequency", "nan_coefficient",
            "integer_beyond_float_reference", "no_offset_for_own_gain_word",
            "gain_word_not_3_bits", "offset_key_not_3_bits", "off_plan_frequency",
            "plan_frequency_twice", "unknown_key", "integer_created_at"])
    def test_wrongly_typed_entry_rejected(self, field, value):
        doc = json.loads(self.make_table().to_json())
        doc[field] = value
        with pytest.raises(CalibrationError, match="malformed"):
            CalibrationTable.from_json(json.dumps(doc))

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(CalibrationError, match="UTF-8"):
            CalibrationTable.load(path)


class TestStackedReading:
    """A group of seeds at one plan index gives one reading whose `z` has
    one entry per seed, each by `tobytes` that seed's reading alone, and
    whose flags are those of any entry, in the order a single reading
    lists them."""

    SETUP = MeasurementSetup(model=ParallelRC(r=270.0, c=3e-9))
    SEEDS = np.random.SeedSequence(21).spawn(10)

    @pytest.fixture(scope="class")
    def built(self):
        ref = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0))
        return build_equalization(ref, 100.0, "111", seed=5, created_at="t")

    @staticmethod
    def without(table, idx):
        """The table with plan frequency `idx` left out."""
        f0 = plan_frequencies()[idx]
        return CalibrationTable(reference_r=100.0, gain_word="111", offsets=table.offsets,
                                eq_coeffs={f: c for f, c in table.eq_coeffs.items() if f != f0})

    def assert_entries_are_single_readings(self, setup, idx, table, seeds):
        [stacked] = measure_impedance(setup, [idx], "111", table=table, seed=[seeds])
        alone = [measure_impedance(setup, idx, "111", table=table, seed=s) for s in seeds]
        assert stacked.z.shape == (len(seeds),)
        for z, single in zip(stacked.z, alone):
            assert np.complex128(z).tobytes() == np.complex128(single.z).tobytes()
        assert (stacked.freq, stacked.gain_word) == (alone[0].freq, alone[0].gain_word)
        union = tuple(f for f in ("out_of_table", "saturated")
                      if any(f in single.flags for single in alone))
        assert stacked.flags == union
        return alone

    @pytest.mark.parametrize("table", ["none", "built", "loaded"])
    @pytest.mark.parametrize("idx", [0, 5, 10])
    def test_entries_equal_single_readings(self, built, table, idx):
        # a built table holds numpy coefficients, a loaded one Python complexes
        table = {"none": None, "built": built,
                 "loaded": CalibrationTable.from_json(built.to_json())}[table]
        alone = self.assert_entries_are_single_readings(self.SETUP, idx, table, self.SEEDS)
        assert all(single.flags == () for single in alone)

    def test_out_of_table(self, built):
        alone = self.assert_entries_are_single_readings(self.SETUP, 5, self.without(built, 5),
                                                        self.SEEDS)
        assert all(single.flags == ("out_of_table",) for single in alone)

    @pytest.mark.parametrize("in_table", [True, False])
    def test_some_rows_saturate(self, built, in_table):
        # 430 ohm at 1953 Hz clamps a few taps on some seeds only
        table = built if in_table else self.without(built, 10)
        setup = MeasurementSetup(model=ParallelRC(r=430.0, c=0.0))
        seeds = np.random.SeedSequence(9).spawn(10)
        alone = self.assert_entries_are_single_readings(setup, 10, table, seeds)
        assert 0 < sum("saturated" in single.flags for single in alone) < len(seeds)


class TestGroupStack:
    """A list of plan indices, gain words or reference frequencies is one
    stack of (configuration, seed) rows; every group comes back as that
    group measured alone, bit for bit."""

    SETUP = MeasurementSetup(model=ParallelRC(r=270.0, c=3e-9))
    INDICES = [10, 0, 5, 7]
    SEEDS = [s.spawn(n) for s, n in zip(np.random.SeedSequence(33).spawn(4), [10, 1, 3, 7])]

    @staticmethod
    def key(reading):
        return (np.asarray(reading.z, complex).tobytes(), reading.freq, reading.gain_word,
                reading.flags)

    @pytest.mark.parametrize("table", ["none", "built", "loaded", "short"])
    def test_readings_equal_each_index_alone(self, table):
        built = build_equalization(MeasurementSetup(model=ParallelRC(r=100.0)), 100.0, "111",
                                   seed=5, created_at="t")
        table = {"none": None, "built": built,
                 "loaded": CalibrationTable.from_json(built.to_json()),
                 "short": TestStackedReading.without(built, 5)}[table]
        readings = measure_impedance(self.SETUP, self.INDICES, "111", table=table, seed=self.SEEDS)
        alone = [measure_impedance(self.SETUP, [idx], "111", table=table, seed=[seeds])[0]
                 for idx, seeds in zip(self.INDICES, self.SEEDS)]
        assert [self.key(r) for r in readings] == [self.key(r) for r in alone]

    def test_saturation_is_flagged_per_index(self):
        # 430 ohm clamps taps at 1953 Hz on some seeds, never at 2 MHz
        setup = MeasurementSetup(model=ParallelRC(r=430.0, c=0.0))
        seeds = [np.random.SeedSequence(9).spawn(10), np.random.SeedSequence(8).spawn(10)]
        readings = measure_impedance(setup, [10, 0], "111", seed=seeds)
        assert [r.flags for r in readings] == [("saturated",), ()]
        alone = [measure_impedance(setup, [i], "111", seed=[s])[0] for i, s in zip([10, 0], seeds)]
        assert [self.key(r) for r in readings] == [self.key(r) for r in alone]

    def test_offsets_equal_each_word_alone(self):
        words = ["111", "000", "101"]
        # 8 seeds or more sum pairwise, fewer in row order
        seeds = [r.spawn(n) for r, n in zip(np.random.SeedSequence(12).spawn(3), [4, 1, 9])]
        stacked = measure_offsets(self.SETUP, words, seeds)
        alone = {w: measure_offsets(self.SETUP, [w], [s])[w] for w, s in zip(words, seeds)}
        assert stacked == alone

    @pytest.mark.parametrize("seed", [4, 2**40 + 1])
    def test_calibration_equals_its_groups_alone(self, seed):
        # the table as built one frequency at a time, from numpy's own
        # spawned SeedSequences; the offset is its gain word's alone
        setup = MeasurementSetup(model=ParallelRC(r=150.0, c=2e-9))
        children = np.random.SeedSequence(seed).spawn(8 + 11)
        offsets = measure_offsets(setup, ["111"], [children[GAIN_WORDS.index("111")].spawn(4)])
        table = build_equalization(setup, 100.0, "111", seed=seed, created_at="t")
        assert table.offsets == offsets
        ref = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0))
        config = AfeConfig()
        for idx, f0 in enumerate(plan_frequencies()):
            res = ref.run([AfeConfig.from_gain_word("111", freq_index=idx)],
                          [children[8 + idx].spawn(10)])
            raw = RawIq(res.v_i_dc - offsets["111"][0], res.v_q_dc - offsets["111"][1],
                        config.current_amplitude, ChainParams().total_gain(1), f0)
            want = 100.0 / np.complex128(derotate(np.mean(extract_impedance(raw))))
            assert np.complex128(table.eq_coeffs[f0]).tobytes() == want.tobytes()


class TestRoundTrip:
    """Calibrated extraction against the model ground truth (analog level;
    quantization and noise are characterized separately)."""

    def test_signature_matched_loads_within_half_percent(self):
        # loads whose image spectrum matches the flat reference (corner well
        # above the image harmonics that reach the mixer) round-trip tightly
        params = QUIET
        tables = {w: analog_table(params, word=w) for w in ("111", "101", "001")}
        cases = [
            ParallelRC(r=100.0, c=0.0),
            ParallelRC(r=50.0, c=0.0),
            ParallelRC(r=1000.0, c=0.0),
            ParallelRC(r=3000.0, c=0.0),
            ParallelRC(r=300.0, c=1e-9),  # corner 530 kHz
        ]
        for model in cases:
            corner = np.inf if model.c == 0 else 1 / (2 * np.pi * model.r * model.c)
            for idx in (2, 5, 8, 10):
                f0 = plan_frequencies()[idx]
                if corner < 15 * f0:
                    continue  # images attenuated: not signature-matched
                truth = impedance_at(model, f0)
                word = auto_gain(abs(truth))
                if word not in tables:
                    continue
                z = analog_reading(model, idx, word, params) * tables[word][idx]
                assert abs(z - truth) / abs(truth) < 5e-3, (model, idx)

    def test_reactive_loads_bounded_by_image_spread(self):
        # a load that attenuates the hold images before mixing no longer
        # matches the flat reference's image-product deficit (3.3%); the
        # single-tap equalizer leaves up to ~4-5% on strongly capacitive
        # points, absorbed by the 5% frequency-response tolerance
        params = QUIET
        table = analog_table(params, word="111")
        model = ParallelRC(r=1000.0, c=0.1e-6)
        for idx in (4, 7, 10):  # 125 kHz, 15.6 kHz, 1.95 kHz
            truth = impedance_at(model, plan_frequencies()[idx])
            z = analog_reading(model, idx, "111", params) * table[idx]
            assert abs(z - truth) / abs(truth) < 0.05

    def test_scaling_by_two(self):
        params = QUIET
        table = analog_table(params, word="111")
        z1 = analog_reading(ParallelRC(r=100.0, c=0.0), 5, "111", params) * table[5]
        z2 = analog_reading(ParallelRC(r=200.0, c=0.0), 5, "111", params) * table[5]
        assert abs(z2 / z1 - 2.0) < 0.01

    def test_offset_independence(self):
        # after offset subtraction, injected chain offsets 0 and 50 mV give
        # the same reading within one reconstructed LSB per component
        readings = []
        for off in (0.0, 0.050):
            p = ChainParams(offset=off, noise_floor=0.0, carrier_noise_v=0.0)
            setup = MeasurementSetup(model=ParallelRC(r=100.0, c=0.0), params=p)
            offs = measure_offsets(setup, ["111"], [[0]])
            table = CalibrationTable(reference_r=100.0, gain_word="111", offsets=offs, eq_coeffs={})
            readings.append(measure_impedance(setup, 10, "111", table=table, seed=0).z)
        lsb_ohm = 2 * (1.8 / 1024) * (np.pi / 2) / (10e-6 * 700.0)
        assert abs(readings[0] - readings[1]) <= np.sqrt(2) * lsb_ohm
