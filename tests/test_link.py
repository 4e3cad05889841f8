import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from biozsim import link
from biozsim.acquire import sequence_duration
from biozsim.afe import AfeConfig, ChainParams
from biozsim.link import (
    BIT_RATE,
    BLOCK_CURRENTS_UA,
    BrownOutError,
    ChannelParams,
    ConfigWord,
    Frame,
    ImplantDevice,
    LOAD_CURRENT,
    OP_ACK,
    OP_NAK,
    OP_PING,
    OP_PONG,
    OP_READ_RESULT,
    OP_RESULT,
    OP_SET_CONFIG,
    OP_START_MEASURE,
    NAK_BAD_OPCODE,
    NAK_CHECKSUM,
    NAK_NO_RESULT,
    NAK_RESERVED_FREQ,
    PowerState,
    UART_BITS,
    decode_config,
    encode_config,
    session,
)

from reference import clamped_session, parse_frame


class TestConfigCodec:
    def test_all_zero(self):
        assert encode_config(ConfigWord()) == 0

    def test_round_trip_exhaustive(self):
        for bits in range(2**11):
            assert encode_config(decode_config(bits)) == bits

    def test_field_placement(self):
        w = ConfigWord(pll_cal=0b11, freq_sel=0, source_enable=0, iq_sel=0, gain=0)
        assert encode_config(w) == 0b11000000000
        w = ConfigWord(gain=0b111)
        assert encode_config(w) == 0b00000000111
        w = ConfigWord(freq_sel=0b1010)
        assert encode_config(w) == 0b00101000000
        w = ConfigWord(source_enable=1)
        assert encode_config(w) == 0b00000010000
        w = ConfigWord(iq_sel=1)
        assert encode_config(w) == 0b00000001000

    def test_reserved_frequency_on_use(self):
        w = decode_config(encode_config(ConfigWord(freq_sel=12)))
        assert w.freq_sel == 12  # codec itself round-trips
        with pytest.raises(ValueError, match="freq_index must be in 0..10"):
            w.to_afe_config()

    def test_to_afe_config(self):
        w = ConfigWord(freq_sel=4, source_enable=1, iq_sel=1, gain=0b101)
        cfg = w.to_afe_config()
        assert cfg.freq_index == 4
        assert cfg.gain_word == "101"
        assert cfg.source_enable == 1

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ConfigWord(freq_sel=16)
        with pytest.raises(ValueError):
            decode_config(2**11)


class TestConfigCache:
    """Each word is decoded, and mapped to its front-end configuration,
    once per process; the shared instances equal fresh ones."""

    def test_every_word_decodes_as_a_fresh_decode(self):
        for bits in range(2**11):
            fresh = ConfigWord(pll_cal=bits >> 9, freq_sel=(bits >> 5) & 0b1111,
                               source_enable=(bits >> 4) & 1, iq_sel=(bits >> 3) & 1,
                               gain=bits & 0b111)
            word = decode_config(bits)
            assert word == fresh
            assert all(type(getattr(word, name)) is int for name in
                       ("pll_cal", "freq_sel", "source_enable", "iq_sel", "gain"))
            assert decode_config(bits) is word

    def test_out_of_range_words_raise_on_every_call(self):
        for bits in (2**11, -1, 2**11, -1):
            with pytest.raises(ValueError, match="11 bits"):
                decode_config(bits)

    def test_reserved_frequency_raises_on_every_call(self):
        for freq_sel in range(11, 16):
            word = decode_config(encode_config(ConfigWord(freq_sel=freq_sel, gain=0b111)))
            for _ in range(3):
                with pytest.raises(ValueError, match="freq_index"):
                    word.to_afe_config()

    def test_front_end_configuration_is_a_fresh_one(self):
        for bits in range(2**11):
            word = decode_config(bits)
            if word.freq_sel >= 11:
                continue
            fresh = AfeConfig(g0=word.gain >> 2, g1=(word.gain >> 1) & 1, g2=word.gain & 1,
                              source_enable=word.source_enable, freq_index=word.freq_sel)
            assert word.to_afe_config() == fresh
            assert word.to_afe_config() is word.to_afe_config()


class TestPowerBudget:
    def test_total(self):
        # the reservoir's default load is every block on, 165.5 uA, bit for bit
        assert LOAD_CURRENT == sum(BLOCK_CURRENTS_UA.values()) / 1e6 == 165.5e-6


class TestFrames:
    def test_round_trip(self):
        f = Frame(OP_PING, b"\x5a")
        assert parse_frame(f.to_bytes()) == (OP_PING, b"\x5a")

    def test_checksum_is_additive(self):
        data = Frame(OP_PING, b"\x5a").to_bytes()
        assert data[-1] == sum(data[:-1]) & 0xFF

    def test_corrupt_flag_breaks_checksum(self):
        data = Frame(OP_PING, b"\x5a", corrupt=True).to_bytes()
        with pytest.raises(ValueError, match="checksum"):
            parse_frame(data)

    def test_payload_length_enforced(self):
        with pytest.raises(ValueError):
            Frame(OP_SET_CONFIG, b"\x01")
        with pytest.raises(ValueError):
            Frame(0x55, b"")

    def test_hex_dump(self):
        # sync a5, opcode 04, token 5a, checksum (a5+04+5a) & ff = 03
        assert Frame(OP_PING, b"\x5a").hex() == "a5045a03"


def set_config_frame(**kw):
    payload = encode_config(ConfigWord(**kw)).to_bytes(2, "big")
    return Frame(OP_SET_CONFIG, payload)


class TestSession:
    def test_ping_echo(self):
        result = session([Frame(OP_PING, b"\x77")])
        assert [r.opcode for r in result.responses] == [OP_PONG]
        assert result.responses[0].payload == b"\x77"

    def test_checksum_failure_naks(self):
        result = session([Frame(OP_PING, b"\x77", corrupt=True)])
        assert result.responses[0].opcode == OP_NAK
        assert result.responses[0].payload == bytes([NAK_CHECKSUM])

    def test_reserved_frequency_naks(self):
        result = session([set_config_frame(freq_sel=12, source_enable=1, gain=7)])
        assert result.responses[0].opcode == OP_NAK
        assert result.responses[0].payload == bytes([NAK_RESERVED_FREQ])

    def test_read_before_measure_naks(self):
        result = session([Frame(OP_READ_RESULT)])
        assert result.responses[0].opcode == OP_NAK
        assert result.responses[0].payload == bytes([NAK_NO_RESULT])

    def test_full_measure_transaction_without_brownout(self):
        frames = [
            set_config_frame(freq_sel=10, source_enable=1, gain=0b111),
            Frame(OP_START_MEASURE),
            Frame(OP_READ_RESULT),
        ]
        device = ImplantDevice(measure_backend=lambda w: (512, 480))
        result = session(frames, device=device)
        assert [r.opcode for r in result.responses] == [OP_ACK, OP_ACK, OP_RESULT]
        vi = int.from_bytes(result.responses[2].payload[:2], "big")
        vq = int.from_bytes(result.responses[2].payload[2:], "big")
        assert (vi, vq) == (512, 480)
        vmin = min(v for _, v, _ in result.trace)
        assert vmin > 2.8  # far above the 1.9 V brown-out margin

    def test_clamp_equilibrium_without_transmission(self):
        # harvesting with the reservoir below the clamp recovers toward 3.0 V
        power = PowerState(reservoir_voltage=2.5)
        result = session([], ChannelParams(), power)
        assert result.trace.volts[-1] <= 3.0
        # a downlink-heavy exchange starting at the clamp stays there
        result = session([set_config_frame(freq_sel=1)], ChannelParams(), PowerState())
        rx = [v for _, v, tag in result.trace if tag == "rx"]
        assert all(v == pytest.approx(3.0) for v in rx)

    def test_single_byte_droop_matches_it_over_c(self):
        # transmit droop: every zero bit shorts the tank for one bit time,
        # discharging the reservoir by I*t/C while recharge is negligible
        channel = ChannelParams()
        power = PowerState()
        result = session([Frame(OP_PING, b"\x55")], channel, power)
        wire = result.responses[0].to_bytes()
        zero_bits = sum(
            10 - 1 - bin(byte).count("1") for byte in wire  # start bit + data zeros
        )
        t_short = zero_bits / BIT_RATE
        predicted = 165.5e-6 * t_short / 20e-6
        tx = [v for _, v, tag in result.trace if tag == "tx"]
        droop = 3.0 - min(tx)
        assert droop == pytest.approx(predicted, rel=0.10)
        # per-byte droop sits in the 4-9 mV window
        assert 4e-3 < droop / len(wire) < 9e-3

    def test_brownout_with_small_reservoir(self):
        power = PowerState(reservoir_cap=0.05e-6)
        frames = [Frame(OP_PING, bytes([k % 256])) for k in range(20)]
        with pytest.raises(BrownOutError) as err:
            session(frames, ChannelParams(), power)
        # every brown-out is preceded by a transmit interval
        *_, (_, _, tag) = err.value.trace
        assert tag == "tx"

    def test_voltage_bounds(self):
        result = session([Frame(OP_PING, b"\x00")] * 5)
        volts = [v for _, v, _ in result.trace]
        assert max(volts) <= 3.0
        assert min(volts) >= 0.0

    def test_trace_holds_at_most_24_bytes_a_step(self):
        # one double of volts a step, and a time, dt and tag a run; the
        # responses are counted too
        frames = [Frame(OP_PING, bytes([k % 256])) for k in range(200)]
        device = ImplantDevice(measure_time=0.114)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = session(frames, device=device)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            for _ in result.trace:
                pass
            iterating = tracemalloc.get_traced_memory()[1] - before - held
        finally:
            tracemalloc.stop()
        assert len(result.trace.volts) == 1 + 200 * (1 + 40)
        assert held <= 24 * len(result.trace.volts)
        # iteration yields one step at a time, never a list of them all
        assert iterating < 4096

    def test_deterministic(self):
        frames = [set_config_frame(freq_sel=3, gain=5), Frame(OP_PING, b"\x12")]
        a = session(frames)
        b = session(frames)
        assert list(a.trace) == list(b.trace)
        assert [r.to_bytes() for r in a.responses] == [r.to_bytes() for r in b.responses]

    def test_device_config_applied(self):
        device = ImplantDevice(measure_backend=lambda w: (int(w.freq_sel), int(w.gain)))
        frames = [
            set_config_frame(freq_sel=7, source_enable=1, gain=0b001),
            Frame(OP_START_MEASURE),
            Frame(OP_READ_RESULT),
        ]
        result = session(frames, device=device)
        payload = result.responses[2].payload
        assert int.from_bytes(payload[:2], "big") == 7
        assert int.from_bytes(payload[2:], "big") == 0b001


class TestRecordedSessions:
    """Traces and protocol logs equal, bit for bit, those recorded from the
    session loop that evaluated exp(-bit_t / tau) and I * bit_t / C per bit.
    The log, one line per command, is rebuilt from the frames and their
    responses as the session once wrote it."""

    @staticmethod
    def frames():
        frames = [Frame(OP_PING, b"\x5a"), Frame(OP_PING, b"\x00", corrupt=True)]
        for idx in (0, 10):
            frames += [set_config_frame(freq_sel=idx, source_enable=1, gain=5),
                       Frame(OP_START_MEASURE), Frame(OP_READ_RESULT)]
        return frames

    @staticmethod
    def device():
        return ImplantDevice(measure_backend=lambda w: (0x155, 0x2AA), measure_time=0.114)

    @staticmethod
    def digest(trace, events=()):
        text = "\n".join(f"{t.hex()} {v.hex()} {tag}" for t, v, tag in trace)
        return hashlib.sha256((text + "\n" + "\n".join(events)).encode()).hexdigest()

    @staticmethod
    def log(frames, responses):
        rejected = Frame(OP_NAK, bytes([NAK_CHECKSUM]))
        return [f"rx {cmd.hex()} -> tx {rsp.hex()}" + (" [checksum rejected]" if rsp == rejected else "")
                for cmd, rsp in zip(frames, responses)]

    @pytest.mark.parametrize("r_source, digest", [
        (0.0, "f3f1dd0d8be9f86430f9bbd4d4169a5885ec7e4b7bebe0fa8809fdd4a7fa7a6d"),
        (2500.0, "3ec1f66406ac438f3ad3bb57d43bcd65865185fe9a769dee092b7b4068a8dad0"),
    ])
    def test_session_matches_its_recording(self, r_source, digest):
        result = session(self.frames(), ChannelParams(r_source=r_source),
                         PowerState(reservoir_voltage=2.5), self.device())
        assert len(result.trace.volts) == 391
        assert self.digest(result.trace, self.log(self.frames(), result.responses)) == digest

    def test_brownout_matches_its_recording(self):
        with pytest.raises(BrownOutError) as err:
            session(self.frames(), ChannelParams(), PowerState(reservoir_cap=0.2e-6), self.device())
        trace = list(err.value.trace)
        assert len(trace) == len(err.value.trace.volts) == 159
        assert trace[-1] == (0.14660416666666626, 1.8760826928050616, "tx")
        assert self.digest(trace) == "48b10ac7c3fc281165a85bb8331ae5e82f28d80fd591895b604b09e931de8692"

    def test_start_below_the_floor_browns_out_at_the_first_rx(self):
        with pytest.raises(BrownOutError) as err:
            session(self.frames(), ChannelParams(), PowerState(reservoir_voltage=1.0), self.device())
        trace = list(err.value.trace)
        assert len(trace) == 2
        assert trace[-1] == (0.004166666666666667, 1.1599111707413534, "rx")
        assert str(err.value) == "brown-out at t=4.17 ms, reservoir 1.160 V"
        assert self.digest(trace) == "0c76a196bc63521cdc1b5745a2dfe95b639fb911c4c19279416e9ad4c53bcf67"


class TestPowerInputs:
    """A source or reservoir that no session can run is refused when it is
    built, by one line that names the field."""

    NAN, INF = float("nan"), float("inf")

    @staticmethod
    def refused(build, field):
        with pytest.raises(ValueError) as info:
            build()
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith(f"{field} must be ")

    @pytest.mark.parametrize("cap", [0.0, -20e-6, NAN, INF, -INF])
    def test_reservoir_cap_must_be_positive_and_finite(self, cap):
        self.refused(lambda: PowerState(reservoir_cap=cap), "reservoir_cap")

    @pytest.mark.parametrize("volts", [NAN, INF, -INF])
    def test_reservoir_voltage_must_be_finite(self, volts):
        self.refused(lambda: PowerState(reservoir_voltage=volts), "reservoir_voltage")

    @pytest.mark.parametrize("r_source", [-1.0, -INF, NAN])
    def test_r_source_must_be_non_negative(self, r_source):
        self.refused(lambda: ChannelParams(r_source=r_source), "r_source")

    def test_an_ideal_source_recharges_to_the_clamp_at_every_open_step(self):
        result = session([Frame(OP_PING, b"\x00")] * 3, ChannelParams(r_source=0.0),
                         PowerState(reservoir_voltage=2.5))
        volts = [v for _, v, _ in result.trace]
        assert volts[0] == 2.5
        assert [v for (_, v, tag) in result.trace if tag == "rx"] == [3.0] * 3

    def test_no_source_only_discharges(self):
        result = session([Frame(OP_PING, b"\x00")] * 3, ChannelParams(r_source=float("inf")),
                         PowerState(reservoir_voltage=2.5))
        volts = [v for _, v, _ in result.trace]
        assert volts == sorted(volts, reverse=True)
        assert volts[-1] < 2.5


def session_outcome(run, frames, r_source, v0, cap, measure_time):
    """A session's responses, trace (times and volts as hex) and any
    brown-out message."""
    device = ImplantDevice(measure_backend=lambda w: (0x155, 0x2AA), measure_time=measure_time)
    try:
        result = run(frames, ChannelParams(r_source=r_source),
                     PowerState(reservoir_voltage=v0, reservoir_cap=cap), device)
    except BrownOutError as exc:
        trace, responses, message = exc.trace, None, str(exc)
    else:
        trace, responses, message = result.trace, result.responses, None
    return [(t.hex(), float(v).hex(), tag) for t, v, tag in trace], responses, message


SESSION_FRAMES = st.lists(st.one_of(
    st.builds(lambda token, corrupt: Frame(OP_PING, bytes([token]), corrupt=corrupt),
              st.integers(0, 255), st.booleans()),
    st.builds(lambda idx, corrupt: Frame(OP_SET_CONFIG, set_config_frame(freq_sel=idx).payload,
                                         corrupt=corrupt),
              st.integers(0, 15), st.booleans()),
    st.builds(lambda op, corrupt: Frame(op, corrupt=corrupt),
              st.sampled_from([OP_START_MEASURE, OP_READ_RESULT]), st.booleans()),
), max_size=12)


@settings(max_examples=200, deadline=None)
@given(SESSION_FRAMES,
       st.one_of(st.floats(0.0, 5.0).map(lambda e: 10 ** e - 1.0),
                 st.sampled_from([float("inf"), 0.0])),
       st.floats(-1.0, 4.0),
       st.floats(-8.0, -3.0).map(lambda e: 10 ** e),
       st.floats(0.0, 0.2))
def test_session_equals_the_clamped_loop(frames, r_source, v0, cap, measure_time):
    """Every uplink bit's voltage, time and any brown-out equal, bit for
    bit, those of the loop that clamps each bit to [0, clamp]: over any
    source resistance and reservoir a session accepts, the ideal source
    and no source included, and start voltages below 0 V, below the floor
    and above the clamp."""
    assert (session_outcome(session, frames, r_source, v0, cap, measure_time)
            == session_outcome(clamped_session, frames, r_source, v0, cap, measure_time))


class TestConstantResponses:
    """Every ACK and NAK the device returns is a constant built once with
    its line bits; each equals a freshly built frame on the wire and on
    the line."""

    # (command, the response a fresh frame gives), in order on one device
    EXCHANGE = [
        (Frame(OP_PING, b"\x01", corrupt=True), Frame(OP_NAK, bytes([NAK_CHECKSUM]))),
        (Frame(OP_READ_RESULT), Frame(OP_NAK, bytes([NAK_NO_RESULT]))),
        (Frame(OP_START_MEASURE), Frame(OP_NAK, bytes([NAK_NO_RESULT]))),
        (set_config_frame(freq_sel=12), Frame(OP_NAK, bytes([NAK_RESERVED_FREQ]))),
        (Frame(OP_PONG, b"\x00"), Frame(OP_NAK, bytes([NAK_BAD_OPCODE]))),
        (set_config_frame(freq_sel=3), Frame(OP_ACK, bytes([OP_SET_CONFIG]))),
        (Frame(OP_START_MEASURE), Frame(OP_ACK, bytes([OP_START_MEASURE]))),
    ]

    @staticmethod
    def line(frame):
        return b"".join(UART_BITS[byte] for byte in frame.to_bytes())

    def test_each_ack_and_nak_equals_a_fresh_frame(self):
        device = ImplantDevice()
        for command, fresh in self.EXCHANGE:
            response, _ = device.handle(command.to_bytes())
            assert response == fresh
            assert response.to_bytes() == fresh.to_bytes()
            assert link._LINE_BITS[response] == self.line(fresh)
            # the same instance every time
            assert device.handle(command.to_bytes())[0] is response
        reasons = {fresh.payload[0] for _, fresh in self.EXCHANGE if fresh.opcode == OP_NAK}
        assert reasons == {NAK_CHECKSUM, NAK_RESERVED_FREQ, NAK_BAD_OPCODE, NAK_NO_RESULT}
        assert len(link._LINE_BITS) == 6

    def test_a_session_sends_the_table_bits_as_it_would_encode_them(self, monkeypatch):
        commands = [command for command, _ in self.EXCHANGE] + [Frame(OP_READ_RESULT)]
        tabled = session(commands, device=ImplantDevice(measure_backend=lambda w: (1, 2)))
        monkeypatch.setattr(link, "_LINE_BITS", {})
        encoded = session(commands, device=ImplantDevice(measure_backend=lambda w: (1, 2)))
        assert tabled.responses == encoded.responses
        assert tabled.responses[:-1] == [fresh for _, fresh in self.EXCHANGE]
        assert [(t.hex(), v.hex(), tag) for t, v, tag in tabled.trace] == \
            [(t.hex(), v.hex(), tag) for t, v, tag in encoded.trace]


def test_uart_bits_are_8n1_lsb_first():
    assert len(UART_BITS) == 256
    for byte, bits in enumerate(UART_BITS):
        assert tuple(bits) == (0, *map(int, reversed(f"{byte:08b}")), 1)


class TestMeasureTime:
    FRAMES = [set_config_frame(freq_sel=10, source_enable=1, gain=0b111), Frame(OP_START_MEASURE)]

    def busy(self, device):
        steps = list(session(self.FRAMES, device=device).trace)
        (before, after), = [(steps[k - 1][0], t) for k, (t, _, tag) in enumerate(steps)
                            if tag == "measure"]
        return after - before

    def test_default_is_the_default_sequence(self):
        device = ImplantDevice(measure_backend=lambda w: (512, 480))
        assert device.measure_time == 0.114
        assert device.measure_time == sequence_duration(ChainParams(), 32)

    def test_longer_settling_lengthens_the_busy_interval(self):
        slow = sequence_duration(ChainParams(settle_time=0.05), 32)
        assert slow == pytest.approx(2 * (0.05 + 0.032))
        assert self.busy(ImplantDevice(measure_time=slow)) > self.busy(ImplantDevice())
        assert self.busy(ImplantDevice(measure_time=slow)) == pytest.approx(slow)
