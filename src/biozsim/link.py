"""Reader <-> implant half-duplex link at envelope/bit level.

The 13.56 MHz carrier is not simulated per cycle: downlink commands are
ASK frames the implant demodulates while continuing to harvest, and uplink
responses are sent by load modulation, shorting the resonant tank during
every zero bit so harvesting pauses and the 20 uF reservoir discharges at
the chip's load current, `LOAD_CURRENT`.  Serial format is 8N1 at
`BIT_RATE`, 9.6 kbps (start bit 0, eight data bits LSB-first, stop bit 1);
a zero bit shorts the tank.

Wire format (all integers unsigned, checksum = sum of every preceding
frame byte mod 256):

    offset  field     notes
    0       sync      0xA5
    1       opcode    see below
    2..     payload   fixed length per opcode
    last    checksum

    opcode  dir      payload
    0x01    reader   SET_CONFIG: 2 bytes, big-endian, 11-bit word in the
                     low bits: [pll_cal(2) | freq_sel(4) | source_en(1) |
                     iq_sel(1) | gain(3)], MSB first
    0x02    reader   START_MEASURE: none
    0x03    reader   READ_RESULT: none
    0x04    reader   PING: 1 token byte
    0x81    implant  ACK: 1 status byte (echoes the opcode acknowledged)
    0x82    implant  RESULT: 4 bytes, I then Q ADC codes, each big-endian
                     10-bit in 2 bytes
    0x84    implant  PONG: 1 token byte (echo)
    0x7F    implant  NAK: 1 reason byte (1 = checksum, 2 = reserved
                     frequency, 3 = bad opcode, 4 = no result)

The power side is an energy-reservoir budget: the rectifier recharges the
reservoir first-order toward the diode-chain clamp, `CLAMP_VOLTAGE`
(3.0 V), with time constant r_source * C; while the tank is shorted the
reservoir discharges by I_load * dt / C.  The session aborts with a
brown-out error when the reservoir drops below the regulator dropout
margin, `BROWNOUT_VOLTAGE` (1.9 V).  These are the link's constants; the
source resistance and the reservoir are parameters.  `session`
records the reservoir after every step, every uplink bit boundary
included, in one flat loop over the frame's line bits.  The implant's
constant responses, its two ACK frames and four NAK frames, are built
once together with their line bits (`_LINE_BITS`); only a PONG or RESULT
frame is encoded per response, from `UART_BITS`, the constant table of
the 10 8N1 bits of each byte value.  Each 11-bit config word is decoded,
and mapped to its front-end configuration, once per process.
The record is a packed `Trace`: each step's volts as one double, and a
start time, a time step and a tag once per run of steps (the start step,
each `rx` or `measure` step, one uplink frame's bits), about 10 B a step.
A step's time is replayed from its run by the additions the session
made, so it is bit for bit the time the session reached.

A session owns the reader and implant state machines exclusively; the
module is otherwise stateless, and a session is deterministic given the
command list, channel parameters and power state.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import index
from typing import Callable, Optional

from . import acquire, afe
from .waveforms import N_PLAN

SYNC = 0xA5

OP_SET_CONFIG = 0x01
OP_START_MEASURE = 0x02
OP_READ_RESULT = 0x03
OP_PING = 0x04
OP_ACK = 0x81
OP_RESULT = 0x82
OP_PONG = 0x84
OP_NAK = 0x7F

PAYLOAD_LEN = {
    OP_SET_CONFIG: 2,
    OP_START_MEASURE: 0,
    OP_READ_RESULT: 0,
    OP_PING: 1,
    OP_ACK: 1,
    OP_RESULT: 4,
    OP_PONG: 1,
    OP_NAK: 1,
}

NAK_CHECKSUM = 1
NAK_RESERVED_FREQ = 2
NAK_BAD_OPCODE = 3
NAK_NO_RESULT = 4

#: Current consumption per block, microamps.
BLOCK_CURRENTS_UA = {
    "power_mgmt": 16.5,
    "pll": 22.9,
    "signal_gen": 29.0,
    "lna_mixer": 17.4,
    "tia": 9.2,
    "lpf": 58.5,
    "buffers": 12.0,
}

#: The chip's load current with every block on, amps (165.5 uA).
LOAD_CURRENT = sum(BLOCK_CURRENTS_UA.values()) / 1e6

#: Uplink and downlink bit rate, bits per second.
BIT_RATE = 9600.0

#: The rectifier's diode-chain clamp, volts.
CLAMP_VOLTAGE = 3.0

#: The regulator's dropout margin, volts: below it the chip browns out.
BROWNOUT_VOLTAGE = 1.9


@dataclass(frozen=True)
class ConfigWord:
    """The 11-bit configuration word.

    Layout, MSB first: pll_cal (2 bits, charge-pump trim, carried but not
    modeled), freq_sel (4 bits; 0..10 select plan frequencies, 11..15 are
    reserved), source_enable (1), iq_sel (1; 0 = I, 1 = Q; carried but
    not modeled either, since a measurement takes I and then Q), gain
    (3 bits g0 g1 g2).
    """

    pll_cal: int = 0
    freq_sel: int = 0
    source_enable: int = 0
    iq_sel: int = 0
    gain: int = 0

    def __post_init__(self):
        checks = (
            ("pll_cal", self.pll_cal, 4),
            ("freq_sel", self.freq_sel, 16),
            ("source_enable", self.source_enable, 2),
            ("iq_sel", self.iq_sel, 2),
            ("gain", self.gain, 8),
        )
        for name, value, span in checks:
            if not 0 <= value < span:
                raise ValueError(f"{name} out of range: {value}")

    @functools.lru_cache(maxsize=2**11)
    def to_afe_config(self):
        """The front-end configuration, one shared instance per word; a
        reserved `freq_sel` raises ValueError on every call (see
        `afe.AfeConfig`)."""
        return afe.AfeConfig(
            g0=(self.gain >> 2) & 1,
            g1=(self.gain >> 1) & 1,
            g2=self.gain & 1,
            source_enable=self.source_enable,
            freq_index=self.freq_sel,
        )


def encode_config(w: ConfigWord) -> int:
    """Pack to the 11-bit field."""
    return (
        (w.pll_cal << 9)
        | (w.freq_sel << 5)
        | (w.source_enable << 4)
        | (w.iq_sel << 3)
        | w.gain
    )


def decode_config(bits: int) -> ConfigWord:
    """Unpack an 11-bit field; decode(encode(w)) == w for all 2048 words.
    Each word is decoded once per process and shared: a ConfigWord is
    frozen."""
    return _decode_config(index(bits))


@functools.lru_cache(maxsize=2**11)
def _decode_config(bits: int) -> ConfigWord:
    if not 0 <= bits < 2**11:
        raise ValueError(f"config word must fit in 11 bits, got {bits}")
    return ConfigWord(
        pll_cal=(bits >> 9) & 0b11,
        freq_sel=(bits >> 5) & 0b1111,
        source_enable=(bits >> 4) & 1,
        iq_sel=(bits >> 3) & 1,
        gain=bits & 0b111,
    )


@dataclass(frozen=True)
class Frame:
    """One link frame; `corrupt` flips the checksum on the wire (testing)."""

    opcode: int
    payload: bytes = b""
    corrupt: bool = False

    def __post_init__(self):
        want = PAYLOAD_LEN.get(self.opcode)
        if want is None:
            raise ValueError(f"unknown opcode 0x{self.opcode:02X}")
        if len(self.payload) != want:
            raise ValueError(
                f"opcode 0x{self.opcode:02X} needs {want} payload bytes, "
                f"got {len(self.payload)}"
            )

    def to_bytes(self) -> bytes:
        body = bytes([SYNC, self.opcode]) + self.payload
        csum = sum(body) & 0xFF
        if self.corrupt:
            csum ^= 0xFF
        return body + bytes([csum])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Frame":
        if len(data) < 3 or data[0] != SYNC:
            raise ValueError("malformed frame")
        frame = cls(opcode=data[1], payload=data[2:-1])
        if sum(data[:-1]) & 0xFF != data[-1]:
            raise ValueError("checksum mismatch")
        return frame

    def hex(self) -> str:
        return self.to_bytes().hex()


def checksum_ok(data: bytes) -> bool:
    return len(data) >= 3 and (sum(data[:-1]) & 0xFF) == data[-1]


@dataclass(frozen=True)
class ChannelParams:
    """The channel's one parameter, the rectifier's source resistance; the
    bit rate, clamp and brown-out floor are the module's constants."""

    r_source: float = 2500.0  # recharge: tau = r_source * reservoir_cap = 50 ms

    def __post_init__(self):
        # 0 is an ideal source, inf no field
        if not self.r_source >= 0:
            raise ValueError(f"r_source must be non-negative, got {self.r_source!r}")


@dataclass
class PowerState:
    """Energy-reservoir state; the voltage is clamped to [0,
    `CLAMP_VOLTAGE`].  The reservoir feeds the chip's `LOAD_CURRENT`."""

    reservoir_voltage: float = 3.0
    reservoir_cap: float = 20e-6

    def __post_init__(self):
        if not math.isfinite(self.reservoir_voltage):
            raise ValueError(f"reservoir_voltage must be finite, got {self.reservoir_voltage!r}")
        if not 0 < self.reservoir_cap < math.inf:
            raise ValueError(f"reservoir_cap must be positive and finite, "
                             f"got {self.reservoir_cap!r}")


class Trace(Sequence):
    """A session's reservoir record: a read-only sequence of
    `(time_s, reservoir_voltage, tag)` steps, in the order they happened.

    `volts` is the array of each step's voltage, one double a step.  The
    steps fall in runs that share a tag and a time step dt: the start
    step, each `"rx"` or `"measure"` step, and the bits of one uplink
    frame (`"tx"`).  A run keeps the time before its first step, dt and
    its tag once, so a step costs 8 B plus a share of its run's 32 B.  A
    step's time is the run's time plus dt, added once per step up to it,
    in the session's order: bit for bit the time the session reached.
    Indexing replays the run that holds the step; iteration replays each
    run once and yields one step at a time.  A slice is a list of steps,
    and a trace equals another trace, or a list of triples, with the same
    steps.
    """

    __slots__ = ("volts", "_starts", "_t0", "_dt", "_tags")

    def __init__(self):
        self.volts = array("d")
        self._starts = array("q")  # index of each run's first step
        self._t0 = array("d")      # time before each run's first step
        self._dt = array("d")
        self._tags = []

    def _run(self, t0: float, dt: float, tag: str):
        """Open a run; the steps appended to `volts` from now on belong to it."""
        self._starts.append(len(self.volts))
        self._t0.append(t0)
        self._dt.append(dt)
        self._tags.append(tag)

    def _steps(self, lo: int, hi: int):
        """Yield steps lo..hi-1, replaying each run's times from its start."""
        starts, volts = self._starts, self.volts
        r = bisect_right(starts, lo) - 1
        while lo < hi:
            stop = min(hi, starts[r + 1]) if r + 1 < len(starts) else hi
            t, dt, tag = self._t0[r], self._dt[r], self._tags[r]
            for _ in range(starts[r], lo):
                t += dt
            for k in range(lo, stop):
                t += dt
                yield t, volts[k], tag
            lo = stop
            r += 1

    def __len__(self):
        return len(self.volts)

    def __iter__(self):
        return self._steps(0, len(self.volts))

    def __getitem__(self, key):
        n = len(self.volts)
        if isinstance(key, slice):
            wanted = range(n)[key]
            if not wanted:
                return []
            lo = min(wanted[0], wanted[-1])
            block = list(self._steps(lo, max(wanted[0], wanted[-1]) + 1))
            return [block[k - lo] for k in wanted]
        k = index(key)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("trace index out of range")
        return next(self._steps(k, k + 1))

    def __eq__(self, other):
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class BrownOutError(RuntimeError):
    """Reservoir dropped below the regulator dropout margin; `trace` is
    the session's `Trace` up to and including the step that fell."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class SessionResult:
    """A session's outcome.

    `responses` holds the implant's response `Frame` to each command, in
    command order.  `trace` is the reservoir after every step, as a
    `Trace` of (time_s, volts, tag).
    """

    responses: list
    trace: Trace


#: The 10 line bits of each byte value in 8N1, LSB first: start(0), data, stop(1).
UART_BITS = tuple(bytes([0, *((byte >> k) & 1 for k in range(8)), 1]) for byte in range(256))


def _line_bits(frame: Frame) -> bytes:
    """The frame's 8N1 line bits on the wire, one byte (0 or 1) per bit."""
    return b"".join([UART_BITS[byte] for byte in frame.to_bytes()])


# The implant's constant responses: the acknowledgements of SET_CONFIG and
# START_MEASURE and the NAK of each reason
_ACK_SET_CONFIG = Frame(OP_ACK, bytes([OP_SET_CONFIG]))
_ACK_START_MEASURE = Frame(OP_ACK, bytes([OP_START_MEASURE]))
_NAK = {reason: Frame(OP_NAK, bytes([reason]))
        for reason in (NAK_CHECKSUM, NAK_RESERVED_FREQ, NAK_BAD_OPCODE, NAK_NO_RESULT)}

#: The line bits of each constant response, built once.
_LINE_BITS = {frame: _line_bits(frame)
              for frame in (_ACK_SET_CONFIG, _ACK_START_MEASURE, *_NAK.values())}


#: Seconds a measurement of the default chain at `acquire.TAPS` occupies (0.114 s).
MEASURE_TIME = acquire.sequence_duration(afe.ChainParams(), acquire.TAPS)


def _brownout(t: float, v: float, trace: Trace) -> BrownOutError:
    return BrownOutError(f"brown-out at t={t * 1e3:.2f} ms, reservoir {v:.3f} V", trace)


class ImplantDevice:
    """Implant-side protocol state machine.

    `measure_backend(config_word) -> (vi_code, vq_code)` plugs in the
    measurement engine; without one, START_MEASURE acknowledges and
    READ_RESULT returns zero codes.  `measure_time` is the busy interval a
    measurement occupies, `acquire.sequence_duration` of the chain and taps
    the backend measures with; it defaults to `MEASURE_TIME`.

    Every ACK and NAK it returns is one of the module's constant frames,
    built once with their line bits; only a PONG or a RESULT is a new
    `Frame`.  A SET_CONFIG word is decoded by `decode_config`, once per
    process per word.
    """

    def __init__(self, measure_backend: Optional[Callable] = None,
                 measure_time: float = MEASURE_TIME):
        self.config: Optional[ConfigWord] = None
        self.measure_backend = measure_backend
        self.measure_time = measure_time
        self.result: Optional[tuple] = None

    def handle(self, data: bytes):
        """Process one downlink frame; return (response Frame, busy_seconds)."""
        if not checksum_ok(data):
            return _NAK[NAK_CHECKSUM], 0.0
        opcode, payload = data[1], data[2:-1]
        if opcode == OP_PING:
            return Frame(OP_PONG, payload), 0.0
        if opcode == OP_SET_CONFIG:
            word = decode_config(int.from_bytes(payload, "big"))
            if word.freq_sel >= N_PLAN:
                return _NAK[NAK_RESERVED_FREQ], 0.0
            self.config = word
            return _ACK_SET_CONFIG, 0.0
        if opcode == OP_START_MEASURE:
            if self.config is None:
                return _NAK[NAK_NO_RESULT], 0.0
            if self.measure_backend is not None:
                self.result = self.measure_backend(self.config)
            else:
                self.result = (0, 0)
            return _ACK_START_MEASURE, self.measure_time
        if opcode == OP_READ_RESULT:
            if self.result is None:
                return _NAK[NAK_NO_RESULT], 0.0
            vi, vq = self.result
            payload = vi.to_bytes(2, "big") + vq.to_bytes(2, "big")
            return Frame(OP_RESULT, payload), 0.0
        return _NAK[NAK_BAD_OPCODE], 0.0


def session(
    commands,
    channel: ChannelParams = ChannelParams(),
    power: PowerState | None = None,
    device: ImplantDevice | None = None,
) -> SessionResult:
    """Run a half-duplex exchange: one response per reader command.

    Each command is three steps: an `"rx"` step while the downlink frame
    arrives (shallow modulation, so harvesting continues), a `"measure"`
    step for the device's busy time if it has one, and one `"tx"` step per
    uplink bit.  A one bit harvests for a bit time; a zero bit shorts the
    tank, so the reservoir discharges by I * bit_t / C instead.  The
    reservoir is clamped to [0, clamp] and recorded after every step, so
    the trace holds every bit boundary.  The `Trace` stores each step's
    volts as one double and each run's time, dt and tag once (a run is
    the start step, an `"rx"` or `"measure"` step, or one frame's `"tx"`
    bits); it replays the times by the additions of the session's own
    clock, so they equal it bit for bit.  A 200-PING session holds about
    13 B a step, its responses included.  A response's line bits are read
    from `_LINE_BITS` when it is one of the device's constant ACK or NAK
    frames, built once per process with them; only a PONG or a RESULT is
    encoded here.  The device decodes each config word once per process.

    Brown-out raises BrownOutError carrying the trace up to and including
    the step that fell below the floor.  Harvesting moves the reservoir
    monotonically toward the clamp, so a `"measure"` step or a one bit
    never browns out: only a zero bit can, or the first `"rx"` step of a
    session that starts below the floor.  Checksum failures produce NAK
    responses.
    """
    if power is None:
        power = PowerState()
    if device is None:
        device = ImplantDevice()

    bit_t = 1.0 / BIT_RATE
    tau = channel.r_source * power.reservoir_cap
    clamp, floor = CLAMP_VOLTAGE, BROWNOUT_VOLTAGE
    # every tx bit recharges by one factor or discharges by one step
    bit_decay = math.exp(-bit_t / tau) if tau > 0 else None
    bit_drop = LOAD_CURRENT * bit_t / power.reservoir_cap
    t = 0.0
    v = min(power.reservoir_voltage, clamp)
    trace = Trace()
    run = trace._run
    record = trace.volts.append
    run(t, 0.0, "start")
    record(v)
    responses = []

    def harvest(dt: float, tag: str):
        """Step dt on with the tank open: the gap to the clamp decays.  v
        starts at most at the clamp and no step passes it, so only the 0 V
        clamp is needed."""
        nonlocal t, v
        v = clamp + (v - clamp) * math.exp(-dt / tau) if tau > 0 else clamp
        if v < 0.0:
            v = 0.0
        run(t, dt, tag)
        t += dt
        record(v)
        if v < floor:
            raise _brownout(t, v, trace)

    for cmd in commands:
        rx = cmd.to_bytes()
        harvest(len(rx) * 10 * bit_t, "rx")
        response, busy = device.handle(rx)
        if busy:
            harvest(busy, "measure")
        line = _LINE_BITS.get(response)
        if line is None:
            line = _line_bits(response)
        # the per-bit step, inlined: the same arithmetic as `harvest` with
        # the factor precomputed, or a discharge.  Every bit starts in
        # [floor, clamp], so a one bit's v - clamp is exact
        # (Sterbenz: floor >= clamp / 2) and its recharge lands in [v,
        # clamp] unclamped; a zero bit's drop is positive, so it needs the
        # 0 V clamp alone, and only below the floor.  The comparison keeps
        # -0.0 as max would.
        run(t, bit_t, "tx")
        for bit in line:
            t += bit_t
            if not bit:  # a zero bit shorts the tank
                v -= bit_drop
                if v < floor:
                    if v < 0.0:
                        v = 0.0
                    record(v)
                    raise _brownout(t, v, trace)
            elif bit_decay is None:
                v = clamp
            else:
                v = clamp + (v - clamp) * bit_decay
            record(v)
        responses.append(response)

    return SessionResult(responses=responses, trace=trace)
