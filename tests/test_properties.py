"""Round-trip properties of the wire, configuration and ADC pin encodings.

Bounded so the suite stays fast: at most 100 examples a property, no
per-example deadline.
"""

import pytest
from hypothesis import given, settings, strategies as st

from biozsim.acquire import ADC, code_volts, pin_code
from biozsim.afe import AfeConfig
from biozsim.link import PAYLOAD_LEN, ConfigWord, Frame, checksum_ok, decode_config, encode_config

BOUNDED = settings(max_examples=100, deadline=None)

config_words = st.builds(
    ConfigWord,
    pll_cal=st.integers(0, 3),
    freq_sel=st.integers(0, 15),
    source_enable=st.integers(0, 1),
    iq_sel=st.integers(0, 1),
    gain=st.integers(0, 7),
)


@st.composite
def frames(draw):
    opcode = draw(st.sampled_from(sorted(PAYLOAD_LEN)))
    payload = draw(st.binary(min_size=PAYLOAD_LEN[opcode], max_size=PAYLOAD_LEN[opcode]))
    return Frame(opcode, payload, corrupt=draw(st.booleans()))


@BOUNDED
@given(st.text(alphabet="01", min_size=3, max_size=3), st.integers(0, 10))
def test_gain_word_round_trip(word, freq_index):
    config = AfeConfig.from_gain_word(word, freq_index=freq_index)
    assert config.gain_word == word
    assert AfeConfig.from_gain_word(config.gain_word, freq_index=freq_index) == config


@BOUNDED
@given(st.text(max_size=5).filter(lambda w: len(w) != 3 or set(w) - set("01")))
def test_malformed_gain_word_rejected(word):
    with pytest.raises(ValueError, match="gain word"):
        AfeConfig.from_gain_word(word)


@BOUNDED
@given(config_words)
def test_config_word_round_trip(word):
    bits = encode_config(word)
    assert 0 <= bits < 2**11
    assert decode_config(bits) == word


@BOUNDED
@given(frames())
def test_frame_bytes_round_trip(frame):
    wire = frame.to_bytes()
    assert len(wire) == 3 + PAYLOAD_LEN[frame.opcode]
    assert checksum_ok(wire) == (not frame.corrupt)
    if not frame.corrupt:
        assert Frame.from_bytes(wire) == frame


@BOUNDED
@given(frames(), st.data())
def test_any_single_byte_change_fails_the_checksum(frame, data):
    wire = bytearray(Frame(frame.opcode, frame.payload).to_bytes())
    k = data.draw(st.integers(0, len(wire) - 1))
    wire[k] = (wire[k] + data.draw(st.integers(1, 255))) % 256
    assert not checksum_ok(bytes(wire))


#: The differential outputs of the lowest and highest ADC codes.
RAILS = (code_volts(0), code_volts(ADC.codes - 1))


@BOUNDED
@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_pin_code_is_monotone(a, b):
    lo, hi = sorted((a, b))
    assert pin_code(lo) <= pin_code(hi)


@BOUNDED
@given(st.floats(allow_nan=False))
def test_pin_code_clamps_at_both_rails(v):
    code = pin_code(v)
    assert 0 <= code <= ADC.codes - 1
    if v <= RAILS[0]:
        assert code == 0
    if v >= RAILS[1]:
        assert code == ADC.codes - 1


@BOUNDED
@given(st.floats(*RAILS))
def test_code_volts_reads_back_within_one_lsb(v):
    # a half-step tie, rounded either way, sits one LSB from both codes; the
    # pin rule's own float arithmetic adds at most a few ulps of the rail
    assert abs(code_volts(pin_code(v)) - v) <= ADC.lsb + 1e-15
