import itertools

import pytest

from syncodec.delsub import DelSubCode
from syncodec.edit4 import Edit4Code
from syncodec.errors import DecodeFailure
from syncodec.inner import (
    REP,
    SketchFields,
    bits_to_int,
    bits_to_quaternary,
    int_to_bits,
    quaternary_to_bits,
    rep_decode,
    rep_encode,
)
from syncodec.words import Word


@pytest.mark.parametrize("width", range(25))
def test_int_to_bits_round_trips_at_every_width(width):
    """Every value of up to 12 bits, and a spread of wider ones, against the
    big-endian digits built bit by bit."""
    top = 1 << width
    for value in {*range(min(top, 1 << 12)), *range(0, top, max(1, top >> 10)),
                  top - 1}:
        bits = int_to_bits(value, width)
        assert bits == bytes((value >> (width - 1 - i)) & 1 for i in range(width))
        assert bits_to_int(bits) == value
    assert int_to_bits(0, 0) == b"" and bits_to_int(b"") == 0


def test_int_to_bits_refuses_what_does_not_fit():
    for value, width in [(-1, 4), (16, 4), (1, 0), (-1, 0), (1 << 24, 24)]:
        with pytest.raises(ValueError, match="does not fit"):
            int_to_bits(value, width)


def test_sketch_fields_widths_and_bits():
    fields = SketchFields((253, 2, 2, 2))
    assert fields.widths == (8, 1, 1, 1) and fields.width == 11
    assert fields.pack((5, 1, 0, 1)) == bytes((0, 0, 0, 0, 0, 1, 0, 1) + (1, 0, 1))
    # a field mod 1 only holds 0 and takes no bits
    assert SketchFields((1, 3)).widths == (0, 2)


def test_sketch_fields_round_trip():
    fields = SketchFields((1, 2, 3, 5, 8, 9))
    for values in itertools.product(*(range(mod) for mod in fields.moduli)):
        bits = fields.pack(values)
        assert len(bits) == fields.width
        assert fields.unpack(bits) == values
        assert fields.unpack(bits + bytes((1, 0))) == values  # padding is ignored


def test_sketch_fields_reject_a_field_at_its_modulus():
    fields = SketchFields((5, 2))
    assert fields.unpack(bytes((1, 0, 0, 1))) == (4, 1)
    for bits in [(1, 0, 1, 0), (1, 1, 1, 1)]:  # first field reads 5, then 7
        with pytest.raises(DecodeFailure):
            fields.unpack(bytes(bits))


def test_rep_decode_takes_windows_within_one_symbol_of_the_encoding():
    symbols = bytes((1, 0, 1))
    encoded = rep_encode(symbols)
    for window in (encoded[1:], encoded, encoded + b"\x00"):
        assert rep_decode(window, len(symbols)) == symbols
    for window in (encoded[2:], encoded + b"\x00\x00"):
        with pytest.raises(DecodeFailure, match="does not hold 3 blocks"):
            rep_decode(window, len(symbols))
    assert len(encoded) == REP * len(symbols)


def _strings(alphabet, longest):
    for length in range(longest + 1):
        yield from map(bytes, itertools.product(alphabet, repeat=length))


def test_tail_helpers_match_their_generator_forms():
    """Every 4-ary string of up to 8 symbols and every bit string of up to 8
    bits: the table forms give what the per-symbol generators gave."""
    for symbols in _strings(range(4), 8):
        assert rep_encode(symbols) == bytes(
            itertools.chain.from_iterable(zip(*[symbols] * REP)))
        assert quaternary_to_bits(symbols) == bytes(
            itertools.chain.from_iterable(divmod(s, 2) for s in symbols))
    for bits in _strings(range(2), 8):
        padded = bits + b"\x00" * (len(bits) % 2)
        assert bits_to_quaternary(bits) == bytes(
            2 * padded[i] + padded[i + 1] for i in range(0, len(padded), 2))


def test_codec_tail_layouts_are_pinned():
    """Pinned encodings: any change to either tail layout changes them."""
    assert str(Edit4Code(7).encode(Word.parse("0213102", q=4))) == (
        "02131022013111112222211111000001111133333")
    assert str(DelSubCode(9).encode(Word.parse("110100101"))) == (
        "110100101101110100001000011111000001000000001111100000000001111111"
        "111000001111100000000001111111111111111111111111111111111100000111"
        "110000000000000000000000000111110000011111000000000000000111111111"
        "111111000000000000000111110000000000111110000000000000000000011111")
