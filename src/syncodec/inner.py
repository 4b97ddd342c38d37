"""Repetition guard and sketch-field layout for short metadata, bit packing.

Each symbol is repeated REP times.  Decoding samples the three middle positions
of every block and takes their majority.  Any single edit (and likewise one
deletion plus one substitution) shifts positions by at most one and corrupts at
most one sample per block, so the majority is always the transmitted symbol.
The decode window may be one symbol shorter or longer than the encoding; a
missing or extra leading symbol behaves like one more edit at the front and is
absorbed by the same argument.

Symbols and bits are bytes, one byte each, as in `Word.raw`.
"""

from __future__ import annotations

from operator import add

from .errors import DecodeFailure

REP = 5

# tables for one C-level pass per helper: each byte value repeated REP times,
# and split into its quotient and remainder by 2 (a 4-ary symbol's two bits),
# indexed by the value; and a bit doubled
_REPEATED = [bytes((s,)) * REP for s in range(256)]
_BIT_PAIRS = [bytes(divmod(s, 2)) for s in range(256)]
_DOUBLED = bytes.maketrans(b"\x00\x01", b"\x00\x02")


def rep_encode(symbols: bytes) -> bytes:
    return b"".join(map(_REPEATED.__getitem__, symbols))


def rep_decode(window: bytes, block_count: int) -> bytes:
    """Recover the symbols from a window of length REP*block_count - 1 .. + 1."""
    if not block_count * REP - 1 <= len(window) <= block_count * REP + 1:
        raise DecodeFailure(
            f"repetition window of length {len(window)} does not hold "
            f"{block_count} blocks")
    out = []
    for i in range(block_count):
        base = REP * i
        a, b, c = window[base + 1], window[base + 2], window[base + 3]
        if a == b or a == c:
            out.append(a)
        elif b == c:
            out.append(b)
        else:
            raise DecodeFailure("no majority in repetition block")
    return bytes(out)


class SketchFields:
    """Fixed-width big-endian bit fields, one per modulus: a field for values
    mod `mod` takes (mod - 1).bit_length() bits, so a mod-2 parity is one bit."""

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        self.widths = tuple((mod - 1).bit_length() for mod in moduli)
        self.width = sum(self.widths)

    def pack(self, values: tuple[int, ...]) -> bytes:
        return b"".join(int_to_bits(value, width)
                        for value, width in zip(values, self.widths))

    def unpack(self, bits: bytes) -> tuple[int, ...]:
        """Field values from the first `width` bits; the rest is padding."""
        values = []
        at = 0
        for width, modulus in zip(self.widths, self.moduli):
            value = bits_to_int(bits[at:at + width])
            if value >= modulus:
                raise DecodeFailure("recovered sketch field exceeds its modulus")
            values.append(value)
            at += width
        return tuple(values)


def ceil_log2(n: int) -> int:
    """Bits needed to index n positions, ceil(log2 n)."""
    if n < 1:
        raise ValueError("length must be positive")
    return (n - 1).bit_length()


_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def int_to_bits(value: int, width: int) -> bytes:
    """value as `width` big-endian bits: its binary digits, translated."""
    if value < 0 or value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    if not width:
        return b""  # format gives "0" for width 0
    return format(value, f"0{width}b").encode().translate(_FROM_DIGITS)


def bits_to_int(bits: bytes) -> int:
    """The big-endian value of bits (0 for none), read as binary digits."""
    return int(bits.translate(_TO_DIGITS), 2) if bits else 0


def bits_to_quaternary(bits: bytes) -> bytes:
    """Pack bits two per 4-ary symbol, zero-padding the tail."""
    if len(bits) % 2:
        bits += b"\x00"
    return bytes(map(add, bits[0::2].translate(_DOUBLED), bits[1::2]))


def quaternary_to_bits(symbols: bytes) -> bytes:
    return b"".join(map(_BIT_PAIRS.__getitem__, symbols))
