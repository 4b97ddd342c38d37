"""Sketch sums shared by the codecs, and the VT sketches with their moduli."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import AlphabetError, SizeGuardError
from .words import Word


def signed_residue(value: int, modulus: int) -> int:
    """Unique representative of value mod modulus in (-modulus/2, modulus/2]."""
    r = value % modulus
    if 2 * r > modulus:
        r -= modulus
    return r


@dataclass(frozen=True)
class ModularValue:
    """A sketch value with its modulus, checked to lie in [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus <= 0:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} outside [0, {self.modulus})")


@dataclass(frozen=True)
class WeightFn:
    """Strictly increasing non-negative symbol weights w(0) < .. < w(q-1)."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 2:
            raise AlphabetError("weight function needs at least two symbols")
        if self.weights[0] < 0:
            raise AlphabetError("weights must be non-negative")
        for a, b in zip(self.weights, self.weights[1:]):
            if b <= a:
                raise AlphabetError("weights must be strictly increasing")

    @property
    def q(self) -> int:
        return len(self.weights)

    def __call__(self, symbol: int) -> int:
        return self.weights[symbol]


def vt_sum(symbols) -> int:
    """Plain VT sum sum(i * s_i) over positions 1..n of a sequence of ints."""
    return sum(map(mul, symbols, range(1, len(symbols) + 1)))


def vt_parity_sums(bits: bytes | tuple[int, ...]) -> tuple[int, int, int]:
    """VT sum, prefix-parity sum and prefix-parity VT sum of a binary string.

    With p_i = b_1 xor .. xor b_i these are sum(i * b_i), sum(p_i) and
    sum(i * p_i).  deltrans takes a word's parity sum and its inner
    sketches from them; `bits` is bytes or a tuple of 0s and 1s.  One numpy
    pass computes all three at every length.  Each int64 sum is at most
    n(n+1)/2, which is below 2^63 while n < 2^32, so longer strings are
    refused.
    """
    n = len(bits)
    if n >= 1 << 32:
        raise SizeGuardError("prefix-parity sums need fewer than 2^32 bits")
    b = np.frombuffer(bytes(bits), dtype=np.uint8)
    parity = np.bitwise_xor.accumulate(b)
    positions = np.arange(1, n + 1, dtype=np.int64)
    return (int(b.dot(positions)), int(np.count_nonzero(parity)),
            int(parity.dot(positions)))


def vt(word: Word, modulus: int) -> ModularValue:
    """Standard VT sketch sum(i * x_i) mod modulus."""
    return ModularValue(vt_sum(word.raw) % modulus, modulus)


def weighted_vt_sum(weighted: np.ndarray) -> int:
    """Weighted VT sum sum(i * w(x_i)) over positions 1..n, given the integer
    array w(x) (a uint8 one is promoted): one C-level int64 dot product, exact
    while n(n+1)/2 * max(w) fits in int64."""
    return int(weighted.dot(np.arange(1, len(weighted) + 1, dtype=np.int64)))


def weighted_vt(word: Word, weights: WeightFn, modulus: int) -> ModularValue:
    """Weighted VT sketch sum(i * w(x_i)) mod modulus."""
    if weights.q != word.q:
        raise AlphabetError(
            f"weight function is over q={weights.q}, word over q={word.q}")
    # reducing the weights first leaves the sum mod modulus unchanged
    w = [x % modulus for x in weights.weights]
    n = len(word)
    if max(w) * n * (n + 1) // 2 >= 1 << 63:
        raise ValueError("weighted VT sum does not fit in int64")
    symbols = np.frombuffer(word.raw, dtype=np.uint8)
    total = weighted_vt_sum(np.array(w, dtype=np.int64)[symbols])
    return ModularValue(total % modulus, modulus)
