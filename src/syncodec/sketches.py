"""Sketch sums shared by the codecs, and the plain VT sketch `vt`."""

from __future__ import annotations

from operator import mul

import numpy as np

from .errors import SizeGuardError
from .words import Word


def signed_residue(value: int, modulus: int) -> int:
    """Unique representative of value mod modulus in (-modulus/2, modulus/2]."""
    r = value % modulus
    if 2 * r > modulus:
        r -= modulus
    return r


def vt_sum(symbols) -> int:
    """Plain VT sum sum(i * s_i) over positions 1..n of a sequence of ints."""
    return sum(map(mul, symbols, range(1, len(symbols) + 1)))


def prefix_scan(ufunc: np.ufunc, a: np.ndarray, dtype=None) -> np.ndarray:
    """`ufunc.accumulate(a, axis=-1, dtype=dtype)`: the prefix scan of each
    row of a, as a view with a negative last stride.

    numpy's accumulate runs its slow loop when input and output are both
    contiguous (about 2.7 ns an element, numpy 2.4 on a 2-core x86_64) and
    a fast one when either is strided (about 0.6 ns).  So the scan is
    written into a reversed view of a new array, which is returned reversed
    back.  The extra calls cost more than they save below about 250
    elements, so short scans call accumulate themselves.
    """
    out = np.empty(a.shape, dtype or a.dtype)
    ufunc.accumulate(a, axis=-1, dtype=dtype, out=out[..., ::-1])
    return out[..., ::-1]


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
    parity = prefix_scan(np.bitwise_xor, b)
    positions = np.arange(1, n + 1, dtype=np.int64)
    return (int(b.dot(positions)), int(np.count_nonzero(parity)),
            int(parity.dot(positions)))


def vt(word: Word, modulus: int) -> int:
    """Standard VT sketch sum(i * x_i) mod modulus."""
    return vt_sum(word.raw) % modulus


def weighted_vt_sum(weighted: np.ndarray) -> int:
    """Weighted VT sum sum(i * w(x_i)) over positions 1..n, given the integer
    array w(x) (a uint8 one is promoted): one C-level int64 dot product, exact
    while n(n+1)/2 * max(w) fits in int64."""
    return int(weighted.dot(np.arange(1, len(weighted) + 1, dtype=np.int64)))
