"""Sketch sums shared by the codecs, and the plain VT sketch `vt`."""

from __future__ import annotations

from operator import mul

import numpy as np

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
    back.  Below about 250 elements the extra calls cost more than they
    save (up to about 0.6 us a scan); every caller takes this path at every
    length all the same, so that each scan has one code path.
    """
    out = np.empty(a.shape, dtype or a.dtype)
    ufunc.accumulate(a, axis=-1, dtype=dtype, out=out[..., ::-1])
    return out[..., ::-1]


def vt(word: Word, modulus: int) -> int:
    """Standard VT sketch sum(i * x_i) mod modulus."""
    return vt_sum(word.raw) % modulus


def weighted_vt_sum(weighted: np.ndarray) -> int:
    """Weighted VT sum sum(i * w(x_i)) over positions 1..n, given the integer
    array w(x) (a uint8 one is promoted): one C-level int64 dot product, exact
    while n(n+1)/2 * max(w) fits in int64."""
    return int(weighted.dot(np.arange(1, len(weighted) + 1, dtype=np.int64)))
