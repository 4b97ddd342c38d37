"""Binary code correcting one deletion or one adjacent transposition.

The construction splits a word after each occurrence of the marker 0011,
embeds a per-segment hash into a VT-type sketch over the segment vector, and
expurgates so that distinct codeword hash multisets are far apart.  Decoding
first locates a short window around the error from the last segment where a
potential function meets its threshold, then repairs the window with an
XOR-folded inner sketch.

Paper-profile parameters are far beyond exhaustive testing, so profiles are
explicit: the shipped desk profile uses a small segment cap with a greedily
built hash table, and every inequality the locator relies on is re-validated
numerically when parameters are constructed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AlphabetError,
    DecodeFailure,
    LocateFailure,
    MissingTerminalMarkerError,
    ProfileError,
    SizeGuardError,
)
from .inner import SketchFields, ceil_log2
from .sketches import prefix_scan, signed_residue, weighted_vt_sum
from .words import SYMBOL_BYTES, ErrorModel, Word, require_binary

MARKER = (0, 0, 1, 1)
_MARKER_BYTES = bytes(MARKER)
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_SYMBOLS = bytes.maketrans(b"01", b"\x00\x01")
MULTISET_SEPARATION = 10
HASH_DRIFT_BOUND = 4
GREEDY_HASH_MAX_CAP = 6


# ---------------------------------------------------------------------------
# segmentation


def segment_lenient(word: Word) -> tuple[list[bytes], bytes]:
    """Split after each marker occurrence; the trailing residue may be empty."""
    require_binary(word)
    bits = word.raw
    segments = []
    start = 0
    while (at := bits.find(_MARKER_BYTES, start)) >= 0:
        segments.append(bits[start:at + 4])
        start = at + 4
    return segments, bits[start:]


# ---------------------------------------------------------------------------
# hashes over short strings


def confusable_set(bits: bytes, cap: int) -> set[bytes]:
    """Strings within two transpositions, two substitutions, or one deletion
    plus one insertion of `bits`, clipped to the hash domain, excluding `bits`."""
    limit = 3 * cap
    n = len(bits)
    out: set[bytes] = set()

    def subs(b: bytes) -> list[bytes]:
        return [b[:i] + SYMBOL_BYTES[1 - b[i]] + b[i + 1:] for i in range(len(b))]

    def trans(b: bytes) -> list[bytes]:
        return [b[:i] + b[i + 1:i + 2] + b[i:i + 1] + b[i + 2:]
                for i in range(len(b) - 1) if b[i] != b[i + 1]]

    one_sub = subs(bits)
    out.update(one_sub)
    for b in one_sub:
        out.update(subs(b))
    one_trans = trans(bits)
    out.update(one_trans)
    for b in one_trans:
        out.update(trans(b))
    dels = [bits[:i] + bits[i + 1:] for i in range(n)]
    out.update(dels)
    inserted = [b[:i] + s + b[i:]
                for b in [bits] for i in range(n + 1) for s in SYMBOL_BYTES[:2]]
    if n + 1 <= limit:
        out.update(inserted)
    for b in dels:
        out.update(b[:i] + s + b[i:]
                   for i in range(len(b) + 1) for s in SYMBOL_BYTES[:2])
    out.discard(bits)
    return {b for b in out if len(b) <= limit}


def _position_pairs(count: int, keep) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (p, q) of positions below count with keep(p, q)."""
    p, q = np.divmod(np.arange(count * count, dtype=np.int64), count)
    chosen = keep(p, q)
    return p[chosen], q[chosen]


def _transpose(w: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Swap bits at and at + 1 of w where they differ; elsewhere w as it is."""
    differ = ((w >> at) ^ (w >> (at + 1))) & 1
    return np.where(differ == 1, w ^ (3 << at), w)


def _earlier_neighbour_keys(values: np.ndarray, length: int) -> np.ndarray:
    """For each length-`length` string in `values`, the keys of its confusable
    strings that can be assigned before it, one row per string.

    A string's key is `(1 << length) | value`, so keys ascend in the greedy
    order, and bit p of a value is the string's (length - p)-th symbol.  Each
    row holds every confusable string of length `length` or `length - 1`:
    one or two substitutions, one or two adjacent transpositions, one
    deletion, and one deletion followed by one insertion.  Insertions alone are
    left out, as longer strings come later, and so is every way to reach a
    string that another family here covers already.  A row may also hold the
    string itself and same-length strings that come after it, which are not
    assigned yet when the string is.
    """
    v = values[:, None]
    positions = np.arange(length, dtype=np.int64)
    bit = np.int64(1) << positions
    sub_p, sub_q = _position_pairs(length, lambda p, q: p < q)
    masks = np.concatenate([bit, bit[sub_p] | bit[sub_q]])
    # two transpositions at overlapping positions move one symbol two places,
    # as a deletion and an insertion do; at disjoint ones either order agrees
    trans_p, trans_q = _position_pairs(max(length - 1, 0), lambda p, q: q >= p + 2)
    two_trans = _transpose(_transpose(v, trans_p), trans_q)
    dels = ((v >> (positions + 1)) << positions) | (v & (bit - 1))
    # delete symbol p, then insert at position q of the shorter string
    del_p, del_q = _position_pairs(length, lambda p, q: abs(p - q) >= 2)
    shorter = ((v >> (del_p + 1)) << del_p) | (v & (bit[del_p] - 1))
    reinserted = ((shorter >> del_q) << (del_q + 1)) | (shorter & (bit[del_q] - 1))
    same = np.concatenate([v ^ masks, two_trans, reinserted, reinserted | bit[del_q]],
                          axis=1)
    return np.concatenate([same | (1 << length), dels | ((1 << length) >> 1)], axis=1)


_BUILD_CHUNK = 128
# the value of a string not assigned yet: above the widest row of
# `_earlier_neighbour_keys`, so no smallest unused value reaches it
_UNASSIGNED = 1 << 12


class GreedyHash:
    """Greedy table hash: assigned in length-then-lexicographic order, each
    value the smallest one unused among already-assigned confusable strings
    (`confusable_set`).

    The table is one int64 array, `assigned`, indexed by a string's key
    `(1 << L) | value`, where value reads the L-bit string as a binary number,
    first symbol highest; entry 0 belongs to no string.  Keys ascend in the
    greedy order, so `build` fills the array in index order: it gathers the
    neighbour keys of a chunk of consecutive strings at once
    (`_earlier_neighbour_keys`), then assigns the chunk's strings one at a
    time, each from a boolean array of the values its row holds.  `__call__`
    looks one string up, `hash_segments` every segment of a word at once;
    the JSON form lists the strings as digit strings in key order.  `table`
    is the dict from string to value, derived from the array on each access.
    """

    def __init__(self, cap: int, assigned: np.ndarray, hash_range: int):
        self.cap = cap
        self.assigned = assigned
        self.hash_range = hash_range

    @classmethod
    def build(cls, cap: int) -> "GreedyHash":
        if not 1 <= cap <= GREEDY_HASH_MAX_CAP:
            raise SizeGuardError(
                f"greedy hash build needs 1 <= cap <= {GREEDY_HASH_MAX_CAP}")
        top = 3 * cap
        assigned = np.full(2 << top, _UNASSIGNED, dtype=np.int64)
        for length in range(top + 1):
            for first in range(0, 1 << length, _BUILD_CHUNK):
                values = np.arange(first, min(first + _BUILD_CHUNK, 1 << length),
                                   dtype=np.int64)
                rows = _earlier_neighbour_keys(values, length)
                for value, keys in zip(values.tolist(), rows):
                    taken = np.zeros(_UNASSIGNED + 1, dtype=bool)
                    taken[assigned[keys]] = True
                    assigned[(1 << length) | value] = taken.argmin()
        return cls(cap, assigned, int(assigned[1:].max()) + 1)

    def __call__(self, bits: bytes) -> int:
        if len(bits) > 3 * self.cap or bits.translate(None, b"\x00\x01"):
            raise AlphabetError(
                f"the hash domain is binary strings of at most {3 * self.cap} bits")
        return int(self.assigned[int(b"1" + bits.translate(_DIGITS), 2)])

    def _digit_strings(self) -> list[str]:
        """Every string of the domain as its digits, in key order."""
        return [bin(key)[3:] for key in range(1, len(self.assigned))]

    @property
    def table(self) -> dict[bytes, int]:
        """Each string of the domain and its value, in key order."""
        return dict(zip((d.encode().translate(_SYMBOLS) for d in self._digit_strings()),
                        self.assigned[1:].tolist()))

    def hash_segments(self, bits: np.ndarray, starts: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """`self(s)` of each segment s of the word `bits` (uint8), given the
        segments' starts and lengths, each at most 3 * cap."""
        # the 3 * cap bits up to each position, first bit highest
        windows = np.convolve(bits, np.int64(1) << np.arange(3 * self.cap, dtype=np.int64))
        top = np.int64(1) << lengths
        return self.assigned[(windows[starts + lengths - 1] & (top - 1)) | top]

    def to_json(self) -> str:
        entries = dict(zip(self._digit_strings(), self.assigned[1:].tolist()))
        return json.dumps({"cap": self.cap, "range": self.hash_range,
                           "table": entries})

    @classmethod
    def from_json(cls, text: str) -> "GreedyHash":
        """The hash `to_json` wrote; `ProfileError` unless the table gives
        every binary string of at most 3 * cap bits one value in [0, range)."""
        try:
            data = json.loads(text)
            cap, hash_range, entries = data["cap"], data["range"], data["table"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise ProfileError("greedy hash needs JSON with cap, range and table") from None
        if (type(cap) is not int or not 1 <= cap <= GREEDY_HASH_MAX_CAP
                or type(hash_range) is not int or not isinstance(entries, dict)):
            raise ProfileError(f"greedy hash JSON needs 1 <= cap <= {GREEDY_HASH_MAX_CAP}, "
                               "an integer range and a table object")
        top = 3 * cap
        assigned = np.full(2 << top, -1, dtype=np.int64)
        for digits, value in entries.items():
            if len(digits) > top or digits.strip("01"):
                raise ProfileError(
                    f"table key {digits!r} is no binary string of at most {top} bits")
            if type(value) is not int or not 0 <= value < hash_range:
                raise ProfileError(
                    f"table value {value!r} of {digits!r} is outside [0, {hash_range})")
            assigned[int("1" + digits, 2)] = value
        if assigned[1:].min() < 0:
            raise ProfileError("the greedy hash table does not cover its domain")
        return cls(cap, assigned, hash_range)


class ClosedFormHash:
    """Arithmetic hash for segment caps beyond table construction.

    Combines length, weight mod 5, the VT sum and the prefix-parity VT sum
    (both mod 6*cap+1) injectively.  One substitution moves the weight, one
    transposition moves the VT sum by exactly 1, and a cancelling transposition
    pair moves the parity sum by a nonzero amount below the modulus, so all the
    separations the locator relies on hold by construction.

    `__call__` hashes one binary string of at most 3 * cap bits in one
    Python loop over its bits, and refuses any other string, as
    `GreedyHash.__call__` does; `hash_segments` hashes every segment of a
    word in one array pass.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.modulus = 6 * cap + 1
        self.hash_range = (3 * cap + 1) * 5 * self.modulus * self.modulus

    def __call__(self, bits: bytes) -> int:
        if len(bits) > 3 * self.cap or bits.translate(None, b"\x00\x01"):
            raise AlphabetError(
                f"the hash domain is binary strings of at most {3 * self.cap} bits")
        # the sums `hash_segments` takes in array passes, whose numpy calls
        # cost more than this loop over at most 3 * cap bits
        total = parity = parity_vt = 0
        for i, bit in enumerate(bits, 1):
            parity ^= bit
            total += i * bit
            parity_vt += i * parity
        return self._combine(len(bits), bits.count(1), total, parity_vt)

    def _combine(self, length, weight, total, parity_vt):
        m = self.modulus
        return ((length * 5 + weight % 5) * m + total % m) * m + parity_vt % m

    def hash_segments(self, bits: np.ndarray, starts: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
        """`self(s)` of each segment s of the word `bits` (uint8), given the
        segments' starts and lengths, each at most 3 * cap.

        Every sum is over one segment, at its own positions 1..L, so the
        int64 arithmetic is exact while the hash values fit, at any word
        length; a larger cap is refused.
        """
        if self.hash_range > 1 << 63:
            raise SizeGuardError(f"hash values of cap {self.cap} overflow int64")
        size = int(starts[-1] + lengths[-1])
        bits = bits[:size]
        parity = prefix_scan(np.bitwise_xor, bits)
        # the parity of the bits before each segment flips its own parities
        before = parity[starts - 1]
        before[0] = 0
        local = np.arange(1, size + 1, dtype=np.int64) - np.repeat(starts, lengths)
        terms = np.empty((3, size), dtype=np.int64)
        terms[0] = bits
        np.multiply(local, bits, out=terms[1])
        np.multiply(local, parity ^ np.repeat(before, lengths), out=terms[2])
        weight, total, parity_vt = np.add.reduceat(terms, starts, axis=1)
        return self._combine(lengths, weight, total, parity_vt)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class CaseBound:
    threshold: int      # accept |phi - fdiff| <= threshold
    span: int           # segments between the stop index and the error
    window: int         # positions the reported window may cover


def _case_bounds(delta: int, hash_range: int) -> dict[str, CaseBound]:
    m = hash_range
    t1 = (delta + 1) * m
    t3 = 3 * (delta + 1) * m
    span_md = math.ceil(2 * t1 / m)
    span_mt = math.ceil(2 * t1 / (2 * m))
    span_s = math.ceil(2 * t1 / (2 * m))
    span_2 = math.ceil(2 * t3 / (5 * m))
    return {
        "same": CaseBound(0, 0, delta + 1),
        "terminal": CaseBound(0, 0, 3 * delta + 6),
        "merge-del": CaseBound(t1, span_md, (span_md + 1) * 2 * delta + 2),
        "merge-trans": CaseBound(t1, span_mt, (span_mt + 1) * 2 * delta + 2),
        "split-del": CaseBound(t1, span_s, (span_s + 2) * 2 * delta + 2),
        "split-trans": CaseBound(t1, span_s, (span_s + 2) * 2 * delta + 2),
        "merge2-trans": CaseBound(t3, span_2, (span_2 + 1) * 3 * delta + 2),
        "split2-trans": CaseBound(t3, span_2, (span_2 + 3) * 2 * delta + 2),
    }


@dataclass(frozen=True)
class DeltransParams:
    n: int
    delta: int
    hash_range: int
    locate_bound: int

    @property
    def f_mod(self) -> int:
        return 10 * self.n * self.delta * self.hash_range + 1

    @property
    def moduli(self) -> tuple[int, int, int]:
        return (self.f_mod, 5, 3)

    @functools.cached_property
    def case_bounds(self) -> dict[str, CaseBound]:
        return _case_bounds(self.delta, self.hash_range)

    @classmethod
    def desk(cls, n: int, delta: int, hash_range: int) -> "DeltransParams":
        bound = max(c.window for c in _case_bounds(delta, hash_range).values())
        params = cls(n, delta, hash_range, bound)
        params.validate()
        return params

    @classmethod
    def paper(cls, n: int) -> "DeltransParams":
        if n < 8:
            raise ProfileError(f"the paper profile needs n >= 8, got {n}")
        log_n = ceil_log2(n)
        delta = 50 + 1000 * log_n
        hash_range = 1000 * delta * delta
        bound = 10 ** 10 * log_n ** 4
        params = cls(n, delta, hash_range, bound)
        params.validate()
        return params

    def validate(self) -> None:
        if self.n < 8 or self.delta < 5 or self.hash_range < 2:
            raise ProfileError("parameters below the minimum sensible sizes")
        m = self.hash_range
        max_segments = self.n // 4
        term = (self.delta + 1) * m
        worst = 2 * max_segments * term + max_segments * 4 * m + 3 * term
        if 2 * worst >= self.f_mod:
            raise ProfileError("sketch modulus too small for signed recovery")
        if self.locate_bound < max(c.window for c in self.case_bounds.values()):
            raise ProfileError("locate bound below the worst-case window size")


@dataclass(frozen=True)
class DeltransSketches:
    f: int   # mod params.f_mod
    g1: int  # segment count, mod 5
    g2: int  # prefix-parity sum, mod 3


class SegmentTable(NamedTuple):
    """A word's segments, in order, as int64 arrays of their lengths and
    hashes, and the length of its trailing residue."""

    lengths: np.ndarray
    hashes: np.ndarray
    residue: int


def _segment_table(word: Word, h) -> SegmentTable:
    """`segment_lenient` and the hash of every segment in one array pass,
    refusing a segment longer than the hash domain.

    The marker 0011 cannot overlap itself, so every occurrence ends a
    segment, as `segment_lenient` cuts the word.
    """
    require_binary(word)
    bits = np.frombuffer(word.raw, dtype=np.uint8)
    ends = np.flatnonzero((bits[2:-1] & bits[3:]) > (bits[:-3] | bits[1:-2])) + 4
    if not len(ends):
        return SegmentTable(ends, ends, len(bits))  # both empty
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1]
    lengths = ends - starts
    if lengths.max() > 3 * h.cap:
        raise LocateFailure("a segment is longer than the hash domain")
    return SegmentTable(lengths, h.hash_segments(bits, starts, lengths),
                        len(bits) - int(ends[-1]))


def _common_affixes(u: bytes, v: bytes) -> tuple[int, int]:
    """The length of the longest common prefix of u and v, and that of their
    longest common suffix that does not overlap it in either, by slice
    compares.

    The prefix is bisected.  Words one edit apart have a suffix within two
    bits of that bound, so the suffix search gallops down from the bound and
    bisects only the last step.
    """
    def longest(lo, hi, agree):
        """The largest k in [lo, hi] with agree(k), given agree(lo)."""
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if agree(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    short = min(len(u), len(v))
    prefix = longest(0, short, lambda k: u[:k] == v[:k])
    hi = lo = short - prefix
    step = 1
    while lo and u[len(u) - lo:] != v[len(v) - lo:]:
        hi, lo, step = lo - 1, max(lo - step, 0), 2 * step
    return prefix, longest(lo, hi, lambda k: u[len(u) - k:] == v[len(v) - k:])


def _spliced_table(x: Word, y: Word, y_table: SegmentTable, h) -> SegmentTable:
    """x's `_segment_table`, given y's: y's segments where x and y agree,
    and a fresh cut of the span where they differ.

    A marker lying wholly inside the common prefix of x and y, or wholly
    inside their common suffix, is a marker of both words, and the marker
    0011 cannot overlap itself.  So y's segments up to the last marker of
    the prefix, and those after the first marker of the suffix, are
    segments of x too, the latter ending len(x) - len(y) bits later.  Only
    the span between those two markers is cut (`segment_lenient`) and
    hashed one segment at a time; past a suffix marker, x's residue is y's.
    """
    xr, yr = x.raw, y.raw
    prefix, suffix = _common_affixes(xr, yr)
    lengths, hashes, residue = y_table
    ends = np.cumsum(lengths)
    # segments below `first` end in the prefix; segment `last` is the first
    # whose marker lies wholly in the suffix
    first, last = np.searchsorted(ends, (prefix, len(yr) - suffix + 3),
                                  side="right").tolist()
    start = int(ends[first - 1]) if first else 0
    stop = int(ends[last]) + len(xr) - len(yr) if last < len(ends) else len(xr)
    segments, tail = segment_lenient(Word(xr[start:stop], 2))
    cut = [len(seg) for seg in segments]
    if max(cut, default=0) > 3 * h.cap:
        raise LocateFailure("a segment is longer than the hash domain")
    return SegmentTable(
        np.concatenate((lengths[:first], np.array(cut, dtype=np.int64), lengths[last + 1:])),
        np.concatenate((hashes[:first], np.array([h(seg) for seg in segments], dtype=np.int64),
                        hashes[last + 1:])),
        residue if last < len(ends) else len(tail))


def _require_exact_sums(n: int, h) -> None:
    """Refuse words of n bits whose segment sums could overflow int64.

    Such a word has at most S = n // 4 segments, and each term
    length * m + hash is below (3 * cap + 1) * m, for the hash range m.  So
    the VT sum of the terms (the sketch f), and the potential scan's i * k
    and dl * suffix (`_phi_scan`, over y and x's hash multiset, x at most
    one bit longer than y), all stay below (S + 1)^2 * (3 * cap + 2) * m;
    a length where that bound reaches 2^63 is refused.
    """
    rows = n // 4 + 1  # S + 1
    if rows * rows * (3 * h.cap + 2) * h.hash_range >= 1 << 63:
        raise SizeGuardError(f"segment sums of {n} bits under cap {h.cap} "
                             "may overflow int64")


def _parity_count(raw: bytes) -> int:
    """The prefix-parity sum sum(p_i), p_i = b_1 xor .. xor b_i: the number
    of odd prefixes."""
    return int(np.count_nonzero(
        prefix_scan(np.bitwise_xor, np.frombuffer(raw, dtype=np.uint8))))


def segment_sketches(word: Word, params: DeltransParams, h,
                     table: SegmentTable | None = None,
                     ) -> tuple[DeltransSketches, tuple[int, ...]]:
    """Sketch triple and the hash multiset (sorted) of a marker-terminal word
    whose segments lie in the hash domain.

    `table` is the word's `_segment_table`, when the caller has it already.
    f is the VT sum of the terms length * m + hash, one int64 dot product
    that `_require_exact_sums` keeps exact.
    """
    _require_exact_sums(len(word), h)
    lengths, hashes, residue = table or _segment_table(word, h)
    if residue:
        raise MissingTerminalMarkerError("word does not end with the marker 0011")
    f = weighted_vt_sum(lengths * h.hash_range + hashes) % params.f_mod
    g1 = len(lengths) % 5
    g2 = _parity_count(word.raw) % 3
    # sorted over Python ints: a first np.sort maps more library pages
    return DeltransSketches(f, g1, g2), tuple(sorted(hashes.tolist()))


# ---------------------------------------------------------------------------
# expurgation


def multiset_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    ca, cb = Counter(a), Counter(b)
    return sum(abs(ca[k] - cb[k]) for k in set(ca) | set(cb))


def expurgate(codewords: list[Word], multisets: list[tuple[int, ...]],
              ) -> tuple[list[Word], list[tuple[int, ...]]]:
    """Greedy pruning so surviving multisets are pairwise equal or >= 10 apart.

    Groups are taken by descending population, ties to the lexicographically
    smallest multiset; every group closer than the separation bound to a kept
    group is dropped wholesale.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, ms in enumerate(multisets):
        groups.setdefault(ms, []).append(idx)
    remaining = dict(groups)
    kept: list[tuple[int, ...]] = []
    while remaining:
        best = min(remaining, key=lambda s: (-len(remaining[s]), s))
        kept.append(best)
        remaining = {
            s: idxs for s, idxs in remaining.items()
            if s == best or multiset_distance(s, best) >= MULTISET_SEPARATION
        }
        del remaining[best]
    kept_set = set(kept)
    survivors = [i for i, ms in enumerate(multisets) if ms in kept_set]
    return [codewords[i] for i in survivors], [multisets[i] for i in survivors]


# ---------------------------------------------------------------------------
# locating the error


@dataclass(frozen=True)
class LocateResult:
    clean: bool
    case: str
    window: tuple[int, int] | None
    bound: int


def _phi_scan(terms: np.ndarray, k: int, fdiff: int, dl: int, threshold: int) -> int:
    """Largest i' <= len(terms) - max(dl, 0) with |phi(i') - fdiff| <= threshold.

    phi(i') = -dl * sum(terms[j] for j > i' + max(dl, 0)) + i' * k, with terms
    1-indexed, for a segment-count change dl; the potential moves
    monotonically by at least the case's step size: the hash range m for
    merge-del, 2m for merge-trans and the single splits, 5m for the double
    merge and split.  One array pass takes phi at every i' (each suffix sum
    is the total less a prefix sum, exact in int64 under
    `_require_exact_sums`), masks it by the threshold and keeps the last hit.
    """
    grow = max(dl, 0)
    top = len(terms) - grow
    if top > 0:
        prefix = np.cumsum(terms)
        phi = (np.arange(1, top + 1, dtype=np.int64) * k
               - dl * (prefix[-1] - prefix[grow:]))
        # bounds as Python ints: fdiff can lie beyond int64 where phi cannot
        hits = np.flatnonzero((phi >= fdiff - threshold) & (phi <= fdiff + threshold))
        if len(hits):
            return int(hits[-1]) + 1
    raise LocateFailure("potential scan found no index within the threshold")


def _check_length(y: Word, n: int) -> None:
    """Refuse a received word that is neither of length n nor n - 1."""
    require_binary(y)
    if len(y) not in (n, n - 1):
        raise LocateFailure(f"length {len(y)} incompatible with n = {n}")


def locate(y: Word, target: DeltransSketches, h_x: tuple[int, ...],
           params: DeltransParams, h,
           y_table: SegmentTable | None = None) -> LocateResult:
    """Window (1-based, inclusive, in source coordinates) containing the error.

    For a transposition the error position is the smaller affected index; a
    clean word reports an empty window.  `y_table` is y's `_segment_table`,
    when the caller has it already.
    """
    n = params.n
    _check_length(y, n)
    _require_exact_sums(n, h)
    deletion = len(y) == n - 1
    lengths, y_hashes, residue = y_table or _segment_table(y, h)
    ly = len(lengths)
    bounds = params.case_bounds
    if not deletion:
        if _parity_count(y.raw) % 3 == target.g2:
            return LocateResult(True, "clean", None, 0)
    dl = signed_residue(ly - target.g1, 5)
    kind = "del" if deletion else "trans"
    # a deletion destroys or creates at most one marker
    if deletion and abs(dl) == 2:
        raise LocateFailure(f"segment-count change {dl} impossible for {kind}")
    if residue:
        if dl not in (-1, -2):
            raise LocateFailure("trailing residue without a destroyed marker")
        case = "terminal"
        lo = max(1, n - residue - 5)
        return LocateResult(False, case, (lo, n), bounds[case].window)
    # before[j]: the bits of y's first j segments
    before = np.zeros(ly + 1, dtype=np.int64)
    np.cumsum(lengths, out=before[1:])

    def span_of(first: int, last: int) -> tuple[int, int]:
        return (int(before[first - 1]) + 1,
                min(n, int(before[last]) + (1 if deletion else 0)))

    m = h.hash_range
    terms = lengths * m + y_hashes
    fdiff = signed_residue(target.f - weighted_vt_sum(terms) % params.f_mod, params.f_mod)
    k = (m if deletion else 0) + sum(h_x) - int(y_hashes.sum())
    if dl == 0:
        if k == 0 or fdiff % k:
            raise LocateFailure("sketch difference does not isolate a segment")
        i = fdiff // k
        if not 1 <= i <= ly:
            raise LocateFailure("recovered segment index out of range")
        case = "same"
        return LocateResult(False, case, span_of(i, i), bounds[case].window)
    case = {-2: "merge2", -1: "merge", 1: "split", 2: "split2"}[dl] + f"-{kind}"
    bound = bounds[case]
    stop = _phi_scan(terms, k, fdiff, dl, bound.threshold)
    window = span_of(max(1, stop - bound.span), stop + max(dl, 0))
    return LocateResult(False, case, window, bound.window)


# ---------------------------------------------------------------------------
# interval plan and inner sketches


@dataclass(frozen=True)
class WindowPlan:
    n: int
    window_bound: int

    @property
    def block(self) -> int:
        return 2 * self.window_bound + 1

    @property
    def t(self) -> int:
        return max(1, -(-self.n // self.block))

    @property
    def primary(self) -> list[tuple[int, int]]:
        return [(1 + i * self.block, (i + 1) * self.block) for i in range(self.t)]

    @property
    def shifted(self) -> list[tuple[int, int]]:
        lb = self.window_bound
        return [(a + lb, b + lb) for a, b in self.primary[:self.t - 1]]

    @property
    def families(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(bits before the first interval, interval count) of the primary
        and the shifted family; each family's intervals abut."""
        return (0, self.t), (self.window_bound, self.t - 1)

    def interval_for(self, window: tuple[int, int]) -> tuple[int, int]:
        """(family, index): the first interval, primary before shifted, that
        holds the window.  Only the interval holding lo can, so each family
        takes one division."""
        lo, hi = window
        for family, (start, count) in enumerate(self.families, 1):
            idx = (lo - 1 - start) // self.block
            if 0 <= idx < count and hi <= start + (idx + 1) * self.block:
                return family, idx
        raise LocateFailure(f"window {window} fits no interval of the plan")


def inner_fields(length: int) -> SketchFields:
    """Inner sketch layout: VT sum mod length+1, parity VT sum mod 2*length+1.
    Each int64 sum is at most length(length+1)/2, below 2^63 while
    length < 2^32, so longer intervals are refused."""
    if length >= 1 << 32:
        raise SizeGuardError("inner sketches need fewer than 2^32 bits")
    return SketchFields((length + 1, 2 * length + 1))


def inner_sketch(bits: bytes, length: int) -> bytes:
    """`_folded_sketch` of one interval: `length` bits, bytes or a tuple."""
    if len(bits) != length:
        raise AlphabetError(f"inner sketch needs length {length}")
    return _folded_sketch(bits, length)


def inner_correct(window: bytes, sketch: bytes, length: int) -> bytes:
    """Invert one deletion or one adjacent transposition given the sketch.

    A deletion is undone in O(L) by Levenshtein's VT decoder ("Binary codes
    capable of correcting deletions, insertions, and reversals", 1966): a
    word of length L-1 has at most one supersequence of length L in each VT
    class mod L+1, so the sketch's VT field names the only insertion that can
    match, and one full sketch check accepts or rejects it.  With
    D = (VT target - sum(i * y_i)) mod (L+1) and w the weight of y, the
    insertion is a 0 with D ones to its right when D <= w, else a 1 with
    D - w - 1 zeros to its left.  A transposition is one substitution of the
    prefix parities, at the smaller of its positions k; the repair swaps bits
    k and k+1 and is refused when they are equal.  The repair is built
    from slices of the window, so a tuple window gives a tuple repair.
    """
    vt_target, parity_target = inner_fields(length).unpack(sketch)
    bits = np.frombuffer(bytes(window), dtype=np.uint8)
    if len(window) == length - 1:
        weight = window.count(1)
        d = (vt_target - weighted_vt_sum(bits)) % (length + 1)
        if d <= weight:
            bit, pos = 0, _after_nth(bits, 1, weight - d)
        else:
            bit, pos = 1, _after_nth(bits, 0, d - weight - 1)
        cand = window[:pos] + type(window)((bit,)) + window[pos:]
        if inner_sketch(cand, length) != sketch:
            raise DecodeFailure("no single insertion matches the inner sketch")
        return cand
    if len(window) != length:
        raise DecodeFailure("window length fits neither error type")
    parity_vt = weighted_vt_sum(prefix_scan(np.bitwise_xor, bits))
    diff = signed_residue(parity_target - parity_vt, 2 * length + 1)
    if diff == 0:
        if inner_sketch(window, length) != sketch:
            raise DecodeFailure("clean window contradicts the inner sketch")
        return window
    k = abs(diff)
    want = 1 if diff > 0 else 0
    # the prefix parity p_k is the parity of the window's first k bits;
    # flipping it flips bits k and k + 1, which is a swap only when they
    # differ (equal bits would take two substitutions)
    if (k > length - 1 or window[:k].count(1) % 2 != 1 - want
            or window[k - 1] == window[k]):
        raise DecodeFailure("no transposition matches the inner sketch")
    cand = window[:k - 1] + window[k:k + 1] + window[k - 1:k] + window[k + 1:]
    if inner_sketch(cand, length) != sketch:
        raise DecodeFailure("transposition repair contradicts the inner sketch")
    return cand


def _after_nth(bits: np.ndarray, symbol: int, count: int) -> int:
    """Index just past the count-th occurrence of symbol in bits (0 for none)."""
    if not count:
        return 0
    at = np.flatnonzero(bits == symbol)
    return int(at[count - 1]) + 1


def _folded_sketch(bits: bytes, length: int) -> bytes:
    """The XOR of `inner_sketch` over consecutive length-`length` intervals
    of bits (bytes or a tuple; a whole number of them), in one array pass.

    The rows of the reshaped bits give each interval's VT sum and
    prefix-parity VT sum.  Fields pack big-endian at fixed widths, so the
    XOR of the packed sketches is the packing of the XORed field values.
    """
    fields = inner_fields(length)  # its size guard refuses before a bit is read
    # no bits are no rows, which reshape cannot infer at length 0
    rows = np.frombuffer(bytes(bits), dtype=np.uint8).reshape(len(bits) and -1, length)
    positions = np.arange(1, length + 1, dtype=np.int64)
    total = rows.dot(positions) % (length + 1)
    parity_vt = prefix_scan(np.bitwise_xor, rows).dot(positions) % (2 * length + 1)
    # a Python fold of the few rows costs less than a numpy reduce
    return fields.pack((functools.reduce(operator.xor, total.tolist(), 0),
                        functools.reduce(operator.xor, parity_vt.tolist(), 0)))


def window_sketches(word: Word, plan: WindowPlan,
                    ) -> tuple[bytes, bytes | None]:
    """XOR-folded inner sketches over the primary and shifted interval
    families, the word zero past its end: one `_folded_sketch` per family,
    the shifted one None when the plan has a single interval."""
    require_binary(word)
    length = plan.block
    size = plan.t * length
    padded = word.raw[:size].ljust(size, b"\x00")
    start, count = plan.families[1]
    g1_hat = _folded_sketch(padded, length)
    g2_hat = (_folded_sketch(padded[start:start + count * length], length)
              if count else None)
    return g1_hat, g2_hat


def correct(y: Word, target: DeltransSketches, h_x: tuple[int, ...],
            hats: tuple[bytes, bytes | None],
            plan: WindowPlan, params: DeltransParams, h,
            y_table: SegmentTable | None = None) -> Word:
    """Full repair: locate, pick the covering interval, repair it, splice.

    y is segmented once (or `y_table` is its `_segment_table`), for `locate`
    and for the check of a clean word.  The interval's inner sketch is its
    family's hat XOR the sketches of the family's other intervals, read
    from y in one `_folded_sketch` pass.  The check of the repaired word
    segments it no more: its table is spliced from y's (`_spliced_table`),
    re-cutting only the span around the repair.
    """
    n = params.n
    _check_length(y, n)
    y_table = y_table or _segment_table(y, h)
    loc = locate(y, target, h_x, params, h, y_table)
    if loc.clean:
        if segment_sketches(y, params, h, y_table) != (target, h_x):
            raise DecodeFailure("unchanged word contradicts the sketches")
        return y
    shift = n - len(y)  # 1 after a deletion, else 0
    family, idx = plan.interval_for(loc.window)
    acc = hats[family - 1]
    if acc is None:
        raise DecodeFailure("the shifted family has no sketch at this size")
    length = plan.block
    start, count = plan.families[family - 1]
    a = start + idx * length + 1
    b = a + length - 1
    # the family's other intervals lie wholly before the window, where y is
    # the source, or wholly after it, where y lags by the deletion; the
    # source is 0 past n, so y is read zero past the family's last bit
    size = start + count * length - shift
    covered = y.raw[:size].ljust(size, b"\x00")
    window_bits = covered[a - 1:b - shift]
    if count > 1:  # a lone interval's sketch is its hat
        others = _folded_sketch(covered[start:a - 1] + covered[b - shift:], length)
        acc = bytes(map(operator.xor, acc, others))
    repaired = inner_correct(window_bits, acc, length)
    # past n the interval holds only zero padding, which the cut drops
    x = Word((y.raw[:a - 1] + repaired + y.raw[b - shift:])[:n], 2)
    # a repair that destroys a marker can merge segments past the hash
    # domain, which the splice refuses
    if segment_sketches(x, params, h, _spliced_table(x, y, y_table, h)) != (target, h_x):
        raise DecodeFailure("repaired word contradicts the sketches")
    return x


# ---------------------------------------------------------------------------
# desk-profile code construction


@functools.lru_cache(maxsize=None)
def _segment_options(length: int) -> tuple[bytes, ...]:
    """All segments of one length: marker-terminal, marker occurs only once."""
    if length < 4:
        return ()
    out = []
    for prefix in itertools.product((0, 1), repeat=length - 4):
        bits = bytes(prefix) + _MARKER_BYTES
        if bits.find(_MARKER_BYTES) == length - 4:
            out.append(bits)
    return tuple(out)


# the most words enumerate_candidates builds: 50,161 at n = 52 under the
# segment cap 5, where DeltransDeskCode.build takes 2.7 s (2-core x86_64)
DESK_MAX_CANDIDATES = 50_161


def enumerate_candidates(n: int, delta: int) -> list[Word]:
    """All length-n marker-terminal words whose segments are at most delta
    long, refusing more than DESK_MAX_CANDIDATES of them before building any."""
    ways = [1] + [0] * n  # ways[k]: the candidates of length k
    for k in range(1, n + 1):
        ways[k] = sum(len(_segment_options(length)) * ways[k - length]
                      for length in range(4, min(delta, k) + 1))
    if ways[n] > DESK_MAX_CANDIDATES:
        raise SizeGuardError(f"{ways[n]} desk candidates at n = {n}, "
                             f"more than {DESK_MAX_CANDIDATES}")
    partials: list[tuple[int, bytes]] = [(0, b"")]
    out = []
    while partials:
        used, bits = partials.pop()
        for length in range(4, delta + 1):
            if used + length > n:
                break
            for seg in _segment_options(length):
                candidate = bits + seg
                if used + length == n:
                    out.append(Word(candidate, 2))
                else:
                    partials.append((used + length, candidate))
    out.sort(key=lambda w: w.raw)
    return out


# the segment cap of the desk code (`DeltransDeskCode.build`'s default, the CLI's)
DESK_DELTA = 5


@functools.lru_cache(maxsize=None)
def desk_hash(delta: int) -> GreedyHash:
    return GreedyHash.build(delta)


class DeltransDeskCode:
    """Exhaustively built desk-scale code: membership, table encoder, decoder."""

    q = 2
    model = ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION
    list_bound = 1

    def __init__(self, params: DeltransParams, h: GreedyHash,
                 target: DeltransSketches,
                 hats: tuple[bytes, bytes | None],
                 codewords: list[Word], multisets: list[tuple[int, ...]]):
        self.params = params
        self.hash = h
        self.target = target
        self.hats = hats
        self.codewords = codewords
        self.distinct_multisets = sorted(set(multisets))
        self.plan = WindowPlan(params.n, params.locate_bound)

    @classmethod
    def build(cls, n: int, delta: int = DESK_DELTA) -> "DeltransDeskCode":
        h = desk_hash(delta)
        params = DeltransParams.desk(n, delta, h.hash_range)
        plan = WindowPlan(n, params.locate_bound)
        candidates = enumerate_candidates(n, delta)
        if not candidates:
            raise ProfileError(f"no marker-terminal words at n = {n}")
        buckets: dict[tuple[int, int, int], list[int]] = {}
        sketch_data = []
        for idx, word in enumerate(candidates):
            sk, hashes = segment_sketches(word, params, h)
            sketch_data.append((sk, hashes))
            buckets.setdefault((sk.f, sk.g1, sk.g2), []).append(idx)
        best_key = min(buckets, key=lambda k: (-len(buckets[k]), k))
        members = buckets[best_key]
        target = sketch_data[members[0]][0]
        kept, kept_ms = expurgate([candidates[i] for i in members],
                                  [sketch_data[i][1] for i in members])
        hat_buckets: dict[tuple, list[int]] = {}
        hat_values = []
        for idx, word in enumerate(kept):
            hats = window_sketches(word, plan)
            hat_values.append(hats)
            key = (hats[0], hats[1] if hats[1] is not None else b"")
            hat_buckets.setdefault(key, []).append(idx)
        best_hat = min(hat_buckets, key=lambda k: (-len(hat_buckets[k]), k))
        chosen = hat_buckets[best_hat]
        return cls(params, h, target, hat_values[chosen[0]],
                   [kept[i] for i in chosen], [kept_ms[i] for i in chosen])

    def encode(self, index: int) -> Word:
        if not 0 <= index < len(self.codewords):
            raise AlphabetError(
                f"message index outside [0, {len(self.codewords)})")
        return self.codewords[index]

    def recover_multiset(self, y: Word) -> tuple[tuple[int, ...], SegmentTable]:
        """The one code multiset within drift of y's segment hashes, and y's
        `_segment_table`."""
        table = _segment_table(y, self.hash)
        h_y = tuple(sorted(table.hashes.tolist()))
        near = [ms for ms in self.distinct_multisets
                if multiset_distance(ms, h_y) <= HASH_DRIFT_BOUND]
        if len(near) != 1:
            raise DecodeFailure(
                f"{len(near)} code multisets within drift of the received word")
        return near[0], table

    def decode(self, y: Word) -> Word:
        _check_length(y, self.params.n)
        h_x, y_table = self.recover_multiset(y)
        return correct(y, self.target, h_x, self.hats, self.plan,
                       self.params, self.hash, y_table)


def segment_cap_probability(n: int, delta: int, trials: int, seed: int) -> float:
    """Sampled probability that a uniform word splits into pieces <= delta."""
    import random

    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        bits = bytes(rng.getrandbits(1) for _ in range(n))
        segments, residue = segment_lenient(Word(bits, 2))
        longest = max([len(s) for s in segments] + [len(residue)])
        hits += longest <= delta
    return hits / trials
