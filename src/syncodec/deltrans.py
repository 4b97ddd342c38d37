"""Binary code correcting one deletion or one adjacent transposition.

The construction splits a word after each occurrence of the marker 0011,
embeds a per-segment hash into a VT-type sketch over the segment vector, and
expurgates so that distinct codeword hash multisets are far apart.  Decoding
first locates a short window around the error via a right-to-left scan of a
potential function, then repairs the window with an XOR-folded inner sketch.

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
from collections import Counter
from dataclasses import dataclass

from .errors import (
    AlphabetError,
    DecodeFailure,
    LocateFailure,
    MissingTerminalMarkerError,
    ProfileError,
    RangeExhaustedError,
    SizeGuardError,
)
from .inner import SketchFields, ceil_log2
from .sketches import signed_residue, vt_parity_sums, vt_sum
from .words import ErrorModel, Word, prefix_parity_inverse, require_binary

MARKER = (0, 0, 1, 1)
_MARKER_BYTES = bytes(MARKER)
MULTISET_SEPARATION = 10
HASH_DRIFT_BOUND = 4
GREEDY_HASH_MAX_CAP = 6


# ---------------------------------------------------------------------------
# segmentation


def segment_lenient(word: Word) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Split after each marker occurrence; the trailing residue may be empty."""
    require_binary(word)
    bits = word.symbols
    data = bytes(bits)
    segments = []
    start = 0
    while (at := data.find(_MARKER_BYTES, start)) >= 0:
        segments.append(bits[start:at + 4])
        start = at + 4
    return segments, bits[start:]


def segment(word: Word) -> list[Word]:
    segments, residue = segment_lenient(word)
    if residue:
        raise MissingTerminalMarkerError("word does not end with the marker 0011")
    return [Word(s, 2) for s in segments]


# ---------------------------------------------------------------------------
# hashes over short strings


def confusable_set(bits: tuple[int, ...], cap: int) -> set[tuple[int, ...]]:
    """Strings within two transpositions, two substitutions, or one deletion
    plus one insertion of `bits`, clipped to the hash domain, excluding `bits`."""
    limit = 3 * cap
    n = len(bits)
    out: set[tuple[int, ...]] = set()

    def subs(b: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [b[:i] + (1 - b[i],) + b[i + 1:] for i in range(len(b))]

    def trans(b: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [b[:i] + (b[i + 1], b[i]) + b[i + 2:]
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
    inserted = [b[:i] + (s,) + b[i:]
                for b in [bits] for i in range(n + 1) for s in (0, 1)]
    if n + 1 <= limit:
        out.update(inserted)
    for b in dels:
        out.update(b[:i] + (s,) + b[i:] for i in range(len(b) + 1) for s in (0, 1))
    out.discard(bits)
    return {b for b in out if len(b) <= limit}


class GreedyHash:
    """Greedy table hash: assigned in length-then-lexicographic order, each
    value the smallest one unused among already-assigned confusable strings."""

    def __init__(self, cap: int, table: dict[tuple[int, ...], int],
                 hash_range: int):
        self.cap = cap
        self.table = table
        self.hash_range = hash_range

    @classmethod
    def build(cls, cap: int, hash_range: int | None = None) -> "GreedyHash":
        if cap > GREEDY_HASH_MAX_CAP:
            raise SizeGuardError(
                f"greedy hash build capped at cap <= {GREEDY_HASH_MAX_CAP}")
        table: dict[tuple[int, ...], int] = {}
        used = 0
        for length in range(3 * cap + 1):
            for value in range(1 << length):
                bits = tuple((value >> (length - 1 - i)) & 1
                             for i in range(length))
                forbidden = set()
                for other in confusable_set(bits, cap):
                    h = table.get(other)
                    if h is not None:
                        forbidden.add(h)
                h = 0
                while h in forbidden:
                    h += 1
                if hash_range is not None and h >= hash_range:
                    raise RangeExhaustedError(
                        f"hash range {hash_range} exhausted at {bits}")
                table[bits] = h
                used = max(used, h + 1)
        return cls(cap, table, hash_range if hash_range is not None else used)

    def __call__(self, bits: tuple[int, ...]) -> int:
        return self.table[bits]

    def to_json(self) -> str:
        entries = {"".join(map(str, k)): v for k, v in self.table.items()}
        return json.dumps({"cap": self.cap, "range": self.hash_range,
                           "table": entries})

    @classmethod
    def from_json(cls, text: str) -> "GreedyHash":
        data = json.loads(text)
        table = {tuple(int(c) for c in k): v for k, v in data["table"].items()}
        return cls(data["cap"], table, data["range"])


class ClosedFormHash:
    """Arithmetic hash for segment caps beyond table construction.

    Combines length, weight mod 5, the VT sum and the prefix-parity VT sum
    (both mod 6*cap+1) injectively.  One substitution moves the weight, one
    transposition moves the VT sum by exactly 1, and a cancelling transposition
    pair moves the parity sum by a nonzero amount below the modulus, so all the
    separations the locator relies on hold by construction.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.modulus = 6 * cap + 1
        self.hash_range = (3 * cap + 1) * 5 * self.modulus * self.modulus

    def __call__(self, bits: tuple[int, ...]) -> int:
        if len(bits) > 3 * self.cap:
            raise AlphabetError("string longer than the hash domain")
        total, _, parity_vt = vt_parity_sums(bits)
        weight = sum(bits) % 5
        return ((len(bits) * 5 + weight) * self.modulus + total % self.modulus) \
            * self.modulus + parity_vt % self.modulus


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class CaseBound:
    threshold: int      # accept |phi - fdiff| <= threshold
    step: int           # scan steps move phi by at least this much
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
        "same": CaseBound(0, 0, 0, delta + 1),
        "terminal": CaseBound(0, 0, 0, 3 * delta + 6),
        "merge-del": CaseBound(t1, m, span_md, (span_md + 1) * 2 * delta + 2),
        "merge-trans": CaseBound(t1, 2 * m, span_mt, (span_mt + 1) * 2 * delta + 2),
        "split-del": CaseBound(t1, 2 * m, span_s, (span_s + 2) * 2 * delta + 2),
        "split-trans": CaseBound(t1, 2 * m, span_s, (span_s + 2) * 2 * delta + 2),
        "merge2-trans": CaseBound(t3, 5 * m, span_2, (span_2 + 1) * 3 * delta + 2),
        "split2-trans": CaseBound(t3, 5 * m, span_2, (span_2 + 3) * 2 * delta + 2),
    }


@dataclass(frozen=True)
class DeltransParams:
    n: int
    delta: int
    hash_range: int
    locate_bound: int
    profile: str

    @property
    def f_mod(self) -> int:
        return 10 * self.n * self.delta * self.hash_range + 1

    @property
    def moduli(self) -> tuple[int, int, int]:
        return (self.f_mod, 5, 3)

    @property
    def case_bounds(self) -> dict[str, CaseBound]:
        return _case_bounds(self.delta, self.hash_range)

    @classmethod
    def desk(cls, n: int, delta: int, hash_range: int) -> "DeltransParams":
        bound = max(c.window for c in _case_bounds(delta, hash_range).values())
        params = cls(n, delta, hash_range, bound, "desk")
        params.validate()
        return params

    @classmethod
    def paper(cls, n: int) -> "DeltransParams":
        log_n = ceil_log2(n)
        delta = 50 + 1000 * log_n
        hash_range = 1000 * delta * delta
        bound = 10 ** 10 * log_n ** 4
        params = cls(n, delta, hash_range, bound, "paper")
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
        bounds = self.case_bounds
        if any(c.step < m for c in bounds.values() if c.step):
            raise ProfileError("a potential-function step bound fell below m")
        if self.locate_bound < max(c.window for c in bounds.values()):
            raise ProfileError("locate bound below the worst-case window size")


@dataclass(frozen=True)
class DeltransSketches:
    f: int   # mod params.f_mod
    g1: int  # segment count, mod 5
    g2: int  # prefix-parity sum, mod 3


def _hash_segments(segments: list[tuple[int, ...]], h,
                   hashes: list[int] | None = None,
                   ) -> tuple[list[int], tuple[int, ...]]:
    """The segments' hashes (unless given) and their terms len * range + hash."""
    if hashes is None:
        hashes = [h(s) for s in segments]
    m = h.hash_range
    return hashes, tuple(len(s) * m + v for s, v in zip(segments, hashes))


def segment_sketches(word: Word, params: DeltransParams, h,
                     ) -> tuple[DeltransSketches, tuple[int, ...]]:
    """Sketch triple and the hash multiset (sorted) of a marker-terminal word."""
    segments, residue = segment_lenient(word)
    if residue:
        raise MissingTerminalMarkerError("word does not end with the marker 0011")
    hashes, terms = _hash_segments(segments, h)
    f = vt_sum(terms) % params.f_mod
    g1 = len(segments) % 5
    g2 = vt_parity_sums(word.symbols)[1] % 3
    return DeltransSketches(f, g1, g2), tuple(sorted(hashes))


def is_codeword(word: Word, params: DeltransParams, h,
                target: DeltransSketches) -> bool:
    if len(word) != params.n:
        return False
    segments, residue = segment_lenient(word)
    if residue or any(len(s) > params.delta for s in segments):
        return False
    sk, _ = segment_sketches(word, params, h)
    return sk == target


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


def _multiset_delta(h_x: tuple[int, ...], h_y: list[int]) -> int:
    cx = Counter(h_x)
    cy = Counter(h_y)
    extra = sum(v * (cx[v] - cy[v]) for v in cx if cx[v] > cy[v])
    missing = sum(v * (cy[v] - cx[v]) for v in cy if cy[v] > cx[v])
    return extra - missing


def _phi_scan(terms: tuple[int, ...], k: int, fdiff: int, start: int,
              bound: CaseBound, factor: int, offset: int) -> int:
    """Largest i' <= start with |phi(i') - fdiff| <= threshold.

    phi(i') = factor * sum(terms[j] for j > i' + offset) + i' * k, with terms
    1-indexed; the scan walks right to left as the potential moves monotonically
    by at least the case's step size.
    """
    ly = len(terms)
    suffix = 0
    for j in range(ly, start + offset, -1):
        suffix += terms[j - 1]
    for i in range(start, 0, -1):
        phi = factor * suffix + i * k
        if abs(phi - fdiff) <= bound.threshold:
            return i
        j = i + offset
        if 1 <= j <= ly:
            suffix += terms[j - 1]
    raise LocateFailure("potential scan found no index within the threshold")


def locate(y: Word, target: DeltransSketches, h_x: tuple[int, ...],
           params: DeltransParams, h,
           y_hashes: list[int] | None = None) -> LocateResult:
    """Window (1-based, inclusive, in source coordinates) containing the error.

    For a transposition the error position is the smaller affected index; a
    clean word reports an empty window.  `y_hashes` are the hashes of y's
    segments in order, when the caller has them already.
    """
    require_binary(y)
    n = params.n
    if len(y) not in (n, n - 1):
        raise LocateFailure(f"length {len(y)} incompatible with n = {n}")
    deletion = len(y) == n - 1
    segments, residue = segment_lenient(y)
    ly = len(segments)
    bounds = params.case_bounds
    if not deletion:
        if vt_parity_sums(y.symbols)[1] % 3 == target.g2:
            return LocateResult(True, "clean", None, 0)
    dl = signed_residue(ly - target.g1, 5)
    kind = "del" if deletion else "trans"
    allowed = {-1, 0, 1} if deletion else {-2, -1, 0, 1, 2}
    if dl not in allowed:
        raise LocateFailure(f"segment-count change {dl} impossible for {kind}")
    if residue:
        if dl not in (-1, -2):
            raise LocateFailure("trailing residue without a destroyed marker")
        case = "terminal"
        lo = max(1, n - len(residue) - 5)
        return LocateResult(False, case, (lo, n), bounds[case].window)
    starts = [1]
    for s in segments:
        starts.append(starts[-1] + len(s))

    def span_of(first: int, last: int) -> tuple[int, int]:
        return starts[first - 1], min(n, starts[last] - 1 + (1 if deletion else 0))

    hashes, terms = _hash_segments(segments, h, y_hashes)
    f_y = vt_sum(terms) % params.f_mod
    fdiff = signed_residue(target.f - f_y, params.f_mod)
    m = h.hash_range
    hash_delta = _multiset_delta(h_x, hashes)
    if dl == 0:
        k = (m if deletion else 0) + hash_delta
        if k == 0 or fdiff % k:
            raise LocateFailure("sketch difference does not isolate a segment")
        i = fdiff // k
        if not 1 <= i <= ly:
            raise LocateFailure("recovered segment index out of range")
        case = "same"
        return LocateResult(False, case, span_of(i, i), bounds[case].window)
    if dl == -1:
        case = f"merge-{kind}"
        k = (m if deletion else 0) + hash_delta
        stop = _phi_scan(terms, k, fdiff, ly, bounds[case], 1, 0)
        lo_seg = max(1, stop - bounds[case].span)
        window = span_of(lo_seg, stop)
    elif dl == 1:
        case = f"split-{kind}"
        k = (m if deletion else 0) + hash_delta
        stop = _phi_scan(terms, k, fdiff, ly - 1, bounds[case], -1, 1)
        lo_seg = max(1, stop - bounds[case].span)
        window = span_of(lo_seg, stop + 1)
    elif dl == -2:
        case = "merge2-trans"
        stop = _phi_scan(terms, hash_delta, fdiff, ly, bounds[case], 2, 0)
        lo_seg = max(1, stop - bounds[case].span)
        window = span_of(lo_seg, stop)
    else:
        case = "split2-trans"
        stop = _phi_scan(terms, hash_delta, fdiff, ly - 2, bounds[case], -2, 2)
        lo_seg = max(1, stop - bounds[case].span)
        window = span_of(lo_seg, stop + 2)
    return LocateResult(False, case, window, bounds[case].window)


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

    def interval_for(self, window: tuple[int, int]) -> tuple[int, int]:
        lo, hi = window
        for idx, (a, b) in enumerate(self.primary):
            if a <= lo and hi <= b:
                return 1, idx
        for idx, (a, b) in enumerate(self.shifted):
            if a <= lo and hi <= b:
                return 2, idx
        raise LocateFailure(f"window {window} fits no interval of the plan")


def inner_fields(length: int) -> SketchFields:
    """Inner sketch layout: VT sum mod length+1, parity VT sum mod 2*length+1."""
    return SketchFields((length + 1, 2 * length + 1))


def inner_sketch(bits: tuple[int, ...], length: int) -> tuple[int, ...]:
    if len(bits) != length:
        raise AlphabetError(f"inner sketch needs length {length}")
    total, _, parity_vt = vt_parity_sums(bits)
    return inner_fields(length).pack(
        (total % (length + 1), parity_vt % (2 * length + 1)))


def inner_correct(window: tuple[int, ...], sketch: tuple[int, ...],
                  length: int) -> tuple[int, ...]:
    """Invert one deletion or one adjacent transposition given the sketch.

    A deletion is undone in O(L) by Levenshtein's VT decoder ("Binary codes
    capable of correcting deletions, insertions, and reversals", 1966): a
    word of length L-1 has at most one supersequence of length L in each VT
    class mod L+1, so the sketch's VT field names the only insertion that can
    match, and one full sketch check accepts or rejects it.  With
    D = (VT target - sum(i * y_i)) mod (L+1) and w the weight of y, the
    insertion is a 0 with D ones to its right when D <= w, else a 1 with
    D - w - 1 zeros to its left.
    """
    vt_target, parity_target = inner_fields(length).unpack(sketch)
    if len(window) == length - 1:
        weight = window.count(1)
        d = (vt_target - vt_sum(window)) % (length + 1)
        if d <= weight:
            bit, pos = 0, _after_nth(window, 1, weight - d)
        else:
            bit, pos = 1, _after_nth(window, 0, d - weight - 1)
        cand = window[:pos] + (bit,) + window[pos:]
        if inner_sketch(cand, length) != sketch:
            raise DecodeFailure("no single insertion matches the inner sketch")
        return cand
    if len(window) != length:
        raise DecodeFailure("window length fits neither error type")
    acc = 0
    parity_sum = 0
    parity = []
    for b in window:
        acc ^= b
        parity.append(acc)
        parity_sum += len(parity) * acc
    diff = signed_residue(parity_target - parity_sum, 2 * length + 1)
    if diff == 0:
        if inner_sketch(window, length) != sketch:
            raise DecodeFailure("clean window contradicts the inner sketch")
        return window
    k = abs(diff)
    want = 1 if diff > 0 else 0
    if k > length - 1 or parity[k - 1] != 1 - want:
        raise DecodeFailure("no transposition matches the inner sketch")
    parity[k - 1] = want
    cand = tuple(prefix_parity_inverse(Word(tuple(parity), 2)).symbols)
    if inner_sketch(cand, length) != sketch:
        raise DecodeFailure("transposition repair contradicts the inner sketch")
    return cand


def _after_nth(bits: tuple[int, ...], symbol: int, count: int) -> int:
    """Index just past the count-th occurrence of symbol in bits (0 for none)."""
    pos = 0
    for _ in range(count):
        pos = bits.index(symbol, pos) + 1
    return pos


def _padded_slice(bits: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    chunk = bits[a - 1:min(b, len(bits))]
    return chunk + (0,) * (b - a + 1 - len(chunk))


def window_sketches(word: Word, plan: WindowPlan,
                    ) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """XOR-folded inner sketches over the primary and shifted interval families."""
    require_binary(word)
    length = plan.block
    width = inner_fields(length).width

    def fold(intervals: list[tuple[int, int]]) -> tuple[int, ...]:
        acc = (0,) * width
        for a, b in intervals:
            sk = inner_sketch(_padded_slice(word.symbols, a, b), length)
            acc = tuple(x ^ y for x, y in zip(acc, sk))
        return acc

    g1_hat = fold(plan.primary)
    g2_hat = fold(plan.shifted) if plan.t > 1 else None
    return g1_hat, g2_hat


def correct(y: Word, target: DeltransSketches, h_x: tuple[int, ...],
            hats: tuple[tuple[int, ...], tuple[int, ...] | None],
            plan: WindowPlan, params: DeltransParams, h,
            y_hashes: list[int] | None = None) -> Word:
    """Full repair: locate, pick the covering interval, repair it, splice.

    `y_hashes` are passed on to `locate`.
    """
    loc = locate(y, target, h_x, params, h, y_hashes)
    n = params.n
    if loc.clean:
        sk, hashes = segment_sketches(y, params, h)
        if sk != target or hashes != h_x:
            raise DecodeFailure("unchanged word contradicts the sketches")
        return y
    deletion = len(y) == n - 1
    family, idx = plan.interval_for(loc.window)
    intervals = plan.primary if family == 1 else plan.shifted
    a, b = intervals[idx]
    lo, hi = loc.window
    length = plan.block
    shift = 1 if deletion else 0

    def source_bit(p: int) -> int:
        if p > n:
            return 0
        if p < lo:
            return y.symbols[p - 1]
        return y.symbols[p - 1 - shift]

    width = inner_fields(length).width
    acc = hats[0] if family == 1 else hats[1]
    if acc is None:
        raise DecodeFailure("the shifted family has no sketch at this size")
    for j, (c, d) in enumerate(intervals):
        if j == idx:
            continue
        chunk = tuple(source_bit(p) for p in range(c, d + 1))
        sk = inner_sketch(chunk, length)
        acc = tuple(x ^ s for x, s in zip(acc, sk))
    chunk = y.symbols[a - 1:min(b - shift, len(y))]
    window_bits = chunk + (0,) * (b - a + 1 - shift - len(chunk))
    repaired = inner_correct(window_bits, acc, length)
    keep = min(b, n) - a + 1
    tail = y.symbols[b - shift:] if b < n else ()
    x = Word(y.symbols[:a - 1] + repaired[:keep] + tail, 2)
    if len(x) != n:
        raise DecodeFailure("spliced word has the wrong length")
    sk, hashes = segment_sketches(x, params, h)
    if sk != target or hashes != h_x:
        raise DecodeFailure("repaired word contradicts the sketches")
    return x


# ---------------------------------------------------------------------------
# desk-profile code construction


@functools.lru_cache(maxsize=None)
def _segment_options(length: int) -> tuple[tuple[int, ...], ...]:
    """All segments of one length: marker-terminal, marker occurs only once."""
    if length < 4:
        return ()
    out = []
    for prefix in itertools.product((0, 1), repeat=length - 4):
        bits = prefix + MARKER
        inner, residue = segment_lenient(Word(bits, 2))
        if len(inner) == 1 and not residue:
            out.append(bits)
    return tuple(out)


def enumerate_candidates(n: int, delta: int) -> list[Word]:
    """All length-n marker-terminal words whose segments are at most delta long."""
    partials: list[tuple[int, tuple[int, ...]]] = [(0, ())]
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
    out.sort(key=lambda w: w.symbols)
    return out


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
                 hats: tuple[tuple[int, ...], tuple[int, ...] | None],
                 codewords: list[Word], multisets: list[tuple[int, ...]]):
        self.params = params
        self.hash = h
        self.target = target
        self.hats = hats
        self.codewords = codewords
        self.multisets = multisets
        self.distinct_multisets = sorted(set(multisets))
        self.plan = WindowPlan(params.n, params.locate_bound)

    @classmethod
    def build(cls, n: int, delta: int = 5) -> "DeltransDeskCode":
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
            key = (hats[0], hats[1] if hats[1] is not None else ())
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

    def recover_multiset(self, y: Word) -> tuple[tuple[int, ...], list[int]]:
        """The one code multiset within drift of y's segment hashes, and those
        hashes in segment order."""
        segments, _ = segment_lenient(y)
        if any(len(s) > 3 * self.hash.cap for s in segments):
            raise DecodeFailure("a segment is longer than the hash domain")
        hashes = [self.hash(s) for s in segments]
        h_y = tuple(sorted(hashes))
        near = [ms for ms in self.distinct_multisets
                if multiset_distance(ms, h_y) <= HASH_DRIFT_BOUND]
        if len(near) != 1:
            raise DecodeFailure(
                f"{len(near)} code multisets within drift of the received word")
        return near[0], hashes

    def decode(self, y: Word) -> Word:
        h_x, h_y = self.recover_multiset(y)
        return correct(y, self.target, h_x, self.hats, self.plan,
                       self.params, self.hash, h_y)


def segment_cap_probability(n: int, delta: int, trials: int, seed: int) -> float:
    """Sampled probability that a uniform word splits into pieces <= delta."""
    import random

    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        bits = tuple(rng.getrandbits(1) for _ in range(n))
        segments, residue = segment_lenient(Word(bits, 2))
        longest = max([len(s) for s in segments] + [len(residue)])
        hits += longest <= delta
    return hits / trials
