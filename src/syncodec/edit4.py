"""4-ary single-edit-correcting code built on weighted VT sketches.

The code fixes a weight function w = (0, 1, 2L+11, 2L+12) with L = ceil(log2 n)
and keeps the words whose weighted VT sketch and symbol-count parities hit a
chosen target, intersected with the regular words.  Regularity (no long 0-runs
in the 0/2-projection, no long 3-runs in the 1/3-projection) is what makes the
deletion/insertion scans unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetError, DecodeFailure, MalformedEncodingError, NoCandidateError
from .inner import (
    REP,
    SketchFields,
    bits_to_int,
    bits_to_quaternary,
    ceil_log2,
    int_to_bits,
    quaternary_to_bits,
    rep_decode,
    rep_encode,
)
from .sketches import WeightFn, signed_residue, weighted_vt
from .words import ErrorModel, Word


@dataclass(frozen=True)
class Edit4Params:
    n: int
    log_n: int
    weights: WeightFn
    modulus: int

    @classmethod
    def for_length(cls, n: int) -> "Edit4Params":
        if n < 1:
            raise AlphabetError("word length must be positive")
        log_n = ceil_log2(n)
        weights = WeightFn((0, 1, 2 * log_n + 11, 2 * log_n + 12))
        modulus = 1 + 2 * n * (2 * log_n + 12)
        return cls(n, log_n, weights, modulus)

    @property
    def moduli(self) -> tuple[int, int, int, int]:
        return (self.modulus, 2, 2, 2)

    @property
    def run_cap(self) -> int:
        # projected runs longer than this break regularity
        return self.log_n + 3


@dataclass(frozen=True)
class Edit4Sketches:
    f: int   # weighted VT value, mod params.modulus
    h0: int  # count parities, mod 2
    h1: int
    h2: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.f, self.h0, self.h1, self.h2)


@dataclass(frozen=True)
class RegularityWitness:
    zero_run_violations: tuple[tuple[int, int], ...]   # (start, length) in x'
    three_run_violations: tuple[tuple[int, int], ...]  # (start, length) in x''

    @property
    def ok(self) -> bool:
        return not self.zero_run_violations and not self.three_run_violations


def _long_runs(seq: list[int], target: int, cap: int) -> tuple[tuple[int, int], ...]:
    violations = []
    i = 0
    while i < len(seq):
        if seq[i] == target:
            j = i
            while j < len(seq) and seq[j] == target:
                j += 1
            if j - i > cap:
                violations.append((i + 1, j - i))
            i = j
        else:
            i += 1
    return tuple(violations)


def regularity(word: Word, params: Edit4Params) -> RegularityWitness:
    if word.q != 4:
        raise AlphabetError("regularity is defined for 4-ary words")
    proj02 = [s for s in word.symbols if s in (0, 2)]
    proj13 = [s for s in word.symbols if s in (1, 3)]
    cap = params.run_cap
    return RegularityWitness(
        _long_runs(proj02, 0, cap), _long_runs(proj13, 3, cap))


def is_regular(word: Word, params: Edit4Params) -> bool:
    return regularity(word, params).ok


def sketches(word: Word, params: Edit4Params) -> Edit4Sketches:
    f = weighted_vt(word, params.weights, params.modulus).value
    return Edit4Sketches(f, *_count_parities(word))


def is_codeword(word: Word, params: Edit4Params, target: Edit4Sketches) -> bool:
    if len(word) != params.n:
        return False
    return is_regular(word, params) and sketches(word, params) == target


def _count_parities(word: Word) -> tuple[int, int, int]:
    s = word.symbols
    return s.count(0) & 1, s.count(1) & 1, s.count(2) & 1


def correct_substitution(y: Word, target: Edit4Sketches, params: Edit4Params) -> Word:
    """Recover the codeword from y differing in at most one position."""
    if len(y) != params.n:
        raise NoCandidateError(f"expected length {params.n}, got {len(y)}")
    hy = _count_parities(y)
    flipped = [c for c in range(3) if hy[c] != (target.h0, target.h1, target.h2)[c]]
    f_y = weighted_vt(y, params.weights, params.modulus).value
    diff = signed_residue(target.f - f_y, params.modulus)  # f(x) - f(y)
    if not flipped:
        if diff != 0:
            raise NoCandidateError("count sketches match but the VT sketch does not")
        return y
    if len(flipped) == 2:
        lo, hi = flipped
    elif len(flipped) == 1:
        lo, hi = flipped[0], 3
    else:
        raise NoCandidateError("three count parities flipped by one substitution")
    # y holds b, the codeword holds a; f(y) - f(x) = i (w(b) - w(a))
    w = params.weights
    a, b = (lo, hi) if diff < 0 else (hi, lo)
    step = abs(w(b) - w(a))
    if abs(diff) % step:
        raise NoCandidateError("sketch difference is not a multiple of the weight gap")
    i = abs(diff) // step
    if not 1 <= i <= params.n or y.symbols[i - 1] != b:
        raise NoCandidateError("recovered position is inconsistent with y")
    x = y.replace(y.symbols[:i - 1] + (a,) + y.symbols[i:])
    if sketches(x, params) != target:
        raise NoCandidateError("corrected word does not match the sketch target")
    return x


def correct_deletion(y: Word, target: Edit4Sketches, params: Edit4Params) -> Word:
    """Reinsert the deleted symbol; right-to-left scan, O(n) total."""
    n = params.n
    if len(y) != n - 1:
        raise NoCandidateError(f"expected length {n - 1}, got {len(y)}")
    hy = _count_parities(y)
    flipped = [c for c in range(3) if hy[c] != (target.h0, target.h1, target.h2)[c]]
    if len(flipped) > 1:
        raise NoCandidateError("one deletion flips at most one count parity")
    a = flipped[0] if flipped else 3
    w = params.weights
    f_y = weighted_vt(y, params.weights, params.modulus).value
    # f(y^(j)) for y^(j) = insert a to the left of y_j; start at j = n (append).
    f_ins = (f_y + n * w(a)) % params.modulus
    for j in range(n, 0, -1):
        if (target.f - f_ins) % params.modulus == 0:
            x = y.replace(y.symbols[:j - 1] + (a,) + y.symbols[j - 1:])
            if sketches(x, params) != target:
                raise NoCandidateError("reinserted word does not match the target")
            return x
        if j > 1:
            f_ins = (f_ins - w(a) + w(y.symbols[j - 2])) % params.modulus
    raise NoCandidateError("no insertion position matches the VT sketch")


def correct_insertion(y: Word, target: Edit4Sketches, params: Edit4Params) -> Word:
    """Remove the inserted symbol; right-to-left scan over its occurrences."""
    n = params.n
    if len(y) != n + 1:
        raise NoCandidateError(f"expected length {n + 1}, got {len(y)}")
    hy = _count_parities(y)
    flipped = [c for c in range(3) if hy[c] != (target.h0, target.h1, target.h2)[c]]
    if len(flipped) > 1:
        raise NoCandidateError("one insertion flips at most one count parity")
    a = flipped[0] if flipped else 3
    w = params.weights
    f_y = weighted_vt(y, params.weights, params.modulus).value
    # f(y^(j)) for y^(j) = delete y_j = a, scanning j from n+1 downward.
    suffix_weight = 0
    for j in range(n + 1, 0, -1):
        if y.symbols[j - 1] == a:
            f_del = (f_y - j * w(a) - suffix_weight) % params.modulus
            if (target.f - f_del) % params.modulus == 0:
                x = y.replace(y.symbols[:j - 1] + y.symbols[j:])
                if sketches(x, params) != target:
                    raise NoCandidateError("shortened word does not match the target")
                return x
        suffix_weight += w(y.symbols[j - 1])
    raise NoCandidateError("no occurrence of the inserted symbol matches the sketch")


def correct_edit(y: Word, target: Edit4Sketches, params: Edit4Params) -> Word:
    if len(y) == params.n:
        return correct_substitution(y, target, params)
    if len(y) == params.n - 1:
        return correct_deletion(y, target, params)
    if len(y) == params.n + 1:
        return correct_insertion(y, target, params)
    raise NoCandidateError(f"length {len(y)} incompatible with n = {params.n}")


# Runlength replacement: the 0/2 projection is encoded against long 0-runs,
# the 1/3 projection against long 3-runs; both use the same core with the
# digit pair (zero_digit, one_digit) = (0, 2) resp. (3, 1).

def _rll_pack(seq: list[int], zero_digit: int, one_digit: int) -> list[int]:
    """Replace runs of cap zero_digits until none is left; O(m) scanning.

    Each pass deletes the first run and appends a marker: its start in
    width bits and two one_digits.  The prefix before that start is
    unchanged, held no run and does not end in zero_digit (or the run would
    have started earlier), so no run can start before it and the next
    search resumes there: the scans together read each symbol O(1) times.
    """
    m = len(seq)
    out = list(seq) + [one_digit, zero_digit]
    if m == 0:
        return out
    cap = (m - 1).bit_length() + 2
    width = cap - 2
    start = 0
    while True:
        start = _find_run(out, zero_digit, cap, start)
        if start is None:
            return out
        del out[start:start + cap]
        out.extend(one_digit if b else zero_digit for b in int_to_bits(start, width))
        out.extend([one_digit, one_digit])


def _find_run(seq: list[int], digit: int, cap: int, begin: int) -> int | None:
    """Start of the first run of cap digits that starts at or after begin."""
    count = 0
    for i in range(begin, len(seq)):
        if seq[i] == digit:
            count += 1
            if count == cap:
                return i - cap + 1
        else:
            count = 0
    return None


def _rll_unpack(seq: bytes, zero_digit: int, one_digit: int) -> list[int]:
    """Invert _rll_pack, rejecting every seq that _rll_pack cannot output."""
    if len(seq) < 2:
        raise MalformedEncodingError("packed projection shorter than its suffix")
    m = len(seq) - 2
    # at m = 0 no marker exists; cap = 3 then exceeds len(seq) and rejects one
    cap = (m - 1).bit_length() + 2
    width = cap - 2
    if seq.find(bytes((zero_digit,)) * cap) >= 0:
        raise MalformedEncodingError("packed projection still holds a long run")
    out = list(seq)
    later = len(seq)  # start of the marker unwound before, i.e. packed after
    for _ in range(len(seq) + 1):
        if out[-1] == zero_digit:
            if out[-2] != one_digit:
                raise MalformedEncodingError("terminator pair is inconsistent")
            return out[:-2]
        if len(out) < cap or out[-2] != one_digit:
            raise MalformedEncodingError("marker suffix is inconsistent")
        bits = []
        for d in out[-cap:-2]:
            if d == zero_digit:
                bits.append(0)
            elif d == one_digit:
                bits.append(1)
            else:
                raise MalformedEncodingError("marker index holds a foreign digit")
        start = bits_to_int(tuple(bits))
        del out[-cap:]
        if start > len(out):
            raise MalformedEncodingError("marker index outside the string")
        # _rll_pack replaces the first run each time, so its runs start left
        # to right and none starts right after a zero_digit
        if start > later or start and out[start - 1] == zero_digit:
            raise MalformedEncodingError("markers are not in packing order")
        later = start
        out[start:start] = [zero_digit] * cap
    raise MalformedEncodingError("marker unwinding did not terminate")


def rll_encode(z: Word) -> Word:
    """Encode z into a regular word of length len(z) + 4, in O(m)."""
    if z.q != 4:
        raise AlphabetError("runlength replacement operates on 4-ary words")
    low_positions = [i for i, s in enumerate(z.symbols) if s in (0, 2)]
    low = [z.symbols[i] for i in low_positions]
    high = [s for s in z.symbols if s in (1, 3)]
    packed_low = _rll_pack(low, 0, 2)
    packed_high = _rll_pack(high, 3, 1)
    m = len(z)
    out = [0] * (m + 4)
    low_slots = low_positions + [m, m + 1]
    low_set = set(low_slots)
    high_slots = [i for i in range(m + 4) if i not in low_set]
    for slot, s in zip(low_slots, packed_low):
        out[slot] = s
    for slot, s in zip(high_slots, packed_high):
        out[slot] = s
    return Word(tuple(out), 4)


def rll_decode(x: Word) -> Word:
    """Invert rll_encode; a word that rll_encode cannot output is rejected."""
    if x.q != 4:
        raise AlphabetError("runlength replacement operates on 4-ary words")
    if len(x) < 4:
        raise MalformedEncodingError("encoded word shorter than the fixed overhead")
    m = len(x) - 4
    # rll_encode puts the low suffix in slots m, m+1 and the high one after it
    if x.symbols[m] % 2 or x.symbols[m + 1] % 2 or \
            not x.symbols[m + 2] % 2 or not x.symbols[m + 3] % 2:
        raise MalformedEncodingError("suffix slots do not hold low, low, high, high")
    # unpacking keeps each projection's length, so with the suffix slots in
    # place the payloads fill the first m slots exactly
    word = bytes(x.symbols)
    it_low = iter(_rll_unpack(word.translate(None, b"\x01\x03"), 0, 2))
    it_high = iter(_rll_unpack(word.translate(None, b"\x00\x02"), 3, 1))
    out = [next(it_low) if s in (0, 2) else next(it_high) for s in x.symbols[:m]]
    return Word(tuple(out), 4)


class Edit4Code:
    """Complete encoder/decoder: payload) regularized payload, tail) sketches.

    The tail serializes the payload's sketch fields into 4-ary symbols and
    guards them with 5-fold repetition, which is single-edit proof.
    """

    q = 4
    model = ErrorModel.SINGLE_EDIT
    list_bound = 1

    def __init__(self, m: int):
        self.m = m
        self.params = Edit4Params.for_length(m + 4)
        self.fields = SketchFields(self.params.moduli)
        self.tail_blocks = -(-self.fields.width // 2)
        self.tail_len = REP * self.tail_blocks
        self.n_total = m + 4 + self.tail_len
        self.redundancy = self.n_total - m

    def _serialize(self, sk: Edit4Sketches) -> tuple[int, ...]:
        return bits_to_quaternary(self.fields.pack(sk.astuple()))

    def encode(self, z: Word) -> Word:
        if z.q != 4 or len(z) != self.m:
            raise AlphabetError(f"message must be 4-ary of length {self.m}")
        x = rll_encode(z)
        tail = rep_encode(self._serialize(sketches(x, self.params)))
        return Word(x.symbols + tail, 4)

    def decode(self, y: Word) -> Word:
        delta = len(y) - self.n_total
        if delta not in (-1, 0, 1):
            raise DecodeFailure(
                f"length {len(y)} incompatible with n = {self.n_total}")
        window = y.symbols[len(y) - (self.tail_len + delta):]
        bits = quaternary_to_bits(rep_decode(window, self.tail_blocks))
        target = Edit4Sketches(*self.fields.unpack(bits))
        expected_tail = rep_encode(self._serialize(target))
        if y.symbols[len(y) - self.tail_len:] != expected_tail:
            # the edit hit the tail, so the payload part is intact
            payload = Word(y.symbols[:self.m + 4], 4)
            return rll_decode(payload)
        payload_window = Word(y.symbols[:len(y) - self.tail_len], 4)
        x = correct_edit(payload_window, target, self.params)
        return rll_decode(x)


def enumerate_sketch_space(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sketch keys and regularity mask for all 4^n words, vectorized.

    Returns (keys, regular) where keys[i] encodes (f, h0, h1, h2) of word i
    (words in lexicographic order, symbol-major) as f*8 + h0*4 + h1*2 + h2.
    """
    params = Edit4Params.for_length(n)
    total = 4 ** n
    idx = np.arange(total, dtype=np.int64)
    symbols = np.empty((total, n), dtype=np.int8)
    for j in range(n):
        symbols[:, j] = (idx >> (2 * (n - 1 - j))) & 3
    w = np.array(params.weights.weights, dtype=np.int64)
    positions = np.arange(1, n + 1, dtype=np.int64)
    f = (w[symbols] * positions).sum(axis=1) % params.modulus
    h = [( (symbols == c).sum(axis=1) & 1 ).astype(np.int64) for c in range(3)]
    keys = ((f * 2 + h[0]) * 2 + h[1]) * 2 + h[2]
    regular = _regular_mask(symbols, params.run_cap)
    return keys, regular


def _regular_mask(symbols: np.ndarray, cap: int) -> np.ndarray:
    """Vectorized regularity: projected runs tracked with running counters."""
    total = symbols.shape[0]
    run0 = np.zeros(total, dtype=np.int32)
    run3 = np.zeros(total, dtype=np.int32)
    ok = np.ones(total, dtype=bool)
    for j in range(symbols.shape[1]):
        col = symbols[:, j]
        run0 = np.where(col == 0, run0 + 1, np.where(col == 2, 0, run0))
        run3 = np.where(col == 3, run3 + 1, np.where(col == 1, 0, run3))
        ok &= (run0 <= cap) & (run3 <= cap)
    return ok


def search_best_target(n: int) -> tuple[Edit4Sketches, int]:
    """Sketch target with the largest regular bucket; ties to the smallest tuple."""
    keys, regular = enumerate_sketch_space(n)
    counts = np.bincount(keys[regular])
    best = int(np.argmax(counts))
    f, rest = divmod(best, 8)
    h0, rest = divmod(rest, 4)
    h1, h2 = divmod(rest, 2)
    return Edit4Sketches(f, h0, h1, h2), int(counts[best])


def codewords_for_target(n: int, target: Edit4Sketches) -> list[Word]:
    keys, regular = enumerate_sketch_space(n)
    key = ((target.f * 2 + target.h0) * 2 + target.h1) * 2 + target.h2
    members = np.nonzero(regular & (keys == key))[0]
    out = []
    for idx in members:
        idx = int(idx)
        out.append(Word(tuple((idx >> (2 * (n - 1 - j))) & 3 for j in range(n)), 4))
    return out


def regular_fraction(n: int, trials: int, seed: int) -> float:
    """Sampled fraction of regular words of length n."""
    params = Edit4Params.for_length(n)
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, 4, size=(trials, n), dtype=np.int8)
    return float(_regular_mask(symbols, params.run_cap).mean())


def size_lower_bound(n: int) -> tuple[int, int]:
    """Pigeonhole bound as an exact fraction (numerator, denominator)."""
    params = Edit4Params.for_length(n)
    return 7 * 4 ** n, 8 * 8 * params.modulus
