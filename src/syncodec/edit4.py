"""4-ary single-edit-correcting code built on weighted VT sketches.

The code fixes a weight function w = (0, 1, 2L+11, 2L+12) with L = ceil(log2 n)
and keeps the words whose weighted VT sketch and symbol-count parities hit a
chosen target, intersected with the regular words.  Regularity (no long 0-runs
in the 0/2-projection, no long 3-runs in the 1/3-projection) is what makes the
deletion/insertion scan unambiguous.

Each public function works on its word's bytes (`Word.raw`, one per symbol)
and does its per-symbol work in branch-free array passes: numpy reads the
bytes as one uint8 array without a copy, the weighted VT sum is the int64 dot
product of w(x) with the positions 1..n+2 that `Edit4Params` caches, and the
count parities come from one `np.bincount` of that array.
`correct_edit`, the one corrector, finds a substitution's position by one
division and a deleted or inserted symbol's position by one suffix sum and one
equality search (the offsets stay below the modulus, so matching them mod the
modulus is exact equality), and checks its answer against the target with
x's sums derived from y's in O(1).  Every sum is at most (n+1)(n+2)/2 max(w),
which fits in int64 for n up to 2^28; `Edit4Params.for_length` refuses longer
words.  The runlength code gathers a word's two projections through the slots
of its even and of its odd symbols (two nonzero passes over the parity mask)
and scatters a projection back only from the first symbol that packing or
unpacking changed: a word with no long run is written back not at all.
`Edit4Code.decode` sends every received word through `correct_edit` and
accepts the answer only when its codeword reaches the received word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AlphabetError,
    DecodeFailure,
    MalformedEncodingError,
    NoCandidateError,
    SizeGuardError,
)
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
from .sketches import signed_residue
from .words import SYMBOL_BYTES, ErrorModel, Word, reaches

# the longest words enumerate_sketch_space searches exhaustively
EXHAUSTIVE_MAX_N = 10


@dataclass(frozen=True)
class Edit4Params:
    n: int
    log_n: int
    weights: tuple[int, int, int, int]  # w(0) < w(1) < w(2) < w(3)
    modulus: int

    @classmethod
    def for_length(cls, n: int) -> "Edit4Params":
        if n < 1:
            raise AlphabetError("word length must be positive")
        if n > 2 ** 28:
            raise SizeGuardError("edit4's int64 sums are exact only for n <= 2^28")
        log_n = ceil_log2(n)
        weights = (0, 1, 2 * log_n + 11, 2 * log_n + 12)
        modulus = 1 + 2 * n * (2 * log_n + 12)
        return cls(n, log_n, weights, modulus)

    @cached_property
    def weight_array(self) -> np.ndarray:
        """w as an int64 array, indexed by a word's uint8 symbol array."""
        return np.array(self.weights, dtype=np.int64)

    @cached_property
    def positions(self) -> np.ndarray:
        """The positions 1..n+2 as int64: the weights of a VT dot over any
        word the corrector reads (n + 1 symbols) and of its insertion slots.
        Shared by every call, so read-only."""
        table = np.arange(1, self.n + 3, dtype=np.int64)
        table.flags.writeable = False
        return table

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


def is_regular(word: Word, params: Edit4Params) -> bool:
    """No run of more than run_cap 0s in the 0/2 projection, nor of 3s in the
    1/3 projection."""
    _require_quaternary(word)
    long_run = params.run_cap + 1
    return (b"\x00" * long_run not in word.raw.translate(None, b"\x01\x03")
            and b"\x03" * long_run not in word.raw.translate(None, b"\x00\x02"))


def _require_quaternary(word: Word) -> None:
    if word.q != 4:
        raise AlphabetError(f"edit4 works on 4-ary words, got alphabet size {word.q}")


def sketches(word: Word, params: Edit4Params) -> Edit4Sketches:
    _require_quaternary(word)
    symbols = np.frombuffer(word.raw, dtype=np.uint8)
    positions = params.positions
    if len(symbols) > len(positions):  # longer than any word edit4 reads
        positions = np.arange(1, len(symbols) + 1, dtype=np.int64)
    f = int(params.weight_array.take(symbols).dot(positions[:len(symbols)]))
    return Edit4Sketches(f % params.modulus, *_count_parities(symbols))


def is_codeword(word: Word, params: Edit4Params, target: Edit4Sketches) -> bool:
    if len(word) != params.n:
        return False
    return is_regular(word, params) and sketches(word, params) == target


def _count_parities(symbols: np.ndarray) -> tuple[int, int, int]:
    """The parities of the numbers of 0s, 1s and 2s, from one count pass."""
    c0, c1, c2, _ = np.bincount(symbols, minlength=4).tolist()
    return c0 & 1, c1 & 1, c2 & 1


def correct_edit(y: Word, target: Edit4Sketches, params: Edit4Params) -> Word:
    """Recover the codeword x from y, at most one deletion, insertion or
    substitution away.

    The count parities y flips name the edited symbols, and f(x) - f(y) names
    the position.  A substitution of a by b at position i moves f by
    i (w(b) - w(a)), so one division finds i.  Let S(j) = sum_{i >= j} w(y_i).
    Reinserting a deleted a before y_j (j = n appends) adds j w(a) + S(j) to
    f(y); deleting an inserted y_j = a takes (j - 1) w(a) + S(j) off it.  Both
    offsets lie in [0, (n + 1) max(w)], below the modulus, so matching them
    mod the modulus is an exact equality.  With
    T(j) = sum_{i >= j} (w(y_i) - w(a)), j w(a) + S(j) = T(j) + (len(y) + 1) w(a),
    so one suffix sum of w(y) - w(a) and one equality search against the
    sketch difference less that constant find every matching j, and the
    largest is kept, as a right-to-left scan would.

    The final check does not sketch x again: x's sums follow from y's and the
    repair in O(1).  A substitution adds i (w(a) - w(b)) to f(y), a
    reinsertion adds the matched offset and a deletion takes it off, and the
    count parity of each symbol changed flips (3 has none).  All four fields,
    reduced mod their moduli, are compared with the target.
    """
    n = params.n
    d = len(y) - n  # -1 after a deletion, 1 after an insertion
    if d not in (-1, 0, 1):
        raise NoCandidateError(f"length {len(y)} incompatible with n = {n}")
    _require_quaternary(y)
    raw = y.raw
    symbols = np.frombuffer(raw, dtype=np.uint8)
    hy = _count_parities(symbols)
    flipped = [c for c, h in enumerate((target.h0, target.h1, target.h2)) if hy[c] != h]
    weighted = params.weight_array.take(symbols)
    f_y = int(weighted.dot(params.positions[:len(raw)]))
    w = params.weights
    if d == 0:
        diff = signed_residue(target.f - f_y, params.modulus)  # f(x) - f(y)
        if not flipped:
            if diff != 0:
                raise NoCandidateError("count sketches match but the VT sketch does not")
            return y
        if len(flipped) == 3:
            raise NoCandidateError("three count parities flipped by one substitution")
        lo, hi = flipped if len(flipped) == 2 else (flipped[0], 3)
        # y holds b, the codeword holds a; f(y) - f(x) = i (w(b) - w(a))
        a, b = (lo, hi) if diff < 0 else (hi, lo)
        i, rest = divmod(abs(diff), abs(w[b] - w[a]))
        if rest or not 1 <= i <= n or raw[i - 1] != b:
            raise NoCandidateError("no position matches the sketch difference")
        x_raw = raw[:i - 1] + SYMBOL_BYTES[a] + raw[i:]
        f_x, changed = f_y + i * (w[a] - w[b]), (a, b)
    else:
        if len(flipped) > 1:
            raise NoCandidateError(
                "one deletion or insertion flips at most one count parity")
        a = flipped[0] if flipped else 3
        # offsets[j - 1] = T(j), written through a reversed view so that
        # accumulate takes its strided loop; T(len(y) + 1) = 0
        weighted -= w[a]
        offsets = np.empty(len(raw) + 1, dtype=np.int64)
        offsets[-1] = 0
        np.add.accumulate(weighted[::-1], out=offsets[-2::-1])
        # a reinsertion adds f(x) - f(y) to f(y), a deletion takes f(y) - f(x)
        # off; less the constant part of its offset, len(y) + 1 resp. len(y)
        # times w(a)
        shift = (len(raw) + (d < 0)) * w[a]
        hits = offsets == d * (f_y - target.f) % params.modulus - shift
        if d > 0:  # only an occurrence of a can be deleted
            hits = hits[:-1] & (symbols == a)
        hits = hits.nonzero()[0]
        if not hits.size:
            raise NoCandidateError("no position matches the VT sketch")
        j = int(hits[-1]) + 1
        moved = int(offsets[j - 1]) + shift  # |f(x) - f(y)|
        if d < 0:
            x_raw = raw[:j - 1] + SYMBOL_BYTES[a] + raw[j - 1:]
        else:
            x_raw = raw[:j - 1] + raw[j:]
        f_x, changed = f_y - d * moved, (a,)
    # each changed symbol's count parity flips (3 has none)
    hx = (h ^ (c in changed) for c, h in enumerate(hy))
    if Edit4Sketches(f_x % params.modulus, *hx) != target:
        raise NoCandidateError("corrected word does not match the sketch target")
    return Word(x_raw, 4)


# Runlength replacement: the 0/2 projection is encoded against long 0-runs,
# the 1/3 projection against long 3-runs; both use the same core with the
# digit pair (zero_digit, one_digit) = (0, 2) resp. (3, 1).  Each projection
# is gathered through the slots of its parity (`_parity_order`).  Packing and
# unpacking keep every symbol's parity and leave a projection unchanged
# before its first replaced run, so `_write_back` scatters a projection back
# only from the first symbol it changed, and not at all when none changed.

def _rll_pack(seq: bytes, zero_digit: int, one_digit: int) -> bytes:
    """Replace runs of cap zero_digits until none is left; O(m) scanning.

    Each pass deletes the first run and appends a marker: its start in
    width bits and two one_digits.  The prefix before that start is
    unchanged, held no run and does not end in zero_digit (or the run would
    have started earlier), so no run can start before it and the next
    search resumes there: the scans together read each symbol O(1) times.
    """
    m = len(seq)
    out = seq + bytes((one_digit, zero_digit))
    if m == 0:
        return out
    cap = (m - 1).bit_length() + 2
    to_digits = bytes.maketrans(b"\x00\x01", bytes((zero_digit, one_digit)))
    run = bytes((zero_digit,)) * cap
    start = out.find(run)
    while start >= 0:
        marker = int_to_bits(start, cap - 2).translate(to_digits)
        out = out[:start] + out[start + cap:] + marker + bytes((one_digit, one_digit))
        start = out.find(run, start)
    return out


def _rll_unpack(seq: bytes, zero_digit: int, one_digit: int) -> bytes:
    """Invert _rll_pack, rejecting every seq that _rll_pack cannot output."""
    if len(seq) < 2:
        raise MalformedEncodingError("packed projection shorter than its suffix")
    m = len(seq) - 2
    # at m = 0 no marker exists; cap = 3 then exceeds len(seq) and rejects one
    cap = (m - 1).bit_length() + 2
    run = bytes((zero_digit,)) * cap
    if seq.find(run) >= 0:
        raise MalformedEncodingError("packed projection still holds a long run")
    digits = bytes((zero_digit, one_digit))
    to_bits = bytes.maketrans(digits, b"\x00\x01")
    out = seq
    later = len(seq)  # start of the marker unwound before, i.e. packed after
    for _ in range(len(seq) + 1):
        if out[-1] == zero_digit:
            if out[-2] != one_digit:
                raise MalformedEncodingError("terminator pair is inconsistent")
            return out[:-2]
        if len(out) < cap or out[-2] != one_digit:
            raise MalformedEncodingError("marker suffix is inconsistent")
        index = out[-cap:-2]
        if index.translate(None, digits):
            raise MalformedEncodingError("marker index holds a foreign digit")
        start = bits_to_int(index.translate(to_bits))
        out = out[:-cap]
        if start > len(out):
            raise MalformedEncodingError("marker index outside the string")
        # _rll_pack replaces the first run each time, so its runs start left
        # to right and none starts right after a zero_digit
        if start > later or start and out[start - 1] == zero_digit:
            raise MalformedEncodingError("markers are not in packing order")
        later = start
        out = out[:start] + run + out[start:]
    raise MalformedEncodingError("marker unwinding did not terminate")


def _parity_order(word: bytes) -> tuple[tuple[np.ndarray, np.ndarray],
                                        tuple[bytes, bytes]]:
    """The slots of word's even symbols and of its odd ones, each in word
    order, and the two projections they spell.  The slots are two nonzero
    passes over the parity mask, read as a bool array, which nonzero scans
    without a branch per symbol (unlike a uint8 one)."""
    symbols = np.frombuffer(word, dtype=np.uint8)
    odd = (symbols & 1).view(bool)
    slots = ((~odd).nonzero()[0], odd.nonzero()[0])
    return slots, tuple(symbols[at].tobytes() for at in slots)


def _write_back(word: bytes, slots: tuple[np.ndarray, np.ndarray],
                new: tuple[bytes, bytes], old: tuple[bytes, bytes]) -> bytes:
    """word with the symbols at each of the two slot lists replaced by its
    new string, where its old string is what they spell now.  Each list is
    scattered only from the first symbol where its two strings differ, and
    word comes back as it is when neither pair does."""
    if new == old:
        return word
    out = np.frombuffer(word, dtype=np.uint8).copy()
    for at, replacement, current in zip(slots, new, old):
        if replacement != current:
            symbols = np.frombuffer(replacement, dtype=np.uint8)
            first = int((symbols != np.frombuffer(current, dtype=np.uint8)).argmax())
            out[at[first:]] = symbols[first:]
    return out.tobytes()


def rll_encode(z: Word) -> Word:
    """Encode z into a regular word of length len(z) + 4, in O(m).

    The packed 0/2 projection keeps the slots of z's even symbols and takes
    slots m, m+1 for its suffix; the packed 1/3 projection keeps the slots of
    the odd symbols and takes slots m+2, m+3.  A projection that holds no
    long run packs to itself followed by (2, 0) resp. (1, 3), so the plain
    word is z followed by 2, 0, 1, 3, whose projections are exactly those,
    and the packed projections are written back over it.
    """
    _require_quaternary(z)
    word = z.raw + b"\x02\x00\x01\x03"
    slots, (low, high) = _parity_order(word)
    packed = (_rll_pack(low[:-2], 0, 2), _rll_pack(high[:-2], 3, 1))
    return Word(_write_back(word, slots, packed, (low, high)), 4)


def rll_decode(x: Word) -> Word:
    """Invert rll_encode; a word that rll_encode cannot output is rejected.

    With the suffix slots checked, the slots of x's even symbols are the low
    projection's payload slots, then slots m and m+1, and its odd ones the
    high projection's payload slots, then slots m+2 and m+3.  So x[:m] holds
    both packed projections but their suffixes, and the unpacked payloads
    are written back over it.
    """
    _require_quaternary(x)
    word = x.raw
    if len(word) < 4:
        raise MalformedEncodingError("encoded word shorter than the fixed overhead")
    m = len(word) - 4
    # rll_encode puts the low suffix in slots m, m+1 and the high one after it
    if word[m] % 2 or word[m + 1] % 2 or not word[m + 2] % 2 or not word[m + 3] % 2:
        raise MalformedEncodingError("suffix slots do not hold low, low, high, high")
    (low_slots, high_slots), (low, high) = _parity_order(word)
    # unpacking keeps each projection's length, so the payloads fill the
    # first m slots exactly
    payloads = (_rll_unpack(low, 0, 2), _rll_unpack(high, 3, 1))
    return Word(_write_back(word[:m], (low_slots[:-2], high_slots[:-2]),
                            payloads, (low[:-2], high[:-2])), 4)


class Edit4Code:
    """Complete encoder/decoder: payload) regularized payload, tail) sketches.

    The tail serializes the payload's sketch fields into 4-ary symbols and
    guards them with 5-fold repetition, which is single-edit proof.  Every
    received word's payload window, its first m + 4 + delta symbols for a
    length change delta, is corrected against the recovered sketches, and
    the answer is accepted only when its codeword reaches the word: the
    rest of the word is the re-encoded tail, or the window was the payload
    itself and `words.reaches` finds the rest within one edit of that tail.
    A word with a symbol outside 0..3 is refused with `AlphabetError`.
    """

    q = 4
    model = ErrorModel.SINGLE_EDIT
    list_bound = 1

    def __init__(self, m: int):
        if type(m) is not int:
            raise AlphabetError(f"message length must be an int, got {m!r}")
        if m < 0:
            raise AlphabetError("message length must not be negative")
        self.m = m
        self.params = Edit4Params.for_length(m + 4)
        self.fields = SketchFields(self.params.moduli)
        self.tail_blocks = -(-self.fields.width // 2)
        self.tail_len = REP * self.tail_blocks
        self.n_total = m + 4 + self.tail_len
        self.redundancy = self.n_total - m

    def _serialize(self, sk: Edit4Sketches) -> bytes:
        return bits_to_quaternary(self.fields.pack(sk.astuple()))

    def encode(self, z: Word) -> Word:
        if z.q != 4 or len(z) != self.m:
            raise AlphabetError(f"message must be 4-ary of length {self.m}")
        x = rll_encode(z)
        tail = rep_encode(self._serialize(sketches(x, self.params)))
        return Word(x.raw + tail, 4)

    def decode(self, y: Word) -> Word:
        # a word over another alphabet is read as 4-ary, and refused with
        # AlphabetError if it holds a larger symbol, before any of it is read
        raw = y.raw if y.q == 4 else Word(y.raw, 4).raw
        delta = len(y) - self.n_total
        if delta not in (-1, 0, 1):
            raise DecodeFailure(
                f"length {len(y)} incompatible with n = {self.n_total}")
        n = self.m + 4
        # len(y) = n + tail_len + delta, so the repetition window, the last
        # tail_len + delta symbols, starts at n whatever the edit
        bits = quaternary_to_bits(rep_decode(raw[n:], self.tail_blocks))
        target = Edit4Sketches(*self.fields.unpack(bits))
        tail = rep_encode(self._serialize(target))
        # an edit in the tail is an edit at the end of the payload window,
        # which correct_edit undoes as its rightmost match
        x = correct_edit(Word(raw[:n + delta], 4), target, self.params)
        # x + tail reaches y through the payload window or through the tail
        if raw[n + delta:] != tail and not (
                x.raw == raw[:n] and reaches(tail, raw[n:], ErrorModel.SINGLE_EDIT)):
            raise DecodeFailure("corrected codeword does not reach the received word")
        return rll_decode(x)


def enumerate_sketch_space(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sketch keys and regularity mask for all 4^n words, vectorized.

    Returns (keys, regular) where keys[i] encodes (f, h0, h1, h2) of word i
    (words in lexicographic order, symbol-major) as f*8 + h0*4 + h1*2 + h2.
    The arrays hold int64 values for every symbol of every word (the search
    peaks at 217 MB of resident memory at n = 10, and each further symbol
    multiplies that by about four), so a length above EXHAUSTIVE_MAX_N is
    refused before any of them is allocated.
    """
    params = Edit4Params.for_length(n)
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(
            f"exhaustive sketch search needs n <= {EXHAUSTIVE_MAX_N}")
    total = 4 ** n
    idx = np.arange(total, dtype=np.int64)
    symbols = np.empty((total, n), dtype=np.int8)
    for j in range(n):
        symbols[:, j] = (idx >> (2 * (n - 1 - j))) & 3
    w = params.weight_array
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


def largest_class(n: int) -> tuple[Edit4Sketches, list[Word]]:
    """The sketch target with the largest regular bucket, ties to the
    smallest tuple, and the bucket's words, from one enumeration."""
    keys, regular = enumerate_sketch_space(n)
    best = int(np.argmax(np.bincount(keys[regular])))
    target = Edit4Sketches(best >> 3, best >> 2 & 1, best >> 1 & 1, best & 1)
    return target, _bucket(n, keys, regular, best)


def search_best_target(n: int) -> tuple[Edit4Sketches, int]:
    """Sketch target with the largest regular bucket, and the bucket's size."""
    target, members = largest_class(n)
    return target, len(members)


def codewords_for_target(n: int, target: Edit4Sketches) -> list[Word]:
    key = ((target.f * 2 + target.h0) * 2 + target.h1) * 2 + target.h2
    return _bucket(n, *enumerate_sketch_space(n), key)


def _bucket(n: int, keys: np.ndarray, regular: np.ndarray, key: int) -> list[Word]:
    """The regular words of length n whose sketch key is key, in order."""
    return [Word(bytes((idx >> (2 * (n - 1 - j))) & 3 for j in range(n)), 4)
            for idx in np.flatnonzero(regular & (keys == key)).tolist()]


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
