"""Binary list-size-2 code for one deletion plus one substitution.

Membership pins five sketches: the VT sum mod 3n+1, two run-based sums mod
12n+1 and 16n^2+1, the weight mod 5 and the run count mod 13.  The decoder
re-expresses the corruption as "insert one bit, flip one bit" and builds one
table of the received word's run ranks and their prefix sums.  The weight and
run-count sketches classify the error from that table; then a scan walks
every insertion position, with the flip position forced by the VT sketch.
At each position the run count and the first run sum are O(1) tests on the
table, and the survivors get the second run sum, also O(1) from the table,
as the one exact check.  A decode is O(n) overall, and its hits are exactly
the sketch-consistent members of the error ball, which the exhaustive oracle
bounds by two.  `DelSubCode.decode` builds each candidate's codeword from the
recovered sketch fields and guard, which are what `encode` writes, and keeps
the candidates whose codeword reaches the received word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from operator import mul, ne

from .errors import AlphabetError, DecodeFailure, EmptyListError
from .inner import REP, SketchFields, rep_decode, rep_encode
from .oracle import all_words
from .sketches import signed_residue, vt_sum
from .words import ErrorModel, Word, require_binary

# h(x) - h(y) determines the deleted and the flipped bit values
_PATTERN_TABLE = {-1: (0, 0), 1: (0, 1), 0: (1, 0), 2: (1, 1)}

_VALID_RUN_DELTAS = {-2, 0, 2, 4}


@dataclass(frozen=True)
class DelSubParams:
    n: int

    @property
    def f_mod(self) -> int:
        return 3 * self.n + 1

    @property
    def f1r_mod(self) -> int:
        return 12 * self.n + 1

    @property
    def f2r_mod(self) -> int:
        return 16 * self.n * self.n + 1

    h_mod = 5
    hr_mod = 13

    @property
    def moduli(self) -> tuple[int, int, int, int, int]:
        return (self.f_mod, self.f1r_mod, self.f2r_mod, self.h_mod, self.hr_mod)


@dataclass(frozen=True)
class DelSubSketches:
    f: int
    f1r: int
    f2r: int
    h: int
    hr: int

    def astuple(self) -> tuple[int, int, int, int, int]:
        return (self.f, self.f1r, self.f2r, self.h, self.hr)


class _WordStats:
    """Rank tables of a received word y_1 .. y_m, built once per list decode.

    Queries describe the word obtained by flipping y_p to t and then inserting
    the bit u before position d, and return raw (unreduced) sketch sums of the
    result in O(1).  A flip moves the ranks by e1 at p and by e2 after p.
    """

    def __init__(self, bits: tuple[int, ...]):
        m = len(bits)
        self.m = m
        self.ext = (0,) + bits + (1,)  # y_0 .. y_{m+1} with the sentinels
        # ranks r_0 .. r_{m+1}: r_i counts the boundaries y_{j-1} != y_j, j <= i
        ranks = list(accumulate(map(ne, bits, (0,) + bits), initial=0))
        ranks.append(ranks[-1] + (0 if bits and bits[-1] else 1))
        self.ranks = ranks
        self.r1 = list(accumulate(islice(ranks, m + 1)))  # sum of r_j, j <= i
        self.s2 = list(accumulate(map(mul, ranks, ranks)))  # sum of r_j^2, j <= i
        self.weight = sum(bits)
        self.vt = vt_sum(bits)
        self.runs = ranks[m + 1] + 1

    def flip_steps(self, p: int) -> tuple[int, int]:
        """Rank changes (e1 at p, e2 after p) of flipping y_p."""
        ranks = self.ranks
        e1 = 1 - 2 * (ranks[p] - ranks[p - 1])
        return e1, e1 + 1 - 2 * (ranks[p + 1] - ranks[p])

    def edited_sums(self, d: int, u: int, p: int | None, t: int | None,
                    ) -> tuple[int, int, int, int]:
        """Raw (f1r, f2r, run count, weight) of flip(p -> t) then insert u at d."""
        m, ext, ranks, r1 = self.m, self.ext, self.ranks, self.r1
        if p is None:
            e1 = e2 = 0
            p = m  # no flip: every zone below is empty or moves by 0
            a, b = ext[d - 1], ext[d]
            weight = self.weight + u
        else:
            e1, e2 = self.flip_steps(p)
            a = t if d - 1 == p else ext[d - 1]
            b = t if d == p else ext[d]
            weight = self.weight + u + 2 * t - 1
        # ranks of the flipped word, summed over 1..m, and their squares
        sum1 = r1[m] + e1 + e2 * (m - p)
        sum2 = (self.s2[m] + 2 * e1 * ranks[p] + e1 * e1
                + 2 * e2 * (r1[m] - r1[p]) + e2 * e2 * (m - p))
        # the inserted bit takes rank r(d-1) + c1; the m - d + 1 bits after it
        # move by delta; tail is their flipped-word rank sum
        c1 = u != a
        delta = c1 + (b != u) - (a != b)
        rank_d = ranks[d - 1] + (e2 if d - 1 > p else e1 if d - 1 == p else 0) + c1
        after = m - d + 1
        tail = (r1[m] - r1[d - 1] + (e1 if d <= p else 0)
                + e2 * (m - max(d - 1, p)))
        f1r = sum1 + rank_d + delta * after
        squares = sum2 + rank_d * rank_d + 2 * delta * tail + delta * delta * after
        runs = ranks[m + 1] + e2 + delta + 1
        return f1r, squares - f1r, runs, weight


def sketches(word: Word, params: DelSubParams) -> DelSubSketches:
    require_binary(word)
    f = weight = f1r = squares = rank = prev = 0
    for i, b in enumerate(word.symbols, 1):
        if b != prev:
            rank += 1
            prev = b
        f1r += rank
        squares += rank * rank
        if b:
            f += i
            weight += 1
    runs = rank + (prev == 0) + 1  # the sentinel 1 closes a last run of 0s
    return DelSubSketches(
        f % params.f_mod, f1r % params.f1r_mod, (squares - f1r) % params.f2r_mod,
        weight % params.h_mod, runs % params.hr_mod)


def is_codeword(word: Word, params: DelSubParams, target: DelSubSketches) -> bool:
    return len(word) == params.n and sketches(word, params) == target


def classify_error(target: DelSubSketches, y: Word, params: DelSubParams,
                   stats: _WordStats | None = None) -> tuple[int, int, int]:
    """Deleted bit value, flipped bit value, and the run-count change.

    `stats` are y's rank tables when the caller has built them already.
    """
    if len(y) != params.n - 1:
        raise EmptyListError(f"classification needs |y| = {params.n - 1}")
    if stats is None:
        stats = _WordStats(y.symbols)
    h_diff = signed_residue(target.h - stats.weight, params.h_mod)
    if h_diff not in _PATTERN_TABLE:
        raise EmptyListError(f"weight difference {h_diff} matches no error pattern")
    run_delta = signed_residue(target.hr - stats.runs, params.hr_mod)
    if run_delta not in _VALID_RUN_DELTAS:
        raise EmptyListError(f"run-count difference {run_delta} matches no pattern")
    x_d, x_e = _PATTERN_TABLE[h_diff]
    return x_d, x_e, run_delta


def _correct_one_substitution(y: Word, target: DelSubSketches,
                              params: DelSubParams) -> list[Word]:
    sk_y = sketches(y, params)
    if sk_y == target:
        return [y]
    h_diff = signed_residue(target.h - sk_y.h, params.h_mod)
    if h_diff not in (-1, 1):
        raise EmptyListError("no single substitution explains the weight sketch")
    x_e = 1 if h_diff == 1 else 0
    f_diff = (target.f - sk_y.f) % params.f_mod  # = e(2 x_e - 1) mod f_mod
    e = f_diff if x_e == 1 else (-f_diff) % params.f_mod
    if not 1 <= e <= params.n or y.symbols[e - 1] != 1 - x_e:
        raise EmptyListError("no position matches the VT sketch")
    bits = y.symbols[:e - 1] + (x_e,) + y.symbols[e:]
    x = Word(bits, 2)
    if sketches(x, params) != target:
        raise EmptyListError("substitution candidate fails the run sketches")
    return [x]


def _candidate_bits(y_bits: tuple[int, ...], d: int, u: int,
                    p: int | None, t: int | None) -> tuple[int, ...]:
    bits = list(y_bits)
    if p is not None:
        bits[p - 1] = t
    bits.insert(d - 1, u)
    return tuple(bits)


def _scan(stats: _WordStats, params: DelSubParams, target: DelSubSketches,
          b_d: int, b_e: int | None, run_delta: int,
          ) -> list[tuple[int, int | None]]:
    """All (insert position, flip position) pairs matching the sketch tuple.

    Insert b_d before position d of y and, unless b_e is None, flip one bit to
    b_e.  The weight sketch holds by the classification, and the VT sketch
    forces the flip position.  The run count and f1r are then O(1) tests, and
    only their survivors pay for the full f2r sum; a hit matches all five
    sketches exactly.
    """
    n, m = params.n, stats.m
    ext, ranks = stats.ext, stats.ranks
    f_mod, f1r_mod, f2r_mod = params.f_mod, params.f1r_mod, params.f2r_mod
    f_want, f1r_want, f2r_want = target.f, target.f1r, target.f2r
    sign = 1 if b_e == 1 else -1
    sum1 = stats.r1[m]  # rank sum over 1..m of the word after the flip
    e1 = e2 = 0
    p, t = 0, None  # no flip: position 0 is never d, and its steps are 0
    hits = []
    # VT sum after the insertion, less the target: stats.vt + d * b_d +
    # (y_d + .. + y_m) - f_want, updated as d grows
    f_ins = stats.vt + stats.weight - f_want
    for d, a in enumerate(islice(ext, n), 1):
        f_ins += b_d - a
        if b_e is None:
            if f_ins % f_mod:
                continue
        else:
            q = -f_ins * sign % f_mod
            if not 1 <= q <= n or q == d:
                continue
            p = q - 1 if q > d else q
            if ext[p] == b_e:
                continue
            t = b_e
            e1, e2 = stats.flip_steps(p)
            sum1 = stats.r1[m] + e1 + e2 * (m - p)
            if d - 1 == p:
                a = t
        b = t if d == p else ext[d]
        c1 = b_d != a
        delta = c1 + (b != b_d) - (a != b)
        # |e2 + delta| <= 4 and run_delta is a signed residue mod 13, so the run
        # sketch holds exactly when they are equal
        if e2 + delta != run_delta:
            continue
        rank_d = ranks[d - 1] + (e2 if d - 1 > p else e1 if d - 1 == p else 0) + c1
        if (sum1 + rank_d + delta * (m - d + 1) - f1r_want) % f1r_mod:
            continue
        flip = None if b_e is None else p
        if stats.edited_sums(d, b_d, flip, t)[1] % f2r_mod == f2r_want:
            hits.append((d, flip))
    return hits


def list_decode(y: Word, target: DelSubSketches, params: DelSubParams,
                ) -> list[Word]:
    """Every word matching all five sketches that one deletion plus at most one
    substitution maps to y, sorted; at most two exist.

    A word of length n is corrected as one substitution.  For length n - 1,
    one table of y's ranks serves the whole decode: the classification reads
    the weight and run count from it, and each scan reads the rank sums of
    every candidate from it in O(1).  A scan's hits match the sketches
    exactly, so no candidate is checked again.
    """
    require_binary(y)
    n = params.n
    if len(y) == n:
        return _correct_one_substitution(y, target, params)
    if len(y) != n - 1:
        raise DecodeFailure(f"length {len(y)} incompatible with n = {n}")
    stats = _WordStats(y.symbols)
    x_d, x_e, run_delta = classify_error(target, y, params, stats)
    scans = [(x_d, x_e)]
    h_diff = x_d + 2 * x_e - 1
    if h_diff in (0, 1):
        # the same weight difference also admits a lone deletion of h_diff
        scans.append((h_diff, None))
    words = set()
    for b_d, b_e in scans:
        for d, p in _scan(stats, params, target, b_d, b_e, run_delta):
            words.add(_candidate_bits(y.symbols, d, b_d, p, b_e))
    if not words:
        raise EmptyListError("no candidate is consistent with the sketches")
    return [Word(bits, 2) for bits in sorted(words)]


def search_best_target(n: int) -> tuple[DelSubSketches, int]:
    """Largest sketch bucket over all binary words of length n (n <= 22)."""
    if n > 22:
        raise AlphabetError("exhaustive target search capped at n <= 22")
    params = DelSubParams(n)
    buckets: dict[tuple[int, ...], int] = {}
    for value in range(2 ** n):
        bits = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
        key = sketches(Word(bits, 2), params).astuple()
        buckets[key] = buckets.get(key, 0) + 1
    best_size = max(buckets.values())
    best = min(k for k, v in buckets.items() if v == best_size)
    return DelSubSketches(*best), best_size


def codewords_for_target(n: int, target: DelSubSketches) -> list[Word]:
    params = DelSubParams(n)
    return [w for w in all_words(n, 2) if sketches(w, params) == target]


INNER_CAPACITY = 96


def _reachable_one_del_one_sub(x_bits: tuple[int, ...],
                               y_bits: tuple[int, ...]) -> bool:
    """Whether one deletion plus at most one substitution maps x to y (or at
    most one substitution, when the lengths are equal)."""
    n, m = len(x_bits), len(y_bits)
    if m == n:
        return sum(map(ne, x_bits, y_bits)) <= 1
    if m != n - 1:
        return False
    # deleting x_k compares y_i with x_i for i < k and with x_{i+1} for i >= k;
    # head and tail mark the mismatches of those two alignments (0-based), and
    # head gets two sentinel mismatches at m and m + 1
    head = bytes(map(ne, x_bits, y_bits)) + b"\x01\x01"
    tail = bytes(map(ne, x_bits[1:], y_bits))
    first = head.find(1)
    second = head.find(1, first + 1)
    last = tail.rfind(1)
    before_last = tail.rfind(1, 0, max(last, 0))
    # a cut c = k - 1 leaves head[:c] and tail[c:]: at most one mismatch
    # remains for some c when the second head mismatch lies past the last tail
    # one, or the first head mismatch past the one before the last tail one
    return second > last or first > before_last


class DelSubCode:
    """Systematic encoder: message, its sketch fields, then a repetition guard
    protecting the sketch fields' own sketches at a fixed inner capacity."""

    q = 2
    model = ErrorModel.ONE_DEL_ONE_SUB
    list_bound = 2

    def __init__(self, m: int):
        if m < 1:
            raise AlphabetError("message length must be positive")
        self.m = m
        self.params = DelSubParams(m)
        self.fields = SketchFields(self.params.moduli)
        self.v_bits = self.fields.width
        if self.v_bits > INNER_CAPACITY:
            raise AlphabetError(
                f"message length {m} needs more than {INNER_CAPACITY} sketch bits")
        self.inner_params = DelSubParams(INNER_CAPACITY)
        self.inner_fields = SketchFields(self.inner_params.moduli)
        self.guard_len = REP * self.inner_fields.width
        self.redundancy = self.v_bits + self.guard_len
        self.n_total = m + self.redundancy

    def _pad(self, v_bits: tuple[int, ...], short: int = 0) -> Word:
        return Word(v_bits + (0,) * (INNER_CAPACITY - short - len(v_bits)), 2)

    def encode(self, z: Word) -> Word:
        require_binary(z)
        if len(z) != self.m:
            raise AlphabetError(f"message must have length {self.m}")
        v = self.fields.pack(sketches(z, self.params).astuple())
        t = self.inner_fields.pack(
            sketches(self._pad(v), self.inner_params).astuple())
        return Word(z.symbols + v + rep_encode(t), 2)

    def decode(self, y: Word) -> list[Word]:
        require_binary(y)
        delta = len(y) - self.n_total
        if delta not in (-1, 0):
            raise DecodeFailure(
                f"length {len(y)} incompatible with n = {self.n_total}")
        guard_at = len(y) - (self.guard_len + delta)
        t = rep_decode(y.symbols[guard_at:], self.inner_fields.width)
        inner_target = DelSubSketches(*self.inner_fields.unpack(t))
        # within the whole-tail window (the last |v| + |guard| + delta bits),
        # the first |v| + delta bits are always v under exactly -delta
        # deletions and at most one substitution
        tail_at = len(y) - (self.v_bits + self.guard_len + delta)
        v_window = y.symbols[tail_at:tail_at + self.v_bits + delta]
        d_window = self._pad(v_window, short=-delta)
        try:
            inner_hits = list_decode(d_window, inner_target, self.inner_params)
        except EmptyListError as exc:
            raise DecodeFailure("sketch fields are unrecoverable") from exc
        pad = (0,) * (INNER_CAPACITY - self.v_bits)
        guard = rep_encode(t)
        payload_window = Word(y.symbols[:self.m + delta], 2)
        # every inner hit matches inner_target exactly, so its fields v and
        # the guard t are what encode() writes for any payload z whose
        # sketches are the target v holds, and list_decode returns only such z
        codewords: dict[tuple[int, ...], tuple[Word, tuple[int, ...]]] = {}
        for hit in inner_hits:
            v = hit.symbols[:self.v_bits]
            if hit.symbols[self.v_bits:] != pad:
                continue
            try:
                target = DelSubSketches(*self.fields.unpack(v))
            except DecodeFailure:
                continue
            try:
                for z in list_decode(payload_window, target, self.params):
                    codewords[z.symbols] = z, z.symbols + v + guard
            except EmptyListError:
                continue
        out = [z for _, (z, x_bits) in sorted(codewords.items())
               if _reachable_one_del_one_sub(x_bits, y.symbols)]
        if not out:
            raise DecodeFailure("no payload candidate is consistent with y")
        return out
