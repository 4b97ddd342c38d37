"""Binary list-size-2 code for one deletion plus one substitution.

Membership pins five sketches: the VT sum mod 3n+1, two run-based sums mod
12n+1 and 16n^2+1, the weight mod 5 and the run count mod 13.  The decoder
re-expresses the corruption as "insert one bit, flip one bit", walks every
insertion position with the flip position forced by the VT sketch, and keeps
the candidates matching all five sketches.  Each candidate check is O(1) via
rank prefix sums of the received word, so a decode is O(n) overall, and the
survivors are exactly the sketch-consistent members of the error ball, which
the exhaustive oracle bounds by two.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Prefix statistics of a binary word, with O(1) rank sums after edits.

    Ranks use the sentinel convention (x_0 = 0, x_{M+1} = 1).  Queries describe
    the word obtained by flipping one position and then inserting one bit, and
    return raw (unreduced) sketch sums of the result.
    """

    def __init__(self, bits: tuple[int, ...]):
        self.bits = bits
        m = len(bits)
        self.m = m
        boundaries = [0] * (m + 2)
        ranks = [0] * (m + 2)
        prev = 0
        rank = 0
        for i in range(1, m + 1):
            b = 1 if bits[i - 1] != prev else 0
            boundaries[i] = b
            rank += b
            ranks[i] = rank
            prev = bits[i - 1]
        boundaries[m + 1] = 1 if prev != 1 else 0
        ranks[m + 1] = rank + boundaries[m + 1]
        self.ranks = ranks
        r1 = [0] * (m + 1)
        r2 = [0] * (m + 1)
        ones = [0] * (m + 1)
        for i in range(1, m + 1):
            r = ranks[i]
            r1[i] = r1[i - 1] + r
            r2[i] = r2[i - 1] + r * (r - 1)
            ones[i] = ones[i - 1] + bits[i - 1]
        self.r1 = r1
        self.r2 = r2
        self.ones = ones

    def _sigmas(self, p: int | None) -> tuple[int, int]:
        if p is None:
            return 0, 0
        # flipping position p toggles the boundaries at p and p+1
        bnd = self.ranks
        sp = 1 - 2 * (bnd[p] - bnd[p - 1])
        sq = 1 - 2 * (bnd[p + 1] - bnd[p])
        return sp, sq

    def _rank_v(self, i: int, p: int | None, sp: int, sq: int) -> int:
        r = self.ranks[i]
        if p is not None:
            if i >= p:
                r += sp
            if i >= p + 1:
                r += sq
        return r

    def _sum1_v(self, a: int, c: int, p: int | None, sp: int, sq: int) -> int:
        if a > c:
            return 0
        total = self.r1[c] - self.r1[a - 1]
        if p is not None:
            total += sp * max(0, c - max(a, p) + 1)
            total += sq * max(0, c - max(a, p + 1) + 1)
        return total

    def _sum2_v(self, a: int, c: int, p: int | None, sp: int, sq: int) -> int:
        if a > c:
            return 0
        if p is None:
            return self.r2[c] - self.r2[a - 1]
        total = 0
        zones = ((a, min(c, p - 1), 0), (max(a, p), min(c, p), sp),
                 (max(a, p + 1), c, sp + sq))
        for lo, hi, delta in zones:
            if lo > hi:
                continue
            s2 = self.r2[hi] - self.r2[lo - 1]
            s1 = self.r1[hi] - self.r1[lo - 1]
            total += s2 + 2 * delta * s1 + (delta * delta - delta) * (hi - lo + 1)
        return total

    def edited_sums(self, d: int, u: int, p: int | None, t: int | None,
                    ) -> tuple[int, int, int, int]:
        """Raw (f1r, f2r, run count, weight) of flip(p -> t) then insert u at d."""
        m = self.m
        sp, sq = self._sigmas(p)

        def bit_v(j: int) -> int:
            if j == 0:
                return 0
            if j == m + 1:
                return 1
            if p is not None and j == p:
                return t
            return self.bits[j - 1]

        c1 = 1 if u != bit_v(d - 1) else 0
        c2 = 1 if bit_v(d) != u else 0
        bv_d = self._rank_v(d, p, sp, sq) - self._rank_v(d - 1, p, sp, sq)
        delta = c1 + c2 - bv_d
        rank_d = self._rank_v(d - 1, p, sp, sq) + c1
        f1r = (self._sum1_v(1, d - 1, p, sp, sq) + rank_d
               + self._sum1_v(d, m, p, sp, sq) + delta * (m - d + 1))
        tail1 = self._sum1_v(d, m, p, sp, sq)
        tail2 = self._sum2_v(d, m, p, sp, sq)
        f2r = (self._sum2_v(1, d - 1, p, sp, sq) + rank_d * (rank_d - 1)
               + tail2 + 2 * delta * tail1
               + (delta * delta - delta) * (m - d + 1))
        runs = self._rank_v(m + 1, p, sp, sq) + 1 + delta
        weight = self.ones[m] + u + (2 * t - 1 if p is not None else 0)
        return f1r, f2r, runs, weight


def sketches(word: Word, params: DelSubParams) -> DelSubSketches:
    require_binary(word)
    stats = _WordStats(word.symbols)
    n = len(word)
    f = vt_sum(word.symbols)
    f1r = stats.r1[n]
    f2r = stats.r2[n]
    runs = stats.ranks[n + 1] + 1
    return DelSubSketches(
        f % params.f_mod, f1r % params.f1r_mod, f2r % params.f2r_mod,
        stats.ones[n] % params.h_mod, runs % params.hr_mod)


def is_codeword(word: Word, params: DelSubParams, target: DelSubSketches) -> bool:
    return len(word) == params.n and sketches(word, params) == target


def classify_error(target: DelSubSketches, y: Word, params: DelSubParams,
                   ) -> tuple[int, int, int]:
    """Deleted bit value, flipped bit value, and the run-count change."""
    if len(y) != params.n - 1:
        raise EmptyListError(f"classification needs |y| = {params.n - 1}")
    sk_y = sketches(y, DelSubParams(len(y)))
    h_diff = signed_residue(target.h - sk_y.h, params.h_mod)
    if h_diff not in _PATTERN_TABLE:
        raise EmptyListError(f"weight difference {h_diff} matches no error pattern")
    run_delta = signed_residue(target.hr - sk_y.hr, params.hr_mod)
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


def _candidate_word(y_bits: tuple[int, ...], d: int, u: int,
                    p: int | None, t: int | None) -> Word:
    bits = list(y_bits)
    if p is not None:
        bits[p - 1] = t
    bits.insert(d - 1, u)
    return Word(tuple(bits), 2)


def _scan(y_bits: tuple[int, ...], params: DelSubParams, target: DelSubSketches,
          b_d: int, b_e: int | None) -> list[tuple[int, int | None]]:
    """All (insert position, flip position) pairs matching the sketch tuple."""
    n = params.n
    m = len(y_bits)
    stats = _WordStats(y_bits)
    f_y = vt_sum(y_bits)
    total_ones = stats.ones[m]
    hits = []
    for d in range(1, n + 1):
        f_ins = f_y + d * b_d + (total_ones - stats.ones[d - 1])
        if b_e is None:
            if (f_ins - target.f) % params.f_mod:
                continue
            p = None
        else:
            q = ((target.f - f_ins) * (1 if b_e == 1 else -1)) % params.f_mod
            if not 1 <= q <= n or q == d:
                continue
            p = q - 1 if q > d else q
            if y_bits[p - 1] != 1 - b_e:
                continue
        f1r, f2r, runs, _ = stats.edited_sums(d, b_d, p, b_e)
        if (runs % params.hr_mod == target.hr
                and f1r % params.f1r_mod == target.f1r
                and f2r % params.f2r_mod == target.f2r):
            hits.append((d, p))
    return hits


def list_decode(y: Word, target: DelSubSketches, params: DelSubParams,
                ) -> list[Word]:
    """Candidates matching all five sketches that one deletion plus at most one
    substitution maps to y; at most two exist and the true codeword is among
    them."""
    require_binary(y)
    n = params.n
    if len(y) == n:
        return _correct_one_substitution(y, target, params)
    if len(y) != n - 1:
        raise DecodeFailure(f"length {len(y)} incompatible with n = {n}")
    x_d, x_e, _run_delta = classify_error(target, y, params)
    h_diff = x_d + 2 * x_e - 1
    words = {}
    for d, p in _scan(y.symbols, params, target, x_d, x_e):
        w = _candidate_word(y.symbols, d, x_d, p, x_e)
        if sketches(w, params) == target:
            words[w.symbols] = w
    if h_diff in (0, 1):
        # the same weight difference also admits a lone deletion of h_diff
        for d, _ in _scan(y.symbols, params, target, h_diff, None):
            w = _candidate_word(y.symbols, d, h_diff, None, None)
            if sketches(w, params) == target:
                words[w.symbols] = w
    out = [words[k] for k in sorted(words)]
    if not out:
        raise EmptyListError("no candidate is consistent with the sketches")
    return out


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
    n, m = len(x_bits), len(y_bits)
    if m == n:
        return sum(a != b for a, b in zip(x_bits, y_bits)) <= 1
    if m != n - 1:
        return False
    prefix = [0] * (n + 1)  # mismatches of x[1..i] vs y[1..i]
    for i in range(1, n):
        prefix[i] = prefix[i - 1] + (x_bits[i - 1] != y_bits[i - 1])
    suffix = [0] * (n + 2)  # mismatches of x[i..n] vs y[i-1..m]
    for i in range(n, 1, -1):
        suffix[i] = suffix[i + 1] + (x_bits[i - 1] != y_bits[i - 2])
    return any(prefix[d - 1] + suffix[d + 1] <= 1 for d in range(1, n + 1))


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
        candidates: dict[tuple[int, ...], Word] = {}
        for hit in inner_hits:
            if hit.symbols[self.v_bits:] != pad:
                continue
            try:
                target = DelSubSketches(*self.fields.unpack(hit.symbols))
            except DecodeFailure:
                continue
            payload_window = Word(y.symbols[:self.m + delta], 2)
            try:
                for z in list_decode(payload_window, target, self.params):
                    candidates[z.symbols] = z
            except EmptyListError:
                continue
        out = [
            candidates[k] for k in sorted(candidates)
            if _reachable_one_del_one_sub(self.encode(candidates[k]).symbols,
                                          y.symbols)
        ]
        if not out:
            raise DecodeFailure("no payload candidate is consistent with y")
        return out
