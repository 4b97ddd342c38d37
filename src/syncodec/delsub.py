"""Binary list-size-2 code for one deletion plus one substitution.

Membership pins five sketches: the VT sum mod 3n+1, two run-based sums mod
12n+1 and 16n^2+1, the weight mod 5 and the run count mod 13.  The decoder
re-expresses the corruption as "insert one bit, flip one bit" and builds one
table of the received word's run ranks and their prefix sums.  The weight and
run-count sketches classify the error from that table.  Inserting a bit
anywhere in a run of equal bits gives one word, so a scan visits one
insertion position per run, and along them the VT sum is affine with slope
+-1: a lone deletion is solved in O(1), and with a flip the VT sketch forces
the flip position.  At each position the run count and the first run sum are
O(1) tests on the table, and the survivors get the second run sum, also O(1)
from the table, as the one exact check.  A decode is O(n) overall, and its
hits are exactly the sketch-consistent members of the error ball, which the
exhaustive oracle bounds by two; one word is built per distinct word.
`DelSubCode` appends the message's sketch fields, padded to an inner length
of at least INNER_CAPACITY bits, and a repetition guard of their own sketches.
Its decode builds each candidate's codeword from the recovered fields and
guard, which are what `encode` writes, and keeps the candidates whose
codeword reaches the received word.

Each O(n) pass has two implementations, chosen by the codeword length n.
Below VECTOR_MIN_N they are Python loops over the word's bytes (`Word.raw`,
one per bit), whose fixed cost per call is a few microseconds.  From
VECTOR_MIN_N on, numpy views the same bytes as a uint8 array.  There the
five sketch sums come from the positions of the word's run boundaries and
of its 1s, so `sketches` builds no rank table; the int64 ranks are built
only where the decoder's scan reads them.  Along a flip stretch of the scan
the flip position is at most two arithmetic runs, so the stretch reads the
word and how a flip moves the ranks as slices, and tests all its
representatives at once as int8 masks; only their survivors get int64 sums,
read from the ranks and their prefix sums, one `prefix_scan` each.  Both
give the same results, exceptions included.  The int64 sums are exact up to
VECTOR_MAX_N, and longer codewords and messages are refused.
`DelSubCode.decode`'s reachability check sums nothing; it is
`words.reaches`, which serves every codec and length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, count, islice, product
from operator import mul, ne, not_

import numpy as np

from .errors import AlphabetError, DecodeFailure, NoCandidateError, SizeGuardError
from .inner import REP, SketchFields, rep_decode, rep_encode
from .sketches import prefix_scan, signed_residue, weighted_vt_sum
from .words import SYMBOL_BYTES, ErrorModel, Word, reaches, require_binary

# h(x) - h(y) determines the deleted and the flipped bit values
_PATTERN_TABLE = {-1: (0, 0), 1: (0, 1), 0: (1, 0), 2: (1, 1)}

_VALID_RUN_DELTAS = {-2, 0, 2, 4}

# Codeword lengths from which the numpy passes run: a numpy call costs about a
# microsecond, so short words stay on the Python loops.  timeit in us, Python
# loop / numpy, best of 7, paths interleaved, mean of four seeded words,
# 2-core x86_64 under shared load, Python 3.11, numpy 2.4; sketches cross
# near n = 96 (its sums come from positions; the row is a later measurement
# than the others) and list_decode last, near 384, so from 320 to 384
# numpy's list_decode costs up to about 10% more than the loops:
#   n                      96     128     192     256     320     384     512
#   list_decode, del+sub  52/149  72/163  93/156 110/157 181/197 182/180 226/164
#   list_decode, del      64/175  79/181 103/172 132/171 187/209 219/187 281/205
#   sketches              14/13   16/13   23/12   30/12   37/13   44/13   60/13
VECTOR_MIN_N = 320
# The largest n with (n + 2)^3 < 2^63: the int64 rank sums (at most n^3 / 3)
# and VT sums (at most n^2) of a word of length n, and of its edits, are
# exact, and so is the sum (2k - 1) s_k <= K^2 (m + 1) <= (m + 1)^3 over the
# K run boundaries s_k of a word of length m <= n, so sketches and
# list_decode refuse longer codewords.
VECTOR_MAX_N = 2 ** 21 - 3
# the longest words search_best_target and codewords_for_target enumerate
EXHAUSTIVE_MAX_N = 22


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
    This class holds the tables as Python lists, for codeword lengths below
    VECTOR_MIN_N; `_WordArrays` answers the same queries from numpy arrays
    for longer words.
    """

    def __init__(self, bits: bytes):
        m = len(bits)
        self.m = m
        self.bits = bits
        self.ext = ext = b"\x00" + bits + b"\x01"  # y_0 .. y_{m+1} with the sentinels
        # ranks r_0 .. r_{m+1}: r_i counts the boundaries y_{j-1} != y_j, j <= i
        ranks = list(accumulate(map(ne, bits, ext), initial=0))
        ranks.append(ranks[-1] + (0 if bits and bits[-1] else 1))
        self.ranks = ranks
        self.r1 = list(accumulate(islice(ranks, m + 1)))  # sum of r_j, j <= i
        self.f1r = self.r1[m]
        self.squares = sum(map(mul, islice(ranks, m + 1), ranks))  # r_j^2, j <= m
        self.weight = bits.count(1)
        self.vt = sum(compress(range(1, m + 1), bits))  # positions of the 1s
        self.runs = ranks[m + 1] + 1

    def reps(self, u: int) -> list[int]:
        """One insertion position per word that inserting u can give: d = 1
        and every d with y_{d-1} != u.  Inserting u anywhere in a run of u's
        gives one word, so d stands for itself and every position after it
        up to the next one."""
        marks = self.bits if u == 0 else map(not_, self.bits)
        return [1, *compress(range(2, self.m + 2), marks)]

    def rep(self, u: int, k: int) -> int:
        """reps(u)[k]."""
        return self.reps(u)[k]

    def edited_sums(self, d: int, u: int, p: int | None, t: int | None,
                    ) -> tuple[int, int, int, int]:
        """Raw (f1r, f2r, run count, weight) of flip(p -> t) then insert u at d."""
        m, ext, ranks, r1, r1m = self.m, self.ext, self.ranks, self.r1, self.f1r
        if p is None:
            e1 = e2 = 0
            p = m  # no flip: every zone below is empty or moves by 0
            a, b = ext[d - 1], ext[d]
            weight = self.weight + u
        else:
            e1 = 1 - 2 * (ranks[p] - ranks[p - 1])
            e2 = 2 - 2 * (ranks[p + 1] - ranks[p - 1])
            a = t if d - 1 == p else ext[d - 1]
            b = t if d == p else ext[d]
            weight = self.weight + u + 2 * t - 1
        # ranks of the flipped word, summed over 1..m, and their squares
        sum1 = r1m + e1 + e2 * (m - p)
        sum2 = (self.squares + 2 * e1 * ranks[p] + e1 * e1
                + 2 * e2 * (r1m - r1[p]) + e2 * e2 * (m - p))
        # the inserted bit takes rank r(d-1) + c1; the m - d + 1 bits after it
        # move by delta; tail is their flipped-word rank sum
        c1 = u != a
        delta = c1 + (b != u) - (a != b)
        rank_d = ranks[d - 1] + (e2 if d - 1 > p else e1 if d - 1 == p else 0) + c1
        after = m - d + 1
        tail = (r1m - r1[d - 1] + (e1 if d <= p else 0)
                + e2 * (m - max(d - 1, p)))
        f1r = sum1 + rank_d + delta * after
        squares = sum2 + rank_d * rank_d + 2 * delta * tail + delta * delta * after
        runs = ranks[m + 1] + e2 + delta + 1
        return f1r, squares - f1r, runs, weight

    def stretch_hits(self, reps: list[int], lo: int, hi: int, q: int,
                     slope: int, b_d: int, b_e: int, run_delta: int,
                     params: DelSubParams, target: DelSubSketches,
                     ) -> list[tuple[int, int]]:
        """The (insert position, flip position) hits among reps[lo:hi] of a
        flip stretch of `_scan`, whose flip position in the word is q at
        reps[lo] and moves by slope per representative, in order."""
        n, m, ext, ranks, r1m = params.n, self.m, self.ext, self.ranks, self.f1r
        f1r_mod, f2r_mod = params.f1r_mod, params.f2r_mod
        f1r_want, f2r_want = target.f1r, target.f2r
        hits = []
        for rep, q in zip(islice(reps, lo, hi), count(q, slope)):
            d = rep
            if q == d:
                # q is the inserted bit itself: the run's next position,
                # if it has one, gives the word of this representative
                d += 1
                if d > n or ext[rep] != b_d:
                    continue
            p = q - 1 if q > d else q
            if ext[p] == b_e:
                continue
            a = b_e if p == d - 1 else ext[d - 1]
            b = b_e if p == d else ext[d]
            c1 = b_d != a
            delta = c1 + (b != b_d) - (a != b)
            e2 = 2 - 2 * (ranks[p + 1] - ranks[p - 1])
            # |e2 + delta| <= 4 and run_delta is a signed residue mod 13,
            # so the run sketch holds exactly when they are equal
            if e2 + delta != run_delta:
                continue
            e1 = 1 - 2 * (ranks[p] - ranks[p - 1])
            rank_d = ranks[d - 1] + c1 + (
                e2 if d - 1 > p else e1 if d - 1 == p else 0)
            if (r1m + e1 + e2 * (m - p) + rank_d + delta * (m - d + 1)
                    - f1r_want) % f1r_mod:
                continue
            if self.edited_sums(d, b_d, p, b_e)[1] % f2r_mod == f2r_want:
                hits.append((d, p))
        return hits


class _WordArrays(_WordStats):
    """The rank tables of `_WordStats` as numpy arrays, for codeword lengths
    from VECTOR_MIN_N on, built from one byte per bit: `bounds` is the int8
    boundary mask, bounds[i] = r_i - r_{i-1} for i = 1 .. m + 1 and 0 at 0
    and m + 2.  The five sums that `sketches` reads come from the positions
    of its boundaries (f1r, the sum of the squared ranks and the run count)
    and of the word's 1s (`ones`: the weight and the VT sum), with no rank
    table.  The ranks, the cumulative sum of `bounds`, and their prefix
    sums `r1` are each one `prefix_scan`, built on first read, which only
    the decoder's scan makes.  `ext` stays `bytes`,
    whose items are Python ints, and `array` is its uint8 view.  A flip
    stretch of the scan is tested as int8 masks over slices of these
    arrays, and only its survivors pay for int64 sums."""

    def __init__(self, bits: bytes):
        m = len(bits)
        self.m = m
        self.ext = ext = b"\x00" + bits + b"\x01"
        self.array = array = np.frombuffer(ext, dtype=np.uint8)
        # np.empty, not np.zeros: calloc's zeroed pages cost more than the
        # passes that overwrite them
        self.bounds = bounds = np.empty(m + 3, dtype=np.int8)
        bounds[0] = bounds[m + 2] = 0
        np.not_equal(array[1:], array[:-1], out=bounds[1:m + 2].view(bool))
        # the boundaries s_1 < .. < s_K up to m, with r_i = #{k : s_k <= i}:
        # the r_i, i <= m, sum to K (m + 1) - sum s_k and their squares to
        # K^2 (m + 1) - sum (2k - 1) s_k.  nonzero of a bool view, not
        # flatnonzero, which tests the int8 bytes several times slower
        starts = bounds[:m + 1].view(bool).nonzero()[0]
        k = len(starts)
        self.f1r = k * (m + 1) - int(starts.sum())
        self.squares = k * k * (m + 1) - int(starts.dot(np.arange(1, 2 * k, 2)))
        self.runs = k + int(bounds[m + 1]) + 1
        # y_i = 1 exactly at i = ones + 1
        self.ones = ones = array[1:m + 1].view(bool).nonzero()[0]
        self.weight = len(ones)
        self.vt = int(ones.sum()) + self.weight

    @cached_property
    def ranks(self) -> np.ndarray:
        """The ranks r_0 .. r_{m+1}, the cumulative sum of `bounds` in int64
        (bounds[0] = 0), as `prefix_scan`'s reversed view: only the
        decoder's scan reads them."""
        return prefix_scan(np.add, self.bounds[:self.m + 2], np.int64)

    @cached_property
    def r1(self) -> np.ndarray:
        """r1[i] = r_0 + .. + r_i, i = 0 .. m, in int64, for `edited_sums`."""
        return prefix_scan(np.add, self.ranks[:self.m + 1])

    @cached_property
    def flip_moves(self) -> tuple[np.ndarray, np.ndarray]:
        """How a flip at p = 0 .. m + 1 moves the ranks, as int8 arrays:
        by e1 = 1 - 2 (r_p - r_{p-1}) at p and e2 = 2 - 2 (r_{p+1} - r_{p-1})
        after it."""
        bounds = self.bounds
        return 1 - 2 * bounds[:-1], 2 - 2 * (bounds[:-1] + bounds[1:])

    def reps(self, u: int) -> np.ndarray:
        """`_WordStats.reps` as an int64 array; for u = 0, 1 and the d just
        past each 1."""
        if u == 0:
            return np.concatenate(([1], self.ones + 2))
        marks = np.empty(self.m + 2, dtype=bool)  # marks[d]: y_{d-1} != u
        marks[0] = False
        np.not_equal(self.array[:self.m + 1], u, out=marks[1:])
        marks[1] = True
        return marks.nonzero()[0]

    def rep(self, u: int, k: int) -> int:
        if u == 0:  # reps(0)[k], read from the 1s without building the list
            return 1 if k == 0 else int(self.ones[k - 1]) + 2
        return int(self.reps(u)[k])

    def edited_sums(self, d: int, u: int, p: int | None, t: int | None,
                    ) -> tuple[int, int, int, int]:
        # the int64 arithmetic on the tables is exact up to VECTOR_MAX_N
        return tuple(map(int, super().edited_sums(d, u, p, t)))

    def stretch_hits(self, reps: np.ndarray, lo: int, hi: int, q: int,
                     slope: int, b_d: int, b_e: int, run_delta: int,
                     params: DelSubParams, target: DelSubSketches,
                     ) -> list[tuple[int, int]]:
        """`_WordStats.stretch_hits` in array passes.

        q moves by +-1 per representative while the representatives strictly
        increase, so g = rep - q never decreases along the stretch, and one
        binary search cuts it into blocks by g.  The flip position
        p = q - [g < 0] is two arithmetic runs of slope `slope`, so the bit
        at p and the flip's moves e1 and e2 are slices.  Outside the crossing
        block, where g is -1, 0 or 1, the flip and the insertion are apart:
        d = rep, and the bits around the inserted one are y_{d-1} = 1 - b_d
        (y_0 = 0 at rep = 1) and y_rep, one gather.  The crossing block, as
        long as a run of 1 - b_d bits can make it, is patched by slices, and
        the bit, q = rep and run-count tests are int8 masks over the whole
        stretch.  Their survivors get f1r in int64; the few that pass it get
        the exact f2r from `edited_sums`.
        """
        n, m, ext, ranks = params.n, self.m, self.array, self.ranks
        rep = reps[lo:hi]
        size = hi - lo
        # the first k with g >= -1, 0, 1 and 2: g = -1 on [cross, split),
        # 0 (q = rep, so d = rep + 1) on [split, shift), 1 on [shift, end)
        steps = np.arange(0, -slope * size, -slope)
        cross, split, shift, end = np.searchsorted(
            np.add(rep, steps, out=steps), [q - 1, q, q + 1, q + 2]).tolist()

        def along(values: np.ndarray) -> np.ndarray:
            """values[p] along the stretch: p = q - 1 before split, q after."""
            rest = values[q + slope * split::slope]
            return np.concatenate((values[q - 1::slope][:split],
                                   rest[:size - split]))

        keep = along(ext) != b_e
        e1, e2 = map(along, self.flip_moves)
        # c1 = [a != b_d] and nb = [b != b_d] for the bits a and b around
        # the inserted one: a = y_{d-1} = 1 - b_d (y_0 = 0 at rep = 1) and
        # b = y_rep, except in the crossing block
        c1 = np.ones(size, dtype=np.int8)
        if lo == 0:
            c1[0] = b_d
        nb = ext[rep] != b_d
        if cross < end:
            c1[split:end] = b_e != b_d  # a = b_e where p = d - 1
            nb[cross:split] = b_e != b_d  # b = b_e where p = d
            if split < shift:
                # q is the inserted bit itself: the run's next position, if
                # it has one, gives the word of this representative
                moved = rep[split:shift]
                keep[split:shift] &= (moved < n) & ~nb[split:shift]
                nb[split:shift] = ext.take(moved + 1, mode="clip") != b_d
        # delta = c1 + [b != b_d] - [a != b] is 2 when a = b != b_d, else 0
        delta = c1 & nb.view(np.int8)
        delta += delta
        # |e2 + delta| <= 4 and run_delta is a signed residue mod 13, so the
        # run sketch holds exactly when they are equal
        keep &= e2 + delta == run_delta
        # lift = e1 + rank_d - r_{d-1}: rank_d adds c1, and the flip moves
        # r_{d-1} by e1 where p = d - 1 and by e2 where p < d - 1
        lift = e1 + c1
        lift[split:end] += e1[split:end]
        lift[end:] += e2[end:]
        at = keep.nonzero()[0]
        before, after = np.searchsorted(at, (split, shift)).tolist()
        d = rep[at]
        d[before:after] += 1
        p = at + q if slope == 1 else q - at
        p[:before] -= 1
        # f1r less the word's own, f1r(y): it lies within 5m + 2 of 0, less
        # than f1r_mod / 2, so the sketch holds exactly when it equals the
        # signed residue
        f1r_diff = (lift[at] + ranks[d - 1] + e2[at] * (m - p)
                    + delta[at] * (m + 1 - d))
        want = signed_residue(target.f1r - self.f1r, params.f1r_mod)
        at = (f1r_diff == want).nonzero()[0]
        if not len(at):
            return []
        d, p = d[at], p[at]
        # the exact f2r of the few left
        return [(d, p) for d, p in zip(d.tolist(), p.tolist())
                if self.edited_sums(d, b_d, p, b_e)[1] % params.f2r_mod
                == target.f2r]


def _table_class(n: int) -> type[_WordStats]:
    """The rank-table class for codeword length n, refusing n past the
    int64 bound: the one place that chooses the path."""
    if n > VECTOR_MAX_N:
        raise SizeGuardError(f"delsub's int64 sums need n <= {VECTOR_MAX_N}")
    return _WordArrays if n >= VECTOR_MIN_N else _WordStats


def sketches(word: Word, params: DelSubParams) -> DelSubSketches:
    require_binary(word)
    bits = word.raw
    # the Python loop and the length test are inline: at desk scale a sketch
    # takes a few microseconds, and every call on the way counts
    if len(bits) >= VECTOR_MIN_N:
        t = _table_class(len(bits))(bits)
        f, f1r, squares, weight, runs = t.vt, t.f1r, t.squares, t.weight, t.runs
    else:
        f = weight = f1r = squares = rank = prev = 0
        for i, b in enumerate(bits, 1):
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
        raise NoCandidateError(f"classification needs |y| = {params.n - 1}")
    if stats is None:
        stats = _table_class(params.n)(y.raw)
    h_diff = signed_residue(target.h - stats.weight, params.h_mod)
    if h_diff not in _PATTERN_TABLE:
        raise NoCandidateError(f"weight difference {h_diff} matches no error pattern")
    run_delta = signed_residue(target.hr - stats.runs, params.hr_mod)
    if run_delta not in _VALID_RUN_DELTAS:
        raise NoCandidateError(f"run-count difference {run_delta} matches no pattern")
    x_d, x_e = _PATTERN_TABLE[h_diff]
    return x_d, x_e, run_delta


def _correct_one_substitution(y: Word, target: DelSubSketches,
                              params: DelSubParams) -> list[Word]:
    """y itself, or the one word that flipping a bit of y gives.  The weight
    and VT sums of y are C-level sums, so one sketch pass, over y or over
    the corrected word, decides."""
    bits = y.raw
    array = np.frombuffer(bits, dtype=np.uint8)
    h_diff = signed_residue(target.h - np.count_nonzero(array), params.h_mod)
    if h_diff == 0 and sketches(y, params) == target:
        return [y]
    if h_diff not in (-1, 1):
        raise NoCandidateError("no single substitution explains the weight sketch")
    x_e = 1 if h_diff == 1 else 0
    vt = weighted_vt_sum(array)
    f_diff = (target.f - vt) % params.f_mod  # = e(2 x_e - 1) mod f_mod
    e = f_diff if x_e == 1 else (-f_diff) % params.f_mod
    if not 1 <= e <= params.n or bits[e - 1] != 1 - x_e:
        raise NoCandidateError("no position matches the VT sketch")
    x = Word(bits[:e - 1] + SYMBOL_BYTES[x_e] + bits[e:])
    if sketches(x, params) != target:
        raise NoCandidateError("substitution candidate fails the run sketches")
    return [x]


def _candidate_bits(y_bits: bytes, d: int, u: int,
                    p: int | None, t: int | None) -> bytes:
    """y with y_p flipped to t, unless p is None, then u inserted before y_d."""
    if p is not None:
        y_bits = y_bits[:p - 1] + SYMBOL_BYTES[t] + y_bits[p:]
    return y_bits[:d - 1] + SYMBOL_BYTES[u] + y_bits[d - 1:]


def _scan(stats: _WordStats, params: DelSubParams, target: DelSubSketches,
          b_d: int, b_e: int | None, run_delta: int,
          ) -> list[tuple[int, int | None]]:
    """The (insert position, flip position) pairs matching the sketch tuple,
    one for all the insertion positions in a run that give the same word.

    Insert b_d before position d of y and, unless b_e is None, flip one bit to
    b_e.  The weight sketch holds by the classification.  Inserting b_d
    anywhere in a run of b_d's gives one word, so the scan visits one
    representative per run (`_WordStats.reps`), and at the k-th one the VT
    sum after the insertion is affine in k with slope +-1.  Without a flip at
    most one k matches the VT sketch, found in O(1).  With a flip the VT
    sketch forces the flip's position q in the word after the insertion, also
    affine in k, and the k with 1 <= q <= n form at most two stretches.  At
    each of their representatives `stretch_hits` runs the bit and run-count
    tests and f1r, O(1) on the table (on a `_WordArrays`, as int8 masks over
    slices of the stretch, then int64 sums for their survivors), and only
    the survivors of f1r pay for the exact f2r sum; a hit matches all five
    sketches exactly.  A hit inserts at its representative, or at the run's
    next position when the flip falls on the representative itself.
    Distinct hits have distinct q: q is affine in the representative's
    index, and the two stretches lie f_mod > len(reps) apart.
    """
    f_mod = params.f_mod
    # the VT sum after inserting b_d at the k-th representative, less the
    # target: inserting within a run of b_d's moves no 1, and each later
    # representative lies past one more bit 1 - b_d
    f0 = stats.vt + stats.weight + b_d - target.f
    step = 2 * b_d - 1
    hits = []  # (d, p or None)
    if b_e is None:
        k = -f0 * step % f_mod
        if k <= (stats.weight if b_d == 0 else stats.m - stats.weight):
            d = stats.rep(b_d, k)
            f1r, f2r, runs, _ = stats.edited_sums(d, b_d, None, None)
            if (runs - stats.runs == run_delta
                    and f1r % params.f1r_mod == target.f1r
                    and f2r % params.f2r_mod == target.f2r):
                hits.append((d, None))
    else:
        n, reps = params.n, stats.reps(b_d)
        # q = -(f0 + step * k) * sign mod f_mod moves by slope per k; from
        # the k where q = q_first, the next n values of k keep 1 <= q <= n
        sign = 2 * b_e - 1
        slope = -step * sign
        q_first = 1 if slope == 1 else n
        first = (q_first + f0 * sign) * slope % f_mod
        for start in (first - f_mod, first):
            lo, hi = max(start, 0), min(start + n, len(reps))
            if lo < hi:
                hits += stats.stretch_hits(
                    reps, lo, hi, q_first + slope * (lo - start), slope, b_d,
                    b_e, run_delta, params, target)
    return hits


def list_decode(y: Word, target: DelSubSketches, params: DelSubParams,
                ) -> list[Word]:
    """Every word matching all five sketches that one deletion plus at most one
    substitution maps to y, sorted; at most two exist.

    A word of length n is corrected as one substitution.  For length n - 1,
    one table of y's ranks serves the whole decode: the classification reads
    the weight and run count from it, and each scan reads the rank sums of
    every candidate from it in O(1).  A scan's hits match the sketches
    exactly, so no candidate is checked again, and one word is built per
    distinct word: a scan gives one pair per run of equivalent insertion
    positions, and a few hits describe a word another hit describes too.
    """
    require_binary(y)
    n = params.n
    tables = _table_class(n)
    if len(y) == n:
        return _correct_one_substitution(y, target, params)
    if len(y) != n - 1:
        raise DecodeFailure(f"length {len(y)} incompatible with n = {n}")
    stats = tables(y.raw)
    x_d, x_e, run_delta = classify_error(target, y, params, stats)
    scans = [(x_d, x_e)]
    h_diff = x_d + 2 * x_e - 1
    if h_diff in (0, 1):
        # the same weight difference also admits a lone deletion of h_diff
        scans.append((h_diff, None))
    ranks = stats.ranks
    words = []
    for b_d, b_e in scans:
        for d, p in _scan(stats, params, target, b_d, b_e, run_delta):
            # a flip that only a run of y separates from the insertion: for
            # b_d != b_e the word is y with b_e inserted, which the lone
            # deletion scan finds; for b_d == b_e the same word has the flip
            # on the insertion's right as well, and is built from that hit
            if p is not None and ranks[p] == ranks[d if p >= d else d - 1] \
                    and (b_d != b_e or p < d):
                continue
            words.append(_candidate_bits(y.raw, d, b_d, p, b_e))
    if not words:
        raise NoCandidateError("no candidate is consistent with the sketches")
    return [Word(bits) for bits in sorted(words)]


def _sketch_classes(n: int):
    """Every binary word of length n (0 <= n <= EXHAUSTIVE_MAX_N) with its
    sketches, in lexicographic order: the one enumeration behind
    `largest_class` and `codewords_for_target`."""
    if n < 0:
        raise AlphabetError("word length must not be negative")
    if n > EXHAUSTIVE_MAX_N:
        raise SizeGuardError(
            f"exhaustive sketch search needs n <= {EXHAUSTIVE_MAX_N}")
    params = DelSubParams(n)
    for bits in product((0, 1), repeat=n):
        word = Word(bits)
        yield word, sketches(word, params)


def largest_class(n: int) -> tuple[DelSubSketches, list[Word]]:
    """The largest sketch bucket over all binary words of length n, ties to
    the smallest tuple, and the bucket's words, from one enumeration."""
    ids: dict[tuple, int] = {}  # sketch tuple -> its bucket's number
    labels = np.fromiter((ids.setdefault(sk.astuple(), len(ids))
                          for _, sk in _sketch_classes(n)), dtype=np.int64)
    counts = np.bincount(labels).tolist()
    size = max(counts)
    best = min(k for k, i in ids.items() if counts[i] == size)
    return DelSubSketches(*best), [
        Word(bytes((i >> (n - 1 - j)) & 1 for j in range(n)))
        for i in np.flatnonzero(labels == ids[best]).tolist()]


def search_best_target(n: int) -> tuple[DelSubSketches, int]:
    """Largest sketch bucket over all binary words of length n, and its size."""
    target, members = largest_class(n)
    return target, len(members)


def codewords_for_target(n: int, target: DelSubSketches) -> list[Word]:
    return [w for w, sk in _sketch_classes(n) if sk == target]


# the shortest inner length; the fields of every m <= 741,455 fit in it
INNER_CAPACITY = 96


class DelSubCode:
    """Systematic encoder: message, its sketch fields, then a repetition guard
    of the fields' own sketches at an inner length of at least `INNER_CAPACITY`."""

    q = 2
    model = ErrorModel.ONE_DEL_ONE_SUB
    list_bound = 2

    def __init__(self, m: int):
        if type(m) is not int:
            raise AlphabetError(f"message length must be an int, got {m!r}")
        if m < 1:
            raise AlphabetError("message length must be positive")
        _table_class(m)  # the payload's list_decode refuses m past VECTOR_MAX_N
        self.m = m
        self.params = DelSubParams(m)
        self.fields = SketchFields(self.params.moduli)
        self.v_bits = self.fields.width
        inner_n = max(INNER_CAPACITY, self.v_bits)
        self.pad = bytes(inner_n - self.v_bits)
        self.inner_params = DelSubParams(inner_n)
        self.inner_fields = SketchFields(self.inner_params.moduli)
        self.redundancy = self.v_bits + REP * self.inner_fields.width
        self.n_total = m + self.redundancy

    def encode(self, z: Word) -> Word:
        require_binary(z)
        if len(z) != self.m:
            raise AlphabetError(f"message must have length {self.m}")
        v = self.fields.pack(sketches(z, self.params).astuple())
        t = self.inner_fields.pack(
            sketches(Word(v + self.pad), self.inner_params).astuple())
        return Word(z.raw + v + rep_encode(t), 2)

    def decode(self, y: Word) -> list[Word]:
        require_binary(y)
        delta = len(y) - self.n_total
        if delta not in (-1, 0):
            raise DecodeFailure(
                f"length {len(y)} incompatible with n = {self.n_total}")
        raw, m, v_bits = y.raw, self.m, self.v_bits
        # len(y) = n_total + delta: the guard window, the last |guard| + delta
        # bits, starts at m + |v| whatever the edit, and the tail at m.  Under
        # exactly -delta deletions and at most one substitution, the tail's
        # first |v| + delta bits are always v.
        t = rep_decode(raw[m + v_bits:], self.inner_fields.width)
        inner_target = DelSubSketches(*self.inner_fields.unpack(t))
        d_window = Word(raw[m:m + v_bits + delta] + self.pad)
        try:
            inner_hits = list_decode(d_window, inner_target, self.inner_params)
        except DecodeFailure as exc:
            raise DecodeFailure("sketch fields are unrecoverable") from exc
        guard = rep_encode(t)
        # every inner hit matches inner_target exactly, so its fields v and
        # the guard t are what encode() writes for any payload z whose
        # sketches are the target v holds, and list_decode of the payload
        # window (y's first m + delta bits) returns only such z; each z's
        # codeword is built, checked against y and dropped.
        # Distinct hits that pass the pad test hold distinct fields, so their
        # lists share no z.
        out = []
        for hit in inner_hits:
            v = hit.raw[:v_bits]
            if hit.raw[v_bits:] != self.pad:
                continue
            try:
                target = DelSubSketches(*self.fields.unpack(v))
                zs = list_decode(Word(raw[:m + delta]), target, self.params)
            except DecodeFailure:
                continue
            out += [z for z in zs
                    if reaches(z.raw + v + guard, raw, ErrorModel.ONE_DEL_ONE_SUB)]
        if not out:
            raise DecodeFailure("no payload candidate is consistent with y")
        return sorted(out, key=lambda z: z.raw)
