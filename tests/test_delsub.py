import hashlib
import itertools
import random
from operator import ne

import numpy as np
import pytest

from conftest import binary_words
import syncodec.delsub as delsub_module
from syncodec.delsub import (
    EXHAUSTIVE_MAX_N,
    INNER_CAPACITY,
    VECTOR_MAX_N,
    VECTOR_MIN_N,
    DelSubCode,
    DelSubParams,
    DelSubSketches,
    _WordArrays,
    _WordStats,
    classify_error,
    codewords_for_target,
    is_codeword,
    largest_class,
    list_decode,
    search_best_target,
    sketches,
)
from syncodec.errors import (
    AlphabetError,
    DecodeFailure,
    NoCandidateError,
    SizeGuardError,
    SyncodecError,
)
from syncodec.sketches import signed_residue, vt_sum
from syncodec.words import (
    DelAndSub,
    Deletion,
    ErrorModel,
    Substitution,
    Word,
    apply,
    error_ball,
    forward_images,
    reaches,
    run_count,
    run_string,
)


def test_params_moduli():
    p = DelSubParams(10)
    assert p.moduli == (31, 121, 1601, 5, 13)


def test_sketches_of_all_zero_word():
    n = 8
    params = DelSubParams(n)
    sk = sketches(Word((0,) * n, 2), params)
    # the run count uses the 0...0|1 sentinel padding, hence 2
    assert sk.astuple() == (0, 0, 0, 0, 2)
    assert is_codeword(Word((0,) * n, 2), params, sk)


def test_single_bit_flip_always_leaves_the_code():
    n = 9
    params = DelSubParams(n)
    rng = random.Random(2)
    for _ in range(50):
        x = Word(tuple(rng.randrange(2) for _ in range(n)), 2)
        sk = sketches(x, params)
        for e in range(1, n + 1):
            y = apply(x, Substitution(e, 1 - x.symbols[e - 1]))
            assert sketches(y, params).h != sk.h


def test_classification_table():
    n = 8
    params = DelSubParams(n)
    rng = random.Random(4)
    for _ in range(300):
        x = Word(tuple(rng.randrange(2) for _ in range(n)), 2)
        target = sketches(x, params)
        d = rng.randrange(1, n + 1)
        e = rng.randrange(1, n + 1)
        y = apply(x, Deletion(d)) if d == e else apply(x, DelAndSub(d, e))
        x_d, x_e, run_delta = classify_error(target, y, params)
        if d != e:
            assert (x_d, x_e) == (x.symbols[d - 1], x.symbols[e - 1])
        assert run_delta in (-2, 0, 2, 4)
        assert run_delta == run_count(x) - run_count(y)


def test_vt_difference_identity():
    """f(x) - f(y) decomposes exactly over the deleted bit, the surviving
    suffix weight, and the flip, with no modular wrap."""
    for n in range(2, 10):
        for x in binary_words(n):
            fx = sum(i * b for i, b in enumerate(x.symbols, start=1))
            for d in range(1, n + 1):
                for e in range(1, n + 1):
                    if d == e:
                        continue
                    y = apply(x, DelAndSub(d, e))
                    fy = sum(i * b for i, b in enumerate(y.symbols, start=1))
                    rhs = d * x.symbols[d - 1] + sum(y.symbols[d - 1:]) \
                        + e * (2 * x.symbols[e - 1] - 1)
                    assert fx - fy == rhs


def test_edited_sums_match_brute_force():
    rng = random.Random(1)
    for _ in range(1500):
        m = rng.randrange(0, 14)
        bits = bytes(rng.randrange(2) for _ in range(m))
        stats = _WordStats(bits)
        d = rng.randrange(1, m + 2)
        u = rng.randrange(2)
        if m and rng.random() < 0.7:
            p = rng.randrange(1, m + 1)
            t = 1 - bits[p - 1]
        else:
            p = t = None
        built = list(bits)
        if p is not None:
            built[p - 1] = t
        built.insert(d - 1, u)
        assert stats.edited_sums(d, u, p, t) == _raw_sums(built)


def _raw_sums(bits):
    """(f1r, f2r, run count, weight) of a bit list, unreduced, from the rank
    sequence itself."""
    word = Word(tuple(bits), 2)
    ranks = run_string(word)[:-1]
    return (sum(ranks), sum(r * (r - 1) for r in ranks), run_count(word),
            sum(bits))


def test_edited_sums_match_brute_force_exhaustively():
    """Every word of length m <= 8, every flip (or none), every inserted bit
    and every insertion position."""
    for m in range(9):
        for bits in itertools.product((0, 1), repeat=m):
            stats = _WordStats(bytes(bits))
            for p in [None, *range(1, m + 1)]:
                flipped = list(bits)
                t = None
                if p is not None:
                    t = 1 - bits[p - 1]
                    flipped[p - 1] = t
                for d in range(1, m + 2):
                    for u in (0, 1):
                        built = flipped[:d - 1] + [u] + flipped[d - 1:]
                        assert stats.edited_sums(d, u, p, t) == _raw_sums(built)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_list_decode_total_and_bounded(n):
    params = DelSubParams(n)
    for x in binary_words(n):
        target = sketches(x, params)
        for d in range(1, n + 1):
            for e in range(1, n + 1):
                y = apply(x, Deletion(d)) if d == e else apply(x, DelAndSub(d, e))
                out = list_decode(y, target, params)
                assert x in out
                assert len(out) <= 2
        assert list_decode(x, target, params) == [x]
        for e in range(1, n + 1):
            y = apply(x, Substitution(e, 1 - x.symbols[e - 1]))
            out = list_decode(y, target, params)
            assert x in out and len(out) <= 2


def test_list_decode_returns_exactly_the_ball_intersection():
    """The decoded list equals {x : sketches match, y reachable from x}."""
    from syncodec.words import ErrorModel, forward_images

    n = 7
    params = DelSubParams(n)
    by_class = {}
    for x in binary_words(n):
        by_class.setdefault(sketches(x, params).astuple(), []).append(x)
    for members in by_class.values():
        target = sketches(members[0], params)
        ys = set()
        for x in members:
            ys |= {y.symbols
                   for y in forward_images(x, ErrorModel.ONE_DEL_ONE_SUB)}
        for y_sym in ys:
            y = Word(y_sym, 2)
            expected = {
                x.symbols for x in members
                if y in forward_images(x, ErrorModel.ONE_DEL_ONE_SUB)}
            try:
                got = {w.symbols for w in list_decode(y, target, params)}
            except NoCandidateError:
                got = set()
            assert got == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_list_decode_is_the_sketch_consistent_ball_for_every_word(n):
    """For every y of length n - 1 or n, list_decode(y) returns exactly the
    words of a sketch class whose one-deletion-one-substitution ball holds y,
    sorted, for every class that has one.  Up to n = 7 every other class is
    tried too, and must raise NoCandidateError."""
    params = DelSubParams(n)
    sources = {}  # y -> target -> sorted words of that class reaching y
    for x in binary_words(n):
        target = sketches(x, params)
        for y in forward_images(x, ErrorModel.ONE_DEL_ONE_SUB):
            sources.setdefault(y.symbols, {}).setdefault(target, []).append(x)
    targets = {t for by_target in sources.values() for t in by_target}
    for y in itertools.chain(binary_words(n - 1), binary_words(n)):
        expected = sources.get(y.symbols, {})
        for target in targets if n <= 7 else expected:
            if target in expected:
                assert list_decode(y, target, params) == expected[target]
            else:
                with pytest.raises(NoCandidateError):
                    list_decode(y, target, params)


def _reference_scan(y, target, params, b_d, b_e):
    """_scan as it was before the one-table scan: the full edited_sums filter
    at every VT-forced position, then each candidate's full sketches checked
    again."""
    n = params.n
    y_bits = y.symbols
    stats = _WordStats(y.raw)
    ones = list(itertools.accumulate(y_bits, initial=0))
    f_y = vt_sum(y_bits)
    hits = []
    for d in range(1, n + 1):
        f_ins = f_y + d * b_d + (ones[-1] - ones[d - 1])
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
        if (runs % params.hr_mod != target.hr
                or f1r % params.f1r_mod != target.f1r
                or f2r % params.f2r_mod != target.f2r):
            continue
        if sketches(_candidate(y_bits, d, b_d, p, b_e), params) == target:
            hits.append((d, p))
    return hits


def _first_pair_per_flip(pairs):
    """The first (d, p) of pairs for each flip position q in the word, as
    `_scan` reports one pair for all the insertion positions of a run."""
    seen, out = set(), []
    for d, p in pairs:
        q = p if p is None or p < d else p + 1
        if q not in seen:
            seen.add(q)
            out.append((d, p))
    return out


def _candidate(y_bits, d, u, p, t):
    bits = list(y_bits)
    if p is not None:
        bits[p - 1] = t
    bits.insert(d - 1, u)
    return Word(tuple(bits), 2)


def _scans(target, y, params):
    """The (deleted bit, flipped bit or None) scans list_decode runs for y."""
    x_d, x_e, _ = classify_error(target, y, params)
    h_diff = x_d + 2 * x_e - 1
    return [(x_d, x_e)] + ([(h_diff, None)] if h_diff in (0, 1) else [])


def _reference_list_decode(y, target, params):
    words = {_candidate(y.symbols, d, b_d, p, b_e).symbols
             for b_d, b_e in _scans(target, y, params)
             for d, p in _reference_scan(y, target, params, b_d, b_e)}
    if not words:
        raise NoCandidateError("no candidate is consistent with the sketches")
    return [Word(bits, 2) for bits in sorted(words)]


@pytest.mark.parametrize("n", range(2, 9))
def test_scan_hits_are_the_reference_pairs(n):
    """Every (insertion, flip) pair up to the insertion's run, not just every
    word: a word may have several descriptions, and each must be found on its
    own.  Every x of length n, every deletion plus at most one substitution,
    its own target."""
    params = DelSubParams(n)
    for x in binary_words(n):
        target = sketches(x, params)
        for y in forward_images(x, ErrorModel.ONE_DEL_ONE_SUB):
            if len(y) != n - 1:
                continue
            stats = _WordStats(y.raw)
            run_delta = classify_error(target, y, params)[2]
            for b_d, b_e in _scans(target, y, params):
                hits = delsub_module._scan(stats, params, target, b_d, b_e,
                                           run_delta)
                assert hits == _first_pair_per_flip(
                    _reference_scan(y, target, params, b_d, b_e))


def _decode_or_error(decoder, *args):
    try:
        return decoder(*args)
    except NoCandidateError:
        return "NoCandidateError"


@pytest.mark.parametrize("n,trials", [(12, 400), (97, 200), (1000, 30),
                                      (16384, 2)])
def test_list_decode_matches_the_reference_scan(n, trials):
    """Seeded words with one deletion and at most one substitution, decoded
    against their own target and against an unrelated word's target."""
    rng = random.Random(n)
    params = DelSubParams(n)
    sizes = []
    for _ in range(trials):
        x = Word(tuple(rng.getrandbits(1) for _ in range(n)), 2)
        d, e = rng.randint(1, n), rng.randint(1, n)
        y = apply(x, Deletion(d)) if d == e else apply(x, DelAndSub(d, e))
        other = Word(tuple(rng.getrandbits(1) for _ in range(n)), 2)
        for target in (sketches(x, params), sketches(other, params)):
            got = _decode_or_error(list_decode, y, target, params)
            assert got == _decode_or_error(_reference_list_decode, y, target,
                                           params)
            sizes.append(len(got) if isinstance(got, list) else 0)
    assert max(sizes) >= 1


def _run_heavy_word(rng, n, kind):
    """Bits that are 1 with probability 0.1 or 0.9, or long runs: up to
    n / 2 bits each, at most 300, so a few at n = 97 and 1000.  (The
    reference sketches every pair of a hit, and a hit has a pair for each
    position of its run.)"""
    if kind == "runs":
        bits = []
        bit = rng.getrandbits(1)
        while len(bits) < n:
            bits += [bit] * rng.randint(1, min(n // 2, 300))
            bit ^= 1
        return tuple(bits[:n])
    return tuple(int(rng.random() < kind) for _ in range(n))


@pytest.mark.parametrize("n,trials", [(97, 12), (1000, 4), (16384, 1)])
@pytest.mark.parametrize("kind", [0.1, 0.9, "runs"])
def test_scan_matches_the_reference_on_run_heavy_words(n, trials, kind):
    """Long runs put the flip next to or inside the insertion's own run,
    which uniform words rarely do.  Every (b_d, b_e) scan runs against the
    word's own target and an unrelated word's, with the weight field set to
    the value that scan assumes; list_decode runs against both targets."""
    rng = random.Random(f"{n}-{kind}")
    params = DelSubParams(n)
    hits = 0
    for _ in range(trials):
        x = _run_heavy_word(rng, n, kind)
        d, e = rng.randint(1, n), rng.randint(1, n)
        y = Word(x, 2)
        y = apply(y, Deletion(d)) if d == e else apply(y, DelAndSub(d, e))
        stats = _WordStats(y.raw)
        other = _run_heavy_word(rng, n, kind)
        for source in (x, other):
            target = sketches(Word(source, 2), params)
            for b_d in (0, 1):
                for b_e in (0, 1, None):
                    shift = b_d + (0 if b_e is None else 2 * b_e - 1)
                    scan_target = DelSubSketches(
                        target.f, target.f1r, target.f2r,
                        (stats.weight + shift) % params.h_mod, target.hr)
                    run_delta = signed_residue(scan_target.hr - stats.runs,
                                               params.hr_mod)
                    got = delsub_module._scan(stats, params, scan_target, b_d,
                                              b_e, run_delta)
                    assert got == _first_pair_per_flip(_reference_scan(
                        y, scan_target, params, b_d, b_e))
                    hits += bool(got)
            assert (_decode_or_error(list_decode, y, target, params)
                    == _decode_or_error(_reference_list_decode, y, target,
                                        params))
    assert hits >= trials


@pytest.mark.parametrize("n", range(2, 8))
def test_list_decode_builds_one_tuple_per_distinct_word(n, monkeypatch):
    """Every y of length n - 1 against every sketch class: list_decode builds
    exactly one candidate tuple per word it returns, although a word has a
    scan hit at each insertion point of its run and may have several
    descriptions."""
    calls = []
    build = delsub_module._candidate_bits

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(delsub_module, "_candidate_bits", counting)
    params = DelSubParams(n)
    targets = {sketches(x, params) for x in binary_words(n)}
    decoded = 0
    for y in binary_words(n - 1):
        for target in targets:
            calls.clear()
            try:
                out = list_decode(y, target, params)
            except NoCandidateError:
                out = []
            assert len(calls) == len(out)
            decoded += len(out)
    assert decoded > 0


def test_list_decode_rejects_junk():
    params = DelSubParams(6)
    target = sketches(Word.parse("010101"), params)
    with pytest.raises(DecodeFailure):
        list_decode(Word.parse("0101"), target, params)
    # a received word whose weight difference matches no pattern
    bad_target = DelSubSketches(target.f, target.f1r, target.f2r,
                                (target.h + 3) % 5, target.hr)
    with pytest.raises(NoCandidateError):
        list_decode(Word.parse("01010"), bad_target, params)


@pytest.mark.parametrize("n", [8, 12, 20])
def test_only_decode_failures_escape_list_decode(n):
    """Seeded random targets, each the sketches of a random word x, against
    random received words of length n - 2 .. n + 1 and against x with one
    deletion and at most one flip: list_decode returns one or two words (x
    among them for x's own images) or raises a DecodeFailure, never another
    error."""
    rng = random.Random(n)
    params = DelSubParams(n)
    failures = 0
    for trial in range(600):
        x = bytes(rng.getrandbits(1) for _ in range(n))
        target = sketches(Word(x), params)
        if trial % 2:
            y = bytes(rng.getrandbits(1) for _ in range(rng.randint(n - 2, n + 1)))
        else:
            d = rng.randrange(n)
            y = bytearray(x[:d] + x[d + 1:])
            if rng.getrandbits(1):
                y[rng.randrange(n - 1)] ^= 1
        try:
            out = list_decode(Word(y), target, params)
        except DecodeFailure:
            assert trial % 2
            failures += 1
            continue
        assert 1 <= len(out) <= 2
        assert trial % 2 or Word(x) in out
    assert failures > 0


def _case_instances(n, want_run_delta, want_xd, want_xe, rng, count):
    params = DelSubParams(n)
    out = []
    while len(out) < count:
        x = Word(tuple(rng.randrange(2) for _ in range(n)), 2)
        d = rng.randrange(1, n + 1)
        e = rng.randrange(1, n + 1)
        if d == e:
            continue
        if (x.symbols[d - 1], x.symbols[e - 1]) != (want_xd, want_xe):
            continue
        y = apply(x, DelAndSub(d, e))
        target = sketches(x, params)
        if classify_error(target, y, params)[2] != want_run_delta:
            continue
        x_mid = apply(x, Deletion(d))
        out.append((x, y, target, run_count(x_mid)))
    return out


def _valid_pairs(y, target, params, b_d, b_e, mid_runs):
    """The (insertion, flip) pairs the sketch walk cannot rule out, in scan
    order, as (insert_at, flip_at, raw f1r of the candidate).

    A pair is valid when it matches the VT sketch, the candidate's run count,
    and the run count of the candidate with the reinserted bit removed again;
    the run-sum sketches are not applied.
    """
    n = params.n
    stats = _WordStats(y.raw)
    f_y = vt_sum(y.symbols)
    pairs = []
    for d in range(1, n + 1):
        f_ins = f_y + d * b_d + sum(y.symbols[d - 1:])
        q = ((target.f - f_ins) * (2 * b_e - 1)) % params.f_mod
        if not 1 <= q <= n or q == d:
            continue
        p = q - 1 if q > d else q
        if y.symbols[p - 1] != 1 - b_e:
            continue
        f1r, _, runs, _ = stats.edited_sums(d, b_d, p, b_e)
        companion = apply(y, Substitution(p, b_e))
        if (runs - target.hr) % params.hr_mod == 0 \
                and (run_count(companion) - mid_runs) % params.hr_mod == 0:
            pairs.append((d, q, f1r))
    return pairs


def test_valid_pair_walk_is_monotone_when_runs_increase():
    """When the corruption raised the run count, the first run sum moves one
    way along the walk: downward if the deleted and flipped bits agree,
    upward otherwise.  (Equal values do occur, exactly where two valid pairs
    describe tied candidates, so the sketch tuple can keep two survivors.)"""
    rng = random.Random(8)
    params = DelSubParams(12)
    for b_d in (0, 1):
        for b_e in (0, 1):
            for x, y, target, mid_runs in _case_instances(
                    12, -2, b_d, b_e, rng, 25):
                trace = _valid_pairs(y, target, params, b_d, b_e, mid_runs)
                assert trace, "the true pair must appear in its own trace"
                values = [f1r for _, _, f1r in trace]
                if b_d == b_e:
                    assert all(a >= b_ for a, b_ in zip(values, values[1:]))
                else:
                    assert all(a <= b_ for a, b_ in zip(values, values[1:]))


def test_valid_pair_walk_descends_when_runs_drop_by_four():
    rng = random.Random(10)
    params = DelSubParams(12)
    for b_d in (0, 1):
        for b_e in (0, 1):
            for x, y, target, mid_runs in _case_instances(
                    12, 4, b_d, b_e, rng, 15):
                trace = _valid_pairs(y, target, params, b_d, b_e, mid_runs)
                values = [f1r for _, _, f1r in trace]
                assert all(a >= b_ for a, b_ in zip(values, values[1:]))


def test_take_over_happens_at_most_once():
    rng = random.Random(9)
    params = DelSubParams(12)
    for run_delta in (-2, 0, 2, 4):
        for b_d in (0, 1):
            for b_e in (0, 1):
                for x, y, target, mid_runs in _case_instances(
                        12, run_delta, b_d, b_e, rng, 8):
                    trace = _valid_pairs(y, target, params, b_d, b_e, mid_runs)
                    signs = [flip_at > insert_at for insert_at, flip_at, _ in trace]
                    changes = sum(1 for a, b_ in zip(signs, signs[1:])
                                  if a != b_)
                    assert changes <= 1


def test_rank_square_sums_are_convex():
    """Sequences that redistribute mass across a threshold strictly lower the
    second moment unless they are equal."""
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randrange(2, 10)
        t = rng.randrange(0, 8)
        base = [rng.randrange(0, 8) for _ in range(n)]
        up = [i for i in range(n) if base[i] >= t]
        down = [i for i in range(n) if base[i] <= t]
        if not up or not down:
            continue
        a = list(base)
        moved = 0
        for i in rng.sample(up, min(len(up), 2)):
            a[i] += rng.randrange(0, 3)
            moved += a[i] - base[i]
        sinks = [i for i in down if base[i] > 0 and a[i] == base[i]]
        while moved and sinks:
            i = sinks[rng.randrange(len(sinks))]
            take = min(moved, a[i])
            a[i] -= take
            moved -= take
            sinks.remove(i)
        if moved:
            continue
        assert sum(x * x - x for x in a) >= sum(x * x - x for x in base)
        if a != base:
            assert sum(x * x - x for x in a) > sum(x * x - x for x in base)


def _reference_search_best_target(n):
    """The largest bucket, counted over validated words built from ints."""
    params = DelSubParams(n)
    buckets = {}
    for value in range(2 ** n):
        bits = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
        key = sketches(Word(bits, 2), params).astuple()
        buckets[key] = buckets.get(key, 0) + 1
    best_size = max(buckets.values())
    best = min(k for k, v in buckets.items() if v == best_size)
    return DelSubSketches(*best), best_size


def test_search_best_target_matches_the_reference_count():
    for n in range(1, 13):
        assert search_best_target(n) == _reference_search_best_target(n)
    with pytest.raises(SizeGuardError):
        search_best_target(23)


def test_exhaustive_pair_accepts_and_refuses_the_same_lengths(monkeypatch):
    """search_best_target and codewords_for_target share one guard: with its
    cap lowered both accept the cap and refuse one more, and both refuse a
    negative length and one past the real cap before enumerating."""
    def outcomes(n):
        got = []
        for call in (lambda: search_best_target(n),
                     lambda: codewords_for_target(n, DelSubSketches(0, 0, 0, 0, 0))):
            try:
                call()
                got.append(None)
            except SyncodecError as exc:
                got.append(type(exc))
        return got

    assert outcomes(-1) == [AlphabetError] * 2
    assert outcomes(EXHAUSTIVE_MAX_N + 1) == [SizeGuardError] * 2
    monkeypatch.setattr(delsub_module, "EXHAUSTIVE_MAX_N", 5)
    for n in range(6):
        assert outcomes(n) == [None] * 2
    assert outcomes(6) == [SizeGuardError] * 2
    target, size = search_best_target(5)
    assert len(codewords_for_target(5, target)) == size
    assert largest_class(5) == (target, codewords_for_target(5, target))


def test_search_best_target_bucket_bound():
    n = 10
    target, size = search_best_target(n)
    moduli = DelSubParams(n).moduli
    bound = 2 ** n
    for m in moduli:
        bound /= m
    assert size >= bound


def test_pipeline_round_trip_all_error_kinds():
    rng = random.Random(21)
    for m in (4, 9, 33):
        codec = DelSubCode(m)
        n = codec.n_total
        for _ in range(60):
            z = Word(tuple(rng.randrange(2) for _ in range(m)), 2)
            x = codec.encode(z)
            assert len(x) == n
            mode = rng.randrange(4)
            if mode == 0:
                y = x
            elif mode == 1:
                y = apply(x, Deletion(rng.randrange(1, n + 1)))
            elif mode == 2:
                e = rng.randrange(1, n + 1)
                y = apply(x, Substitution(e, 1 - x.symbols[e - 1]))
            else:
                d = rng.randrange(1, n + 1)
                e = rng.randrange(1, n + 1)
                y = apply(x, Deletion(d)) if d == e else apply(x, DelAndSub(d, e))
            out = codec.decode(y)
            assert z in out
            assert len(out) <= 2


def test_pipeline_exhaustive_deletions_one_message():
    codec = DelSubCode(8)
    z = Word.parse("10110010")
    x = codec.encode(z)
    for d in range(1, codec.n_total + 1):
        assert z in codec.decode(apply(x, Deletion(d)))
    for e in range(1, codec.n_total + 1):
        y = apply(x, Substitution(e, 1 - x.symbols[e - 1]))
        assert z in codec.decode(y)


def test_redundancy_grows_with_fixed_offset():
    offsets = set()
    for k in range(6, 13):
        codec = DelSubCode(2 ** k)
        offsets.add(codec.redundancy - 4 * k)
    assert len(offsets) == 1


# SHA-256 of the seeded DelSubCode encodings that encodings_digest hashes
ENCODINGS_SHA256 = "912f9d3c479c1f88b365c9f7387653aeb39b88c6e19b41ce5e8a8bdd0491a7fd"


def encodings_digest():
    rng = random.Random(2021)
    h = hashlib.sha256()
    for m in (1, 2, 5, 8, 64, 150, 1024, 16384):
        codec = DelSubCode(m)
        for _ in range(4):
            z = Word(bytes(rng.randrange(2) for _ in range(m)))
            h.update(codec.encode(z).raw + b"\n")
    return h.hexdigest()


def test_encodings_digest():
    """The codeword bytes are pinned: a change to them is a format change."""
    assert encodings_digest() == ENCODINGS_SHA256


@pytest.mark.parametrize("m", [741_456, 2 ** 20])
def test_round_trip_past_the_inner_capacity(m):
    """Past m = 741,455 the sketch fields outgrow INNER_CAPACITY bits and the
    inner length follows them; a deletion, a substitution and both still
    decode to the message."""
    rng = random.Random(m)
    codec = DelSubCode(m)
    assert codec.v_bits > INNER_CAPACITY and codec.pad == b""
    assert codec.inner_params.n == codec.v_bits
    z = Word(bytes(rng.randrange(2) for _ in range(m)))
    x = codec.encode(z)
    n = codec.n_total
    assert len(x) == n and x.raw[:m] == z.raw
    d, e = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
    for y in (apply(x, Deletion(d)),
              apply(x, Substitution(e, 1 - x.symbols[e - 1])),
              apply(x, DelAndSub(d, e)) if d != e else apply(x, Deletion(d))):
        out = codec.decode(y)
        assert z in out and len(out) <= 2


def test_message_lengths_past_the_int64_bound_are_refused():
    """DelSubCode refuses m past VECTOR_MAX_N at construction, through the
    guard its payload's list_decode applies."""
    with pytest.raises(SizeGuardError):
        DelSubCode(VECTOR_MAX_N + 1)


def reachable_reference(x_bits, y_bits):
    """Whether one deletion plus at most one substitution maps x to y (or at
    most one substitution, when the lengths are equal), as a Python loop over
    the mismatches of the two alignments: the reference that words.reaches
    is compared against, and the delsub contract tests' judge."""
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


@pytest.mark.parametrize("n", range(10))
def test_reachability_matches_the_error_ball(n):
    """words.reaches(x, y, model), the decoders' one reachability check, is
    y in forward_images(x, model) on every pair of words x of length n and y
    of length n - 2 .. n + 2 (n <= 5) or n - 1 .. n (above): single-edit
    over q = 3 at n <= 5, del-sub and del-or-transposition over q = 2.  The
    Python-loop reference, the delsub contract tests' judge, agrees on every
    del-sub pair, and error_ball(y), a filtration over all 2^n words, is the
    set of x that reach y where it is cheap (n <= 6)."""
    lengths = range(max(0, n - 2), n + 3) if n <= 5 else (n - 1, n)
    models = [(ErrorModel.ONE_DEL_ONE_SUB, 2),
              (ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION, 2)]
    if n <= 5:
        models.append((ErrorModel.SINGLE_EDIT, 3))
    for model, q in models:
        sources = [bytes(x) for x in itertools.product(range(q), repeat=n)]
        received = [bytes(y) for m in lengths
                    for y in itertools.product(range(q), repeat=m)]
        for x in sources:
            images = {w.raw for w in forward_images(Word(x, q), model)}
            want = [y for y in received if y in images]
            assert [y for y in received if reaches(x, y, model)] == want, (model, x)
            if model is ErrorModel.ONE_DEL_ONE_SUB:
                assert [y for y in received if reachable_reference(x, y)] == want, x
        if model is ErrorModel.ONE_DEL_ONE_SUB and n <= 6:
            for y in received:
                if n - 1 <= len(y) <= n:
                    ball = error_ball(Word(y, 2), model, n)
                    assert {w.raw for w in ball} == {
                        x for x in sources if reaches(x, y, model)}


def test_decode_checks_reachability_from_the_encoded_candidates(monkeypatch):
    """decode builds each candidate's codeword from the recovered sketch
    fields and guard, not by encoding it again; that word is encode(z)."""
    seen = []

    def spy(x_bits, y_bits, model):
        seen.append(x_bits)
        return reaches(x_bits, y_bits, model)

    monkeypatch.setattr(delsub_module, "reaches", spy)
    rng = random.Random(33)
    codec = DelSubCode(40)
    n = codec.n_total
    in_model = 0
    for _ in range(150):
        z = Word(tuple(rng.getrandbits(1) for _ in range(codec.m)), 2)
        x = codec.encode(z)
        flips = rng.randrange(3)  # a second flip leaves the model
        y = apply(x, Deletion(rng.randint(1, n)))
        for e in rng.sample(range(1, n), flips):
            y = apply(y, Substitution(e, 1 - y.symbols[e - 1]))
        try:
            assert z in codec.decode(y) or flips == 2
        except DecodeFailure:
            assert flips == 2
        in_model += flips < 2
    assert len(seen) >= in_model > 0
    for x_bits in seen:
        assert x_bits == codec.encode(Word(x_bits[:codec.m], 2)).raw


def _flips(word):
    """A binary word and every word one substitution away from it."""
    return {word, *(word[:i] + bytes((1 - word[i],)) + word[i + 1:]
                    for i in range(len(word)))}


def test_decode_answers_reach_every_word_of_a_two_edit_ball():
    """Every word of length n - 1 or n within Levenshtein distance 2 of a
    seeded DelSubCode(1) codeword (38,404 words): one deletion and at most
    one substitution, at most two substitutions, or one deletion and one
    insertion.  Each decode raises DecodeFailure or returns only messages
    whose encodings reach the word, by the Python-loop reference."""
    codec = DelSubCode(1)
    x = codec.encode(Word((random.Random(43).getrandbits(1),), 2)).raw
    n = len(x)
    deleted = {x[:i] + x[i + 1:] for i in range(n)}
    ball = set().union(*map(_flips, deleted), *map(_flips, _flips(x)))
    ball |= {w[:j] + bit + w[j:] for w in deleted for j in range(n)
             for bit in (b"\x00", b"\x01")}
    assert len(ball) == 38_404
    encodings = {z: codec.encode(Word((z,), 2)).raw for z in (0, 1)}
    answered = 0
    for y in ball:
        try:
            answers = codec.decode(Word(y, 2))
        except DecodeFailure:
            continue
        answered += 1
        assert all(reachable_reference(encodings[z[0]], y) for z in answers), y
    assert answered > 0


def _long_reachability_pairs(rng, n):
    """(x, y) pairs of length about 16,800 at the ends of the mismatch
    search: mismatches at index 0 and m - 1, deletions of x_1 and x_n,
    equal lengths with 0, 1 or 2 mismatches, and y = x[1:] or x[:-1] with
    a flip next to the cut, in and beyond the error model."""
    x = bytes(rng.getrandbits(1) for _ in range(n))

    def flipped(word, *at):
        word = bytearray(word)
        for i in at:
            word[i] ^= 1
        return bytes(word)

    pairs = [(x, x), (x, flipped(x, 0)), (x, flipped(x, n - 1)),
             (x, flipped(x, 0, n - 1)), (x, flipped(x, 0, 1)),
             (x, flipped(x, n - 2, n - 1)), (x, flipped(x, n // 2))]
    for y in (x[1:], x[:-1]):
        m = len(y)
        pairs += [(x, y), (x, flipped(y, 0)), (x, flipped(y, m - 1)),
                  (x, flipped(y, 0, m - 1)), (x, flipped(y, 0, 1)),
                  (x, flipped(y, m - 2, m - 1)), (x, flipped(y, m // 2))]
    # one deletion inside with a flip on either side of the cut, and a
    # second flip beyond the model
    for k in (1, n // 3, n - 2):
        y = x[:k] + x[k + 1:]
        pairs += [(x, flipped(y, k - 1)), (x, flipped(y, k)),
                  (x, flipped(y, k - 1, k)), (x, flipped(y, 0, n - 2))]
    return pairs


def test_reachability_matches_the_reference_on_long_words():
    """words.reaches stops at the first two and last two mismatches of
    each alignment; on words of about 16,800 bits it agrees with the
    Python-loop reference at both ends of the words and of the cut."""
    rng = random.Random("reach-long")
    outcomes = set()
    for n in (16_800, 16_801):
        for x, y in _long_reachability_pairs(rng, n):
            want = reachable_reference(x, y)
            assert reaches(x, y, ErrorModel.ONE_DEL_ONE_SUB) == want
            outcomes.add((len(x) - len(y), want))
    assert outcomes == {(0, True), (0, False), (1, True), (1, False)}


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised: the scalar and
    the vector path must fail in the same way too."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


def _all_python_ints(values):
    return all(type(v) is int for v in values)


def _sweep_word(rng, n, kind):
    if kind == "uniform":
        return bytes(rng.getrandbits(1) for _ in range(n))
    return bytes(_run_heavy_word(rng, n, kind))


def _received_words(rng, x, kind):
    """One deletion with and without a flip, a flip alone, and junk of
    lengths n - 1 and n."""
    n = len(x)
    y = list(x)
    del y[rng.randrange(n)]
    lone = bytes(y)
    y[rng.randrange(n - 1)] ^= 1
    flipped = list(x)
    flipped[rng.randrange(n)] ^= 1
    return [bytes(y), lone, bytes(flipped), _sweep_word(rng, n - 1, kind),
            _sweep_word(rng, n, kind)]


@pytest.mark.parametrize("n,trials", [(VECTOR_MIN_N - 1, 8), (VECTOR_MIN_N, 8),
                                      (VECTOR_MIN_N + 1, 8), (1000, 4),
                                      (16384, 2)])
@pytest.mark.parametrize("kind", ["uniform", 0.1, 0.9, "runs"])
def test_vector_path_matches_the_scalar_path(n, trials, kind, monkeypatch):
    """Seeded words around the crossover and far above it: the sketch sums,
    the rank tables, every scan, sketches and list_decode give the same
    results on both paths, exceptions included, against the source's
    sketches and an unrelated sketch tuple, and the vector path hands back
    Python ints.  The reachability check agrees with the Python-loop
    reference."""
    rng = random.Random(f"vector-{n}-{kind}")
    params = DelSubParams(n)
    for _ in range(trials):
        x = _sweep_word(rng, n, kind)
        received = _received_words(rng, x, kind)
        for w in [x, *received]:
            stats = _WordArrays(w)
            sums = (stats.vt, stats.f1r, stats.squares, stats.weight, stats.runs)
            f1r, f2r, runs, weight = _raw_sums(w)
            assert sums == (vt_sum(w), f1r, f2r + f1r, weight, runs)
            assert _all_python_ints(sums)
        targets = [sketches(Word(x, 2), params), DelSubSketches(
            *(rng.randrange(mod) for mod in params.moduli))]
        for y in received:
            assert reaches(x, y, ErrorModel.ONE_DEL_ONE_SUB) == reachable_reference(x, y)
            if len(y) != n - 1:
                continue
            scalar, vector = _WordStats(y), _WordArrays(y)
            for name in ("m", "weight", "vt", "runs", "squares", "f1r"):
                assert getattr(vector, name) == getattr(scalar, name)
                assert type(getattr(vector, name)) is int
            assert vector.ranks.tolist() == scalar.ranks
            assert vector.r1.tolist() == scalar.r1
            for u in (0, 1):
                assert vector.reps(u).tolist() == scalar.reps(u)
            for target in targets:
                for b_d in (0, 1):
                    for b_e in (0, 1, None):
                        shift = b_d + (0 if b_e is None else 2 * b_e - 1)
                        scan_target = DelSubSketches(
                            target.f, target.f1r, target.f2r,
                            (scalar.weight + shift) % params.h_mod, target.hr)
                        run_delta = signed_residue(
                            scan_target.hr - scalar.runs, params.hr_mod)
                        got = delsub_module._scan(vector, params, scan_target,
                                                  b_d, b_e, run_delta)
                        assert got == delsub_module._scan(
                            scalar, params, scan_target, b_d, b_e, run_delta)
                        assert all(_all_python_ints(filter(None, pair))
                                   for pair in got)
        outcomes = []
        for lowest in (n + 1, n):  # the scalar path, then the vector one
            monkeypatch.setattr(delsub_module, "VECTOR_MIN_N", lowest)
            outcomes.append([_outcome(sketches, Word(w, 2), params)
                             for w in [x, *received] if len(w) == n]
                            + [_outcome(list_decode, Word(y, 2), target, params)
                               for target in targets for y in received])
        assert outcomes[0] == outcomes[1]
        assert all(_all_python_ints(sk.astuple()) for sk in outcomes[1][:3])


def _crossing_words(rng, n):
    """Words of length n whose runs are long: all zeros, all ones, 0101...,
    one long run in random bits, and runs of up to n / 2 bits."""
    half = n // 2
    middle = [rng.getrandbits(1) for _ in range(n)]
    middle[n // 4:n // 4 + half] = [1] * half
    return [bytes(n), b"\x01" * n, bytes(i % 2 for i in range(n)), bytes(middle),
            bytes(_run_heavy_word(rng, n, "runs"))]


def test_vector_stretches_match_the_scalar_scan_across_the_crossing(monkeypatch):
    """_scan on the array table against the Python one where the flip meets
    the insertion, q - rep in {1, 0, -1}.  Words with long runs, with every
    deletion plus a substitution at most three positions away against the
    source's sketches, and every VT residue f for three received words, so
    that a stretch starts anywhere.  Covered and asserted: all four (b_d,
    b_e), so both slopes; a hit in a crossing block as long as a run of
    1 - b_d bits; slope -1 stretches from rep = 1 and down to q = 1; and
    q = rep = n at the end sentinel, where no word exists."""
    n = 40
    params = DelSubParams(n)
    real = _WordArrays.stretch_hits
    seen = []

    def spy(self, reps, lo, hi, q, slope, b_d, b_e, *rest):
        hits = real(self, reps, lo, hi, q, slope, b_d, b_e, *rest)
        # (k, rep, g = rep - q) along the stretch
        shapes = [(k, rep, rep - (q + slope * k))
                  for k, rep in enumerate(reps[lo:hi].tolist())]
        crossing = [k for k, rep, g in shapes if -1 <= g <= 1]
        hit_ks = [k for k, rep, g in shapes if -1 <= g <= 1
                  for d, p in hits if d == rep + (g == 0)]
        seen.append({"slope": slope, "b_d": b_d, "b_e": b_e, "lo": lo,
                     "last_q": q + slope * (hi - lo - 1),
                     "crossing": len(crossing), "crossing_hits": len(hit_ks),
                     "end": any(g == 0 and rep == n for k, rep, g in shapes)})
        return hits

    monkeypatch.setattr(_WordArrays, "stretch_hits", spy)

    def compare(y, target):
        scalar, vector = _WordStats(y), _WordArrays(y)
        for b_d in (0, 1):
            for b_e in (0, 1, None):
                shift = b_d + (0 if b_e is None else 2 * b_e - 1)
                scan_target = DelSubSketches(
                    target.f, target.f1r, target.f2r,
                    (scalar.weight + shift) % params.h_mod, target.hr)
                run_delta = signed_residue(scan_target.hr - scalar.runs,
                                           params.hr_mod)
                assert delsub_module._scan(
                    vector, params, scan_target, b_d, b_e, run_delta) == \
                    delsub_module._scan(scalar, params, scan_target, b_d,
                                        b_e, run_delta)

    rng = random.Random("crossing")
    for x in _crossing_words(rng, n):
        target = sketches(Word(x, 2), params)
        for d in range(1, n + 1):
            for e in range(max(1, d - 3), min(n, d + 3) + 1):
                y = list(x)
                if e != d:
                    y[e - 1] ^= 1
                del y[d - 1]
                compare(bytes(y), target)
        for y in (x[1:], x[:-1], x[:n // 2] + x[n // 2 + 1:]):
            for f in range(params.f_mod):
                compare(y, DelSubSketches(f, *target.astuple()[1:]))

    for b_d, b_e in itertools.product((0, 1), repeat=2):
        assert any(s["crossing_hits"] for s in seen
                   if (s["b_d"], s["b_e"]) == (b_d, b_e))
    assert any(s["crossing_hits"] and s["crossing"] >= n // 4 for s in seen)
    assert all(s["crossing"] <= 2 for s in seen if s["slope"] == -1)
    assert any(s["lo"] == 0 for s in seen if s["slope"] == -1)
    assert any(s["last_q"] == 1 for s in seen if s["slope"] == -1)
    assert any(s["end"] for s in seen)


def test_int64_sums_are_exact_up_to_the_largest_vector_length():
    """(n + 2)^3 < 2^63 bounds every int64 sum of the vector path, and
    VECTOR_MAX_N is the largest n it holds for.  At that length the word
    1010... has rank i at position i, the largest ranks a word can have, and
    the vector sums equal their closed forms."""
    assert (VECTOR_MAX_N + 2) ** 3 < 2 ** 63 <= (VECTOR_MAX_N + 3) ** 3
    n = VECTOR_MAX_N
    word = b"\x01\x00" * (n // 2) + b"\x01" * (n % 2)
    ones = (n + 1) // 2
    runs = n + (word[-1] == 0) + 1
    stats = _WordArrays(word)
    assert (stats.vt, stats.f1r, stats.squares, stats.weight, stats.runs) == (
        ones * ones, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6, ones, runs)
    m = n - 1
    stats = _WordArrays(word[:m])
    assert stats.squares == m * (m + 1) * (2 * m + 1) // 6
    assert stats.f1r == stats.r1[m] == m * (m + 1) // 2
    sample = [*range(m, 0, -997), 0]
    assert stats.r1[sample].tolist() == [i * (i + 1) // 2 for i in sample]
    assert stats.vt == ((m + 1) // 2) ** 2


def _edge_words(m):
    """Words of length m at the edges of the sums from positions: no
    boundary or 1 at all, one at every position (both alternations), one
    long run closed by a single opposite bit, and random words ending in
    0 and in 1."""
    rng = random.Random(f"edges-{m}")
    body = bytes(rng.getrandbits(1) for _ in range(m - 1))
    return [bytes(m), b"\x01" * m, bytes(i % 2 for i in range(m)),
            bytes((i + 1) % 2 for i in range(m)), bytes(m - 1) + b"\x01",
            b"\x01" * (m - 1) + b"\x00", body + b"\x00", body + b"\x01"]


@pytest.mark.parametrize("m", [VECTOR_MIN_N - 1, VECTOR_MIN_N, 16384])
def test_sums_from_positions_match_the_scalar_table_on_edge_words(m):
    """The five sums of `_WordArrays`, taken from the boundary and 1
    positions, are the Python ints of `_WordStats`; reps(0) and reps(1)
    and the rank table, built on first read, are its lists, and
    rep(u, k) reads reps(u)[k] at every k."""
    for word in _edge_words(m):
        scalar, vector = _WordStats(word), _WordArrays(word)
        for name in ("vt", "f1r", "squares", "weight", "runs"):
            assert getattr(vector, name) == getattr(scalar, name)
            assert type(getattr(vector, name)) is int
        for u in (0, 1):
            reps = scalar.reps(u)
            assert vector.reps(u).tolist() == reps
            assert [vector.rep(u, k) for k in range(len(reps))] == reps
            assert all(type(vector.rep(u, k)) is int
                       for k in (0, len(reps) - 1))
        # a word ending in u gives d = m + 1 among reps(1 - u)
        assert (m + 1 in scalar.reps(1 - word[-1])) and (
            m + 1 not in scalar.reps(word[-1]))
        assert "ranks" not in vector.__dict__
        assert vector.ranks.tolist() == scalar.ranks


class _Chosen(Exception):
    pass


def _spy_paths(monkeypatch, seen, stop=False, tables=None):
    """Record which rank tables list_decode builds, and when sketches builds
    the vector ones, with the word length; stop=True raises _Chosen at the
    choice instead of running it, and each table built is appended to
    `tables` when it is given."""
    def record(name, length):
        seen.append((name, length))
        if stop:
            raise _Chosen(name)

    for name in ("_WordStats", "_WordArrays"):
        cls = getattr(delsub_module, name)

        def init(self, bits, name=name, cls=cls):
            record(name, len(bits))
            cls.__init__(self, bits)
            if tables is not None:
                tables.append(self)

        monkeypatch.setattr(delsub_module, name,
                            type(name, (cls,), {"__init__": init}))


def test_the_delsub_long_shape_takes_the_vector_path(monkeypatch):
    """DelSubCode(16384): the payload's sketches and rank tables run on
    numpy, in a deletion plus substitution decode and in a substitution
    decode; the n = 96 inner sketch fields and the n = 12 desk-scale
    sketches and list decodes stay on the Python loops."""
    seen = []
    _spy_paths(monkeypatch, seen)
    rng = random.Random(16384)
    codec = DelSubCode(16384)
    n = codec.n_total
    z = Word(tuple(rng.getrandbits(1) for _ in range(codec.m)), 2)
    x = codec.encode(z)
    assert seen == [("_WordArrays", 16384)]
    seen.clear()
    assert z in codec.decode(apply(x, DelAndSub(rng.randint(1, n // 2),
                                                rng.randint(n // 2, n))))
    assert set(seen) == {("_WordStats", 95), ("_WordArrays", 16383)}
    seen.clear()
    e = rng.randint(1, codec.m)
    assert codec.decode(apply(x, Substitution(e, 1 - x.symbols[e - 1]))) == [z]
    assert seen == [("_WordArrays", 16384)]
    seen.clear()
    params = DelSubParams(12)
    w = Word.parse("100110100011")
    assert w in list_decode(apply(w, DelAndSub(3, 8)), sketches(w, params),
                            params)
    assert seen == [("_WordStats", 11)]


def test_only_the_deletion_scan_builds_the_rank_table(monkeypatch):
    """DelSubCode(16384): encode, a clean decode and a substitution decode
    read the five sums from positions and never build the payload table's
    int64 ranks or their prefix sums; a deletion decode builds one payload
    table, and its scan builds the ranks on it."""
    seen, tables = [], []
    _spy_paths(monkeypatch, seen, tables=tables)
    rng = random.Random("rank-table")
    codec = DelSubCode(16384)
    z = Word(tuple(rng.getrandbits(1) for _ in range(codec.m)), 2)
    x = codec.encode(z)
    e = rng.randint(1, codec.m)
    assert codec.decode(x) == [z]
    assert codec.decode(apply(x, Substitution(e, 1 - x.symbols[e - 1]))) == [z]
    assert seen == [("_WordArrays", 16384)] * 3
    assert not any({"ranks", "r1"} & t.__dict__.keys() for t in tables)
    seen.clear()
    tables.clear()
    assert z in codec.decode(apply(x, Deletion(rng.randint(1, codec.m))))
    payload = [t for t in tables if isinstance(t, _WordArrays)]
    assert [t.m for t in payload] == [16383]
    assert "ranks" in payload[0].__dict__


@pytest.mark.parametrize("n,path", [
    (VECTOR_MIN_N - 1, "scalar"), (VECTOR_MIN_N, "vector"),
    (VECTOR_MAX_N, "vector"), (VECTOR_MAX_N + 1, "refused")])
def test_the_path_follows_the_codeword_length(n, path, monkeypatch):
    """Each public entry chooses its path from n alone: numpy from
    VECTOR_MIN_N to VECTOR_MAX_N, the Python loops below, and past
    VECTOR_MAX_N, where an int64 sum could overflow, a SizeGuardError before
    any table is built.  The spies stop each call at its choice; the Python
    loop of sketches runs, on a word of zeros."""
    seen = []
    _spy_paths(monkeypatch, seen, stop=True)
    zeros = Word(bytes(n))
    params = DelSubParams(n)
    target = DelSubSketches(0, 0, 0, 0, 2)
    if path == "refused":
        short = Word(zeros.raw[1:])
        for call, args in [(sketches, (zeros, params)),
                           (list_decode, (zeros, target, params)),
                           (list_decode, (short, target, params)),
                           (classify_error, (target, short, params))]:
            with pytest.raises(SizeGuardError):
                call(*args)
        assert seen == []
        return
    if path == "vector":
        with pytest.raises(_Chosen):
            sketches(zeros, params)
    else:
        assert sketches(zeros, params) == target
    with pytest.raises(_Chosen):
        list_decode(Word(zeros.raw[1:]), target, params)
    want = {"scalar": ["_WordStats"], "vector": ["_WordArrays", "_WordArrays"]}
    assert [name for name, _ in seen] == want[path]
