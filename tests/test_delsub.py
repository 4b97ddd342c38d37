import itertools
import random

import pytest

from conftest import binary_words
import syncodec.delsub as delsub_module
from syncodec.delsub import (
    DelSubCode,
    DelSubParams,
    DelSubSketches,
    _WordStats,
    _reachable_one_del_one_sub,
    classify_error,
    is_codeword,
    list_decode,
    search_best_target,
    sketches,
)
from syncodec.errors import DecodeFailure, EmptyListError
from syncodec.sketches import vt_sum
from syncodec.words import (
    DelAndSub,
    Deletion,
    ErrorModel,
    Substitution,
    Word,
    apply,
    error_ball,
    forward_images,
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
        bits = tuple(rng.randrange(2) for _ in range(m))
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
            stats = _WordStats(bits)
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
            except EmptyListError:
                got = set()
            assert got == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_list_decode_is_the_sketch_consistent_ball_for_every_word(n):
    """For every y of length n - 1 or n, list_decode(y) returns exactly the
    words of a sketch class whose one-deletion-one-substitution ball holds y,
    sorted, for every class that has one.  Up to n = 7 every other class is
    tried too, and must raise EmptyListError."""
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
                with pytest.raises(EmptyListError):
                    list_decode(y, target, params)


def _reference_scan(y, target, params, b_d, b_e):
    """_scan as it was before the one-table scan: the full edited_sums filter
    at every VT-forced position, then each candidate's full sketches checked
    again."""
    n = params.n
    y_bits = y.symbols
    stats = _WordStats(y_bits)
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
        raise EmptyListError("no candidate is consistent with the sketches")
    return [Word(bits, 2) for bits in sorted(words)]


@pytest.mark.parametrize("n", range(2, 9))
def test_scan_hits_are_the_reference_pairs(n):
    """Every (insertion, flip) pair, not just every word: a word may have
    several descriptions, and each must be found on its own.  Every x of
    length n, every deletion plus at most one substitution, its own target."""
    params = DelSubParams(n)
    for x in binary_words(n):
        target = sketches(x, params)
        for y in forward_images(x, ErrorModel.ONE_DEL_ONE_SUB):
            if len(y) != n - 1:
                continue
            stats = _WordStats(y.symbols)
            run_delta = classify_error(target, y, params)[2]
            for b_d, b_e in _scans(target, y, params):
                hits = delsub_module._scan(stats, params, target, b_d, b_e,
                                           run_delta)
                assert hits == _reference_scan(y, target, params, b_d, b_e)


def _decode_or_error(decoder, *args):
    try:
        return decoder(*args)
    except EmptyListError:
        return "EmptyListError"


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


def test_list_decode_rejects_junk():
    params = DelSubParams(6)
    target = sketches(Word.parse("010101"), params)
    with pytest.raises(DecodeFailure):
        list_decode(Word.parse("0101"), target, params)
    # a received word whose weight difference matches no pattern
    bad_target = DelSubSketches(target.f, target.f1r, target.f2r,
                                (target.h + 3) % 5, target.hr)
    with pytest.raises(EmptyListError):
        list_decode(Word.parse("01010"), bad_target, params)


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
    stats = _WordStats(y.symbols)
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


@pytest.mark.parametrize("n", range(1, 10))
def test_reachability_matches_the_error_ball(n):
    """Every pair of words of length n and n - 1 or n.  error_ball(y) is the
    set of x whose forward images hold y; its own filtration over all 2^n
    words is run where it is cheap (n <= 6)."""
    sources = list(binary_words(n))
    received = list(itertools.chain(binary_words(n - 1), binary_words(n)))
    for x in sources:
        images = forward_images(x, ErrorModel.ONE_DEL_ONE_SUB)
        for y in received:
            assert _reachable_one_del_one_sub(x.symbols, y.symbols) == (y in images)
    if n <= 6:
        for y in received:
            ball = error_ball(y, ErrorModel.ONE_DEL_ONE_SUB, n)
            assert ball == {x for x in sources
                            if _reachable_one_del_one_sub(x.symbols, y.symbols)}


def test_decode_checks_reachability_from_the_encoded_candidates(monkeypatch):
    """decode builds each candidate's codeword from the recovered sketch
    fields and guard, not by encoding it again; that word is encode(z)."""
    seen = []
    reachable = delsub_module._reachable_one_del_one_sub

    def spy(x_bits, y_bits):
        seen.append(x_bits)
        return reachable(x_bits, y_bits)

    monkeypatch.setattr(delsub_module, "_reachable_one_del_one_sub", spy)
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
        assert x_bits == codec.encode(Word(x_bits[:codec.m], 2)).symbols


def test_reachability_filter():
    x = (0, 1, 1, 0, 1)
    assert _reachable_one_del_one_sub(x, (0, 1, 0, 0, 1))
    assert _reachable_one_del_one_sub(x, (1, 1, 0, 1))
    assert _reachable_one_del_one_sub(x, x)
    assert not _reachable_one_del_one_sub(x, (1, 0, 0, 1, 0))
    assert not _reachable_one_del_one_sub(x, (1, 0, 0))
