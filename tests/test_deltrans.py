import itertools
import random

import pytest

from conftest import binary_words
from syncodec.deltrans import (
    _segment_options,
    ClosedFormHash,
    DeltransDeskCode,
    DeltransParams,
    GreedyHash,
    WindowPlan,
    confusable_set,
    correct,
    desk_hash,
    enumerate_candidates,
    expurgate,
    inner_correct,
    inner_fields,
    inner_sketch,
    locate,
    multiset_distance,
    segment,
    segment_cap_probability,
    segment_lenient,
    segment_sketches,
    window_sketches,
)
from syncodec.errors import (
    DecodeFailure,
    MissingTerminalMarkerError,
    ProfileError,
    RangeExhaustedError,
    SizeGuardError,
)
from syncodec.words import Deletion, ErrorModel, Transposition, Word, apply
from syncodec.oracle import verify_code

DESK_DELTA = 5


def equivalent_deletions(x, y):
    return [d for d in range(1, len(x) + 1) if apply(x, Deletion(d)) == y]


def marker_word(segment_lengths, rng):
    bits = []
    for length in segment_lengths:
        while True:
            prefix = tuple(rng.getrandbits(1) for _ in range(length - 4))
            seg = prefix + (0, 0, 1, 1)
            inner, residue = segment_lenient(Word(seg, 2))
            if len(inner) == 1 and not residue:
                bits.extend(seg)
                break
    return Word(tuple(bits), 2)


def test_segment_examples():
    segs = segment(Word.parse("00110011"))
    assert [str(s) for s in segs] == ["0011", "0011"]
    segs = segment(Word.parse("0100110011"))
    assert [str(s) for s in segs] == ["010011", "0011"]
    assert [str(s) for s in segment(Word.parse("0011"))] == ["0011"]


def test_segment_requires_terminal_marker():
    with pytest.raises(MissingTerminalMarkerError):
        segment(Word.parse("001101"))
    segs, residue = segment_lenient(Word.parse("001101"))
    assert len(segs) == 1 and residue == (0, 1)


def test_segments_concatenate_back():
    rng = random.Random(0)
    for _ in range(50):
        w = marker_word([rng.randrange(4, 9) for _ in range(5)], rng)
        segs = segment(w)
        joined = tuple(itertools.chain.from_iterable(s.symbols for s in segs))
        assert joined == w.symbols
        assert all(s.symbols[-4:] == (0, 0, 1, 1) for s in segs)


def _sliding_segments(bits):
    """segment_lenient as a slice comparison at every position."""
    segments = []
    start = i = 0
    while i + 4 <= len(bits):
        if bits[i:i + 4] == (0, 0, 1, 1):
            segments.append(bits[start:i + 4])
            start = i = i + 4
        else:
            i += 1
    return segments, bits[start:]


def test_segment_lenient_matches_the_sliding_scan():
    """Exhaustive up to length 12, then seeded words up to length 2001, some
    uniform and some built from pieces that make markers and near-markers."""
    for n in range(13):
        for w in binary_words(n):
            assert segment_lenient(w) == _sliding_segments(w.symbols)
    rng = random.Random(41)
    pieces = [(0, 0, 1, 1), (0,), (1,), (0, 0), (1, 1), (0, 0, 1), (0, 1, 1)]
    for _ in range(300):
        n = rng.choice((20, 100, 2001))
        if rng.random() < 0.5:
            bits = tuple(rng.getrandbits(1) for _ in range(n))
        else:
            bits = ()
            while len(bits) < n:
                bits += rng.choice(pieces)
        assert segment_lenient(Word(bits, 2)) == _sliding_segments(bits)


def test_desk_decode_hashes_each_segment_once(desk_code, monkeypatch):
    """One deletion decode hashes y's segments once (shared by the multiset
    recovery and locate) and the repaired word's segments once."""
    calls = []
    lookup = GreedyHash.__call__

    def counting(self, bits):
        calls.append(bits)
        return lookup(self, bits)

    monkeypatch.setattr(GreedyHash, "__call__", counting)
    x = desk_code.codewords[0]
    y = apply(x, Deletion(1))
    assert desk_code.decode(y) == x
    segments_y, _ = segment_lenient(y)
    segments_x, _ = segment_lenient(x)
    assert calls == segments_y + segments_x


def test_greedy_hash_tiny_example():
    # the domain spans lengths up to 3*cap, so even cap=1 needs several values
    h = GreedyHash.build(1)
    assert h((0,)) != h((1,))
    assert GreedyHash.build(1, h.hash_range).table == h.table
    with pytest.raises(RangeExhaustedError):
        GreedyHash.build(1, 3)
    with pytest.raises(SizeGuardError):
        GreedyHash.build(7)


def test_greedy_hash_invariant_exhaustive():
    cap = 2
    h = GreedyHash.build(cap)
    for bits, value in h.table.items():
        for other in confusable_set(bits, cap):
            assert h.table[other] != value


def test_greedy_hash_round_trips_through_json():
    h = GreedyHash.build(2)
    again = GreedyHash.from_json(h.to_json())
    assert again.table == h.table and again.hash_range == h.hash_range


def test_closed_form_hash_invariant_exhaustive():
    cap = 3
    h = ClosedFormHash(cap)
    for length in range(3 * cap + 1):
        for value in range(1 << length):
            bits = tuple((value >> (length - 1 - i)) & 1 for i in range(length))
            hv = h(bits)
            assert hv < h.hash_range
            for other in confusable_set(bits, cap):
                assert h(other) != hv


def test_confusable_set_contents():
    a = confusable_set((0, 1), 2)
    assert (1, 0) in a          # one transposition
    assert (1, 1) in a          # one substitution
    assert (0,) in a            # one deletion
    assert (0, 1, 1) in a       # one insertion
    assert (1, 1, 0) not in a   # needs a transposition plus an insertion


def test_segment_sketches_single_segment():
    h = GreedyHash.build(2)
    params = DeltransParams.desk(8, 5, h.hash_range)
    word = Word.parse("00110011")
    sk, hashes = segment_sketches(word, params, h)
    m = h.hash_range
    t = 4 * m + h((0, 0, 1, 1))
    assert sk.f == (1 * t + 2 * t) % params.f_mod
    assert sk.g1 == 2
    assert hashes == tuple(sorted([h((0, 0, 1, 1))] * 2))


def test_g2_changes_under_any_transposition():
    h = desk_hash(DESK_DELTA)
    for n in range(8, 13):
        params = DeltransParams.desk(n, DESK_DELTA, h.hash_range)
        for w in binary_words(n - 4):
            word = Word(w.symbols + (0, 0, 1, 1), 2)
            sk, _ = segment_sketches(word, params, h)
            for k in range(1, n):
                if word.symbols[k - 1] == word.symbols[k]:
                    continue
                swapped = apply(word, Transposition(k))
                g2 = sum(1 for i in range(1, n + 1)
                         if sum(swapped.symbols[:i]) % 2) % 3
                assert g2 != sk.g2


def test_expurgation_greedy_trace():
    words = [Word((0, 0, 1, 1), 2)] * 8
    multisets = [(1, 2)] * 5 + [(1, 3)] * 3
    survivors, kept = expurgate(list(words), multisets)
    # the two multisets differ by 2 < 10; the more popular one wins
    assert set(kept) == {(1, 2)}
    assert len(survivors) == 5


def test_expurgation_keeps_far_or_equal_multisets():
    rng = random.Random(6)
    words = [Word((0, 0, 1, 1), 2)] * 40
    multisets = [tuple(sorted(rng.randrange(30) for _ in range(6)))
                 for _ in range(40)]
    survivors, kept = expurgate(list(words), multisets)
    for a in set(kept):
        for b in set(kept):
            assert a == b or multiset_distance(a, b) >= 10
    # the greedy keeps at least a 1/m^10 fraction; trivially true here
    assert len(survivors) >= 1


def test_marker_count_transitions():
    """A deletion moves the marker count by one at most; a transposition by two."""
    for n in range(8, 15):
        for w in binary_words(n - 4):
            word = Word(w.symbols + (0, 0, 1, 1), 2)
            lx = len(segment_lenient(word)[0])
            for d in range(1, n + 1):
                ly = len(segment_lenient(apply(word, Deletion(d)))[0])
                assert ly - lx in (-1, 0, 1)
            for k in range(1, n):
                if word.symbols[k - 1] == word.symbols[k]:
                    continue
                ly = len(segment_lenient(apply(word, Transposition(k)))[0])
                assert ly - lx in (-2, -1, 0, 1, 2)


def test_hash_multiset_drift_bound():
    h = desk_hash(DESK_DELTA)
    rng = random.Random(3)
    for _ in range(40):
        word = marker_word([rng.randrange(4, 6) for _ in range(4)], rng)
        n = len(word)
        _, hx = segment_sketches(
            word, DeltransParams.desk(max(8, n), DESK_DELTA, h.hash_range), h)
        for d in range(1, n + 1):
            segs, _ = segment_lenient(apply(word, Deletion(d)))
            hy = tuple(sorted(h(s) for s in segs))
            assert multiset_distance(hx, hy) <= 3
        for k in range(1, n):
            if word.symbols[k - 1] == word.symbols[k]:
                continue
            segs, _ = segment_lenient(apply(word, Transposition(k)))
            hy = tuple(sorted(h(s) for s in segs))
            assert multiset_distance(hx, hy) <= 4


def test_params_validation():
    with pytest.raises(ProfileError):
        DeltransParams(24, 5, 67, 1, "desk").validate()  # bound too small
    p = DeltransParams.paper(1024)
    assert p.delta == 50 + 1000 * 10
    assert p.hash_range == 1000 * p.delta ** 2
    assert p.locate_bound == 10 ** 10 * 10 ** 4
    p.validate()


def test_window_plan_geometry():
    plan = WindowPlan(100, 10)
    assert plan.block == 21
    assert plan.t == 5
    assert plan.primary[0] == (1, 21) and plan.primary[-1] == (85, 105)
    assert plan.shifted[0] == (11, 31)
    assert plan.interval_for((1, 9)) == (1, 0)
    assert plan.interval_for((15, 24)) == (2, 0)   # straddles a block boundary
    assert plan.interval_for((96, 100)) == (1, 4)  # inside the padded tail


def test_inner_sketch_example():
    bits = (0, 1, 0, 1)
    sk = inner_sketch(bits, 4)
    # components (6 mod 5, 5 mod 9) packed to 3 + 4 bits
    assert sk == (0, 0, 1) + (0, 1, 0, 1)
    assert inner_sketch((0,) * 4, 4) == (0,) * 7


@pytest.mark.parametrize("length", [4, 6, 8, 10])
def test_inner_sketch_pins_down_the_source(length):
    """Exhaustively: the sketch plus the corrupted window identify the source
    under one deletion or one adjacent transposition."""
    seen = {}
    for z in binary_words(length):
        sk = inner_sketch(z.symbols, length)
        for y in {apply(z, Deletion(d)).symbols for d in range(1, length + 1)}:
            seen.setdefault((sk, y), set()).add(z.symbols)
        swaps = {z.symbols}
        for k in range(1, length):
            if z.symbols[k - 1] != z.symbols[k]:
                swaps.add(apply(z, Transposition(k)).symbols)
        for y in swaps:
            seen.setdefault((sk, y), set()).add(z.symbols)
    assert all(len(sources) == 1 for sources in seen.values())
    rng = random.Random(length)
    for _ in range(50):
        z = Word(tuple(rng.getrandbits(1) for _ in range(length)), 2)
        sk = inner_sketch(z.symbols, length)
        d = rng.randrange(1, length + 1)
        assert inner_correct(apply(z, Deletion(d)).symbols, sk, length) == z.symbols
        ks = [k for k in range(1, length) if z.symbols[k - 1] != z.symbols[k]]
        if ks:
            y = apply(z, Transposition(rng.choice(ks)))
            assert inner_correct(y.symbols, sk, length) == z.symbols
        assert inner_correct(z.symbols, sk, length) == z.symbols


def _brute_force_inner_correct(window, sketch, length):
    """Reference deletion repair: all 2L insertions, each checked with a
    full inner sketch."""
    found = set()
    for i in range(length):
        for b in (0, 1):
            cand = window[:i] + (b,) + window[i:]
            if inner_sketch(cand, length) == sketch:
                found.add(cand)
    if len(found) != 1:
        raise DecodeFailure(f"deletion repair admits {len(found)} candidates")
    return found.pop()


def _repair_or_failure(repair, window, sketch, length):
    try:
        return repair(window, sketch, length)
    except DecodeFailure:
        return DecodeFailure


@pytest.mark.parametrize("length", range(1, 11))
def test_deletion_repair_matches_brute_force_exhaustively(length):
    for z in binary_words(length):
        sk = inner_sketch(z.symbols, length)
        for y in {apply(z, Deletion(d)).symbols for d in range(1, length + 1)}:
            assert inner_correct(y, sk, length) == \
                _brute_force_inner_correct(y, sk, length) == z.symbols


def test_deletion_repair_matches_brute_force_on_unrelated_sketches():
    """A sketch of some other word, or arbitrary sketch bits, usually admits
    no insertion; both repairs must then fail alike."""
    rng = random.Random(37)
    failures = 0
    for _ in range(3000):
        length = rng.randrange(2, 40)
        y = tuple(rng.getrandbits(1) for _ in range(length - 1))
        if rng.random() < 0.5:
            other = tuple(rng.getrandbits(1) for _ in range(length))
            sk = inner_sketch(other, length)
        else:
            sk = tuple(rng.getrandbits(1) for _ in range(inner_fields(length).width))
        got = _repair_or_failure(inner_correct, y, sk, length)
        assert got == _repair_or_failure(_brute_force_inner_correct, y, sk, length)
        failures += got is DecodeFailure
    assert 1000 <= failures < 3000


def test_window_sketches_degenerate_plan():
    plan = WindowPlan(10, 10)
    assert plan.t == 1
    word = Word.parse("0100110011")
    g1_hat, g2_hat = window_sketches(word, plan)
    padded = word.symbols + (0,) * (plan.block - 10)
    assert g1_hat == inner_sketch(padded, plan.block)
    assert g2_hat is None


def test_window_sketches_xor_cancellation():
    plan = WindowPlan(42, 10)
    word = Word(tuple([0, 1] * 21), 2)
    g1_hat, _ = window_sketches(word, plan)
    sks = [inner_sketch(word.symbols[a - 1:b] + (0,) * max(0, b - 42), plan.block)
           for a, b in plan.primary]
    acc = sks[0]
    for sk in sks[1:]:
        acc = tuple(x ^ y for x, y in zip(acc, sk))
    assert acc == g1_hat


def test_candidates_enumeration():
    words = enumerate_candidates(12, 5)
    assert all(len(w) == 12 for w in words)
    for w in words:
        segs = segment(w)
        assert all(4 <= len(s) <= 5 for s in segs)
    assert len(set(w.symbols for w in words)) == len(words)
    # compositions of 12 into {4,5}: 4+4+4 only
    assert len(words) == 1


def test_desk_code_build_and_membership(desk_code):
    code = desk_code
    assert code.codewords
    for x in code.codewords:
        segs = segment(x)
        assert all(len(s.symbols) <= code.params.delta for s in segs)
        sk, hx = segment_sketches(x, code.params, code.hash)
        assert (sk.f, sk.g1, sk.g2) == \
            (code.target.f, code.target.g1, code.target.g2)
    for a in code.multisets:
        for b in code.multisets:
            assert a == b or multiset_distance(a, b) >= 10


def test_desk_code_corrects_everything(desk_code):
    code = desk_code
    n = code.params.n
    for x in code.codewords:
        assert code.decode(x) == x
        for d in range(1, n + 1):
            assert code.decode(apply(x, Deletion(d))) == x
        for k in range(1, n):
            if x.symbols[k - 1] == x.symbols[k]:
                continue
            assert code.decode(apply(x, Transposition(k))) == x


def test_desk_decode_of_random_words_raises_only_decode_failure(desk_code):
    rng = random.Random(29)
    n = desk_code.params.n
    for _ in range(1000):
        length = rng.choice((n - 1, n))
        y = Word(tuple(rng.getrandbits(1) for _ in range(length)), 2)
        try:
            desk_code.decode(y)
        except DecodeFailure:
            pass


def test_desk_code_unique_decodability(desk_code):
    report = verify_code(desk_code.codewords,
                         ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION, 1)
    assert report.ok


def test_locate_windows_contain_the_error(desk_code):
    code = desk_code
    n = code.params.n
    for x in code.codewords:
        sk, hx = segment_sketches(x, code.params, code.hash)
        for d in range(1, n + 1):
            y = apply(x, Deletion(d))
            loc = locate(y, code.target, hx, code.params, code.hash)
            assert not loc.clean
            lo, hi = loc.window
            assert hi - lo + 1 <= loc.bound <= code.params.locate_bound
            assert any(lo <= dd <= hi for dd in equivalent_deletions(x, y))
        for k in range(1, n):
            if x.symbols[k - 1] == x.symbols[k]:
                continue
            loc = locate(apply(x, Transposition(k)), code.target, hx,
                         code.params, code.hash)
            assert not loc.clean
            assert loc.window[0] <= k <= loc.window[1]
            assert loc.window[1] - loc.window[0] + 1 <= loc.bound
        loc = locate(x, code.target, hx, code.params, code.hash)
        assert loc.clean and loc.window is None


def _phi_steps(terms, k, factor, offset):
    ly = len(terms)
    values = []
    for i in range(ly, 0, -1):
        suffix = sum(terms[j - 1] for j in range(i + offset + 1, ly + 1))
        values.append(factor * suffix + i * k)
    return values


def test_phi_scan_steps_are_large(desk_code):
    """Consecutive potential values move by at least the per-case floor."""
    code = desk_code
    h = code.hash
    m = h.hash_range
    x = code.codewords[0]
    sk, hx = segment_sketches(x, code.params, code.hash)
    n = code.params.n
    for d in range(1, n + 1):
        y = apply(x, Deletion(d))
        segs, residue = segment_lenient(y)
        if residue or len(segs) != len(hx) - 1:
            continue
        from syncodec.deltrans import _hash_segments, _multiset_delta
        hashes, terms = _hash_segments(segs, h)
        k = m + _multiset_delta(hx, hashes)
        values = _phi_steps(terms, k, 1, 0)
        for a, b in zip(values, values[1:]):
            assert b - a >= m


BIG_DELTA = 12


def _big_profile_word(rng, n):
    fillers = [(1, 0, 1, 0, 0, 1, 1), (0, 1, 1, 0, 0, 1, 1),
               (1, 1, 1, 0, 0, 1, 1), (0, 0, 0, 1, 1, 0, 0, 1, 1)]
    split_del = (0, 0, 1, 0, 1, 0, 0, 1, 1)
    split2 = (0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1)
    bits = []
    anchors = {}
    while len(bits) < n // 3:
        bits.extend(fillers[rng.randrange(len(fillers))])
    anchors["split_del"] = len(bits)
    bits.extend(split_del)
    while len(bits) < 2 * n // 3:
        bits.extend(fillers[rng.randrange(len(fillers))])
    anchors["split2"] = len(bits)
    bits.extend(split2)
    while len(bits) < n - 4:
        bits.extend(fillers[rng.randrange(len(fillers))])
    bits.extend((0, 0, 1, 1))
    return Word(tuple(bits), 2), anchors


@pytest.fixture(scope="module")
def big_profile():
    rng = random.Random(5)
    h = ClosedFormHash(BIG_DELTA)
    word, anchors = _big_profile_word(rng, 2000)
    n = len(word)
    params = DeltransParams.desk(n, BIG_DELTA, h.hash_range)
    plan = WindowPlan(n, params.locate_bound)
    sk, hx = segment_sketches(word, params, h)
    hats = window_sketches(word, plan)
    return word, anchors, params, plan, sk, hx, hats, h


def test_big_profile_has_two_interval_families(big_profile):
    _, _, params, plan, *_ = big_profile
    assert plan.t >= 2


def test_big_profile_split_cases(big_profile):
    x, anchors, params, plan, sk, hx, hats, h = big_profile
    y = apply(x, Deletion(anchors["split_del"] + 4))
    assert locate(y, sk, hx, params, h).case == "split-del"
    assert correct(y, sk, hx, hats, plan, params, h) == x
    y = apply(x, Transposition(anchors["split2"] + 4))
    assert locate(y, sk, hx, params, h).case == "split2-trans"
    assert correct(y, sk, hx, hats, plan, params, h) == x


def test_big_profile_terminal_cases(big_profile):
    x, _, params, plan, sk, hx, hats, h = big_profile
    n = len(x)
    for y in (apply(x, Deletion(n)), apply(x, Deletion(n - 1)),
              apply(x, Transposition(n - 2))):
        loc = locate(y, sk, hx, params, h)
        assert loc.case == "terminal"
        assert correct(y, sk, hx, hats, plan, params, h) == x


def test_big_profile_random_errors(big_profile):
    x, _, params, plan, sk, hx, hats, h = big_profile
    n = len(x)
    rng = random.Random(31)
    cases = set()
    for d in rng.sample(range(1, n + 1), 25):
        y = apply(x, Deletion(d))
        loc = locate(y, sk, hx, params, h)
        cases.add(loc.case)
        assert any(loc.window[0] <= dd <= loc.window[1]
                   for dd in equivalent_deletions(x, y))
        assert loc.window[1] - loc.window[0] + 1 <= loc.bound
        assert correct(y, sk, hx, hats, plan, params, h) == x
    swaps = [k for k in range(1, n) if x.symbols[k - 1] != x.symbols[k]]
    for k in rng.sample(swaps, 25):
        y = apply(x, Transposition(k))
        loc = locate(y, sk, hx, params, h)
        cases.add(loc.case)
        assert loc.window[0] <= k <= loc.window[1]
        assert correct(y, sk, hx, hats, plan, params, h) == x
    assert "same" in cases and any(c.startswith("merge") for c in cases)


def test_big_profile_boundary_errors_use_shifted_family(big_profile):
    x, _, params, plan, sk, hx, hats, h = big_profile
    block = plan.block
    families = set()
    for d in range(block - 2, block + 3):
        y = apply(x, Deletion(d))
        loc = locate(y, sk, hx, params, h)
        families.add(plan.interval_for(loc.window)[0])
        assert correct(y, sk, hx, hats, plan, params, h) == x
    assert 2 in families


def _random_marker_word(rng, options, n):
    """Marker-terminal word of about n bits, one random segment at a time."""
    bits = []
    while len(bits) < n - 4:
        bits.extend(rng.choice(options[rng.randint(4, BIG_DELTA)]))
    return Word(tuple(bits), 2)


def _run_around(bits, d):
    """Positions (1-based, inclusive) of the run holding position d: deleting
    any of them gives the same word."""
    lo = hi = d
    while lo > 1 and bits[lo - 2] == bits[d - 1]:
        lo -= 1
    while hi < len(bits) and bits[hi] == bits[d - 1]:
        hi += 1
    return lo, hi


def _random_error(rng, bits, first):
    """A deletion or an adjacent transposition at position first or later."""
    if rng.random() < 0.5:
        return Deletion(rng.randint(first, len(bits)))
    while True:
        k = rng.randint(first, len(bits) - 1)
        if bits[k - 1] != bits[k]:
            return Transposition(k)


def _marker_forming_deletions(bits):
    """Deletions that close up 01011 or 00101 into a new marker 0011."""
    out = []
    for i in range(len(bits) - 4):
        if bits[i:i + 5] == (0, 1, 0, 1, 1):
            out.append(i + 2)
        elif bits[i:i + 5] == (0, 0, 1, 0, 1):
            out.append(i + 4)
    return out


def test_big_sweep_random_words():
    """Random n ~ 2000 words from segments of at most BIG_DELTA bits.  Per
    word: two errors among its last 9 bits, one deletion that forms a new
    marker, and uniform deletions and adjacent transpositions.  locate keeps
    every error inside its window and correct() restores the word, across
    every locate case but split2-trans (test_big_profile_split_cases)."""
    rng = random.Random(47)
    h = ClosedFormHash(BIG_DELTA)
    options = {length: _segment_options(length) for length in range(4, BIG_DELTA + 1)}
    cases = set()
    for _ in range(6):
        x = _random_marker_word(rng, options, 2000)
        n = len(x)
        params = DeltransParams.desk(n, BIG_DELTA, h.hash_range)
        plan = WindowPlan(n, params.locate_bound)
        sk, hx = segment_sketches(x, params, h)
        hats = window_sketches(x, plan)
        errors = [_random_error(rng, x.symbols, n - 8) for _ in range(2)]
        errors.append(Deletion(rng.choice(_marker_forming_deletions(x.symbols))))
        errors += [_random_error(rng, x.symbols, 1) for _ in range(87)]
        for e in errors:
            y = apply(x, e)
            if isinstance(e, Deletion):
                lo, hi = _run_around(x.symbols, e.position)
            else:
                lo = hi = e.position
            loc = locate(y, sk, hx, params, h)
            cases.add(loc.case)
            assert loc.window[0] <= hi and lo <= loc.window[1]
            assert loc.window[1] - loc.window[0] + 1 <= loc.bound
            assert correct(y, sk, hx, hats, plan, params, h) == x
    assert cases == {"same", "merge-del", "merge-trans", "split-del",
                     "split-trans", "merge2-trans", "terminal"}


def test_segment_cap_probability_paper_profile():
    params = DeltransParams.paper(1024)
    prob = segment_cap_probability(1024, params.delta, 2000, seed=99)
    assert prob >= 0.5 - 0.02
