import dataclasses
import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from conftest import quaternary_words
import syncodec.edit4 as edit4
from syncodec.edit4 import (
    Edit4Code,
    Edit4Params,
    Edit4Sketches,
    codewords_for_target,
    correct_edit,
    enumerate_sketch_space,
    is_codeword,
    is_regular,
    largest_class,
    regular_fraction,
    rll_decode,
    rll_encode,
    search_best_target,
    size_lower_bound,
    sketches,
)
from syncodec.errors import (
    AlphabetError,
    DecodeFailure,
    MalformedEncodingError,
    NoCandidateError,
    SizeGuardError,
)
from syncodec.inner import (
    bits_to_int,
    int_to_bits,
    quaternary_to_bits,
    rep_decode,
    rep_encode,
)
from syncodec.sketches import signed_residue
from syncodec.words import (
    Deletion,
    ErrorModel,
    Insertion,
    Substitution,
    Word,
    apply,
    forward_images,
    patterns,
    reaches,
)


def test_params_formulas():
    p = Edit4Params.for_length(8)
    assert p.log_n == 3
    assert p.weights == (0, 1, 17, 18)
    assert p.modulus == 1 + 2 * 8 * 18
    p = Edit4Params.for_length(6)  # non-power-of-two lengths take the ceiling
    assert p.log_n == 3


def test_params_refuse_lengths_whose_sums_overflow():
    """Every sum is at most (n+1)(n+2)/2 max(w), exact in int64 at n = 2^28;
    one symbol more is refused.  Neither call allocates a word."""
    n = 2 ** 28
    p = Edit4Params.for_length(n)
    assert (n + 1) * (n + 2) // 2 * max(p.weights) < 2 ** 63
    with pytest.raises(SizeGuardError):
        Edit4Params.for_length(n + 1)


def test_regularity_examples():
    params = Edit4Params.for_length(16)  # run_cap = 7
    assert is_regular(Word.parse("2121212121212121", 4), params)
    assert not is_regular(Word((0,) * 16, 4), params)
    assert is_regular(Word.parse("0123" * 4, 4), params)
    # the cap is inclusive: 7 zeros in the 0/2 projection pass, 8 do not
    assert is_regular(Word.parse("0" * 7 + "2" + "0" * 7 + "2", 4), params)
    assert not is_regular(Word.parse("0" * 8 + "2" * 8, 4), params)


def test_regularity_checks_both_projections():
    params = Edit4Params.for_length(16)
    # long 3-run hidden inside the 1/3 projection
    word = Word.parse("3131" + "3" * 8 + "0123", 4)
    assert not is_regular(word, params)
    # the 3s between the 0s are not in the 0/2 projection, so its run is 8
    assert not is_regular(Word.parse("03" * 8, 4), params)


@pytest.mark.parametrize("n", range(1, 7))
def test_is_regular_matches_the_vectorised_mask_exhaustively(n):
    """is_regular (two substring searches) and _regular_mask (running
    counters over all 4^n words at once) agree on every word, at the
    length's own run cap, which no word this short exceeds, and at every
    smaller cap."""
    words = list(quaternary_words(n))
    symbols = np.array([list(w.raw) for w in words], dtype=np.int8)
    own = Edit4Params.for_length(n)
    for cap in range(own.run_cap + 1):
        params = dataclasses.replace(own, log_n=cap - 3)  # run_cap = cap
        mask = edit4._regular_mask(symbols, cap)
        assert [is_regular(w, params) for w in words] == mask.tolist()


def test_sketches_and_membership():
    params = Edit4Params.for_length(4)
    word = Word.parse("1203", 4)
    sk = sketches(word, params)
    w = params.weights.__getitem__
    assert sk.f == (1 * w(1) + 2 * w(2) + 3 * w(0) + 4 * w(3)) % params.modulus
    assert (sk.h0, sk.h1, sk.h2) == (1, 1, 1)
    assert is_codeword(word, params, sk) == is_regular(word, params)
    assert not is_codeword(word, params, sketches(Word.parse("0000", 4), params))
    # a word longer than the cached positions 1..n+2 reads positions of its own
    for text in ("120312", "1203120", "12031203123"):
        longer = Word.parse(text, 4)
        assert sketches(longer, params) == _reference_sketches(longer, params)


@pytest.mark.parametrize("n", [5, 6])
def test_correctors_round_trip_exhaustively(n):
    """Any single edit on a regular word is undone given that word's sketches."""
    params = Edit4Params.for_length(n)
    for x in quaternary_words(n):
        if not is_regular(x, params):
            continue
        target = sketches(x, params)
        assert correct_edit(x, target, params) == x
        for p in patterns(x, ErrorModel.SINGLE_EDIT):
            assert correct_edit(apply(x, p), target, params) == x


def test_corrector_error_paths():
    params = Edit4Params.for_length(5)
    x = Word.parse("01230", 4)
    target = sketches(x, params)
    with pytest.raises(NoCandidateError):
        correct_edit(Word.parse("11111", 4), target, params)
    with pytest.raises(NoCandidateError):
        correct_edit(Word.parse("2222", 4), target, params)
    # the count parities point at a symbol y does not contain at all
    from syncodec.edit4 import Edit4Sketches
    odd_zeros = Edit4Sketches(0, 1, 1, 1)
    with pytest.raises(NoCandidateError):
        correct_edit(Word.parse("121212", 4), odd_zeros, params)


def test_localization_gap_never_ambiguous():
    """The bound |i (w(b)-w(a))| < N/2 holds for any length, so the division
    step of the substitution corrector has a unique answer."""
    for k in range(1, 21):
        n = 2 ** k
        params = Edit4Params.for_length(n)
        worst = n * (params.weights[3] - params.weights[0])
        assert 2 * worst < params.modulus


@pytest.mark.parametrize("m", range(0, 9))
def test_rll_round_trip_exhaustive(m):
    params = Edit4Params.for_length(m + 4)
    for z in quaternary_words(m):
        x = rll_encode(z)
        assert len(x) == m + 4
        assert rll_decode(x) == z
        assert is_regular(x, params)


def test_rll_round_trip_randomized():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randrange(0, 65)
        z = Word(tuple(rng.randrange(4) for _ in range(m)), 4)
        x = rll_encode(z)
        assert rll_decode(x) == z
        assert is_regular(x, Edit4Params.for_length(m + 4))


def _quadratic_rll_pack(seq, zero_digit, one_digit):
    """Reference packer: the same replacements, but every search restarts
    at index 0 (quadratic).  Returns the packed list and the number of runs
    it replaced.
    """
    m = len(seq)
    out = list(seq) + [one_digit, zero_digit]
    if m == 0:
        return out, 0
    cap = (m - 1).bit_length() + 2
    run = [zero_digit] * cap
    replaced = 0
    while True:
        start = next((i for i in range(len(out) - cap + 1)
                      if out[i:i + cap] == run), None)
        if start is None:
            return out, replaced
        del out[start:start + cap]
        out.extend(one_digit if b else zero_digit for b in int_to_bits(start, cap - 2))
        out.extend([one_digit, one_digit])
        replaced += 1


def _reference_rll_encode(z):
    """rll_encode over the reference packer."""
    m = len(z)
    low_slots = [i for i, s in enumerate(z.symbols) if s in (0, 2)] + [m, m + 1]
    packed_low, low_runs = _quadratic_rll_pack(
        [s for s in z.symbols if s in (0, 2)], 0, 2)
    packed_high, high_runs = _quadratic_rll_pack(
        [s for s in z.symbols if s in (1, 3)], 3, 1)
    out = [0] * (m + 4)
    high_slots = sorted(set(range(m + 4)) - set(low_slots))
    for slot, s in zip(low_slots, packed_low):
        out[slot] = s
    for slot, s in zip(high_slots, packed_high):
        out[slot] = s
    return Word(tuple(out), 4), low_runs + high_runs


def _run_heavy_message(rng, m):
    return Word(tuple(rng.choices((0, 3, 1, 2), weights=(9, 9, 1, 1), k=m)), 4)


def test_rll_encode_matches_quadratic_packer_on_run_heavy_messages():
    """Long 0- and 3-runs force several replacements per projection,
    including runs that re-form across a deleted span."""
    rng = random.Random(41)
    most_runs = 0
    for m in range(0, 201):
        for _ in range(3):
            z = _run_heavy_message(rng, m)
            expected, runs = _reference_rll_encode(z)
            assert rll_encode(z) == expected
            most_runs = max(most_runs, runs)
    assert most_runs >= 10


def test_rll_decode_rejects_malformed():
    with pytest.raises(MalformedEncodingError):
        rll_decode(Word.parse("2222", 4))
    for short in ("", "0", "02", "021"):
        with pytest.raises(MalformedEncodingError, match="shorter than the fixed"):
            rll_decode(Word.parse(short, 4))
    # an empty projection with a marker suffix, slots that do not match the
    # projection lengths, a suffix out of place, and a 0/2 projection that
    # still holds a run of cap = 3 zeros
    for text in ("1120", "10203", "1203", "00002013"):
        with pytest.raises(MalformedEncodingError):
            rll_decode(Word.parse(text, 4))
    # every word rll_decode accepts is the encoding of what it returns
    for n in range(4, 10):
        for word in quaternary_words(n):
            try:
                z = rll_decode(word)
            except MalformedEncodingError:
                continue
            assert rll_encode(z) == word


def test_rll_decode_rejects_markers_out_of_packing_order():
    """Above length 10 a projection holds two markers.  Flipping digits of
    encodings of run-heavy messages yields marker chains that _rll_pack
    never emits; rll_decode must reject each one it cannot re-encode."""
    rng = random.Random(43)
    accepted = 0
    for _ in range(3000):
        x = rll_encode(_run_heavy_message(rng, rng.randrange(8, 80)))
        symbols = list(x.symbols)
        for i in rng.sample(range(len(symbols)), 3):
            symbols[i] ^= 2  # 0 <-> 2 and 1 <-> 3 keep both projections' lengths
        y = Word(tuple(symbols), 4)
        try:
            z = rll_decode(y)
        except MalformedEncodingError:
            continue
        accepted += 1
        assert rll_encode(z) == y
    assert accepted >= 500


def test_rep_guard_all_single_edits():
    payload = bytes((0, 3, 1, 2))
    tail = rep_encode(payload)
    x = Word(tail, 4)
    for p in patterns(x, ErrorModel.SINGLE_EDIT):
        window = apply(x, p).raw
        assert rep_decode(window, len(payload)) == payload
    assert rep_decode(tail, len(payload)) == payload
    # a missing or an extra symbol at the front is just as recoverable
    assert rep_decode(tail[1:], len(payload)) == payload
    assert rep_decode(bytes((2,)) + tail, len(payload)) == payload


@pytest.mark.parametrize("m", [0, 1, 3, 7])
def test_pipeline_every_single_edit(m):
    rng = random.Random(m)
    codec = Edit4Code(m)
    messages = list(quaternary_words(m)) if m <= 3 else [
        Word(tuple(rng.randrange(4) for _ in range(m)), 4) for _ in range(8)]
    for z in messages:
        x = codec.encode(z)
        assert len(x) == codec.n_total
        assert codec.decode(x) == z
        for p in patterns(x, ErrorModel.SINGLE_EDIT):
            assert codec.decode(apply(x, p)) == z


def test_pipeline_larger_message_sampled():
    rng = random.Random(17)
    codec = Edit4Code(32)
    for _ in range(30):
        z = Word(tuple(rng.randrange(4) for _ in range(32)), 4)
        x = codec.encode(z)
        pats = list(patterns(x, ErrorModel.SINGLE_EDIT))
        for p in rng.sample(pats, 20):
            assert codec.decode(apply(x, p)) == z


def test_decode_of_random_words_raises_only_decode_failure():
    rng = random.Random(23)
    codec = Edit4Code(16)
    for _ in range(1000):
        n = codec.n_total + rng.choice((-1, 0, 1))
        y = Word(tuple(rng.randrange(4) for _ in range(n)), 4)
        try:
            codec.decode(y)
        except DecodeFailure:
            pass


def test_search_best_target_matches_slow_enumeration():
    n = 4
    params = Edit4Params.for_length(n)
    buckets = {}
    for w in quaternary_words(n):
        if is_regular(w, params):
            buckets.setdefault(sketches(w, params).astuple(), []).append(w)
    best_size = max(len(v) for v in buckets.values())
    best_key = min(k for k, v in buckets.items() if len(v) == best_size)
    target, size = search_best_target(n)
    assert size == best_size
    assert target.astuple() == best_key
    assert {w.symbols for w in codewords_for_target(n, target)} == \
        {w.symbols for w in buckets[best_key]}
    assert largest_class(n) == (target, codewords_for_target(n, target))


# SHA-256 of the seeded Edit4Code encodings that encodings_digest hashes
ENCODINGS_SHA256 = "eb12d95ec458257de592af4d5658f7b9d232727a30eb52352f985c3b3663e544"


def encodings_digest():
    rng = random.Random(2021)
    h = hashlib.sha256()
    for m in (0, 1, 7, 64, 4096):
        codec = Edit4Code(m)
        for _ in range(4):
            z = Word(bytes(rng.randrange(4) for _ in range(m)), 4)
            h.update(codec.encode(z).raw + b"\n")
    return h.hexdigest()


def test_encodings_digest():
    """The codeword bytes are pinned: a change to them is a format change."""
    assert encodings_digest() == ENCODINGS_SHA256


def test_size_lower_bound_held_at_small_n():
    for n in (6, 8):
        _, size = search_best_target(n)
        num, den = size_lower_bound(n)
        assert size * den >= num


def test_regular_fraction_sampler():
    assert regular_fraction(64, 20000, seed=5) >= 7 / 8 - 0.02


# The per-symbol loops that the array code in edit4 replaced, kept as
# references: the weighted VT sum, the three correctors' scans and the
# runlength decoder with its iterator interleave.  _reference_rll_encode above
# is the list-and-set encoder over the quadratic packer.

def _reference_sketches(word, params):
    w = params.weights
    f = sum(i * w[s] for i, s in enumerate(word.symbols, start=1)) % params.modulus
    s = word.symbols
    return Edit4Sketches(f, s.count(0) & 1, s.count(1) & 1, s.count(2) & 1)


def _flipped_parities(y, target):
    return [c for c, h in enumerate((target.h0, target.h1, target.h2))
            if y.symbols.count(c) & 1 != h]


def _reference_correct_substitution(y, target, params):
    if len(y) != params.n:
        raise NoCandidateError("length")
    flipped = _flipped_parities(y, target)
    f_y = _reference_sketches(y, params).f
    diff = signed_residue(target.f - f_y, params.modulus)
    if not flipped:
        if diff != 0:
            raise NoCandidateError("vt")
        return y
    if len(flipped) == 2:
        lo, hi = flipped
    elif len(flipped) == 1:
        lo, hi = flipped[0], 3
    else:
        raise NoCandidateError("three")
    w = params.weights.__getitem__
    a, b = (lo, hi) if diff < 0 else (hi, lo)
    step = abs(w(b) - w(a))
    if abs(diff) % step:
        raise NoCandidateError("gap")
    i = abs(diff) // step
    if not 1 <= i <= params.n or y.symbols[i - 1] != b:
        raise NoCandidateError("position")
    x = Word(y.symbols[:i - 1] + (a,) + y.symbols[i:], 4)
    if _reference_sketches(x, params) != target:
        raise NoCandidateError("check")
    return x


def _reference_correct_deletion(y, target, params):
    n = params.n
    if len(y) != n - 1:
        raise NoCandidateError("length")
    flipped = _flipped_parities(y, target)
    if len(flipped) > 1:
        raise NoCandidateError("parities")
    a = flipped[0] if flipped else 3
    w = params.weights.__getitem__
    f_y = _reference_sketches(y, params).f
    f_ins = (f_y + n * w(a)) % params.modulus
    for j in range(n, 0, -1):
        if (target.f - f_ins) % params.modulus == 0:
            x = Word(y.symbols[:j - 1] + (a,) + y.symbols[j - 1:], 4)
            if _reference_sketches(x, params) != target:
                raise NoCandidateError("check")
            return x
        if j > 1:
            f_ins = (f_ins - w(a) + w(y.symbols[j - 2])) % params.modulus
    raise NoCandidateError("scan")


def _reference_correct_insertion(y, target, params):
    n = params.n
    if len(y) != n + 1:
        raise NoCandidateError("length")
    flipped = _flipped_parities(y, target)
    if len(flipped) > 1:
        raise NoCandidateError("parities")
    a = flipped[0] if flipped else 3
    w = params.weights.__getitem__
    f_y = _reference_sketches(y, params).f
    suffix_weight = 0
    for j in range(n + 1, 0, -1):
        if y.symbols[j - 1] == a:
            f_del = (f_y - j * w(a) - suffix_weight) % params.modulus
            if (target.f - f_del) % params.modulus == 0:
                x = Word(y.symbols[:j - 1] + y.symbols[j:], 4)
                if _reference_sketches(x, params) != target:
                    raise NoCandidateError("check")
                return x
        suffix_weight += w(y.symbols[j - 1])
    raise NoCandidateError("scan")


def _reference_correct_edit(y, target, params):
    corrector = {params.n: _reference_correct_substitution,
                 params.n - 1: _reference_correct_deletion,
                 params.n + 1: _reference_correct_insertion}.get(len(y))
    if corrector is None:
        raise NoCandidateError("length")
    return corrector(y, target, params)


def _list_rll_unpack(seq, zero_digit, one_digit):
    if len(seq) < 2:
        raise MalformedEncodingError("short")
    m = len(seq) - 2
    cap = (m - 1).bit_length() + 2
    if bytes(seq).find(bytes((zero_digit,)) * cap) >= 0:
        raise MalformedEncodingError("run")
    out = list(seq)
    later = len(seq)
    for _ in range(len(seq) + 1):
        if out[-1] == zero_digit:
            if out[-2] != one_digit:
                raise MalformedEncodingError("terminator")
            return out[:-2]
        if len(out) < cap or out[-2] != one_digit:
            raise MalformedEncodingError("suffix")
        bits = []
        for d in out[-cap:-2]:
            if d not in (zero_digit, one_digit):
                raise MalformedEncodingError("digit")
            bits.append(int(d == one_digit))
        start = bits_to_int(bytes(bits))
        del out[-cap:]
        if start > len(out):
            raise MalformedEncodingError("index")
        if start > later or start and out[start - 1] == zero_digit:
            raise MalformedEncodingError("order")
        later = start
        out[start:start] = [zero_digit] * cap
    raise MalformedEncodingError("unwinding")


def _reference_rll_decode(x):
    if len(x) < 4:
        raise MalformedEncodingError("short")
    m = len(x) - 4
    if x.symbols[m] % 2 or x.symbols[m + 1] % 2 or \
            not x.symbols[m + 2] % 2 or not x.symbols[m + 3] % 2:
        raise MalformedEncodingError("slots")
    it_low = iter(_list_rll_unpack([s for s in x.symbols if s in (0, 2)], 0, 2))
    it_high = iter(_list_rll_unpack([s for s in x.symbols if s in (1, 3)], 3, 1))
    return Word(tuple(next(it_low) if s in (0, 2) else next(it_high)
                      for s in x.symbols[:m]), 4)


def _reference_encode(codec, z):
    x, _ = _reference_rll_encode(z)
    target = _reference_sketches(x, codec.params)
    return Word(x.raw + rep_encode(codec._serialize(target)), 4)


def _outcome(fn, *args):
    """What fn returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is over outcomes, types included
        return type(exc)


def test_scan_offsets_stay_below_the_modulus():
    """The deletion scan's offsets reach n max(w) and the insertion scan's
    (n + 1) max(w); both lie below the modulus, so matching them mod the
    modulus is exact equality, and the raw weighted VT sum of a word of
    length n + 1 fits in int64."""
    for k in range(1, 21):
        n = 2 ** k
        params = Edit4Params.for_length(n)
        top = max(params.weights)
        assert (n + 1) * top < params.modulus
        assert (n + 1) * (n + 2) // 2 * top < 2 ** 63


@pytest.mark.parametrize("n", range(1, 7))
def test_correctors_match_the_reference_loops_exhaustively(n):
    """Every regular word and each distinct single-edit image: the same word
    or the same exception as the loops, with the word's own sketches, and at
    n <= 5 with the sketches of an unrelated word too."""
    params = Edit4Params.for_length(n)
    words = [x for x in quaternary_words(n) if is_regular(x, params)]
    for index, x in enumerate(words):
        target = sketches(x, params)
        assert target == _reference_sketches(x, params)
        targets = [target]
        if n <= 5:
            targets.append(sketches(words[(7 * index + 3) % len(words)], params))
        for y in forward_images(x, ErrorModel.SINGLE_EDIT):
            for t in targets:
                assert _outcome(correct_edit, y, t, params) == \
                    _outcome(_reference_correct_edit, y, t, params)


@pytest.mark.parametrize("n", range(1, 5))
def test_corrector_matches_the_reference_loops_on_every_received_word(n):
    """Every 4-ary word of length n - 1, n and n + 1, most of them outside
    the single-edit ball of every codeword of the target: the same word or
    the same exception as the loops.  The targets are the sketches of the
    regular words of length n, every distinct one up to n = 3 and a seeded
    sample of 32 at n = 4."""
    params = Edit4Params.for_length(n)
    targets = sorted({sketches(x, params).astuple()
                      for x in quaternary_words(n) if is_regular(x, params)})
    if n == 4:
        targets = random.Random(47).sample(targets, 32)
    received = [y for length in (n - 1, n, n + 1) for y in quaternary_words(length)]
    for fields in targets:
        t = Edit4Sketches(*fields)
        for y in received:
            assert _outcome(correct_edit, y, t, params) == \
                _outcome(_reference_correct_edit, y, t, params)


@pytest.mark.parametrize("n", range(4, 9))
def test_rll_decode_matches_the_reference_loops_on_every_word(n):
    for x in quaternary_words(n):
        assert _outcome(rll_decode, x) == _outcome(_reference_rll_decode, x)


def _sweep_edits(rng, codec, word):
    """Single edits of a word of length n_total at both of its ends, at both
    ends of the payload, in the tail and at random."""
    n, payload = codec.n_total, codec.m + 4
    spots = sorted({1, 2, payload - 1, payload, payload + 1,
                    payload + rng.randrange(1, codec.tail_len), n - 1, n,
                    rng.randint(1, payload)})
    for i in spots:
        yield Deletion(i)
        yield Substitution(i, (word.symbols[i - 1] + rng.randint(1, 3)) % 4)
        yield Insertion(i, rng.randrange(4))
    yield Insertion(n + 1, rng.randrange(4))


@pytest.mark.parametrize("kind", ["uniform", "run-heavy"])
def test_edit4_4096_matches_the_reference_loops(kind):
    """Edit4Code(4096): encodings equal the loops' encodings; single edits
    decode to the message; the correctors and rll_decode give the loops'
    outcomes on the payload window of every single- and two-edit word."""
    rng = random.Random(f"edit4-4096-{kind}")
    codec = Edit4Code(4096)
    for _ in range(3):
        if kind == "uniform":
            z = Word(tuple(rng.choices(range(4), k=codec.m)), 4)
        else:
            z = _run_heavy_message(rng, codec.m)
        x = codec.encode(z)
        assert x == _reference_encode(codec, z)
        target = sketches(Word(x.symbols[:codec.m + 4], 4), codec.params)
        ys = [apply(x, p) for p in _sweep_edits(rng, codec, x)]
        assert all(codec.decode(y) == z for y in ys)
        ys += [apply(y, rng.choice(list(_sweep_edits(rng, codec, y))))
               for y in ys if len(y) == codec.n_total]
        for y in ys:
            window = Word(y.symbols[:len(y) - codec.tail_len], 4)
            got = _outcome(correct_edit, window, target, codec.params)
            assert got == _outcome(_reference_correct_edit, window, target,
                                   codec.params)
            if isinstance(got, Word):
                assert _outcome(rll_decode, got) == _outcome(_reference_rll_decode, got)


def _parity_edge_messages(m):
    """Messages whose projections are empty, full or run-heavy: all even,
    all odd, all 0 (the most low markers), all 3 (the most high markers)
    and alternating in parity."""
    for cycle in ((0, 2), (1, 3), (0,), (3,), (0, 1, 2, 3)):
        yield Word(tuple(itertools.islice(itertools.cycle(cycle), m)), 4)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4096])
def test_parity_order_edge_shapes_match_the_reference_loops(m):
    """The parity order's slices where one projection is empty or full:
    rll_encode, rll_decode and sketches agree with the loops, and at m <= 3
    so does rll_decode on every single-edit image of each encoding."""
    params = Edit4Params.for_length(m + 4)
    for z in _parity_edge_messages(m):
        x, _ = _reference_rll_encode(z)
        assert rll_encode(z) == x
        assert rll_decode(x) == _reference_rll_decode(x) == z
        assert sketches(x, params) == _reference_sketches(x, params)
        if m <= 3:
            for y in forward_images(x, ErrorModel.SINGLE_EDIT):
                assert _outcome(rll_decode, y) == _outcome(_reference_rll_decode, y)
                assert sketches(y, params) == _reference_sketches(y, params)


def _runless(rng, length, zero_digit, one_digit):
    """length seeded digits that start and end in one_digit and hold no three
    zero_digits in a row, so no projection cap (at least 4) is reached."""
    out = [one_digit]
    while len(out) < length - 1:
        out.append(zero_digit if out[-2:] != [zero_digit] * 2 and rng.random() < 0.6
                   else one_digit)
    return (out + [one_digit])[:length]


def _projection(rng, length, zero_digit, one_digit, run_at):
    """A projection with one run of cap zero_digits at its first slots
    (run_at "first"), ending at its last slot ("last"), or none (None)."""
    if run_at is None:
        return _runless(rng, length, zero_digit, one_digit)
    run = [zero_digit] * ((length - 1).bit_length() + 2)
    rest = _runless(rng, length - len(run), zero_digit, one_digit)
    return run + rest if run_at == "first" else rest + run


def _interleaved(rng, low, high):
    """The message whose even symbols spell low and odd ones spell high, in a
    seeded order."""
    parities = [0] * len(low) + [1] * len(high)
    rng.shuffle(parities)
    digits = (iter(low), iter(high))
    return Word(bytes(next(digits[p]) for p in parities), 4)


# where the low and the high projection hold a run: the first replaced run at
# a projection's first slot or ending at its last payload slot, in the low
# projection only, in the high one only, and in both
_RUN_SHAPES = (("first", None), ("last", None), (None, "first"), (None, "last"),
               ("first", "last"), ("last", "first"))


def _first_change(projection, zero_digit, one_digit):
    """The first index where the reference packer's output differs from the
    projection followed by its plain suffix, or None."""
    packed, _ = _quadratic_rll_pack(projection, zero_digit, one_digit)
    plain = list(projection) + [one_digit, zero_digit]
    return next((i for i, (a, b) in enumerate(zip(packed, plain)) if a != b), None)


def _images_near(x, slots):
    """The single-edit images of x whose edit lies within two symbols of one
    of the 0-based slots."""
    near = {i + 1 + k for i in slots for k in (-1, 0, 1, 2)}
    return {apply(x, p) for p in patterns(x, ErrorModel.SINGLE_EDIT)
            if p.position in near}


@pytest.mark.parametrize("m", [0, 1, 2, 3, 8, 13, 40, 4096])
def test_partial_write_back_matches_the_reference_loops(m):
    """rll_encode and rll_decode scatter a projection back only from the
    first symbol packing or unpacking changed.  On messages with each run
    shape of _RUN_SHAPES (at m <= 3, where no projection is long enough for a
    run, on every message) they give the loops' words, and rll_decode gives
    the loops' outcome, MalformedEncodingError included, on every
    single-edit image of each encoding; at m = 4096 on the images whose edit
    lies near a projection's first, first changed or last payload slot, its
    suffix slots or the end of its packed form."""
    rng = random.Random(f"write-back-{m}")
    if m <= 3:
        cases = [(z, (None, None)) for z in quaternary_words(m)]
    else:
        low_len = m // 2
        cases = [(_interleaved(rng, _projection(rng, low_len, 0, 2, low_at),
                               _projection(rng, m - low_len, 3, 1, high_at)),
                  (low_at, high_at)) for low_at, high_at in _RUN_SHAPES]
    for z, run_at in cases:
        x, _ = _reference_rll_encode(z)
        assert rll_encode(z) == x
        assert rll_decode(x) == _reference_rll_decode(x) == z
        near = [m, m + 3]
        for parity, (zero_digit, one_digit), at in zip((0, 1), ((0, 2), (3, 1)), run_at):
            projection = [s for s in z.symbols if s % 2 == parity]
            cap = (len(projection) - 1).bit_length() + 2
            first = _first_change(projection, zero_digit, one_digit)
            assert first == {None: None, "first": 0, "last": len(projection) - cap}[at]
            # the projection keeps z's slots of its parity and ends in two more
            slots = [i for i, s in enumerate(x.symbols) if s % 2 == parity]
            near += slots[:1] + slots[-cap - 2:] + ([slots[first]] if at else [])
        images = (forward_images(x, ErrorModel.SINGLE_EDIT) if m <= 40
                  else _images_near(x, near))
        for y in images:
            assert _outcome(rll_decode, y) == _outcome(_reference_rll_decode, y)


def test_tail_hit_answer_reaches_the_received_word():
    """A word whose tail comparison fails is decoded from its payload only if
    the payload's sketches are the recovered target and the tail part is
    within one edit of that target's tail; otherwise DecodeFailure."""
    codec = Edit4Code(28)
    rng = random.Random(29)
    z = Word(tuple(rng.choices(range(4), k=codec.m)), 4)
    x = codec.encode(z)
    tail_at = codec.m + 4
    # one substitution in the tail: the payload is intact
    one = apply(x, Substitution(tail_at + 1, (x.symbols[tail_at] + 1) % 4))
    assert codec.decode(one) == z
    # two substitutions in different repetition blocks of the tail
    two = apply(one, Substitution(len(x), (x.symbols[-1] + 1) % 4))
    with pytest.raises(DecodeFailure):
        codec.decode(two)
    # a payload substitution plus a tail one that breaks the tail comparison
    flipped = (x.symbols[0] + 2) % 4
    payload_hit = apply(one, Substitution(1, flipped))
    answer = _outcome(codec.decode, payload_hit)
    assert not isinstance(answer, Word) or \
        payload_hit in forward_images(codec.encode(answer), ErrorModel.SINGLE_EDIT)


def _reference_decode(codec, y):
    """Edit4Code.decode as it was with a separate tail-hit answer: a word
    whose tail part differs from the re-encoded tail is answered from its
    payload alone, after its own sketch check."""
    delta = len(y) - codec.n_total
    if delta not in (-1, 0, 1):
        raise DecodeFailure(
            f"length {len(y)} incompatible with n = {codec.n_total}")
    raw, n = y.raw, codec.m + 4
    window = raw[n:]
    bits = quaternary_to_bits(rep_decode(window, codec.tail_blocks))
    target = Edit4Sketches(*codec.fields.unpack(bits))
    expected_tail = rep_encode(codec._serialize(target))
    if raw[n + delta:] != expected_tail:
        payload = Word(raw[:n], 4)
        z = rll_decode(payload)
        if not reaches(expected_tail, window, ErrorModel.SINGLE_EDIT):
            raise DecodeFailure("tail is more than one edit from its guard")
        if sketches(payload, codec.params) != target:
            raise DecodeFailure("intact payload does not match the tail's sketches")
        return z
    x = correct_edit(Word(raw[:n + delta], 4), target, codec.params)
    return rll_decode(x)


@pytest.mark.parametrize("m", [0, 1])
def test_decode_matches_the_tail_hit_reference_on_a_two_edit_ball(m):
    """Every word within two edits of a seeded codeword: decode gives the
    reference's answer or both raise DecodeFailure, and every answer's
    encoding reaches the word within one edit."""
    codec = Edit4Code(m)
    x = codec.encode(Word(tuple(random.Random(41).choices(range(4), k=m)), 4))
    ball = set().union(*(forward_images(y, ErrorModel.SINGLE_EDIT)
                         for y in forward_images(x, ErrorModel.SINGLE_EDIT)))
    reach = {}
    for y in ball:
        got, want = _outcome(codec.decode, y), _outcome(_reference_decode, codec, y)
        if isinstance(want, Word):
            assert got == want
            if want not in reach:
                reach[want] = forward_images(codec.encode(want), ErrorModel.SINGLE_EDIT)
            assert y in reach[want]
        else:
            assert issubclass(want, DecodeFailure)
            assert isinstance(got, type) and issubclass(got, DecodeFailure), (y, got)


def test_deletion_decode_calls_each_traced_layer(monkeypatch):
    """perfbench's tracer times edit4's layers by patching these module
    attributes, so a decode must reach each of them through the module,
    whether the edit hit the payload or the tail.  No decode sketches its
    answer: correct_edit derives the answer's sketch from the received
    word's sums."""
    calls = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    layers = ("correct_edit", "rll_decode", "rep_decode")
    for name in ("sketches",) + layers:
        monkeypatch.setattr(edit4, name, counting(name, getattr(edit4, name)))
    codec = Edit4Code(64)
    z = Word(tuple(random.Random(31).choices(range(4), k=64)), 4)
    x = codec.encode(z)
    tail_sub = apply(x, Substitution(len(x), (x.symbols[-1] + 1) % 4))
    # after a tail substitution the payload window holds the target sketches,
    # and correct_edit returns it as it stands, as for a clean word
    received = (apply(x, Deletion(20)), apply(x, Deletion(codec.m + 5)),
                apply(x, Insertion(33, (x.symbols[32] + 2) % 4)),
                apply(x, Substitution(9, (x.symbols[8] + 1) % 4)), tail_sub)
    for y in received:
        calls.clear()
        assert codec.decode(y) == z
        assert calls["sketches"] == 0, calls
        assert all(calls[name] >= 1 for name in layers), calls


def test_decode_checks_symbols_of_a_wider_alphabet():
    """Symbols of a word over q <= 4 are valid 4-ary symbols as they stand;
    a word over a wider alphabet is checked before any array work."""
    codec = Edit4Code(16)
    x = codec.encode(Word(tuple(random.Random(37).choices(range(4), k=16)), 4))
    assert codec.decode(Word(x.symbols, 5)) == codec.decode(x)
    wide = Word((4,) + x.symbols[1:], 5)
    with pytest.raises(AlphabetError):
        codec.decode(wide)


def test_scans_keep_the_rightmost_match_of_the_flipped_symbol():
    """Beyond regular words a scan can match twice: with a = 1 and w(2) = 21
    at n = 25, a 2 followed by twenty 0s leaves the offset unchanged.  The
    scans keep the rightmost match among occurrences of a, as the loops do;
    a match at a 0 to the right of the only 1 is no occurrence of a."""
    params = Edit4Params.for_length(25)
    assert params.weights == (0, 1, 21, 22)
    zeros = (0,) * 20
    left = Word((3, 3, 1, 2) + zeros + (3,), 4)
    right = Word((3, 3, 2) + zeros + (1, 3), 4)
    first = Word((2,) + zeros + (1, 3, 3, 3), 4)
    second = Word((1, 2) + zeros + (3, 3, 3), 4)
    only = Word((2,) + zeros + (3, 3, 3, 3), 4)
    cases = [
        (Word((3, 3, 2) + zeros + (3,), 4), left, right),
        (Word((1, 2) + zeros + (1, 3, 3, 3), 4), first, second),
        (Word((1, 2) + zeros + (3, 3, 3, 3), 4), only, only),
    ]
    for y, source, expected in cases:
        target = sketches(source, params)
        assert correct_edit(y, target, params) == expected
        assert _reference_correct_edit(y, target, params) == expected
