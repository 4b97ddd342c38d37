import itertools
import random

import pytest

from conftest import quaternary_words
from syncodec.edit4 import (
    Edit4Code,
    Edit4Params,
    codewords_for_target,
    correct_deletion,
    correct_edit,
    correct_insertion,
    correct_substitution,
    enumerate_sketch_space,
    is_codeword,
    is_regular,
    regular_fraction,
    regularity,
    rll_decode,
    rll_encode,
    search_best_target,
    size_lower_bound,
    sketches,
)
from syncodec.errors import DecodeFailure, MalformedEncodingError, NoCandidateError
from syncodec.inner import int_to_bits, rep_decode, rep_encode
from syncodec.words import ErrorModel, Word, apply, patterns


def test_params_formulas():
    p = Edit4Params.for_length(8)
    assert p.log_n == 3
    assert p.weights.weights == (0, 1, 17, 18)
    assert p.modulus == 1 + 2 * 8 * 18
    p = Edit4Params.for_length(6)  # non-power-of-two lengths take the ceiling
    assert p.log_n == 3


def test_regularity_examples():
    params = Edit4Params.for_length(16)
    assert is_regular(Word.parse("2121212121212121", 4), params)
    witness = regularity(Word((0,) * 16, 4), params)
    assert witness.zero_run_violations == ((1, 16),)
    assert not witness.ok
    assert is_regular(Word.parse("0123" * 4, 4), params)


def test_regularity_checks_both_projections():
    params = Edit4Params.for_length(16)
    # long 3-run hidden inside the 1/3 projection
    word = Word.parse("3131" + "3" * 8 + "0123", 4)
    assert regularity(word, params).three_run_violations != ()


def test_sketches_and_membership():
    params = Edit4Params.for_length(4)
    word = Word.parse("1203", 4)
    sk = sketches(word, params)
    w = params.weights
    assert sk.f == (1 * w(1) + 2 * w(2) + 3 * w(0) + 4 * w(3)) % params.modulus
    assert (sk.h0, sk.h1, sk.h2) == (1, 1, 1)
    assert is_codeword(word, params, sk) == is_regular(word, params)
    assert not is_codeword(word, params, sketches(Word.parse("0000", 4), params))


@pytest.mark.parametrize("n", [5, 6])
def test_correctors_round_trip_exhaustively(n):
    """Any single edit on a regular word is undone given that word's sketches."""
    params = Edit4Params.for_length(n)
    for x in quaternary_words(n):
        if not is_regular(x, params):
            continue
        target = sketches(x, params)
        assert correct_substitution(x, target, params) == x
        for p in patterns(x, ErrorModel.SINGLE_EDIT):
            assert correct_edit(apply(x, p), target, params) == x


def test_corrector_error_paths():
    params = Edit4Params.for_length(5)
    x = Word.parse("01230", 4)
    target = sketches(x, params)
    with pytest.raises(NoCandidateError):
        correct_substitution(Word.parse("11111", 4), target, params)
    with pytest.raises(NoCandidateError):
        correct_deletion(Word.parse("2222", 4), target, params)
    # the count parities point at a symbol y does not contain at all
    from syncodec.edit4 import Edit4Sketches
    odd_zeros = Edit4Sketches(0, 1, 1, 1)
    with pytest.raises(NoCandidateError):
        correct_insertion(Word.parse("121212", 4), odd_zeros, params)


def test_localization_gap_never_ambiguous():
    """The bound |i (w(b)-w(a))| < N/2 holds for any length, so the division
    step of the substitution corrector has a unique answer."""
    for k in range(1, 21):
        n = 2 ** k
        params = Edit4Params.for_length(n)
        worst = n * (params.weights(3) - params.weights(0))
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
    payload = (0, 3, 1, 2)
    tail = rep_encode(payload)
    x = Word(tail, 4)
    for p in patterns(x, ErrorModel.SINGLE_EDIT):
        window = apply(x, p).symbols
        assert rep_decode(window, len(payload)) == payload
    assert rep_decode(tail, len(payload)) == payload
    # a missing or an extra symbol at the front is just as recoverable
    assert rep_decode(tail[1:], len(payload)) == payload
    assert rep_decode((2,) + tail, len(payload)) == payload


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


def test_size_lower_bound_held_at_small_n():
    for n in (6, 8):
        _, size = search_best_target(n)
        num, den = size_lower_bound(n)
        assert size * den >= num


def test_regular_fraction_sampler():
    assert regular_fraction(64, 20000, seed=5) >= 7 / 8 - 0.02
