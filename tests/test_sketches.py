import random

import numpy as np
import pytest

from conftest import binary_words
from syncodec import delsub, edit4
from syncodec.errors import SizeGuardError
from syncodec.sketches import (
    prefix_scan,
    signed_residue,
    vt,
    vt_parity_sums,
    vt_sum,
)
from syncodec.words import (
    DelAndSub,
    Deletion,
    Transposition,
    Word,
    apply,
    prefix_parity,
    run_string,
)


def _run_sketches(word):
    """The run-based fields (f1r, f2r, hr) of the delsub sketch of word."""
    sk = delsub.sketches(word, delsub.DelSubParams(len(word)))
    return sk.f1r, sk.f2r, sk.hr


def test_vt_examples():
    assert vt(Word.parse("00000"), 11) == 0
    assert vt(Word.parse("0101"), 13) == 6
    assert vt(Word.parse("011"), 7) == 5


def test_count_mod_examples():
    """Symbol counts mod 2 (edit4's h0..h2) and the weight mod 5 (delsub's h)."""
    word = Word.parse("1203", 4)
    sk = edit4.sketches(word, edit4.Edit4Params.for_length(len(word)))
    assert (sk.h0, sk.h1, sk.h2) == (1, 1, 1)
    word = Word.parse("0000", 4)
    assert edit4.sketches(word, edit4.Edit4Params.for_length(4)).h1 == 0
    assert delsub.sketches(Word.parse("110101"), delsub.DelSubParams(6)).h == 4


def test_transposition_drops_vt_by_one():
    """01 -> 10 anywhere lowers the VT sum by exactly 1, so the sketch alone
    cannot place a transposition."""
    for n in range(2, 13):
        modulus = 2 * n + 1
        for word in binary_words(n):
            for k in range(1, n):
                if word.symbols[k - 1] == 0 and word.symbols[k] == 1:
                    swapped = apply(word, Transposition(k))
                    assert (vt(word, modulus) - 1) % modulus == \
                        vt(swapped, modulus)


def test_run_sketches_worked_example():
    params = delsub.DelSubParams(9)
    assert (params.f1r_mod, params.f2r_mod, params.hr_mod) == (109, 1297, 13)
    assert _run_sketches(Word.parse("011101000")) == (20, 44, 6)


def test_run_sketches_constant_words():
    n = 7
    assert _run_sketches(Word((0,) * n, 2)) == (0, 0, 2)
    assert _run_sketches(Word((1,) * n, 2)) == (n, 0, 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_run_sketches_match_run_string(n):
    rng = random.Random(n)
    for _ in range(40):
        word = Word(tuple(rng.randrange(2) for _ in range(n)), 2)
        ranks = run_string(word)[:-1]
        f1r, f2r, _ = _run_sketches(word)
        assert f1r == sum(ranks) % (12 * n + 1)
        assert f2r == sum(r * (r - 1) for r in ranks) % (16 * n * n + 1)


def test_rank_sum_difference_bounds():
    """One deletion plus one substitution moves the rank sums by a bounded
    amount, so the run sketch moduli never wrap."""
    for n in range(2, 9):
        for word in binary_words(n):
            rx = run_string(word)[:-1]
            s1x, s2x = sum(rx), sum(r * (r - 1) for r in rx)
            pats = [Deletion(d) for d in range(1, n + 1)]
            pats += [DelAndSub(d, e) for d in range(1, n + 1)
                     for e in range(1, n + 1) if d != e]
            for p in pats:
                ry = run_string(apply(word, p))[:-1]
                s1y, s2y = sum(ry), sum(r * (r - 1) for r in ry)
                assert -4 * n <= s1y - s1x <= 2 * n
                assert -5 * n * n <= s2y - s2x <= 3 * n * n


def test_prefix_parity_sum_examples():
    assert vt_parity_sums((0, 0, 1, 1))[1] % 3 == 1
    assert vt_parity_sums((0, 0, 0, 0))[1] % 3 == 0


def test_prefix_parity_vt_example():
    assert vt_parity_sums((0, 1, 0, 1))[2] % 9 == 5


def _reference_sums(bits):
    """The three sums by their definitions over the Word-level prefix parity."""
    parity = prefix_parity(Word(bits, 2)).symbols
    return (sum(i * b for i, b in enumerate(bits, start=1)),
            sum(parity),
            sum(i * p for i, p in enumerate(parity, start=1)))


def test_sketch_primitives_match_reference():
    """Tuples and bytes of every length to 10 bits and of random lengths to
    2001 bits."""
    cases = [w.symbols for n in range(11) for w in binary_words(n)]
    rng = random.Random(17)
    cases += [tuple(rng.getrandbits(1) for _ in range(n))
              for n in [rng.randrange(11, 2002) for _ in range(150)] + [2001]
              + [99, 100] * 10]
    for bits in cases:
        expected = _reference_sums(bits)
        assert vt_parity_sums(bits) == expected
        sums = vt_parity_sums(bytes(bits))
        assert sums == expected and all(type(v) is int for v in sums)
        assert vt_sum(bits) == expected[0]
    for _ in range(100):
        symbols = tuple(rng.randrange(4) for _ in range(rng.randrange(0, 300)))
        assert vt_sum(symbols) == sum(i * s for i, s in enumerate(symbols, start=1))


def test_prefix_scan_is_accumulate():
    """Every length from 0 to 300, and 1,301, 2,000 and 16,386: the scan
    equals np.bitwise_xor.accumulate over uint8 bits, np.cumsum of int8
    steps in int64, and the row-wise accumulate of a 2-D array."""
    rng = np.random.default_rng(97)
    for n in [*range(301), 1301, 2000, 16386]:
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        steps = rng.integers(-1, 2, n, dtype=np.int8)
        xor = prefix_scan(np.bitwise_xor, bits)
        assert xor.dtype == np.uint8
        assert np.array_equal(xor, np.bitwise_xor.accumulate(bits))
        added = prefix_scan(np.add, steps, np.int64)
        assert added.dtype == np.int64
        assert np.array_equal(added, np.cumsum(steps, dtype=np.int64))
        rows = rng.integers(0, 2, (3, n), dtype=np.uint8)
        assert np.array_equal(prefix_scan(np.bitwise_xor, rows),
                              np.bitwise_xor.accumulate(rows, axis=1))


def test_vt_parity_sums_are_exact_up_to_their_guard():
    """Each int64 sum stays at most n(n+1)/2, below 2^63 for every n < 2^32,
    and a string of 2^32 bits is refused before anything is read.  At 2^21
    and 2^21 + 1 bits each sum reaches its largest value on one of two
    strings, with closed forms: all ones (VT sum n(n+1)/2, prefix parities
    1, 0, 1, ...) and a 1 followed by zeros (every prefix parity 1)."""
    longest = 2 ** 32 - 1
    assert longest * (longest + 1) // 2 < 2 ** 63 <= (longest + 1) * (longest + 2) // 2
    for n in (2 ** 21, 2 ** 21 + 1):
        top, odd = n * (n + 1) // 2, (n + 1) // 2
        assert vt_parity_sums(b"\x01" * n) == (top, odd, odd * odd)
        assert vt_parity_sums(b"\x01" + bytes(n - 1)) == (1, n, top)

    class TooLong:
        def __len__(self):
            return longest + 1

    with pytest.raises(SizeGuardError):
        vt_parity_sums(TooLong())


def test_signed_residue_range():
    for modulus in (5, 13, 109):
        for value in range(-2 * modulus, 2 * modulus):
            r = signed_residue(value, modulus)
            assert -modulus / 2 < r <= modulus / 2
            assert (r - value) % modulus == 0
