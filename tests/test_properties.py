"""Property tests: hypothesis draws the inputs, derandomized and with a fixed
number of examples, so every run tests the same cases."""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from syncodec.delsub import (  # noqa: E402
    VECTOR_MIN_N,
    DelSubCode,
    DelSubParams,
    DelSubSketches,
    _reachable_one_del_one_sub,
    list_decode,
    sketches,
)
from syncodec.edit4 import Edit4Code  # noqa: E402
from syncodec.errors import DecodeFailure  # noqa: E402
from syncodec.words import (  # noqa: E402
    DelAndSub,
    Deletion,
    ErrorModel,
    Insertion,
    Substitution,
    Transposition,
    Word,
    apply,
    forward_images,
)
from test_delsub import (  # noqa: E402
    _decode_or_error,
    _reference_list_decode,
    reachable_reference,
)

FIXED = settings(derandomize=True, max_examples=400, deadline=None,
                 database=None)


@st.composite
def received_and_target(draw):
    """A binary y of length 1..40 and a sketch tuple for n = |y| + 1: any
    values in range, or the sketches of any length-n word, or those of a word
    that one deletion and at most one substitution map to y."""
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    params = DelSubParams(len(bits) + 1)
    source = draw(st.sampled_from(["values", "word", "in-model"]))
    if source == "values":
        values = [draw(st.integers(0, mod - 1)) for mod in params.moduli]
        return Word(tuple(bits), 2), DelSubSketches(*values), params
    if source == "word":
        x = draw(st.lists(st.integers(0, 1), min_size=params.n,
                          max_size=params.n))
    else:
        x = list(bits)
        at = draw(st.integers(0, len(bits)))
        x.insert(at, draw(st.integers(0, 1)))
        flip = draw(st.one_of(st.none(), st.integers(0, len(bits))))
        if flip is not None and flip != at:
            x[flip] ^= 1
    return (Word(tuple(bits), 2), sketches(Word(tuple(x), 2), params),
            params)


@FIXED
@given(received_and_target())
def test_list_decode_is_the_reference_for_any_word_and_sketches(case):
    """list_decode equals the reference scan's list of at most two words, or
    both raise NoCandidateError."""
    y, target, params = case
    got = _decode_or_error(list_decode, y, target, params)
    assert got == _decode_or_error(_reference_list_decode, y, target, params)
    assert got == "NoCandidateError" or 1 <= len(got) <= 2


edit4_code = lru_cache(maxsize=None)(Edit4Code)


def quaternary(draw, n):
    """A 4-ary word of length n, drawn as n bytes."""
    return Word(tuple(b % 4 for b in draw(st.binary(min_size=n, max_size=n))), 4)


@st.composite
def edit4_codeword(draw):
    """An Edit4Code of message length 0..40, a message and its codeword."""
    code = edit4_code(draw(st.integers(0, 40)))
    z = quaternary(draw, code.m)
    return code, z, code.encode(z)


@st.composite
def single_edit(draw, word):
    """One deletion, insertion or substitution of word."""
    n = len(word)
    kind = draw(st.sampled_from(["del", "ins", "sub"]))
    if kind == "del":
        return Deletion(draw(st.integers(1, n)))
    if kind == "ins":
        return Insertion(draw(st.integers(1, n + 1)), draw(st.integers(0, 3)))
    at = draw(st.integers(1, n))
    return Substitution(at, (word.symbols[at - 1] + draw(st.integers(1, 3))) % 4)


@FIXED
@given(st.data())
def test_edit4_decodes_any_word_or_raises_decode_failure(data):
    code = edit4_code(data.draw(st.integers(0, 40)))
    n = code.n_total + data.draw(st.integers(-1, 1))
    y = quaternary(data.draw, n)
    try:
        z = code.decode(y)
    except DecodeFailure:
        return
    assert z.q == 4 and len(z) == code.m


@FIXED
@given(st.data())
def test_edit4_undoes_any_single_edit(data):
    code, z, x = data.draw(edit4_codeword())
    assert code.decode(apply(x, data.draw(single_edit(x)))) == z


@FIXED
@given(st.data())
def test_edit4_two_edits_never_give_an_unreachable_answer(data):
    """An answer to a word two edits from a codeword must have an encoding
    within one edit of that word, or the decode raises DecodeFailure."""
    code, z, x = data.draw(edit4_codeword())
    once = apply(x, data.draw(single_edit(x)))
    y = apply(once, data.draw(single_edit(once)))
    try:
        answer = code.decode(y)
    except DecodeFailure:
        return
    assert y in forward_images(code.encode(answer), ErrorModel.SINGLE_EDIT)


delsub_code = lru_cache(maxsize=None)(DelSubCode)


def binary(draw, n):
    """A binary word of length n, drawn as n bytes."""
    return Word(tuple(b & 1 for b in draw(st.binary(min_size=n, max_size=n))), 2)


def any_word(draw, x):
    """A binary word of length |x| + d, d in -2..1: uniform, or x after -d
    deletions (one insertion when d = 1) and up to two substitutions."""
    delta = draw(st.integers(-2, 1))
    if draw(st.booleans()):
        return binary(draw, len(x) + delta)
    bits = list(x.symbols)
    for _ in range(-delta):
        del bits[draw(st.integers(0, len(bits) - 1))]
    if delta == 1:
        bits.insert(draw(st.integers(0, len(bits))), draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(0, 2))):
        bits[draw(st.integers(0, len(bits) - 1))] ^= 1
    return Word(tuple(bits), 2)


@FIXED
@given(st.data())
def test_delsub_decodes_any_word_or_raises_decode_failure(data):
    code = delsub_code(data.draw(st.integers(1, 40)))
    y = any_word(data.draw, code.encode(binary(data.draw, code.m)))
    try:
        answers = code.decode(y)
    except DecodeFailure:
        return
    assert 1 <= len(answers) <= 2
    for z in answers:
        assert z.q == 2 and len(z) == code.m
        assert _reachable_one_del_one_sub(code.encode(z).raw, y.raw)


@FIXED
@given(st.data())
def test_delsub_lists_the_message_after_one_deletion_and_a_substitution(data):
    code = delsub_code(data.draw(st.integers(1, 40)))
    z = binary(data.draw, code.m)
    x = code.encode(z)
    n = len(x)
    delete_at = data.draw(st.integers(1, n))
    flip_at = data.draw(st.one_of(st.none(), st.integers(1, n)))
    if flip_at is None or flip_at == delete_at:
        y = apply(x, Deletion(delete_at))
    else:
        y = apply(x, DelAndSub(delete_at, flip_at))
    answers = code.decode(y)
    assert z in answers and len(answers) <= 2


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_delsub_two_errors_never_give_an_unreachable_answer(data):
    """Two deletions, or a deletion and two substitutions, of a codeword:
    every answer's encoding reaches y by one deletion and at most one
    substitution, or the decode raises DecodeFailure; any other exception
    fails the test.  m is drawn below the crossover and above it, so both
    paths answer; the judge is the Python-loop reference reachability check,
    which test_delsub pins against the exhaustive error ball."""
    m = data.draw(st.one_of(st.integers(1, 40),
                            st.integers(VECTOR_MIN_N, VECTOR_MIN_N + 300)))
    code = delsub_code(m)
    bits = list(code.encode(binary(data.draw, m)).symbols)
    del bits[data.draw(st.integers(0, len(bits) - 1))]
    if data.draw(st.booleans()):
        del bits[data.draw(st.integers(0, len(bits) - 1))]
    else:
        for at in data.draw(st.lists(st.integers(0, len(bits) - 1),
                                     min_size=2, max_size=2, unique=True)):
            bits[at] ^= 1
    y = Word(tuple(bits), 2)
    try:
        answers = code.decode(y)
    except DecodeFailure:
        return
    assert 1 <= len(answers) <= 2
    for z in answers:
        assert reachable_reference(code.encode(z).symbols, y.symbols)


@FIXED
@given(st.data())
def test_deltrans_desk_decodes_any_word_or_raises_decode_failure(desk_code, data):
    y = any_word(data.draw, data.draw(st.sampled_from(desk_code.codewords)))
    try:
        x = desk_code.decode(y)
    except DecodeFailure:
        return
    assert x in desk_code.codewords
    assert y in forward_images(x, ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION)


@FIXED
@given(st.data())
def test_deltrans_desk_undoes_one_deletion_or_transposition(desk_code, data):
    x = data.draw(st.sampled_from(desk_code.codewords))
    n = len(x)
    swaps = [k for k in range(1, n) if x.symbols[k - 1] != x.symbols[k]]
    error = data.draw(st.one_of(st.builds(Deletion, st.integers(1, n)),
                                st.builds(Transposition, st.sampled_from(swaps))))
    assert desk_code.decode(apply(x, error)) == x


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_deltrans_desk_two_errors_never_give_an_unreachable_answer(desk_code, data):
    """Two deletions, or a deletion and an adjacent transposition, of a
    codeword: an answer must reach y by one deletion or one adjacent
    transposition, or the decode raises DecodeFailure; any other exception
    fails the test.  The second error lands anywhere in the shortened word,
    so the splice and the segment hashes see words the model never makes."""
    x = data.draw(st.sampled_from(desk_code.codewords))
    once = apply(x, Deletion(data.draw(st.integers(1, len(x)))))
    swaps = [k for k in range(1, len(once)) if once[k - 1] != once[k]]
    second = data.draw(st.one_of(st.builds(Deletion, st.integers(1, len(once))),
                                 st.builds(Transposition, st.sampled_from(swaps))))
    y = apply(once, second)
    try:
        answer = desk_code.decode(y)
    except DecodeFailure:
        return
    assert y in forward_images(answer, ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION)
