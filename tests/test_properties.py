"""Property tests: hypothesis draws the inputs, derandomized and with a fixed
number of examples, so every run tests the same cases.

The decoder contract is written once and checked for every codec of the
CLI's registry, `cli.CODES`, so a codec is covered when it is registered:
- a word of any alphabet and length decodes, or is refused with
  `DecodeFailure`, or with `AlphabetError` when its alphabet is not the
  codec's; no other exception escapes
- a word within the codec's error model decodes to its message (a list
  decoder's list holds it)
- a word two errors from a codeword never gets an answer whose encoding the
  model cannot map to the word

The judges are independent of the codecs: `forward_images` for the short
edit4 and deltrans words, and `test_delsub.reachable_reference` for delsub.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import built_desk_code  # noqa: E402
from syncodec.cli import CODES  # noqa: E402
from syncodec.delsub import (  # noqa: E402
    VECTOR_MIN_N,
    DelSubCode,
    DelSubParams,
    DelSubSketches,
    list_decode,
    sketches,
)
from syncodec.edit4 import Edit4Code  # noqa: E402
from syncodec.errors import AlphabetError, DecodeFailure  # noqa: E402
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


def fixed(max_examples=400):
    return settings(derandomize=True, max_examples=max_examples, deadline=None,
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


@fixed()
@given(received_and_target())
def test_list_decode_is_the_reference_for_any_word_and_sketches(case):
    """list_decode equals the reference scan's list of at most two words, or
    both raise NoCandidateError."""
    y, target, params = case
    got = _decode_or_error(list_decode, y, target, params)
    assert got == _decode_or_error(_reference_list_decode, y, target, params)
    assert got == "NoCandidateError" or 1 <= len(got) <= 2


def word(draw, n, q):
    """A word of length n over alphabet q, drawn as n bytes."""
    return Word(bytes(b % q for b in draw(st.binary(min_size=n, max_size=n))), q)


@dataclass(frozen=True)
class Contract:
    """How the contract tests drive one registered codec.  `build` makes the
    codec of a message length drawn from `lengths` (the two-error test draws
    from `two_error_lengths`, with `two_error_examples` examples), `message`
    draws what its `encode` takes, and `answers` lists the messages its
    `decode` names."""

    build: Callable
    lengths: st.SearchStrategy
    two_error_lengths: st.SearchStrategy
    two_error_examples: int
    message: Callable = lambda draw, code: word(draw, code.m, code.q)
    answers: Callable = lambda code, y: [code.decode(y)]


@lru_cache(maxsize=None)
def _desk_indices(code):
    return {x.raw: index for index, x in enumerate(code.codewords)}


def _desk_answers(code, y):
    index = _desk_indices(code).get(code.decode(y).raw)
    assert index is not None, "the answer is no codeword"
    return [index]


CONTRACTS = {
    "edit4": Contract(lru_cache(maxsize=None)(Edit4Code), st.integers(0, 40),
                      st.integers(0, 40), 400),
    # m is drawn below the vector crossover and above it, so both paths answer
    "delsub": Contract(lru_cache(maxsize=None)(DelSubCode), st.integers(1, 40),
                       st.one_of(st.integers(1, 40),
                                 st.integers(VECTOR_MIN_N, VECTOR_MIN_N + 300)),
                       150, answers=lambda code, y: code.decode(y)),
    # the desk code has a fixed length; its messages are codeword indices
    "deltrans": Contract(lambda _: built_desk_code(), st.none(), st.none(), 300,
                         message=lambda draw, code: draw(
                             st.integers(0, len(code.codewords) - 1)),
                         answers=_desk_answers),
}


def run(examples, check):
    """check(data) on `examples` derandomized draws."""
    fixed(examples)(given(st.data())(check))()


# the kinds of error each model's sampler draws
ERROR_KINDS = {
    ErrorModel.SINGLE_EDIT: ["del", "ins", "sub"],
    ErrorModel.ONE_DEL_ONE_SUB: ["del", "sub", "del+sub"],
    ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION: ["del", "trans"],
}


def one_error(draw, x, model):
    """One error of the model on x, as an error pattern of syncodec.words;
    a substitution writes a symbol other than the one it replaces."""
    n, q = len(x), x.q
    kind = draw(st.sampled_from(ERROR_KINDS[model]))
    at = draw(st.integers(1, n + (kind == "ins")))
    if kind == "del":
        return Deletion(at)
    if kind == "ins":
        return Insertion(at, draw(st.integers(0, q - 1)))
    if kind == "trans":
        swaps = [k for k in range(1, n) if x[k - 1] != x[k]]
        return Transposition(draw(st.sampled_from(swaps))) if swaps else Deletion(at)

    def other(e):
        return (x[e - 1] + draw(st.integers(1, q - 1))) % q

    if kind == "sub":
        return Substitution(at, other(at))
    flip_at = draw(st.integers(1, n - 1))
    flip_at += flip_at >= at
    return DelAndSub(at, flip_at, other(flip_at))


def any_word(draw, x, q):
    """A word over alphabet q >= x.q of length |x| + d, d in -2..2: uniform,
    or x after -d deletions or d insertions, up to two substitutions and
    perhaps one stretch overwritten by a single symbol."""
    delta = draw(st.integers(-2, 2))
    if draw(st.booleans()):
        return word(draw, len(x) + delta, q)
    symbols = list(x.raw)
    for _ in range(-delta):
        del symbols[draw(st.integers(0, len(symbols) - 1))]
    for _ in range(delta):
        symbols.insert(draw(st.integers(0, len(symbols))), draw(st.integers(0, q - 1)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(symbols) - 1))
        symbols[at] = (symbols[at] + draw(st.integers(1, q - 1))) % q
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.integers(0, len(symbols))) for _ in range(2))
        symbols[lo:hi] = [draw(st.integers(0, q - 1))] * (hi - lo)
    return Word(symbols, q)


def assert_answers_reach(code, answers, y):
    """At most list_bound answers, each with an encoding that the codec's
    error model maps to y."""
    assert 1 <= len(answers) <= code.list_bound
    for z in answers:
        x = code.encode(z)
        if code.model is ErrorModel.ONE_DEL_ONE_SUB:
            assert reachable_reference(x.raw, y.raw), (y, z)
        else:
            assert y.raw in {w.raw for w in forward_images(x, code.model)}, (y, z)


@pytest.mark.parametrize("name", CODES)
def test_any_word_decodes_or_is_refused(name):
    """A word over the codec's alphabet, one more symbol or 256 symbols, at
    the codeword length +-2: the decode returns answers that reach it,
    raises DecodeFailure, or, for another alphabet, AlphabetError; any
    other exception fails the test."""
    contract = CONTRACTS[name]

    def check(data):
        code = contract.build(data.draw(contract.lengths))
        x = code.encode(contract.message(data.draw, code))
        y = any_word(data.draw, x, data.draw(st.sampled_from([code.q, code.q + 1, 256])))
        try:
            answers = contract.answers(code, y)
        except DecodeFailure:
            return
        except AlphabetError:
            assert y.q != code.q
            return
        assert_answers_reach(code, answers, y)

    run(400, check)


@pytest.mark.parametrize("name", CODES)
def test_an_in_model_word_decodes_to_its_message(name):
    """One error of the model: the decode names the message, and a list
    decoder's list is within its bound."""
    contract = CONTRACTS[name]

    def check(data):
        code = contract.build(data.draw(contract.lengths))
        z = contract.message(data.draw, code)
        x = code.encode(z)
        answers = contract.answers(code, apply(x, one_error(data.draw, x, code.model)))
        assert z in answers and len(answers) <= code.list_bound

    run(400, check)


@pytest.mark.parametrize("name", CODES)
def test_two_errors_never_give_an_unreachable_answer(name):
    """Two errors of the model, each drawn on the word the one before left:
    the answers' encodings reach y, or the decode raises DecodeFailure; any
    other exception fails the test."""
    contract = CONTRACTS[name]

    def check(data):
        code = contract.build(data.draw(contract.two_error_lengths))
        x = code.encode(contract.message(data.draw, code))
        once = apply(x, one_error(data.draw, x, code.model))
        y = apply(once, one_error(data.draw, once, code.model))
        try:
            answers = contract.answers(code, y)
        except DecodeFailure:
            return
        assert_answers_reach(code, answers, y)

    run(contract.two_error_examples, check)
