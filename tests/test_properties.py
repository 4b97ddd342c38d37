"""Property tests: hypothesis draws the inputs, derandomized and with a fixed
number of examples, so every run tests the same cases."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from syncodec.delsub import (  # noqa: E402
    DelSubParams,
    DelSubSketches,
    list_decode,
    sketches,
)
from syncodec.words import Word  # noqa: E402
from test_delsub import _decode_or_error, _reference_list_decode  # noqa: E402

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
    both raise EmptyListError."""
    y, target, params = case
    got = _decode_or_error(list_decode, y, target, params)
    assert got == _decode_or_error(_reference_list_decode, y, target, params)
    assert got == "EmptyListError" or 1 <= len(got) <= 2
