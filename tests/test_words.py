import itertools
from pathlib import Path

import pytest

from conftest import binary_words
from syncodec.errors import AlphabetError, PositionError, SizeGuardError
from syncodec.words import (
    DelAndSub,
    Deletion,
    ErrorModel,
    Insertion,
    Substitution,
    Transposition,
    Word,
    apply,
    error_ball,
    forward_images,
    patterns,
    prefix_parity,
    run_count,
    run_string,
)


def test_word_parse_round_trip():
    w = Word.parse("0213")
    assert w.q == 4 and str(w) == "0213"
    assert Word.parse("0101", q=2).q == 2
    assert len(Word.parse("")) == 0


def test_word_rejects_bad_symbols():
    with pytest.raises(AlphabetError):
        Word((0, 2), 2)
    with pytest.raises(AlphabetError):
        Word((0,), 1)


def test_words_equal_by_content_are_equal_however_built():
    """A tuple, a list, bytes, a bytearray and a generator of the same
    symbols give one word: equal, with one hash, and a tuple view equal to
    the input."""
    symbols = (0, 2, 1, 3, 3, 0)
    words = [Word(symbols, 4), Word(list(symbols), 4), Word(bytes(symbols), 4),
             Word(bytearray(symbols), 4), Word((s for s in symbols), 4)]
    for w in words:
        assert w == words[0] and hash(w) == hash(words[0])
        assert type(w.symbols) is tuple and w.symbols == symbols
        assert w.raw == bytes(symbols) and len(w) == len(symbols)
    assert len(set(words)) == 1
    assert Word(symbols, 4) != Word(symbols, 5)
    assert Word(range(256), 256).symbols == tuple(range(256))


@pytest.mark.parametrize("symbols, q", [
    ((0, 1), 1),            # q < 2
    ((0, 1), 0),
    ((0, 1), 257),          # q > 256
    ((0, 1), 300),
    ((0, 2), 2),            # a symbol >= q
    ((0, 255), 255),
    ((0, -1), 2),           # a negative symbol
    ((0, -1), 256),
    ((0, 256), 256),        # a symbol >= 256
    ([1, 2 ** 70], 256),
    ((1.0,), 2),            # not an integer
    (5, 2),                 # not a sequence
])
def test_word_validation_raises_alphabet_error(symbols, q):
    """Every invalid word is an AlphabetError, never the ValueError,
    OverflowError or TypeError of the byte conversion."""
    with pytest.raises(AlphabetError):
        Word(symbols, q)
    if not isinstance(symbols, int):
        with pytest.raises(AlphabetError):
            Word(iter(symbols), q)


def test_word_is_immutable():
    w = Word.parse("0110")
    with pytest.raises(AttributeError):
        w.raw = b"\x00"


def test_apply_examples():
    assert str(apply(Word.parse("0101"), Transposition(1))) == "1001"
    assert str(apply(Word.parse("0011"), Deletion(3))) == "001"
    assert str(apply(Word.parse("2103", 4), DelAndSub(1, 3))) == "113"
    assert str(apply(Word.parse("10"), Insertion(3, 1))) == "101"
    assert str(apply(Word.parse("10"), Substitution(2, 1))) == "11"


def test_apply_length_contract():
    for w in binary_words(5):
        for p in patterns(w, ErrorModel.SINGLE_EDIT):
            out = apply(w, p)
            if isinstance(p, Deletion):
                assert len(out) == 4
            elif isinstance(p, Insertion):
                assert len(out) == 6
            else:
                assert len(out) == 5
        for p in patterns(w, ErrorModel.ONE_DEL_ONE_SUB):
            expected = 4 if isinstance(p, (Deletion, DelAndSub)) else 5
            assert len(apply(w, p)) == expected


def test_apply_position_checks():
    w = Word.parse("0101")
    with pytest.raises(PositionError):
        apply(w, Deletion(5))
    with pytest.raises(PositionError):
        apply(w, Transposition(4))
    with pytest.raises(PositionError):
        DelAndSub(2, 2)
    with pytest.raises(PositionError):
        apply(w, Substitution(1, 0))  # must change the symbol


def test_apply_still_checks_the_symbols_it_writes():
    """Images are built without re-checking the source's symbols, but an
    inserted or substituted symbol outside the alphabet still raises."""
    binary = Word.parse("0101")
    quaternary = Word.parse("0213", 4)
    for word, bad in ((binary, 2), (binary, -1), (quaternary, 4)):
        with pytest.raises(AlphabetError):
            apply(word, Insertion(1, bad))
        with pytest.raises(AlphabetError):
            apply(word, Substitution(1, bad))
        with pytest.raises(AlphabetError):
            apply(word, DelAndSub(2, 1, bad))
    with pytest.raises(AlphabetError):
        apply(quaternary, DelAndSub(1, 2))  # flipping a 2 needs the new symbol
    assert apply(quaternary, Insertion(5, 3)) == Word.parse("02133", 4)


def _reference_images(word, model):
    """The images of word under the model from their definitions, as
    validated Words."""
    s, q, n = word.symbols, word.q, len(word)
    deletions = {s[:i] + s[i + 1:] for i in range(n)}
    substitutions = {s[:i] + (a,) + s[i + 1:]
                     for i in range(n) for a in range(q) if a != s[i]}
    if model is ErrorModel.SINGLE_EDIT:
        images = deletions | substitutions | {
            s[:i] + (a,) + s[i:] for i in range(n + 1) for a in range(q)}
    elif model is ErrorModel.ONE_DEL_ONE_SUB:
        images = deletions | substitutions | {
            t[:j] + t[j + 1:] for t in substitutions for j in range(n)}
    else:
        images = deletions | {s[:i] + (s[i + 1], s[i]) + s[i + 2:]
                              for i in range(n - 1)}
    return {Word(t, q) for t in images | {s}}


@pytest.mark.parametrize("q,top", [(2, 6), (3, 4), (4, 3)])
def test_forward_images_match_the_definitions_exhaustively(q, top):
    """Every word of length 0 to top over q symbols and every model: the
    trusted images forward_images slices are the validated images of the
    definitions, over the same alphabet, and the images of applying every
    pattern the model has."""
    for n in range(top + 1):
        for symbols in itertools.product(range(q), repeat=n):
            word = Word(symbols, q)
            for model in ErrorModel:
                images = forward_images(word, model)
                assert images == _reference_images(word, model)
                assert images == {word} | {apply(word, p) for p in patterns(word, model)}


@pytest.mark.parametrize("word", [Word.parse(""), Word.parse("0110")])
@pytest.mark.parametrize("model", ["del-sub", None, 1])
def test_forward_images_refuses_an_unknown_model(word, model):
    with pytest.raises(TypeError):
        forward_images(word, model)


def test_error_ball_examples():
    ball = error_ball(Word.parse("0", q=2), ErrorModel.SINGLE_EDIT, 2)
    assert {str(w) for w in ball} == {"00", "01", "10"}
    ball = error_ball(Word.parse("", q=2), ErrorModel.SINGLE_EDIT, 1)
    assert {str(w) for w in ball} == {"0", "1"}
    ball = error_ball(Word.parse("01"), ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION, 2)
    assert {str(w) for w in ball} == {"01", "10"}


def test_error_ball_guard():
    with pytest.raises(SizeGuardError):
        error_ball(Word.parse("0"), ErrorModel.SINGLE_EDIT, 17)
    # the cap is on the word count q^n, so 4^9 candidates are refused too
    with pytest.raises(SizeGuardError):
        error_ball(Word((0,) * 8, 4), ErrorModel.SINGLE_EDIT, 9)
    with pytest.raises(SizeGuardError):
        error_ball(Word.parse("0"), ErrorModel.SINGLE_EDIT, 9, q=4)
    with pytest.raises(PositionError):
        error_ball(Word.parse("0101"), ErrorModel.ONE_DEL_ONE_SUB, 9)


@pytest.mark.parametrize("model", list(ErrorModel))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_error_ball_matches_forward_images(model, n):
    """Membership by filtration agrees with pattern application both ways."""
    words = list(binary_words(n))
    images = {w: forward_images(w, model) for w in words}
    seen = set()
    for w in words:
        for y in images[w]:
            seen.add(y.symbols)
    for y_sym in sorted(seen):
        y = Word(y_sym, 2)
        ball = error_ball(y, model, n)
        expected = {w for w in words if y in images[w]}
        assert ball == expected


def test_run_string_examples():
    assert "".join(map(str, run_string(Word.parse("011101000")))) == "0111234445"
    assert run_string(Word.parse("101")) == (1, 2, 3, 3)
    r = run_string(Word.parse("0000"))
    assert r == (0, 0, 0, 0, 1)


def test_run_count_uses_sentinels():
    assert run_count(Word.parse("011101000")) == 6
    assert run_count(Word.parse("00000")) == 2
    assert run_count(Word.parse("11111", q=2)) == 2
    assert run_count(Word.parse("", q=2)) == 2


@pytest.mark.parametrize("n", range(0, 13))
def test_run_string_is_a_bijection(n):
    assert len({run_string(w) for w in binary_words(n)}) == 2 ** n


def test_run_count_transitions_exhaustive():
    """One deletion moves the run count by 0 or -2; one substitution by 0 or 2."""
    for n in range(1, 11):
        for w in binary_words(n):
            r = run_count(w)
            for d in range(1, n + 1):
                assert run_count(apply(w, Deletion(d))) in (r, r - 2)
            for e in range(1, n + 1):
                flipped = apply(w, Substitution(e, 1 - w.symbols[e - 1]))
                assert run_count(flipped) in (r, r - 2, r + 2)


def test_prefix_parity_examples():
    assert str(prefix_parity(Word.parse("0011"))) == "0010"
    assert str(prefix_parity(Word.parse("0000"))) == "0000"
    assert str(prefix_parity(Word.parse("1111", q=2))) == "1010"


@pytest.mark.parametrize("n", range(0, 12))
def test_prefix_parity_bijective(n):
    assert len({prefix_parity(w) for w in binary_words(n)}) == 2 ** n


def test_transposition_is_substitution_in_parity_domain():
    for n in range(2, 11):
        for w in binary_words(n):
            for k in range(1, n):
                if w.symbols[k - 1] == w.symbols[k]:
                    continue
                swapped = apply(w, Transposition(k))
                a = prefix_parity(w).symbols
                b = prefix_parity(swapped).symbols
                assert [i for i in range(n) if a[i] != b[i]] == [k - 1]


def test_non_binary_rejected_by_binary_ops():
    with pytest.raises(AlphabetError):
        run_string(Word.parse("012", 4))
    with pytest.raises(AlphabetError):
        prefix_parity(Word.parse("012", 4))


SOURCES = Path(__file__).resolve().parent.parent / "src" / "syncodec"


def test_only_words_converts_the_word_format():
    """A word's symbols are bytes in `Word.raw`, and only words.py converts
    them: no other module reads the tuple view or converts a word through a
    bytearray or a numpy array's tuple."""
    modules = sorted(SOURCES.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name == "words.py":
            continue
        text = path.read_text()
        for banned in (".symbols", "bytearray(", ".tobytes())"):
            assert banned not in text, f"{path.name} holds {banned!r}"
