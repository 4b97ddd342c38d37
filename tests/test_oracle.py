import itertools
import json

import pytest

from syncodec.errors import AlphabetError, SizeGuardError
from syncodec.oracle import (
    all_words,
    code_from_predicate,
    measure_redundancy,
    search_inner_code,
    sketch_class_sweep,
    verify_code,
)
from syncodec.sketches import vt
from syncodec.words import ErrorModel, Word, error_ball


def best_vt_code(n):
    modulus = 2 * n + 1
    best, size = None, -1
    for a in range(modulus):
        members = [w for w in all_words(n, 2) if vt(w, modulus) == a]
        if len(members) > size:
            best, size = members, len(members)
    return best


def test_vt_code_corrects_one_edit_at_n8():
    code = best_vt_code(8)
    report = verify_code(code, ErrorModel.SINGLE_EDIT, 1)
    assert report.ok and report.max_list_size == 1
    assert report.redundancy_bits <= 5


def test_negative_control_has_witnesses():
    """An even-weight code cannot survive deletions; the report must say so."""
    parity = code_from_predicate(lambda w: sum(w.symbols) % 2 == 0, 6, 2)
    report = verify_code(parity, ErrorModel.SINGLE_EDIT, 1)
    assert not report.ok
    assert report.witnesses


def test_verify_code_agrees_with_error_ball():
    code = best_vt_code(5)
    report = verify_code(code, ErrorModel.SINGLE_EDIT, 1)
    worst = 0
    seen = set()
    for x in code:
        from syncodec.words import forward_images
        for y in forward_images(x, ErrorModel.SINGLE_EDIT):
            if y.symbols in seen:
                continue
            seen.add(y.symbols)
            ball = error_ball(y, ErrorModel.SINGLE_EDIT, 5)
            worst = max(worst, len(ball & set(code)))
    assert worst == report.max_list_size


@pytest.mark.parametrize("model,length,bound", [
    (ErrorModel.SINGLE_EDIT, 4, 1),
    (ErrorModel.ONE_DEL_ONE_SUB, 6, 1),
    (ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION, 5, 1),
])
def test_search_inner_code_is_verified(model, length, bound):
    code = search_inner_code(model, length)
    assert len(code) >= 2
    report = verify_code(code, model, bound)
    assert report.ok


def test_search_inner_code_empty_length():
    assert search_inner_code(ErrorModel.SINGLE_EDIT, 0) == [Word((), 2)]


def test_all_words_is_every_validated_word_in_order():
    for q, top in ((2, 12), (3, 7), (4, 6)):
        for n in range(top + 1):
            assert list(all_words(n, q)) == [
                Word(s, q) for s in itertools.product(range(q), repeat=n)]


def test_enumeration_guards():
    with pytest.raises(SizeGuardError):
        list(all_words(17, 2))
    with pytest.raises(AlphabetError):
        list(all_words(3, 1))
    with pytest.raises(AlphabetError):
        list(all_words(-1, 2))
    with pytest.raises(SizeGuardError):
        search_inner_code(ErrorModel.SINGLE_EDIT, 17)
    # the cap is on the word count q^n: 2^16 words are enumerated, at any q
    assert next(iter(all_words(8, 4))) == Word((0,) * 8, 4)
    assert next(iter(all_words(16, 2))) == Word((0,) * 16, 2)
    with pytest.raises(SizeGuardError):
        list(all_words(9, 4))
    with pytest.raises(SizeGuardError):
        search_inner_code(ErrorModel.SINGLE_EDIT, 14, q=4)
    with pytest.raises(SizeGuardError):
        sketch_class_sweep(40, ErrorModel.ONE_DEL_ONE_SUB, lambda w: ())


def test_measure_redundancy():
    assert measure_redundancy(2 ** 6, 6, 2) == 0.0
    assert measure_redundancy(16, 8, 2) == 4.0
    with pytest.raises(ValueError):
        measure_redundancy(0, 4, 2)


def test_report_serializes_to_json():
    report = verify_code(best_vt_code(4), ErrorModel.SINGLE_EDIT, 1)
    data = json.loads(report.to_json())
    assert data["schema_version"] == 1
    assert data["model"] == "single-edit"
    assert data["ok"] is True
    assert "runtime_seconds" in data


def test_sketch_class_sweep_small():
    from syncodec.delsub import DelSubParams, sketches
    params = DelSubParams(6)
    max_list, attained, hist = sketch_class_sweep(
        6, ErrorModel.ONE_DEL_ONE_SUB, lambda w: sketches(w, params).astuple())
    assert max_list <= 2
    assert sum(hist.values()) > 0
