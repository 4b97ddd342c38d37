"""Tests of the benchmark's own code: the independent reachability checks,
the seeded generators and the span arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from syncodec import deltrans  # noqa: E402
from syncodec.errors import DecodeFailure, EmptyListError, SyncodecError  # noqa: E402
from syncodec.words import ErrorModel, Word, error_ball, forward_images  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHECKS = {
    ErrorModel.SINGLE_EDIT: check.within_one_edit,
    ErrorModel.ONE_DEL_ONE_SUB: check.within_del_sub,
    ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION: check.within_del_or_trans,
}
LENGTH_CHANGES = {
    ErrorModel.SINGLE_EDIT: (-1, 0, 1),
    ErrorModel.ONE_DEL_ONE_SUB: (-1, 0),
    ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION: (-1, 0),
}


def _words(n: int, q: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(q), repeat=n))


def _received(n: int, q: int, model: ErrorModel, margin: int = 0,
              ) -> list[tuple[int, ...]]:
    """Every word of a length the model can produce from length n, and of
    lengths up to `margin` beyond those, which the checks must reject."""
    changes = LENGTH_CHANGES[model]
    lengths = range(n + min(changes) - margin, n + max(changes) + margin + 1)
    return [y for m in lengths if m >= 0 for y in _words(m, q)]


@pytest.mark.parametrize("model", list(CHECKS))
@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 6)] + [(1, 4), (2, 4), (3, 4)])
def test_check_matches_error_ball(model, n, q):
    """The O(n) check accepts (x, y) exactly when x lies in error_ball(y)."""
    reach = CHECKS[model]
    for y in _received(n, q, model, margin=1):
        if len(y) - n in LENGTH_CHANGES[model]:
            ball = {x.symbols for x in error_ball(Word(y, q), model, n, q)}
        else:
            ball = set()
        for x in _words(n, q):
            assert reach(x, y) == (x in ball), (model, x, y)


@pytest.mark.parametrize("model", list(CHECKS))
@pytest.mark.parametrize("n", range(6, 11))
def test_check_matches_forward_images_up_to_10(model, n):
    """Up to n = 10, against forward_images, the relation error_ball filters by:
    x is in error_ball(y) exactly when y is in forward_images(x)."""
    reach = CHECKS[model]
    received = _received(n, 2, model)
    for x in _words(n, 2):
        images = {y.symbols for y in forward_images(Word(x, 2), model)}
        accepted = {y for y in received if reach(x, y)}
        assert accepted == images, (model, x)


def test_contract_verdict():
    def reaches(answer):
        return answer == "reachable"

    assert check.contract_verdict(None, DecodeFailure("x"), reaches, DecodeFailure) \
        == (True, "DecodeFailure")
    # a library error that is not a DecodeFailure breaks the contract
    assert check.contract_verdict(None, EmptyListError("x"), reaches, DecodeFailure) \
        == (False, "EmptyListError")
    assert check.contract_verdict(None, KeyError(3), reaches, DecodeFailure) \
        == (False, "KeyError")
    assert check.contract_verdict("reachable", None, reaches, DecodeFailure) \
        == (True, "reachable")
    assert check.contract_verdict("other", None, reaches, DecodeFailure) \
        == (False, "unreachable-answer")
    assert not issubclass(EmptyListError, DecodeFailure)
    assert issubclass(DecodeFailure, SyncodecError)


def _take(iterator, count):
    return list(itertools.islice(iterator, count))


def test_edit4_stream_is_seeded():
    wl = workloads.Edit4Stream()
    first = _take(wl.blocks(7, 4200), 2)
    assert first == _take(wl.blocks(7, 4200), 2)
    assert first != _take(wl.blocks(8, 4200), 2)
    for ops, beyond in first:
        # three ops, each with one in-model edit of every kind, and one two-edit word
        assert len(ops) == 3 and len(beyond) == 2
        assert all(sorted(e[0][0] for e in in_model) == ["del", "ins", "sub"]
                   for _, in_model in ops)


def test_delsub_long_is_seeded_with_an_exact_mix():
    wl = workloads.DelSubLong()
    first = _take(wl.blocks(7, 17000), 2)
    assert first == _take(wl.blocks(7, 17000), 2)
    assert first != _take(wl.blocks(8, 17000), 2)
    for block in first:
        shapes = Counter((tuple(e[0] for e in edits), beyond)
                         for _, edits, beyond in block)
        assert shapes == {(("sub", "del"), False): 9, (("del",), False): 5,
                          (("sub",), False): 3, ((), False): 1,
                          (("del", "del"), True): 1, (("del", "sub", "sub"), True): 1}


def test_deltrans_window_is_seeded_with_an_exact_mix():
    wl = workloads.DeltransWindow()
    words = wl.codewords(7)
    assert words == wl.codewords(7)
    assert words != wl.codewords(8)
    for x in words:
        assert abs(len(x) - wl.target_n) <= wl.delta
        segments, residue = deltrans.segment_lenient(x)
        assert not residue and all(4 <= len(s) <= wl.delta for s in segments)
        assert sum(len(s) for s in segments) == len(x)
    first = _take(wl.blocks(7, words), 2)
    assert first == _take(wl.blocks(7, words), 2)
    for block in first:
        kinds = Counter(tuple(e[0] for e in edits) for _, edits, _ in block)
        assert kinds == {("swap",): 12, ("del",): 6, (): 1, ("del", "swap"): 1}
        for which, edits, beyond in block:
            y = workloads.corrupt(words[which].symbols, edits, 2)
            assert beyond or check.within_del_or_trans(words[which].symbols, y)


def test_deltrans_window_plan_has_two_families():
    wl = workloads.DeltransWindow()
    _, entries = wl.construct(wl.prepare(3))
    assert all(plan.t >= 2 for _, _, plan, _, _ in entries)


def test_desk_verify_words_are_seeded():
    wl = workloads.DeskVerify()
    order, beyond = wl.words(7)
    assert (order, beyond) == wl.words(7)
    assert order != wl.words(8)[0]
    assert sorted(order) == list(range(2 ** wl.delsub_n))
    assert Counter(len(y) for y in beyond) == {27: 20, 28: 20}
    codeword = Word((0, 1) * 6 + (0, 0, 1, 1), 2)
    items = wl.desk_inputs(7, [codeword], beyond)
    assert items == wl.desk_inputs(7, [codeword], beyond)
    assert sum(x is None for _, x in items) == len(beyond)
    assert all(check.within_del_or_trans(x.symbols, y.symbols)
               for y, x in items if x is not None)
    words, _ = next(wl.blocks(7, order, items))
    assert len(words) == wl.words_per_block
    for bits, images in words:
        assert len(images) == wl.delsub_n ** 2
        assert all(check.within_del_sub(bits, y) and len(y) == len(bits) - 1
                   for y in images)


def test_timings_are_scaled_by_the_speed_factor():
    tally = workloads.Tally()
    tally.speed.factor = 2.0
    out = tally.encode(lambda: time.sleep(0.02) or "x", ok=lambda out: True)
    assert out == "x"
    assert 0.04 <= tally.encode_s[0] < 0.4
    assert tally.factors == [2.0]


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                       ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    self_s, calls = tracer.layer_totals()
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_tracer_restores_every_patch():
    before = {(id(owner), attr): owner.__dict__[attr]
              for _, owner, attr, _ in tracing.PATCH_POINTS}
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    after = {(id(owner), attr): owner.__dict__[attr]
             for _, owner, attr, _ in tracing.PATCH_POINTS}
    assert before == after
