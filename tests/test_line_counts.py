"""Interpreter work per call on a geometric ladder: a complexity gate that
machine load cannot blur.

A per-symbol, per-segment or per-interval Python loop shows as a count of
interpreter line events that grows with the word.  Each call below is traced
with `sys.settrace`, counting the line events of frames whose code lies under
the package, so numpy's own Python code does not count.  The count at the top
size may be at most 1.5 times the count at the bottom size, 64 times (edit4,
delsub) or 16 times (deltrans) shorter.
"""

import random
import sys
from pathlib import Path

import pytest

import syncodec
from syncodec import deltrans
from syncodec.delsub import DelSubCode
from syncodec.edit4 import Edit4Code
from syncodec.words import (
    DelAndSub,
    Deletion,
    Insertion,
    Substitution,
    Transposition,
    Word,
    apply,
)

PACKAGE = str(Path(syncodec.__file__).resolve().parent)
GROWTH = 1.5


def line_events(call, *args) -> int:
    """The line events of package frames while call(*args) runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count


def _flip(word, i):
    return Substitution(i, (word[i - 1] + 1) % word.q)


def edit4_counts(m: int) -> dict[str, int]:
    rng = random.Random(m)
    code = Edit4Code(m)
    z = Word(tuple(rng.randrange(4) for _ in range(m)), 4)
    x = code.encode(z)
    tail_at = m + 4  # the tail is symbols tail_at + 1 .. n_total
    received = {"deletion": apply(x, Deletion(m // 2)),
                "insertion": apply(x, Insertion(m // 3, 2)),
                "substitution": apply(x, _flip(x, m // 5)),
                "clean": x,
                "tail substitution": apply(x, _flip(x, tail_at + code.tail_len // 2)),
                "tail deletion": apply(x, Deletion(tail_at + 1)),
                "tail insertion": apply(x, Insertion(code.n_total + 1, 1))}
    counts = {"encode": line_events(code.encode, z)}
    counts.update((kind, line_events(code.decode, y)) for kind, y in received.items())
    return counts


def delsub_counts(m: int) -> dict[str, int]:
    """Seeded random messages, and one whose bits m/4 .. m/2 are one run of
    zeros.  Both edits inside the run make a slope -1 stretch; deleting the
    one after the run and flipping the run's last but one makes the scan's
    crossing block, where the flip meets the insertion, the whole run."""
    rng = random.Random(m)
    code = DelSubCode(m)
    z = Word(tuple(rng.getrandbits(1) for _ in range(m)), 2)
    x = code.encode(z)
    received = {"deletion": apply(x, Deletion(m // 2)),
                "substitution": apply(x, _flip(x, m // 5)),
                "deletion+substitution": apply(apply(x, _flip(x, m // 7)), Deletion(m // 2)),
                "clean": x}
    start, end = m // 4, m // 2  # the run is bits start + 1 .. end
    bits = list(z.symbols)
    bits[start:end] = [0] * (end - start)
    bits[start - 1] = bits[end] = 1
    run = code.encode(Word(tuple(bits), 2))
    received["deletion+substitution in a run"] = apply(
        run, DelAndSub(start + m // 16, start + m // 8))
    received["deletion+substitution at a run's end"] = apply(
        run, DelAndSub(end + 1, end - 1))
    counts = {"encode": line_events(code.encode, z)}
    counts.update((kind, line_events(code.decode, y)) for kind, y in received.items())
    return counts


def deltrans_counts(n: int) -> dict[str, int]:
    """ClosedFormHash(12) on a seeded marker-terminal word of about n bits;
    each `correct` kind takes the most over three seeded errors, as the
    locate case varies with the error."""
    rng = random.Random(n)
    h = deltrans.ClosedFormHash(12)
    options = {length: deltrans._segment_options(length) for length in range(4, 13)}
    bits = []
    while len(bits) < n - 4:
        bits.extend(rng.choice(options[rng.randint(4, 12)]))
    x = Word(tuple(bits), 2)
    n = len(x)
    params = deltrans.DeltransParams.desk(n, 12, h.hash_range)
    plan = deltrans.WindowPlan(n, params.locate_bound)

    def encode():
        return deltrans.segment_sketches(x, params, h), deltrans.window_sketches(x, plan)

    (sk, hx), hats = encode()
    swaps = [k for k in range(1, n) if x[k - 1] != x[k]]
    received = {"deletion": [apply(x, Deletion(rng.randint(1, n))) for _ in range(3)],
                "transposition": [apply(x, Transposition(k)) for k in rng.sample(swaps, 3)]}
    counts = {"encode": line_events(encode)}
    for kind, ys in received.items():
        counts[f"correct {kind}"] = max(
            line_events(deltrans.correct, y, sk, hx, hats, plan, params, h) for y in ys)
    return counts


@pytest.mark.parametrize("counts, bottom, top", [
    (edit4_counts, 2 ** 10, 2 ** 16),
    (delsub_counts, 2 ** 10, 2 ** 16),
    (deltrans_counts, 2 ** 11, 2 ** 15),
], ids=["edit4", "delsub", "deltrans"])
def test_interpreter_work_stays_flat_over_the_ladder(counts, bottom, top):
    low, high = counts(bottom), counts(top)
    grown = {op: (low[op], high[op]) for op in low if high[op] > GROWTH * low[op]}
    assert not grown, f"line events grew more than {GROWTH}x: {grown}"
