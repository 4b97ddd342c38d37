"""Trusted brute-force verification of decodability claims.

Everything here enumerates: codes are checked by mapping every codeword onto
its full image set under the error model and counting collisions, which equals
intersecting every compatible received word's error ball with the code.  The
agreement of the two formulations is itself covered by tests at tiny sizes.
`sketch_class_sweep` checks every sketch class of the length-n binary words
the same way: it groups the words by sketch and counts one class's images at
a time, so its memory follows the largest class, not 2^n.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

from .words import ErrorModel, Word, all_words, forward_images

SCHEMA_VERSION = 1
# a failing report lists at most this many received words with too long a list
WITNESS_CAP = 10


@dataclass
class VerificationReport:
    model: str
    n: int
    q: int
    code_size: int
    redundancy_bits: float
    list_bound: int
    max_list_size: int
    witnesses: list[str] = field(default_factory=list)
    runtime_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return self.max_list_size <= self.list_bound

    def to_json(self) -> str:
        return json.dumps({
            "schema_version": self.schema_version,
            "model": self.model,
            "n": self.n,
            "q": self.q,
            "code_size": self.code_size,
            "redundancy_bits": self.redundancy_bits,
            "list_bound": self.list_bound,
            "max_list_size": self.max_list_size,
            "ok": self.ok,
            "witnesses": self.witnesses,
            "runtime_seconds": self.runtime_seconds,
        })


def measure_redundancy(code_size: int, n: int, q: int) -> float:
    """Redundancy in bits: n log2(q) - log2(|C|)."""
    import math

    if code_size < 1:
        raise ValueError("redundancy needs a non-empty code")
    return n * math.log2(q) - math.log2(code_size)


def code_from_predicate(predicate: Callable[[Word], bool], n: int, q: int,
                        ) -> list[Word]:
    return [w for w in all_words(n, q) if predicate(w)]


def verify_code(codewords: list[Word], model: ErrorModel,
                list_bound: int) -> VerificationReport:
    """Exhaustive list-size check: max |B(y) ∩ C| over every reachable y."""
    start = time.perf_counter()
    if not codewords:
        raise ValueError("cannot verify an empty code")
    n = len(codewords[0])
    q = codewords[0].q
    counts: dict[bytes, int] = {}
    for x in codewords:
        if len(x) != n or x.q != q:
            raise ValueError("codewords must share one length and alphabet")
        for y in forward_images(x, model):
            counts[y.raw] = counts.get(y.raw, 0) + 1
    max_list = max(counts.values())
    witnesses = []
    if max_list > list_bound:
        for symbols, c in sorted(counts.items()):
            if c > list_bound:
                witnesses.append("".join(map(str, symbols)))
                if len(witnesses) >= WITNESS_CAP:
                    break
    return VerificationReport(
        model=model.value, n=n, q=q, code_size=len(codewords),
        redundancy_bits=measure_redundancy(len(codewords), n, q),
        list_bound=list_bound, max_list_size=max_list, witnesses=witnesses,
        runtime_seconds=time.perf_counter() - start)


def search_inner_code(model: ErrorModel, length: int, q: int = 2) -> list[Word]:
    """Greedy maximal code for the model: keep a word whenever its image set
    is disjoint from the images of everything kept so far (lexicographic
    order, so the result is reproducible)."""
    kept: list[Word] = []
    claimed: set[bytes] = set()
    for w in all_words(length, q):
        images = {y.raw for y in forward_images(w, model)}
        if images & claimed:
            continue
        kept.append(w)
        claimed |= images
    return kept


def sketch_class_sweep(n: int, model: ErrorModel,
                       sketch_fn: Callable[[Word], tuple],
                       ) -> tuple[int, bool, dict[int, int]]:
    """Max |B(y) ∩ class| over every sketch class at once, plus a histogram.

    The length-n binary words are grouped by their sketch tuple, and each
    class's received words are counted in a dict of its own, which is folded
    into the histogram before the next class, so memory grows with the largest
    class, not with 2^n.  Returns the maximum, whether the maximum is attained
    at least once at 2, and the histogram of list sizes.
    """
    classes: dict[tuple, list[Word]] = {}
    for x in all_words(n, 2):
        classes.setdefault(sketch_fn(x), []).append(x)
    histogram: dict[int, int] = {}
    for members in classes.values():
        counts: dict[bytes, int] = {}
        for x in members:
            for y in forward_images(x, model):
                counts[y.raw] = counts.get(y.raw, 0) + 1
        for c in counts.values():
            histogram[c] = histogram.get(c, 0) + 1
    max_list = max(histogram)
    return max_list, histogram.get(2, 0) > 0, histogram
