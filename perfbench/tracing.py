"""Spans around the calls into each package module, from the benchmark side.

The tracer replaces module and class attributes at the places the codecs look
them up (`syncodec.edit4.rll_encode`, `syncodec.edit4.rep_decode`, which edit4
imports from `inner`, `DeltransDeskCode.decode`, ...).  Each wrapper records a
span (name, start, end, parent) in memory; a layer's self time is its spans'
durations minus the durations of their child spans.  Nothing under `src/`
changes, and untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import random
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from syncodec import delsub, deltrans, edit4, oracle
from syncodec.words import Word

from workloads import corrupt


def _list_decode_name(tracer: "Tracer", args) -> str:
    # DelSubCode.decode first list-decodes the sketch fields at the fixed inner
    # capacity, then the payload; desk-scale calls are payload calls too
    params = args[2]
    if params.n == delsub.INNER_CAPACITY and tracer.parent_name() == "delsub.decode":
        return "delsub.list_decode.inner"
    return "delsub.list_decode.payload"


def _count_images(tracer: "Tracer", result) -> None:
    tracer.counts["words.forward_images.images"] += len(result)


def _count_case(tracer: "Tracer", result) -> None:
    tracer.counts[f"deltrans.locate.case.{result.case}"] += 1


# (span name or naming function, owner, attribute, result hook)
PATCH_POINTS = [
    ("words.forward_images", oracle, "forward_images", _count_images),
    ("inner.rep_encode", edit4, "rep_encode", None),
    ("inner.rep_encode", delsub, "rep_encode", None),
    ("inner.rep_decode", edit4, "rep_decode", None),
    ("inner.rep_decode", delsub, "rep_decode", None),
    ("edit4.rll_encode", edit4, "rll_encode", None),
    ("edit4.rll_decode", edit4, "rll_decode", None),
    ("edit4.sketches", edit4, "sketches", None),
    ("edit4.correct_edit", edit4, "correct_edit", None),
    ("edit4.decode", edit4.Edit4Code, "decode", None),
    ("edit4.search_best_target", edit4, "search_best_target", None),
    ("delsub.sketches", delsub, "sketches", None),
    ("delsub.classify_error", delsub, "classify_error", None),
    (_list_decode_name, delsub, "list_decode", None),
    ("delsub.encode", delsub.DelSubCode, "encode", None),
    ("delsub.decode", delsub.DelSubCode, "decode", None),
    ("delsub.search_best_target", delsub, "search_best_target", None),
    ("deltrans.segment_sketches", deltrans, "segment_sketches", None),
    ("deltrans.window_sketches", deltrans, "window_sketches", None),
    ("deltrans.locate", deltrans, "locate", _count_case),
    ("deltrans.inner_correct", deltrans, "inner_correct", None),
    ("deltrans.correct", deltrans, "correct", None),
    ("deltrans.GreedyHash.build", deltrans.GreedyHash, "build", None),
    ("deltrans.DeltransDeskCode.build", deltrans.DeltransDeskCode, "build", None),
    ("deltrans.recover_multiset", deltrans.DeltransDeskCode, "recover_multiset", None),
    ("deltrans.DeltransDeskCode.decode", deltrans.DeltransDeskCode, "decode", None),
    ("oracle.verify_code", oracle, "verify_code", None),
    ("oracle.sketch_class_sweep", oracle, "sketch_class_sweep", None),
]

# Called thousands of times inside a layer whose self time should include
# them (inner_correct, GreedyHash.build), so these are counted, not spanned.
COUNT_POINTS = [
    ("deltrans.inner_sketch.calls", deltrans, "inner_sketch"),
    ("deltrans.confusable_set.calls", deltrans, "confusable_set"),
]


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.recording = True
        self._patches: list[tuple] = []

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, func, name, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return func(*args, **kwargs)
            label = name(self, args) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _counter(self, func, metric):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.recording:
                counts[metric] += 1
            return func(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(make(raw.__func__))
        else:
            patched = make(raw)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        for name, owner, attr, hook in PATCH_POINTS:
            self._patch(owner, attr, lambda f: self._wrap(f, name, hook))
        for metric, owner, attr in COUNT_POINTS:
            self._patch(owner, attr, lambda f: self._counter(f, metric))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def paused(self):
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def structural_counts(self) -> dict[str, int]:
        """Counts that depend on which span called which."""
        names = [span[0] for span in self.spans]
        corrected = {p for (name, _, _, p) in self.spans if name == "edit4.correct_edit"}
        tail_hits = sum(1 for i, name in enumerate(names)
                        if name == "edit4.decode" and i not in corrected)
        in_decode = sum(1 for (name, _, _, p) in self.spans
                        if name == "delsub.encode" and p >= 0
                        and names[p] == "delsub.decode")
        return {"edit4.decode.tail_hits": tail_hits,
                "delsub.encode.calls_in_decode": in_decode}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans}))


def layer_metrics(tracer: Tracer, declared: list[dict]) -> dict[str, float]:
    """The declared per-layer metrics that spans and counters give: `.s` self
    times, `.calls` span counts and the counts of hooks and counters.  Layers
    the workload never called read 0."""
    self_s, calls = tracer.layer_totals()
    counted = {"words.forward_images.images", *(m for m, _, _ in COUNT_POINTS)}
    values: dict[str, float] = {}
    for metric in declared:
        name = metric["name"]
        stem, _, kind = name.rpartition(".")
        if name in counted or stem == "deltrans.locate.case":
            values[name] = tracer.counts.get(name, 0)
        elif kind == "s":
            values[name] = self_s.get(stem, 0.0)
        elif kind == "calls":
            values[name] = calls.get(stem, 0)
    values.update(tracer.structural_counts())
    return values


# ---------------------------------------------------------------------------
# size ladder


def _slope(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _median_seconds(fn, args, check, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
        if not check(out):
            raise RuntimeError(f"{fn.__name__} returned a wrong result on the ladder")
    return statistics.median(times)


def size_ladder(seed: int) -> dict[str, float]:
    """Log-log slopes of three stages ROADMAP item 1 flags as quadratic.

    deltrans.inner_correct works on one interval of length 2*locate_bound+1,
    which the segment cap fixes (1301 at cap 12) whatever n is, so its ladder
    varies the interval length itself.
    """
    rng = random.Random(f"ladder:{seed}")

    def bits(n: int) -> tuple[int, ...]:
        return tuple(rng.getrandbits(1) for _ in range(n))

    sizes, seconds = [1024, 2048, 4096], []
    for m in sizes:
        z = Word(tuple(rng.choices(range(4), k=m)), 4)
        seconds.append(_median_seconds(
            edit4.rll_encode, (z,), lambda x, z=z: edit4.rll_decode(x) == z))
    out = {"edit4.rll_encode.slope": _slope(sizes, seconds)}

    sizes, seconds = [4096, 8192, 16384], []
    for m in sizes:
        z = bits(m)
        params = delsub.DelSubParams(m)
        target = delsub.sketches(Word(z, 2), params)
        d, e = rng.sample(range(1, m + 1), 2)
        y = Word(corrupt(z, [("sub", e, 1), ("del", d)], 2), 2)
        seconds.append(_median_seconds(
            delsub.list_decode, (y, target, params),
            lambda found, z=z: any(c.symbols == z for c in found)))
    out["delsub.list_decode.slope"] = _slope(sizes, seconds)

    sizes, seconds = [325, 651, 1301], []
    for length in sizes:
        w = bits(length)
        sketch = deltrans.inner_sketch(w, length)
        y = corrupt(w, [("del", rng.randint(1, length))], 2)
        seconds.append(_median_seconds(
            deltrans.inner_correct, (y, sketch, length), lambda x, w=w: x == w))
    out["deltrans.inner_correct.slope"] = _slope(sizes, seconds)
    return out
