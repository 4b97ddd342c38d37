"""The four seeded workloads, each a closed loop with one caller.

A workload has four parts:

- `prepare(seed)` makes the inputs from the seed, outside any timing.
- `construct(inputs)` is the set-up that `setup_s` times: codec constructors,
  target searches, hash and code builds, codeword sketch precompute.
- `blocks(...)` yields the operations in blocks of a fixed mix; the same seed
  gives the same sequence.
- `run(state, inputs, tally, keep_going)` drives the codecs through their
  public API, one whole block at a time until `keep_going(blocks_done)` says
  stop, timing each encode and decode and checking every output.

`min_blocks` is the fewest blocks that hold 100 in-model decodes, so that at
least ten lie beyond decode_p90_ms; an untraced run never stops before them.

Program functions are always looked up as module attributes at call time
(`deltrans.correct(...)`, never a `from`-import), so that the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import statistics
import time
from collections import Counter
from pathlib import Path

from syncodec import delsub, deltrans, edit4, oracle
from syncodec.errors import DecodeFailure
from syncodec.words import ErrorModel, Word, forward_images

import check
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    # string seeds hash the same way in every process
    return random.Random(f"{workload}:{seed}:{purpose}")


def _random_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(map(int, format(rng.getrandbits(n), f"0{n}b")))


def corrupt(symbols: tuple[int, ...], edits, q: int) -> tuple[int, ...]:
    """Apply edits in order.  Positions are 1-based into the current word.

    ("del", i) deletes, ("ins", i, a) inserts a before position i, ("sub", i, k)
    adds k (mod q) to symbol i, ("swap", i) swaps positions i and i+1.
    """
    s = list(symbols)
    for edit in edits:
        kind, i = edit[0], edit[1] - 1
        if kind == "del":
            del s[i]
        elif kind == "ins":
            s.insert(i, edit[2])
        elif kind == "sub":
            s[i] = (s[i] + edit[2]) % q
        elif kind == "swap":
            s[i], s[i + 1] = s[i + 1], s[i]
        else:
            raise ValueError(f"unknown edit {edit!r}")
    return tuple(s)


def _edit(rng: random.Random, kind: str, length: int, q: int) -> tuple:
    if kind == "del":
        return ("del", rng.randint(1, length))
    if kind == "ins":
        return ("ins", rng.randint(1, length + 1), rng.randrange(q))
    return ("sub", rng.randint(1, length), rng.randint(1, q - 1))


def _two_positions(rng: random.Random, length: int) -> tuple[int, int]:
    """Two distinct uniform positions in 1..length."""
    a = rng.randint(1, length)
    b = rng.randint(1, length - 1)
    return a, b + (b >= a)


class Tally:
    """Per-run timings and check results."""

    def __init__(self) -> None:
        self.encode_s: list[float] = []
        self.decode_s: list[float] = []    # in-model decode latencies
        self.decodes = 0                   # every decode, beyond-model ones too
        # in-model decodes per second of their decode time, one per block
        self.block_rates: list[float] = []
        self._block = [0, 0.0]
        self.busy_s = 0.0        # adjusted seconds in all timed program calls
        self.attempted = 0       # in-model operations checked
        self.failed = 0
        self.failures: Counter = Counter()
        self.beyond = 0          # beyond-model decodes attempted
        self.contract_failed = 0
        self.contract: Counter = Counter()
        self.list2 = 0           # list decodes returning two candidates
        self.images = 0          # oracle forward images enumerated
        self.image_s = 0.0
        # the traced run swaps in a context that stops recording spans while
        # the benchmark re-encodes answers to check them
        self.paused = contextlib.nullcontext
        self.speed = Speed()
        self.factors: list[float] = []  # speed factor applied to each timing

    def calibrate(self) -> None:
        """Measure the machine's speed again; call before each operation."""
        self.speed.calibrate()

    def _timed(self, fn, args):
        """Call fn(*args); its time is adjusted to the reference speed."""
        factor = self.speed.factor
        start = time.perf_counter()
        try:
            out, exc = fn(*args), None
        except Exception as e:  # the checks below count it against the codec
            out, exc = None, e
        elapsed = (time.perf_counter() - start) * factor
        self.busy_s += elapsed
        self.factors.append(factor)
        return out, exc, elapsed

    def _decoded(self, out, elapsed: float, in_model: bool) -> None:
        self.decodes += 1
        if in_model:
            self.decode_s.append(elapsed)
            self._block[0] += 1
            self._block[1] += elapsed
        if isinstance(out, list) and len(out) == 2:
            self.list2 += 1

    def end_block(self) -> None:
        count, seconds = self._block
        if count:
            self.block_rates.append(count / seconds)
        self._block = [0, 0.0]

    def verdict(self, ok: bool, label: str) -> bool:
        """Count one in-model operation; return whether it passed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[label] += 1
        return ok

    def encode(self, fn, *args, ok):
        out, exc, elapsed = self._timed(fn, args)
        self.encode_s.append(elapsed)
        if exc is not None:
            self.verdict(False, f"encode:{type(exc).__name__}")
            return None
        return out if self.verdict(ok(out), "encode:wrong-output") else None

    def decode(self, fn, *args, ok) -> None:
        out, exc, elapsed = self._timed(fn, args)
        self._decoded(out, elapsed, in_model=True)
        if exc is not None:
            self.verdict(False, f"decode:{type(exc).__name__}")
        else:
            self.verdict(ok(out), "decode:wrong-output")

    def decode_beyond(self, fn, *args, reaches) -> None:
        out, exc, elapsed = self._timed(fn, args)
        self._decoded(out, elapsed, in_model=False)
        self.beyond += 1
        with self.paused():
            passed, label = check.contract_verdict(out, exc, reaches, DecodeFailure)
        self.contract[label] += 1
        if not passed:
            self.contract_failed += 1

    def oracle_call(self, fn, *args):
        out, exc, elapsed = self._timed(fn, args)
        self.image_s += elapsed
        if exc is not None:
            self.verdict(False, f"oracle:{type(exc).__name__}")
        return out

    def end_to_end(self) -> dict[str, float]:
        """Rates and latencies from medians, so that a few seconds of a slower
        machine move them less than they would move totals.  Decode figures
        cover in-model decodes, whose mix every block repeats exactly; a
        beyond-model decode may fail at once or run the whole repair, and is
        judged by the contract instead."""
        deciles = statistics.quantiles(self.decode_s, n=10, method="inclusive")
        return {
            "encode_per_s": 1 / statistics.median(self.encode_s),
            "decode_per_s": statistics.median(self.block_rates),
            "decode_p50_ms": 1000 * statistics.median(self.decode_s),
            "decode_p90_ms": 1000 * deciles[8],
        }


# ---------------------------------------------------------------------------


class Edit4Stream:
    """Edit4Code(4096).  A block is three ops; each op encodes a fresh message
    and decodes one deletion, one insertion and one substitution of its
    codeword, and the block adds one two-edit (beyond-model) word, so that
    word is 10% of decodes."""

    name = "edit4-stream"
    m = 4096
    min_blocks = 12   # 9 in-model decodes per block
    trace_blocks = 2
    beyond_pairs = (("del", "del"), ("ins", "ins"), ("sub", "sub"),
                    ("del", "ins"), ("del", "sub"), ("ins", "sub"))

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def construct(self, inputs: dict):
        return edit4.Edit4Code(self.m)

    def blocks(self, seed: int, n: int):
        """Blocks of ([(message, [in-model edits] x 3)] x 3, two-edit pair)."""
        rng = _rng(self.name, seed, "ops")
        index = 0
        while True:
            ops = [(tuple(rng.choices(range(4), k=self.m)),
                    [[_edit(rng, kind, n, 4)] for kind in ("del", "ins", "sub")])
                   for _ in range(3)]
            first, second = self.beyond_pairs[index % len(self.beyond_pairs)]
            e1 = _edit(rng, first, n, 4)
            shift = {"del": -1, "ins": 1}.get(first, 0)
            yield ops, [e1, _edit(rng, second, n + shift, 4)]
            index += 1

    def run(self, codec, inputs: dict, tally: Tally, keep_going) -> None:
        n = codec.n_total
        for done, (ops, beyond) in enumerate(self.blocks(inputs["seed"], n)):
            if not keep_going(done):
                return
            for z, in_model in ops:
                tally.calibrate()
                message = Word(z, 4)
                x = tally.encode(codec.encode, message, ok=lambda out: len(out) == n)
                if x is None:
                    continue
                for edits in in_model:
                    y = Word(corrupt(x.symbols, edits, 4), 4)
                    tally.decode(codec.decode, y, ok=lambda out: out == message)
            if x is not None:
                y = Word(corrupt(x.symbols, beyond, 4), 4)

                def reaches(answer):
                    if not (isinstance(answer, Word) and answer.q == 4
                            and len(answer) == self.m):
                        return False
                    enc = x if answer == message else codec.encode(answer)
                    return check.within_one_edit(enc.symbols, y.symbols)

                tally.decode_beyond(codec.decode, y, reaches=reaches)
            tally.end_block()


class DelSubLong:
    """DelSubCode(16384).  A block is 20 ops, each encoding a fresh message and
    decoding one corruption of it: 9 deletion+substitution, 5 deletion,
    3 substitution, 1 clean and 2 beyond-model (two deletions; a deletion plus
    two substitutions), shuffled within the block."""

    name = "delsub-long"
    m = 16384
    min_blocks = 6    # 18 in-model decodes per block
    trace_blocks = 1
    mix = ("delsub",) * 9 + ("del",) * 5 + ("sub",) * 3 + ("clean",) \
        + ("2del", "del2sub")
    beyond_kinds = {"2del", "del2sub"}

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def construct(self, inputs: dict):
        return delsub.DelSubCode(self.m)

    @staticmethod
    def _edits(rng: random.Random, kind: str, n: int) -> list:
        if kind == "delsub":
            d, e = _two_positions(rng, n)
            return [("sub", e, 1), ("del", d)]
        if kind == "del":
            return [("del", rng.randint(1, n))]
        if kind == "sub":
            return [("sub", rng.randint(1, n), 1)]
        if kind == "clean":
            return []
        if kind == "2del":
            return [("del", rng.randint(1, n)), ("del", rng.randint(1, n - 1))]
        e1, e2 = _two_positions(rng, n - 1)
        return [("del", rng.randint(1, n)), ("sub", e1, 1), ("sub", e2, 1)]

    def blocks(self, seed: int, n: int):
        """Blocks of [(message, edits, beyond-model?)] x 20."""
        rng = _rng(self.name, seed, "ops")
        while True:
            kinds = list(self.mix)
            rng.shuffle(kinds)
            yield [(_random_bits(rng, self.m), self._edits(rng, kind, n),
                    kind in self.beyond_kinds) for kind in kinds]

    def run(self, codec, inputs: dict, tally: Tally, keep_going) -> None:
        n = codec.n_total
        for done, block in enumerate(self.blocks(inputs["seed"], n)):
            if not keep_going(done):
                return
            for z, edits, beyond in block:
                self._op(codec, n, z, edits, beyond, tally)
            tally.end_block()

    def _op(self, codec, n: int, z, edits, beyond: bool, tally: Tally) -> None:
        tally.calibrate()
        message = Word(z, 2)
        x = tally.encode(codec.encode, message,
                         ok=lambda out: len(out) == n and out.symbols[:self.m] == z)
        if x is None:
            return
        y = Word(corrupt(x.symbols, edits, 2), 2)
        if not beyond:
            tally.decode(codec.decode, y,
                         ok=lambda out: message in out and len(out) <= 2)
            return

        def reaches(answer):
            if not isinstance(answer, list):
                return False
            for c in answer:
                if not (isinstance(c, Word) and c.q == 2 and len(c) == self.m):
                    return False
                enc = x if c == message else codec.encode(c)
                if not check.within_del_sub(enc.symbols, y.symbols):
                    return False
            return True

        tally.decode_beyond(codec.decode, y, reaches=reaches)


class DeltransWindow:
    """ClosedFormHash(12) at n ~ 2001, with two interval families.  A block is
    20 ops over the codewords in turn; each op re-encodes its codeword
    (segment_sketches + window_sketches) and decodes one corruption with that
    side information: 12 adjacent transpositions, 6 deletions, 1 clean and
    1 deletion plus transposition (beyond-model), shuffled within the block."""

    name = "deltrans-window"
    delta = 12
    target_n = 2001
    codeword_count = 4
    min_blocks = 6    # 19 in-model decodes per block
    trace_blocks = 1
    mix = ("trans",) * 12 + ("del",) * 6 + ("clean", "deltrans")

    def _segment(self, rng: random.Random) -> tuple[int, ...]:
        """Random segment of 4..delta bits whose only marker is at its end."""
        length = rng.randint(4, self.delta)
        while True:
            bits = _random_bits(rng, length - 4) if length > 4 else ()
            bits += deltrans.MARKER
            segments, residue = deltrans.segment_lenient(Word(bits, 2))
            if len(segments) == 1 and not residue:
                return bits

    def codewords(self, seed: int) -> list[Word]:
        rng = _rng(self.name, seed, "codewords")
        words = []
        for _ in range(self.codeword_count):
            bits: tuple[int, ...] = ()
            while len(bits) < self.target_n - 4:
                bits += self._segment(rng)
            words.append(Word(bits, 2))
        return words

    def prepare(self, seed: int) -> dict:
        return {"seed": seed, "words": self.codewords(seed)}

    def construct(self, inputs: dict):
        h = deltrans.ClosedFormHash(self.delta)
        entries = []
        for x in inputs["words"]:
            params = deltrans.DeltransParams.desk(len(x), self.delta, h.hash_range)
            plan = deltrans.WindowPlan(len(x), params.locate_bound)
            sketches = deltrans.segment_sketches(x, params, h)
            hats = deltrans.window_sketches(x, plan)
            entries.append((x, params, plan, sketches, hats))
        return h, entries

    @staticmethod
    def _swap_position(rng: random.Random, bits: tuple[int, ...]) -> int:
        while True:
            k = rng.randint(1, len(bits) - 1)
            if bits[k - 1] != bits[k]:
                return k

    def _edits(self, rng: random.Random, kind: str, x: tuple[int, ...]) -> list:
        if kind == "trans":
            return [("swap", self._swap_position(rng, x))]
        if kind == "del":
            return [("del", rng.randint(1, len(x)))]
        if kind == "clean":
            return []
        first = ("del", rng.randint(1, len(x)))
        return [first, ("swap", self._swap_position(rng, corrupt(x, [first], 2)))]

    def blocks(self, seed: int, words: list[Word]):
        """Blocks of [(codeword index, edits, beyond-model?)] x 20."""
        rng = _rng(self.name, seed, "ops")
        index = 0
        while True:
            kinds = list(self.mix)
            rng.shuffle(kinds)
            block = []
            for kind in kinds:
                which = index % len(words)
                block.append((which, self._edits(rng, kind, words[which].symbols),
                              kind == "deltrans"))
                index += 1
            yield block

    def run(self, state, inputs: dict, tally: Tally, keep_going) -> None:
        h, entries = state
        for done, block in enumerate(self.blocks(inputs["seed"], inputs["words"])):
            if not keep_going(done):
                return
            for which, edits, beyond in block:
                self._op(h, entries[which], edits, beyond, tally)
            tally.end_block()

    @staticmethod
    def _op(h, entry, edits, beyond: bool, tally: Tally) -> None:
        tally.calibrate()
        x, params, plan, reference, reference_hats = entry

        def encode():
            return (deltrans.segment_sketches(x, params, h),
                    deltrans.window_sketches(x, plan))

        side = tally.encode(encode, ok=lambda out: out == (reference, reference_hats))
        if side is None:
            return
        (sk, hx), hats = side
        y = Word(corrupt(x.symbols, edits, 2), 2)
        args = (y, sk, hx, hats, plan, params, h)
        if not beyond:
            tally.decode(deltrans.correct, *args, ok=lambda out: out == x)
            return
        tally.decode_beyond(
            deltrans.correct, *args,
            reaches=lambda out: isinstance(out, Word)
            and check.within_del_or_trans(out.symbols, y.symbols))


def source_digest() -> str:
    """sha256 over the package sources; keys caches and stamps results."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "syncodec").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def desk_hash_table(cap: int):
    """The cap-`cap` greedy hash table, built once per source tree and cached.

    `GreedyHash.build(5)` takes about 40 s, longer than a run may spend on
    set-up, so the first run in a checkout builds it with the program's own
    code and stores it under `.bench_build/`; later runs load it.
    """
    path = BUILD_DIR / f"greedy_hash_cap{cap}_{source_digest()[:16]}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        text = deltrans.GreedyHash.build(cap).to_json()
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(text)
        os.replace(tmp, path)
    return deltrans.GreedyHash.from_json(path.read_text())


class DeskVerify:
    """Exhaustive desk-scale work.  First the oracles: verify_code on three
    small codes and the n=12 del-sub sketch class sweep.  Then blocks, each
    list-decoding all 144 criterion-06 images (one deletion, at most one
    substitution) of 4 seeded length-12 words and running the desk deltrans
    decoder once, cycling through every deletion and transposition image of
    its codewords and 40 random length-27/28 words (beyond-model)."""

    name = "desk-verify"
    desk_n = 28
    desk_delta = 5
    # GreedyHash.build(3) runs the same greedy loop over strings of up to 9
    # bits that build(5) runs up to 15 bits, at a hundredth of the cost; its
    # table is exactly the cap-5 table cut to those strings, which the run
    # checks.
    probe_cap = 3
    delsub_n = 12
    edit4_n = 8
    words_per_block = 4
    beyond_words = 40
    min_blocks = 1    # at least 576 in-model decodes per block
    trace_blocks = 20

    def words(self, seed: int) -> tuple[list[int], list[Word]]:
        """Order of the length-12 words to list-decode, and the random
        length-27/28 words for the desk decoder."""
        rng = _rng(self.name, seed, "words")
        order = list(range(2 ** self.delsub_n))
        rng.shuffle(order)
        beyond = [Word(_random_bits(rng, self.desk_n - 1 + i % 2), 2)
                  for i in range(self.beyond_words)]
        return order, beyond

    def prepare(self, seed: int) -> dict:
        table = desk_hash_table(self.desk_delta)
        order, beyond = self.words(seed)
        # DeltransDeskCode.build looks its hash up through desk_hash: serve the
        # cached cap-5 table there and leave every other cap to the program
        build = deltrans.desk_hash
        deltrans.desk_hash = lambda delta: table if delta == table.cap else build(delta)
        return {"seed": seed, "table": table, "order": order, "beyond": beyond}

    def construct(self, inputs: dict):
        probe = deltrans.GreedyHash.build(self.probe_cap)
        code = deltrans.DeltransDeskCode.build(self.desk_n, self.desk_delta)
        params = delsub.DelSubParams(self.delsub_n)
        target, _ = delsub.search_best_target(self.delsub_n)
        delsub_words = oracle.code_from_predicate(
            lambda w: delsub.is_codeword(w, params, target), self.delsub_n, 2)
        edit4_target, _ = edit4.search_best_target(self.edit4_n)
        edit4_words = edit4.codewords_for_target(self.edit4_n, edit4_target)
        return {"probe": probe, "code": code, "params": params,
                "codes": [(edit4_words, ErrorModel.SINGLE_EDIT, 1),
                          (delsub_words, ErrorModel.ONE_DEL_ONE_SUB, 2),
                          (code.codewords, ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION, 1)]}

    def desk_inputs(self, seed: int, codewords: list[Word], beyond: list[Word]):
        """(received word, codeword or None if beyond-model), seeded order."""
        items = [(Word(corrupt(x.symbols, [edit], 2), 2), x)
                 for x in codewords for edit in _deletions_and_swaps(x.symbols)]
        items += [(y, None) for y in beyond]
        _rng(self.name, seed, "desk").shuffle(items)
        return items

    def blocks(self, seed: int, order: list[int], desk_items: list):
        """Blocks of ([(length-12 word, its 144 images)] x 4, desk input)."""
        n = self.delsub_n
        for start in range(0, len(order), self.words_per_block):
            words = []
            for value in order[start:start + self.words_per_block]:
                bits = tuple(map(int, format(value, f"0{n}b")))
                images = [corrupt(bits, [("del", d)] if d == e else
                                  [("sub", e, 1), ("del", d)], 2)
                          for d in range(1, n + 1) for e in range(1, n + 1)]
                words.append((bits, images))
            yield words, desk_items[(start // self.words_per_block) % len(desk_items)]

    def run(self, state, inputs: dict, tally: Tally, keep_going) -> None:
        table, probe, code = inputs["table"], state["probe"], state["code"]
        tally.verdict(probe.table == {k: v for k, v in table.table.items()
                                      if len(k) <= 3 * probe.cap},
                      "greedy-hash-probe")
        self._oracles(state, tally)
        params = state["params"]
        desk_items = self.desk_inputs(inputs["seed"], code.codewords, inputs["beyond"])
        for done, (words, (y, x)) in enumerate(
                self.blocks(inputs["seed"], inputs["order"], desk_items)):
            if not keep_going(done):
                return
            tally.calibrate()
            for bits, images in words:
                w = Word(bits, 2)
                # the 144 list decodes below check the target's values
                target = tally.encode(delsub.sketches, w, params,
                                      ok=lambda out: isinstance(out, delsub.DelSubSketches))
                if target is None:
                    continue
                for image in images:
                    tally.decode(delsub.list_decode, Word(image, 2), target, params,
                                 ok=lambda out: w in out and len(out) <= 2)
            if x is not None:
                tally.decode(code.decode, y, ok=lambda out: out == x)
            else:
                tally.decode_beyond(
                    code.decode, y,
                    reaches=lambda out: isinstance(out, Word)
                    and check.within_del_or_trans(out.symbols, y.symbols))
            tally.end_block()

    def _oracles(self, state, tally: Tally) -> None:
        for words, model, bound in state["codes"]:
            tally.calibrate()
            report = tally.oracle_call(oracle.verify_code, words, model, bound)
            if report is not None:
                tally.verdict(report.max_list_size <= bound, "verify_code")
                tally.images += sum(len(forward_images(w, model)) for w in words)
        params = state["params"]
        tally.calibrate()
        sweep = tally.oracle_call(
            oracle.sketch_class_sweep, self.delsub_n, ErrorModel.ONE_DEL_ONE_SUB,
            lambda w: delsub.sketches(w, params).astuple())
        if sweep is not None:
            max_list, attained, histogram = sweep
            tally.verdict(max_list <= 2 and attained, "sketch_class_sweep")
            tally.images += sum(size * count for size, count in histogram.items())


def _deletions_and_swaps(bits: tuple[int, ...]):
    for d in range(1, len(bits) + 1):
        yield ("del", d)
    for k in range(1, len(bits)):
        if bits[k - 1] != bits[k]:
            yield ("swap", k)


WORKLOADS = {w.name: w for w in (Edit4Stream(), DelSubLong(), DeltransWindow(),
                                 DeskVerify())}
