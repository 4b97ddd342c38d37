"""Alphabet-generic words, corruption operators and exhaustive error balls.

Everything downstream (codecs and oracles) is built on the types here.  Words
are immutable; error-pattern positions are 1-based throughout the public API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

import numpy as np

from .errors import AlphabetError, PositionError, SizeGuardError

# the exhaustive oracles enumerate at most this many words q^n
ENUMERATION_MAX_WORDS = 2 ** 16


_ALPHABET = bytes(range(256))
# the one-byte string of each symbol, for splicing symbols into a word's bytes
SYMBOL_BYTES = tuple(_ALPHABET[s:s + 1] for s in range(256))


@dataclass(frozen=True, init=False)
class Word:
    """A finite string over {0, .., q-1}, 2 <= q <= 256, with an explicit
    alphabet size.

    The symbols are stored once, one byte each, as `raw`, built from any
    iterable of ints, so words equal by content are equal however they were
    built.  `symbols` is a tuple view of the bytes, built on each access, for
    callers that compare with tuples; the package itself reads `raw`, as
    `len`, iteration and indexing do (so a slice of a Word is bytes).
    """

    raw: bytes
    q: int

    def __init__(self, symbols, q: int = 2):
        if not 2 <= q <= 256:
            raise AlphabetError(f"alphabet size must be in [2, 256], got {q}")
        try:
            # iter: bytes() of a numpy array would read its memory, not its
            # items, and bytes(k) would make k zeros
            raw = symbols if type(symbols) is bytes else bytes(iter(symbols))
        except (TypeError, ValueError):
            raise AlphabetError(f"symbols must be integers in [0, {q})") from None
        # one C-level pass: deleting the alphabet must leave nothing
        bad = raw.translate(None, _ALPHABET[:q])
        if bad:
            raise AlphabetError(f"symbol {bad[0]} outside [0, {q})")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str, q: int | None = None) -> "Word":
        """Parse an ASCII digit string; q is inferred from the symbols if omitted."""
        if not all(c in "0123456789" for c in text):
            raise AlphabetError(f"{text!r} is not a digit string")
        raw = bytes(map(int, text))
        if q is None:
            q = max(2, max(raw) + 1 if raw else 2)
        return cls(raw, q)

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self.raw)

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, index):
        return self.raw[index]

    def __iter__(self):
        return iter(self.raw)

    def __str__(self) -> str:
        return "".join(map(str, self.raw))


def require_binary(word: Word) -> None:
    if word.q != 2:
        raise AlphabetError(f"binary word required, got alphabet size {word.q}")


@dataclass(frozen=True)
class Deletion:
    position: int  # delete x_position


@dataclass(frozen=True)
class Insertion:
    position: int  # insert before x_position; n+1 appends
    symbol: int


@dataclass(frozen=True)
class Substitution:
    position: int
    symbol: int  # the new symbol


@dataclass(frozen=True)
class Transposition:
    position: int  # swap x_position with x_{position+1}


@dataclass(frozen=True)
class DelAndSub:
    """Delete x_{delete_at} and substitute x_{flip_at}, both in source indexing.

    A pure deletion is never represented this way (delete_at != flip_at).  For
    binary words the substituted value defaults to the complement; larger
    alphabets must say what the flipped position becomes.
    """

    delete_at: int
    flip_at: int
    new_symbol: int | None = None

    def __post_init__(self) -> None:
        if self.delete_at == self.flip_at:
            raise PositionError("a pure deletion must be a Deletion pattern")


ErrorPattern = Union[Deletion, Insertion, Substitution, Transposition, DelAndSub]


class ErrorModel(Enum):
    SINGLE_EDIT = "single-edit"
    ONE_DEL_ONE_SUB = "del-sub"
    ONE_DEL_OR_ONE_TRANSPOSITION = "del-or-transposition"


def _check_position(position: int, low: int, high: int) -> None:
    if not low <= position <= high:
        raise PositionError(f"position {position} outside [{low}, {high}]")


def _flip_value(word: Word, position: int, new_symbol: int | None) -> int:
    old = word.raw[position - 1]
    if new_symbol is None:
        if old not in (0, 1):
            raise AlphabetError("flip needs an explicit new symbol for q > 2")
        return 1 - old
    if not 0 <= new_symbol < word.q:
        raise AlphabetError(f"symbol {new_symbol} outside [0, {word.q})")
    if new_symbol == old:
        raise PositionError("substitution must change the symbol")
    return new_symbol


def apply(word: Word, pattern: ErrorPattern) -> Word:
    """Apply one corruption pattern; positions are 1-based into the source.

    The image's bytes are slices of the source's and at most one written
    symbol, which is checked here against the alphabet before it is packed.
    """
    s = word.raw
    n = len(s)
    q = word.q
    if isinstance(pattern, Deletion):
        _check_position(pattern.position, 1, n)
        i = pattern.position - 1
        return Word(s[:i] + s[i + 1:], q)
    if isinstance(pattern, Insertion):
        _check_position(pattern.position, 1, n + 1)
        if not 0 <= pattern.symbol < word.q:
            raise AlphabetError(f"symbol {pattern.symbol} outside [0, {word.q})")
        i = pattern.position - 1
        return Word(s[:i] + SYMBOL_BYTES[pattern.symbol] + s[i:], q)
    if isinstance(pattern, Substitution):
        _check_position(pattern.position, 1, n)
        i = pattern.position - 1
        if not 0 <= pattern.symbol < word.q:
            raise AlphabetError(f"symbol {pattern.symbol} outside [0, {word.q})")
        if s[i] == pattern.symbol:
            raise PositionError("substitution must change the symbol")
        return Word(s[:i] + SYMBOL_BYTES[pattern.symbol] + s[i + 1:], q)
    if isinstance(pattern, Transposition):
        _check_position(pattern.position, 1, n - 1)
        i = pattern.position - 1
        return Word(s[:i] + s[i + 1:i + 2] + s[i:i + 1] + s[i + 2:], q)
    if isinstance(pattern, DelAndSub):
        _check_position(pattern.delete_at, 1, n)
        _check_position(pattern.flip_at, 1, n)
        new = _flip_value(word, pattern.flip_at, pattern.new_symbol)
        flipped = s[:pattern.flip_at - 1] + SYMBOL_BYTES[new] + s[pattern.flip_at:]
        d = pattern.delete_at - 1
        return Word(flipped[:d] + flipped[d + 1:], q)
    raise TypeError(f"unknown pattern {pattern!r}")


def patterns(word: Word, model: ErrorModel) -> Iterator[ErrorPattern]:
    """All concrete (non-identity) patterns of the model applicable to word."""
    n = len(word)
    q = word.q
    if model is ErrorModel.SINGLE_EDIT:
        for d in range(1, n + 1):
            yield Deletion(d)
        for i in range(1, n + 2):
            for a in range(q):
                yield Insertion(i, a)
        for e in range(1, n + 1):
            for a in range(q):
                if a != word.raw[e - 1]:
                    yield Substitution(e, a)
    elif model is ErrorModel.ONE_DEL_ONE_SUB:
        for d in range(1, n + 1):
            yield Deletion(d)
        for e in range(1, n + 1):
            for a in range(q):
                if a != word.raw[e - 1]:
                    yield Substitution(e, a)
        for d in range(1, n + 1):
            for e in range(1, n + 1):
                if d == e:
                    continue
                for a in range(q):
                    if a != word.raw[e - 1]:
                        yield DelAndSub(d, e, a)
    elif model is ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION:
        for d in range(1, n + 1):
            yield Deletion(d)
        for k in range(1, n):
            if word.raw[k - 1] != word.raw[k]:
                yield Transposition(k)
    else:
        raise TypeError(f"unknown model {model!r}")


def _substitutions(s: bytes, symbols: tuple[bytes, ...]) -> set[bytes]:
    return {s[:i] + a + s[i + 1:] for i in range(len(s))
            for a in symbols if a != s[i:i + 1]}


def forward_images(word: Word, model: ErrorModel) -> set[Word]:
    """Every word reachable from `word` under the model, including itself.

    The images' bytes are sliced from the word's by the model's definitions,
    the same images `apply` gives for every pattern of `patterns`; only the
    distinct ones become validated Words.  A deletion plus a substitution
    at another position is a substitution of a deletion.
    """
    s, q = word.raw, word.q
    symbols = SYMBOL_BYTES[:q]
    deletions = {s[:i] + s[i + 1:] for i in range(len(s))}
    if model is ErrorModel.SINGLE_EDIT:
        images = deletions | _substitutions(s, symbols) | {
            s[:i] + a + s[i:] for i in range(len(s) + 1) for a in symbols}
    elif model is ErrorModel.ONE_DEL_ONE_SUB:
        images = deletions | _substitutions(s, symbols)
        for d in deletions:
            images |= _substitutions(d, symbols)
    elif model is ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION:
        images = deletions | {s[:i] + s[i + 1:i + 2] + s[i:i + 1] + s[i + 2:]
                              for i in range(len(s) - 1)}
    else:
        raise TypeError(f"unknown model {model!r}")
    images.add(s)
    return {Word(t, q) for t in images}


def compatible_lengths(model: ErrorModel, n: int) -> tuple[int, ...]:
    if model is ErrorModel.SINGLE_EDIT:
        lengths = (n - 1, n, n + 1)
    elif model in (ErrorModel.ONE_DEL_ONE_SUB, ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION):
        lengths = (n - 1, n)
    else:
        raise TypeError(f"unknown model {model!r}")
    return lengths[n == 0:]  # no word has length -1


def reaches(x: bytes, y: bytes, model: ErrorModel) -> bool:
    """Whether y is in forward_images(x, model), for symbols of any alphabet,
    in O(n) from the first two and last two mismatches of two alignments.

    One insertion maps x to y exactly when one deletion maps y to x, so
    after the length test y has length m = n or n - 1.  Deleting x_k
    compares y_i with x_i for i < k and with x_{i+1} for i >= k; head and
    tail mark the mismatches (0-based) of those two alignments with a byte
    1, and head gets two sentinel mismatches at m and m + 1.
    """
    if len(y) not in compatible_lengths(model, len(x)):
        return False
    if len(y) > len(x):
        x, y = y, x
    n, m = len(x), len(y)
    a, b = np.frombuffer(x, dtype=np.uint8), np.frombuffer(y, dtype=np.uint8)
    head = (a[:m] != b).tobytes() + b"\x01\x01"
    first = head.find(1)
    second = head.find(1, first + 1)
    if m == n:
        if model is not ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION:
            return second >= m  # at most one substitution
        # no mismatch, or two adjacent ones that one swap clears
        return first == m or (second == first + 1 < m == head.find(1, second + 1)
                              and x[first] == y[second] and x[second] == y[first])
    tail = (a[1:] != b).tobytes()
    last = tail.rfind(1)
    if model is not ErrorModel.ONE_DEL_ONE_SUB:
        return first > last  # a cut c leaves head[:c] and tail[c:] clean
    before_last = tail.rfind(1, 0, max(last, 0))
    # a cut c leaves head[:c] and tail[c:]: at most one mismatch remains for
    # some c when the second head mismatch lies past the last tail one, or
    # the first head mismatch past the one before the last tail one
    return second > last or first > before_last


def all_words(n: int, q: int) -> Iterator[Word]:
    """Every length-n word over {0, .., q-1}, in lexicographic order; more than
    ENUMERATION_MAX_WORDS are refused (q >= 2, so n = 17 is already too many)."""
    if n < 0:
        raise AlphabetError("word length must not be negative")
    if q < 2:
        raise AlphabetError(f"alphabet size must be >= 2, got {q}")
    if q ** min(n, 17) > ENUMERATION_MAX_WORDS:
        raise SizeGuardError(f"enumeration capped at q^n <= {ENUMERATION_MAX_WORDS}")
    return (Word(symbols, q) for symbols in itertools.product(range(q), repeat=n))


def error_ball(y: Word, model: ErrorModel, n: int, q: int | None = None) -> set[Word]:
    """Exact set B(y) of length-n sources mapping to y under the model.

    Computed by filtration over all q^n candidates; this is the trusted oracle,
    so simplicity wins over speed.  Cost is O(q^n); q^n is capped at
    ENUMERATION_MAX_WORDS.
    """
    candidates = all_words(n, y.q if q is None else q)
    if len(y) not in compatible_lengths(model, n):
        raise PositionError(
            f"|y| = {len(y)} incompatible with model {model.value} at n = {n}")
    return {x for x in candidates if y in forward_images(x, model)}


def run_string(word: Word) -> tuple[int, ...]:
    """Rank sequence r_1 .. r_{n+1} of a binary word, sentinels x_0=0, x_{n+1}=1."""
    require_binary(word)
    ranks = []
    prev = 0
    rank = 0
    for s in word.raw:
        if s != prev:
            rank += 1
        ranks.append(rank)
        prev = s
    if prev != 1:
        rank += 1
    ranks.append(rank)
    return tuple(ranks)


def run_count(word: Word) -> int:
    """Number of runs of the sentinel-padded word 0 || x || 1."""
    require_binary(word)
    return run_string(word)[-1] + 1


def prefix_parity(word: Word) -> Word:
    """Running parity of x_1 .. x_i; a bijection on binary words."""
    require_binary(word)
    out = []
    acc = 0
    for s in word.raw:
        acc ^= s
        out.append(acc)
    return Word(out, 2)
