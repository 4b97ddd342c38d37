import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import binary_words
from syncodec import deltrans
from syncodec.deltrans import (
    _UNASSIGNED,
    _common_affixes,
    _earlier_neighbour_keys,
    _phi_scan,
    _segment_options,
    _segment_table,
    _spliced_table,
    GREEDY_HASH_MAX_CAP,
    MARKER,
    ClosedFormHash,
    DeltransDeskCode,
    DeltransParams,
    GreedyHash,
    LocateResult,
    SegmentTable,
    WindowPlan,
    confusable_set,
    correct,
    desk_hash,
    enumerate_candidates,
    expurgate,
    inner_correct,
    inner_fields,
    inner_sketch,
    locate,
    multiset_distance,
    segment_cap_probability,
    segment_lenient,
    segment_sketches,
    window_sketches,
)
from syncodec.errors import (
    AlphabetError,
    DecodeFailure,
    LocateFailure,
    MissingTerminalMarkerError,
    ProfileError,
    SizeGuardError,
)
from syncodec.words import (
    Deletion, ErrorModel, Substitution, Transposition, Word, apply,
    forward_images,
)
from syncodec.oracle import verify_code
from syncodec.sketches import vt_sum

DESK_DELTA = 5
MODEL = ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION


def flip(word, i):
    return apply(word, Substitution(i, 1 - word[i - 1]))


def equivalent_deletions(x, y):
    return [d for d in range(1, len(x) + 1) if apply(x, Deletion(d)) == y]


def marker_word(segment_lengths, rng):
    bits = []
    for length in segment_lengths:
        while True:
            prefix = tuple(rng.getrandbits(1) for _ in range(length - 4))
            seg = prefix + (0, 0, 1, 1)
            inner, residue = segment_lenient(Word(seg, 2))
            if len(inner) == 1 and not residue:
                bits.extend(seg)
                break
    return Word(tuple(bits), 2)


def test_segment_examples():
    for text, expected in [("00110011", ["0011", "0011"]),
                           ("0100110011", ["010011", "0011"]),
                           ("0011", ["0011"])]:
        segs, residue = segment_lenient(Word.parse(text))
        assert [str(Word(s, 2)) for s in segs] == expected and residue == b""


def test_segment_requires_terminal_marker():
    segs, residue = segment_lenient(Word.parse("001101"))
    assert len(segs) == 1 and residue == bytes((0, 1))
    h = desk_hash(DESK_DELTA)
    params = DeltransParams.desk(8, DESK_DELTA, h.hash_range)
    with pytest.raises(MissingTerminalMarkerError):
        segment_sketches(Word.parse("001101"), params, h)


def test_segments_concatenate_back():
    rng = random.Random(0)
    for _ in range(50):
        w = marker_word([rng.randrange(4, 9) for _ in range(5)], rng)
        segs, residue = segment_lenient(w)
        assert residue == b""
        assert b"".join(segs) == w.raw
        assert all(s[-4:] == bytes(MARKER) for s in segs)


def _sliding_segments(bits):
    """segment_lenient as a slice comparison at every position."""
    segments = []
    start = i = 0
    while i + 4 <= len(bits):
        if bits[i:i + 4] == bytes((0, 0, 1, 1)):
            segments.append(bits[start:i + 4])
            start = i = i + 4
        else:
            i += 1
    return segments, bits[start:]


def test_segment_lenient_matches_the_sliding_scan():
    """Exhaustive up to length 12, then seeded words up to length 2001, some
    uniform and some built from pieces that make markers and near-markers."""
    for n in range(13):
        for w in binary_words(n):
            assert segment_lenient(w) == _sliding_segments(w.raw)
    rng = random.Random(41)
    pieces = [(0, 0, 1, 1), (0,), (1,), (0, 0), (1, 1), (0, 0, 1), (0, 1, 1)]
    for _ in range(300):
        n = rng.choice((20, 100, 2001))
        if rng.random() < 0.5:
            bits = tuple(rng.getrandbits(1) for _ in range(n))
        else:
            bits = ()
            while len(bits) < n:
                bits += rng.choice(pieces)
        assert segment_lenient(Word(bits, 2)) == _sliding_segments(bytes(bits))


def _reference_segment_table(word, h):
    """`_segment_table` by its definition: `segment_lenient`, the domain
    check, and the scalar hash of each segment."""
    segments, residue = segment_lenient(word)
    if max(map(len, segments), default=0) > 3 * h.cap:
        raise LocateFailure("a segment is longer than the hash domain")
    return SegmentTable(np.array([len(s) for s in segments], dtype=np.int64),
                        np.array([h(s) for s in segments], dtype=np.int64),
                        len(residue))


def _table_values(table):
    """A segment table's values as Python ints, its fields checked to be
    int64 arrays and an int."""
    assert all(isinstance(a, np.ndarray) and a.dtype == np.int64
               for a in (table.lengths, table.hashes))
    assert type(table.residue) is int
    return table.lengths.tolist(), table.hashes.tolist(), table.residue


def _table_outcome(segment_table, word, h):
    try:
        table = segment_table(word, h)
    except LocateFailure as exc:
        return str(exc)
    return _table_values(table)


@pytest.fixture(scope="module")
def pass_hashes():
    return [ClosedFormHash(12), *map(GreedyHash.build, range(1, 5)), desk_hash(5)]


def test_segment_pass_matches_the_scalar_hashes_exhaustively(pass_hashes):
    """Every word of up to 14 bits, lengths 0-3 included, under
    ClosedFormHash(12) and the greedy hashes of caps 1-5."""
    for n in range(15):
        for w in binary_words(n):
            for h in pass_hashes:
                assert _table_outcome(_segment_table, w, h) == \
                    _table_outcome(_reference_segment_table, w, h)


def _pass_word(rng, kind, n):
    """A seeded word of about n bits: uniform, marker-rich, marker-free, or
    made of short segments, plain or with a residue or an over-long segment."""
    if kind == "uniform":
        return [rng.getrandbits(1) for _ in range(n)]
    if kind == "pieces":
        pieces = [(0, 0, 1, 1), (0,), (1,), (0, 0), (1, 1), (0, 0, 1), (0, 1, 1)]
        bits = []
        while len(bits) < n:
            bits.extend(rng.choice(pieces))
        return bits
    if kind == "marker-free":
        bits = []
        for _ in range(n):
            # a 1 that would complete the marker becomes a 0
            bits.append(rng.getrandbits(1) and int(bits[-3:] != [0, 0, 1]))
        return bits
    longest = rng.choice((6, 9, 12, 15))
    bits = []
    while len(bits) < n:
        bits.extend(rng.choice(_segment_options(rng.randint(4, longest))))
    if kind == "residue":
        bits.extend(rng.getrandbits(1) for _ in range(rng.randint(1, 6)))
    elif kind == "over-long":
        at = rng.randrange(len(bits) // 4) * 4
        bits[at:at] = [1] * rng.randint(13, 60) + [0, 0, 1, 1]
    return bits


def test_segment_pass_matches_the_scalar_hashes_on_random_words(pass_hashes):
    """2,000 seeded words of 15-2,100 bits, each under every hash: an
    over-long segment gives the same LocateFailure, a residue the same
    length."""
    rng = random.Random(59)
    kinds = ["uniform", "pieces", "marker-free", "segments", "residue", "over-long"]
    for i in range(2000):
        w = Word(_pass_word(rng, kinds[i % len(kinds)], rng.randrange(15, 2101)), 2)
        for h in pass_hashes:
            assert _table_outcome(_segment_table, w, h) == \
                _table_outcome(_reference_segment_table, w, h)


def _single_edits(bits):
    """Every word one deletion, insertion, substitution or adjacent
    transposition away from bits (bytes), without bits itself."""
    n = len(bits)
    out = {bits[:i] + bits[i + 1:] for i in range(n)}
    out.update(bits[:i] + s + bits[i:] for i in range(n + 1) for s in (b"\x00", b"\x01"))
    out.update(bits[:i] + bytes((1 - bits[i],)) + bits[i + 1:] for i in range(n))
    out.update(bits[:i] + bits[i + 1:i + 2] + bits[i:i + 1] + bits[i + 2:]
               for i in range(n - 1) if bits[i] != bits[i + 1])
    out.discard(bits)
    return out


def _reference_affixes(u, v):
    """The longest common prefix of u and v, then the longest common suffix
    that overlaps it in neither, one symbol at a time."""
    short = min(len(u), len(v))
    prefix = next((i for i in range(short) if u[i] != v[i]), short)
    suffix = next((i for i in range(short - prefix) if u[-1 - i] != v[-1 - i]),
                  short - prefix)
    return prefix, suffix


def test_common_affixes_match_the_symbol_loop():
    """Seeded pairs of unrelated words of 0-40 bits, and words of about 2,000
    bits one or two edits apart (or equal), so that the suffix search both
    stops within two bits of its bound and gallops far below it."""
    rng = random.Random(101)
    pairs = [tuple(bytes(rng.getrandbits(1) for _ in range(rng.randint(0, 40)))
                   for _ in range(2)) for _ in range(3000)]
    for _ in range(300):
        u = bytes(rng.getrandbits(1) for _ in range(rng.randint(1990, 2010)))
        v = u
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(v) - 1)
            v = rng.choice((v[:i] + v[i + 1:], v[:i] + b"\x01" + v[i:],
                            v[:i] + bytes((1 - v[i],)) + v[i + 1:],
                            v[:i] + v[i + 1:i + 2] + v[i:i + 1] + v[i + 2:]))
        pairs.append((u, v))
    for u, v in pairs:
        assert _common_affixes(u, v) == _reference_affixes(u, v)


def _splice_outcomes(word, edited, h):
    """For y = word and each x in edited, and again with the roles swapped:
    the spliced table of x (from y's) against x's `_segment_table`, as
    `_table_outcome`s; a y that has no table is skipped.  Returns the
    outcomes."""
    def spliced(y, y_table):
        return lambda x, h: _spliced_table(x, y, y_table, h)

    outcomes = []
    fresh = _table_outcome(_segment_table, word, h)
    for bits in edited:
        other = Word(bits, 2)
        other_fresh = _table_outcome(_segment_table, other, h)
        for y, y_fresh, x, x_fresh in ((word, fresh, other, other_fresh),
                                       (other, other_fresh, word, fresh)):
            if isinstance(y_fresh, str):
                continue
            got = _table_outcome(spliced(y, _segment_table(y, h)), x, h)
            assert got == x_fresh, (y, x)
            outcomes.append(got)
    return outcomes


def test_spliced_table_equals_a_fresh_segmentation(pass_hashes):
    """Every single deletion, insertion, substitution and adjacent
    transposition of seeded words of 60-300 bits of every kind, under every
    hash, both ways round: the table spliced from the other word's is the
    fresh one, or the same LocateFailure.  Tables with and without a
    residue and over-long segments all occur."""
    rng = random.Random(89)
    kinds = ["uniform", "pieces", "marker-free", "segments", "residue", "over-long"]
    outcomes = []
    for i in range(12):
        w = Word(_pass_word(rng, kinds[i % len(kinds)], rng.randrange(60, 301)), 2)
        edited = _single_edits(w.raw)
        for h in pass_hashes:
            outcomes += _splice_outcomes(w, edited, h)
    assert {"over-long" if isinstance(o, str) else "residue" if o[2] else "terminal"
            for o in outcomes} == {"over-long", "residue", "terminal"}


def test_spliced_table_equals_a_fresh_segmentation_at_n_2001(monkeypatch):
    """The four deltrans-window codewords (seed 1) under ClosedFormHash(12),
    each with every deletion and adjacent transposition, both ways round."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    h = ClosedFormHash(BIG_DELTA)
    for x in workloads.DeltransWindow().codewords(1):
        bits = x.raw
        edited = {bits[:i] + bits[i + 1:] for i in range(len(bits))}
        edited.update(bits[:i] + bits[i + 1:i + 2] + bits[i:i + 1] + bits[i + 2:]
                      for i in range(len(bits) - 1) if bits[i] != bits[i + 1])
        _splice_outcomes(x, edited, h)


def test_closed_form_hash_pass_is_exact_at_its_largest_cap():
    """hash_segments sums over one segment at a time, at the segment's own
    positions, so the word's length bounds no int64 value; the hash values
    do.  The largest cap whose values fit in int64 hashes a segment of
    3 * cap bits, between short ones, as the scalar hash does, and the next
    cap is refused."""
    low, high = 1, 2 ** 20  # hash_range fits at low and not at high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if ClosedFormHash(mid).hash_range <= 2 ** 63 else (low, mid)
    h = ClosedFormHash(low)
    length = 3 * low
    longest = (b"\x01\x00" * length)[:length - 4] + bytes(MARKER)
    w = Word(bytes(MARKER) + b"\x01" + bytes(MARKER) + longest + b"\x01\x00" + bytes(MARKER), 2)
    lengths, hashes, residue = _table_values(_segment_table(w, h))
    assert lengths == [4, 5, length, 6]
    assert (lengths, hashes, residue) == _table_values(_reference_segment_table(w, h))
    with pytest.raises(SizeGuardError):
        _segment_table(w, ClosedFormHash(high))


def _exact_sums_word(rng, n, cap):
    """A marker-terminal word of exactly n bits: mostly short segments, so
    that it has many, and now and then one of 3 * cap bits."""
    segments = []
    remaining = n
    while remaining >= 16:
        length = 3 * cap if remaining >= 3 * cap + 16 and rng.random() < 0.01 \
            else rng.choice((4, 4, 5, 6, 7, 12))
        segments.append(length)
        remaining -= length
    segments += [remaining] if remaining <= 12 else [remaining - 6, 6]
    return Word(b"".join(b"\x01" * (length - 4) + bytes(MARKER) if length > 12
                         else rng.choice(_segment_options(length))
                         for length in segments), 2)


def test_segment_sums_are_exact_at_the_largest_length_that_fits():
    """The sketch f and the potential scan sum in int64, under a bound of
    (n // 4 + 1)^2 * (3 * cap + 2) * m that `_require_exact_sums` keeps
    below 2^63.  Under ClosedFormHash(50) the largest length it admits,
    119,135 bits, gives the f of the Python-int definition (whose unreduced
    sum exceeds 2^53, past float precision) and the reference scan's index,
    and a deletion is repaired; one bit more is refused by segment_sketches
    and by locate."""
    h = ClosedFormHash(50)
    m = h.hash_range

    def fits(n):
        return (n // 4 + 1) ** 2 * (3 * h.cap + 2) * m < 2 ** 63

    low, high = 8, 2 ** 30  # fits at low and not at high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    n = low
    assert n == 119_135 and n % 4 == 3
    x = _exact_sums_word(random.Random(71), n, h.cap)
    params = DeltransParams.desk(n, h.cap, m)
    sk, hx = segment_sketches(x, params, h)
    segments, _ = segment_lenient(x)
    lengths = [len(seg) for seg in segments]
    hashes = [h(seg) for seg in segments]
    assert max(lengths) == 3 * h.cap and hx == tuple(sorted(hashes))
    f = m * vt_sum(lengths) + vt_sum(hashes)
    assert f > 2 ** 53 and sk.f == f % params.f_mod

    # a merge-del scan over the segments of y, hitting at about its middle
    y = apply(x, Deletion(n // 2))
    y_segments, _ = segment_lenient(y)
    terms = [len(seg) * m + h(seg) for seg in y_segments]
    k = m + sum(hx) - sum(term % m for term in terms)
    at = len(terms) // 2
    fdiff = at * k + sum(terms[at:])
    assert _phi_scan(np.array(terms), k, fdiff, -1, 0) == \
        _reference_phi_scan(terms, k, fdiff, -1, 0) == at
    plan = WindowPlan(n, params.locate_bound)
    assert correct(y, sk, hx, window_sketches(x, plan), plan, params, h) == x

    longer = DeltransParams.desk(n + 1, h.cap, m)
    with pytest.raises(SizeGuardError):
        segment_sketches(Word(x.raw + b"\x00", 2), longer, h)
    with pytest.raises(SizeGuardError):
        locate(x, sk, hx, longer, h)


def _count_segment_passes(monkeypatch) -> list:
    """The words `_segment_table` segments and hashes, in call order."""
    calls = []
    segment_table = deltrans._segment_table

    def counting(word, h):
        calls.append(word)
        return segment_table(word, h)

    monkeypatch.setattr(deltrans, "_segment_table", counting)
    return calls


def test_desk_decode_hashes_each_segment_once(desk_code, monkeypatch):
    """A deletion or transposition decode segments and hashes y once (shared
    by the multiset recovery, locate and correct); the repaired word's table
    is spliced from y's."""
    calls = _count_segment_passes(monkeypatch)
    x = desk_code.codewords[0]
    k = next(k for k in range(1, len(x)) if x[k - 1] != x[k])
    for y in (apply(x, Deletion(1)), apply(x, Transposition(k))):
        calls.clear()
        assert desk_code.decode(y) == x
        assert calls == [y]


def test_correct_segments_a_long_word_once(big_profile, monkeypatch):
    """At n ~ 2000, `correct` segments and hashes y once, after a deletion
    and after a transposition."""
    x, _, params, plan, sk, hx, hats, h = big_profile
    calls = _count_segment_passes(monkeypatch)
    k = next(k for k in range(len(x) // 2, len(x)) if x[k - 1] != x[k])
    for y in (apply(x, Deletion(len(x) // 3)), apply(x, Transposition(k))):
        calls.clear()
        assert correct(y, sk, hx, hats, plan, params, h) == x
        assert calls == [y]


def test_desk_clean_decode_hashes_each_segment_once(desk_code, monkeypatch):
    """An unchanged codeword is segmented and hashed once, by the multiset
    recovery; the clean check reuses its table."""
    calls = _count_segment_passes(monkeypatch)
    for x in desk_code.codewords[:8]:
        calls.clear()
        assert desk_code.decode(x) == x
        assert calls == [x]


def test_greedy_hash_tiny_example():
    # the domain spans lengths up to 3*cap, so even cap=1 needs several values
    h = GreedyHash.build(1)
    assert h(bytes((0,))) != h(bytes((1,)))
    for cap in (-1, 0, 7):
        with pytest.raises(SizeGuardError):
            GreedyHash.build(cap)


def _reference_greedy_build(cap):
    """The greedy assignment one string at a time: each string's value is the
    smallest one unused among the assigned strings of its `confusable_set`."""
    table = {}
    used = 0
    for length in range(3 * cap + 1):
        for value in range(1 << length):
            bits = tuple((value >> (length - 1 - i)) & 1 for i in range(length))
            forbidden = set()
            for other in confusable_set(bytes(bits), cap):
                h = table.get(other)
                if h is not None:
                    forbidden.add(h)
            h = 0
            while h in forbidden:
                h += 1
            table[bytes(bits)] = h
            used = max(used, h + 1)
    entries = {"".join(map(str, k)): v for k, v in table.items()}
    return GreedyHash.from_json(json.dumps(
        {"cap": cap, "range": used, "table": entries}))


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_greedy_build_matches_the_reference_loop(cap):
    h = GreedyHash.build(cap)
    reference = _reference_greedy_build(cap)
    assert h.table == reference.table and h.hash_range == reference.hash_range
    assert h.to_json() == reference.to_json()


# sha256 of the cap-5 table's to_json(), as the reference loop builds it:
# range 67 over 65,535 strings
CAP5_TABLE_SHA256 = "f7070e4a952cb526d55d6a10eac42bbb434bc37221184dfb98a29ae3d895e017"


def test_greedy_build_cap5_table_digest():
    h = desk_hash(5)
    assert h.hash_range == 67 and len(h.table) == 2 ** 16 - 1
    assert hashlib.sha256(h.to_json().encode()).hexdigest() == CAP5_TABLE_SHA256


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_earlier_neighbours_are_the_earlier_confusable_strings(cap):
    """Every string of the cap's domain: the keys below its own that the
    generator yields are its confusable strings assigned before it."""
    def key(bits):
        return int("1" + "".join(map(str, bits)), 2)

    for length in range(3 * cap + 1):
        values = np.arange(1 << length, dtype=np.int64)
        rows = _earlier_neighbour_keys(values, length).tolist()
        for value, row in zip(values.tolist(), rows):
            own = (1 << length) | value
            bits = tuple((value >> (length - 1 - i)) & 1 for i in range(length))
            expected = {key(b) for b in confusable_set(bytes(bits), cap) if key(b) < own}
            assert {k for k in row if k < own} == expected


def test_unassigned_value_is_above_the_widest_neighbour_row():
    """The build's smallest unused value is at most a row's width, and rows
    widen with the length, so it never reaches the value that marks a string
    not assigned yet."""
    widest = _earlier_neighbour_keys(np.zeros(1, np.int64), 3 * GREEDY_HASH_MAX_CAP)
    assert widest.shape[1] < _UNASSIGNED


def test_greedy_hash_invariant_exhaustive():
    cap = 2
    h = GreedyHash.build(cap)
    for bits, value in h.table.items():
        for other in confusable_set(bits, cap):
            assert h.table[other] != value


def test_greedy_hash_round_trips_through_json():
    h = GreedyHash.build(2)
    again = GreedyHash.from_json(h.to_json())
    assert again.table == h.table and again.hash_range == h.hash_range


@pytest.mark.parametrize("bits", [bytes(7), bytes((0, 2, 1)), b"01"],
                         ids=["longer than 3 * cap", "symbol 2", "ascii digits"])
def test_greedy_hash_refuses_a_string_outside_its_domain(bits):
    with pytest.raises(AlphabetError):
        GreedyHash.build(2)(bits)


@pytest.mark.parametrize("make", [GreedyHash.build, ClosedFormHash],
                         ids=["greedy", "closed-form"])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_both_hashes_refuse_a_string_outside_their_domain(make, cap):
    """A symbol 2 or a string of more than 3 * cap bits is no segment; both
    hashes refuse it, and hash every string of the domain."""
    h = make(cap)
    for bits in (bytes((2, 0, 1)), bytes((0, 1, 2)), bytes(3 * cap + 1),
                 b"\x01" * (3 * cap + 1)):
        with pytest.raises(AlphabetError):
            h(bits)
    assert 0 <= h(bytes(3 * cap)) < h.hash_range


def _edited_json(edit):
    """The cap-2 table's JSON with `edit` applied to its data, or the text
    that `edit` returns in its place."""
    data = json.loads(GreedyHash.build(2).to_json())
    text = edit(data)
    return json.dumps(data) if text is None else text


@pytest.mark.parametrize("edit", [
    lambda d: d["table"].update({"01x": 0}),
    lambda d: d["table"].update({"1_0": 0}),
    lambda d: d["table"].update({"0000000": 0}),
    lambda d: d["table"].pop("0110"),
    lambda d: d["table"].update({"0110": -1}),
    lambda d: d["table"].update({"0110": d["range"]}),
    lambda d: d["table"].update({"0110": "3"}),
    lambda d: d.pop("range"),
    lambda d: d.update({"cap": GREEDY_HASH_MAX_CAP + 1}),
    lambda d: json.dumps(d)[:-1],
], ids=["non-binary key", "key with an underscore", "key longer than 3 * cap",
        "missing string", "negative value", "value at the range", "string value",
        "no range", "cap above the largest", "not JSON"])
def test_greedy_hash_from_json_refuses_a_malformed_table(edit):
    with pytest.raises(ProfileError):
        GreedyHash.from_json(_edited_json(edit))


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_greedy_build_is_the_desk_table_cut_to_its_domain(cap):
    """A smaller cap runs the same greedy order over a prefix of the desk
    domain, so its table is the desk table's strings of at most 3 * cap bits;
    the benchmark's desk-scale probe checks this relation at cap 3."""
    desk = desk_hash(DESK_DELTA).table
    assert GreedyHash.build(cap).table == \
        {k: v for k, v in desk.items() if len(k) <= 3 * cap}


def test_closed_form_hash_invariant_exhaustive():
    cap = 3
    h = ClosedFormHash(cap)
    for length in range(3 * cap + 1):
        for value in range(1 << length):
            bits = bytes((value >> (length - 1 - i)) & 1 for i in range(length))
            hv = h(bits)
            assert hv < h.hash_range
            for other in confusable_set(bits, cap):
                assert h(other) != hv


def test_confusable_set_contents():
    a = confusable_set(bytes((0, 1)), 2)
    assert bytes((1, 0)) in a          # one transposition
    assert bytes((1, 1)) in a          # one substitution
    assert bytes((0,)) in a            # one deletion
    assert bytes((0, 1, 1)) in a       # one insertion
    assert bytes((1, 1, 0)) not in a   # needs a transposition plus an insertion


def test_segment_sketches_single_segment():
    h = GreedyHash.build(2)
    params = DeltransParams.desk(8, 5, h.hash_range)
    word = Word.parse("00110011")
    sk, hashes = segment_sketches(word, params, h)
    m = h.hash_range
    t = 4 * m + h(bytes((0, 0, 1, 1)))
    assert sk.f == (1 * t + 2 * t) % params.f_mod
    assert sk.g1 == 2
    assert hashes == tuple(sorted([h(bytes((0, 0, 1, 1)))] * 2))


def test_g2_changes_under_any_transposition():
    h = desk_hash(DESK_DELTA)
    for n in range(8, 13):
        params = DeltransParams.desk(n, DESK_DELTA, h.hash_range)
        for w in binary_words(n - 4):
            word = Word(w.symbols + (0, 0, 1, 1), 2)
            sk, _ = segment_sketches(word, params, h)
            for k in range(1, n):
                if word.symbols[k - 1] == word.symbols[k]:
                    continue
                swapped = apply(word, Transposition(k))
                g2 = sum(1 for i in range(1, n + 1)
                         if sum(swapped.symbols[:i]) % 2) % 3
                assert g2 != sk.g2


def test_expurgation_greedy_trace():
    words = [Word((0, 0, 1, 1), 2)] * 8
    multisets = [(1, 2)] * 5 + [(1, 3)] * 3
    survivors, kept = expurgate(list(words), multisets)
    # the two multisets differ by 2 < 10; the more popular one wins
    assert set(kept) == {(1, 2)}
    assert len(survivors) == 5


def test_expurgation_keeps_far_or_equal_multisets():
    rng = random.Random(6)
    words = [Word((0, 0, 1, 1), 2)] * 40
    multisets = [tuple(sorted(rng.randrange(30) for _ in range(6)))
                 for _ in range(40)]
    survivors, kept = expurgate(list(words), multisets)
    for a in set(kept):
        for b in set(kept):
            assert a == b or multiset_distance(a, b) >= 10
    # the greedy keeps at least a 1/m^10 fraction; trivially true here
    assert len(survivors) >= 1


def test_marker_count_transitions():
    """A deletion moves the marker count by one at most; a transposition by two."""
    for n in range(8, 15):
        for w in binary_words(n - 4):
            word = Word(w.symbols + (0, 0, 1, 1), 2)
            lx = len(segment_lenient(word)[0])
            for d in range(1, n + 1):
                ly = len(segment_lenient(apply(word, Deletion(d)))[0])
                assert ly - lx in (-1, 0, 1)
            for k in range(1, n):
                if word.symbols[k - 1] == word.symbols[k]:
                    continue
                ly = len(segment_lenient(apply(word, Transposition(k)))[0])
                assert ly - lx in (-2, -1, 0, 1, 2)


def test_hash_multiset_drift_bound():
    h = desk_hash(DESK_DELTA)
    rng = random.Random(3)
    for _ in range(40):
        word = marker_word([rng.randrange(4, 6) for _ in range(4)], rng)
        n = len(word)
        _, hx = segment_sketches(
            word, DeltransParams.desk(max(8, n), DESK_DELTA, h.hash_range), h)
        for d in range(1, n + 1):
            segs, _ = segment_lenient(apply(word, Deletion(d)))
            hy = tuple(sorted(h(s) for s in segs))
            assert multiset_distance(hx, hy) <= 3
        for k in range(1, n):
            if word.symbols[k - 1] == word.symbols[k]:
                continue
            segs, _ = segment_lenient(apply(word, Transposition(k)))
            hy = tuple(sorted(h(s) for s in segs))
            assert multiset_distance(hx, hy) <= 4


def test_params_validation():
    with pytest.raises(ProfileError):
        DeltransParams(24, 5, 67, 1).validate()  # bound too small
    p = DeltransParams.paper(1024)
    assert p.delta == 50 + 1000 * 10
    assert p.hash_range == 1000 * p.delta ** 2
    assert p.locate_bound == 10 ** 10 * 10 ** 4
    p.validate()


@pytest.mark.parametrize("n", [-1, 0, 1, 7])
def test_paper_profile_refuses_short_words(n):
    """Below n = 8 the paper profile is refused as a profile, before its
    log n is taken."""
    with pytest.raises(ProfileError):
        DeltransParams.paper(n)


def test_window_plan_geometry():
    plan = WindowPlan(100, 10)
    assert plan.block == 21
    assert plan.t == 5
    assert plan.primary[0] == (1, 21) and plan.primary[-1] == (85, 105)
    assert plan.shifted[0] == (11, 31)
    assert plan.interval_for((1, 9)) == (1, 0)
    assert plan.interval_for((15, 24)) == (2, 0)   # straddles a block boundary
    assert plan.interval_for((96, 100)) == (1, 4)  # inside the padded tail


def _reference_interval_for(plan, window):
    """`WindowPlan.interval_for` by its definition: the first interval,
    primary before shifted, that holds the window."""
    lo, hi = window
    for family, intervals in ((1, plan.primary), (2, plan.shifted)):
        for idx, (a, b) in enumerate(intervals):
            if a <= lo and hi <= b:
                return family, idx
    return None


def test_interval_for_matches_the_reference_loop():
    """Windows of every width up to the bound and past it, at every start
    from 1 to past the last interval, on plans of 1 to 12 intervals."""
    rng = random.Random(73)
    for _ in range(40):
        bound = rng.randint(1, 12)
        plan = WindowPlan(rng.randint(1, 12 * (2 * bound + 1)), bound)
        for lo in range(1, plan.t * plan.block + bound + 2):
            for width in range(2 * bound + 3):
                window = (lo, lo + width)
                try:
                    got = plan.interval_for(window)
                except LocateFailure:
                    got = None
                assert got == _reference_interval_for(plan, window)


def test_inner_sketch_example():
    bits = bytes((0, 1, 0, 1))
    sk = inner_sketch(bits, 4)
    # components (6 mod 5, 5 mod 9) packed to 3 + 4 bits
    assert sk == bytes((0, 0, 1) + (0, 1, 0, 1))
    assert inner_sketch(bytes(4), 4) == bytes(7)
    # length 0 has moduli 1 and 1, so zero-width fields: an empty sketch,
    # and the empty window repairs to itself, bytes or a tuple
    assert inner_sketch(b"", 0) == inner_sketch((), 0) == b""
    assert inner_correct(b"", b"", 0) == b""
    assert inner_correct((), b"", 0) == ()


@pytest.mark.parametrize("length", [4, 6, 8, 10])
def test_inner_sketch_pins_down_the_source(length):
    """Exhaustively: the sketch plus the corrupted window identify the source
    under one deletion or one adjacent transposition."""
    seen = {}
    for z in binary_words(length):
        sk = inner_sketch(z.raw, length)
        for y in {apply(z, Deletion(d)).raw for d in range(1, length + 1)}:
            seen.setdefault((sk, y), set()).add(z.raw)
        swaps = {z.raw}
        for k in range(1, length):
            if z.raw[k - 1] != z.raw[k]:
                swaps.add(apply(z, Transposition(k)).raw)
        for y in swaps:
            seen.setdefault((sk, y), set()).add(z.raw)
    assert all(len(sources) == 1 for sources in seen.values())
    rng = random.Random(length)
    for _ in range(50):
        z = Word(tuple(rng.getrandbits(1) for _ in range(length)), 2)
        sk = inner_sketch(z.raw, length)
        d = rng.randrange(1, length + 1)
        assert inner_correct(apply(z, Deletion(d)).raw, sk, length) == z.raw
        ks = [k for k in range(1, length) if z.raw[k - 1] != z.raw[k]]
        if ks:
            y = apply(z, Transposition(rng.choice(ks)))
            assert inner_correct(y.raw, sk, length) == z.raw
        assert inner_correct(z.raw, sk, length) == z.raw


def _brute_force_inner_correct(window, sketch, length):
    """Reference deletion repair: all 2L insertions, each checked with a
    full inner sketch."""
    found = set()
    for i in range(length):
        for b in (0, 1):
            cand = window[:i] + bytes((b,)) + window[i:]
            if inner_sketch(cand, length) == sketch:
                found.add(cand)
    if len(found) != 1:
        raise DecodeFailure(f"deletion repair admits {len(found)} candidates")
    return found.pop()


def _repair_or_failure(repair, window, sketch, length):
    try:
        return repair(window, sketch, length)
    except DecodeFailure:
        return DecodeFailure


@pytest.mark.parametrize("length", range(1, 11))
def test_deletion_repair_matches_brute_force_exhaustively(length):
    for z in binary_words(length):
        sk = inner_sketch(z.raw, length)
        for y in {apply(z, Deletion(d)).raw for d in range(1, length + 1)}:
            assert inner_correct(y, sk, length) == \
                _brute_force_inner_correct(y, sk, length) == z.raw


def test_deletion_repair_matches_brute_force_on_unrelated_sketches():
    """A sketch of some other word, or arbitrary sketch bits, usually admits
    no insertion; both repairs must then fail alike."""
    rng = random.Random(37)
    failures = 0
    for _ in range(3000):
        length = rng.randrange(2, 40)
        y = bytes(rng.getrandbits(1) for _ in range(length - 1))
        if rng.random() < 0.5:
            other = bytes(rng.getrandbits(1) for _ in range(length))
            sk = inner_sketch(other, length)
        else:
            sk = bytes(rng.getrandbits(1) for _ in range(inner_fields(length).width))
        got = _repair_or_failure(inner_correct, y, sk, length)
        assert got == _repair_or_failure(_brute_force_inner_correct, y, sk, length)
        failures += got is DecodeFailure
    assert 1000 <= failures < 3000


def test_inner_correct_repairs_a_tuple_window_into_a_tuple():
    """The repair is built from slices of the window, so a window of bits
    given as a tuple (as perfbench's size ladder passes it) comes back as a
    tuple equal to the bytes repair."""
    rng = random.Random(43)
    for length in (8, 33, 325):
        z = bytes(rng.getrandbits(1) for _ in range(length))
        sk = inner_sketch(z, length)
        k = next(k for k in range(1, length) if z[k - 1] != z[k])
        for y in (apply(Word(z, 2), Deletion(rng.randint(1, length))).raw,
                  apply(Word(z, 2), Transposition(k)).raw, z):
            assert inner_correct(tuple(y), sk, length) == tuple(z)
            assert inner_correct(y, sk, length) == z


def test_window_sketches_degenerate_plan():
    plan = WindowPlan(10, 10)
    assert plan.t == 1
    word = Word.parse("0100110011")
    g1_hat, g2_hat = window_sketches(word, plan)
    padded = word.raw + bytes(plan.block - 10)
    assert g1_hat == inner_sketch(padded, plan.block)
    assert g2_hat is None


def test_window_sketches_xor_cancellation():
    plan = WindowPlan(42, 10)
    word = Word(tuple([0, 1] * 21), 2)
    g1_hat, _ = window_sketches(word, plan)
    sks = [inner_sketch(word.raw[a - 1:b] + bytes(max(0, b - 42)), plan.block)
           for a, b in plan.primary]
    acc = sks[0]
    for sk in sks[1:]:
        acc = bytes(x ^ y for x, y in zip(acc, sk))
    assert acc == g1_hat


def _reference_fold(acc, bits, intervals, length):
    """acc XOR the inner sketch of bits over each interval, zero past its
    end: the per-interval definition of the folds that `window_sketches`
    and `correct` take in one array pass."""
    for a, b in intervals:
        chunk = bits[a - 1:b]
        sk = inner_sketch(chunk + bytes(b - a + 1 - len(chunk)), length)
        acc = bytes(u ^ v for u, v in zip(acc, sk))
    return acc


def test_window_sketches_match_the_per_interval_fold():
    """Seeded words under plans of 1 to 30 intervals, most of them of a
    length that is no multiple of the block, so the last interval (and
    the last shifted one) runs past the word's end."""
    rng = random.Random(67)
    for case in range(300):
        bound = rng.randint(1, 40)
        block = 2 * bound + 1
        t = case % 30 + 1
        n = max(1, t * block - rng.randrange(block) if case % 5 else t * block)
        plan = WindowPlan(n, bound)
        assert plan.t == t
        word = Word(bytes(rng.getrandbits(1) for _ in range(n)), 2)
        zero = bytes(inner_fields(block).width)
        shifted = _reference_fold(zero, word.raw, plan.shifted, block) if t > 1 else None
        assert window_sketches(word, plan) == \
            (_reference_fold(zero, word.raw, plan.primary, block), shifted)


def test_correct_folds_the_other_intervals_by_their_inner_sketches(monkeypatch):
    """`correct` hands `inner_correct` y's bits over the window's interval
    and the family's hat XOR the inner sketches of y over the family's other
    intervals: as the source before the window, lagging by the deletion
    after it.  locate is replaced by one that names each interval of both
    families in turn, so the deletion (or transposition) lies before the
    window, inside it or after it; plans of 1 to 31 intervals."""
    seen = []
    inner = deltrans.inner_correct

    def recording(window, sketch, length):
        seen.append((window, sketch))
        return inner(window, sketch, length)

    forced = []
    monkeypatch.setattr(deltrans, "inner_correct", recording)
    monkeypatch.setattr(deltrans, "locate", lambda *args: LocateResult(
        False, "same", forced[-1], 0))
    rng = random.Random(79)
    h = ClosedFormHash(BIG_DELTA)
    options = {length: _segment_options(length) for length in range(4, BIG_DELTA + 1)}
    places = set()
    for size, bound in ((2000, None), (700, 400), (900, 30), (3000, 50), (1500, 24)):
        x = _random_marker_word(rng, options, size)
        n = len(x)
        params = DeltransParams.desk(n, BIG_DELTA, h.hash_range)
        plan = WindowPlan(n, bound or params.locate_bound)
        block = plan.block
        sk, hx = segment_sketches(x, params, h)
        hats = window_sketches(x, plan)
        windows = [(a, a) for a, _ in plan.primary]
        windows += [(b - plan.window_bound, b - plan.window_bound + 1)
                    for _, b in plan.shifted]
        for lo, hi in windows:
            family, idx = _reference_interval_for(plan, (lo, hi))
            intervals = plan.primary if family == 1 else plan.shifted
            a, b = intervals[idx]
            errors = [Deletion(d) for d in (rng.randint(1, a), rng.randint(a, min(b, n)),
                                            rng.randint(min(b, n), n))]
            errors.append(_random_error(rng, x.symbols, 1))
            for e in errors:
                y = apply(x, e)
                shift = n - len(y)
                forced.append((lo, hi))
                try:
                    correct(y, sk, hx, hats, plan, params, h)
                except DecodeFailure:
                    pass
                others = [(c - shift, d - shift) if c > lo else (c, d)
                          for j, (c, d) in enumerate(intervals) if j != idx]
                chunk = y.raw[a - 1:b - shift]
                assert seen[-1] == (chunk + bytes(b - shift - a + 1 - len(chunk)),
                                    _reference_fold(hats[family - 1], y.raw, others, block))
                if isinstance(e, Deletion):
                    places.add((family, "before" if e.position < a else
                                "after" if e.position > b else "inside"))
        assert len(seen) == 4 * len(windows)
        seen.clear()
    assert places == {(f, p) for f in (1, 2) for p in ("before", "inside", "after")}


def test_candidates_enumeration():
    words = enumerate_candidates(12, 5)
    assert all(len(w) == 12 for w in words)
    for w in words:
        segs, residue = segment_lenient(w)
        assert residue == b"" and all(4 <= len(s) <= 5 for s in segs)
    assert len(set(w.symbols for w in words)) == len(words)
    # compositions of 12 into {4,5}: 4+4+4 only
    assert len(words) == 1
    # the guard counts before it builds: n = 52 under cap 5 is the largest
    # count it allows, and 53,530 at n = 53 or 99,745 at n = 36 under cap 6
    # are refused
    assert len(enumerate_candidates(52, 5)) == deltrans.DESK_MAX_CANDIDATES
    for n, delta in [(53, 5), (36, 6)]:
        with pytest.raises(SizeGuardError):
            enumerate_candidates(n, delta)


def test_desk_code_build_and_membership(desk_code):
    code = desk_code
    assert code.codewords
    for x in code.codewords:
        segs, residue = segment_lenient(x)
        assert residue == b"" and all(len(s) <= code.params.delta for s in segs)
        sk, hx = segment_sketches(x, code.params, code.hash)
        assert (sk.f, sk.g1, sk.g2) == \
            (code.target.f, code.target.g1, code.target.g2)
    for a in code.distinct_multisets:
        for b in code.distinct_multisets:
            assert a == b or multiset_distance(a, b) >= 10


def test_desk_code_corrects_everything(desk_code):
    code = desk_code
    n = code.params.n
    for x in code.codewords:
        assert code.decode(x) == x
        for d in range(1, n + 1):
            assert code.decode(apply(x, Deletion(d))) == x
        for k in range(1, n):
            if x.symbols[k - 1] == x.symbols[k]:
                continue
            assert code.decode(apply(x, Transposition(k))) == x


def test_desk_decode_answers_reach_y_beyond_the_model(desk_code):
    """Every word one or two substitutions from a codeword, or a substitution
    and then a deletion or an adjacent transposition: an answer must reach y
    by one deletion or adjacent transposition, else the decode raises
    DecodeFailure.  A transposition repair that complements two equal bits
    undoes two substitutions instead, and answers 48 of these words with a
    codeword that cannot reach them."""
    received = set()
    for x in desk_code.codewords:
        for once in (flip(x, i) for i in range(1, len(x) + 1)):
            received.add(once)
            received.update(flip(once, i) for i in range(1, len(x) + 1))
            received.update(forward_images(once, MODEL))
    received -= set(desk_code.codewords)
    assert len(received) == 2960
    for y in received:
        try:
            answer = desk_code.decode(y)
        except DecodeFailure:
            continue
        assert y in forward_images(answer, MODEL)


def test_desk_decode_of_random_words_raises_only_decode_failure(desk_code):
    rng = random.Random(29)
    n = desk_code.params.n
    for _ in range(1000):
        length = rng.choice((n - 1, n))
        y = Word(tuple(rng.getrandbits(1) for _ in range(length)), 2)
        try:
            desk_code.decode(y)
        except DecodeFailure:
            pass


@pytest.mark.parametrize("hash_kind", ["closed-form", "greedy"])
def test_correct_of_random_words_raises_only_decode_failure(desk_code, hash_kind):
    """Random received words, some with a segment longer than the hash
    domain (3 * cap), through `correct`: each answer is consistent with the
    model, else the call raises DecodeFailure; any other exception fails."""
    rng = random.Random(31)
    if hash_kind == "greedy":
        code = desk_code
        x = code.codewords[0]
        h, params, plan, hats = code.hash, code.params, code.plan, code.hats
        target, hx = code.target, segment_sketches(x, params, h)[1]
        tail = ()
    else:
        h = ClosedFormHash(12)
        x = marker_word([10, 12, 9, 11, 8, 10], rng)
        params = DeltransParams.desk(len(x), 12, h.hash_range)
        plan = WindowPlan(len(x), params.locate_bound)
        (target, hx), hats = segment_sketches(x, params, h), window_sketches(x, plan)
        tail = (0, 0, 1, 1)
    n = params.n
    for _ in range(2000):
        length = rng.choice((n - 1, n)) - len(tail)
        y = Word(tuple(rng.getrandbits(1) for _ in range(length)) + tail, 2)
        try:
            out = correct(y, target, hx, hats, plan, params, h)
        except DecodeFailure:
            continue
        model = ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION
        assert out == y or y in forward_images(out, model)


def test_correct_refuses_a_repair_that_contradicts_the_sketches():
    """Beyond the model, a deletion plus an adjacent transposition can make
    the located window's repair pass its inner sketch and still give a word
    whose segment sketches differ from x's: `correct`'s final check refuses
    it.  The seeded search over ClosedFormHash(12) words of about 2001 bits
    finds such a word."""
    h = ClosedFormHash(12)
    for seed in range(300):
        rng = random.Random(seed)
        lengths = []
        while sum(lengths) < 1997:
            lengths.append(rng.randint(4, 12))
        x = marker_word(lengths, rng)
        params = DeltransParams.desk(len(x), 12, h.hash_range)
        plan = WindowPlan(len(x), params.locate_bound)
        (target, hx), hats = segment_sketches(x, params, h), window_sketches(x, plan)
        y = apply(x, Deletion(rng.randint(1, len(x))))
        k = rng.randint(1, len(y) - 1)
        while y[k - 1] == y[k]:
            k = rng.randint(1, len(y) - 1)
        try:
            correct(apply(y, Transposition(k)), target, hx, hats, plan, params, h)
        except DecodeFailure as exc:
            if str(exc) == "repaired word contradicts the sketches":
                return
    pytest.fail("no seed reached the final sketch check")


def test_desk_code_unique_decodability(desk_code):
    report = verify_code(desk_code.codewords,
                         ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION, 1)
    assert report.ok


def test_locate_windows_contain_the_error(desk_code):
    code = desk_code
    n = code.params.n
    for x in code.codewords:
        sk, hx = segment_sketches(x, code.params, code.hash)
        for d in range(1, n + 1):
            y = apply(x, Deletion(d))
            loc = locate(y, code.target, hx, code.params, code.hash)
            assert not loc.clean
            lo, hi = loc.window
            assert hi - lo + 1 <= loc.bound <= code.params.locate_bound
            assert any(lo <= dd <= hi for dd in equivalent_deletions(x, y))
        for k in range(1, n):
            if x.symbols[k - 1] == x.symbols[k]:
                continue
            loc = locate(apply(x, Transposition(k)), code.target, hx,
                         code.params, code.hash)
            assert not loc.clean
            assert loc.window[0] <= k <= loc.window[1]
            assert loc.window[1] - loc.window[0] + 1 <= loc.bound
        loc = locate(x, code.target, hx, code.params, code.hash)
        assert loc.clean and loc.window is None


def _phi_steps(terms, k, factor, offset):
    ly = len(terms)
    values = []
    for i in range(ly, 0, -1):
        suffix = sum(terms[j - 1] for j in range(i + offset + 1, ly + 1))
        values.append(factor * suffix + i * k)
    return values


def test_phi_scan_steps_are_large(desk_code):
    """Consecutive potential values move by at least the per-case floor."""
    code = desk_code
    h = code.hash
    m = h.hash_range
    x = code.codewords[0]
    sk, hx = segment_sketches(x, code.params, code.hash)
    n = code.params.n
    for d in range(1, n + 1):
        y = apply(x, Deletion(d))
        segs, residue = segment_lenient(y)
        if residue or len(segs) != len(hx) - 1:
            continue
        hashes = [h(s) for s in segs]
        terms = [len(s) * m + v for s, v in zip(segs, hashes)]
        k = m + sum(hx) - sum(hashes)
        values = _phi_steps(terms, k, 1, 0)
        for a, b in zip(values, values[1:]):
            assert b - a >= m


def _reference_phi_scan(terms, k, fdiff, dl, threshold):
    """`_phi_scan` by its right-to-left walk over a list of terms, adding
    one term to the suffix sum per step."""
    grow = max(dl, 0)
    suffix = 0
    for i in range(len(terms) - grow, 0, -1):
        if abs(i * k - dl * suffix - fdiff) <= threshold:
            return i
        suffix += terms[i + grow - 1]
    raise LocateFailure("potential scan found no index within the threshold")


def _scan_outcome(scan, terms, *args):
    try:
        return scan(terms, *args)
    except LocateFailure as exc:
        return str(exc)


def test_phi_scan_matches_the_reference_walk():
    """Seeded term lists of 0 to 40 terms under every segment-count change:
    half the targets are the potential at some index, so the scan hits
    (often at several indices, and the largest wins), half are random, so
    it mostly finds nothing and raises the reference's LocateFailure."""
    rng = random.Random(83)
    outcomes = set()
    for _ in range(4000):
        terms = [rng.randint(1, 10 ** 6) for _ in range(rng.randint(0, 40))]
        dl = rng.choice((-2, -1, 1, 2))
        k = rng.randint(-10 ** 7, 10 ** 7)
        threshold = rng.choice((0, rng.randint(0, 10 ** 7)))
        grow = max(dl, 0)
        if rng.random() < 0.5 and len(terms) > grow:
            at = rng.randint(1, len(terms) - grow)
            fdiff = at * k - dl * sum(terms[at + grow:]) + rng.randint(-5, 5)
        else:
            fdiff = rng.randint(-10 ** 9, 10 ** 9)
        got = _scan_outcome(_phi_scan, np.array(terms, dtype=np.int64), k, fdiff,
                            dl, threshold)
        assert got == _scan_outcome(_reference_phi_scan, terms, k, fdiff, dl, threshold)
        outcomes.add(type(got))
    assert outcomes == {int, str}


BIG_DELTA = 12


def _big_profile_word(rng, n):
    fillers = [(1, 0, 1, 0, 0, 1, 1), (0, 1, 1, 0, 0, 1, 1),
               (1, 1, 1, 0, 0, 1, 1), (0, 0, 0, 1, 1, 0, 0, 1, 1)]
    split_del = (0, 0, 1, 0, 1, 0, 0, 1, 1)
    split2 = (0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1)
    bits = []
    anchors = {}
    while len(bits) < n // 3:
        bits.extend(fillers[rng.randrange(len(fillers))])
    anchors["split_del"] = len(bits)
    bits.extend(split_del)
    while len(bits) < 2 * n // 3:
        bits.extend(fillers[rng.randrange(len(fillers))])
    anchors["split2"] = len(bits)
    bits.extend(split2)
    while len(bits) < n - 4:
        bits.extend(fillers[rng.randrange(len(fillers))])
    bits.extend((0, 0, 1, 1))
    return Word(tuple(bits), 2), anchors


@pytest.fixture(scope="module")
def big_profile():
    rng = random.Random(5)
    h = ClosedFormHash(BIG_DELTA)
    word, anchors = _big_profile_word(rng, 2000)
    n = len(word)
    params = DeltransParams.desk(n, BIG_DELTA, h.hash_range)
    plan = WindowPlan(n, params.locate_bound)
    sk, hx = segment_sketches(word, params, h)
    hats = window_sketches(word, plan)
    return word, anchors, params, plan, sk, hx, hats, h


def test_big_profile_has_two_interval_families(big_profile):
    _, _, params, plan, *_ = big_profile
    assert plan.t >= 2


def test_big_profile_split_cases(big_profile):
    x, anchors, params, plan, sk, hx, hats, h = big_profile
    y = apply(x, Deletion(anchors["split_del"] + 4))
    assert locate(y, sk, hx, params, h).case == "split-del"
    assert correct(y, sk, hx, hats, plan, params, h) == x
    y = apply(x, Transposition(anchors["split2"] + 4))
    assert locate(y, sk, hx, params, h).case == "split2-trans"
    assert correct(y, sk, hx, hats, plan, params, h) == x


def test_big_profile_terminal_cases(big_profile):
    x, _, params, plan, sk, hx, hats, h = big_profile
    n = len(x)
    for y in (apply(x, Deletion(n)), apply(x, Deletion(n - 1)),
              apply(x, Transposition(n - 2))):
        loc = locate(y, sk, hx, params, h)
        assert loc.case == "terminal"
        assert correct(y, sk, hx, hats, plan, params, h) == x


def test_big_profile_random_errors(big_profile):
    x, _, params, plan, sk, hx, hats, h = big_profile
    n = len(x)
    rng = random.Random(31)
    cases = set()
    for d in rng.sample(range(1, n + 1), 25):
        y = apply(x, Deletion(d))
        loc = locate(y, sk, hx, params, h)
        cases.add(loc.case)
        assert any(loc.window[0] <= dd <= loc.window[1]
                   for dd in equivalent_deletions(x, y))
        assert loc.window[1] - loc.window[0] + 1 <= loc.bound
        assert correct(y, sk, hx, hats, plan, params, h) == x
    swaps = [k for k in range(1, n) if x.symbols[k - 1] != x.symbols[k]]
    for k in rng.sample(swaps, 25):
        y = apply(x, Transposition(k))
        loc = locate(y, sk, hx, params, h)
        cases.add(loc.case)
        assert loc.window[0] <= k <= loc.window[1]
        assert correct(y, sk, hx, hats, plan, params, h) == x
    assert "same" in cases and any(c.startswith("merge") for c in cases)


def test_big_profile_boundary_errors_use_shifted_family(big_profile):
    x, _, params, plan, sk, hx, hats, h = big_profile
    block = plan.block
    families = set()
    for d in range(block - 2, block + 3):
        y = apply(x, Deletion(d))
        loc = locate(y, sk, hx, params, h)
        families.add(plan.interval_for(loc.window)[0])
        assert correct(y, sk, hx, hats, plan, params, h) == x
    assert 2 in families


def _random_marker_word(rng, options, n):
    """Marker-terminal word of about n bits, one random segment at a time."""
    bits = []
    while len(bits) < n - 4:
        bits.extend(rng.choice(options[rng.randint(4, BIG_DELTA)]))
    return Word(tuple(bits), 2)


def _run_around(bits, d):
    """Positions (1-based, inclusive) of the run holding position d: deleting
    any of them gives the same word."""
    lo = hi = d
    while lo > 1 and bits[lo - 2] == bits[d - 1]:
        lo -= 1
    while hi < len(bits) and bits[hi] == bits[d - 1]:
        hi += 1
    return lo, hi


def _random_error(rng, bits, first):
    """A deletion or an adjacent transposition at position first or later."""
    if rng.random() < 0.5:
        return Deletion(rng.randint(first, len(bits)))
    while True:
        k = rng.randint(first, len(bits) - 1)
        if bits[k - 1] != bits[k]:
            return Transposition(k)


def _marker_forming_deletions(bits):
    """Deletions that close up 01011 or 00101 into a new marker 0011."""
    out = []
    for i in range(len(bits) - 4):
        if bits[i:i + 5] == (0, 1, 0, 1, 1):
            out.append(i + 2)
        elif bits[i:i + 5] == (0, 0, 1, 0, 1):
            out.append(i + 4)
    return out


def test_big_sweep_random_words():
    """Random n ~ 2000 words from segments of at most BIG_DELTA bits.  Per
    word: two errors among its last 9 bits, one deletion that forms a new
    marker, and uniform deletions and adjacent transpositions.  locate keeps
    every error inside its window and correct() restores the word, across
    every locate case but split2-trans (test_big_profile_split_cases)."""
    rng = random.Random(47)
    h = ClosedFormHash(BIG_DELTA)
    options = {length: _segment_options(length) for length in range(4, BIG_DELTA + 1)}
    cases = set()
    for _ in range(6):
        x = _random_marker_word(rng, options, 2000)
        n = len(x)
        params = DeltransParams.desk(n, BIG_DELTA, h.hash_range)
        plan = WindowPlan(n, params.locate_bound)
        sk, hx = segment_sketches(x, params, h)
        hats = window_sketches(x, plan)
        errors = [_random_error(rng, x.symbols, n - 8) for _ in range(2)]
        errors.append(Deletion(rng.choice(_marker_forming_deletions(x.symbols))))
        errors += [_random_error(rng, x.symbols, 1) for _ in range(87)]
        for e in errors:
            y = apply(x, e)
            if isinstance(e, Deletion):
                lo, hi = _run_around(x.symbols, e.position)
            else:
                lo = hi = e.position
            loc = locate(y, sk, hx, params, h)
            cases.add(loc.case)
            assert loc.window[0] <= hi and lo <= loc.window[1]
            assert loc.window[1] - loc.window[0] + 1 <= loc.bound
            assert correct(y, sk, hx, hats, plan, params, h) == x
    assert cases == {"same", "merge-del", "merge-trans", "split-del",
                     "split-trans", "merge2-trans", "terminal"}


def test_big_adjacent_double_flips_never_give_an_unreachable_answer():
    """Two adjacent substitutions of random n ~ 2000 words: correct() answers
    only with a word that reaches y by one deletion or adjacent
    transposition, or raises DecodeFailure: flipping two equal bits back is
    not a transposition."""
    rng = random.Random(53)
    h = ClosedFormHash(BIG_DELTA)
    options = {length: _segment_options(length) for length in range(4, BIG_DELTA + 1)}
    for _ in range(3):
        x = _random_marker_word(rng, options, 2000)
        n = len(x)
        params = DeltransParams.desk(n, BIG_DELTA, h.hash_range)
        plan = WindowPlan(n, params.locate_bound)
        sk, hx = segment_sketches(x, params, h)
        hats = window_sketches(x, plan)
        for i in rng.choices(range(1, n), k=100):
            y = flip(flip(x, i), i + 1)
            try:
                answer = correct(y, sk, hx, hats, plan, params, h)
            except DecodeFailure:
                continue
            assert y in forward_images(answer, MODEL)


def test_segment_cap_probability_paper_profile():
    params = DeltransParams.paper(1024)
    prob = segment_cap_probability(1024, params.delta, 2000, seed=99)
    assert prob >= 0.5 - 0.02


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _output_records(desk_code, window, corrupt):
    """The deltrans outputs `OUTPUTS_SHA256` pins, and the locate cases
    their repairs reach: the desk code's codewords and hats; the sketches
    and hats of the deltrans-window words (seeds 1-3), of the big-profile
    word and of seeded words of about 7,000 and 30,000 bits (6 and 24
    intervals); and the locate result and repair of every op in three
    blocks of each seed, of the big-profile anchors and terminal errors,
    and of 40 seeded errors in each longer word."""
    records = [desk_code.codewords, desk_code.target, desk_code.hats,
               desk_code.distinct_multisets]
    h = ClosedFormHash(BIG_DELTA)
    cases = set()

    def encode(x):
        params = DeltransParams.desk(len(x), BIG_DELTA, h.hash_range)
        plan = WindowPlan(len(x), params.locate_bound)
        sketches, hats = segment_sketches(x, params, h), window_sketches(x, plan)
        records.append((sketches, hats))
        return x, params, plan, sketches, hats

    def repair(entry, y):
        _, params, plan, (sk, hx), hats = entry
        try:
            loc = locate(y, sk, hx, params, h)
            cases.add(loc.case)
            records.append((loc, correct(y, sk, hx, hats, plan, params, h)))
        except DecodeFailure as exc:
            records.append(repr(exc))

    for seed in (1, 2, 3):
        words = window.codewords(seed)
        entries = [encode(x) for x in words]
        blocks = window.blocks(seed, words)
        for _ in range(3):
            for which, edits, _ in next(blocks):
                repair(entries[which], Word(corrupt(words[which].symbols, edits, 2), 2))
    x, anchors = _big_profile_word(random.Random(5), 2000)
    entry = encode(x)
    n = len(x)
    for e in (Deletion(anchors["split_del"] + 4), Transposition(anchors["split2"] + 4),
              Deletion(n), Deletion(n - 1), Transposition(n - 2)):
        repair(entry, apply(x, e))
    rng = random.Random(61)
    options = {length: _segment_options(length) for length in range(4, BIG_DELTA + 1)}
    for size in (7_000, 30_000):
        entry = encode(_random_marker_word(rng, options, size))
        for _ in range(40):
            repair(entry, apply(entry[0], _random_error(rng, entry[0].symbols, 1)))
    return records, cases


# sha256 of repr(_output_records(...)[0]), as the per-interval folds, the
# list segment tables and the right-to-left scan computed it
OUTPUTS_SHA256 = "fcb524bc017a2c5fd35c7d3e1d3ae6c57ab5b3ecb41bbbcc719ff2d046612bb9"


def test_outputs_digest(desk_code, monkeypatch):
    """Encodings, hats, locate results and repairs are byte-identical to
    those of the per-interval, per-segment code, types included: every
    locate case and the clean word are among them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    records, cases = _output_records(desk_code, workloads.DeltransWindow(),
                                     workloads.corrupt)
    assert cases == {"clean", "same", "terminal", "merge-del", "merge-trans",
                     "split-del", "split-trans", "merge2-trans", "split2-trans"}
    assert hashlib.sha256(repr(records).encode()).hexdigest() == OUTPUTS_SHA256
