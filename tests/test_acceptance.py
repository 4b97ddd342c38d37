"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import math
import random
import time

import pytest

from conftest import binary_words
from syncodec import delsub, deltrans, edit4, oracle
from syncodec.sketches import vt
from syncodec.words import (
    DelAndSub,
    Deletion,
    ErrorModel,
    Substitution,
    Transposition,
    Word,
    apply,
    patterns,
    run_count,
)


def _report(number: int, description: str, passed: bool, started: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} "
          f"({time.perf_counter() - started:.1f}s) - {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_01_binary_vt_baseline():
    started = time.perf_counter()
    n, modulus = 8, 17
    best, size = None, -1
    for a in range(modulus):
        members = [w for w in oracle.all_words(n, 2)
                   if vt(w, modulus) == a]
        if len(members) > size:
            best, size = members, len(members)
    report = oracle.verify_code(best, ErrorModel.SINGLE_EDIT, 1)
    ok = report.max_list_size == 1 and report.redundancy_bits <= 5
    ok = ok and (time.perf_counter() - started) < 1.0
    _report(1, "binary VT at n=8 uniquely decodes one edit within 5 bits",
            ok, started)


def test_criterion_02_edit4_unique_decodability():
    started = time.perf_counter()
    ok = True
    for n in (6, 8, 10):
        target, _ = edit4.search_best_target(n)
        members = edit4.codewords_for_target(n, target)
        report = oracle.verify_code(members, ErrorModel.SINGLE_EDIT, 1)
        ok = ok and report.max_list_size <= 1
    ok = ok and (time.perf_counter() - started) < 300
    _report(2, "best 4-ary bucket uniquely decodes one edit at n=6,8,10",
            ok, started)


def test_criterion_03_edit4_code_size():
    started = time.perf_counter()
    ok = True
    for n in (6, 8):
        _, size = edit4.search_best_target(n)
        num, den = edit4.size_lower_bound(n)
        ok = ok and size * den >= num
    _report(3, "4-ary bucket sizes meet the 7*4^n/(512 N) pigeonhole bound",
            ok, started)


def test_criterion_04_edit4_pipeline():
    started = time.perf_counter()
    rng = random.Random(20240601)
    failures = 0
    for m in range(0, 11):
        codec = edit4.Edit4Code(m)
        if m <= 3:
            messages = [Word(s, 4) for s in itertools.product(range(4), repeat=m)]
        else:
            messages = [Word(tuple(rng.randrange(4) for _ in range(m)), 4)
                        for _ in range(8)]
        for z in messages:
            x = codec.encode(z)
            if codec.decode(x) != z:
                failures += 1
            for p in patterns(x, ErrorModel.SINGLE_EDIT):
                if codec.decode(apply(x, p)) != z:
                    failures += 1
    codec = edit4.Edit4Code(64)
    for _ in range(500):
        z = Word(tuple(rng.randrange(4) for _ in range(64)), 4)
        x = codec.encode(z)
        pats = list(patterns(x, ErrorModel.SINGLE_EDIT))
        for p in rng.sample(pats, 20):
            if codec.decode(apply(x, p)) != z:
                failures += 1
    _report(4, "encode/corrupt/decode recovers every message "
               f"(failures={failures})", failures == 0, started)


def test_criterion_05_delsub_list_bound():
    started = time.perf_counter()
    ok = True
    for n in (10, 12, 14):
        params = delsub.DelSubParams(n)
        max_list, attained, _ = oracle.sketch_class_sweep(
            n, ErrorModel.ONE_DEL_ONE_SUB,
            lambda w: delsub.sketches(w, params).astuple())
        ok = ok and max_list <= 2 and attained
    ok = ok and (time.perf_counter() - started) < 900
    _report(5, "one-del-one-sub balls hold at most 2 codewords and 2 occurs",
            ok, started)


def test_criterion_06_delsub_decoder_totality():
    started = time.perf_counter()
    n = 12
    params = delsub.DelSubParams(n)
    failures = 0
    for x in binary_words(n):
        target = delsub.sketches(x, params)
        for d in range(1, n + 1):
            for e in range(1, n + 1):
                y = apply(x, Deletion(d)) if d == e else apply(x, DelAndSub(d, e))
                out = delsub.list_decode(y, target, params)
                if x not in out or len(out) > 2:
                    failures += 1
    _report(6, "list decoding contains the codeword with list size <= 2 "
               f"at n=12 (failures={failures})", failures == 0, started)


def test_criterion_07_delsub_redundancy_slope():
    started = time.perf_counter()
    points = {k: delsub.DelSubCode(2 ** k).redundancy for k in range(6, 13)}
    c = sum(u - 4 * k for k, u in points.items()) / len(points)
    residuals = {k: abs(u - (4 * k + c)) for k, u in points.items()}
    ok = all(r < 2 for r in residuals.values())
    _report(7, f"tail sizes fit 4 log2(m) + {c:.1f} within 2 bits per point",
            ok, started)


def test_criterion_08_deltrans_desk_correction(desk_code):
    started = time.perf_counter()
    code = desk_code
    n = code.params.n
    failures = 0
    for x in code.codewords:
        if code.decode(x) != x:
            failures += 1
        for d in range(1, n + 1):
            if code.decode(apply(x, Deletion(d))) != x:
                failures += 1
        for k in range(1, n):
            if x.symbols[k - 1] == x.symbols[k]:
                continue
            if code.decode(apply(x, Transposition(k))) != x:
                failures += 1
    report = oracle.verify_code(code.codewords,
                                ErrorModel.ONE_DEL_OR_ONE_TRANSPOSITION, 1)
    ok = failures == 0 and report.max_list_size <= 1
    _report(8, f"desk code (n={n}, |C|={len(code.codewords)}) corrects every "
               f"deletion and transposition (failures={failures})", ok, started)


def test_criterion_09_deltrans_locate_window(desk_code):
    started = time.perf_counter()
    code = desk_code
    n = code.params.n
    violations = 0
    for x in code.codewords:
        _, hx = deltrans.segment_sketches(x, code.params, code.hash)
        for d in range(1, n + 1):
            y = apply(x, Deletion(d))
            loc = deltrans.locate(y, code.target, hx, code.params, code.hash)
            spots = [dd for dd in range(1, n + 1)
                     if apply(x, Deletion(dd)) == y]
            if loc.clean or not any(loc.window[0] <= dd <= loc.window[1]
                                    for dd in spots):
                violations += 1
            elif loc.window[1] - loc.window[0] + 1 > code.params.locate_bound:
                violations += 1
        for k in range(1, n):
            if x.symbols[k - 1] == x.symbols[k]:
                continue
            loc = deltrans.locate(apply(x, Transposition(k)), code.target, hx,
                                  code.params, code.hash)
            if loc.clean or not loc.window[0] <= k <= loc.window[1]:
                violations += 1
            elif loc.window[1] - loc.window[0] + 1 > code.params.locate_bound:
                violations += 1
    _report(9, "every locate window contains the error and respects the "
               f"profile bound (violations={violations})",
            violations == 0, started)


def test_criterion_10_sampled_statistics():
    started = time.perf_counter()
    ok = True
    for n in (2 ** 6, 2 ** 8):
        frac = edit4.regular_fraction(n, 100000, seed=20240601)
        ok = ok and frac >= 7 / 8 - 0.02
    params = deltrans.DeltransParams.paper(2 ** 10)
    prob = deltrans.segment_cap_probability(2 ** 10, params.delta, 10000,
                                            seed=20240601)
    ok = ok and prob >= 0.5 - 0.02
    _report(10, "sampled regular-word and short-segment rates meet the bounds",
            ok, started)


def test_criterion_11_inner_sketch_uniqueness():
    started = time.perf_counter()
    failures = 0
    for length in range(1, 11):
        seen = {}
        for z in binary_words(length):
            sk = deltrans.inner_sketch(z.symbols, length)
            images = {z.symbols}
            images.update(apply(z, Deletion(d)).symbols
                          for d in range(1, length + 1))
            images.update(apply(z, Transposition(k)).symbols
                          for k in range(1, length)
                          if z.symbols[k - 1] != z.symbols[k])
            for y in images:
                seen.setdefault((sk, y), set()).add(z.symbols)
        failures += sum(1 for sources in seen.values() if len(sources) != 1)
    _report(11, "the window sketch plus the corrupted word pin the source "
                f"for lengths up to 10 (failures={failures})",
            failures == 0, started)


def test_criterion_12_run_structure_laws():
    started = time.perf_counter()
    failures = 0
    for n in range(1, 13):
        for x in binary_words(n):
            r = run_count(x)
            for d in range(1, n + 1):
                if run_count(apply(x, Deletion(d))) not in (r, r - 2):
                    failures += 1
            for e in range(1, n + 1):
                flipped = apply(x, Substitution(e, 1 - x.symbols[e - 1]))
                if run_count(flipped) not in (r, r - 2, r + 2):
                    failures += 1
    for n in range(8, 13):
        for w in binary_words(n - 4):
            x = Word(w.symbols + (0, 0, 1, 1), 2)
            lx = len(deltrans.segment_lenient(x)[0])
            for d in range(1, n + 1):
                ly = len(deltrans.segment_lenient(apply(x, Deletion(d)))[0])
                if ly - lx not in (-1, 0, 1):
                    failures += 1
            for k in range(1, n):
                if x.symbols[k - 1] == x.symbols[k]:
                    continue
                y = apply(x, Transposition(k))
                ly = len(deltrans.segment_lenient(y)[0])
                if ly - lx not in (-2, -1, 0, 1, 2):
                    failures += 1
    _report(12, "run-count transitions and marker creation/destruction laws "
                f"hold exhaustively (failures={failures})",
            failures == 0, started)
