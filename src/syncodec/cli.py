"""Command-line workbench wiring the codecs and the brute-force oracles."""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time

from . import delsub, deltrans, edit4, oracle
from .errors import SyncodecError
from .sketches import vt
from .words import (
    DelAndSub,
    Deletion,
    ErrorModel,
    Insertion,
    Substitution,
    Transposition,
    Word,
    apply,
    patterns,
)


# --code -> (codec class, sketch-class module, its params at length n).  A
# codec declares its alphabet q, error model and list bound; the module's
# largest sketch class at length n (largest_class) is the desk code that
# verify-code checks.
CODES = {
    "edit4": (edit4.Edit4Code, edit4, edit4.Edit4Params.for_length),
    "delsub": (delsub.DelSubCode, delsub, delsub.DelSubParams),
    "deltrans": (deltrans.DeltransDeskCode, None, None),
}
# the codes with a sketch-class module; their codecs take the message length
_SKETCH_CODES = [name for name, (_, module, _) in CODES.items() if module]

# pattern kind -> (constructor, fewest and most integer fields)
_PATTERNS = {
    "del": (Deletion, 1, 1),
    "ins": (Insertion, 2, 2),
    "sub": (Substitution, 2, 2),
    "trans": (Transposition, 1, 1),
    "delsub": (DelAndSub, 2, 3),
}


def _read_word(args, q: int = 2) -> Word:
    """The input word, widened to alphabet q if it was parsed over a smaller one."""
    text = args.word if args.word is not None else sys.stdin.read().strip()
    word = Word.parse(text, q=args.q)
    return Word(word.raw, q) if word.q < q else word


def _emit(payload) -> None:
    print(json.dumps(payload))


def _sketch_record(sketch, moduli: tuple[int, ...]) -> dict:
    return {f.name: {"value": getattr(sketch, f.name), "modulus": mod}
            for f, mod in zip(dataclasses.fields(sketch), moduli)}


def _pattern_from_text(text: str) -> object:
    kind, _, rest = text.partition(":")
    if kind not in _PATTERNS:
        raise SyncodecError(f"unknown pattern {text!r}")
    make, fewest, most = _PATTERNS[kind]
    try:
        parts = [int(p) for p in rest.split(":") if p != ""]
    except ValueError:
        raise SyncodecError(f"pattern {text!r} has a non-integer field") from None
    if len(parts) < fewest:
        raise SyncodecError(f"too few integer fields in pattern {text!r}")
    return make(*parts[:most])


def _pattern_to_dict(pattern) -> dict:
    out = {"kind": type(pattern).__name__.lower()}
    out.update({k: v for k, v in vars(pattern).items() if v is not None})
    return out


def _largest_vt_class(n: int) -> list[Word]:
    """The first largest VT class mod 2n+1 among the binary words of length n."""
    modulus = 2 * n + 1
    classes: list[list[Word]] = [[] for _ in range(modulus)]
    for w in oracle.all_words(n, 2):
        classes[vt(w, modulus)].append(w)
    return max(classes, key=len)


def _cmd_corrupt(args) -> int:
    word = _read_word(args)
    if args.pattern:
        pattern = _pattern_from_text(args.pattern)
    else:
        model = ErrorModel(args.model)
        choices = list(patterns(word, model))
        if not choices:
            raise SyncodecError("no applicable corruption pattern")
        pattern = random.Random(args.seed).choice(choices)
    corrupted = apply(word, pattern)
    _emit({"model": args.model, "input": str(word), "output": str(corrupted),
           "pattern": _pattern_to_dict(pattern)})
    return 0


def _cmd_sketch(args) -> int:
    word = _read_word(args, CODES[args.code][0].q if args.code in CODES else 2)
    if args.code == "vt":
        modulus = 2 * len(word) + 1 if args.modulus is None else args.modulus
        if modulus < 1:
            raise SyncodecError(f"--modulus must be positive, got {modulus}")
        _emit({"f": {"value": vt(word, modulus), "modulus": modulus}})
    elif args.code == "deltrans":
        h = deltrans.desk_hash(deltrans.DESK_DELTA)
        params = deltrans.DeltransParams.desk(len(word), h.cap, h.hash_range)
        sk, hashes = deltrans.segment_sketches(word, params, h)
        _emit({**_sketch_record(sk, params.moduli), "hash_multiset": list(hashes)})
    else:
        _, module, params_for = CODES[args.code]
        params = params_for(len(word))
        _emit(_sketch_record(module.sketches(word, params), params.moduli))
    return 0


def _cmd_encode(args) -> int:
    if args.code == "deltrans":
        code = deltrans.DeltransDeskCode.build(args.n)
        print(code.encode(args.index))
    else:
        codec = CODES[args.code][0]
        word = _read_word(args, codec.q)
        print(codec(len(word)).encode(word))
    return 0


def _cmd_decode(args) -> int:
    codec_class = CODES[args.code][0]
    word = _read_word(args, codec_class.q)
    if args.code == "deltrans":
        codec = codec_class.build(args.n)
    elif args.m is None:
        raise SyncodecError(f"decoding {args.code} needs --m (message length)")
    else:
        codec = codec_class(args.m)
    decoded = codec.decode(word)
    if codec.list_bound > 1:
        _emit([str(c) for c in decoded])
    else:
        print(decoded)
    return 0


def _cmd_verify_code(args) -> int:
    if args.code == "vt":
        report = oracle.verify_code(
            _largest_vt_class(args.n), ErrorModel.SINGLE_EDIT, 1)
    else:
        codec, module, _ = CODES[args.code]
        if module is None:
            members = codec.build(args.n).codewords
        else:
            members = module.largest_class(args.n)[1]
        report = oracle.verify_code(members, codec.model, codec.list_bound)
    print(report.to_json())
    return 0 if report.ok else 1


def _cmd_search_params(args) -> int:
    _, module, params_for = CODES[args.code]
    target, size = module.search_best_target(args.n)
    _emit({"n": args.n,
           "target": _sketch_record(target, params_for(args.n).moduli),
           "bucket_size": size})
    return 0


def _cmd_search_inner(args) -> int:
    model = ErrorModel(args.model)
    code = oracle.search_inner_code(model, args.length, q=args.q)
    report = oracle.verify_code(code, model, 1) if code else None
    _emit({
        "model": args.model,
        "length": args.length,
        "code": [str(w) for w in code],
        "size": len(code),
        "verified_list_bound": report.max_list_size if report else 0,
    })
    return 0


def _cmd_measure(args) -> int:
    if args.code == "vt":
        size, q = len(_largest_vt_class(args.n)), 2
    else:
        codec, module, _ = CODES[args.code]
        if args.m:
            unit = "tail_bits" if codec.q == 2 else "tail_symbols"
            _emit({"code": args.code,
                   unit: {str(m): codec(m).redundancy for m in args.m}})
            return 0
        size, q = module.search_best_target(args.n)[1], codec.q
    _emit({"code": args.code, "n": args.n, "bucket_size": size,
           "redundancy_bits": oracle.measure_redundancy(size, args.n, q)})
    return 0


def _cmd_build_hash(args) -> int:
    table = deltrans.GreedyHash.build(args.cap)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(table.to_json())
    _emit({"cap": args.cap, "range": table.hash_range,
           "entries": len(table.assigned) - 1, "out": args.out})
    return 0


def _cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    rows = []
    for m in args.sizes:
        codec = CODES[args.code][0](m)
        z = Word(tuple(rng.randrange(codec.q) for _ in range(m)), codec.q)
        # one untimed encode and decode of the row's words first, so that no
        # row times the warm-up of a first call
        x = codec.encode(z)
        y = apply(x, Deletion(rng.randrange(len(x)) + 1))
        codec.decode(y)
        t0 = time.perf_counter()
        x = codec.encode(z)
        t1 = time.perf_counter()
        decoded = codec.decode(y)
        t2 = time.perf_counter()
        ok = z in decoded if codec.list_bound > 1 else decoded == z
        rows.append({"m": m, "n": len(x), "encode_s": t1 - t0,
                     "decode_s": t2 - t1, "ok": ok})
    _emit({"code": args.code, "seed": args.seed, "rows": rows})
    return 0 if all(r["ok"] for r in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncodec",
        description="codecs and oracles for synchronization-error channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_args(p):
        p.add_argument("--word", help="ASCII digit string (defaults to stdin)")
        p.add_argument("--q", type=int, default=None, help="alphabet size")

    p = sub.add_parser("corrupt", help="apply one error pattern")
    add_word_args(p)
    p.add_argument("--model", default="single-edit",
                   choices=[m.value for m in ErrorModel])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", help="e.g. del:3, ins:2:1, sub:4:2, trans:7")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("sketch", help="print the sketches of a word")
    add_word_args(p)
    p.add_argument("--code", required=True, choices=["vt", *CODES])
    p.add_argument("--modulus", type=int)
    p.set_defaults(func=_cmd_sketch)

    p = sub.add_parser("encode", help="encode a message word")
    add_word_args(p)
    p.add_argument("--code", required=True, choices=list(CODES))
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a corrupted word")
    add_word_args(p)
    p.add_argument("--code", required=True, choices=list(CODES))
    p.add_argument("--m", type=int, help="message length (edit4, delsub)")
    p.add_argument("--n", type=int, default=24)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify-code", help="exhaustive decodability check")
    p.add_argument("--code", required=True, choices=["vt", *CODES])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify_code)

    p = sub.add_parser("search-params", help="best sketch target at small n")
    p.add_argument("--code", required=True, choices=_SKETCH_CODES)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_search_params)

    p = sub.add_parser("search-inner", help="greedy small code for a model")
    p.add_argument("--model", required=True,
                   choices=[m.value for m in ErrorModel])
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.set_defaults(func=_cmd_search_inner)

    p = sub.add_parser("measure", help="redundancy measurements")
    p.add_argument("--code", required=True, choices=["vt", *_SKETCH_CODES])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m", type=int, nargs="*", default=[])
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("build-hash", help="greedy segment hash table")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_hash)

    p = sub.add_parser("bench", help="encode/decode wall time across sizes")
    p.add_argument("--code", required=True, choices=_SKETCH_CODES)
    p.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256, 512])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SyncodecError, OSError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
