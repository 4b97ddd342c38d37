import json
import os
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import syncodec
from syncodec.cli import CODES, main
from syncodec.delsub import DelSubCode
from syncodec.edit4 import Edit4Code
from syncodec.words import Word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_corrupt_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "corrupt", "--word", "010101",
                          "--model", "single-edit", "--seed", "7")
    code2, out2 = run_cli(capsys, "corrupt", "--word", "010101",
                          "--model", "single-edit", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["input"] == "010101"
    assert "pattern" in record and "output" in record


def test_corrupt_explicit_pattern(capsys):
    code, out = run_cli(capsys, "corrupt", "--word", "0101",
                        "--pattern", "trans:1")
    assert code == 0
    assert json.loads(out)["output"] == "1001"


def test_sketch_outputs_json(capsys):
    code, out = run_cli(capsys, "sketch", "--code", "delsub",
                        "--word", "110101")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"f", "f1r", "f2r", "h", "hr"}
    assert record["h"]["value"] == 4


def test_edit4_sketch_widens_a_binary_looking_word(capsys):
    # the same word encode accepts, read over the code's alphabet q = 4
    code, out = run_cli(capsys, "sketch", "--code", "edit4", "--word", "0101")
    assert code == 0
    widened = run_cli(capsys, "sketch", "--code", "edit4", "--word", "0101",
                      "--q", "4")
    assert widened == (0, out)
    assert set(json.loads(out)) == {"f", "h0", "h1", "h2"}


def test_vt_sketch_default_modulus(capsys):
    code, out = run_cli(capsys, "sketch", "--code", "vt", "--word", "0101")
    assert code == 0
    assert json.loads(out)["f"] == {"value": 6, "modulus": 9}


def test_edit4_cli_round_trip(capsys):
    message = "0213102"
    code, encoded = run_cli(capsys, "encode", "--code", "edit4",
                            "--word", message, "--q", "4")
    assert code == 0
    corrupted = encoded[:3] + encoded[4:]  # drop one symbol
    code, out = run_cli(capsys, "decode", "--code", "edit4",
                        "--m", str(len(message)), "--word", corrupted, "--q", "4")
    assert code == 0
    assert out == message


def test_delsub_cli_round_trip(capsys):
    message = "110100101"
    code, encoded = run_cli(capsys, "encode", "--code", "delsub",
                            "--word", message)
    assert code == 0
    corrupted = encoded[:5] + encoded[6:]
    code, out = run_cli(capsys, "decode", "--code", "delsub",
                        "--m", str(len(message)), "--word", corrupted)
    assert code == 0
    assert message in json.loads(out)


def test_deltrans_cli_round_trip(capsys, desk_code):
    n = desk_code.params.n
    code, encoded = run_cli(capsys, "encode", "--code", "deltrans",
                            "--n", str(n), "--index", "0")
    assert code == 0
    corrupted = encoded[1:]  # delete the first bit
    code, out = run_cli(capsys, "decode", "--code", "deltrans",
                        "--n", str(n), "--word", corrupted)
    assert code == 0
    assert out == encoded


def test_verify_code_delsub(capsys):
    code, out = run_cli(capsys, "verify-code", "--code", "delsub", "--n", "10")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert record["max_list_size"] <= 2


@pytest.mark.parametrize("code_name, enumeration, n", [
    ("delsub", "_sketch_classes", 8), ("edit4", "enumerate_sketch_space", 6)])
def test_verify_code_enumerates_once(code_name, enumeration, n, capsys,
                                     monkeypatch):
    """verify-code finds the largest sketch class and its members in one
    enumeration of the q^n words."""
    module = CODES[code_name][1]
    calls = []
    enumerate_words = getattr(module, enumeration)

    def counted(*args):
        calls.append(args)
        return enumerate_words(*args)

    monkeypatch.setattr(module, enumeration, counted)
    code, out = run_cli(capsys, "verify-code", "--code", code_name, "--n", str(n))
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == [(n,)]


def test_verify_code_vt(capsys):
    code, out = run_cli(capsys, "verify-code", "--code", "vt", "--n", "8")
    assert code == 0
    assert json.loads(out)["max_list_size"] == 1


def test_search_params_and_inner(capsys):
    code, out = run_cli(capsys, "search-params", "--code", "edit4", "--n", "6")
    assert code == 0
    assert json.loads(out)["bucket_size"] >= 2
    code, out = run_cli(capsys, "search-inner", "--model", "single-edit",
                        "--length", "4")
    assert code == 0
    record = json.loads(out)
    assert record["size"] >= 2 and record["verified_list_bound"] == 1


def test_measure_delsub_tail(capsys):
    code, out = run_cli(capsys, "measure", "--code", "delsub",
                        "--m", "64", "128")
    assert code == 0
    sizes = json.loads(out)["tail_bits"]
    assert sizes["64"] == DelSubCode(64).redundancy
    assert sizes["128"] == DelSubCode(128).redundancy
    # without --m, the desk bucket at --n, as for edit4
    code, out = run_cli(capsys, "measure", "--code", "delsub", "--n", "8")
    assert code == 0
    assert json.loads(out) == {"code": "delsub", "n": 8, "bucket_size": 2,
                               "redundancy_bits": 7.0}
    # past m = 741,455 the sketch fields outgrow INNER_CAPACITY and the inner
    # length follows them: 98 field bits and a 225-bit guard
    code, out = run_cli(capsys, "measure", "--code", "delsub", "--m", "1048576")
    assert code == 0
    assert json.loads(out) == {"code": "delsub", "tail_bits": {"1048576": 323}}


def test_build_hash_writes_table(capsys, tmp_path):
    out_file = tmp_path / "hash.json"
    code, out = run_cli(capsys, "build-hash", "--cap", "2",
                        "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["cap"] == 2
    assert data["table"][""] == 0


def test_bench_runs(capsys):
    code, out = run_cli(capsys, "bench", "--code", "edit4",
                        "--sizes", "16", "32", "--seed", "1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["ok"] for r in rows)


def test_bench_starts_each_clock_after_an_untimed_round(capsys, monkeypatch):
    """Each row encodes and decodes its words once before its clock starts,
    so the first row does not time a cold first call."""
    events = []
    monkeypatch.setattr(syncodec.cli, "time", SimpleNamespace(
        perf_counter=lambda: events.append("clock") or 0.0))
    for name in ("encode", "decode"):
        def logged(self, word, name=name, original=getattr(Edit4Code, name)):
            events.append(name)
            return original(self, word)
        monkeypatch.setattr(Edit4Code, name, logged)
    code, _ = run_cli(capsys, "bench", "--code", "edit4", "--sizes", "4", "8")
    assert code == 0
    assert events == ["encode", "decode", "clock", "encode", "clock", "decode",
                      "clock"] * 2


def test_decode_failure_is_a_json_error(capsys):
    code, out = run_cli(capsys, "decode", "--code", "edit4", "--m", "4",
                        "--word", "000")
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "DecodeFailure"
    # a malformed runlength encoding behind an intact tail
    code, out = run_cli(capsys, "decode", "--code", "edit4", "--m", "1",
                        "--word", "23103222221111100000222223333322222")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "MalformedEncodingError"


@pytest.mark.parametrize("argv, error_type", [
    (["corrupt", "--word", "0101", "--pattern", "del"], "SyncodecError"),
    (["corrupt", "--word", "0101", "--pattern", "ins:2"], "SyncodecError"),
    (["corrupt", "--word", "0101", "--pattern", "delsub:1"], "SyncodecError"),
    (["corrupt", "--word", "0101", "--pattern", "del:x"], "SyncodecError"),
    (["corrupt", "--word", "01a1", "--pattern", "del:1"], "AlphabetError"),
    (["decode", "--code", "edit4", "--m", "1", "--word", "0123", "--q", "300"],
     "AlphabetError"),
    (["decode", "--code", "edit4", "--m", "-3", "--word", "0123"], "AlphabetError"),
    # a 5-ary word whose repetition tail holds a majority of 4s
    (["decode", "--code", "edit4", "--m", "7", "--word",
      "343114020302444124333132333144223230223213"], "AlphabetError"),
    (["corrupt", "--word", "0101", "--q", "1", "--pattern", "del:1"], "AlphabetError"),
    (["sketch", "--code", "vt", "--word", "0101", "--modulus", "-3"], "SyncodecError"),
    (["sketch", "--code", "vt", "--word", "0101", "--modulus", "0"], "SyncodecError"),
    # a segment longer than the hash domain of the default cap 5
    (["sketch", "--code", "deltrans", "--word", "1111111111111111111111110011"],
     "LocateFailure"),
    # a received word of neither length n nor n - 1
    (["decode", "--code", "deltrans", "--n", "28", "--word", "0011"], "LocateFailure"),
    (["verify-code", "--code", "edit4", "--n", "0"], "AlphabetError"),
    (["verify-code", "--code", "vt", "--n", "-1"], "AlphabetError"),
    (["measure", "--code", "vt", "--n", "-1"], "AlphabetError"),
    # --m measures a codec's tail, and vt has no codec
    (["measure", "--code", "vt", "--m", "64", "128"], "SyncodecError"),
    (["search-inner", "--model", "single-edit", "--length", "-1"], "AlphabetError"),
    # 4^14 words: the word count, not the length, is past the enumeration cap
    (["search-inner", "--model", "single-edit", "--length", "14", "--q", "4"],
     "SizeGuardError"),
    (["search-params", "--code", "edit4", "--n", "0"], "AlphabetError"),
    (["search-params", "--code", "edit4", "--n", "11"], "SizeGuardError"),
    (["search-params", "--code", "delsub", "--n", "23"], "SizeGuardError"),
    (["measure", "--code", "edit4", "--n", "0"], "AlphabetError"),
    (["measure", "--code", "delsub", "--n", "-1"], "AlphabetError"),
    (["build-hash", "--cap", "-1", "--out", os.devnull], "SizeGuardError"),
    (["build-hash", "--cap", "0", "--out", os.devnull], "SizeGuardError"),
    (["build-hash", "--cap", "2", "--out", "/nonexistent/dir/x.json"],
     "FileNotFoundError"),
    # more desk candidates than the build enumerates in a few seconds
    (["encode", "--code", "deltrans", "--n", "200"], "SizeGuardError"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_malformed_input_is_a_json_error(capsys, argv, error_type):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == error_type


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_lines() -> list[str]:
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [line.split("#", 1)[0].strip() for line in lines if line.strip()]


def test_readme_library_tour_runs():
    block = README.read_text().split("## Library quick tour", 1)[1]
    exec(block.split("```python\n", 1)[1].split("```", 1)[0], {})


def test_every_exported_name_resolves():
    assert [name for name in syncodec.__all__ if not hasattr(syncodec, name)] == []


# stdout and exit code of every README CLI line, with timings masked; each
# <corrupted> word is its code's README encoding with the 4th symbol deleted
README_GOLDEN = {
    "syncodec corrupt --word 010101 --model single-edit --seed 7": (0, (
        '{"model": "single-edit", "input": "010101", "output": "0100101", '
        '"pattern": {"kind": "insertion", "position": 3, "symbol": 0}}\n')),
    "syncodec sketch --code delsub --word 110101": (0, (
        '{"f": {"value": 13, "modulus": 19}, "f1r": {"value": 16, "modulus": 73}, '
        '"f2r": {"value": 40, "modulus": 577}, "h": {"value": 4, "modulus": 5}, '
        '"hr": {"value": 6, "modulus": 13}}\n')),
    "syncodec encode --code edit4 --word 0213102 --q 4": (0, (
        "02131022013111112222211111000001111133333\n")),
    "syncodec decode --code edit4 --m 7 --word <corrupted>": (0, "0213102\n"),
    "syncodec encode --code delsub --word 110100101": (0, (
        "110100101101110100001000011111000001000000001111100000000001111111"
        "111000001111100000000001111111111111111111111111111111111100000111"
        "110000000000000000000000000111110000011111000000000000000111111111"
        "111111000000000000000111110000000000111110000000000000000000011111\n")),
    "syncodec decode --code delsub --m 9 --word <corrupted>": (0, (
        '["110100101"]\n')),
    "syncodec encode --code deltrans --n 28 --index 0": (0, (
        "0001100011001100110001100011\n")),
    "syncodec decode --code deltrans --n 28 --word <corrupted>": (0, (
        "0001100011001100110001100011\n")),
    "syncodec verify-code --code delsub --n 10": (0, (
        '{"schema_version": 1, "model": "del-sub", "n": 10, "q": 2, '
        '"code_size": 2, "redundancy_bits": 9.0, "list_bound": 2, '
        '"max_list_size": 1, "ok": true, "witnesses": [], '
        '"runtime_seconds": X}\n')),
    "syncodec search-params --code edit4 --n 8": (0, (
        '{"n": 8, "target": {"f": {"value": 35, "modulus": 289}, '
        '"h0": {"value": 0, "modulus": 2}, "h1": {"value": 0, "modulus": 2}, '
        '"h2": {"value": 0, "modulus": 2}}, "bucket_size": 64}\n')),
    "syncodec search-inner --model single-edit --length 4": (0, (
        '{"model": "single-edit", "length": 4, "code": ["0000", "0111"], '
        '"size": 2, "verified_list_bound": 1}\n')),
    "syncodec measure --code delsub --m 64 128 256": (0, (
        '{"code": "delsub", "tail_bits": {"64": 267, "128": 271, "256": 275}}\n')),
    "syncodec build-hash --cap 3 --out hash.json": (0, (
        '{"cap": 3, "range": 31, "entries": 1023, "out": "hash.json"}\n')),
    "syncodec bench --code delsub --sizes 64 128 256 512": (0, (
        '{"code": "delsub", "seed": 0, "rows": ['
        '{"m": 64, "n": 331, "encode_s": X, "decode_s": X, "ok": true}, '
        '{"m": 128, "n": 399, "encode_s": X, "decode_s": X, "ok": true}, '
        '{"m": 256, "n": 531, "encode_s": X, "decode_s": X, "ok": true}, '
        '{"m": 512, "n": 791, "encode_s": X, "decode_s": X, "ok": true}]}\n')),
}


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_are_byte_identical(line, capsys, tmp_path, request):
    argv = line.split()[1:]
    if "deltrans" in argv:
        request.getfixturevalue("desk_code")  # builds and caches the desk hash
    if "<corrupted>" in argv:
        code_name = argv[argv.index("--code") + 1]
        encode_line = next(l for l in _readme_cli_lines()
                           if l.startswith(f"syncodec encode --code {code_name} "))
        main(encode_line.split()[1:])
        encoded = capsys.readouterr().out.strip()
        argv[argv.index("<corrupted>")] = encoded[:3] + encoded[4:]
    out_file = str(tmp_path / "hash.json")
    argv = [out_file if a == "hash.json" else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out.replace(out_file, "hash.json")
    out = re.sub(r'"(runtime_seconds|encode_s|decode_s)": [^,}]+', r'"\1": X', out)
    assert (code, out) == README_GOLDEN[line]
