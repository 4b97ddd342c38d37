import json

import pytest

from syncodec.cli import main
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


def test_deltrans_paper_profile_encode_refused(capsys):
    code, out = run_cli(capsys, "encode", "--code", "deltrans",
                        "--profile", "paper", "--n", "1024")
    assert code == 1
    assert "error" in json.loads(out)


def test_verify_code_delsub(capsys):
    code, out = run_cli(capsys, "verify-code", "--code", "delsub", "--n", "10")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert record["max_list_size"] <= 2


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


def test_decode_failure_is_a_json_error(capsys):
    code, out = run_cli(capsys, "decode", "--code", "edit4", "--m", "4",
                        "--word", "000")
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "DecodeFailure"
    # a malformed runlength encoding behind an intact tail
    code, out = run_cli(capsys, "decode", "--code", "edit4", "--m", "1",
                        "--word", "23103000202122110021012101331300302")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "MalformedEncodingError"
