"""Tests for the command-line front end: formats, exit codes, known outputs."""

import ast
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Set

import pytest

from hecketrace import cli
from hecketrace.drinfeld import FqPoly, fq_poly_from_codes
from hecketrace.ffield import fq_construct

F3 = fq_construct(3, 1)


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_fq_poly_forms():
    T = fq_poly_from_codes(F3, (0, 1))
    one = fq_poly_from_codes(F3, (1,))
    assert cli.parse_fq_poly(F3, "T") == T
    assert cli.parse_fq_poly(F3, "T^2+2*T+1") == fq_poly_from_codes(F3, (1, 2, 1))
    assert cli.parse_fq_poly(F3, "T^2 + 2T + 1") == fq_poly_from_codes(F3, (1, 2, 1))
    assert cli.parse_fq_poly(F3, "-T+1") == one + T * F3.coerce(-1)
    assert cli.parse_fq_poly(F3, "5") == fq_poly_from_codes(F3, (2,))
    assert cli.parse_fq_poly(F3, "[1,0,1]") == fq_poly_from_codes(F3, (1, 0, 1))
    F4 = fq_construct(2, 2)
    assert cli.parse_fq_poly(F4, "[2,1]").coeffs[0] == F4.decode(2)
    with pytest.raises(ValueError):
        cli.parse_fq_poly(F3, "")
    with pytest.raises(ValueError):
        cli.parse_fq_poly(F3, "x+1")
    with pytest.raises(ValueError):
        cli.parse_fq_poly(F3, "T@2")
    # over F_4 an integer past p would read as a code but reduce mod 2
    assert cli.parse_fq_poly(F4, "-T+1") == fq_poly_from_codes(F4, (1, 1))
    with pytest.raises(ValueError, match=r"not below p = 2.*\[c0,c1,\.\.\.\]"):
        cli.parse_fq_poly(F4, "T^2+T+2")


def test_dr_P_integer_and_code_forms_over_F4(capsys):
    code, out, err = _run(capsys, ["dr", "enumerate", "--q", "4", "--P", "T^2+T+2"])
    assert code == 2 and out == ""
    assert "coefficient 2 of 'T^2+T+2' is not below p = 2" in err
    assert "'[c0,c1,...]'" in err and "Traceback" not in err
    code, out, _ = _run(capsys, ["dr", "enumerate", "--q", "4", "--P", "[2,1,1]"])
    assert code == 0 and out.startswith("g=")
    # integers below p and their codes name the same polynomial
    code, by_int, _ = _run(capsys, ["dr", "enumerate", "--q", "4", "--P", "T+1"])
    code2, by_code, _ = _run(capsys, ["dr", "enumerate", "--q", "4", "--P", "[1,1]"])
    assert code == code2 == 0 and by_int == by_code != ""


def test_ell_trace_known_value(capsys):
    code, out, err = _run(capsys, ["ell", "trace", "--q", "5", "--weight", "12"])
    assert code == 0
    assert out.strip() == "4830"
    assert err.startswith("# hecketrace ell trace")
    code, out, _ = _run(
        capsys, ["ell", "trace", "--q", "5", "--weight", "12", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc == {"q": 5, "H": "1", "weight": 12, "value": 4830, "interiorOnly": False}


@pytest.mark.parametrize("argv,value", [
    (["--q", "9", "--level", "gamma1-4", "--weight", "12"], "960405"),
    (["--q", "31", "--level", "gamma0-2", "--weight", "18"], "15654108049822"),
])
def test_ell_trace_at_gamma_levels(capsys, argv, value):
    # no boundary data at these levels: the interior sum alone
    code, out, err = _run(capsys, ["ell", "trace"] + argv)
    assert code == 0
    assert out == value + "\n"
    assert "interior sum only" in err


@pytest.mark.parametrize("argv", [
    ["trace", "--q", "16", "--level", "gamma0-2", "--weight", "12"],
    ["verify-period", "--q", "16", "--level", "gamma1-4", "--ell", "3", "--s", "1"],
])
def test_ell_level_must_be_coprime_to_q(capsys, argv):
    code, out, err = _run(capsys, ["ell"] + argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: level must be coprime to q"


def test_ell_moments_formats_and_cache(capsys, tmp_path):
    argv = ["ell", "moments", "--q", "3", "--kmax", "4", "--cache-dir", str(tmp_path)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.splitlines() == ["0 3", "1 0", "2 8", "3 0", "4 44"]
    assert list(tmp_path.glob("moments_*.json"))
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "q,H,k,value"
    assert lines[1] == "3,1,0,3"
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert [json.loads(l)["value"] for l in out.splitlines()] == [3, 0, 8, 0, 44]
    # a smaller request prints its own kmax + 1 rows, whatever the cache holds
    code, out, _ = _run(capsys, argv[:4] + ["--kmax", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert out.splitlines() == ["0 3", "1 0", "2 8"]


def test_ell_moments_cache_dir_naming_a_file(capsys, tmp_path):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    code, out, err = _run(capsys, ["ell", "moments", "--q", "3", "--kmax", "4",
                                   "--cache-dir", str(path)])
    assert code == 2 and out == ""
    assert f"error: cannot write the moment cache in {str(path)!r}" in err
    assert "Traceback" not in err


def test_ell_split_rejoins(capsys):
    code, out, _ = _run(
        capsys,
        ["ell", "split", "--q", "2", "--weight", "12", "--ell", "5", "--s", "1",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["nPart"] + doc["uPart"]) % 5 == 3
    assert doc["traceMod"] == (-24) % 5


def test_ell_split_needs_a_prime_ell(capsys):
    # the unit fold holds for a prime ell only: --ell 25 printed traceMod=11
    # where the trace is 6 mod 25, --ell 35 printed 12 for 21, and --ell 0
    # stopped on a modulo by zero
    for ell in ("25", "35", "0", "1"):
        code, out, err = _run(capsys, ["ell", "split", "--q", "101", "--weight", "40", "--ell", ell])
        assert code == 2 and out == "", ell
        assert "error: ell must be prime" in err and "Traceback" not in err, ell
    from hecketrace import curves as cv
    from hecketrace import elltrace as et

    code, out, _ = _run(capsys, ["ell", "split", "--q", "101", "--weight", "40", "--ell", "5",
                                 "--s", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["traceMod"] == et.trace(fq_construct(101, 1), cv.LEVEL1, 38).value % 25 == 6


def test_ell_verify_period_output_and_exit(capsys):
    code, out, err = _run(
        capsys,
        ["ell", "verify-period", "--ell", "5", "--s", "1", "--q", "2", "--level", "1",
         "--kmax", "60"],
    )
    assert code == 0
    assert out.splitlines()[-1] == "period 24: all pass"
    assert "case=odd-nonsquare" in err
    code, out, _ = _run(
        capsys,
        ["ell", "verify-period", "--ell", "2", "--s", "2", "--q", "2", "--kmax", "12",
         "--format", "json"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "period 8: all pass"
    assert all(json.loads(l)["pass"] for l in lines[:-1])


def test_ell_verify_period_empty_window(capsys):
    # kmin is raised to k0 = 0 first; the window [100, 50] then checks nothing
    code, out, err = _run(capsys, ["ell", "verify-period", "--q", "13", "--ell", "5",
                                   "--kmin", "100", "--kmax", "50"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: empty window"


def test_ell_verify_period_budget_error(capsys):
    code, _, err = _run(
        capsys,
        ["ell", "verify-period", "--ell", "5", "--s", "1", "--q", "2",
         "--max-weight", "10"],
    )
    assert code == 2
    assert "max-weight" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="Python < 3.10.7 has no digit limit")
def test_ell_trace_past_the_digit_limit(capsys):
    # `ell trace --q 100003 --weight 1800` prints about 4500 digits, past
    # Python's default limit of 4300; with the limit at its floor of 640, a
    # weight of 300 (about 750 digits) runs into it the same way
    from hecketrace import curves as cv
    from hecketrace import elltrace as et

    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = _run(capsys, ["ell", "trace", "--q", "100003", "--weight", "300"])
        assert code == 0, err
        code, out_json, _ = _run(capsys, ["ell", "trace", "--q", "100003", "--weight", "300",
                                          "--format", "json"])
        assert code == 0
        assert sys.get_int_max_str_digits() == 640  # the limit is restored
        value = et.trace(fq_construct(100003, 1), cv.LEVEL1, 298).value
    finally:
        sys.set_int_max_str_digits(old)
    assert out.strip() == str(value) and len(str(value)) > 640
    assert json.loads(out_json)["value"] == value


def test_ell_hecke_poly(capsys):
    code, out, _ = _run(capsys, ["ell", "hecke-poly", "--p", "5", "--weight", "12"])
    assert code == 0
    assert out.strip() == "1 -4830"
    code, out, _ = _run(
        capsys, ["ell", "hecke-poly", "--p", "5", "--weight", "26", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["dim"] == 1 and doc["coeffs"][0] == 1


def test_ell_hecke_poly_mod_needs_at_least_two(capsys, monkeypatch):
    # --mod 0 printed the exact polynomial, --mod 1 printed 0 and --mod -7
    # printed -6; the modulus is refused before any charpoly is computed
    from hecketrace import heckepoly as hp

    def no_charpoly(*args, **kwargs):
        raise AssertionError("charpoly computed")

    monkeypatch.setattr(hp, "charpoly_Tp", no_charpoly)
    for mod in ("0", "1", "-7"):
        code, out, err = _run(capsys, ["ell", "hecke-poly", "--p", "5", "--weight", "12", "--mod", mod])
        assert code == 2 and out == "", mod
        assert f"error: --mod must be >= 2, not {mod}" in err and "Traceback" not in err
    monkeypatch.undo()
    code, out, _ = _run(capsys, ["ell", "hecke-poly", "--p", "5", "--weight", "12", "--mod", "5"])
    assert code == 0 and out.strip() == "1"


def test_ell_class_number(capsys):
    code, out, _ = _run(capsys, ["ell", "class-number", "--p", "31", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lhs"] == doc["rhs"] == "10/3" and doc["pass"]


def test_ell_class_number_refuses_p_past_its_cap(capsys):
    # the refusal named --max-field-size, which the command rejects
    code, out, err = _run(capsys, ["ell", "class-number", "--p", "1048583"])
    assert code == 2 and out == ""
    assert "error: p=1048583 exceeds the class-number cap 1048576" in err
    assert "--max-field-size" not in err and "Traceback" not in err


def test_ell_class_number_needs_ell_of_at_least_two(capsys):
    # --ell 0 stopped on a modulo by zero
    for ell in ("0", "1", "-3"):
        code, out, err = _run(capsys, ["ell", "class-number", "--p", "31", "--ell", ell])
        assert code == 2 and out == "", ell
        assert f"error: --ell must be >= 2, not {ell}" in err and "Traceback" not in err


def test_dr_enumerate_emission(capsys):
    code, out, _ = _run(
        capsys, ["dr", "enumerate", "--q", "2", "--P", "T", "--format", "json"]
    )
    assert code == 0
    docs = [json.loads(l) for l in out.splitlines()]
    assert [(d["g"], d["delta"], d["autOrder"], d["a"], d["b"]) for d in docs] == [
        ([0], [1], 1, [], [1]),
        ([1], [1], 1, [[1]], [1]),
    ]
    assert all(d["P"] == [[0], [1]] for d in docs)
    code, out, _ = _run(capsys, ["dr", "enumerate", "--q", "2", "--P", "T", "--format", "csv"])
    assert out.splitlines()[0] == "q,P,n,g,delta,autOrder,orbitSize,a,b"


# sha256 of the stdout bytes of `dr enumerate --q 5 --P T^2+2 --n 2` in each
# format; its 2520 classes span two blocks
@pytest.mark.parametrize("fmt, digest", [
    ("json", "200d728c815116dfc2cea95a0c4963bbdd6f620b579141593cbe6f41aa43c09e"),
    ("csv", "05d491f0e5b5856a4498810aa9f725fe2707943a6588c61263208609415277de"),
    ("human", "70cbc2edc0069c128d11948e85647d81e23c8f2cda5efc08075df4ce26a8b1fd"),
])
def test_dr_enumerate_streams_the_same_bytes(capsys, fmt, digest):
    code, out, _ = _run(capsys, ["dr", "enumerate", "--q", "5", "--P", "T^2+2", "--n", "2",
                                 "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dr_trace_far_weight_prints_the_same_bytes(capsys):
    # an exact trace at weight 100 over L = F_{5^4}: 98 steps of the exact
    # kernel, where deg h_k may reach 2k (sha256 of stdout)
    code, out, _ = _run(capsys, ["dr", "trace", "--q", "5", "--P", "T^2+2", "--n", "2",
                                 "--weight", "100", "--type", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "602726f643c52fa1cf7045a7a5ebb3fcbf13e07e6a9bc6ce2f427392d15e71c0")


@pytest.mark.parametrize("fmt, lines", [
    ("json", ['{"k":0,"v":[0,1]}', '{"k":1,"v":[1,1]}', '{"k":2,"v":[2,1]}']),
    ("csv", ["k,v", '0,"[0,1]"', '1,"[1,1]"', '2,"[2,1]"']),
    ("human", ["k=0", "k=1", "k=2"]),
])
def test_emit_prints_each_row_as_it_comes(monkeypatch, fmt, lines):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    printed = []

    def rows():
        for k in range(3):
            printed.append(out.getvalue().count("\n"))
            yield {"k": k, "v": [k, 1]}

    cli.emit(rows(), fmt, lambda r: f"k={r['k']}")
    header = fmt == "csv"
    assert printed == [0, 1 + header, 2 + header]
    assert out.getvalue().splitlines() == lines
    out.seek(0)
    out.truncate()
    cli.emit(iter([]), fmt, str)
    assert out.getvalue() == ""


def test_closed_pipe_exits_quietly():
    # the reader goes away after one line, as under `| head -1`; the JSON
    # rows of 2520 classes fill the pipe long before the program is done
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hecketrace.cli", "dr", "enumerate", "--q", "5", "--P", "T^2+2",
         "--n", "2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert json.loads(proc.stdout.readline())["q"] == 5
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_CLOSED_PIPE
    assert b"Traceback" not in err and b"Error" not in err, err


def test_dr_trace_residue(capsys):
    code, out, _ = _run(
        capsys,
        ["dr", "trace", "--q", "3", "--P", "T+1", "--n", "1", "--weight", "8",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["trace"] == [[1]]
    code, out, _ = _run(
        capsys, ["dr", "trace", "--q", "3", "--P", "T+1", "--weight", "8"]
    )
    assert out.strip() == "[[1]]"


def test_dr_verify_period(capsys):
    code, out, err = _run(
        capsys,
        ["dr", "verify-period", "--q", "3", "--P", "T+1", "--ell", "T", "--s", "1",
         "--type", "1", "--format", "json"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "period 24: all pass"
    assert all(json.loads(l)["pass"] and json.loads(l)["splitPass"] for l in lines[:-1])
    assert "case=odd-deg" in err


# sha256 of the stdout bytes of `dr verify-period`, the only command that
# prints the split parts nPart and uPart (json and csv rows)
@pytest.mark.parametrize("args, digest", [
    ("--q 5 --P T --ell T+1 --format json",
     "465aecbf85010e3200c332e822d56dfc2ec5f6a8aae61dc59c5782acedd50b8d"),
    ("--q 3 --P T --ell T+1 --s 2 --format json",
     "de43e2767b6bfb4c76148de04a2936f64d376512e67318907b626ad0c9ffae50"),
    ("--q 4 --P T --ell T+1 --format json",
     "96d6b769931ff25f7541bf8e29d5eccb169e25959397d6796c83e1065c10b3ae"),
    ("--q 5 --P T --ell T+1",
     "0913d34bae1b6c3f6f183738c0c65ed266a661d1a4d91c9b03895b056e0f4b2f"),
    ("--q 3 --P T --ell T+1 --s 2",
     "b8c7cd5388d488abbfd2f27a652f6a170021cdbf0aec0225a4d7b808ccad49a4"),
    ("--q 5 --P T^2+2 --n 2 --ell T+1 --s 3 --format json",
     "691b8aae69f860be0804e7e76e30264d7c4de829dd9a1166e8d6df79d75cc200"),
])
def test_dr_verify_period_prints_the_same_bytes(capsys, args, digest):
    code, out, _ = _run(capsys, ["dr", "verify-period", *args.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout bytes of `ell split` (the nPart / uPart certificate,
# csv with every odd weight 0, s far past the a1-degrees, a large ell on
# int64 rows (M = 2 * 1009^2), far weights), of `ell class-number` (the
# non-unit mass) and of both selftest suites
@pytest.mark.parametrize("args, digest", [
    ("ell split --q 13 --weight 12 --ell 5 --level gamma0-2",
     "c1d3fa784886b1f9a1f85699cd348b492404a8eb886ef1323a700792d9f19754"),
    ("ell split --q 13 --weight 13 --ell 5 --s 2 --level gamma1-4 --format json",
     "ef3f07cdbf44428f54a39d578fb8faa4c2a00b7c8876be05a287299a5ad748ba"),
    ("ell split --q 10007 --weight 800 --ell 5 --s 3",
     "eec629aeb006f80b0df8e19ea74dbffec55dbf390e2b4614b5181ac9c99b5a6e"),
    ("ell split --q 10007 --weight 800 --ell 5 --s 3 --format json",
     "b985509b333a980ccaab52271353ca3606745ccaf49f3658c39c1446de921c3b"),
    ("ell split --q 65543 --weight 1001 --ell 7 --s 2 --format csv",
     "239e2fa380f4abedf3eea78239ccd65c1cd2bd0ab6eb57f379cb899a1fd1a5a5"),
    ("ell split --q 13 --weight 200 --ell 5 --s 7",
     "872aefe94fb83458d6054de28749ce6c30b6c6725221d7c2f2638e1f675e43ff"),
    ("ell split --q 10007 --weight 800 --ell 1009 --s 2",
     "af681f85fd3d0b66021734c463070a5070e2dc0c1630df8c17da9f3ffb72e38c"),
    ("ell split --q 13 --weight 300000 --ell 5 --s 3",
     "7ea28c1d3e58244b3c369c6d2c7c593e70a36c89f438f7c3130aa1e518ee9536"),
    ("ell split --q 13 --weight 1000000 --ell 5 --s 3",
     "0f05b4c8593b8b5c4c0199306b7b3f8ac29cdf70c0aca75c2b9bacaf3180cc02"),
    ("ell split --q 13 --weight 100000 --ell 5 --s 8",
     "ccb8bc42eab42dea6ac57e29a5de145b43ac5f0b9f093d82a6dd88bcd9753e0e"),
    ("ell class-number --p 100003",
     "971f60d879bfe369dba1611d59485c310e947be805f7046d42b7f05dd30f9470"),
    ("selftest lemmas --trials 2",
     "d53b1c889d253dfbea8aed039c3859e72a16f6b3a6a4d253739b74c1fa2cb5a4"),
    ("selftest paper-examples",
     "3c2886e3fcf4f4288b4dfede5348efaaea0a21a9959af8626ecc0c61497d5398"),
])
def test_ell_split_and_selftest_print_the_same_bytes(capsys, args, digest):
    code, out, _ = _run(capsys, args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dr_verify_period_budget_error(capsys):
    # the default window reaches k = k0 + 3 * period = 72, weight 74
    argv = ["dr", "verify-period", "--q", "3", "--P", "T+1", "--ell", "T"]
    code, out, err = _run(capsys, argv + ["--max-weight", "73"])
    assert code == 2 and out == ""
    assert "weight 74 exceeds max_weight=73; raise it with --max-weight" in err
    code, out, _ = _run(capsys, argv + ["--max-weight", "74"])
    assert code == 0 and out.splitlines()[-1] == "period 24: all pass"
    code, _, err = _run(capsys, argv + ["--max-weight", "100", "--kmax", "80"])
    assert code == 2 and "weight 106 exceeds max_weight=100" in err


def test_dr_ramanujan_lines(capsys):
    code, out, _ = _run(capsys, ["dr", "ramanujan", "--q", "3", "--P", "T", "--n", "1"])
    assert code == 0
    docs = [json.loads(l) for l in out.splitlines()]
    assert len(docs) == 50  # two types, k < 25
    assert all(d["pass"] for d in docs)
    assert {d["l"] for d in docs} == {1, 2}
    assert max(d["k"] for d in docs) == 24
    assert set(docs[0]) == {"q", "P", "n", "k", "l", "degTr", "bound", "pass"}
    code, out, _ = _run(capsys, ["dr", "ramanujan", "--q", "2", "--P", "T", "--n", "1"])
    assert code == 0
    assert json.loads(out)["vacuous"] is True


def test_selftest_lemmas_seeded(capsys):
    code, out, _ = _run(capsys, ["selftest", "lemmas", "--trials", "1", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8 and all(l.startswith("ok ") for l in lines)
    # the run is reproducible from the seed
    code, out2, _ = _run(capsys, ["selftest", "lemmas", "--trials", "1", "--seed", "7"])
    assert out2 == out


def test_selftest_lemmas_need_a_trial(capsys, monkeypatch):
    # --trials 0 and -2 printed no rows and passed without checking anything
    from hecketrace import selftest

    def no_lemmas(*args, **kwargs):
        raise AssertionError("lemmas drawn")

    monkeypatch.setattr(selftest, "lemma_trials", no_lemmas)
    for trials in ("0", "-2"):
        code, out, err = _run(capsys, ["selftest", "lemmas", "--trials", trials])
        assert code == 2 and out == "", trials
        assert f"error: --trials must be >= 1, not {trials}" in err and "Traceback" not in err


def test_selftest_examples(capsys):
    code, out, _ = _run(capsys, ["selftest", "paper-examples"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13 and all(l.startswith("ok ") for l in lines)


_WRONG_TAU = """
from hecketrace import cli, selftest

selftest.TAU[5] = 4831
raise SystemExit(cli.run(["selftest", "paper-examples"]))
"""


def test_selftest_examples_fail_under_python_O():
    # the selftest checks are not assert statements, so python -O keeps them
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _WRONG_TAU],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "FAIL weight12-eigenvalues: 5"
    assert "first mismatch: weight12-eigenvalues" in res.stderr


# shifts the constant digit of every Frobenius trace, so that the motive's
# relation no longer re-substitutes: a fault in the program, not in its input
_SHIFTED_TRACE = """
from hecketrace import cli
from hecketrace import drinfeld as dr

good = dr._motive_frobenius


def shifted(params, g, delta):
    a, b = good(params, g, delta)
    a = a.copy()
    a[:, 0] = (a[:, 0] + 1) % params.p
    return a, b


dr._motive_frobenius = shifted
raise SystemExit(cli.run(["dr", "trace", "--q", "3", "--P", "T^2+1", "--weight", "8"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_invariant_exits_3(flags, capsys):
    # a failed invariant has its own exit code and one error line, also under
    # python -O, while bad input and budget refusals keep exit 2
    src = os.path.dirname(os.path.dirname(cli.__file__))
    res = subprocess.run([sys.executable, *flags, "-c", _SHIFTED_TRACE],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert res.returncode == 3 and res.stdout == "", res.stderr
    assert res.stderr.splitlines()[1:] == ["error: invariant failed: Frobenius relation re-substitution failed"]
    code, out, err = _run(capsys, ["ell", "hecke-poly", "--p", "5", "--weight", "72"])
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == [
        "error: requested size 5^12 exceeds max_field_size=1048576; raise it with --max-field-size"]


# no modulus passes the irreducibility test, so building F_9 fails its
# invariant: no irreducible polynomial of degree 2 over F_3 is found
_NO_IRREDUCIBLE = """
from hecketrace import cli, ffield

ffield.rp_is_irreducible = lambda ring, f: False
raise SystemExit(cli.run(["ell", "trace", "--q", "9", "--weight", "12"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_field_construction_invariant_exits_3(flags):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    res = subprocess.run([sys.executable, *flags, "-c", _NO_IRREDUCIBLE],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert res.returncode == 3 and res.stdout == "", res.stderr
    assert res.stderr.splitlines()[1:] == ["error: invariant failed: no irreducible polynomial found"]


@pytest.mark.parametrize(
    "bad, named",
    [
        ("[1.5,1]", "entry 1.5 of '[1.5,1]' is not a code in 0..4"),
        ('["a",1]', """entry "a" of '["a",1]' is not a code in 0..4"""),
        ("[true,1]", "entry true of '[true,1]' is not a code in 0..4"),
        ("[7,1]", "entry 7 of '[7,1]' is not a code in 0..4"),
        ("[1,", "'[1,' is not a list of element codes"),
    ],
)
def test_bracket_codes_are_validated(bad, named):
    # unchecked, a float hangs the root finder, a string raises a TypeError
    # traceback, and an out-of-range code or a bool is silently coerced
    src = os.path.dirname(os.path.dirname(cli.__file__))
    res = subprocess.run(
        [sys.executable, "-m", "hecketrace.cli", "dr", "trace", "--q", "5", "--P", bad, "--weight", "4"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines()[1:] == [f"error: {named}"]


def _traced_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("hecketrace_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_traced_benchmark_targets_exist():
    # perfbench/traced.py wraps these names through getattr, so a name
    # deleted from src/ would crash every traced benchmark run
    traced = _traced_module()
    assert traced.TARGETS
    for target in traced.TARGETS:
        module, *attrs = target.split(".")
        owner = importlib.import_module(f"hecketrace.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), target
            owner = getattr(owner, attr)
        assert callable(owner), target


def _top_level_names(stmt: ast.stmt) -> List[str]:
    """Names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _used_names(stmt: ast.stmt) -> Set[str]:
    """Names a statement reads, as a name, an attribute or an import."""
    used = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used.update(a.name for a in n.names)
    return used


def test_every_src_name_is_used():
    # code nothing uses is deleted: each module-level name in src/hecketrace
    # is read by some other statement of src/, or perfbench/traced.py wraps it
    pkg = Path(cli.__file__).resolve().parent
    stmts = [(path.stem, stmt) for path in sorted(pkg.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    used = [_used_names(stmt) for _, stmt in stmts]
    traced = {t.split(".")[1] for t in _traced_module().TARGETS}
    unused = [
        f"{module}.{name}"
        for i, (module, stmt) in enumerate(stmts)
        for name in _top_level_names(stmt)
        if not name.startswith("__") and name not in traced
        and not any(name in names for j, names in enumerate(used) if j != i)
    ]
    assert unused == []


# names of numpy that reach BLAS on float arrays; no job needs them, which is
# why the CLI pins OpenBLAS to one thread. The int64 (and object) `@` stays
# allowed: numpy runs it in its own loop and never hands it to BLAS.
_BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "einsum", "tensordot", "float32", "float64"}


def _node_name(n: ast.AST) -> str:
    """The name a node reads: an attribute, a name, an imported name or a
    string constant (a dtype may be spelled "float64")."""
    if isinstance(n, ast.Attribute):
        return n.attr
    if isinstance(n, ast.Name):
        return n.id
    if isinstance(n, ast.alias):
        return n.name.split(".")[-1]
    if isinstance(n, ast.Constant) and isinstance(n.value, str):
        return n.value
    return ""


def test_no_src_module_uses_blas():
    # the one-thread pin in cli.py costs nothing only while no job calls
    # BLAS: a float kernel added to src/ means revisiting that pin
    pkg = Path(cli.__file__).resolve().parent
    found = [
        f"{path.name}:{n.lineno} {_node_name(n)}"
        for path in sorted(pkg.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if _node_name(n) in _BLAS_NAMES
    ]
    assert found == []


def test_no_src_module_imports_dataclasses():
    # creating a frozen dataclass takes about 1.5 ms, and every job would
    # pay for it: records are NamedTuples or ffield.Record subclasses
    pkg = Path(cli.__file__).resolve().parent
    found = [
        f"{path.name}:{n.lineno}"
        for path in sorted(pkg.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Import) and any(a.name == "dataclasses" for a in n.names)
        or isinstance(n, ast.ImportFrom) and n.module == "dataclasses"
    ]
    assert found == []


@pytest.mark.parametrize("argv", [
    ["dr", "enumerate", "--q", "3", "--P", "+"],
    ["dr", "enumerate", "--q", "3", "--P", "++"],
    ["dr", "verify-period", "--q", "3", "--P", "T", "--ell", "+"],
])
def test_polynomial_without_terms_is_rejected(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines()[1:] == [f"error: no terms in {argv[-1]!r}"]


def test_usage_and_value_errors(capsys):
    code, _, err = _run(capsys, ["ell", "trace", "--q", "5", "--weight", "1"])
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, ["ell", "trace", "--q", "6", "--weight", "12"])
    assert code == 2  # 6 is not a prime power
    code, _, err = _run(capsys, ["dr", "trace", "--q", "3", "--P", "T^2+2", "--weight", "8"])
    assert code == 2 and "irreducible" in err
    code, _, err = _run(
        capsys,
        ["dr", "enumerate", "--q", "3", "--P", "T^2+1", "--n", "2",
         "--max-field-size", "50"],
    )
    assert code == 2
    with pytest.raises(SystemExit):
        cli.run(["ell", "bogus"])
    with pytest.raises(SystemExit):
        cli.run(["ell", "trace", "--q", "5", "--weight", "12", "--threads", "1"])  # no such flag
    capsys.readouterr()


def test_echo_lists_every_flag(capsys):
    _, _, err = _run(capsys, ["ell", "moments", "--q", "2", "--kmax", "2"])
    echo = err.splitlines()[0]
    for part in ("q=2", "kmax=2", "format=human", "cache-dir=None", "max-field-size=1048576"):
        assert part in echo
    assert "threads" not in echo and "seed" not in echo


@pytest.mark.parametrize(
    "argv",
    [
        ["ell", "trace", "--q", "5", "--weight", "12", "--seed", "1"],
        ["ell", "trace", "--q", "5", "--weight", "12", "--cache-dir", "x"],
        ["ell", "trace", "--q", "5", "--weight", "12", "--max-weight", "100"],
        ["ell", "class-number", "--p", "31", "--max-field-size", "100"],
        ["dr", "enumerate", "--q", "2", "--P", "T", "--max-weight", "100"],
        ["selftest", "paper-examples", "--seed", "1"],
        ["selftest", "lemmas", "--max-field-size", "100"],
    ],
)
def test_flags_a_command_ignores_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# runs the CLI job given as arguments (none: only imports the CLI), then
# prints the package modules and numpy.ma if the process has loaded them
_LOADED = """
import sys
from hecketrace import cli

if len(sys.argv) > 1:
    cli.run(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("hecketrace") or m == "numpy.ma")))
"""


@pytest.mark.parametrize(
    "argv, absent",
    [
        ([], {"hecketrace.congruences", "hecketrace.curves", "hecketrace.drinfeld",
              "hecketrace.elltrace", "hecketrace.heckepoly", "hecketrace.selftest", "numpy.ma"}),
        (["ell", "trace", "--q", "10039", "--weight", "12"],
         {"hecketrace.congruences", "hecketrace.drinfeld", "hecketrace.heckepoly",
          "hecketrace.selftest", "numpy.ma"}),
        (["ell", "split", "--q", "101", "--weight", "12", "--ell", "5"],
         {"hecketrace.congruences", "hecketrace.drinfeld", "hecketrace.heckepoly",
          "hecketrace.selftest"}),
        (["dr", "enumerate", "--q", "5", "--P", "T^3+T+1"],
         {"hecketrace.congruences", "hecketrace.curves", "hecketrace.elltrace",
          "hecketrace.heckepoly", "hecketrace.selftest"}),
        (["dr", "verify-period", "--q", "5", "--P", "T", "--ell", "T+1"],
         {"hecketrace.congruences", "hecketrace.curves", "hecketrace.elltrace",
          "hecketrace.heckepoly", "hecketrace.selftest"}),
    ],
)
def test_each_job_loads_only_its_layer(argv, absent):
    # one fresh process per case: pytest itself has imported every module
    src = os.path.dirname(os.path.dirname(cli.__file__))
    res = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.splitlines()[-1].split())
    assert {"hecketrace", "hecketrace.ffield", "hecketrace.cli"} <= loaded
    assert not loaded & absent, loaded & absent


# runs the CLI job given as arguments, then prints on its last line which of
# these stdlib modules the process has loaded
_STDLIB = """
import sys
from hecketrace import cli

cli.run(sys.argv[1:])
print("loaded:", *sorted(m for m in ("csv", "dataclasses", "json") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv",
    [["ell", "trace", "--q", "13", "--weight", "12"],
     ["ell", "verify-period", "--q", "13", "--ell", "2", "--s", "2"]],
)
@pytest.mark.parametrize("fmt, loaded", [("human", []), ("json", ["json"]), ("csv", ["csv"])])
def test_ell_jobs_load_json_and_csv_only_for_their_format(argv, fmt, loaded):
    # one fresh process per case; no src/ module imports dataclasses
    src = os.path.dirname(os.path.dirname(cli.__file__))
    res = subprocess.run([sys.executable, "-c", _STDLIB, *argv, "--format", fmt],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    *out, last = res.stdout.splitlines()
    assert last.split()[1:] == loaded
    if fmt == "json":
        rows = [json.loads(line) for line in out if line.startswith("{")]
        assert rows and all("k" in r or "weight" in r for r in rows)
    elif fmt == "csv":
        assert out[0].split(",")[:2] in (["q", "H"], ["ell", "s"])
        assert len(out) > 1


def _fresh(code: str, **env: str) -> str:
    """stdout of `code` in a fresh interpreter whose environment names no
    OpenBLAS thread count but those in env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    res = subprocess.run([sys.executable, "-c", code], env=dict(base, PYTHONPATH=src, **env),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_package_import_leaves_numpy_unloaded():
    # `python -m hecketrace.cli` imports the package before cli.py runs, so
    # numpy loaded there would come before the thread pin
    assert _fresh("import sys, hecketrace; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_process_runs_on_one_thread():
    # OpenBLAS starts one worker per extra CPU when numpy loads; on a
    # one-CPU machine this passes without the pin
    code = "import os\nfrom hecketrace import cli\nprint(len(os.listdir('/proc/self/task')))"
    assert _fresh(code) == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_pins_an_empty_thread_count():
    # OpenBLAS reads OPENBLAS_NUM_THREADS= as unset and starts its pool
    code = ("import os\nfrom hecketrace import cli\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert _fresh(code, OPENBLAS_NUM_THREADS="") == "1 1"


def test_cli_keeps_a_thread_count_the_user_set():
    code = "import os\nfrom hecketrace import cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == "2"
    assert _fresh(code) == "1"


def test_degree_past_the_field_budget_is_refused_at_once():
    # P of degree 120 went through Rabin's test for about 27 s, and T^2000000
    # built 2*10^6 coefficients for minutes, before the field budget refused them;
    # each now exits in about 0.25 s, and the timeout leaves room for a loaded machine
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for P in ("T^120+T+2", "T^2000000"):
        res = subprocess.run([sys.executable, "-m", "hecketrace.cli", "dr", "trace", "--q", "5", "--P", P,
                              "--weight", "4"], env=env, capture_output=True, text=True, timeout=5)
        assert res.returncode == 2 and res.stdout == "", res.stderr
        assert "exceeds max_field_size=1048576; raise it with --max-field-size" in res.stderr
