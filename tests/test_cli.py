"""Tests for the command-line front end: formats, exit codes, known outputs."""

import json
import sys

import pytest

from hecketrace import cli
from hecketrace.ffield import FqPoly, fq_construct, fq_poly_from_codes

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


def test_ell_class_number(capsys):
    code, out, _ = _run(capsys, ["ell", "class-number", "--p", "31", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lhs"] == doc["rhs"] == "10/3" and doc["pass"]


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


def test_selftest_examples(capsys):
    code, out, _ = _run(capsys, ["selftest", "paper-examples"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13 and all(l.startswith("ok ") for l in lines)


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
    for part in ("q=2", "kmax=2", "format=human", "seed=0"):
        assert part in echo
    assert "threads" not in echo
