"""Tests for Hecke characteristic polynomials and slope-0 multiplicities."""

import os
import subprocess
import sys

import pytest

import oracles
from hecketrace import heckepoly as hp
from hecketrace.ffield import BudgetError

DIM_TABLE = {
    0: 0, 2: 0, 4: 0, 6: 0, 8: 0, 10: 0, 11: 0, 12: 1, 14: 0, 16: 1,
    18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 28: 2, 30: 2, 32: 2, 34: 2,
    36: 3, 38: 2, 40: 3, 42: 3, 44: 3, 46: 3, 48: 4, 50: 3, 60: 5,
}


def test_dim_formula():
    for w, d in DIM_TABLE.items():
        assert hp.dim_level1(w) == d, w
    with pytest.raises(ValueError):
        hp.dim_level1(-2)


def test_charpoly_zero_dimensional():
    assert hp.charpoly_Tp(5, 10).poly == (1,)
    assert hp.charpoly_Tp(5, 13).poly == (1,)
    assert hp.charpoly_Tp(5, 12).dim == 1


def test_charpoly_weight12_is_tau_line():
    assert hp.charpoly_Tp(5, 12).poly == (1, -4830)


ORACLE_GRID = [
    (2, 12), (2, 16), (2, 24), (2, 26), (2, 48), (2, 96),
    (3, 12), (3, 16), (3, 22), (3, 36), (3, 48), (3, 72),
    (5, 12), (5, 16), (5, 24), (5, 36),
    (7, 12), (7, 24),
    (11, 12),
]


@pytest.mark.parametrize("p,weight", ORACLE_GRID)
def test_charpoly_against_qexp_oracle(p, weight):
    assert hp.charpoly_Tp(p, weight).poly == tuple(oracles.hecke_charpoly(weight, p))


def test_charpoly_guards():
    with pytest.raises(ValueError):
        hp.charpoly_Tp(4, 12)
    with pytest.raises(BudgetError):
        hp.charpoly_Tp(5, 64)  # dim 5: the power sums need F_{5^10}


_CORRUPT_POWER_SUM = """
import sys

from hecketrace import cli
from hecketrace import heckepoly as hp

good, delta = hp._interior, int(sys.argv[1])
hp._interior = lambda p, n, k, size: good(p, n, k, size) + (delta if n == 2 else 0)
raise SystemExit(cli.run(["ell", "hecke-poly", "--p", "5", "--weight", "12"]))
"""


@pytest.mark.parametrize("delta,message", [
    (1, "non-integral symmetric function e_2"),  # p_2 off by 1 halves e_2
    (2, "functional equation failed"),
], ids=["integrality", "functional-equation"])
def test_corrupt_power_sum_raises_under_python_O(delta, message):
    # a wrong Tr(F_{p^2}) fails a hard check, not an assert: under -O it
    # still exits 3, the code of a failed invariant
    src = os.path.dirname(os.path.dirname(hp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_POWER_SUM, str(delta)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 3, res.stdout + res.stderr
    assert res.stdout == "" and f"error: invariant failed: {message}" in res.stderr


def test_weight_periodicity_mod_p_spot_checks():
    for p in (5, 7):
        for w in (12, 16, 22):
            a = hp.poly_mod(hp.charpoly_Tp(p, w).poly, p)
            b = hp.poly_mod(hp.charpoly_Tp(p, w + p - 1).poly, p)
            assert a == b, (p, w)


def test_slope0_values_and_stability():
    assert hp.slope0_mult(5, 12) == 0  # 4830 = 0 mod 5
    assert hp.slope0_mult(11, 12) == 1  # tau(11) = 1 mod 11
    for w in (14, 18, 24):
        assert hp.slope0_mult(5, w) == hp.slope0_mult(5, w + 4), w


def test_poly_mod_normalisation():
    assert hp.poly_mod((1, -4830), 5) == (1,)
    assert hp.poly_mod((1, 3, 10), 5) == (1, 3)
    assert hp.poly_mod((5, 10), 5) == (0,)
