"""Field construction, embeddings and the polynomial kernel."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_factor, gf_gcd, gf_irreducible_p, gf_mul, gf_pow_mod

from drinfeld_arith import poly_evaluate
from oracles import elements, fraction_mod
from hecketrace import ffield
from hecketrace.drinfeld import FqPoly, canonical_irreducibles
from hecketrace.ffield import (
    BudgetError,
    FieldOps,
    FqField,
    PrimePower,
    canonical_modulus,
    embed,
    fq_construct,
    is_prime,
    prime_power_decompose,
    rp_divmod,
    rp_gcd,
    rp_is_irreducible,
    rp_mul,
    rp_powmod,
    rp_trim,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 1009]
    for n in range(2, 100):
        assert is_prime(n) == (n in primes or all(n % d for d in range(2, n)))
    assert not is_prime(1)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


def test_prime_power_decompose():
    assert prime_power_decompose(27) == PrimePower(3, 3)
    assert prime_power_decompose(16) == PrimePower(2, 4)
    assert prime_power_decompose(17) == PrimePower(17, 1)
    with pytest.raises(ValueError):
        prime_power_decompose(12)
    with pytest.raises(ValueError):
        PrimePower(4, 2)
    with pytest.raises(ValueError):
        PrimePower(3, 0)


def test_records_are_read_only_and_compare_by_value():
    pp = PrimePower(3, 3)
    assert pp.q == 27 and repr(pp) == "PrimePower(p=3, a=3)"
    assert pp == PrimePower(3, 3) != PrimePower(3, 2) and len({pp, PrimePower(3, 3)}) == 1
    with pytest.raises(AttributeError):
        pp.a = 2
    with pytest.raises(AttributeError):
        del pp.p
    with pytest.raises(AttributeError):
        pp.extra = 1
    # a Record with behaviour equals only records of its own type
    assert pp != (3, 3)
    # a plain record is a NamedTuple: a tuple, equal to any tuple of its
    # values, with len, indexing and unpacking
    from hecketrace import curves
    from hecketrace.elltrace import TraceResult

    with pytest.raises(AttributeError):
        curves.LEVEL1.N = 2
    assert curves.level_structure("triv") == curves.LEVEL1 != curves.GAMMA0_2
    r = TraceResult(13, "1", 4, -2)
    assert isinstance(r, tuple) and r == (13, "1", 4, -2, False) and len(r) == 5
    q, _, weight, *_ = r
    assert (q, weight) == (13, 4) and r[3] == r.value == -2


def test_canonical_moduli():
    # frozen expected moduli: least monic irreducible in code order
    assert canonical_modulus(2, 2) == (1, 1, 1)        # x^2+x+1
    assert canonical_modulus(3, 2) == (1, 0, 1)        # x^2+1 precedes x^2+x+2
    assert canonical_modulus(5, 1) == (0, 1)           # x
    assert canonical_modulus(2, 3) == (1, 1, 0, 1)     # x^3+x+1
    # determinism across constructions
    assert fq_construct(3, 2) is fq_construct(3, 2)
    assert fq_construct(3, 2).modulus == (1, 0, 1)


def test_budget():
    with pytest.raises(BudgetError) as err:
        fq_construct(2, 25)
    assert "--max-field-size" in str(err.value)
    fq_construct(2, 25, max_size=1 << 26)


def test_field_axioms_sampled():
    rng = random.Random(7)
    for (p, a) in [(2, 1), (2, 4), (3, 2), (5, 1), (5, 2), (7, 3)]:
        f = fq_construct(p, a)
        els = [f.decode(rng.randrange(f.q)) for _ in range(12)]
        for x in els:
            assert x + f.zero == x
            assert x * f.one == x
            assert x - x == f.zero
            if not x.is_zero():
                assert x * x.inverse() == f.one
                assert x ** (f.q - 1) == f.one
            # Frobenius is additive and multiplicative
            for y in els[:4]:
                assert (x + y) ** p == x ** p + y ** p
                assert (x * y) ** p == (x ** p) * (y ** p)
        # q-power Frobenius is the identity
        for x in els:
            assert x ** f.q == x


def test_codes_roundtrip():
    f = fq_construct(3, 3)
    for code in range(f.q):
        assert f.decode(code).code == code


def test_multiplicative_generator_and_tables():
    for (p, a) in [(2, 1), (3, 1), (2, 4), (3, 2), (5, 2), (7, 2)]:
        f = fq_construct(p, a)
        g = f.multiplicative_generator()
        assert [n for n in range(1, f.q) if g ** n == f.one] == [f.q - 1]
        t = f.tables()
        # exp/log are inverse bijections on nonzero codes
        assert sorted(int(c) for c in t["exp"]) == list(range(1, f.q))
        for i in range(f.q - 1):
            assert int(t["log"][int(t["exp"][i])]) == i
        # Zech identity: g^z[i] == g^i + 1
        for i in range(f.q - 1):
            lhs = f.decode(int(t["exp"][i])) + f.one
            z = int(t["zech"][i])
            if z < 0:
                assert lhs.is_zero()
            else:
                assert lhs == f.decode(int(t["exp"][z]))


def test_vector_ops_match_scalar():
    rng = random.Random(3)
    # a prime field and characteristic 2 take their own add and mul paths
    for f in (fq_construct(13, 1), fq_construct(2, 3), fq_construct(5, 2)):
        xs = np.array([rng.randrange(f.q) for _ in range(40)], dtype=np.int64)
        ys = np.array([rng.randrange(f.q) for _ in range(40)], dtype=np.int64)
        add = f.v_add(xs, ys)
        mul = f.v_mul(xs, ys)
        for i in range(40):
            assert int(add[i]) == (f.decode(int(xs[i])) + f.decode(int(ys[i]))).code
            assert int(mul[i]) == (f.decode(int(xs[i])) * f.decode(int(ys[i]))).code
    coeffs = [2, 0, 3, 1]
    vals = f.v_poly_eval(coeffs, xs)
    for i in range(40):
        x = f.decode(int(xs[i]))
        want = f.coerce(2) + f.coerce(3) * x * x + x * x * x
        assert int(vals[i]) == want.code


def test_chi_and_trace_tables():
    f = fq_construct(7, 1)
    chi = f.v_chi(np.arange(7, dtype=np.int64))
    squares = {(x * x) % 7 for x in range(1, 7)}
    for x in range(7):
        if x == 0:
            assert chi[x] == 0
        else:
            assert chi[x] == (1 if x in squares else -1)
    f2 = fq_construct(2, 3)
    tr = f2.trace_table()
    for code in range(8):
        x = f2.decode(code)
        want = x + x ** 2 + x ** 4
        assert want.coeffs[1] == 0 and want.coeffs[2] == 0
        assert int(tr[code]) == want.coeffs[0]


def test_embedding_is_ring_hom():
    rng = random.Random(11)
    src = fq_construct(3, 2)
    tgt = fq_construct(3, 4)
    for _ in range(20):
        x = src.decode(rng.randrange(src.q))
        y = src.decode(rng.randrange(src.q))
        assert embed(x + y, tgt) == embed(x, tgt) + embed(y, tgt)
        assert embed(x * y, tgt) == embed(x, tgt) * embed(y, tgt)
    assert embed(src.one, tgt) == tgt.one
    # the image of the source generator is a root of the source modulus
    img = embed(src.gen, tgt)
    acc = tgt.zero
    for c in reversed(src.modulus):
        acc = acc * img + tgt.coerce(c)
    assert acc.is_zero()


def test_embedding_tower_compatibility():
    # two-step embeddings agree with direct ones on every element
    for p, degs in [(2, (1, 2, 4, 8)), (3, (1, 2, 4))]:
        fields = [fq_construct(p, d) for d in degs]
        for i in range(len(fields) - 2):
            a, b, c = fields[i], fields[i + 1], fields[i + 2]
            for x in elements(a):
                assert embed(embed(x, b), c) == embed(x, c)


_CHI_IN_CHAR_TWO = """
import numpy as np
from hecketrace.ffield import fq_construct
try:
    fq_construct(2, 2).v_chi(np.arange(4))
except ValueError as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_chi_rejects_characteristic_two():
    # a ValueError, not an assert, so python -O refuses it too
    with pytest.raises(ValueError, match="odd characteristic"):
        fq_construct(2, 3).v_chi(np.arange(8, dtype=np.int64))
    src = os.path.dirname(os.path.dirname(ffield.__file__))
    res = subprocess.run([sys.executable, "-O", "-c", _CHI_IN_CHAR_TWO],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "odd characteristic" in res.stdout


def test_fq_poly_ops():
    f = fq_construct(5, 1)
    x = FqPoly(f, [0, 1])
    g = x * x + 3 * x + 2          # (x+1)(x+2)
    q, r = g.divmod(x + 1)
    assert r.is_zero() and q == x + 2
    assert g.gcd(x + 1) == (x + 1).monic()
    assert poly_evaluate(g, f.coerce(-1)).is_zero()
    assert set(root.code for root in g.roots()) == {4, 3}
    assert (x ** 2 + 1 if False else FqPoly(f, [1, 0, 1])).is_irreducible() is False  # x^2+1 = (x+2)(x+3) mod 5
    assert FqPoly(f, [2, 0, 1]).is_irreducible()   # x^2+2 irreducible mod 5


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13, 101, 65537]),
    coeffs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=7),
    forced=st.lists(st.integers(0, 1 << 20), max_size=4),
)
def test_roots_match_sympy_factorization(p, coeffs, forced):
    # over F_p the roots are the negated constants of sympy's monic linear
    # factors; `forced` multiplies in linear factors so that roots occur
    F = fq_construct(p, 1)
    poly = FqPoly(F, [c % p for c in coeffs])
    for r in forced:
        poly = poly * FqPoly(F, [(-r) % p, 1])
    assume(not poly.is_zero())
    _, factors = gf_factor(list(reversed(poly.codes())), p, ZZ)
    want = sorted((-fac[1]) % p for fac, _ in factors if len(fac) == 2)
    assert [r.code for r in poly.roots()] == want


def test_roots_match_scan_over_extensions():
    # the evaluation scan's order is the code order; both splitting maps
    # (odd q and the trace map for even q) run here
    rng = random.Random(17)
    for p, a in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        F = fq_construct(p, a)
        for _ in range(25):
            low = [F.decode(rng.randrange(F.q)) for _ in range(rng.randrange(1, 5))]
            poly = FqPoly(F, low + [F.one])
            for _ in range(rng.randrange(4)):
                poly = poly * FqPoly(F, [F.decode(rng.randrange(F.q)), F.one])
            scan = [x for x in elements(F) if poly_evaluate(poly, x).is_zero()]
            assert poly.roots() == scan, (p, a, poly)
    with pytest.raises(ValueError):
        FqPoly(fq_construct(3, 1), []).roots()


def test_roots_in_a_subfield_split_in_few_probes(monkeypatch):
    # roots 1 and 5 lie in F_13; probing the codes 1, 2, 3, ... in order
    # took 184 gcd calls here, the strided order takes 7
    F = fq_construct(13, 6, max_size=13**6)
    x = FqPoly(F, [F.zero, F.one])
    f = FqPoly(F, [F.coerce(5), F.coerce(7), F.one]) * (x + F.decode(77)) * (x + F.decode(99991))
    calls = []
    gcd = ffield.rp_gcd
    monkeypatch.setattr(ffield, "rp_gcd", lambda *args: calls.append(1) or gcd(*args))
    assert [r.code for r in f.roots()] == [1, 5, 105, 302242]
    assert len(calls) <= 20


def test_canonical_irreducibles():
    f2 = fq_construct(2, 1)
    deg2 = canonical_irreducibles(f2, 2)
    assert [p.codes() for p in deg2] == [(1, 1, 1)]
    deg1 = canonical_irreducibles(f2, 1)
    assert [p.codes() for p in deg1] == [(0, 1), (1, 1)]
    f3 = fq_construct(3, 1)
    assert len(canonical_irreducibles(f3, 2)) == 3


def test_fraction_mod():
    from fractions import Fraction

    assert fraction_mod(Fraction(1, 2), 5) == 3
    assert fraction_mod(Fraction(-24, 1), 11) == 9
    with pytest.raises(ZeroDivisionError):
        fraction_mod(Fraction(1, 2), 4)


def _desc(f):
    return list(reversed(f))


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    f=st.lists(st.integers(0, 12), max_size=9),
    g=st.lists(st.integers(0, 12), max_size=6),
    e=st.integers(0, 300),
)
def test_kernel_matches_sympy_galoistools(p, f, g, e):
    # sympy lists coefficients from the leading term down
    ring = FieldOps(p)
    f, g = rp_trim([c % p for c in f]), rp_trim([c % p for c in g])
    assert _desc(rp_mul(ring, f, g)) == gf_mul(_desc(f), _desc(g), p, ZZ)
    assert _desc(rp_gcd(ring, f, g)) == gf_gcd(_desc(f), _desc(g), p, ZZ)
    if g:
        quo, rem = rp_divmod(ring, f, g)
        assert (_desc(quo), _desc(rem)) == gf_div(_desc(f), _desc(g), p, ZZ)
        assert _desc(rp_powmod(ring, f, e, g)) == gf_pow_mod(_desc(f), e, _desc(g), p, ZZ)
    if len(f) > 1:
        assert rp_is_irreducible(ring, f) == gf_irreducible_p(_desc(f), p, ZZ)


def test_canonical_modulus_is_the_least_irreducible_by_code():
    for p, a in ((2, 2), (2, 3), (2, 5), (2, 8), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 3), (13, 2)):
        for code in range(p**a, 2 * p**a):
            digits = [code // p**i % p for i in range(a + 1)]
            if gf_irreducible_p(_desc(digits), p, ZZ):
                break
        assert canonical_modulus(p, a) == tuple(digits), (p, a)
