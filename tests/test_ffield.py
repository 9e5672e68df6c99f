"""Field construction, embeddings, residue rings, divisibility witnesses."""

import random

import numpy as np
import pytest

from hecketrace.ffield import (
    BudgetError,
    FqField,
    FqPoly,
    FqPolyQuotient,
    PrimePower,
    ZMod,
    canonical_irreducibles,
    canonical_modulus,
    embed,
    fq_construct,
    fraction_mod,
    is_prime,
    poly_divides_mod,
    prime_power_decompose,
    rp_coerce,
    rp_divmod,
    rp_mul,
    rp_series_quotient,
    rp_sub,
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
        assert f.element_order(g) == f.q - 1
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
            for x in a.elements():
                assert embed(embed(x, b), c) == embed(x, c)


def test_fq_poly_ops():
    f = fq_construct(5, 1)
    x = FqPoly(f, [0, 1])
    g = x * x + 3 * x + 2          # (x+1)(x+2)
    q, r = g.divmod(x + 1)
    assert r.is_zero() and q == x + 2
    assert g.gcd(x + 1) == (x + 1).monic()
    assert g.evaluate(f.coerce(-1)).is_zero()
    assert set(root.code for root in g.roots()) == {4, 3}
    assert (x ** 2 + 1 if False else FqPoly(f, [1, 0, 1])).is_irreducible() is False  # x^2+1 = (x+2)(x+3) mod 5
    assert FqPoly(f, [2, 0, 1]).is_irreducible()   # x^2+2 irreducible mod 5


def test_canonical_irreducibles():
    f2 = fq_construct(2, 1)
    deg2 = canonical_irreducibles(f2, 2)
    assert [p.codes() for p in deg2] == [(1, 1, 1)]
    deg1 = canonical_irreducibles(f2, 1)
    assert [p.codes() for p in deg1] == [(0, 1), (1, 1)]
    f3 = fq_construct(3, 1)
    assert len(canonical_irreducibles(f3, 2)) == 3


def test_poly_quotient_ring():
    f3 = fq_construct(3, 1)
    t = FqPoly(f3, [0, 1])
    ring = FqPolyQuotient(t * t)   # F_3[T]/T^2
    a = ring.reduce(t + 1)
    assert ring.mul(a, a) == ring.reduce(2 * t + 1)
    assert ring.is_unit(a)
    assert ring.mul(ring.inv(a), a) == ring.one
    assert not ring.is_unit(ring.reduce(t))
    assert len(list(ring.elements())) == 9


def test_poly_divides_mod_frozen_examples():
    # x-1 | x^3-1 over Z/8, witness x^2+x+1
    ok, wit = poly_divides_mod([-1, 1], [-1, 0, 0, 1], modulus=8)
    assert ok and wit == [1, 1, 1]
    # over F_2, 1+x DOES divide x^3-1 with witness x^2+x+1 (long-division oracle)
    ok, wit = poly_divides_mod([1, 1], [1, 0, 0, 1], modulus=2)
    assert ok and wit == [1, 1, 1]
    # same divisor presented with a coefficient that reduces away
    ok, wit = poly_divides_mod([1, 1, 2], [1, 0, 0, 1], modulus=2)
    assert ok and wit == [1, 1, 1]
    # a genuine non-divisor: x+1 does not divide x^2+x+1 over F_2
    ok, wit = poly_divides_mod([1, 1], [1, 1, 1], modulus=2)
    assert not ok and wit is None
    # non-unit leading coefficient is an error, not False
    with pytest.raises(ValueError):
        poly_divides_mod([1, 2], [1, 0, 1], modulus=4)


def test_poly_divides_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        m = rng.choice([4, 8, 9, 25, 27, 5, 7])
        ring = ZMod(m)
        d = [rng.randrange(m) for _ in range(rng.randrange(1, 4))] + [1]
        g = [rng.randrange(m) for _ in range(rng.randrange(1, 4))] + [1]
        f = rp_mul(ring, rp_coerce(ring, d), rp_coerce(ring, g))
        ok, wit = poly_divides_mod(d, f, ring=ring)
        assert ok
        assert rp_mul(ring, rp_coerce(ring, d), wit) == f


def test_series_quotient():
    ring = ZMod(125)
    # 1/(1-x) = 1 + x + x^2 + ...
    s = rp_series_quotient(ring, [1], [1, 124], 6)
    assert s == [1, 1, 1, 1, 1, 1]
    # f/d recovered by multiplying back, modulo truncation
    f = rp_coerce(ring, [3, 7, 1])
    d = rp_coerce(ring, [1, 5, 2])
    s = rp_series_quotient(ring, f, d, 12)
    back = rp_mul(ring, s, d)
    assert back[:12] == (list(f) + [0] * 12)[:12] or rp_sub(ring, back[:12], f) == []


def test_rp_divmod_matches_int_oracle():
    # reference long division over Z then reduced, random monic divisors
    rng = random.Random(5)
    for _ in range(100):
        m = rng.choice([4, 9, 8, 49])
        ring = ZMod(m)
        d = [rng.randrange(-10, 10) for _ in range(2)] + [1]
        f = [rng.randrange(-40, 40) for _ in range(6)]
        quo, rem = rp_divmod(ring, rp_coerce(ring, f), rp_coerce(ring, d))
        lhs = rp_add = rp_mul(ring, quo, rp_coerce(ring, d))
        total = [0] * max(len(lhs), len(rem), len(f))
        for i, c in enumerate(lhs):
            total[i] = (total[i] + c) % m
        for i, c in enumerate(rem):
            total[i] = (total[i] + c) % m
        want = [c % m for c in f]
        want += [0] * (len(total) - len(want))
        assert [c % m for c in total] == want[: len(total)]


def test_fraction_mod():
    from fractions import Fraction

    assert fraction_mod(Fraction(1, 2), 5) == 3
    assert fraction_mod(Fraction(-24, 1), 11) == 9
    with pytest.raises(ZeroDivisionError):
        fraction_mod(Fraction(1, 2), 4)
