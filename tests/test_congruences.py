import math
import os
import random
import subprocess
import sys

import pytest

from hecketrace import drinfeld as dr
from hecketrace.congruences import (
    CertificateRefused,
    binomial_classes,
    class_numerator,
    d_qt_poly,
    f_denominator,
    f_numerator,
    f_values,
    is_square_mod_2s,
    legendre,
    m_ls_value,
    n_u_value,
    period_for,
    ZMod,
    periodic_certificate,
    poly_divides_mod,
    series_head,
)
from hecketrace.ffield import fq_construct, rp_divmod, rp_series_quotient, rp_trim
from oracles import f_coeff


def test_legendre_and_squares():
    assert legendre(2, 5) == -1
    assert legendre(4, 5) == 1
    assert legendre(7, 3) == 1
    assert legendre(2, 3) == -1
    assert legendre(10, 5) == 0
    # squares in (Z/2^s)^x: everything for s=1, 1 mod 4 for s=2, 1 mod 8 for s=3
    assert is_square_mod_2s(7, 1)
    assert is_square_mod_2s(5, 2)
    assert not is_square_mod_2s(7, 2)
    assert is_square_mod_2s(9, 3)
    assert not is_square_mod_2s(7, 3)
    assert not is_square_mod_2s(5, 3)


def test_binom_prime_power_shift():
    # binom(k, j) is ell^t-periodic in k mod ell^s once t >= s + log_ell j
    rng = random.Random(11)
    for _ in range(400):
        ell = rng.choice([2, 3, 5, 7, 11])
        s = rng.randint(1, 4)
        j = rng.randint(1, 60)
        k = rng.randint(j, 200)
        t = s + int(math.log(j, ell)) if j > 1 else s
        while ell ** (t - s) < j:
            t += 1
        shift = ell ** t
        assert math.comb(k, j) % ell ** s == math.comb(k + shift, j) % ell ** s


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod_exact(num, den):
    # integer coefficients, exact division expected
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q[i] = c // den[-1]
        for j, y in enumerate(den):
            num[i + j] -= q[i] * y
    assert all(c == 0 for c in num)
    return q


def test_pow_ell_of_shifted_unit():
    # (x^n - 1)^ell = x^{n ell} - 1 + ell*g*(x^n - 1) with deg g = n(ell-2)
    for ell in (2, 3, 5):
        for n in range(1, 7):
            base = [-1] + [0] * (n - 1) + [1]
            powed = [1]
            for _ in range(ell):
                powed = _poly_mul(powed, base)
            xnl = [-1] + [0] * (n * ell - 1) + [1]
            diff = _poly_sub(powed, xnl)
            if not diff:
                assert ell == 1
                continue
            assert all(c % ell == 0 for c in diff)
            reduced = [c // ell for c in diff]
            g = _poly_divmod_exact(reduced, base)
            while g and g[-1] == 0:
                g.pop()
            if ell == 2:
                assert g == [-1]
            else:
                assert len(g) - 1 == n * (ell - 2)


def _divisor_of_xn_minus_one(rng, n, modulus, ell):
    """Build a verified divisor of x^n - 1 over Z/modulus."""
    kind = rng.randint(0, 2)
    if kind == 0:
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        return [-1] + [0] * (d - 1) + [1]
    if kind == 1:
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        # (x^n - 1)/(x^d - 1) = 1 + x^d + ... + x^{n-d}
        out = [0] * (n - d + 1)
        for i in range(0, n - d + 1, d):
            out[i] = 1
        return out
    # product of x - u over roots of unity with pairwise-unit differences
    roots = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1 and pow(u, n, modulus) == 1]
    rng.shuffle(roots)
    chosen = []
    for u in roots:
        if all(math.gcd(u - v, modulus) == 1 for v in chosen):
            chosen.append(u)
        if len(chosen) == 3:
            break
    if not chosen:
        chosen = [1]
    poly = [1]
    for u in chosen:
        poly = _poly_mul(poly, [-u, 1])
    return [c % modulus for c in poly]


def test_divisor_upgrade():
    # f | x^n - 1 mod ell^m implies f | x^{n ell^r} - 1 mod ell^{m+r}
    rng = random.Random(23)
    for _ in range(120):
        ell = rng.choice([2, 3, 5])
        m = rng.randint(1, 3)
        n = rng.randint(1, 10)
        f = _divisor_of_xn_minus_one(rng, n, ell ** m, ell)
        ok, _ = poly_divides_mod(f, [-1] + [0] * (n - 1) + [1], ell ** m)
        assert ok, "premise construction failed"
        for r in (1, 2):
            nn = n * ell ** r
            ok, _ = poly_divides_mod(f, [-1] + [0] * (nn - 1) + [1], ell ** (m + r))
            assert ok


def test_root_of_unity_product():
    # prod_{i=1}^m (A - z^i B) = A^m - B^m for z of exact order m
    rng = random.Random(5)
    smallest = {}
    for m in range(1, 21):
        p = m + 1
        while not (p > 2 and all(p % d for d in range(2, int(p ** 0.5) + 1)) and (p - 1) % m == 0):
            p += 1
        smallest[m] = p
    for m, p in smallest.items():
        F = fq_construct(p, 1)
        g = F.multiplicative_generator()
        z = g ** ((p - 1) // m)
        assert [n for n in range(1, m + 1) if z ** n == F.one] == [m]
        for _ in range(5):
            A = F.decode(rng.randrange(p))
            B = F.decode(rng.randrange(p))
            prod = F.one
            zi = F.one
            for _ in range(m):
                zi = zi * z
                prod = prod * (A - zi * B)
            assert prod == A ** m - B ** m


def test_f_coeff_small_table():
    # weight 0..4 values straight from the definition, full residue class
    for q in (2, 3, 5):
        assert f_coeff(q, 0, 1, 0) == 1
        assert f_coeff(q, 0, 1, 1) == 1
        assert f_coeff(q, 0, 1, 2) == 1 - q
        assert f_coeff(q, 0, 1, 3) == 1 - 2 * q
        assert f_coeff(q, 0, 1, 4) == 1 - 3 * q + q * q


def test_f_coeff_recurrence():
    # full-sum family satisfies c_k = c_{k-1} - q c_{k-2}
    for q in (2, 3, 4, 5):
        seq = [f_coeff(q, 0, 1, k) for k in range(40)]
        for k in range(2, 40):
            assert seq[k] == seq[k - 1] - q * seq[k - 2]


def test_coeff_family_matches_exact():
    # one pass of f_values against each residue summed term by term; m past
    # k//2 + 1 leaves the residues past the returned list at 0
    rng = random.Random(41)
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5, 7, 9])
        M = rng.choice([None, 8, 27, 25, 121, 5336100])
        m = rng.choice([1, 2, 3, 5, 50])
        k = rng.randrange(0, 80)
        got = f_values(q, m, k)
        assert len(got) == min(m, k // 2 + 1)
        want = [f_coeff(q, r, m, k) for r in range(m)]
        if M is not None:
            got, want = [v % M for v in got], [v % M for v in want]
        assert got + [0] * (m - len(got)) == want, (q, M, m, k)
    with pytest.raises(ValueError):
        f_values(5, 0, 4)


def test_f_sum_collapse():
    # summing the finer residue classes recovers the coarser family value
    rng = random.Random(99)
    for _ in range(60):
        ell = rng.choice([3, 5])
        s = rng.randint(1, 3)
        t = rng.randint(1, s)
        q = rng.choice([2, 3, 4, 7])
        if q % ell == 0:
            continue
        ms, mt = m_ls_value(ell, s), m_ls_value(ell, t)
        k = rng.randrange(0, 60)
        r = rng.randrange(mt)
        total = sum(f_coeff(q, r + i * mt, ms, k) for i in range(ell ** (s - t)))
        assert total == f_coeff(q, r, mt, k)


def test_f_sum_collapse_even():
    # ell = 2: for t >= 2 same shape; t = 1 collapses everything to the full sum
    rng = random.Random(7)
    for _ in range(40):
        s = rng.randint(2, 4)
        t = rng.randint(2, s)
        q = rng.choice([3, 5, 7, 9])
        ms, mt = m_ls_value(2, s), m_ls_value(2, t)
        k = rng.randrange(0, 60)
        r = rng.randrange(mt)
        total = sum(f_coeff(q, r + i * mt, ms, k) for i in range(2 ** (s - t)))
        assert total == f_coeff(q, r, mt, k)
    for s in (2, 3, 4):
        ms = m_ls_value(2, s)
        for q in (3, 7):
            for k in range(0, 40):
                total = sum(f_coeff(q, i, ms, k) for i in range(ms))
                assert total == f_coeff(q, 0, 1, k)


def test_f_weight_period_congruence():
    # f_{r, m_t, k} mod ell^{s+1-t} is n_U-periodic in k from the start
    for ell, qs in ((3, (2, 7)), (5, (2, 4))):
        for s in (1, 2):
            for t in range(1, s + 1):
                mt = m_ls_value(ell, t)
                for q in qs:
                    nu = n_u_value(ell, s, q)
                    mod = ell ** (s + 1 - t)
                    for r in range(mt):
                        for k in range(0, 2 * nu if ell == 3 else nu):
                            a = f_coeff(q, r, mt, k)
                            b = f_coeff(q, r, mt, k + nu)
                            assert (a - b) % mod == 0, (ell, s, t, q, r, k)


def test_f_weight_period_congruence_even():
    for s in (1, 2, 3):
        for t in range(1, s + 1):
            mt = m_ls_value(2, t)
            for q in (3, 5, 7, 9):
                nu = n_u_value(2, s, q)
                mod = 2 ** (s + 1 - t)
                for r in range(mt):
                    for k in range(0, 2 * nu):
                        a = f_coeff(q, r, mt, k)
                        b = f_coeff(q, r, mt, k + nu)
                        assert (a - b) % mod == 0, (s, t, q, r, k)


def test_denominator_divides_unit_period():
    for ell, qs in ((3, (2, 7)), (5, (2, 4))):
        for s in (1, 2):
            for t in range(1, s + 1):
                for q in qs:
                    nu = n_u_value(ell, s, q)
                    mod = ell ** (s + 1 - t)
                    d = d_qt_poly(q, ell, t)
                    xn1 = [-1] + [0] * (nu - 1) + [1]
                    ok, _ = poly_divides_mod(d, xn1, mod)
                    assert ok, (ell, s, t, q)


def test_denominator_divides_unit_period_even():
    for s in (1, 2, 3):
        for t in range(1, s + 1):
            for q in (3, 5, 7, 9):
                nu = n_u_value(2, s, q)
                mod = 2 ** (s + 1 - t)
                d = d_qt_poly(q, 2, t)
                xn1 = [-1] + [0] * (nu - 1) + [1]
                ok, _ = poly_divides_mod(d, xn1, mod)
                assert ok, (s, t, q)


def test_f_numerator_degree_bound():
    # the fixed-parity series is rational with numerator degree <= 4m-2-delta
    for q in (2, 3, 5, 7):
        for m in (1, 2, 3):
            for delta in (0, 1):
                num = f_numerator(q, 0, m, delta)
                assert len(num) - 1 <= 4 * m - 2 - delta
    # a couple of off-zero residues
    for r in (1, 2):
        num = f_numerator(5, r, 3, 0)
        assert len(num) - 1 <= 10


def test_series_head_refuses_a_wrong_denominator():
    # dropping the -x^m term of the denominator leaves a tail that does not
    # vanish: over Z for f (x = -q), over F_q for h (x = b) and over F_q[T]
    # for g (x = -b wp); the right denominator passes in each ring
    q, m = 5, 2
    series = [binomial_classes(-q, m, k)[k // 2 % m] if k % 2 == 0 else 0 for k in range(10 * m + 5)]
    den = f_denominator(q, m)
    assert rp_trim(series_head(series, den, 4 * m - 2)) == f_numerator(q, 0, m, 0)
    wrong = list(den)
    wrong[2 * m] += 1  # (1 + q x^2)^{2m} alone
    with pytest.raises(ArithmeticError, match="not rational"):
        series_head(series, wrong, 4 * m - 2)
    field = fq_construct(3, 2)
    pp = dr.drinfeld_params(dr.fq_poly_from_codes(field, (1, 1)), 1)
    for x in (field.decode(5), pp.wp * -field.decode(5)):
        series = [binomial_classes(x, m, k)[1] for k in range(4 * m + 3)]
        den = [1, -2, 1, 0, -(x ** m)]  # (1-t)^2 - (x t^2)^2
        assert series_head(series, den, 2 * m - 2) == class_numerator(x, 1, m)
        with pytest.raises(ArithmeticError, match="not rational"):
            series_head(series, den[:-1], 2 * m - 2)


# corrupts the denominator that every lemma certificate hands the shared
# tail check; seed 2 draws a unit-period certificate that needs f_numerator
_WRONG_DENOMINATOR = """
from hecketrace import cli
from hecketrace import congruences as cg

good = cg.series_head
cg.series_head = lambda series, den, bound: good(series, den[:-1], bound)
raise SystemExit(cli.run(["selftest", "lemmas", "--trials", "1", "--seed", "2"]))
"""


def test_wrong_denominator_fails_the_lemmas_under_python_O():
    # the tail check raises, not asserts: under -O the three lemma
    # certificates still fail and the others still pass
    src = os.path.dirname(os.path.dirname(dr.__file__))
    res = subprocess.run([sys.executable, "-O", "-c", _WRONG_DENOMINATOR],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 1, res.stdout + res.stderr
    failed = {l.split()[1].split("[")[0] for l in res.stdout.splitlines() if l.startswith("FAIL ")}
    assert failed == {"series-rational-int", "series-rational-ff", "unit-period-certificate"}
    assert "series is not rational with the expected denominator" in res.stdout


def test_periodic_certificate_true():
    # run the full certificate on an actual family numerator/denominator pair
    for ell, q, s, t in ((3, 2, 2, 1), (3, 7, 2, 2), (5, 2, 1, 1), (2, 3, 2, 1), (2, 5, 3, 2)):
        nu = n_u_value(ell, s, q)
        mod = ell ** (s + 1 - t)
        d = d_qt_poly(q, ell, t)
        if ell == 2 and t == 1:
            # full-sum family, single series over both parities
            f = [1]
        else:
            m = m_ls_value(ell, t)
            f = f_numerator(q, 0, m, 0)
        assert periodic_certificate(f, d, nu, mod) is True


def test_periodic_certificate_refused():
    with pytest.raises(CertificateRefused):
        periodic_certificate([1], [1, 1], 3, 4)  # 1+x does not divide x^3-1 mod 4
    with pytest.raises(CertificateRefused):
        periodic_certificate([1], [1, 2], 4, 4)  # lead coefficient not a unit
    with pytest.raises(CertificateRefused):
        periodic_certificate([1], [4], 2, 4)  # denominator vanishes


def test_hformula_expansion():
    # sum_j binom(k-j, j)(-x1 x2)^j (x1+x2)^{k-2j} is the homogeneous h_k
    def mul(a, b):
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return {k: v for k, v in out.items() if v}

    def add(a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    def scale(a, c):
        return {k: v * c for k, v in a.items()} if c else {}

    e1 = {(1, 0): 1, (0, 1): 1}
    e2 = {(1, 1): 1}
    for k in range(21):
        acc = {}
        for j in range(k // 2 + 1):
            term = {(0, 0): 1}
            for _ in range(j):
                term = mul(term, e2)
            term = scale(term, math.comb(k - j, j) * (-1) ** j)
            for _ in range(k - 2 * j):
                term = mul(term, e1)
            acc = add(acc, term)
        expected = {(i, k - i): 1 for i in range(k + 1)}
        assert acc == expected


PERIOD_TABLE = [
    # ell, s, q, expected (case, n, k0, m_ls)
    (5, 1, 2, ("odd-nonsquare", 24, 0, 2)),
    (5, 1, 4, ("odd-square", 60, 0, 2)),
    (5, 2, 2, ("odd-nonsquare", 120, 1, 10)),
    (3, 1, 7, ("odd-square", 12, 0, 1)),
    (3, 2, 2, ("odd-nonsquare", 24, 1, 3)),
    (2, 1, 7, ("ell2-square", 6, 0, 1)),
    (2, 2, 7, ("ell2-nonsquare", 12, 1, 1)),
    # the square tag keeps the full 2^s * 3 period: n = 6 fails in practice
    # (a Gamma1(4)-type structure over F_5 has interior period 4 mod 4)
    (2, 2, 5, ("ell2-square", 12, 1, 1)),
    (2, 3, 7, ("ell2-nonsquare", 24, 2, 2)),
    (2, 3, 9, ("ell2-square", 24, 2, 2)),
    (2, 1, 2, ("ell-divides-q", 1, 1, 1)),
    (2, 1, 4, ("ell-divides-q", 1, 1, 1)),
    (2, 2, 2, ("ell-divides-q", 2, 3, 1)),
    (3, 1, 3, ("ell-divides-q", 2, 1, 1)),
    (3, 2, 3, ("ell-divides-q", 6, 3, 3)),
    (3, 1, 9, ("ell-divides-q", 2, 1, 1)),
]


def test_period_table():
    for ell, s, q, (case, n, k0, mls) in PERIOD_TABLE:
        spec = period_for(ell, s, q)
        assert spec.case == case, (ell, s, q)
        assert spec.n == n, (ell, s, q, spec.n)
        assert spec.k0 == k0, (ell, s, q, spec.k0)
        assert spec.m_ls == mls, (ell, s, q)
        assert not spec.shift_applied


def test_period_is_even_for_every_preset():
    # verify_periodicity compares interior sums alone: over an even period the
    # boundary terms cancel, so a level structure with an odd period fails here
    from hecketrace import curves
    from hecketrace.ffield import is_prime, prime_power_decompose

    ells = [ell for ell in range(2, 40) if is_prime(ell)]
    for q in range(2, 257):
        try:
            pp = prime_power_decompose(q)
        except ValueError:
            continue
        field = fq_construct(pp.p, pp.a)
        for H in (curves.LEVEL1, curves.GAMMA0_2, curves.GAMMA1_4):
            if math.gcd(H.N, q) != 1:
                continue
            for ell in ells:
                nu = curves.nu_ell(H, field, ell)
                for s in range(1, 5):
                    spec = period_for(ell, s, q, representable=H.representable, nu=nu)
                    assert spec.n % 2 == 0, (q, H.name, ell, s, spec.n)


def test_period_with_level_shift():
    # non-representable level data moves s inside the period formula only
    spec = period_for(2, 1, 3, representable=False, nu=0)
    assert spec.s_eff == 1 and not spec.shift_applied and spec.n == 6
    spec = period_for(2, 1, 3, representable=False, nu=1)
    assert spec.s_eff == 2 and spec.shift_applied
    assert spec.n == 12 and spec.k0 == 0 and spec.m_ls == 1
    spec = period_for(2, 1, 5, representable=False, nu=1)
    assert spec.n == 12 and spec.k0 == 0 and spec.case == "ell2-square"
    spec = period_for(2, 2, 9, representable=False, nu=2)
    assert spec.s_eff == 4 and spec.n == 48 and spec.case == "ell2-square"
    spec = period_for(3, 1, 2, representable=False, nu=1)
    assert spec.s_eff == 2 and spec.n == 3 * 8 and spec.k0 == 0
    spec = period_for(5, 1, 2, representable=False, nu=0)
    assert spec.s_eff == 1 and not spec.shift_applied
    with pytest.raises(ValueError):
        period_for(2, 1, 3, representable=False, nu=-1)


def test_unit_period_divides_theorem_period():
    for ell, s, q in ((3, 1, 2), (3, 2, 7), (5, 1, 2), (5, 2, 4), (2, 1, 3), (2, 2, 7), (2, 3, 9)):
        spec = period_for(ell, s, q)
        assert spec.n % n_u_value(ell, s, q) == 0


def rp_mul(ring, f, g):
    # schoolbook product over Z, then reduced: independent of the kernel's rp_mul
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _reduce(ring, out)


def _reduce(ring, f):
    return rp_trim([c % ring.m for c in f])


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
        f = rp_mul(ring, _reduce(ring, d), _reduce(ring, g))
        ok, wit = poly_divides_mod(d, f, modulus=m)
        assert ok
        assert rp_mul(ring, _reduce(ring, d), wit) == f


def test_series_quotient():
    ring = ZMod(125)
    # 1/(1-x) = 1 + x + x^2 + ...
    s = rp_series_quotient(ring, [1], [1, 124], 6)
    assert s == [1, 1, 1, 1, 1, 1]
    # f/d recovered by multiplying back, modulo truncation
    f = _reduce(ring, [3, 7, 1])
    d = _reduce(ring, [1, 5, 2])
    s = rp_series_quotient(ring, f, d, 12)
    back = rp_mul(ring, s, d)
    assert back[:12] == (list(f) + [0] * 12)[:12]


def test_rp_divmod_matches_int_oracle():
    # reference long division over Z then reduced, random monic divisors
    rng = random.Random(5)
    for _ in range(100):
        m = rng.choice([4, 9, 8, 49])
        ring = ZMod(m)
        d = [rng.randrange(-10, 10) for _ in range(2)] + [1]
        f = [rng.randrange(-40, 40) for _ in range(6)]
        quo, rem = rp_divmod(ring, _reduce(ring, f), _reduce(ring, d))
        lhs = rp_mul(ring, quo, _reduce(ring, d))
        total = [0] * max(len(lhs), len(rem), len(f))
        for i, c in enumerate(lhs):
            total[i] = (total[i] + c) % m
        for i, c in enumerate(rem):
            total[i] = (total[i] + c) % m
        want = [c % m for c in f]
        want += [0] * (len(total) - len(want))
        assert [c % m for c in total] == want[: len(total)]
