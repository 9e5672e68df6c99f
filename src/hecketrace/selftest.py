"""The bundled verification suites behind `hecketrace selftest`.

`lemma_trials` draws seeded random instances of the paper's lemmas and the
package's invariants; `example_checks` re-derives published reference
values. Each case is a (name, thunk) pair whose thunk raises on failure.
Only the two selftest commands import this module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Tuple

import numpy as np

from hecketrace import congruences as cg
from hecketrace import curves as cv
from hecketrace import drinfeld as dr
from hecketrace import elltrace as et
from hecketrace import heckepoly as hp
from hecketrace.ffield import field_for, fq_construct


def check(cond: bool, *msg) -> None:
    """Fail a selftest case: raise AssertionError(*msg) unless cond holds.
    Unlike an assert statement it also runs under python -O."""
    if not cond:
        raise AssertionError(*msg)


def lemma_trials(rng: random.Random, trials: int) -> Iterable[Tuple[str, Callable[[], None]]]:
    """One (name, thunk) per property instance; thunks raise on failure."""

    def binom_rows():
        # the m buckets of f_values split the terms of c_k(1)
        k = rng.randrange(2, 60)
        q = rng.choice([2, 3, 4, 5, 7, 9])
        m = rng.randrange(1, 40)
        vals = cg.f_values(q, m, k)
        check(len(vals) == min(m, k // 2 + 1))
        check(sum(vals) == sum(math.comb(k - j, j) * (-q) ** j for j in range(k // 2 + 1)))

    def series_rational_int():
        q = rng.choice([2, 3, 4, 5, 7, 9])
        m = rng.randrange(1, 4)
        num = cg.f_numerator(q, rng.randrange(2 * m), m, rng.randrange(2))
        check(len(num) - 1 <= 4 * m - 2)

    def series_rational_ff():
        field = fq_construct(rng.choice([2, 3]), 1)
        P = rng.choice(dr.canonical_irreducibles(field, rng.randrange(1, 3)))
        params = dr.drinfeld_params(P, rng.randrange(1, 3))
        b = field.decode(rng.randrange(1, field.q))
        m = rng.randrange(1, 4)
        cg.class_numerator(params.wp * -b, rng.randrange(m), m)
        cg.class_numerator(b, rng.randrange(m), m)

    def unit_period_certificate():
        ell, q = rng.choice([(3, 2), (3, 7), (5, 2), (5, 4), (2, 3), (2, 5), (2, 9)])
        s = rng.randrange(1, 3)
        t = rng.randrange(1, s + 1)
        nu = cg.n_u_value(ell, s, q)
        d = cg.d_qt_poly(q, ell, t)
        f = [1] if ell == 2 and t == 1 else cg.f_numerator(q, 0, cg.m_ls_value(ell, t), 0)
        check(cg.periodic_certificate(f, d, nu, ell ** (s + 1 - t)) is True)

    def split_rejoin():
        q = rng.choice([2, 3, 4, 5, 7, 9])
        field = field_for(q)
        H = cv.LEVEL1
        # level-1 automorphism masses carry the primes 2 and 3, so ell >= 5
        ell = rng.choice([x for x in (5, 7, 11, 13) if x != field.p])
        s = rng.randrange(1, 3)
        k = rng.randrange(s - 1, 14)
        interior = et.interior_sequence_mod(field, H, k, ell**s)
        st = et.split_trace(field, H, k, ell, s)
        check((st.n_part + st.u_part) % ell**s == interior[k])

    def twist_partition():
        field = fq_construct(rng.choice([2, 3]), 1)
        P = rng.choice(dr.canonical_irreducibles(field, rng.randrange(1, 3)))
        params = dr.drinfeld_params(P, 1)
        qL = params.L.q
        check(int(dr.enumerate_classes(params).size.sum()) == qL * (qL - 1))

    def torsion_oracle():
        field = fq_construct(rng.choice([2, 3]), 1)
        P = rng.choice(dr.canonical_irreducibles(field, 1))
        params = dr.drinfeld_params(P, rng.randrange(1, 3))
        table = dr.enumerate_classes(params)
        i = rng.randrange(len(table))
        deg = rng.randrange(1, 3)
        pool = [f for f in dr.canonical_irreducibles(field, deg) if f != P]
        laux = pool[rng.randrange(len(pool))]
        tr, nrm = dr.frobenius_mod_torsion(params, int(table.g[i]), int(table.delta[i]), laux)
        ring = dr.ResidueRing(field, laux.codes())
        b_wp = field.v_mul(np.array(params.wp.codes()), table.b[i])
        check(tr.tolist() == ring.reduce(table.a[i]).tolist())
        check(nrm.tolist() == ring.reduce(b_wp).tolist())

    def unit_exponent():
        field = fq_construct(rng.choice([2, 3]), 1)
        deg = rng.randrange(1, 3)
        lpoly = rng.choice(dr.canonical_irreducibles(field, deg))
        s = rng.randrange(1, 3) if field.q**deg <= 9 else 1
        check(dr.exponent_check(lpoly, s))

    props = [
        ("binom-rows", binom_rows),
        ("series-rational-int", series_rational_int),
        ("series-rational-ff", series_rational_ff),
        ("unit-period-certificate", unit_period_certificate),
        ("split-rejoin", split_rejoin),
        ("twist-partition", twist_partition),
        ("torsion-oracle", torsion_oracle),
        ("unit-exponent", unit_exponent),
    ]
    for name, fn in props:
        for i in range(trials):
            yield f"{name}[{i}]", fn


# classical weight-12 eigenvalues; the test suite re-derives them from a
# q-expansion oracle, here they are pinned constants
TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738}

MOMENT_CLOSED_FORMS = {
    0: lambda q: q,
    2: lambda q: q * q - 1,
    4: lambda q: 2 * q**3 - 3 * q - 1,
    6: lambda q: 5 * q**4 - 9 * q * q - 5 * q - 1,
    8: lambda q: 14 * q**5 - 28 * q**3 - 20 * q * q - 7 * q - 1,
}


def example_checks() -> Iterable[Tuple[str, Callable[[], None]]]:
    def moment_closed_forms():
        for q in (2, 3, 4, 5, 7, 9):
            field = field_for(q)
            table = et.moments(field, cv.LEVEL1, 8)
            for k, form in MOMENT_CLOSED_FORMS.items():
                check(table.moments[k] == form(q), (q, k))
            for k in (1, 3, 5, 7):
                check(table.moments[k] == 0, (q, k))

    def weight12_eigenvalues():
        for p, tau in TAU.items():
            check(et.trace(field_for(p), cv.LEVEL1, 10).value == tau, p)
        check(et.trace(field_for(4), cv.LEVEL1, 10).value == TAU[2] ** 2 - 2 * 2**11)

    def weight28_congruences():
        for q in (2, 3, 4, 5, 7, 9):
            field = field_for(q)
            tr = et.trace(field, cv.LEVEL1, 26).value
            for tag, (modulus, coeffs) in cg.WEIGHT28_TRACE_POLYS.items():
                if tag == "mod2r":
                    modulus = 2 ** cg.two_power_exponent_for_weight28(field.p)
                want = sum(c * pow(q, i, modulus) for i, c in enumerate(coeffs)) % modulus
                check(tr % modulus == want, (q, tag))

    def even_moment_recurrence():
        for q in (2, 3):
            field = field_for(q)
            table = et.moments(field, cv.LEVEL1, 14)
            mom = table.moments
            for ell in (3, 7):
                r = cg.recurrence_modulus_exponent(ell, field.p)
                mod = ell**r
                for i in (0, 1):
                    lhs = mom[10 + 2 * i]
                    rhs = -sum(
                        c * mom[8 + 2 * i - 2 * j]
                        for j, c in enumerate(cg.EVEN_MOMENT_RECURRENCE)
                    )
                    check((lhs - rhs) % mod == 0, (q, ell, i))

    def elliptic_period_table():
        spec, _, ok = cg.verify_periodicity(field_for(2), cv.LEVEL1, 5, 1)
        check(ok and spec.n == 24 and not spec.shift_applied)
        # level 1 is not rigid, so ell in {2, 3} picks up the s -> s + nu shift
        spec, _, ok = cg.verify_periodicity(field_for(3), cv.LEVEL1, 2, 1)
        check(ok and spec.n == 12 and spec.s_eff == 2)
        spec, _, ok = cg.verify_periodicity(field_for(2), cv.LEVEL1, 2, 2)
        check(ok and spec.case == "ell-divides-q" and spec.n == 8)

    def hecke_charpoly():
        check(hp.charpoly_Tp(5, 12).poly == (1, -4830))
        mod5 = [hp.poly_mod(hp.charpoly_Tp(5, w).poly, 5) for w in (16, 20)]
        check(mod5[0] == mod5[1])
        check(hp.slope0_mult(5, 16) == hp.slope0_mult(5, 20))

    def class_number_identity():
        for p in (5, 31, 101):
            lhs, rhs = et.class_number_identity_sides(p, 11)
            check(lhs == rhs, p)
            # lhs comes from class numbers; the j-line counts points instead
            jline = cv.jline_route_masses(fq_construct(p, 1))
            check(sum(m for a1, m in jline if a1 % 11 == 0) == rhs, p)
        check(et.class_number_identity_sides(31, 11)[0] == Fraction(10, 3))

    def drinfeld_classes():
        field = fq_construct(2, 1)
        params = dr.drinfeld_params(dr.fq_poly_from_codes(field, (0, 1)), 1)
        t = dr.enumerate_classes(params)
        got = [t.g.tolist(), t.delta.tolist(), t.aut.tolist(), t.a.tolist(), t.b.tolist()]
        check(got == [[0, 1], [1, 1], [1, 1], [[0], [1]], [1, 1]])

    def drinfeld_weight8_residue():
        field = fq_construct(3, 1)
        tsq = dr.fq_poly_from_codes(field, (0, 0, 1))
        one = dr.fq_poly_from_codes(field, (1,))
        # P = T + 1, T + 2 and T + 1 as ascending codes
        for pcodes, n in (((1, 1), 1), ((2, 1), 1), ((1, 1), 2)):
            params = dr.drinfeld_params(dr.fq_poly_from_codes(field, pcodes), n)
            check(dr.trace_Tpn(params, 6, 1) % tsq == one, (pcodes, n))

    def drinfeld_period_table():
        field = fq_construct(3, 1)
        params = dr.drinfeld_params(dr.fq_poly_from_codes(field, (1, 1)), 1)
        lpoly = dr.fq_poly_from_codes(field, (0, 1))
        spec, _, ok = dr.verify_period_ff(params, lpoly, 1, 1)
        check(ok and spec.period == 24)
        check(dr.minimal_period_mod(params, lpoly, 1, 1, 120) == 24)
        for s, period in ((1, 2), (2, 6)):
            spec, _, ok = dr.verify_period_ff(params, params.P, s, 2)
            check(ok and spec.case == "equal-prime" and spec.period == period)

    def infinity_period():
        field = fq_construct(3, 1)
        params = dr.drinfeld_params(dr.fq_poly_from_codes(field, (1, 1)), 1)
        n, _, ok = dr.verify_infty_period(params, 1, 1, kmax=50)
        check(ok and n == 24)

    def ramanujan_window():
        field = fq_construct(3, 1)
        rep = dr.ramanujan_check(dr.drinfeld_params(dr.fq_poly_from_codes(field, (0, 1)), 1))
        check(not rep.vacuous and rep.k_limit == 25 and rep.all_ok)

    def unit_exponent_values():
        f3 = fq_construct(3, 1)
        f2 = fq_construct(2, 1)
        check(dr.unit_group_exponent(dr.fq_poly_from_codes(f3, (0, 1)), 1) == 2)
        check(dr.unit_group_exponent(dr.fq_poly_from_codes(f3, (0, 1)), 2) == 6)
        check(dr.unit_group_exponent(dr.fq_poly_from_codes(f2, (1, 1, 1)), 1) == 3)

    return [
        ("moment-closed-forms", moment_closed_forms),
        ("weight12-eigenvalues", weight12_eigenvalues),
        ("weight28-congruences", weight28_congruences),
        ("even-moment-recurrence", even_moment_recurrence),
        ("elliptic-period-table", elliptic_period_table),
        ("hecke-charpoly", hecke_charpoly),
        ("class-number-identity", class_number_identity),
        ("drinfeld-classes", drinfeld_classes),
        ("drinfeld-weight8-residue", drinfeld_weight8_residue),
        ("drinfeld-period-table", drinfeld_period_table),
        ("infinity-period", infinity_period),
        ("ramanujan-window", ramanujan_window),
        ("unit-exponent-values", unit_exponent_values),
    ]
