"""Tests for the curve layer: arithmetic, classification, structures."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hecketrace import curves as cv
from hecketrace.ffield import BudgetError, fq_construct, is_prime


def test_invariants_match_known_example():
    F5 = fq_construct(5, 1)
    E = cv.WeierstrassCurve(F5, 0, 0, 0, -1, 0)  # y^2 = x^3 - x
    assert E.discriminant == F5.coerce(64)
    assert E.j_invariant == F5.coerce(1728)
    assert E.is_smooth()
    sing = cv.WeierstrassCurve(F5, 0, 0, 0, 0, 0)
    assert not sing.is_smooth()
    with pytest.raises(ZeroDivisionError):
        sing.j_invariant


def test_transform_preserves_j_and_roundtrips():
    rng = random.Random(7)
    for (p, a) in [(2, 2), (3, 1), (5, 1), (7, 1)]:
        F = fq_construct(p, a)
        els = list(F.elements())
        for _ in range(25):
            E = cv.WeierstrassCurve(F, *[rng.choice(els) for _ in range(5)])
            if not E.is_smooth():
                continue
            u = rng.choice(els[1:])
            r, s, t = (rng.choice(els) for _ in range(3))
            E2 = E.transformed(u, r, s, t)
            assert E2.is_smooth()
            assert E2.j_invariant == E.j_invariant
            ui = u.inverse()
            back = E2.transformed(ui, -r * ui * ui, -s * ui, (r * s - t) * ui * ui * ui)
            assert back == E


def test_group_law_known_orders_and_associativity():
    F5 = fq_construct(5, 1)
    E = cv.WeierstrassCurve(F5, 0, 0, 0, 0, 1)  # y^2 = x^3 + 1, six points
    assert cv.curve_point_count(E) == 6
    P = (F5.coerce(0), F5.coerce(1))
    assert E.contains(*P)
    assert cv.point_order(E, P) == 3
    pts = cv.all_points(E)
    assert len(pts) == 6
    rng = random.Random(11)
    for _ in range(40):
        A, B, C = (rng.choice(pts) for _ in range(3))
        ab_c = cv.add_points(E, cv.add_points(E, A, B), C)
        a_bc = cv.add_points(E, A, cv.add_points(E, B, C))
        assert ab_c == a_bc
    for Q in pts:
        assert cv.add_points(E, Q, cv.negate_point(E, Q)) is None
        assert cv.mul_point(E, 6, Q) is None


def _naive_count(E):
    n = 1
    for x in E.field.elements():
        for y in E.field.elements():
            if E.contains(x, y):
                n += 1
    return n


def test_point_count_against_naive_scan():
    rng = random.Random(3)
    for (p, a) in [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]:
        F = fq_construct(p, a)
        els = list(F.elements())
        for _ in range(8):
            E = cv.WeierstrassCurve(F, *[rng.choice(els) for _ in range(5)])
            if not E.is_smooth():
                continue
            n = _naive_count(E)
            assert cv.curve_point_count(E) == n
            assert len(cv.all_points(E)) == n
            t = cv.trace_of_frobenius(E)
            assert t * t <= 4 * F.q


def test_torsion_against_brute_force():
    rng = random.Random(19)
    for (p, a) in [(5, 1), (3, 2), (13, 1), (2, 2)]:
        F = fq_construct(p, a)
        els = list(F.elements())
        done = 0
        while done < 6:
            E = cv.WeierstrassCurve(F, *[rng.choice(els) for _ in range(5)])
            if not E.is_smooth():
                continue
            done += 1
            pts = cv.all_points(E)
            brute = {2: set(), 4: set()}
            for P in pts:
                if P is None:
                    continue
                o = cv.point_order(E, P, cap=5 * F.q)
                if o in brute:
                    brute[o].add(P)
            assert set(cv.two_torsion_points(E)) == brute[2]
            assert set(cv.exact_order_points(E, 4)) == brute[4]
            want = {None} | brute[2] | brute[4]
            assert set(cv.n_torsion_points(E, 4)) == want


def _naive_classes(F):
    """Pairwise classification by enumerating every transform; tiny q only."""
    els = list(F.elements())
    curves = []
    for c1 in els:
        for c2 in els:
            for c3 in els:
                for c4 in els:
                    for c6 in els:
                        E = cv.WeierstrassCurve(F, c1, c2, c3, c4, c6)
                        if E.is_smooth():
                            curves.append(E)
    transforms = [
        (u, r, s, t)
        for u in els[1:]
        for r in els
        for s in els
        for t in els
    ]
    member_of = {}
    classes = []
    for E in curves:
        if E.coefficient_codes() in member_of:
            continue
        orbit = {E.transformed(*tr).coefficient_codes() for tr in transforms}
        auts = sum(1 for tr in transforms if E.transformed(*tr) == E)
        idx = len(classes)
        for codes in orbit:
            member_of[codes] = idx
        classes.append((len(orbit), auts))
    return classes, member_of


@pytest.mark.parametrize("p", [2, 3])
def test_iso_classes_match_naive_oracle(p):
    F = fq_construct(p, 1)
    naive, member_of = _naive_classes(F)
    got = oracles.iso_classes(F)
    assert len(got) == len(naive)
    for cls in got:
        size, auts = naive[member_of[cls.rep.coefficient_codes()]]
        assert cls.class_size == size
        assert cls.aut_order == auts
        assert len(cls.aut_tuples) == auts
        for tup in cls.aut_tuples:
            assert cls.rep.transformed(*[F.decode(c) for c in tup]) == cls.rep


def test_iso_classes_structure_invariants():
    for (p, a) in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (13, 1)]:
        F = fq_construct(p, a)
        q = F.q
        classes = oracles.iso_classes(F)
        assert sum(c.class_size for c in classes) <= q ** 5
        assert sum(Fraction(1, c.aut_order) for c in classes) == q
        group = q ** 3 * (q - 1)
        for c in classes:
            assert c.class_size * c.aut_order == group
            assert c.a1 * c.a1 <= 4 * q


def test_iso_classes_budget_guard():
    F = fq_construct(2, 5)  # 32^5 = 2^25 entries
    with pytest.raises(BudgetError):
        oracles.iso_classes(F, max_entries=1 << 20)


def test_apply_aut_is_a_point_map():
    F = fq_construct(3, 2)
    for cls in oracles.iso_classes(F)[:10]:
        pts = cv.all_points(cls.rep)
        for tup in cls.aut_tuples:
            images = [oracles.apply_aut(cls.rep, tup, P) for P in pts]
            for P in images:
                if P is not None:
                    assert cls.rep.contains(*P)
            assert len(set(map(cv._point_key, images))) == len(pts)


def test_level_structure_parser():
    assert cv.level_structure("1") is cv.LEVEL1
    assert cv.level_structure("level1") is cv.LEVEL1
    assert cv.level_structure("gamma1-4") is cv.GAMMA1_4
    assert cv.level_structure("gamma0-2") is cv.GAMMA0_2
    assert cv.level_structure("gamma1-2") is cv.GAMMA0_2
    with pytest.raises(ValueError):
        cv.level_structure("gamma9")
    assert len(cv.GAMMA1_4.matrices) == 8
    assert len(cv.GAMMA0_2.matrices) == 2


def test_gl2_sizes():
    assert len(cv.gl2_elements(2)) == 6
    assert len(cv.gl2_elements(4)) == 96
    for m in cv.gl2_elements(4)[:20]:
        mi = cv._matinv(m, 4)
        assert cv._matmul(m, mi, 4) == (1, 0, 0, 1)


def test_frobenius_matrix_against_point_counts():
    # the GL2 route must reproduce the direct exact-order point counts
    for (p, a) in [(5, 1), (3, 2)]:
        F = fq_construct(p, a)
        for cls in oracles.iso_classes(F):
            E = cls.rep
            n4 = cv.count_structures_general(E, cv.GAMMA1_4)
            assert n4 == len(cv.exact_order_points(E, 4))
            n2 = cv.count_structures_general(E, cv.GAMMA0_2)
            assert n2 == len(cv.exact_order_points(E, 2))


def test_frobenius_matrix_big_extension_needs_budget():
    F13 = fq_construct(13, 1)
    reps = [c.rep for c in oracles.iso_classes(F13)]
    E = reps[0]
    fr = cv.frobenius_matrix(E, 4, max_field_size=1 << 24)
    assert fr.splitting_degree <= 6
    m = fr.matrix
    assert (m[0] * m[3] - m[1] * m[2]) % 4 == 13 % 4


def test_structure_count_requires_coprime_level():
    F4 = fq_construct(2, 2)
    E = oracles.iso_classes(F4)[0].rep
    with pytest.raises(ValueError):
        cv.structure_count(E, cv.GAMMA1_4)


MOMENT_FORMS = {
    0: lambda q: q,
    2: lambda q: q * q - 1,
    4: lambda q: 2 * q ** 3 - 3 * q - 1,
    6: lambda q: 5 * q ** 4 - 9 * q * q - 5 * q - 1,
    8: lambda q: 14 * q ** 5 - 28 * q ** 3 - 20 * q * q - 7 * q - 1,
}


def _moment(data, k):
    return sum(m * a1 ** k for a1, m in data)


def test_routes_agree_and_match_moment_forms():
    for (p, a) in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]:
        F = fq_construct(p, a)
        data = {"family": oracles.family_route_masses(F, cv.LEVEL1)}
        data["class"] = oracles.class_route_masses(F, cv.LEVEL1)
        data["deuring"] = cv.deuring_route_masses(F)
        if p >= 5:
            data["jline"] = cv.jline_route_masses(F)
        vals = list(data.values())
        assert all(v == vals[0] for v in vals), (F.q, data)
        for k, form in MOMENT_FORMS.items():
            assert _moment(vals[0], k) == form(F.q)
        for k in (1, 3, 5, 7):
            assert _moment(vals[0], k) == 0


def test_gamma0_2_routes_agree():
    for p in (3, 5, 7):
        F = fq_construct(p, 1)
        fam = oracles.family_route_masses(F, cv.GAMMA0_2)
        clsm = oracles.class_route_masses(F, cv.GAMMA0_2)
        assert fam == clsm == cv.normal_form_route_masses(F, cv.GAMMA0_2)
        # twisting pairs up the odd moments here too
        assert _moment(fam, 1) == 0


def test_family_route_rejects_bad_level():
    F = fq_construct(2, 1)
    with pytest.raises(ValueError):
        oracles.family_route_masses(F, cv.GAMMA0_2)  # gcd(2, q) != 1
    with pytest.raises(ValueError):
        cv.normal_form_route_masses(F, cv.GAMMA1_4)  # gcd(4, q) != 1
    F3 = fq_construct(3, 1)
    with pytest.raises(ValueError):
        oracles.family_route_masses(F3, cv.GAMMA1_4)  # not in the family route
    with pytest.raises(ValueError):
        cv.normal_form_route_masses(F3, cv.LEVEL1)  # level 1 takes class numbers
    with pytest.raises(ValueError):
        cv.jline_route_masses(F3)  # characteristic too small


def test_kronecker_sieve_matches_pointwise():
    # the targeted kernel against the pointwise enumeration in elltrace
    from hecketrace.elltrace import kronecker_H

    ds = np.arange(1, 3001)
    for D, six in zip(ds.tolist(), cv.hurwitz6(ds).tolist()):
        if D % 4 in (1, 2):
            assert six == 0, D
        else:
            assert Fraction(six, 6) == kronecker_H(-D), D


def test_hurwitz6_matches_full_range_sieve():
    limit = 200_000
    sixh = oracles.kronecker_sieve(limit)
    assert np.array_equal(cv.hurwitz6(np.arange(1, limit + 1)), sixh[1:])
    # any subset and order of discriminants gives the same values
    ds = np.array([limit, 3, 4 * 9973, 7, 3 * 49, 4 * 25, 12])
    assert np.array_equal(cv.hurwitz6(ds), sixh[ds])


def test_deuring_route_matches_point_counts():
    # every q = p^a <= 1000 with p >= 5: odd and even extension degrees,
    # ordinary and supersingular traces
    fields = [(p, a) for p in range(5, 1000) if is_prime(p)
              for a in range(1, 5) if p ** a <= 1000]
    assert len(fields) == 178
    for (p, a) in fields:
        F = fq_construct(p, a)
        assert cv.deuring_route_masses(F) == cv.jline_route_masses(F), (p, a)


_WRONG_CLASS_NUMBER = """
import numpy as np
from hecketrace import curves as cv
from hecketrace.ffield import fq_construct

good = cv.hurwitz6
cv.hurwitz6 = lambda ds: good(ds) + 6 * (np.arange(len(ds)) == 0)
try:
    cv.deuring_route_masses(fq_construct(101, 1))
except ArithmeticError as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_deuring_route_rejects_wrong_class_number(monkeypatch):
    good = cv.hurwitz6
    monkeypatch.setattr(cv, "hurwitz6", lambda ds: good(ds) + 6 * (np.arange(len(ds)) == 0))
    with pytest.raises(ArithmeticError, match="level-1 mass is 102"):
        cv.deuring_route_masses(fq_construct(101, 1))
    # the check is not an assert: it still runs under python -O
    src = os.path.dirname(os.path.dirname(cv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _WRONG_CLASS_NUMBER],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "level-1 mass is 102" in res.stdout


def test_nu_ell_values_and_bounds():
    F2 = fq_construct(2, 1)
    F3 = fq_construct(3, 1)
    F4 = fq_construct(2, 2)
    F5 = fq_construct(5, 1)
    # the closed form and the oracle's stabilizer computation
    for nu_ell in (cv.nu_ell, oracles.stabilizer_nu_ell):
        assert nu_ell(cv.LEVEL1, F2, 2) == 2
        assert nu_ell(cv.LEVEL1, F4, 2) == 3
        assert nu_ell(cv.LEVEL1, F3, 3) == 1
        assert nu_ell(cv.LEVEL1, F3, 2) == 1
        assert nu_ell(cv.LEVEL1, F5, 2) == 2
        assert nu_ell(cv.LEVEL1, F5, 5) == 0
        assert nu_ell(cv.GAMMA0_2, F3, 2) == 1
        assert nu_ell(cv.GAMMA0_2, F5, 3) == 0
        assert nu_ell(cv.GAMMA1_4, F3, 2) == 0


# every field with q <= 17
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                (2, 4), (17, 1)]


def test_nu_ell_matches_stabilizer_oracle():
    assert len(SMALL_FIELDS) == 11
    for p, a in SMALL_FIELDS:
        F = fq_construct(p, a)
        levels = [cv.LEVEL1] + ([cv.GAMMA0_2, cv.GAMMA1_4] if p != 2 else [])
        for H in levels:
            for ell in (2, 3, 5):
                assert cv.nu_ell(H, F, ell) == oracles.stabilizer_nu_ell(H, F, ell), (F.q, H.name, ell)
    with pytest.raises(ValueError):
        cv.nu_ell(cv.GAMMA0_2, fq_construct(2, 1), 2)  # gcd(2, q) != 1


def test_frobenius_traces_match_naive_counts(monkeypatch):
    # one batch of random curves per field, singular ones included: the
    # kernel counts the points of the equation either way
    rng = random.Random(5)
    for (p, a) in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (13, 1)]:
        F = fq_construct(p, a)
        els = list(F.elements())
        curves = [cv.WeierstrassCurve(F, *[rng.choice(els) for _ in range(5)]) for _ in range(12)]
        codes = np.array([E.coefficient_codes() for E in curves]).T
        monkeypatch.setattr(cv, "_TRACE_BLOCK", 2 * F.q)  # several row blocks
        traces = cv.frobenius_traces(F, *codes)
        assert traces.tolist() == [F.q + 1 - _naive_count(E) for E in curves], F.q


def test_level1_low_characteristic_matches_family_oracle():
    # class numbers for p not dividing t, the j = 0 sweep for the rest; the
    # per-curve family loop takes about 9 s at q = 27, so it stops at 16
    for (p, a) in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]:
        F = fq_construct(p, a)
        assert cv.deuring_route_masses(F) == oracles.family_route_masses(F, cv.LEVEL1), F.q


def test_level1_low_characteristic_matches_qexpansion():
    # past the family oracle: the trace in every weight with a one-dimensional
    # cusp space against t_a = a_p t_{a-1} - p^(k-1) t_{a-2}
    from hecketrace import elltrace as et

    for (p, a) in [(3, 3), (2, 5), (2, 6), (3, 4), (2, 8)]:
        F = fq_construct(p, a)
        for k in (12, 16, 18, 20, 22, 26):
            ap = oracles.cusp_form_coefficients(k, p + 1)[p]
            t_prev, t = 2, ap
            for _ in range(a - 1):
                t_prev, t = t, ap * t - p ** (k - 1) * t_prev
            assert et.trace(F, cv.LEVEL1, k - 2).value == t, (F.q, k)


def test_level_routes_match_class_oracle():
    for q in (3, 5, 7, 9, 11, 13, 17):
        F = fq_construct(3, 2) if q == 9 else fq_construct(q, 1)
        for H in (cv.GAMMA0_2, cv.GAMMA1_4):
            assert cv.normal_form_route_masses(F, H) == oracles.class_route_masses(F, H), (q, H.name)


def test_level_routes_check_torsion_divisibility(monkeypatch):
    F = fq_construct(13, 1)
    good = cv.frobenius_traces
    monkeypatch.setattr(cv, "frobenius_traces", lambda *a, **k: good(*a, **k) + 1)
    for H in (cv.GAMMA0_2, cv.GAMMA1_4):
        with pytest.raises(ArithmeticError, match=f"not divisible by {H.N}"):
            cv.normal_form_route_masses(F, H)


def test_gamma0_2_sweep_is_blocked(monkeypatch):
    # the q^2 pairs (a, b) reach the kernel in blocks of at most _TRACE_BLOCK
    # curves, so memory does not grow with q^2, and the blocks add up to the
    # one-block result
    F = fq_construct(31, 1)
    whole = cv.normal_form_route_masses(F, cv.GAMMA0_2)
    sizes = []
    good = cv.frobenius_traces

    def spy(field, *coeffs):
        sizes.append(np.broadcast(*coeffs).size)
        return good(field, *coeffs)

    monkeypatch.setattr(cv, "frobenius_traces", spy)
    monkeypatch.setattr(cv, "_TRACE_BLOCK", 4 * F.q)
    assert cv.normal_form_route_masses(F, cv.GAMMA0_2) == whole
    assert len(sizes) == 8 and max(sizes) <= 4 * F.q


_WRONG_CLASS_NUMBER_P2 = """
import numpy as np
from hecketrace import curves as cv
from hecketrace.ffield import fq_construct

good = cv.hurwitz6
cv.hurwitz6 = lambda ds: good(ds) + 6 * (np.arange(len(ds)) == 0)
try:
    cv.deuring_route_masses(fq_construct(2, 5))
except ArithmeticError as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_low_characteristic_route_rejects_wrong_class_number():
    # t = 1 gains mass 1/2 and with it t = -1: the total is q + 1, under python -O too
    src = os.path.dirname(os.path.dirname(cv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _WRONG_CLASS_NUMBER_P2],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "level-1 mass is 33" in res.stdout
