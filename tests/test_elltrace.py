"""Tests for moments, interior sums, traces, the unit split and class masses."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
from hecketrace import curves as cv
from hecketrace import elltrace as et
from hecketrace.ffield import fq_construct, prime_power_decompose

TAU = oracles.delta_coefficients(15)


def test_moment_examples():
    assert et.moments(fq_construct(2, 1), cv.LEVEL1, 0)[0] == 2
    assert et.moments(fq_construct(3, 1), cv.LEVEL1, 2)[2] == 8
    assert et.moments(fq_construct(5, 1), cv.LEVEL1, 4)[4] == 234


def test_moments_reject_bad_level():
    with pytest.raises(ValueError):
        et.moments(fq_construct(2, 1), cv.GAMMA1_4, 2)
    with pytest.raises(ValueError):
        et.mass_data(fq_construct(2, 1), cv.LEVEL1, route="bogus")


def test_interior_examples():
    F2 = fq_construct(2, 1)
    seq = et.interior_sequence(F2, cv.LEVEL1, 10)
    assert seq[0] == 2
    assert seq[10] == 23
    assert et.trace_interior(F2, cv.LEVEL1, 10) == 23
    with pytest.raises(ValueError):
        et.trace_interior(F2, cv.LEVEL1, -1)


def test_interior_mod_agrees_with_exact():
    for q, modulus in [(2, 5), (3, 8), (5, 27), (9, 121), (7, 4)]:
        pp = prime_power_decompose(q)
        F = fq_construct(pp.p, pp.a)
        exact = et.interior_sequence(F, cv.LEVEL1, 30)
        reduced = et.interior_sequence_mod(F, cv.LEVEL1, 30, modulus)
        assert reduced == [v % modulus for v in exact]


FOLD_CASES = [(2, 1, cv.LEVEL1), (2, 3, cv.LEVEL1), (3, 2, cv.LEVEL1),
              (3, 1, cv.GAMMA1_4), (5, 1, cv.GAMMA0_2)]


def test_fold_matches_fraction_oracle():
    for p, a, H in FOLD_CASES:
        F = fq_construct(p, a)
        data = et.mass_data(F, H)
        D = math.lcm(*(m.denominator for _, m in data))
        # 25 and the largest modulus whose scaled fold still runs on int64
        moduli = (25, (2**31 - 1) // D)
        for max_k in (0, 1, 40):
            exact = oracles.fraction_fold(data, F.q, max_k)
            assert et.interior_sequence(F, H, max_k) == exact, (F.q, H.name, max_k)
            for modulus in moduli:
                reduced = et.interior_sequence_mod(F, H, max_k, modulus)
                assert reduced == [v % modulus for v in exact], (F.q, H.name, modulus)
            powers = oracles.fraction_fold(data, 0, max_k)
            assert list(et._compute_moments(F, H, max_k, "auto")) == powers


def test_fold_large_modulus_matches_oracle():
    # 7^12 times the lcm of the mass denominators is past 2^31: Python ints
    F = fq_construct(65543, 1)
    exact = oracles.fraction_fold(et.mass_data(F, cv.LEVEL1), F.q, 200)
    modulus = 7 ** 12
    assert et.interior_sequence_mod(F, cv.LEVEL1, 200, modulus) == [v % modulus for v in exact]


_NON_INTEGRAL_FOLD = """
from fractions import Fraction
from hecketrace import elltrace as et

for modulus in (None, 25):
    try:
        et._fold([(1, Fraction(1, 2))], 0, 3, modulus)
    except ArithmeticError as exc:
        print(exc)
    else:
        raise SystemExit(1)
"""


def test_fold_rejects_non_integral_masses():
    for modulus in (None, 25):
        with pytest.raises(ArithmeticError, match="k=0 is not integral"):
            et._fold([(1, Fraction(1, 2))], 0, 3, modulus)
    # the check is not an assert: it still runs under python -O
    src = os.path.dirname(os.path.dirname(et.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _NON_INTEGRAL_FOLD],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count("k=0 is not integral") == 2


def test_trace_matches_tau_oracle():
    for p in (2, 3, 5, 7, 11, 13):
        F = fq_construct(p, 1)
        assert et.trace(F, cv.LEVEL1, 10).value == TAU[p], p
    # q = 4: the two Frobenius eigenvalues of weight 12 give tau(2)^2 - 2*2^11
    F4 = fq_construct(2, 2)
    assert et.trace(F4, cv.LEVEL1, 10).value == TAU[2] ** 2 - 2 * 2 ** 11 == -3520


def test_trace_low_weights_vanish():
    for q in (2, 3, 4, 5, 7, 9):
        pp = prime_power_decompose(q)
        F = fq_construct(pp.p, pp.a)
        for k in range(0, 9):
            res = et.trace(F, cv.LEVEL1, k)
            assert res.value == 0, (q, k)
            assert res.weight == k + 2 and not res.interior_only


def test_trace_without_known_eis_returns_interior():
    F3 = fq_construct(3, 1)
    res = et.trace(F3, cv.GAMMA1_4, 4)
    assert res.interior_only
    assert res.value == et.trace_interior(F3, cv.GAMMA1_4, 4)


def test_mass_routes_consistent_through_mass_data():
    F7 = fq_construct(7, 1)
    a = sorted(oracles.family_route_masses(F7, cv.LEVEL1))
    b = sorted(et.mass_data(F7, cv.LEVEL1, route="jline"))
    c = sorted(oracles.class_route_masses(F7, cv.LEVEL1))
    assert a == b == c == et.mass_data(F7, cv.LEVEL1)
    with pytest.raises(ValueError):
        et.mass_data(F7, cv.GAMMA0_2, route="jline")
    for retired in ("family", "class"):
        with pytest.raises(ValueError):
            et.mass_data(F7, cv.LEVEL1, route=retired)


def test_split_trace_pinned_example():
    # q=2, weight 12, ell=5: non-unit and unit parts rejoin the interior sum
    F2 = fq_construct(2, 1)
    st = et.split_trace(F2, cv.LEVEL1, 10, 5, 1)
    assert (st.n_part + st.u_part) % 5 == 3
    assert st.trace_mod == TAU[2] % 5 == 1


def test_split_trace_rejoins_interior():
    cases = [(7, cv.LEVEL1, 11, 1), (7, cv.LEVEL1, 11, 2), (2, cv.LEVEL1, 5, 2),
             (2, cv.LEVEL1, 3, 1), (3, cv.GAMMA1_4, 2, 2), (3, cv.GAMMA1_4, 5, 1),
             (5, cv.GAMMA1_4, 13, 1)]
    for q, H, ell, s in cases:
        pp = prime_power_decompose(q)
        F = fq_construct(pp.p, pp.a)
        mod = ell ** s
        interior = et.interior_sequence_mod(F, H, 16, mod)
        for k in range(s - 1, 17):
            st = et.split_trace(F, H, k, ell, s)
            assert (st.n_part + st.u_part) % mod == interior[k], (q, H.name, ell, s, k)
            e = et.eis_for(H).value(k)
            if e is None:
                assert st.trace_mod is None
            else:
                full = et.trace(F, H, k).value
                assert st.trace_mod == full % mod


def test_split_trace_guards():
    F2 = fq_construct(2, 1)
    # an even collapsed denominator appears at q=2, a 3-divisible one at q=3
    with pytest.raises(ValueError):
        et.split_trace(F2, cv.LEVEL1, 10, 2, 1)
    with pytest.raises(ValueError):
        et.split_trace(fq_construct(3, 1), cv.LEVEL1, 10, 3, 1)
    with pytest.raises(ValueError):
        et.split_trace(F2, cv.LEVEL1, 0, 5, 2)  # k < s - 1
    with pytest.raises(ValueError):
        et.split_trace(F2, cv.LEVEL1, 10, 5, 0)


def test_moment_recurrence_against_direct_moments():
    F2 = fq_construct(2, 1)
    table = et.moments(F2, cv.LEVEL1, 40)
    t, vals = et.moment_recurrence(table, 5, 5, 40)
    assert t == 1
    assert vals == [m % 5 for m in table.moments]
    t, vals = et.moment_recurrence(table, 2, 2, 40)
    assert t == 1
    assert vals == [m % 2 for m in table.moments]
    t, _ = et.moment_recurrence(table, 3, 9, 12)
    assert t == 4  # v_3(9!) = 4


def test_moment_recurrence_needs_seeds():
    F2 = fq_construct(2, 1)
    full = et.moments(F2, cv.LEVEL1, 8)
    table = et.MomentTable(F2, cv.LEVEL1, 4, full.moments[:5])
    with pytest.raises(ValueError):
        et.moment_recurrence(table, 5, 5, 20)
    with pytest.raises(ValueError):
        et.moment_recurrence(table, 5, 0, 20)


KRONECKER_VALUES = {
    -3: Fraction(1, 3), -4: Fraction(1, 2), -8: 1, -11: 1, -12: Fraction(4, 3),
    -15: 2, -16: Fraction(3, 2), -19: 1, -20: 2, -23: 3, -28: 2,
}


def test_kronecker_class_numbers():
    for disc, expected in KRONECKER_VALUES.items():
        assert et.kronecker_H(disc) == expected, disc
    with pytest.raises(ValueError):
        et.kronecker_H(4)
    with pytest.raises(ValueError):
        et.kronecker_H(-5)


def test_class_number_identity():
    # mass of the ell=11 non-unit locus over F_p against reduced form counts
    for p in (5, 7, 11, 13, 31, 101, 199):
        lhs, rhs = et.class_number_identity_sides(p, 11)
        assert lhs == rhs, p
        # lhs comes from class numbers; the j-line counts points instead
        assert et.nonunit_mass(fq_construct(p, 1), 11, route="jline") == rhs, p
    assert et.class_number_identity_sides(31, 11)[0] == Fraction(10, 3)
    with pytest.raises(ValueError):
        et.class_number_identity_sides(4, 11)


def test_nonunit_counts():
    F5 = fq_construct(5, 1)
    # a1 = 0 mod 11 forces a1 = 0 by Hasse: the two sextic twists at j = 0
    assert et.nonunit_mass(F5, 11) == 1
    assert oracles.nonunit_class_count(F5, 11) == 2


def test_moment_cache_roundtrip(tmp_path, monkeypatch):
    F5 = fq_construct(5, 1)
    cache = str(tmp_path)
    et._MOMENT_CACHE.clear()
    table = et.moments(F5, cv.LEVEL1, 12, cache_dir=cache)
    path = et._cache_path(cache, F5, cv.LEVEL1)
    assert json.load(open(path))["maxK"] == 12

    # a fresh process must be served from disk without recomputing
    et._MOMENT_CACHE.clear()

    def boom(*a, **k):
        raise AssertionError("cache miss")

    monkeypatch.setattr(et, "_compute_moments", boom)
    again = et.moments(F5, cv.LEVEL1, 12, cache_dir=cache)
    assert again.moments == table.moments
    monkeypatch.undo()

    # asking beyond the stored range recomputes and rewrites
    et._MOMENT_CACHE.clear()
    bigger = et.moments(F5, cv.LEVEL1, 20, cache_dir=cache)
    assert bigger.max_k == 20
    assert json.load(open(path))["maxK"] == 20
    assert bigger.moments[: 13] == table.moments


def test_moment_cache_rejects_foreign_payload(tmp_path):
    F5 = fq_construct(5, 1)
    cache = str(tmp_path)
    et._MOMENT_CACHE.clear()
    good = et.moments(F5, cv.LEVEL1, 20, cache_dir=cache)
    path = et._cache_path(cache, F5, cv.LEVEL1)
    doc = json.load(open(path))
    assert good.moments[2] == 24  # q^2 - 1
    bad_docs = [
        {**doc, "p": 7},
        {**doc, "maxK": 50, "moments": doc["moments"][:5]},
        {k: v for k, v in doc.items() if k != "moments"},
        {k: v for k, v in doc.items() if k != "maxK"},
        {**doc, "maxK": "20"},
    ] + [{**doc, "moments": doc["moments"][:3] + [e] + doc["moments"][4:]}
         for e in ("x", 5, "1.5", None)]
    for payload in [json.dumps(d) for d in bad_docs] + ["not json", json.dumps([doc])]:
        open(path, "w").write(payload)
        et._MOMENT_CACHE.clear()
        table = et.moments(F5, cv.LEVEL1, 20, cache_dir=cache)
        assert table.moments == good.moments, payload  # recomputed
        assert json.load(open(path)) == doc  # and rewritten
    with pytest.raises(ValueError):
        et.moments(F5, cv.LEVEL1, -1)


def test_moment_cache_past_the_digit_limit(tmp_path):
    # [a1^7500] over F_5 has about 4520 digits (|a1| <= 4), past the default limit
    # of 4300 on int <-> str conversions: written and read back exactly
    F5 = fq_construct(5, 1)
    cache = str(tmp_path)
    et._MOMENT_CACHE.clear()
    table = et.moments(F5, cv.LEVEL1, 7500, cache_dir=cache)
    with et.unlimited_int_digits():
        assert len(str(table.moments[7500])) > 4300
    et._MOMENT_CACHE.clear()
    assert et._load_table(et._cache_path(cache, F5, cv.LEVEL1), F5, cv.LEVEL1) == table


def test_moment_cache_rejects_overlong_entry(tmp_path, monkeypatch):
    F5 = fq_construct(5, 1)
    cache = str(tmp_path)
    et._MOMENT_CACHE.clear()
    good = et.moments(F5, cv.LEVEL1, 20, cache_dir=cache)
    path = et._cache_path(cache, F5, cv.LEVEL1)
    doc = json.load(open(path))
    # one digit past the Hasse bound q (4q)^(k/2) at k = 3: rejected unparsed
    doc["moments"][3] = "1" * (et._max_moment_digits(5, 3) + 1)
    open(path, "w").write(json.dumps(doc))
    et._MOMENT_CACHE.clear()
    parsed = []
    real_int = int

    def spy(text, *a):
        parsed.append(text)
        return real_int(text, *a)

    monkeypatch.setattr(et, "int", spy, raising=False)
    assert et._load_table(path, F5, cv.LEVEL1) is None
    assert parsed == []  # nothing was parsed
    monkeypatch.undo()
    table = et.moments(F5, cv.LEVEL1, 20, cache_dir=cache)
    assert table.moments == good.moments  # a miss: recomputed
    assert json.load(open(path))["moments"][3] == str(good.moments[3])  # and rewritten
