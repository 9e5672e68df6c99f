"""Tests for moments, interior sums, traces, the unit split and class masses."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hecketrace import congruences as cg
from hecketrace import curves as cv
from hecketrace import elltrace as et
from hecketrace.ffield import InvariantError, fq_construct, prime_power_decompose

TAU = oracles.delta_coefficients(15)


def test_moment_examples():
    assert et.moments(fq_construct(2, 1), cv.LEVEL1, 0)[0] == 2
    assert et.moments(fq_construct(3, 1), cv.LEVEL1, 2)[2] == 8
    assert et.moments(fq_construct(5, 1), cv.LEVEL1, 4)[4] == 234


def test_moments_reject_bad_level():
    with pytest.raises(ValueError):
        et.moments(fq_construct(2, 1), cv.GAMMA1_4, 2)


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
        # 25, and a modulus near 2^31 / D, which puts M just under the int64 bound
        moduli = (25, (2**31 - 1) // D)
        for max_k in (0, 1, 40):
            exact = oracles.fraction_fold(data, F.q, max_k)
            assert et.interior_sequence(F, H, max_k) == exact, (F.q, H.name, max_k)
            for modulus in moduli:
                reduced = et.interior_sequence_mod(F, H, max_k, modulus)
                assert reduced == [v % modulus for v in exact], (F.q, H.name, modulus)
            powers = oracles.fraction_fold(data, 0, max_k)
            assert list(et.moments(F, H, max_k).moments[: max_k + 1]) == powers
        # the single-k doubling at every k <= 40; the gamma levels carry odd weights
        assert [et.trace_interior(F, H, k) for k in range(41)] == exact, (F.q, H.name)


def test_fold_large_modulus_matches_oracle():
    # 7^12 times the lcm of the mass denominators is past 2^31: Python ints
    F = fq_construct(65543, 1)
    exact = oracles.fraction_fold(et.mass_data(F, cv.LEVEL1), F.q, 200)
    modulus = 7 ** 12
    assert et.interior_sequence_mod(F, cv.LEVEL1, 200, modulus) == [v % modulus for v in exact]


def _period_primes():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hecketrace_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.PERIOD_PRIMES


def test_blocked_fold_matches_stepwise_at_the_period_primes():
    # the benchmark's verify-period fold, k <= k0 + 3n = 3529 mod 7^2, over
    # 98 (D = 2) or 294 (D = 6) collapsed rows instead of 513
    for q in _period_primes():
        F = fq_construct(q, 1)
        data = et.mass_data(F, cv.LEVEL1)
        D = math.lcm(*(m.denominator for _, m in data))
        assert len(et._paired(data, 49)[2]) == 49 * D, q
        assert et.interior_sequence_mod(F, cv.LEVEL1, 3529, 49) == \
            oracles.fold_stepwise(data, q, 3529, 49), q


def test_blocked_fold_matches_oracles_at_levels_2_and_4():
    # gamma1-4 carries odd weights at q = 1 mod 4; gamma0-2 has none
    B = et._FOLD_BLOCK
    for q, H in ((31, cv.GAMMA0_2), (101, cv.GAMMA0_2), (13, cv.GAMMA1_4), (101, cv.GAMMA1_4)):
        F = fq_construct(q, 1)
        data = et.mass_data(F, H)
        assert (et._paired(data, 25)[4] is not None) == (H is cv.GAMMA1_4), (q, H.name)
        exact = oracles.fraction_fold(data, q, 3 * B + 5)
        for max_k in (0, 1, B - 1, B, B + 1, 3 * B + 5):
            for modulus in (4, 9, 25, 7**5):
                want = [int(v) % modulus for v in exact[: max_k + 1]]
                assert et._fold(data, q, max_k, modulus) == want, (q, H.name, max_k, modulus)
                assert oracles.fold_stepwise(data, q, max_k, modulus) == want


# the largest M with 2 (M - 1)^2 < 2^63, the int64 bound of `_fold_blocks`
_INT64_EDGE = 2**31


@pytest.mark.parametrize("n_rows", [1, 2, 5])
def test_fold_int64_bound_picks_the_dtype(monkeypatch, n_rows):
    # integral masses (D = 1) make M the modulus itself; classes, weights and
    # q near M put every product of the blocked kernel next to its bound; at
    # M = 2^31 each int64 product takes one row per chunk
    edge = _INT64_EDGE
    data = [(edge - 1 - 2 * i, Fraction(edge - 7 - i)) for i in range(n_rows)]
    q = edge - 3
    dtypes = []
    real = et._fold_blocks
    monkeypatch.setattr(et, "_fold_blocks", lambda *a: dtypes.append(a[0].dtype) or real(*a))
    max_k = 2 * et._FOLD_BLOCK + 3
    exact = oracles.fraction_fold(data, q, max_k)
    for modulus, dtype in ((edge, np.int64), (edge + 1, object)):
        assert len(et._paired(data, modulus)[2]) == n_rows
        want = [int(v) % modulus for v in exact]
        assert et._fold(data, q, max_k, modulus) == want, modulus
        assert oracles.fold_stepwise(data, q, max_k, modulus) == want
        assert dtypes == [dtype], modulus
        dtypes.clear()


def test_int64_fold_sums_many_rows_in_chunks():
    # 600 rows at M = 7^10 > 2^28: one int64 product sums the terms of at
    # most 2^63 / (2 M^2) < 600 rows, so `@` takes them in chunks of 57, the
    # last one padded
    modulus = 7**10
    data = [(modulus - 3 * i - 1, Fraction(modulus - 5 * i - 2)) for i in range(600)]
    q = modulus - 11
    assert et._paired(data, modulus)[2].dtype == np.int64
    max_k = et._FOLD_BLOCK + 7
    assert et._fold(data, q, max_k, modulus) == oracles.fold_stepwise(data, q, max_k, modulus)


def _fold_lines(data, q, max_k, modulus) -> int:
    """Line events `_fold_blocks` runs for one fold."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code is not et._fold_blocks.__code__:
            return None
        if event == "line":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        et._fold(data, q, max_k, modulus)
    finally:
        sys.settrace(None)
    return count


def test_blocked_fold_loops_per_block_not_per_k():
    # O(B + max_k / B) Python steps: 100 more blocks cost a few lines each,
    # where one step per k would cost several lines per weight
    B = et._FOLD_BLOCK
    data = [(3, Fraction(1)), (-5, Fraction(2)), (8, Fraction(1))]
    short, long_ = (_fold_lines(data, 13, n * B - 1, 49) for n in (100, 200))
    assert long_ - short <= 4 * 100, (short, long_)
    assert short <= 4 * B + 4 * 100, short


# (a1, n, d) triples; a1 = 0, repeated a1 and masses of a1 != mass of -a1 all occur
_TRIPLES = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6])),
    min_size=1, max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(triples=_TRIPLES, whole=st.booleans(), q=st.sampled_from([0, 2, 9, 25]),
       modulus=st.sampled_from([None, 7, 2**40]))
def test_folds_match_fraction_oracle_on_random_pairs(triples, whole, q, modulus):
    # whole: each (a1, n/d) is listed d times, so that every sum is integral
    pairs = [(a1, Fraction(n, d)) for a1, n, d in triples for _ in range(d if whole else 1)]
    max_k = 20
    exact = oracles.fraction_fold(pairs, q, max_k)
    bad = [k for k, v in enumerate(exact) if v.denominator != 1]
    if bad:
        with pytest.raises(InvariantError, match=f"k={bad[0]} is not integral"):
            et._fold(pairs, q, max_k, modulus)
    else:
        want = [int(v) if modulus is None else int(v) % modulus for v in exact]
        assert et._fold(pairs, q, max_k, modulus) == want
    for k, v in enumerate(exact):
        if v.denominator != 1:
            with pytest.raises(InvariantError, match=f"k={k} is not integral"):
                et._fold_at(pairs, q, k)
        else:
            assert et._fold_at(pairs, q, k) == v, k


_NON_INTEGRAL_FOLD = """
import math
from fractions import Fraction
from hecketrace import elltrace as et

for modulus in (None, 25):
    try:
        et._fold([(1, Fraction(1, 2))], 0, 3, modulus)
    except ArithmeticError as exc:
        print(exc)
    else:
        raise SystemExit(1)
# the late masses of the test below: first non-integral at k = 66
late = [(i, Fraction((-1) ** i * math.comb(66, i), 101)) for i in range(67)]
for modulus in (None, 25, 2**40):
    try:
        et._fold(late, 7, 70, modulus)
    except ArithmeticError as exc:
        print(exc)
    else:
        raise SystemExit(1)
"""


def test_fold_rejects_non_integral_masses():
    for modulus in (None, 25):
        with pytest.raises(InvariantError, match="k=0 is not integral"):
            et._fold([(1, Fraction(1, 2))], 0, 3, modulus)
    # masses (-1)^i binom(66, i)/101 at a1 = i <= 66: the 66th difference of
    # the monic c_k(a1) of degree k is 0 for k < 66 and +-66! at k = 66, which
    # 101 does not divide; k = 66 lies in the second block of the modular fold
    late = [(i, Fraction((-1) ** i * math.comb(66, i), 101)) for i in range(67)]
    exact = oracles.fraction_fold(late, 7, 70)
    assert [k for k, v in enumerate(exact) if v.denominator != 1][0] == 66 > et._FOLD_BLOCK
    for modulus in (None, 25, 2**40):
        for fold in (et._fold, oracles.fold_stepwise):
            with pytest.raises(ArithmeticError, match="k=66 is not integral"):
                fold(late, 7, 70, modulus)
        assert et._fold(late, 7, 65, modulus) == [
            int(v) if modulus is None else int(v) % modulus for v in exact[:66]]
    # the check is not an assert: it still runs under python -O
    src = os.path.dirname(os.path.dirname(et.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _NON_INTEGRAL_FOLD],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count("k=0 is not integral") == 2
    assert res.stdout.count("k=66 is not integral") == 3


_NON_INTEGRAL_SINGLE_K = """
from fractions import Fraction
from hecketrace import curves as cv
from hecketrace import elltrace as et
from hecketrace.ffield import fq_construct

et.mass_data = lambda field, H: [(1, Fraction(1, 2)), (-2, Fraction(1, 3))]
for k in (0, 3, 998):
    try:
        et.trace_interior(fq_construct(5, 1), cv.LEVEL1, k)
    except ArithmeticError as exc:
        print(exc)
    else:
        raise SystemExit(1)
"""


def test_single_k_rejects_non_integral_masses(monkeypatch):
    # an injected mass list whose fold at these k is not integral: 6 does not
    # divide the scaled sums 5, -3 and (at k = 998) the doubling's result
    data = [(1, Fraction(1, 2)), (-2, Fraction(1, 3))]
    monkeypatch.setattr(et, "mass_data", lambda field, H: data)
    for k in (0, 3, 998):
        with pytest.raises(InvariantError, match=f"k={k} is not integral"):
            et.trace_interior(fq_construct(5, 1), cv.LEVEL1, k)
    # the check is not an assert: it still runs under python -O
    src = os.path.dirname(os.path.dirname(et.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _NON_INTEGRAL_SINGLE_K],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert [line.split(" is ")[0] for line in res.stdout.splitlines()] == [
        "the mass fold at k=0", "the mass fold at k=3", "the mass fold at k=998"]


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
    b = sorted(cv.jline_route_masses(F7))
    c = sorted(oracles.class_route_masses(F7, cv.LEVEL1))
    assert a == b == c == et.mass_data(F7, cv.LEVEL1)


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


def _split_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_split_trace_matches_class_oracle():
    # c_k on the paired rows against the lemma's two polynomials per class,
    # every level, and the same ValueError message wherever the oracle raises
    grid = [(cv.LEVEL1, (4, 7, 13), (2, 3, 5, 7)), (cv.GAMMA0_2, (7, 9), (2, 3, 5)),
            (cv.GAMMA1_4, (5, 9, 13), (2, 3, 5))]
    errors = set()
    for H, qs, ells in grid:
        for q in qs:
            pp = prime_power_decompose(q)
            F = fq_construct(pp.p, pp.a)
            for ell in ells:
                for s in (1, 2, 3):
                    for k in sorted({s - 1, s, 10, 11, 30, 31}):
                        st = _split_or_error(et.split_trace, F, H, k, ell, s)
                        want = _split_or_error(oracles.ell_split_parts, F, H, k, ell, s)
                        got = st if isinstance(st, str) else (st.n_part, st.u_part)
                        assert got == want, (q, H.name, k, ell, s)
                        if isinstance(want, str):
                            errors.add((H.name, q, ell))
    # level-1 masses carry 2 and 3 in their denominators, gamma0-2 over F_9
    # carries 4 and gamma1-4 is representable
    assert errors == {("1", q, ell) for q in (4, 7, 13) for ell in (2, 3)} | {("gamma0-2", 9, 2)}
    F7 = fq_construct(7, 1)
    for k, ell, s in ((10, 4, 1), (10, 5, 0), (0, 5, 2)):
        assert (_split_or_error(et.split_trace, F7, cv.LEVEL1, k, ell, s)
                == _split_or_error(oracles.ell_split_parts, F7, cv.LEVEL1, k, ell, s))


@pytest.mark.parametrize("q, k, ell, s", [(13, 198, 5, 7), (13, 1998, 5, 1000)])
def test_split_trace_rejoins_far_s(q, k, ell, s):
    # large s: the rows of `_paired` mod 5^7 * D are int64, and mod
    # 5^1000 * D they are Python ints
    F = fq_construct(q, 1)
    st = et.split_trace(F, cv.LEVEL1, k, ell, s)
    interior = et.interior_sequence_mod(F, cv.LEVEL1, k, ell**s)
    assert (st.n_part + st.u_part) % ell**s == interior[k]


@pytest.mark.parametrize("q, ell, s, H, n", [
    (13, 5, 3, cv.LEVEL1, 600), (10007, 7, 2, cv.LEVEL1, 1176),
    (13, 5, 2, cv.GAMMA1_4, 120), (31, 5, 2, cv.GAMMA0_2, 300),
])
def test_split_parts_are_periodic_at_far_weights(q, ell, s, H, n):
    # the paper's theorem for each part, at weights near 10^6
    F = fq_construct(q, 1)
    assert cg.period_for(ell, s, q, representable=H.representable).n == n
    for k in (999998, 999999, 10**6 + 3):
        parts = {et.split_trace(F, H, k + t * n, ell, s)[3:] for t in (0, 1, 1000)}
        assert len(parts) == 1, (q, H.name, k, parts)


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


# the factorial-product moment recurrence: prod_{j=1}^i (a_1 - j) is divisible
# by i!, so the moments satisfy a length-i recurrence mod ell^{v_ell(i!)}


def _consecutive_product_coeffs(i):
    """Coefficients c_{i,j} with prod_{j=1}^i (x - j) = x^i + sum c_{i,j} x^{i-j}."""
    poly = [1]
    for j in range(1, i + 1):
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] += c
            nxt[d] += -j * c
        poly = nxt
    # poly is ascending; return c_{i,1..i} (descending below the lead)
    return [poly[i - j] for j in range(1, i + 1)]


def moment_recurrence(table, ell, i, upto):
    """Extend moments mod ell^{t_i}, t_i = v_ell(i!), by the length-i recurrence
    [a_1^k] = -sum_j c_{i,j} [a_1^{k-j}]. Returns (t_i, values for k <= upto)."""
    if i < 1:
        raise ValueError("i must be >= 1")
    if table.max_k < i:
        raise ValueError(
            f"insufficient seed moments: need [a_1^k] up to k = {i}, have {table.max_k}"
        )
    t = 0
    fact = math.factorial(i)
    while fact % ell == 0:
        fact //= ell
        t += 1
    mod = ell ** t
    cs = _consecutive_product_coeffs(i)
    vals = [m % mod for m in table.moments[: min(upto, table.max_k) + 1]]
    for k in range(len(vals), upto + 1):
        nxt = -sum(c * vals[k - j] for j, c in enumerate(cs, start=1)) % mod
        vals.append(nxt)
    return t, vals[: upto + 1]


def test_moment_recurrence_against_direct_moments():
    F2 = fq_construct(2, 1)
    table = et.moments(F2, cv.LEVEL1, 40)
    t, vals = moment_recurrence(table, 5, 5, 40)
    assert t == 1
    assert vals == [m % 5 for m in table.moments]
    t, vals = moment_recurrence(table, 2, 2, 40)
    assert t == 1
    assert vals == [m % 2 for m in table.moments]
    t, _ = moment_recurrence(table, 3, 9, 12)
    assert t == 4  # v_3(9!) = 4


def test_moment_recurrence_needs_seeds():
    F2 = fq_construct(2, 1)
    full = et.moments(F2, cv.LEVEL1, 8)
    table = et.MomentTable(F2, cv.LEVEL1, 4, full.moments[:5])
    with pytest.raises(ValueError):
        moment_recurrence(table, 5, 5, 20)
    with pytest.raises(ValueError):
        moment_recurrence(table, 5, 0, 20)


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


def _identity_discriminants(p, ell=11):
    return [-4 * p] + [(ell * i) ** 2 - 4 * p for i in range(1, math.isqrt(4 * p) // ell + 1)
                       if (ell * i) ** 2 < 4 * p]


def test_kronecker_H_matches_rectangle_oracle():
    # the discriminants of `ell class-number --p 100043`
    discs = _identity_discriminants(100043)
    assert len(discs) == 58
    for disc in discs:
        assert et.kronecker_H(disc) == oracles.kronecker_H_rectangle(disc), disc


def test_kronecker_H_chunks_do_not_change_values(monkeypatch):
    discs = [-3, -4, -7, -48, -300, -1200, -4 * 1009] + _identity_discriminants(1009)
    want = [et.kronecker_H(d) for d in discs]
    for block in (1, 7, 100):
        monkeypatch.setattr(et, "_KH_BLOCK", block)
        assert [et.kronecker_H(d) for d in discs] == want, block


def test_class_number_kernels_keep_a_bounded_peak():
    # every temporary is a block of at most about 2^13 entries: the traced
    # peak stays under 1 MB beyond the output array, whatever the input size
    q = 262133
    cases = [
        (cv.hurwitz6, np.array([4 * q - t * t for t in range(1, 1024)], dtype=np.int64)),
        (cv.hurwitz6, np.arange(1, 200_001, dtype=np.int64)),
        (et.kronecker_H, -4 * 100043),
    ]
    for kernel, arg in cases:
        tracemalloc.start()
        try:
            out = kernel(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - getattr(out, "nbytes", 0) < 1 << 20, (kernel.__name__, peak)


_WRONG_KRONECKER = """
import sys
from hecketrace import cli
from hecketrace import elltrace as et

good = et.kronecker_H
et.kronecker_H = lambda disc: good(disc) + (disc == -4 * 1009)
sys.exit(cli.run(["ell", "class-number", "--p", "1009"]))
"""


def test_class_number_command_fails_on_a_wrong_kronecker_H(monkeypatch, capsys):
    # the identity checks kronecker_H against the hurwitz6 masses: one form
    # too many at the first discriminant turns pass into FAIL and exit 1
    from hecketrace import cli

    assert cli.run(["ell", "class-number", "--p", "1009"]) == 0
    assert capsys.readouterr().out.strip().endswith("pass")
    good = et.kronecker_H
    monkeypatch.setattr(et, "kronecker_H", lambda disc: good(disc) + (disc == -4 * 1009))
    assert cli.run(["ell", "class-number", "--p", "1009"]) == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")
    # no assert decides it: the same holds under python -O
    src = os.path.dirname(os.path.dirname(et.__file__))
    res = subprocess.run([sys.executable, "-O", "-c", _WRONG_KRONECKER],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert res.returncode == 1, res.stdout + res.stderr
    assert res.stdout.strip().endswith("FAIL")


def test_class_number_identity():
    # mass of the ell=11 non-unit locus over F_p against reduced form counts
    for p in (5, 7, 11, 13, 31, 101, 199):
        lhs, rhs = et.class_number_identity_sides(p, 11)
        assert lhs == rhs, p
        # lhs comes from class numbers; the j-line counts points instead
        jline = cv.jline_route_masses(fq_construct(p, 1))
        assert sum(m for a1, m in jline if a1 % 11 == 0) == rhs, p
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
    table = et.moments(F5, cv.LEVEL1, 12, cache_dir=cache)
    path = et._cache_path(cache, F5, cv.LEVEL1)
    assert json.load(open(path))["maxK"] == 12

    # a second call must be served from disk without recomputing

    def boom(*a, **k):
        raise AssertionError("cache miss")

    monkeypatch.setattr(et, "_fold", boom)
    again = et.moments(F5, cv.LEVEL1, 12, cache_dir=cache)
    assert again.moments == table.moments
    monkeypatch.undo()

    # asking beyond the stored range recomputes and rewrites
    bigger = et.moments(F5, cv.LEVEL1, 20, cache_dir=cache)
    assert bigger.max_k == 20
    assert json.load(open(path))["maxK"] == 20
    assert bigger.moments[: 13] == table.moments


def test_moment_cache_rejects_foreign_payload(tmp_path):
    F5 = fq_construct(5, 1)
    cache = str(tmp_path)
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
    table = et.moments(F5, cv.LEVEL1, 7500, cache_dir=cache)
    with et.unlimited_int_digits():
        assert len(str(table.moments[7500])) > 4300
    assert et._load_table(et._cache_path(cache, F5, cv.LEVEL1), F5, cv.LEVEL1) == table


def test_moment_cache_rejects_overlong_entry(tmp_path, monkeypatch):
    F5 = fq_construct(5, 1)
    cache = str(tmp_path)
    good = et.moments(F5, cv.LEVEL1, 20, cache_dir=cache)
    path = et._cache_path(cache, F5, cv.LEVEL1)
    doc = json.load(open(path))
    # one digit past the Hasse bound q (4q)^(k/2) at k = 3: rejected unparsed
    doc["moments"][3] = "1" * (et._max_moment_digits(5, 3) + 1)
    open(path, "w").write(json.dumps(doc))
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
