"""Tests for Drinfeld classes, Frobenius data, traces, periods and exponents."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import drinfeld_arith as da
import oracles
from hecketrace import congruences as cg
from hecketrace import drinfeld as dr
from hecketrace.drinfeld import FqPoly, fq_poly_from_codes
from hecketrace.ffield import BudgetError, InvariantError, fq_construct

F2 = fq_construct(2, 1)
F3 = fq_construct(3, 1)
F4 = fq_construct(2, 2)
F8 = fq_construct(2, 3)
F9 = fq_construct(3, 2)
F5 = fq_construct(5, 1)
F7 = fq_construct(7, 1)


def _poly(field, codes):
    return fq_poly_from_codes(field, codes)


def _params(field, pcodes, n):
    return dr.drinfeld_params(_poly(field, pcodes), n)


def test_params_reduction_and_guards():
    pp = _params(F3, (1, 0, 1), 1)  # P = T^2 + 1
    assert pp.m == 2 and pp.L.q == 9
    assert pp.reduce(pp.P).is_zero()
    assert pp.reduce(_poly(F3, (2,))) == pp.L.coerce(2)
    assert pp.wp == pp.P
    assert _params(F3, (0, 1), 3).wp == _poly(F3, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        _params(F3, (0, 2), 1)  # not monic
    with pytest.raises(ValueError):
        _params(F3, (2, 0, 1), 1)  # T^2 + 2 = (T+1)(T+2)
    with pytest.raises(ValueError):
        _params(F3, (0, 1), 0)
    with pytest.raises(BudgetError):
        dr.drinfeld_params(_poly(F3, (0, 1)), 8, max_field_size=100)
    # the budget is checked before Rabin's test, which alone would take
    # about half a minute on this reducible P of degree 120
    with pytest.raises(BudgetError):
        dr.drinfeld_params(_poly(F5, (2, 1) + (0,) * 118 + (1,)), 1)


def test_phi_is_a_ring_map():
    rng = random.Random(5)
    pp = _params(F3, (0, 1), 2)
    els = list(oracles.elements(pp.L))
    for _ in range(5):
        g = rng.choice(els)
        delta = rng.choice(els[1:])
        f1 = _poly(F3, tuple(rng.randrange(3) for _ in range(4)))
        f2 = _poly(F3, tuple(rng.randrange(3) for _ in range(3)))
        phi = lambda f: da.drinfeld_phi(pp, g, delta, f)
        assert phi(f1 + f2) == phi(f1) + phi(f2)
        assert phi(f1 * f2) == phi(f1) * phi(f2)
        if not f1.is_zero():
            assert phi(f1).degree == 2 * f1.degree
            assert phi(f1).coeffs[0] == pp.reduce(f1)


# (g, delta, autOrder, orbitSize, a codes, b code) for the two smallest fields
CLASSES_Q2_T = (
    (0, 1, 1, 1, (), 1),
    (1, 1, 1, 1, (1,), 1),
)
CLASSES_Q3_T = (
    (0, 1, 2, 1, (), 2),
    (0, 2, 2, 1, (), 1),
    (1, 1, 2, 1, (2,), 2),
    (1, 2, 2, 1, (1,), 1),
    (2, 1, 2, 1, (1,), 2),
    (2, 2, 2, 1, (2,), 1),
)


def _rows(classes):
    # DrinfeldClass records as (g, delta, autOrder, orbitSize, a codes, b code)
    return [
        (c.g.code, c.delta.code, c.aut_order, c.orbit_size, c.frob_a.codes(), c.frob_b.code)
        for c in classes
    ]


def test_class_enumeration_smallest_fields():
    for field, frozen in ((F2, CLASSES_Q2_T), (F3, CLASSES_Q3_T)):
        pp = _params(field, (0, 1), 1)
        assert tuple(_rows(da.decode_table(pp, dr.enumerate_classes(pp)))) == frozen


def test_class_tables_are_equal_and_read_only():
    pp = _params(F3, (0, 1), 2)
    table, again = dr.enumerate_classes(pp), dr.enumerate_classes(pp)
    for name in ("g", "delta", "aut", "size", "a", "b"):
        assert np.array_equal(getattr(again, name), getattr(table, name)), name
        assert not getattr(again, name).flags.writeable, name
    assert len(table) == len(table.g) == table.a.shape[0]
    for arr in (table.g, table.delta, table.aut, table.size, table.a, table.b):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 1
    assert table.a.shape[1] == 2 and table.a[:, -1].any()  # 2 deg a <= m = 2, trimmed
    with pytest.raises(AttributeError):
        table.a = table.b
    # tables compare by identity: numpy compares arrays elementwise
    copy = dr.ClassTable(table.g, table.delta, table.aut, table.size, table.a, table.b)
    assert table == table and table != copy and len({table, copy}) == 2


def test_class_partition_and_bounds():
    cases = [(F2, (0, 1), 2), (F2, (1, 1, 1), 1), (F3, (1, 1), 1), (F3, (0, 1), 2)]
    for field, pcodes, n in cases:
        pp = _params(field, pcodes, n)
        t = dr.enumerate_classes(pp)
        qL = pp.L.q
        assert t.size.sum() == qL * (qL - 1)
        assert (t.aut * t.size == qL - 1).all()
        assert (t.aut % pp.p == pp.p - 1).all()
        assert 2 * (t.a.shape[1] - 1) <= pp.m
        assert t.b.all()


# (field, P codes, n) for the differential test against the bitmap
# enumeration: q in {2, 3, 4, 5, 7, 9}, |L| <= 125, m odd and m even (the
# scalar case)
DIFFERENTIAL_GRID = (
    (F2, (0, 1), 1),
    (F2, (1, 1, 1), 2),
    (F2, (1, 1, 0, 1), 1),
    (F2, (1, 0, 1, 1), 2),
    (F3, (1, 1), 1),
    (F3, (2, 1, 1), 1),
    (F3, (0, 1), 3),
    (F3, (1, 0, 1), 2),
    (F4, (1, 1), 1),
    (F4, (2, 1, 1), 1),
    (F4, (3, 0, 0, 1), 1),
    (F5, (0, 1), 1),
    (F5, (2, 0, 1), 1),
    (F5, (1, 1), 3),
    (F7, (1, 1), 1),
    (F7, (0, 1), 2),
    (F9, (0, 1), 1),
    (F9, (1, 1), 2),
)


def test_enumeration_matches_bitmap_oracle():
    # the batched route (orbit invariants and stabilizers, the motive
    # product) against the |L|^2 bitmap walk with a per-class TwistedPoly
    # solve; P = T (gamma = 0) and m odd and even are all on the grid
    for field, pcodes, n in DIFFERENTIAL_GRID:
        pp = _params(field, pcodes, n)
        assert pp.L.q <= 125
        got = _rows(da.decode_table(pp, dr.enumerate_classes(pp)))
        assert got == _rows(oracles.enumerate_classes(pp)), (field.q, pcodes, n)


def test_motive_matches_scalar_solve_at_m4():
    # m = 4 and |L| = 625, past the bitmap grid: 40 seeded classes of each
    # case against the per-class TwistedPoly solve; P = T has gamma = 0
    rng = random.Random(18)
    for pcodes, n in (((2, 0, 1), 2), ((0, 1), 4)):
        pp = _params(F5, pcodes, n)
        assert pp.m == 4 and pp.L.q == 625
        table = dr.enumerate_classes(pp)
        for i in rng.sample(range(len(table)), 40):
            g, delta = pp.L.decode(int(table.g[i])), pp.L.decode(int(table.delta[i]))
            a, b = da.frobenius_poly((g, delta), pp)
            assert _poly(F5, table.a[i].tolist()) == a, (pcodes, n, i)
            assert F5.decode(int(table.b[i])) == b, (pcodes, n, i)


def test_code_array_phi_matches_scalar_phi():
    rng = random.Random(11)
    for field, pcodes, n in ((F3, (0, 1), 2), (F4, (1, 1), 2), (F9, (0, 1), 1)):
        pp = _params(field, pcodes, n)
        for _ in range(4):
            g, delta = rng.randrange(pp.L.q), rng.randrange(1, pp.L.q)
            f = _poly(field, tuple(rng.randrange(field.q) for _ in range(3)) + (1,))
            got = dr._phi(pp, dr._phi_t(pp, np.array([g]), np.array([delta])), np.array(f.codes()))
            want = da.drinfeld_phi(pp, pp.L.decode(g), pp.L.decode(delta), f)
            assert got[0].tolist() == [c.code for c in want.coeffs]


def test_enumeration_in_blocks_matches_one_block(monkeypatch):
    # the Frobenius data in blocks of a few classes, against one block
    for field, pcodes, n in ((F3, (0, 1), 2), (F4, (1, 1), 2)):
        pp = _params(field, pcodes, n)
        tables = []
        for block in (1 << 30, 7):
            monkeypatch.setattr(dr, "_FROBENIUS_BLOCK", block)
            tables.append(dr.enumerate_classes(pp))
        whole, blocks = tables
        assert len(whole) > 3 * 7
        for name in ("g", "delta", "aut", "size", "a", "b"):
            assert np.array_equal(getattr(blocks, name), getattr(whole, name)), name


# Failure injection: each fault breaks one check of the enumeration, which
# must raise InvariantError with its own message (also under python -O).
# A fault is (patch, match); patch(dr, install) installs it on module dr
# through install(attribute name, value). The faults run at FAULT_CASE,
# where L = F_9 is larger than F_q = F_3 (m = 2), so that a trace
# coefficient can fall outside F_q.

FAULT_CASE = (F3, (1, 0, 1), 1)


def _orbit_fault(change):
    def patch(dr, install):
        good = dr._twist_orbits
        install("_twist_orbits", lambda L, q: change(L, *good(L, q)))

    return patch


def _solve_fault(change):
    def patch(dr, install):
        good = dr._motive_frobenius
        install("_motive_frobenius", lambda params, g, delta: change(params, *good(params, g, delta)))

    return patch


def _first_aut_one(L, g, delta, aut, size):
    # autOrder 1 with orbit size |L| - 1 keeps the orbit-stabilizer identity
    aut, size = aut.copy(), size.copy()
    aut[0], size[0] = 1, L.q - 1
    return g, delta, aut, size


def _linear_twist(dr, install):
    # A^(i) = A drops the semilinearity: tau^2 then acts by A^2, whose trace
    # (g/delta)^2 + 2(T - gamma)/delta leaves F_3[T] already at (g, delta) =
    # (0, 1), as gamma, a root of T^2 + 1, is not in F_3. The twist also
    # serves phi, but phi_wp is not checked before the trace is
    install("_frobenius_twist", lambda L, x, e: x)


def _wide_a(params, a, b):
    wide = np.zeros((len(a), params.m + 1), dtype=np.int64)
    wide[:, : a.shape[1]] = a
    wide[:, params.m] = 1
    return wide, b


def _shifted_a(params, a, b):
    a = a.copy()
    a[:, 0] = (a[:, 0] + 1) % params.p
    return a, b


FAULTS = {
    "orbit-size": (_orbit_fault(lambda L, g, d, aut, size: (g, d, aut, 2 * size)), "times orbit size"),
    "partition": (_orbit_fault(lambda L, g, d, aut, size: (g[:-1], d[:-1], aut[:-1], size[:-1])), "orbits cover"),
    "aut-order": (_orbit_fault(_first_aut_one), "is not -1 mod p"),
    "trace-in-F_q": (_linear_twist, "Frobenius trace has a coefficient outside F_q"),
    "b-zero": (_solve_fault(lambda params, a, b: (a, 0 * b)), "returned b = 0"),
    "slope": (_solve_fault(_wide_a), "exceeds m/2"),
    "re-substitution": (_solve_fault(_shifted_a), "re-substitution failed"),
}

_FAULTS_UNDER_O = """
import re, sys
sys.path.insert(0, {tests!r})
import test_drinfeld as t
from hecketrace import congruences as cg
from hecketrace import drinfeld as dr

pp = t._params(*t.FAULT_CASE)
failed = []
for name in {names!r}:
    patch, match = t.FAULTS[name]
    saved = []
    patch(dr, lambda attr, value: (saved.append((attr, getattr(dr, attr))), setattr(dr, attr, value)))
    try:
        dr.enumerate_classes(pp)
        failed.append(name + ": no error")
    except dr.InvariantError as exc:
        print(name, exc)
        if not re.search(match, str(exc)):
            failed.append(name + ": " + str(exc))
    for attr, value in reversed(saved):
        setattr(dr, attr, value)
raise SystemExit("; ".join(failed) if failed else 0)
"""


def _faults_under_python_O(names):
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(dr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = _FAULTS_UNDER_O.format(tests=tests, names=list(names))
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    return res.stdout


def _inject(monkeypatch, name):
    patch, match = FAULTS[name]
    patch(dr, lambda attr, value: monkeypatch.setattr(dr, attr, value))
    return match


def test_enumeration_rejects_a_past_the_slope_bound(monkeypatch):
    # a Frobenius a of degree m breaks 2 deg(a) <= m; the check is not an
    # assert, so it also stops the enumeration under python -O
    pp = _params(F3, (0, 1), 1)
    with pytest.raises(InvariantError, match=_inject(monkeypatch, "slope")):
        dr.enumerate_classes(pp)
    assert "exceeds m/2" in _faults_under_python_O(["slope"])


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_enumeration_rejects_injected_fault(monkeypatch, name):
    pp = _params(*FAULT_CASE)
    with pytest.raises(InvariantError, match=_inject(monkeypatch, name)):
        dr.enumerate_classes(pp)


def test_enumeration_checks_survive_python_O():
    out = _faults_under_python_O(sorted(FAULTS))
    assert len(out.splitlines()) == len(FAULTS)


def test_kernel_rejects_a_digit_past_its_width(monkeypatch):
    # deg h_k <= floor(k m / 2) holds only under the slope bound; the exact
    # kernel checks it at every k, so a row of degree 1 at m = 1 is refused
    # at h_1, not truncated and not first seen at the last k
    pp = _params(F3, (0, 1), 1)
    table = dr.enumerate_classes(pp)
    a_plus_t = np.zeros((len(table), max(2, table.a.shape[1])), dtype=np.int64)
    a_plus_t[:, : table.a.shape[1]] = table.a
    a_plus_t[:, 1] = (a_plus_t[:, 1] + 1) % pp.p
    wide = dr.ClassTable(table.g, table.delta, table.aut, table.size, a_plus_t, table.b)
    monkeypatch.setattr(dr, "enumerate_classes", lambda params: wide)
    a, _, _ = dr._rows(pp)
    assert (a[:, 1] != 0).any()  # the spill comes from the rows the kernel reads
    with pytest.raises(InvariantError, match=r"^h_1 has a digit past degree 0$"):
        dr.trace_Tpn(pp, 6, 1)


# (field, P, n, long_windows): characteristic 2, the Zech fields F_4 and F_9,
# n = 2, and F_5 at T^2 + 2 with n = 2, where 40 of the 332 exact keys and
# 36 of the 100 keys mod (T + 1)^2 weigh 0 mod p. `long_windows` marks the
# cases where the oracle runs the windows of the slope and infinity checks
# (k past p^{1+st}(q^2-1)) in well under a second
_ROW_GRID = [
    (F2, (1, 1), 2, True),
    (F3, (0, 1), 2, True),
    (F4, (1, 1), 2, True),
    (F9, (0, 1), 1, False),
    (F5, (2, 0, 1), 2, False),
]


def _routes(pp, long_windows):
    """What every Drinfeld route that runs `_h_kernel` returns, for every
    type: exact (the kernel itself, `trace_Tpn` and, with
    long_windows, `verify_infty_period` and `ramanujan_check`) and mod
    (T + 1)^2 and mod P, where wp = 0 (`trace_sequence_mod`)."""
    types, rows = range(1, pp.q), dr._rows(pp)
    polys = lambda kernel: [[_poly(pp.base, t) for t in r.tolist()] for r in kernel]
    out = {
        # the exact kernel trims each h_k and the oracle keeps its final width
        "kernel": polys(dr._h_kernel(pp, rows, 12, types)),
        "trace_Tpn": [dr.trace_Tpn(pp, 9, l) for l in types],
    }
    for lpoly, s in ((_poly(pp.base, (1, 1)), 2), (pp.P, 1)):
        out[lpoly, s] = [dr.trace_sequence_mod(pp, lpoly, s, l, 20).tolist() for l in types]
    if long_windows:
        out["infty"] = [dr.verify_infty_period(pp, 1, l, kmax=3) for l in types]
        out["ramanujan"] = dr.ramanujan_check(pp)
    return out


@pytest.mark.parametrize("field, pcodes, n, long_windows", _ROW_GRID)
def test_rows_match_the_per_class_kernel(monkeypatch, field, pcodes, n, long_windows):
    # the same routes with `_h_kernel` swapped for the oracle's kernel on one
    # row per class, each class weighted 1/autOrder
    pp = _params(field, pcodes, n)
    got = _routes(pp, long_windows)
    monkeypatch.setattr(dr, "_h_kernel", oracles.h_kernel_per_class)
    want = _routes(pp, long_windows)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], key


def test_row_counts_at_F5():
    # the 2520 classes of (F_5, T^2 + 2, n = 2) fall into 332 exact keys
    # (a, b) and 100 keys mod (T + 1)^2; the keys whose count is 0 mod p drop
    pp = _params(F5, (2, 0, 1), 2)
    table = dr.enumerate_classes(pp)
    ring = dr.ResidueRing(F5, (_poly(F5, (1, 1)) ** 2).codes())
    for a, keys, rows in ((table.a, 332, 292), (ring.reduce(table.a), 100, 64)):
        _, counts = np.unique(np.column_stack([a, table.b]), axis=0, return_counts=True)
        assert (len(table), len(counts), int(np.count_nonzero(counts % pp.p))) == (2520, keys, rows)
    for r, rows in ((None, 292), (ring, 64)):
        a, b, scales = dr._rows(pp, r)
        assert len(a) == len(b) == scales.shape[1] == rows
        assert scales[0].all() and (scales[0] < pp.p).all()


def test_frobenius_batch_on_single_modules():
    # (g, delta) = (1, 1) and (0, 1) over F_2 at P = T, one row each
    pp = _params(F2, (0, 1), 1)
    one = np.array([pp.L.one.code])
    a, b = dr._frobenius_batch(pp, one, one)
    assert a.tolist() == [[1]] and b.tolist() == [1]
    a, b = dr._frobenius_batch(pp, np.array([pp.L.zero.code]), one)
    assert not a.any() and b.tolist() == [1]


def test_frobenius_batch_scalar_square_case():
    # gamma(T) = 0 and g = 0 make tau^m itself lie in the image of phi, as
    # phi_c = tau^m; the motive product needs no special case there and
    # gives the characteristic polynomial (X - c)^2, i.e. (2c, c^2/wp)
    pp = _params(F3, (0, 1), 2)
    a, b = dr._frobenius_batch(pp, np.array([pp.L.zero.code]), np.array([pp.L.one.code]))
    assert a.tolist() == [[0, 2]] and b.tolist() == [1]
    t = dr.enumerate_classes(pp)
    assert ((t.g == 0) & (t.a[:, pp.m // 2] != 0)).any()


def test_char_poly_matches_torsion_action():
    # the torsion route never sees the motive product: full agreement on
    # every class, for auxiliary primes of degree 1 and 2
    grid = [
        (F2, (0, 1), 1),
        (F2, (0, 1), 2),
        (F2, (1, 1), 2),
        (F3, (1, 1), 1),
        (F3, (0, 1), 2),
    ]
    for field, pcodes, n in grid:
        pp = _params(field, pcodes, n)
        auxes = [
            _poly(field, (1, 1)) if pcodes == (0, 1) else _poly(field, (0, 1)),
            _poly(field, (1, 1, 1)) if field.p == 2 else _poly(field, (1, 0, 1)),
        ]
        for laux in auxes:
            for cls in da.decode_table(pp, dr.enumerate_classes(pp)):
                tr, nrm = dr.frobenius_mod_torsion(pp, cls.g.code, cls.delta.code, laux)
                assert _poly(field, tr.tolist()) == cls.frob_a % laux, (pcodes, n, laux.codes())
                assert _poly(field, nrm.tolist()) == (pp.wp * cls.frob_b) % laux


def test_torsion_route_guards():
    pp = _params(F3, (0, 1), 1)
    t = dr.enumerate_classes(pp)
    g, delta = int(t.g[0]), int(t.delta[0])
    with pytest.raises(ValueError):
        dr.frobenius_mod_torsion(pp, g, delta, _poly(F3, (0, 1)))  # laux = P
    with pytest.raises(ValueError):
        dr.frobenius_mod_torsion(pp, g, delta, _poly(F3, (2, 0, 1)))  # reducible
    with pytest.raises(ValueError):
        dr.frobenius_mod_torsion(pp, g, delta, _poly(F3, (1, 2)))  # not monic


@pytest.mark.parametrize("rows, status, solution", [
    ([[1, 1, 3], [1, 4, 0]], "unique", [4, 4]),
    ([[0, 1, 2], [1, 0, 3], [1, 1, 0]], "unique", [3, 2]),  # a zero pivot is swapped out
    ([[1, 2, 3], [2, 4, 1]], "many", None),  # row 2 = 2 row 1
    ([[1, 2, 3], [2, 4, 0]], "none", None),  # row 2 = 2 row 1 on the left only
    ([[1, 2, 3]], "many", None),
])
def test_solve_mod_p_reports_each_status(rows, status, solution):
    # the torsion oracle's one-system Gauss-Jordan over F_5
    got, got_status = dr._solve_mod_p(np.array(rows, dtype=np.int64), 5)
    assert got_status == status
    if solution is not None:
        assert got.tolist() == solution


def test_trace_k0_and_weight8_values():
    assert dr.trace_Tpn(_params(F2, (0, 1), 1), 0, 1).is_zero()
    assert dr.trace_Tpn(_params(F3, (1, 1), 1), 0, 1).is_zero()
    # weight 8 (k = 6), type 1: the residue mod T^2 is 1 whatever wp is,
    # as long as T does not divide it
    T2 = _poly(F3, (0, 0, 1))
    for pcodes, n in (((1, 1), 1), ((2, 1), 1), ((1, 1), 2), ((1, 0, 1), 1)):
        pp = _params(F3, pcodes, n)
        assert dr.trace_Tpn(pp, 6, 1) % T2 == _poly(F3, (1,)), (pcodes, n)
    with pytest.raises(ValueError):
        dr.trace_Tpn(_params(F2, (0, 1), 1), -1, 1)


def test_trace_type_invariance_and_dual_route():
    # F_4 and F_9 take the Zech-table path of the kernel
    grid = (
        (F2, (1, 1, 1), 1),
        (F3, (2, 1), 1),
        (F3, (0, 1), 2),
        (F4, (0, 1), 1),
        (F4, (1, 1), 2),
        (F9, (0, 1), 1),
    )
    for field, pcodes, n in grid:
        pp = _params(field, pcodes, n)
        q = pp.q
        oracles.cl_table(pp, 17)  # one table serves every k below
        for k in range(0, 18):
            for l in range(1, q):
                t = dr.trace_Tpn(pp, k, l)
                assert t == dr.trace_Tpn(pp, k, l + (q - 1))
                assert t == oracles.trace_from_cl_table(pp, k, l), (field.q, pcodes, n, k, l)


def test_cl_table_values_are_constants_on_low_weights():
    # every [c_{k,l}] with k < 3q - 1 lands in the prime field; recorded as
    # an observation, nothing downstream relies on it
    for field, pcodes, n in ((F2, (0, 1), 1), (F3, (0, 1), 1), (F3, (1, 0, 1), 1), (F3, (0, 1), 2)):
        pp = _params(field, pcodes, n)
        q = pp.q
        table = oracles.cl_table(pp, 3 * q - 2)
        for k in range(3 * q - 1):
            for lres in range(q - 1):
                v = table.entries[k][lres]
                assert v.degree <= 0
                if not v.is_zero():
                    assert all(x == 0 for x in v.coeffs[0].coeffs[1:])


def test_retired_names_raise():
    for fn, name in ((dr.cl_table, "drinfeld.cl_table"), (dr.frobenius_poly, "drinfeld.frobenius_poly"),
                     (F5.v_poly_eval, "ffield.FqField.v_poly_eval")):
        with pytest.raises(NotImplementedError, match=f"hecketrace.{name} is retired"):
            fn(None)


# the lemma's binomial family in the Drinfeld setting: g at x = -b wp over
# F_q[T], h at x = b over F_q; over F_4 and F_9 coercion, not a % p, reduces
# the integer binomial
_LEMMA_FIELDS = (F3, F4, F9)


def _units(field):
    return [field.decode(c) for c in range(1, field.q)]


def test_g_family_examples_and_partition():
    for field in _LEMMA_FIELDS:
        pp = _params(field, (1, 1), 1)
        one = _poly(field, (1,))
        for b in _units(field):
            x = pp.wp * -b
            assert cg.binomial_classes(x, 1, 2) == [one - pp.wp * b]
            for m in (1, 2, 3):
                assert cg.binomial_classes(x, m, 0) == [one] + [_poly(field, ())] * (m - 1)
            # the r-slices over m reassemble the full alternating sum
            for k in (7, 12):
                [whole] = cg.binomial_classes(x, 1, k)
                for m in (2, 3, 5):
                    parts = _poly(field, ())
                    for g in cg.binomial_classes(x, m, k):
                        parts = parts + g
                    assert parts == whole, (field.q, b, k, m)
        with pytest.raises(ValueError):
            cg.binomial_classes(pp.wp * -field.one, 0, 4)


def test_h_family_matches_g_at_trivial_wp():
    # with wp = T and b in F_q, h is the scalar shadow of g under T -> -1
    for field in _LEMMA_FIELDS:
        pp = _params(field, (0, 1), 1)
        minus_one = field.coerce(-1)
        for b in _units(field):
            for m in (1, 2, 4):
                for k in range(0, 12):
                    gs = cg.binomial_classes(pp.wp * -b, m, k)
                    hs = cg.binomial_classes(b, m, k)
                    assert [da.poly_evaluate(g, minus_one) for g in gs] == hs, (field.q, b, m, k)
        with pytest.raises(ValueError):
            cg.binomial_classes(field.one, 0, 4)


def test_series_numerators_are_short():
    for field in _LEMMA_FIELDS:
        pp = _params(field, (1, 1), 1)
        for b in _units(field):
            for m in (1, 2, 3, 5):
                for r in (0, m // 2, m - 1):
                    # the tail's vanishing through t^(4m+2) is checked inside
                    assert len(cg.class_numerator(pp.wp * -b, r, m)) <= 2 * m - 1
                    assert len(cg.class_numerator(b, r, m)) <= 2 * m - 1


def _ring_check(ring, mod, rng, widths, trials):
    # reduce, mul and pow on random code rows of the given widths against
    # FqPoly %, * and pow_mod; also one stacked call for all rows at once
    field = ring.field
    fs = [_poly(field, [rng.randrange(field.q) for _ in range(w)]) for w in widths for _ in range(trials)]
    for f, g in zip(fs, fs[1:] + fs[:1]):
        a, b = np.array(f.codes() or (0,)), np.array(g.codes() or (0,))
        assert _poly(field, ring.reduce(a).tolist()) == f % mod
        ra, rb, prod = ring.reduce(a), ring.reduce(b), (f * g) % mod
        assert _poly(field, ring.mul(ra, rb).tolist()) == prod
        assert _poly(field, ring.mul(a, b).tolist()) == prod
        assert _poly(field, ring.pow(ra, 7).tolist()) == f.pow_mod(7, mod)
    rows = np.zeros((len(fs), max(widths)), dtype=np.int64)
    for i, f in enumerate(fs):
        rows[i, : len(f.codes())] = f.codes()
    for i, r in enumerate(ring.reduce(rows).tolist()):
        assert _poly(field, r) == fs[i] % mod


def test_residue_ring_matches_poly_arithmetic():
    rng = random.Random(23)
    for field, modc in ((F2, (1, 1, 1)), (F3, (0, 0, 1)), (F3, (2, 1))):
        mod = _poly(field, modc)
        _ring_check(dr.ResidueRing(field, modc), mod, rng, (1, 3, 4, 7), 5)
    with pytest.raises(ValueError):
        dr.ResidueRing(F3, (2,))
    with pytest.raises(ValueError):
        dr.ResidueRing(F3, (0, 2))


def test_residue_ring_over_an_extension_with_a_long_modulus():
    # F_9, a modulus of degree 41 and inputs up to 2 * 41 + 20 digits wide,
    # more than any product of two residues: the rows past x^(2d-2) are made
    # on demand
    rng = random.Random(29)
    modc = tuple(rng.randrange(F9.q) for _ in range(41)) + (1,)
    mod = _poly(F9, modc)
    ring = dr.ResidueRing(F9, modc)
    _ring_check(ring, mod, rng, (5, 41, 60, 2 * 41 + 20), 2)
    assert len(ring.rows) >= 2 * 41 + 20 - 41


def test_trace_sequence_mod_matches_exact_traces():
    cases = [
        (F3, (1, 1), 1, (0, 1), 1, 1),
        (F3, (1, 1), 1, (0, 1), 2, 2),
        (F3, (0, 1), 2, (1, 1), 2, 1),
        (F2, (0, 1), 1, (1, 1), 2, 1),
        (F4, (1, 1), 2, (0, 1), 2, 2),
    ]
    for field, pcodes, n, lcodes, s, l in cases:
        pp = _params(field, pcodes, n)
        lpoly = _poly(field, lcodes)
        mod = lpoly**s
        seq = dr.trace_sequence_mod(pp, lpoly, s, l, 25)
        for k in range(26):
            want = dr.trace_Tpn(pp, k, l) % mod
            assert _poly(field, seq[k].tolist()) == want, (pcodes, lcodes, s, k)


PERIOD_TABLE = [
    # (field, pcodes, n, lcodes, s) -> (case, period, k0)
    ((F3, (1, 1), 1, (0, 1), 1), ("odd-deg", 24, 0)),
    ((F3, (1, 1), 1, (0, 1), 2), ("odd-deg", 72, 1)),
    ((F3, (1, 1), 1, (1, 1), 1), ("equal-prime", 2, 1)),
    ((F3, (1, 1), 1, (1, 1), 2), ("equal-prime", 6, 3)),
    ((F3, (1, 1), 2, (1, 1), 1), ("equal-prime", 2, 1)),
    ((F3, (1, 1), 1, (1, 0, 1), 1), ("even-deg-nonresidue", 80, 0)),
    ((F3, (1, 1), 2, (1, 0, 1), 1), ("even-deg-residue", 120, 0)),
    ((F2, (0, 1), 1, (1, 1), 1), ("char-two", 6, 0)),
    ((F2, (0, 1), 1, (1, 1), 2), ("char-two", 12, 1)),
    ((F2, (0, 1), 1, (1, 1, 1), 1), ("char-two", 30, 0)),
]


def test_period_spec_cases():
    for (field, pcodes, n, lcodes, s), (case, period, k0) in PERIOD_TABLE:
        pp = _params(field, pcodes, n)
        spec = dr.dperiod_for(pp, _poly(field, lcodes), s)
        assert (spec.case, spec.period, spec.k0) == (case, period, k0), (pcodes, lcodes, s)
    # m_ls halves p^{st}(|l| - 1) except at (p, s) = (2, 1), where the
    # halved value need not even be an integer
    pp2 = _params(F2, (0, 1), 1)
    assert dr.dperiod_for(pp2, _poly(F2, (1, 1)), 1).m_ls == 1
    assert dr.dperiod_for(pp2, _poly(F2, (1, 1, 1)), 1).m_ls == 3
    assert dr.dperiod_for(pp2, _poly(F2, (1, 1, 1)), 3).m_ls == 6
    pp3 = _params(F3, (1, 1), 1)
    assert dr.dperiod_for(pp3, _poly(F3, (0, 1)), 1).m_ls == 1
    assert dr.dperiod_for(pp3, _poly(F3, (0, 1)), 2).m_ls == 3


def test_residue_symbol_values():
    pp = _params(F3, (1, 1), 1)  # wp = T + 1
    assert dr.residue_symbol(pp, _poly(F3, (1, 1))) == 0
    assert dr.residue_symbol(pp, _poly(F3, (1, 0, 1))) == -1
    pp2 = _params(F3, (1, 1), 2)  # wp = (T + 1)^2, a square everywhere
    assert dr.residue_symbol(pp2, _poly(F3, (1, 0, 1))) == 1
    with pytest.raises(ValueError):
        dr.residue_symbol(_params(F2, (0, 1), 1), _poly(F2, (1, 1)))


def test_verify_period_certificates():
    quick = [
        (F3, (1, 1), 1, (0, 1), 1, 1),
        (F3, (1, 1), 1, (0, 1), 1, 2),
        (F3, (1, 1), 1, (1, 1), 2, 1),
        (F3, (1, 1), 2, (1, 1), 1, 2),
        (F2, (0, 1), 1, (1, 1), 2, 1),
        (F2, (1, 1), 1, (0, 1), 1, 1),
    ]
    for field, pcodes, n, lcodes, s, l in quick:
        pp = _params(field, pcodes, n)
        spec, records, ok = dr.verify_period_ff(pp, _poly(field, lcodes), s, l)
        assert ok, (pcodes, lcodes, s, l)
        assert len(records) == 2 * spec.period + 1
        assert all(r["ok"] and r["split_ok"] for r in records)
    # split reassembly is reported per k even when the window is explicit
    pp = _params(F3, (1, 1), 1)
    spec, records, ok = dr.verify_period_ff(pp, _poly(F3, (0, 1)), 1, 1, kmin=3, kmax=30)
    assert ok and records[0]["k"] == 3 and records[-1]["k"] == 30


# (field, P, n, lpoly, s): characteristic 2, a degree-2 base field, lpoly = P
# (where wp = 0 mod lpoly), an lpoly of degree 2, s up to 5, n = 2, and
# keys (a mod lpoly^s, b) whose count is 0 mod p (36 of the 100 at F_5),
# and 292 rows with s = 3 at F_5, P = T^2 + 2, n = 2
_SPLIT_GRID = [
    (F2, (0, 1), 1, (0, 1), 3),
    (F2, (1, 1), 2, (0, 1), 2),
    (F4, (0, 1), 1, (1, 1), 2),
    (F4, (0, 1), 2, (0, 1), 1),
    (F8, (0, 1), 1, (1, 1), 1),
    (F9, (0, 1), 1, (1, 1), 1),
    (F3, (0, 1), 1, (1, 0, 1), 2),
    (F3, (1, 1), 1, (1, 1), 5),
    (F3, (0, 1), 2, (1, 1), 4),
    (F5, (0, 1), 1, (0, 1), 2),
    (F5, (2, 0, 1), 2, (1, 1), 2),
    (F5, (2, 0, 1), 2, (1, 1), 3),
]


@pytest.mark.parametrize("field, pcodes, n, lcodes, s", _SPLIT_GRID)
def test_split_parts_match_the_per_b_oracle(field, pcodes, n, lcodes, s):
    # the kernel's folds over the rows with a = 0 mod lpoly and over the
    # units against the oracle's own recurrences, one b at a time
    pp, lpoly = _params(field, pcodes, n), _poly(field, lcodes)
    spec = dr.dperiod_for(pp, lpoly, s)
    ring = dr.ResidueRing(field, (lpoly**s).codes())
    k0 = spec.k0
    windows = [(k0, k0 + min(2 * spec.period, 40)), (k0 + 5, k0 + 23), (k0 + 9, k0 + 9)]
    for l in sorted({1, field.q - 1}):
        for kmin, kmax in windows:
            _, records, ok = dr.verify_period_ff(pp, lpoly, s, l, kmin, kmax)
            want = oracles.split_parts(pp, spec, ring, l, kmin, kmax)
            got = [np.array([r[key] for r in records]) for key in ("n_part", "u_part")]
            assert ok and all(np.array_equal(g, w) for g, w in zip(got, want)), (l, kmin, kmax)


def test_verify_period_window_guards():
    pp = _params(F3, (1, 1), 1)
    with pytest.raises(ValueError):
        dr.verify_period_ff(pp, _poly(F3, (1, 1)), 2, 1, kmin=0)  # k0 = 3
    with pytest.raises(ValueError):
        dr.verify_period_ff(pp, _poly(F3, (0, 1)), 1, 1, kmin=5, kmax=4)
    with pytest.raises(ValueError):
        dr.dperiod_for(pp, _poly(F3, (2, 0, 1)), 1)  # reducible
    with pytest.raises(ValueError):
        dr.dperiod_for(pp, _poly(F3, (0, 1)), 0)


def test_verify_period_enumerates_and_builds_rows_once(monkeypatch):
    # the period check and the split certificate read the same rows, so the
    # classes are enumerated and summed into rows once per check
    calls = {"enumerate_classes": 0, "_rows": 0}

    def spy(name):
        real = getattr(dr, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(dr, name, counted)

    spy("enumerate_classes")
    spy("_rows")
    pp = _params(F3, (1, 1), 1)
    _, records, ok = dr.verify_period_ff(pp, _poly(F3, (0, 1)), 1, 1, kmin=0, kmax=5)
    assert ok and len(records) == 6
    assert calls == {"enumerate_classes": 1, "_rows": 1}


@pytest.mark.parametrize("m_ls, fails", [
    (lambda m: m + 1, 1201), (lambda m: m - 1, 1201), (lambda m: 2 * m, 0),
], ids=["m+1", "m-1", "2m"])
def test_split_certificate_fails_on_a_wrong_unit_exponent(monkeypatch, m_ls, fails):
    # the split check asks a^(2 m_ls) = 1 of every unit row: m_ls off by one
    # fails it on every record, while the period check is untouched; a
    # doubled m_ls passes, as 2 m_ls stays a multiple of each unit's order
    real = dr.dperiod_for

    def wrong(*args):
        spec = real(*args)
        return spec._replace(m_ls=m_ls(spec.m_ls))

    monkeypatch.setattr(dr, "dperiod_for", wrong)
    pp = _params(F5, (0, 1), 1)
    _, records, ok = dr.verify_period_ff(pp, _poly(F5, (1, 1)), 2, 1)
    assert ok == (not fails) and len(records) == 1201
    assert sum(not r["split_ok"] for r in records) == fails
    assert all(r["ok"] for r in records)


@pytest.mark.parametrize("field", [F5, F4, F9])
def test_kernel_on_no_rows_yields_zeros(field):
    # a part of the split may hold no rows: every fold of the exact and the
    # ring kernels is then the zero row, Zech branch (F_9) included
    pp = _params(field, (0, 1), 1)
    ring = dr.ResidueRing(field, (_poly(field, (1, 1)) ** 2).codes())
    assert dr._fold_add(field, np.zeros((0, 3), dtype=np.int64)).tolist() == [0, 0, 0]
    for r in (None, ring):
        a, b, scales = dr._rows(pp, r)
        rows = (a[:0], b[:0], scales[:, :0])
        out = list(dr._h_kernel(pp, rows, 6, range(1, pp.q), r))
        assert len(out) == 7 and not any(row.any() for row in out)


def test_minimal_period_is_attained():
    # mod (T) the observed minimal period equals the predicted 24 exactly
    pp = _params(F3, (1, 1), 1)
    lpoly = _poly(F3, (0, 1))
    for l in (1, 2):
        assert dr.minimal_period_mod(pp, lpoly, 1, l, 120) == 24
    pp2 = _params(F2, (1, 1), 1)
    assert dr.minimal_period_mod(pp2, _poly(F2, (0, 1)), 1, 1, 40) == 6


def test_tr_infty_certificate():
    # the trace at infinity: deg trace <= ceil(k/2) deg(wp), so the
    # valuation of trace / (-wp)^ceil(k/2) at 1/T is never negative
    pp = _params(F3, (1, 1), 1)
    assert dr.trace_Tpn(pp, 0, 1).is_zero()
    for k in range(1, 30):
        tr = dr.trace_Tpn(pp, k, 1)
        assert tr.is_zero() or tr.degree <= -(-k // 2) * pp.wp.degree, k


def test_infty_periodicity():
    pp = _params(F3, (1, 1), 1)
    assert dr.infty_period(pp, 1) == 24
    assert dr.infty_period(pp, 2) == 72
    n, records, ok = dr.verify_infty_period(pp, 1, 1, kmax=60)
    assert ok and n == 24 and records[0]["k"] == 0
    n, records, ok = dr.verify_infty_period(pp, 2, 2, kmax=40)
    assert ok and n == 72 and records[0]["k"] == 1
    with pytest.raises(ValueError):
        dr.verify_infty_period(pp, 2, 1, kmin=0)


def test_verify_infty_period_rejects_an_empty_window():
    # a window that checks no weight must not pass
    pp = _params(F3, (1, 1), 1)
    with pytest.raises(ValueError, match="empty window"):
        dr.verify_infty_period(pp, 1, 1, kmin=10, kmax=5)
    assert len(dr.verify_infty_period(pp, 1, 1, kmin=5, kmax=5)[1]) == 1


def test_ramanujan_vacuous_and_basic_report():
    rep = dr.ramanujan_check(_params(F2, (0, 1), 1))
    assert rep.vacuous and rep.all_ok and rep.rows == ()
    rep = dr.ramanujan_check(_params(F3, (0, 1), 1))
    assert not rep.vacuous
    assert (rep.s, rep.s_tilde, rep.k_limit) == (1, 0, 25)
    assert len(rep.rows) == 2 * 25
    assert rep.all_ok
    for k, l, deg, bound, ok in rep.rows:
        assert ok and (deg is None or deg <= bound)


def test_ramanujan_rows_match_oracle_degrees():
    # the kernel's degrees, read off code rows for all types in one run,
    # against the degrees of the [c_{k,l}] oracle's exact traces
    for pcodes in ((0, 1), (1, 1)):
        pp = _params(F3, pcodes, 1)
        rep = dr.ramanujan_check(pp)
        assert rep.k_limit == 25 and len(rep.rows) == 2 * 25
        for k, l, deg, bound, ok in rep.rows:
            tr = oracles.trace_from_cl_table(pp, k, l)
            assert deg == (None if tr.is_zero() else tr.degree), (pcodes, k, l)
            assert bound == -(-k // 2) - 1
            assert ok == (tr.is_zero() or tr.degree <= bound)


def dim_cusp_ff(q: int, k: int, l: int) -> int:
    """Dimension of the weight-k, type-l cusp forms at full level.

    Zero unless k = 2l mod q-1; otherwise floor((k + (q-1-l)(q+1))/(q^2-1))
    with the type normalized to 1 <= l <= q-1.
    """
    l = (l - 1) % (q - 1) + 1
    if (k - 2 * l) % (q - 1):
        return 0
    return (k + (q - 1 - l) * (q + 1)) // (q * q - 1)


def verify_dim_congruence(params, alpha, kmax=50):
    """Check trace = wp(alpha)^{l-1} dim(k, l) mod (T - alpha) for k <= kmax.

    Runs over weights k and types l with k = 2l mod q-1 (the dimension
    formula's domain) on the kernel's residues mod T - alpha; requires
    P(alpha) != 0 so that the modulus is prime to wp.
    """
    base, q = params.base, params.q
    alpha = base.coerce(alpha)
    if da.poly_evaluate(params.P, alpha).is_zero():
        raise ValueError("alpha is a root of P; the modulus must avoid wp")
    wpa = da.poly_evaluate(params.wp, alpha)
    records = []
    all_ok = True
    if kmax < 2:
        return records, all_ok
    ring = dr.ResidueRing(base, FqPoly(base, [-alpha, base.one]).codes())
    seq = np.stack(list(dr._h_kernel(params, dr._rows(params, ring), kmax - 2, range(1, q), ring)))
    for l in range(1, q):
        for k in range(2, kmax + 1):
            if (k - 2 * l) % (q - 1):
                continue
            got = base.decode(int(seq[k - 2, l - 1, 0]))
            want = wpa ** (l - 1) * base.coerce(dim_cusp_ff(q, k, l))
            ok = got == want
            all_ok = all_ok and ok
            records.append({"k": k, "l": l, "got": got.code, "want": want.code, "ok": ok})
    return records, all_ok


def test_dim_formula_small_table():
    # q = 3: first cuspidal weights per type, from the explicit floor formula
    assert [dim_cusp_ff(3, k, 1) for k in (2, 4, 6, 8, 10, 12)] == [0, 1, 1, 1, 1, 2]
    assert [dim_cusp_ff(3, k, 2) for k in (2, 4, 6, 8, 10, 12)] == [0, 0, 0, 1, 1, 1]
    assert dim_cusp_ff(3, 5, 1) == 0  # parity mismatch
    assert dim_cusp_ff(2, 5, 1) == dim_cusp_ff(2, 5, 4) == 1


def test_dim_congruence_degree_one():
    pp = _params(F3, (1, 1), 1)
    for alpha in (F3.zero, F3.one):
        records, ok = verify_dim_congruence(pp, alpha, kmax=40)
        assert ok and records
    with pytest.raises(ValueError):
        verify_dim_congruence(pp, F3.coerce(2))  # root of P
    records, ok = verify_dim_congruence(_params(F2, (1, 1), 1), F2.zero, kmax=30)
    assert ok and records


def test_unit_group_exponent_examples():
    T3 = _poly(F3, (0, 1))
    assert dr.unit_group_exponent(T3, 1) == 2
    assert dr.unit_group_exponent(T3, 2) == 6
    assert dr.unit_group_exponent(T3, 3) == 6  # order 18, exponent 3 * 2
    assert dr.unit_group_exponent(_poly(F2, (1, 1, 1)), 1) == 3
    assert dr.unit_group_exponent(_poly(F2, (0, 1)), 2) == 2
    for lpoly, s in ((T3, 1), (T3, 2), (_poly(F2, (1, 1, 1)), 1), (_poly(F3, (1, 0, 1)), 2)):
        assert dr.exponent_check(lpoly, s)
    with pytest.raises(ValueError):
        dr.unit_group_exponent(_poly(F3, (2, 0, 1)), 1)
    with pytest.raises(ValueError):
        dr.unit_group_exponent(T3, 0)
    with pytest.raises(BudgetError, match="residue count 6561 exceeds the enumeration cap 4096$"):
        dr.unit_group_exponent(_poly(F3, (1, 0, 1)), 4)  # 3^8 residues


def test_s_tilde_and_poly_pow():
    assert [dr.s_tilde(3, s) for s in (1, 2, 3, 4, 9, 10)] == [0, 1, 1, 2, 2, 3]
    assert [dr.s_tilde(2, s) for s in (1, 2, 3, 4, 5)] == [0, 1, 2, 2, 3]
    T = _poly(F3, (0, 1))
    assert (T + _poly(F3, (1,))) ** 3 == _poly(F3, (1, 0, 0, 1))
    assert T**0 == _poly(F3, (1,))
    with pytest.raises(ValueError):
        T ** -1


def test_twisted_poly_relations():
    pp = _params(F3, (0, 1), 2)
    L, steps = pp.L, 1
    c = L.gen
    tau = da.TwistedPoly(L, steps, [L.zero, L.one])
    const = da.TwistedPoly(L, steps, [c])
    assert tau * const == da.TwistedPoly(L, steps, [L.zero, c.frobenius(steps)])
    x = da.TwistedPoly(L, steps, [c, L.one, c * c])
    y = da.TwistedPoly(L, steps, [L.one, c])
    z = da.TwistedPoly(L, steps, [c * c, L.zero, L.one])
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y).degree == 2 and da.TwistedPoly(L, steps, []).is_zero()
    # the code-array product agrees, one row per pair of factors
    rows = lambda *ps: np.array([[e.code for e in t.coeffs] + [0] * (3 - len(t.coeffs)) for t in ps])
    got = dr._tw_mul(L, pp.q, rows(x, y, tau), rows(z, x, const))
    for row, want in zip(got.tolist(), (x * z, y * x, tau * const)):
        want = [e.code for e in want.coeffs]
        assert row == want + [0] * (len(row) - len(want))
