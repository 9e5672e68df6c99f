"""Level structures, class numbers, and the (a1, mass) data the trace
formula folds.

One mass route, deuring_route_masses, serves every (characteristic, level)
pair. It reads the masses off Hurwitz class numbers (one batched hurwitz6
call) and closed forms for the supersingular traces, and counts no points.
The batched point-count kernel frobenius_traces remains for the j-line
sweep, a point-counting cross-check of the class numbers in the selftest.
No code here classifies curves up to isomorphism or handles a single curve;
the scalar curve arithmetic the enumeration oracles need lives in
tests/curve_arith.py. Everything here is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

import numpy as np

from hecketrace.ffield import FqField, InvariantError


# entries of one (curves x q) block of frobenius_traces, so that it does not
# grow with q^2
_TRACE_BLOCK = 1 << 16
# entries of one block of the class-number kernel hurwitz6: discriminants per
# sorted chunk, table entries per block of a, and (a, D) pairs per step
_H_BLOCK = 1 << 13


def frobenius_traces(field: FqField, a1, a2, a3, a4, a6) -> np.ndarray:
    """Traces q + 1 - #E(F_q) of a batch of curves, one per entry of the
    coefficient code arrays (scalars broadcast against them).

    x runs over the whole field in a (curves x q) table, filled in blocks of
    about _TRACE_BLOCK entries. With h = a1 x + a3 and
    f = x^3 + a2 x^2 + a4 x + a6, each x carries 1 + chi(h^2 + 4 f) affine
    points in odd characteristic; for p = 2 it carries one where h = 0, and
    otherwise two or none as Tr(f / h^2) is 0 or 1.
    """
    q, p = field.q, field.p
    vm, va = field.v_mul, field.v_add
    coeffs = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=np.int64))
                                   for c in (a1, a2, a3, a4, a6)))
    xs = np.arange(q, dtype=np.int64)[None, :]
    out = np.empty(coeffs[0].shape, dtype=np.int64)
    rows = max(1, _TRACE_BLOCK // q)
    for lo in range(0, out.size, rows):
        b1, b2, b3, b4, b6 = (c[lo : lo + rows, None] for c in coeffs)
        f = va(vm(va(vm(va(xs, b2), xs), b4), xs), b6)
        h = va(vm(b1, xs), b3)
        if p == 2:
            t = field.tables()
            hinv = t["exp"][-t["log"][np.where(h != 0, h, 1)] % (q - 1)]
            tr = field.trace_table()[vm(f, vm(hinv, hinv))]
            pts = np.where(h != 0, 2 * (tr == 0), 1).sum(axis=1)
        else:
            four = np.int64(field.coerce(4).code)
            pts = q + field.v_chi(va(vm(h, h), vm(f, four))).sum(axis=1)
        out[lo : lo + rows] = q - pts
    return out


# ---------------------------------------------------------------------------
# level structures


class LevelStructureSpec(NamedTuple):
    """A subgroup H of GL2(Z/N) given by its matrices (a, b, c, d), row-major."""

    name: str
    N: int
    matrices: FrozenSet[Tuple[int, int, int, int]]
    representable: bool


LEVEL1 = LevelStructureSpec(
    name="1",
    N=1,
    matrices=frozenset({(0, 0, 0, 0)}),
    representable=False,
)

GAMMA1_4 = LevelStructureSpec(
    name="gamma1-4",
    N=4,
    matrices=frozenset(
        {(1, b, 0, d) for b in range(4) for d in (1, 3)}
    ),
    representable=True,
)

GAMMA0_2 = LevelStructureSpec(
    name="gamma0-2",
    N=2,
    matrices=frozenset({(1, 0, 0, 1), (1, 1, 0, 1)}),
    representable=False,
)

_LEVEL_ALIASES = {
    "1": LEVEL1,
    "level1": LEVEL1,
    "triv": LEVEL1,
    "gamma1-4": GAMMA1_4,
    "gamma0-2": GAMMA0_2,
    "gamma1-2": GAMMA0_2,
}


def level_structure(name: str) -> LevelStructureSpec:
    try:
        return _LEVEL_ALIASES[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown level structure {name!r}; choose from {sorted(_LEVEL_ALIASES)}"
        )


def nu_ell(H: LevelStructureSpec, field: FqField, ell: int) -> int:
    """Largest ell-valuation of #Aut(E, structure) over the rational pairs.

    It follows from the rational automorphism groups. For p >= 5, Aut(E) is
    mu_2 except at j = 1728, where it is mu_4 when q = 1 mod 4, and at j = 0,
    where it is mu_6 when q = 1 mod 3. For p = 3, j = 0 = 1728 and every q
    has a twist with the order-3 translations x -> x + r (y^2 = x^3 - x, r in
    F_3); the order-4 map (x, y) -> (-x, iy) needs i in F_q. For p = 2 the
    j = 0 curves have the geometric group SL_2(F_3) of order 24, Q_8
    extended by the scalings by cube roots of unity: for even a, F_4 lies in
    F_q and some twist has all 24 rational; for odd a, no automorphism of
    order 3 is rational and the largest rational group has order 4. A
    gamma0-2 pair is y^2 = x^3 + a x^2 + b x with the point at (0, 0); its
    automorphisms are the u with u^2 a = a and u^4 b = b, a subgroup of mu_4
    that is all of it at a = 0 when q = 1 mod 4. gamma1-4 is representable.
    The full classification in tests/oracles.py gives the same values for
    every q <= 17.
    """
    q, p = field.q, field.p
    if H.N > 1 and math.gcd(H.N, q) != 1:
        raise ValueError("level must be coprime to q")
    if H.representable or ell not in (2, 3):
        return 0
    if p == 2:
        nu2, nu3 = (3, 1) if field.a % 2 == 0 else (2, 0)
    else:
        nu2, nu3 = (2 if q % 4 == 1 else 1), (1 if q % 3 == 1 or p == 3 else 0)
    if H is GAMMA0_2:
        nu3 = 0
    elif H is not LEVEL1:
        raise ValueError("stabilizers only implemented for the preset structures")
    if 24 % (2**nu2 * 3**nu3):
        raise InvariantError(f"nu = ({nu2}, {nu3}): 2^nu2 3^nu3 must divide 24")
    return nu2 if ell == 2 else nu3


# ---------------------------------------------------------------------------
# mass routes. elltrace.mass_data takes every (characteristic, level) pair
# from class numbers (deuring_route_masses): the ordinary traces, and the
# supersingular ones of odd extension degree, from Hurwitz class numbers of
# the orders that contain (pi - 1)/e, split by the rational 2-power torsion;
# the supersingular traces of even degree from closed forms. The j-line sweep
# (jline_route_masses) counts points with frobenius_traces; it is no route of
# mass_data and runs only in the class-number-identity selftest. The
# normal-form and j = 0 sweeps, the per-curve family loop and the full
# isomorphism classification are differential oracles in tests/oracles.py.


def _collapse(hist: Dict[int, Fraction]) -> List[Tuple[int, Fraction]]:
    return sorted((a1, m) for a1, m in hist.items() if m)


def _tally(hist: Dict[int, Fraction], traces: np.ndarray, weight: Fraction) -> None:
    """Add weight to hist[t] once per entry t of traces."""
    vals, counts = np.unique(traces, return_counts=True)
    for t, c in zip(vals.tolist(), counts.tolist()):
        hist[t] = hist.get(t, Fraction(0)) + c * weight


def _check_mass(hist: Dict[int, Fraction], q: int, H: LevelStructureSpec, route: str) -> None:
    """The masses must add up to q, q - 1 or q - 2 at level 1, gamma0-2 or
    gamma1-4 (q minus N/2); summed as integers over the lcm of their
    denominators, not one Fraction at a time."""
    drop = H.N // 2
    den = math.lcm(*(m.denominator for m in hist.values()))
    num = sum(m.numerator * (den // m.denominator) for m in hist.values())
    if num != (q - drop) * den:
        level, want = ("level-1", "q") if H is LEVEL1 else (H.name, f"q - {drop}")
        raise InvariantError(f"{route} route: {level} mass is {Fraction(num, den)}, not {want} = {q - drop}")


def jline_route_masses(field: FqField) -> List[Tuple[int, Fraction]]:
    """Level-1 (a1, mass) data by sweeping the j-line (characteristic >= 5),
    point-counted in one frobenius_traces batch.

    Each j other than 0 and 1728 gives y^2 = x^3 + 3j(1728 - j) x +
    2j(1728 - j)^2 and its quadratic twist, of traces t and -t and mass 1/2
    each. j = 1728 gives the quartic twists y^2 = x^3 + g^i x and j = 0 the
    sextic twists y^2 = x^3 + g^i, each of mass 1/(number of twists).
    """
    q, p = field.q, field.p
    if p < 5:
        raise ValueError("the j-line sweep needs characteristic >= 5")
    vm, va = field.v_mul, field.v_add
    c1728 = field.coerce(1728).code
    js = np.array([j for j in range(1, q) if j != c1728], dtype=np.int64)
    cm = va(np.int64(c1728), vm(js, np.int64(field.coerce(-1).code)))  # 1728 - j
    three, two = (np.int64(field.coerce(c).code) for c in (3, 2))
    units = field.tables()["exp"]
    m4, m6 = math.gcd(4, q - 1), math.gcd(6, q - 1)
    A = np.concatenate([vm(vm(js, three), cm), units[:m4], np.zeros(m6, dtype=np.int64)])
    B = np.concatenate([vm(vm(js, two), vm(cm, cm)), np.zeros(m4, dtype=np.int64), units[:m6]])
    t = frobenius_traces(field, 0, 0, 0, A, B)
    n = js.size
    hist: Dict[int, Fraction] = {}
    _tally(hist, np.concatenate([t[:n], -t[:n]]), Fraction(1, 2))
    _tally(hist, t[n : n + m4], Fraction(1, m4))
    _tally(hist, t[n + m4 :], Fraction(1, m6))
    _check_mass(hist, q, LEVEL1, "j-line")
    return _collapse(hist)


def _reduced_form_counts(d: np.ndarray) -> np.ndarray:
    """Number of reduced positive forms of discriminant -D, imprimitive and
    special forms counted once, for each entry D of the ascending array d
    (hurwitz6 sorts and weighs)."""
    out = np.zeros(d.size, dtype=np.int64)
    amax = math.isqrt(max(int(d[-1]), 0) // 3)
    a0 = 1
    while a0 <= amax:
        # the a0 <= a < a1 of one block have tables of 4a0 + ... + 4(a1 - 1)
        # <= _H_BLOCK entries in all (at least one a per block)
        a1 = (1 + math.isqrt(1 + 2 * _H_BLOCK + 4 * a0 * (a0 - 1))) // 2
        a1 = min(amax + 1, max(a0 + 1, a1))
        size = 2 * a1 * (a1 - 1) - 2 * a0 * (a0 - 1)
        a = np.arange(a0, a1, dtype=np.int64)[:, None]
        four_a = 4 * a
        off = 2 * a * (a - 1) - 2 * a0 * (a0 - 1)  # a's residues start here
        b = np.arange(2 - a1, a1, dtype=np.int64)
        row, t = off + (b * b) % four_a, 2 * b - 1
        # b <= -a or b > a goes to row size + 1, whose keys lie above those of
        # every query: its thresholds exceed -b^2 > -span
        row += (size + 1 - row) * (t * t > four_a * a)
        cnt = np.bincount(row.ravel(), minlength=size + 2)[:size]
        first = np.cumsum(cnt) - cnt  # where each (a, residue) starts in keys
        # keys (row, threshold 4a^2 - b^2 + [b < 0]); thresholds and the D
        # of the band lie in [0, span)
        span = 4 * (a1 - 1) ** 2 + 1
        keys = np.sort((row * span + (four_a * a + ((b < 0) - b * b))).ravel())
        cols = max(1, _H_BLOCK // (a1 - a0))
        band, full = (int(i) for i in np.searchsorted(d, (3 * a0 * a0, 4 * (a1 - 1) ** 2)))
        # 3a0^2 <= D < 4(a1 - 1)^2 < span: count the roots whose threshold is
        # at most D, all of them once D >= 4a^2 and none while D < 3a^2
        for lo in range(band, full, cols):
            dd = d[lo : min(lo + cols, full)]
            r = off + (-dd) % four_a
            n = np.searchsorted(keys, r * span + dd, "right") - first[r]
            out[lo : lo + dd.size] += n.sum(axis=0)
        for lo in range(full, d.size, cols):  # D >= 4a^2 for every a of the block
            out[lo : lo + cols] += cnt[off + (-d[lo : lo + cols]) % four_a].sum(axis=0)
        a0 = a1
    return out


def hurwitz6(ds: np.ndarray) -> np.ndarray:
    """6 * H(D) for each entry D > 0 of ds (any shape, order and repeats):
    H(D) counts the reduced positive forms (a, b, c) of discriminant -D,
    imprimitive forms included, with the forms proportional to x^2+y^2 and
    x^2+xy+y^2 weighing 1/2 and 1/3 (hence the factor 6). D = 1, 2 mod 4
    gives 0.

    Only the requested D are touched (Cohen, A Course in Computational
    Algebraic Number Theory, 5.3). A form (a, b, c) of discriminant -D with
    -a < b <= a exists iff b^2 = -D mod 4a, and it is reduced iff c >= a,
    with b >= 0 when c = a; since 4ac = D + b^2, that is
    D >= 4a^2 - b^2 + [b < 0], a threshold in [3a^2, 4a^2]. The a run in
    blocks. Each block has a root-count table cnt_a[r] = #{b in (-a, a] :
    b^2 = r mod 4a}, made by one bincount, so a D >= 4a^2 reads its count
    with one gather at -D mod 4a. The D in [3a^2, 4a^2) instead count the
    roots whose threshold is at most D in the block's sorted keys
    (a, residue, threshold), one searchsorted call per step. Each chunk of
    _H_BLOCK discriminants is sorted first, so a block visits only the
    D >= 3a0^2 and splits them into these two ranges by slicing. Every
    temporary holds at most _H_BLOCK entries, or about 4 amax once that is
    larger, whatever len(ds) is, and the Python loop runs once per block of
    a and per _H_BLOCK pairs, not once per a. Finally (a, 0, a) at D = 4a^2
    and (a, a, a) at D = 3a^2 lose 1/2 and 2/3 of their weight.
    """
    ds = np.asarray(ds, dtype=np.int64)
    flat = ds.reshape(-1)
    six = np.empty(flat.size, dtype=np.int64)
    for lo in range(0, flat.size, _H_BLOCK):
        chunk = flat[lo : lo + _H_BLOCK]
        d = np.sort(chunk)
        s = 6 * _reduced_form_counts(d)
        g = np.arange(1, math.isqrt(max(int(d[-1]), 0) // 3) + 1, dtype=np.int64)
        # 4g^2 and 3g^2 are sorted without repeats, so each D occurs 0 or 1
        # times in them (np.isin would give the same, but it loads numpy.ma)
        for loss, forms in ((3, 4 * g * g), (4, 3 * g * g)):
            s -= loss * (np.searchsorted(forms, d, "right") - np.searchsorted(forms, d, "left"))
        # equal D have equal values, so the first of each in d stands for all
        six[lo : lo + chunk.size] = s[np.searchsorted(d, chunk)]
    return six.reshape(ds.shape)


def _level_points(H: LevelStructureSpec, m, n):
    """Level structures of H on the group Z/m x Z/n (m | n), elementwise on
    arrays: one at level 1, the points of order 2 for gamma0-2 and those of
    exact order 4 for gamma1-4."""
    if H is LEVEL1:
        return 1
    two = np.gcd(2, m) * np.gcd(2, n)
    if H is GAMMA0_2:
        return two - 1
    if H is GAMMA1_4:
        return np.gcd(4, m) * np.gcd(4, n) - two
    raise ValueError("the class-number route covers level 1, gamma0-2 and gamma1-4")


def deuring_route_masses(field: FqField, H: LevelStructureSpec) -> List[Tuple[int, Fraction]]:
    """(a1, mass) data of the pairs (E, structure) from class numbers, for
    every q and every preset level; the one production mass route.

    At a trace t with N = q + 1 - t and D = 4q - t^2, let A_e be the mass of
    the curves with (pi - 1)/e in End(E): H(D/e^2)/2 when e | t - 2 and
    e^2 | N (Deuring), else 0. E(F_q) is Z/e x Z/(N/e) for the largest such e
    (Lenstra), so the mass is (A_1 - A_2) n(1, N) + (A_2 - A_4) n(2, N/2) +
    A_4 n(4, N/4), n the level structures on the group (_level_points); at
    level 1 that is A_1. This covers every ordinary t (p does not divide t)
    and, for odd a, the supersingular t = 0 and t = +-sqrt(pq) (p = 2, 3),
    whose orders are maximal at p, so that D loses its factor p^(a - 1). All
    of them take one hurwitz6 call. For even a the supersingular masses are
    Waterhouse's and Schoof's closed forms, with a cyclic 2-part at t = 0 and
    +-sqrt(q) and E(F_q) = (Z/sqrt(N))^2 at t = +-2 sqrt(q). Two checks
    raise InvariantError, also under python -O: every trace with mass has
    N divisible by the level, and the masses add up to q, q - 1 and q - 2 at
    level 1, gamma0-2 and gamma1-4.
    """
    q, p, a = field.q, field.p, field.a
    if math.gcd(H.N, q) != 1:
        raise ValueError("level must be coprime to q")
    es = (1,) if H is LEVEL1 else (1, 2, 4)
    T = math.isqrt(4 * q - 1)
    t = np.arange(-T, T + 1, dtype=np.int64)
    ordinary = t % p != 0
    # for odd a the supersingular traces are t = 0 and t^2 = pq
    keep = ordinary | ((t * t) % (p * q) == 0) if a % 2 else ordinary
    t, ordinary = t[keep], ordinary[keep]
    N = q + 1 - t
    D = (4 * q - t * t) // np.where(ordinary, 1, p ** (a - 1))
    # row i holds the t at which (pi - 1)/e_i can be an endomorphism
    ok = np.array([((t - 2) % e == 0) & (N % (e * e) == 0) for e in es])
    disc = np.where(ok, D // np.array(es)[:, None] ** 2, 0)
    ds = np.sort(disc[ok])
    ds = ds[np.concatenate(([True], ds[1:] != ds[:-1]))]  # each D once
    sixh = np.where(ok, hurwitz6(ds)[np.searchsorted(ds, disc)], 0)
    sixh = np.vstack([sixh, np.zeros_like(t)])
    mass12 = sum((sixh[i] - sixh[i + 1]) * _level_points(H, e, N // e) for i, e in enumerate(es))
    hist = {tt: Fraction(m, 12) for tt, m in zip(t.tolist(), mass12.tolist()) if m}
    if a % 2 == 0:
        # the supersingular traces of even a with their level-1 masses
        r = math.isqrt(q)
        at_r = Fraction(1, 3) if p % 3 == 2 else Fraction(1, 6) if p == 3 else 0
        at_0 = Fraction(1, 2) if p % 4 == 3 else Fraction(1, 4) if p == 2 else 0
        for tt, level1 in ((2 * r, Fraction(p - 1, 24)), (-2 * r, Fraction(p - 1, 24)),
                           (r, at_r), (-r, at_r), (0, at_0)):
            order = q + 1 - tt
            side = math.isqrt(order) if tt * tt == 4 * q else 1
            m = level1 * int(_level_points(H, side, order // side))
            if m:
                hist[tt] = m
    bad = [q + 1 - tt for tt in hist if (q + 1 - tt) % H.N]
    if bad:
        raise InvariantError(f"class-number route: {H.name} mass at #E = {bad[0]}, not divisible by {H.N}")
    _check_mass(hist, q, H, "class-number")
    return _collapse(hist)


# ---------------------------------------------------------------------------
# retired routes. The per-curve family loop and the full classification are
# differential oracles in tests/oracles.py; these names remain only because
# perfbench/traced.py looks them up to install its timing wrappers.


def _retired(name: str):
    def route(*args, **kwargs):
        raise NotImplementedError(f"curves.{name} is retired; tests/oracles.py keeps it")

    route.__name__ = route.__qualname__ = name
    return route


family_route_masses = _retired("family_route_masses")
class_route_masses = _retired("class_route_masses")
iso_classes = _retired("iso_classes")
