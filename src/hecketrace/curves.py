"""Weierstrass curves over finite fields: point counts, torsion, level
structures, and the (a1, mass) data the trace formula folds.

One batched point-count kernel, frobenius_traces, counts points on many
curves at once over numpy code tables. Each (characteristic, level) pair has
one mass route built on class numbers or on that kernel: deuring_route_masses
at level 1 for every p (with a sweep of the j = 0 stratum for p = 2, 3) and
normal_form_route_masses for gamma0-2 and gamma1-4. No route classifies
curves up to isomorphism. Everything here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from hecketrace.ffield import FqElem, FqField, embed, fq_construct

Point = Optional[Tuple[FqElem, FqElem]]


class WeierstrassCurve:
    """A long Weierstrass equation y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    __slots__ = ("field", "a1", "a2", "a3", "a4", "a6")

    def __init__(self, field: FqField, a1, a2, a3, a4, a6):
        self.field = field
        self.a1 = field.coerce(a1)
        self.a2 = field.coerce(a2)
        self.a3 = field.coerce(a3)
        self.a4 = field.coerce(a4)
        self.a6 = field.coerce(a6)

    # b-invariants are characteristic-free
    @property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self):
        return (
            self.a1 * self.a1 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 * self.a3
            - self.a4 * self.a4
        )

    @property
    def c4(self):
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def discriminant(self):
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def j_invariant(self):
        d = self.discriminant
        if d.is_zero():
            raise ZeroDivisionError("singular curve has no j-invariant")
        c4 = self.c4
        return c4 * c4 * c4 / d

    def is_smooth(self) -> bool:
        return not self.discriminant.is_zero()

    def coefficient_codes(self) -> Tuple[int, int, int, int, int]:
        return (self.a1.code, self.a2.code, self.a3.code, self.a4.code, self.a6.code)

    def contains(self, x: FqElem, y: FqElem) -> bool:
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x * x * x + self.a2 * x * x + self.a4 * x + self.a6
        return lhs == rhs

    def transformed(self, u, r, s, t) -> "WeierstrassCurve":
        """Apply the substitution x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
        f = self.field
        u, r, s, t = f.coerce(u), f.coerce(r), f.coerce(s), f.coerce(t)
        if u.is_zero():
            raise ZeroDivisionError("transform scale must be a unit")
        ui = u.inverse()
        ui2 = ui * ui
        ui3 = ui2 * ui
        ui4 = ui2 * ui2
        ui6 = ui4 * ui2
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        na1 = (a1 + 2 * s) * ui
        na2 = (a2 - s * a1 + 3 * r - s * s) * ui2
        na3 = (a3 + r * a1 + 2 * t) * ui3
        na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) * ui4
        na6 = (a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1) * ui6
        return WeierstrassCurve(f, na1, na2, na3, na4, na6)

    def __eq__(self, other):
        return (
            isinstance(other, WeierstrassCurve)
            and self.field is other.field
            and self.coefficient_codes() == other.coefficient_codes()
        )

    def __hash__(self):
        return hash((self.field.p, self.field.a, self.coefficient_codes()))

    def __repr__(self):
        return f"WeierstrassCurve(F_{self.field.q}, a={self.coefficient_codes()})"


# ---------------------------------------------------------------------------
# scalar point arithmetic


def negate_point(curve: WeierstrassCurve, P: Point) -> Point:
    if P is None:
        return None
    x, y = P
    return (x, -y - curve.a1 * x - curve.a3)


def add_points(curve: WeierstrassCurve, P: Point, Q: Point) -> Point:
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return None
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        den = x2 - x1
        lam = (y2 - y1) / den
        nu = (y1 * x2 - y2 * x1) / den
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def mul_point(curve: WeierstrassCurve, n: int, P: Point) -> Point:
    if n < 0:
        return mul_point(curve, -n, negate_point(curve, P))
    acc: Point = None
    add = P
    while n:
        if n & 1:
            acc = add_points(curve, acc, add)
        add = add_points(curve, add, add)
        n >>= 1
    return acc


def point_order(curve: WeierstrassCurve, P: Point, cap: int = 200) -> int:
    cur = P
    for n in range(1, cap + 1):
        if cur is None:
            return n
        cur = add_points(curve, cur, P)
    raise AssertionError(f"order exceeds cap {cap}")


# ---------------------------------------------------------------------------
# solving for y: cached square-root and Artin-Schreier tables per field

_SOLVE_CACHE: Dict[Tuple[int, int], dict] = {}


def _solver(field: FqField) -> dict:
    key = (field.p, field.a)
    tab = _SOLVE_CACHE.get(key)
    if tab is not None:
        return tab
    t = field.tables()
    out = {"log": t["log"], "exp": t["exp"]}
    if field.p == 2:
        z = np.arange(field.q, dtype=np.int64)
        c = field.v_add(field.v_mul(z, z), z)
        table = np.full(field.q, -1, dtype=np.int64)
        table[c] = z  # any one solution per value is enough
        out["artin_schreier"] = table
    _SOLVE_CACHE[key] = out
    return out


def sqrt_element(x: FqElem) -> Optional[FqElem]:
    """A square root of x, or None when x is a non-square (odd characteristic)."""
    f = x.field
    if f.p == 2:
        return x.frobenius(f.a - 1)
    if x.is_zero():
        return f.zero
    tab = _solver(f)
    l = int(tab["log"][x.code])
    if l % 2:
        return None
    return f.decode(int(tab["exp"][l // 2]))


def y_solutions(curve: WeierstrassCurve, x: FqElem) -> List[FqElem]:
    f = curve.field
    h = curve.a1 * x + curve.a3
    rhs = x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6
    if f.p != 2:
        disc = h * h + 4 * rhs
        if disc.is_zero():
            return [-h / 2]
        root = sqrt_element(disc)
        if root is None:
            return []
        return [(-h + root) / 2, (-h - root) / 2]
    if h.is_zero():
        return [sqrt_element(rhs)]
    tab = _solver(f)
    c = rhs / (h * h)
    if int(f.trace_table()[c.code]) != 0:
        return []
    z = f.decode(int(tab["artin_schreier"][c.code]))
    return [h * z, h * z + h]


def all_points(curve: WeierstrassCurve) -> List[Point]:
    pts: List[Point] = [None]
    for x in curve.field.elements():
        for y in y_solutions(curve, x):
            pts.append((x, y))
    return pts


# entries of one (curves x q) block of frobenius_traces, and curves per block
# of the normal-form sweep, so that neither grows with q^2
_TRACE_BLOCK = 1 << 16


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


def trace_of_frobenius(curve: WeierstrassCurve) -> int:
    return int(frobenius_traces(curve.field, *curve.coefficient_codes())[0])


def curve_point_count(curve: WeierstrassCurve) -> int:
    """#E(F_q) including the point at infinity."""
    return curve.field.q + 1 - trace_of_frobenius(curve)


# ---------------------------------------------------------------------------
# torsion


def _poly_roots_scan(field: FqField, coeffs_ascending: Sequence[FqElem]) -> List[FqElem]:
    codes = [c.code for c in coeffs_ascending]
    xs = np.arange(field.q, dtype=np.int64)
    vals = field.v_poly_eval(codes, xs)
    return [field.decode(int(c)) for c in np.flatnonzero(vals == 0)]


def two_torsion_points(curve: WeierstrassCurve) -> List[Point]:
    """Rational points of exact order 2."""
    f = curve.field
    if f.p == 2:
        if curve.a1.is_zero():
            return []
        x0 = curve.a3 / curve.a1
        return [(x0, y) for y in y_solutions(curve, x0)]
    cubic = [curve.b6, 2 * curve.b4, curve.b2, f.coerce(4)]
    pts = []
    for x0 in _poly_roots_scan(f, cubic):
        y0 = -(curve.a1 * x0 + curve.a3) / 2
        if curve.contains(x0, y0):
            pts.append((x0, y0))
    return pts


def _halves_of(curve: WeierstrassCurve, Q: Point) -> List[Point]:
    """Rational points P with 2P = Q, for Q of order 2."""
    f = curve.field
    xq = Q[0]
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    # x(2P) = (x^4 - b4 x^2 - 2 b6 x - b8) / (4 x^3 + b2 x^2 + 2 b4 x + b6)
    poly = [
        -b8 - xq * b6,
        -2 * b6 - xq * 2 * b4,
        -b4 - xq * b2,
        -4 * xq,
        f.one,
    ]
    out = []
    for x0 in _poly_roots_scan(f, poly):
        for y0 in y_solutions(curve, x0):
            P = (x0, y0)
            if add_points(curve, P, P) == Q:
                out.append(P)
    return out


def exact_order_points(curve: WeierstrassCurve, N: int) -> List[Point]:
    """Rational points of exact order N, N in {2, 4}."""
    if N == 2:
        return two_torsion_points(curve)
    if N == 4:
        pts = []
        for Q in two_torsion_points(curve):
            pts.extend(_halves_of(curve, Q))
        return pts
    raise ValueError("only N in {2, 4} supported")


def n_torsion_points(curve: WeierstrassCurve, N: int) -> List[Point]:
    if N == 1:
        return [None]
    if N == 2:
        return [None] + two_torsion_points(curve)
    if N == 4:
        return [None] + two_torsion_points(curve) + exact_order_points(curve, 4)
    raise ValueError("only N in {1, 2, 4} supported")


# ---------------------------------------------------------------------------
# level structures


@dataclass(frozen=True)
class LevelStructureSpec:
    """A subgroup H of GL2(Z/N) given by its matrices (a, b, c, d), row-major."""

    name: str
    N: int
    matrices: FrozenSet[Tuple[int, int, int, int]]
    representable: bool
    contains_minus_id: bool


LEVEL1 = LevelStructureSpec(
    name="1",
    N=1,
    matrices=frozenset({(0, 0, 0, 0)}),
    representable=False,
    contains_minus_id=True,
)

GAMMA1_4 = LevelStructureSpec(
    name="gamma1-4",
    N=4,
    matrices=frozenset(
        {(1, b, 0, d) for b in range(4) for d in (1, 3)}
    ),
    representable=True,
    contains_minus_id=False,
)

GAMMA0_2 = LevelStructureSpec(
    name="gamma0-2",
    N=2,
    matrices=frozenset({(1, 0, 0, 1), (1, 1, 0, 1)}),
    representable=False,
    contains_minus_id=True,
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


def structure_count(curve: WeierstrassCurve, H: LevelStructureSpec) -> int:
    """Number of rational H-structures on the curve."""
    if H.N == 1:
        return 1
    if math.gcd(H.N, curve.field.q) != 1:
        raise ValueError(f"level {H.N} requires gcd(N, q) = 1")
    if H is GAMMA1_4:
        return len(exact_order_points(curve, 4))
    if H is GAMMA0_2:
        return len(exact_order_points(curve, 2))
    return count_structures_general(curve, H)


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
        raise ArithmeticError(f"nu = ({nu2}, {nu3}): 2^nu2 3^nu3 must divide 24")
    return nu2 if ell == 2 else nu3


# ---------------------------------------------------------------------------
# Frobenius on N-torsion over a splitting field


def _matmul(a, b, N):
    return (
        (a[0] * b[0] + a[1] * b[2]) % N,
        (a[0] * b[1] + a[1] * b[3]) % N,
        (a[2] * b[0] + a[3] * b[2]) % N,
        (a[2] * b[1] + a[3] * b[3]) % N,
    )


def _matinv(m, N):
    det = (m[0] * m[3] - m[1] * m[2]) % N
    di = pow(det, -1, N)
    return ((m[3] * di) % N, (-m[1] * di) % N, (-m[2] * di) % N, (m[0] * di) % N)


_GL2_CACHE: Dict[int, List[Tuple[int, int, int, int]]] = {}


def gl2_elements(N: int) -> List[Tuple[int, int, int, int]]:
    out = _GL2_CACHE.get(N)
    if out is None:
        out = [
            (a, b, c, d)
            for a in range(N)
            for b in range(N)
            for c in range(N)
            for d in range(N)
            if math.gcd((a * d - b * c) % N, N) == 1
        ]
        _GL2_CACHE[N] = out
    return out


@dataclass(frozen=True)
class TorsionFrobenius:
    N: int
    splitting_degree: int
    matrix: Tuple[int, int, int, int]  # (m11, m12, m21, m22), columns are images


def _point_key(P: Point):
    return (0,) if P is None else (1, P[0].code, P[1].code)


def frobenius_matrix(
    curve: WeierstrassCurve, N: int, max_field_size: Optional[int] = None
) -> TorsionFrobenius:
    """Matrix of the ground-field Frobenius on E[N] in a fixed basis.

    The splitting field is searched in degrees r <= 6, which suffices for
    N <= 4 since element orders in GL2(Z/4) are at most 6.
    """
    base = curve.field
    if math.gcd(N, base.q) != 1:
        raise ValueError("torsion level must be coprime to the field size")
    for r in range(1, 7):
        ext = fq_construct(base.p, base.a * r, max_size=max_field_size)
        ec = WeierstrassCurve(ext, *[embed(c, ext) for c in
                                     (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)])
        tors = n_torsion_points(ec, N)
        if len(tors) == N * N:
            break
    else:
        raise AssertionError("N-torsion did not split in degree <= 6")
    exact = sorted(
        (P for P in tors if P is not None and point_order(ec, P, cap=2 * N) == N),
        key=_point_key,
    )
    P1 = exact[0]
    span = None
    P2 = None
    for cand in exact[1:]:
        table = {}
        ok = True
        for i in range(N):
            for j in range(N):
                pt = add_points(ec, mul_point(ec, i, P1), mul_point(ec, j, cand))
                k = _point_key(pt)
                if k in table:
                    ok = False
                    break
                table[k] = (i, j)
            if not ok:
                break
        if ok:
            span, P2 = table, cand
            break
    assert span is not None, "no basis of the N-torsion found"

    def frob(P: Point) -> Point:
        if P is None:
            return None
        return (P[0].frobenius(base.a), P[1].frobenius(base.a))

    i1, j1 = span[_point_key(frob(P1))]
    i2, j2 = span[_point_key(frob(P2))]
    m = (i1, i2, j1, j2)
    tr = trace_of_frobenius(curve)
    assert (m[0] * m[3] - m[1] * m[2]) % N == base.q % N, "det must be q mod N"
    assert (m[0] + m[3]) % N == tr % N, "trace must match the Frobenius trace"
    return TorsionFrobenius(N=N, splitting_degree=r, matrix=m)


def count_structures_general(
    curve: WeierstrassCurve, H: LevelStructureSpec, max_field_size: Optional[int] = None
) -> int:
    fr = frobenius_matrix(curve, H.N, max_field_size=max_field_size)
    M = fr.matrix
    hits = 0
    for g in gl2_elements(H.N):
        gi = _matinv(g, H.N)
        if _matmul(_matmul(gi, M, H.N), g, H.N) in H.matrices:
            hits += 1
    assert hits % len(H.matrices) == 0
    return hits // len(H.matrices)


# ---------------------------------------------------------------------------
# mass routes. Each (characteristic, level) pair has one production route,
# chosen by elltrace.mass_data, and none of them classifies curves:
#   level 1, every p: class numbers (deuring_route_masses). A trace t prime
#     to p carries mass H(4q - t^2)/2; the supersingular traces follow the
#     Waterhouse list for p >= 5 and a batched sweep of the one j = 0 stratum
#     for p = 2, 3.
#   gamma0-2 and gamma1-4: one normal form per pair (E, P), swept in blocks
#     (normal_form_route_masses).
# Every sweep counts points with frobenius_traces, the j-line sweep too; that
# one runs only when asked for by name, as a point-counting cross-check of
# the class numbers. The per-curve family loop and the full isomorphism
# classification are differential oracles in tests/oracles.py.


def _collapse(hist: Dict[int, Fraction]) -> List[Tuple[int, Fraction]]:
    return sorted((a1, m) for a1, m in hist.items() if m)


def _tally(hist: Dict[int, Fraction], traces: np.ndarray, weight: Fraction) -> None:
    """Add weight to hist[t] once per entry t of traces."""
    vals, counts = np.unique(traces, return_counts=True)
    for t, c in zip(vals.tolist(), counts.tolist()):
        hist[t] = hist.get(t, Fraction(0)) + c * weight


def _check_level1_mass(hist: Dict[int, Fraction], q: int, route: str) -> None:
    total = sum(hist.values())
    if total != q:
        raise ArithmeticError(f"{route} route: level-1 mass is {total}, not q = {q}")


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
    _check_level1_mass(hist, q, "j-line")
    return _collapse(hist)


def hurwitz6(ds: np.ndarray) -> np.ndarray:
    """6 * H(D) for each entry D > 0 of ds: H(D) counts the reduced positive
    forms (a, b, c) of discriminant -D, imprimitive forms included, with the
    forms proportional to x^2+y^2 and x^2+xy+y^2 weighing 1/2 and 1/3 (hence
    the factor 6). D = 1, 2 mod 4 gives 0.

    Only the requested D are touched (Cohen, A Course in Computational
    Algebraic Number Theory, 5.3). For each a <= sqrt(max D / 3), a form
    (a, b, c) of discriminant -D with -a < b <= a exists iff
    b^2 = -D mod 4a, and it is reduced iff c >= a, with b >= 0 when c = a;
    since 4ac = D + b^2, that is D >= 4a^2 - b^2, plus 1 when b < 0. Sorting
    the keys (b^2 mod 4a, threshold) lets two searchsorted calls count the
    reduced forms of every D at once; (a, 0, a) at D = 4a^2 and (a, a, a) at
    D = 3a^2 then lose 1/2 and 2/3 of their weight.
    """
    ds = np.asarray(ds, dtype=np.int64)
    six = np.zeros(ds.shape, dtype=np.int64)
    dmax = int(ds.max(initial=0))
    amax = math.isqrt(dmax // 3)
    span = 4 * amax * amax + dmax + 1  # above every threshold and every D
    for a in range(1, amax + 1):
        b = np.arange(-a + 1, a + 1, dtype=np.int64)
        bb = b * b
        keys = np.sort(bb % (4 * a) * span + (4 * a * a - bb + (b < 0)))
        base = (-ds) % (4 * a) * span
        six += 6 * np.searchsorted(keys, base + ds, "right")
        six -= 6 * np.searchsorted(keys, base, "left")
    g = np.arange(1, amax + 1, dtype=np.int64)
    return six - 3 * np.isin(ds, 4 * g * g) - 4 * np.isin(ds, 3 * g * g)


def _j0_stratum(field: FqField) -> Tuple[np.ndarray, Fraction]:
    """Traces of the j = 0 curves for p = 2, 3 (the supersingular ones), and
    the mass each entry carries.

    Each stratum is the old reduced family with its group weight: for p = 2,
    y^2 + a3 y = x^3 + a4 x + a6 with a3 != 0, weight 1/(q^2 (q - 1)); for
    p = 3, y^2 = x^3 + a4 x + a6 with a4 != 0, weight 1/(q (q - 1)). The
    scaling (x, y) -> (u^2 x, u^3 y) divides a3 by u^3 and a4 by u^4, so a3
    (p = 2) or a4 (p = 3) runs over one unit per coset of the cubes or the
    fourth powers, standing for the whole coset. For p = 2 the count on each
    line x is 2 or 0 as Tr((x^3 + a4 x + a6) / a3^2) is 0 or 1, so a6 acts
    only through Tr(a6 / a3^2): half of the q values of a6 give the trace t
    of a6 = 0 and the other half give -t.
    """
    q, p = field.q, field.p
    units, xs = field.tables()["exp"], np.arange(q, dtype=np.int64)
    if p == 2:
        g = math.gcd(3, q - 1)
        t = frobenius_traces(field, 0, 0, np.repeat(units[:g], q), np.tile(xs, g), 0)
        return np.concatenate([t, -t]), Fraction(1, 2 * q * g)
    g = math.gcd(4, q - 1)
    t = frobenius_traces(field, 0, 0, 0, np.repeat(units[:g], q), np.tile(xs, g))
    return t, Fraction(1, q * g)


def deuring_route_masses(field: FqField) -> List[Tuple[int, Fraction]]:
    """Level-1 (a1, mass) data from class numbers, for every q.

    Every ordinary trace t (p does not divide t) carries mass H(4q - t^2)/2
    (Deuring), read from hurwitz6 for just those discriminants. The traces
    divisible by p follow the Waterhouse list for p >= 5 and the j = 0 sweep
    (_j0_stratum) for p = 2, 3. The total mass q is checked (an
    ArithmeticError otherwise, also under python -O), which checks the two
    parts against each other. This is the production level-1 route.
    """
    q, p = field.q, field.p
    hist: Dict[int, Fraction] = {}
    ts = [t for t in range(1, math.isqrt(4 * q - 1) + 1) if t % p]
    sixh = hurwitz6(np.array([4 * q - t * t for t in ts] + [4 * p], dtype=np.int64))
    for t, six in zip(ts, sixh[:-1].tolist()):
        hist[t] = hist[-t] = Fraction(six, 12)
    if p < 5:
        _tally(hist, *_j0_stratum(field))
    elif field.a % 2:
        hist[0] = Fraction(int(sixh[-1]), 12)
    else:
        r = math.isqrt(q)
        hist[2 * r] = hist[-2 * r] = Fraction(p - 1, 24)
        if pow(-3 % p, (p - 1) // 2, p) != 1:
            hist[r] = hist[-r] = Fraction(1, 3)
        if pow(p - 1, (p - 1) // 2, p) != 1:
            hist[0] = Fraction(1, 2)
    _check_level1_mass(hist, q, "class-number")
    return _collapse(hist)


def normal_form_route_masses(field: FqField, H: LevelStructureSpec) -> List[Tuple[int, Fraction]]:
    """(a1, mass) data of the pairs (E, P) for gamma0-2 and gamma1-4, from one
    normal form per pair, point-counted in one batch.

    gamma0-2: P of order 2 moved to (0, 0) gives y^2 = x^3 + a x^2 + b x with
    b (a^2 - 4b) != 0; the only maps between such forms are
    (a, b) -> (a u^-2, b u^-4), so each (a, b) weighs 1/(q - 1).
    gamma1-4: P of order 4 gives the Tate normal form
    y^2 + xy - by = x^3 - bx^2 with b not in {0, -1/16}, one per pair, and the
    pairs have no automorphisms: weight 1. A rational point of order N
    divides #E = q + 1 - t, which is checked for every trace (an
    ArithmeticError otherwise, also under python -O). The q^2 pairs (a, b)
    of gamma0-2 are swept in blocks of about _TRACE_BLOCK curves, so memory
    does not grow with q^2.
    """
    q = field.q
    if math.gcd(H.N, q) != 1:
        raise ValueError("level must be coprime to q")
    vm, va = field.v_mul, field.v_add
    codes = np.arange(q, dtype=np.int64)
    if H is GAMMA0_2:
        minus4 = np.int64(field.coerce(-4).code)
        rows = max(1, _TRACE_BLOCK // q)  # values of a per block

        def blocks():
            for lo in range(0, q, rows):
                a = np.repeat(codes[lo : lo + rows], q)
                b = np.tile(codes, a.size // q)
                smooth = vm(b, va(vm(a, a), vm(b, minus4))) != 0
                yield frobenius_traces(field, 0, a[smooth], 0, b[smooth], 0)

        batches, weight = blocks(), Fraction(1, q - 1)
    elif H is GAMMA1_4:
        b = codes[(codes != 0) & (codes != (-field.one / field.coerce(16)).code)]
        minus_b = vm(b, np.int64(field.coerce(-1).code))
        batches, weight = [frobenius_traces(field, 1, minus_b, minus_b, 0, 0)], Fraction(1)
    else:
        raise ValueError("the normal-form route covers gamma0-2 and gamma1-4")
    hist: Dict[int, Fraction] = {}
    for traces in batches:
        orders = q + 1 - traces
        if (orders % H.N).any():
            bad = int(orders[orders % H.N != 0][0])
            raise ArithmeticError(f"{H.name} route: #E = {bad} is not divisible by {H.N}")
        _tally(hist, traces, weight)
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
