"""Weierstrass curves over finite fields: point counts, isomorphism classes,
automorphisms, torsion, and level structure counting.

Everything here is exact; numpy is used only for bulk code-table arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from hecketrace.ffield import BudgetError, FqElem, FqField, embed, fq_construct

Point = Optional[Tuple[FqElem, FqElem]]

DEFAULT_MAX_CLASSIFY = 1 << 21


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
        out["trace"] = field.trace_table()
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
    if int(tab["trace"][c.code]) != 0:
        return []
    z = f.decode(int(tab["artin_schreier"][c.code]))
    return [h * z, h * z + h]


def all_points(curve: WeierstrassCurve) -> List[Point]:
    pts: List[Point] = [None]
    for x in curve.field.elements():
        for y in y_solutions(curve, x):
            pts.append((x, y))
    return pts


def curve_point_count(curve: WeierstrassCurve) -> int:
    """#E(F_q) including the point at infinity, by a vectorized x-sweep."""
    f = curve.field
    q = f.q
    xs = np.arange(q, dtype=np.int64)
    a1, a2, a3, a4, a6 = curve.coefficient_codes()
    rhs = f.v_poly_eval([a6, a4, a2, f.one.code], xs)
    hs = f.v_poly_eval([a3, a1], xs)
    if f.p == 2:
        tab = _solver(f)
        tr = tab["trace"]
        nz = hs != 0
        total = int(np.count_nonzero(~nz))  # h = 0 gives a unique y
        if nz.any():
            t = f.tables()
            hinv = t["exp"][(q - 1 - t["log"][hs[nz]]) % (q - 1)]
            c = f.v_mul(rhs[nz], f.v_mul(hinv, hinv))
            total += 2 * int(np.count_nonzero(tr[c] == 0))
        return total + 1
    four = np.int64(f.coerce(4).code)
    vals = f.v_add(f.v_mul(hs, hs), f.v_mul(rhs, four))
    return int(q + 1 + f.v_chi(vals).sum())


def trace_of_frobenius(curve: WeierstrassCurve) -> int:
    return curve.field.q + 1 - curve_point_count(curve)


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
# isomorphism classes via orbit enumeration over the transform group


@dataclass
class IsoClass:
    rep: WeierstrassCurve
    class_size: int
    aut_order: int
    a1: int  # trace of Frobenius over the ground field
    aut_tuples: Tuple[Tuple[int, int, int, int], ...]


_GRID_CACHE: Dict[Tuple[int, int], dict] = {}
_CLASS_CACHE: Dict[Tuple[int, int], List[IsoClass]] = {}


def _transform_grid(field: FqField) -> dict:
    key = (field.p, field.a)
    g = _GRID_CACHE.get(key)
    if g is not None:
        return g
    q = field.q
    t = field.tables()
    log, exp = t["log"], t["exp"]
    units = np.arange(1, q, dtype=np.int64)
    rng = np.arange(q, dtype=np.int64)
    U, R, S, T = [a.ravel() for a in np.meshgrid(units, rng, rng, rng, indexing="ij")]
    UI = exp[(q - 1 - log[U]) % (q - 1)]
    vm = field.v_mul

    def cmul(arr, k):
        return vm(arr, np.int64(field.coerce(k).code))

    UI2 = vm(UI, UI)
    UI3 = vm(UI2, UI)
    S2 = vm(S, S)
    R2 = vm(R, R)
    ST = vm(S, T)
    g = {
        "U": U, "R": R, "S": S, "T": T, "UI": UI,
        "UI2": UI2, "UI3": UI3, "UI4": vm(UI2, UI2), "UI6": vm(vm(UI2, UI2), UI2),
        "S2": S2, "R2": R2, "R3": vm(R2, R), "T2": vm(T, T),
        "RS": vm(R, S), "RT": vm(R, T),
        "twoS": cmul(S, 2), "threeR": cmul(R, 3), "twoT": cmul(T, 2),
        "threeR2": cmul(R2, 3), "twoST": cmul(ST, 2),
        "negcode": field.coerce(-1).code,
        "group_order": int(q ** 3 * (q - 1)),
    }
    g["T_RS"] = field.v_add(T, g["RS"])
    _GRID_CACHE[key] = g
    return g


def _orbit_indices(field: FqField, grid: dict, codes) -> np.ndarray:
    """Indices (base-q encoded coefficients) of all transforms of one curve."""
    q = field.q
    c1, c2, c3, c4, c6 = codes
    vm, va = field.v_mul, field.v_add
    neg = np.int64(grid["negcode"])

    def vneg(x):
        return vm(x, neg)

    def vsub(x, y):
        return va(x, vneg(y))

    def cmul(arr, code):
        return vm(arr, np.int64(code)) if code else np.zeros_like(arr)

    def caddc(arr, code):
        return va(arr, np.int64(code)) if code else arr

    def scode(k, code):
        # code of (k mod p) * element(code)
        return (field.coerce(k) * field.decode(code)).code

    R, S, T = grid["R"], grid["S"], grid["T"]
    A1 = vm(caddc(grid["twoS"], c1), grid["UI"])
    A2 = vm(caddc(vsub(grid["threeR"], va(cmul(S, c1), grid["S2"])), c2), grid["UI2"])
    A3 = vm(caddc(va(cmul(R, c1), grid["twoT"]), c3), grid["UI3"])
    pos4 = caddc(va(cmul(R, scode(2, c2)), grid["threeR2"]), c4)
    neg4 = va(va(cmul(S, c3), cmul(grid["T_RS"], c1)), grid["twoST"])
    A4 = vm(vsub(pos4, neg4), grid["UI4"])
    pos6 = caddc(va(va(cmul(R, c4), cmul(grid["R2"], c2)), grid["R3"]), c6)
    neg6 = va(va(cmul(T, c3), grid["T2"]), cmul(grid["RT"], c1))
    A6 = vm(vsub(pos6, neg6), grid["UI6"])
    return A1 + q * (A2 + q * (A3 + q * (A4 + q * A6)))


def _smooth_mask(field: FqField, idx: np.ndarray) -> np.ndarray:
    """Discriminant-nonzero mask for base-q encoded coefficient tuples."""
    q = field.q
    vm, va = field.v_mul, field.v_add
    neg = np.int64(field.coerce(-1).code)

    def vneg(x):
        return vm(x, neg)

    def cmul(arr, k):
        return vm(arr, np.int64(field.coerce(k).code))

    a1 = idx % q
    a2 = (idx // q) % q
    a3 = (idx // q ** 2) % q
    a4 = (idx // q ** 3) % q
    a6 = idx // q ** 4
    b2 = va(vm(a1, a1), cmul(a2, 4))
    b4 = va(cmul(a4, 2), vm(a1, a3))
    b6 = va(vm(a3, a3), cmul(a6, 4))
    a1sq = vm(a1, a1)
    b8 = va(
        va(vm(a1sq, a6), cmul(vm(a2, a6), 4)),
        va(vneg(vm(vm(a1, a3), a4)), va(vm(a2, vm(a3, a3)), vneg(vm(a4, a4)))),
    )
    disc = va(
        va(vneg(vm(vm(b2, b2), b8)), cmul(vm(vm(b4, b4), b4), -8)),
        va(cmul(vm(b6, b6), -27), cmul(vm(vm(b2, b4), b6), 9)),
    )
    return disc != 0


def iso_classes(field: FqField, max_entries: int = DEFAULT_MAX_CLASSIFY) -> List[IsoClass]:
    """All isomorphism classes of smooth curves over the field, with class
    sizes, automorphism group orders, and the automorphism tuples of each
    chosen representative."""
    key = (field.p, field.a)
    cached = _CLASS_CACHE.get(key)
    if cached is not None:
        return cached
    q = field.q
    if q ** 5 > max_entries:
        raise BudgetError(
            f"requested size {q ** 5} exceeds max_classify={max_entries}; "
            "raise it with max_entries"
        )
    grid = _transform_grid(field)
    idx = np.arange(q ** 5, dtype=np.int64)
    smooth = _smooth_mask(field, idx)
    del idx
    visited = np.zeros(q ** 5, dtype=bool)
    order = grid["group_order"]
    classes: List[IsoClass] = []
    smooth_idx = np.flatnonzero(smooth)
    total = 0
    pos = 0
    while pos < smooth_idx.size:
        rep_idx = int(smooth_idx[pos])
        if visited[rep_idx]:
            pos += 1
            continue
        codes = (
            rep_idx % q,
            (rep_idx // q) % q,
            (rep_idx // q ** 2) % q,
            (rep_idx // q ** 3) % q,
            rep_idx // q ** 4,
        )
        images = _orbit_indices(field, grid, codes)
        orbit = np.unique(images)
        assert not visited[orbit].any(), "orbits must not overlap"
        visited[orbit] = True
        size = int(orbit.size)
        assert order % size == 0, "class size must divide the group order"
        fix = images == rep_idx
        auts = tuple(
            (int(u), int(r), int(s), int(t))
            for u, r, s, t in zip(grid["U"][fix], grid["R"][fix], grid["S"][fix], grid["T"][fix])
        )
        assert len(auts) == order // size
        rep = WeierstrassCurve(field, *[field.decode(c) for c in codes])
        assert rep.is_smooth()
        classes.append(
            IsoClass(
                rep=rep,
                class_size=size,
                aut_order=order // size,
                a1=trace_of_frobenius(rep),
                aut_tuples=auts,
            )
        )
        total += size
        pos += 1
    assert total == int(smooth.sum()), "every smooth curve must appear in one orbit"
    assert sum(Fraction(1, c.aut_order) for c in classes) == q, "mass formula"
    _CLASS_CACHE[key] = classes
    return classes


def apply_aut(curve: WeierstrassCurve, tup: Tuple[int, int, int, int], P: Point) -> Point:
    """Point map (x, y) -> (u^2 x + r, u^3 y + s u^2 x + t) of an automorphism."""
    if P is None:
        return None
    f = curve.field
    u, r, s, t = (f.decode(c) for c in tup)
    x, y = P
    u2 = u * u
    return (u2 * x + r, u2 * u * y + s * u2 * x + t)


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


def _structure_tokens(curve: WeierstrassCurve, H: LevelStructureSpec) -> List[Point]:
    """Concrete objects the automorphisms act on, one per H-structure."""
    if H.N == 1:
        return [None]
    if H is GAMMA1_4:
        return exact_order_points(curve, 4)
    if H is GAMMA0_2:
        return exact_order_points(curve, 2)
    raise ValueError("stabilizers only implemented for the preset structures")


def nu_ell(H: LevelStructureSpec, field: FqField, ell: int) -> int:
    """Largest ell-valuation of a structure stabilizer among rational pairs."""
    best = 0
    for cls in iso_classes(field):
        if H.N == 1:
            stabs = [cls.aut_order]
        else:
            tokens = _structure_tokens(cls.rep, H)
            stabs = []
            for P in tokens:
                stabs.append(
                    sum(1 for tup in cls.aut_tuples if apply_aut(cls.rep, tup, P) == P)
                )
        for st in stabs:
            v = 0
            while st % ell == 0:
                st //= ell
                v += 1
            best = max(best, v)
    if ell == 2:
        assert best <= 3
    elif ell == 3:
        assert best <= 1
    else:
        assert best == 0
    return best


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
# chosen by elltrace.mass_data: class numbers (deuring_route_masses) at level 1
# for p >= 5, the reduced families at level 1 for p = 2, 3 and for gamma0-2,
# and the full classification otherwise. The j-line sweep runs only when asked
# for by name, as a point-counting cross-check of the class numbers.


def _collapse(hist: Dict[int, Fraction]) -> List[Tuple[int, Fraction]]:
    return sorted((a1, m) for a1, m in hist.items() if m)


def _check_level1_mass(hist: Dict[int, Fraction], q: int, route: str) -> None:
    total = sum(hist.values())
    if total != q:
        raise ArithmeticError(f"{route} route: level-1 mass is {total}, not q = {q}")


def family_route_masses(
    field: FqField, H: LevelStructureSpec
) -> List[Tuple[int, Fraction]]:
    """Weighted (a1, mass) data from one reduced Weierstrass family per stratum.

    The group acting on each family is small enough that the orbit-stabilizer
    mass Sum 1/#Aut appears as (family size)/(group order) without classifying.
    """
    q, p = field.q, field.p
    if H.N > 1 and math.gcd(H.N, q) != 1:
        raise ValueError("level must be coprime to q")
    if H.N > 1 and H is not GAMMA0_2:
        raise ValueError("family route supports level 1 and the gamma0-2 structure")
    hist: Dict[int, Fraction] = {}

    def push(curve: WeierstrassCurve, weight: Fraction):
        if not curve.is_smooth():
            return
        cnt = 1 if H.N == 1 else len(exact_order_points(curve, 2))
        if cnt == 0:
            return
        a1 = trace_of_frobenius(curve)
        hist[a1] = hist.get(a1, Fraction(0)) + weight * cnt

    if p >= 5:
        w = Fraction(1, q - 1)
        for A in field.elements():
            for B in field.elements():
                push(WeierstrassCurve(field, 0, 0, 0, A, B), w)
    elif p == 3:
        w = Fraction(1, q * (q - 1))
        for a2 in field.elements():
            for a4 in field.elements():
                for a6 in field.elements():
                    push(WeierstrassCurve(field, 0, a2, 0, a4, a6), w)
    else:
        w = Fraction(1, q)
        for a2 in field.elements():
            for a6 in field.units():
                push(WeierstrassCurve(field, 1, a2, 0, 0, a6), w)
        w = Fraction(1, q * q * (q - 1))
        for a3 in field.units():
            for a4 in field.elements():
                for a6 in field.elements():
                    push(WeierstrassCurve(field, 0, 0, a3, a4, a6), w)
    if H.N == 1:
        _check_level1_mass(hist, q, "family")
    return _collapse(hist)


def jline_route_masses(field: FqField, chunk: int = 1 << 18) -> List[Tuple[int, Fraction]]:
    """Level-1 (a1, mass) data by sweeping the j-line (characteristic >= 5)."""
    q, p = field.q, field.p
    if p < 5:
        raise ValueError("the j-line sweep needs characteristic >= 5")
    hist: Dict[int, Fraction] = {}
    t = field.tables()
    vm, va = field.v_mul, field.v_add
    xs = np.arange(q, dtype=np.int64)
    x3 = vm(vm(xs, xs), xs)

    def chi_sum_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # sum_x chi(x^3 + A x + B) for each row pair (A, B)
        vals = va(va(x3[None, :], vm(A[:, None], xs[None, :])), B[:, None])
        return field.v_chi(vals).sum(axis=1)

    j1728 = field.coerce(1728)
    # generic j, two quadratic twists of mass 1/2 each
    half = Fraction(1, 2)
    gen_js = np.array(
        [j for j in range(1, q) if j != j1728.code], dtype=np.int64
    )
    neg = np.int64(field.coerce(-1).code)
    c1728 = np.int64(j1728.code)
    rows = max(1, chunk // q)
    for start in range(0, gen_js.size, rows):
        J = gen_js[start:start + rows]
        Cm = va(np.full(J.shape, c1728, dtype=np.int64), vm(J, neg))  # 1728 - j
        A = vm(vm(np.full(J.shape, np.int64(field.coerce(3).code)), J), Cm)
        B = vm(vm(np.full(J.shape, np.int64(field.coerce(2).code)), J), vm(Cm, Cm))
        sums = chi_sum_rows(A, B)
        for sval in sums:
            a1 = -int(sval)
            hist[a1] = hist.get(a1, Fraction(0)) + half
            hist[-a1] = hist.get(-a1, Fraction(0)) + half
    # j = 1728: quartic twists y^2 = x^3 + g^i x
    g = field.multiplicative_generator()
    m4 = math.gcd(4, q - 1)
    for i in range(m4):
        c = (g ** i).code
        s = int(field.v_chi(va(x3, vm(xs, np.int64(c)))).sum())
        hist[-s] = hist.get(-s, Fraction(0)) + Fraction(1, m4)
    # j = 0: sextic twists y^2 = x^3 + g^i
    m6 = math.gcd(6, q - 1)
    for i in range(m6):
        c = (g ** i).code
        s = int(field.v_chi(va(x3, np.int64(c))).sum())
        hist[-s] = hist.get(-s, Fraction(0)) + Fraction(1, m6)
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


def deuring_route_masses(field: FqField) -> List[Tuple[int, Fraction]]:
    """Level-1 (a1, mass) data from class numbers (characteristic >= 5).

    Every ordinary trace t carries mass H(4q - t^2)/2 (Deuring), read from
    hurwitz6 for just those discriminants; the finitely many traces divisible
    by p follow the Waterhouse list. The total mass q is checked (an
    ArithmeticError otherwise, also under python -O), which checks the two
    parts against each other. This is the production level-1 route for every
    q = p^a with p >= 5.
    """
    q, p = field.q, field.p
    if p < 5:
        raise ValueError("the class-number route needs characteristic >= 5")
    hist: Dict[int, Fraction] = {}
    ts = [t for t in range(1, math.isqrt(4 * q - 1) + 1) if t % p]
    sixh = hurwitz6(np.array([4 * q - t * t for t in ts] + [4 * p], dtype=np.int64))
    for t, six in zip(ts, sixh[:-1].tolist()):
        hist[t] = hist[-t] = Fraction(six, 12)
    if field.a % 2:
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


def class_route_masses(
    field: FqField, H: LevelStructureSpec, max_entries: int = DEFAULT_MAX_CLASSIFY
) -> List[Tuple[int, Fraction]]:
    """Weighted (a1, mass) data from the full isomorphism classification."""
    if H.N > 1 and math.gcd(H.N, field.q) != 1:
        raise ValueError("level must be coprime to q")
    hist: Dict[int, Fraction] = {}
    for cls in iso_classes(field, max_entries=max_entries):
        cnt = 1 if H.N == 1 else structure_count(cls.rep, H)
        if cnt == 0:
            continue
        hist[cls.a1] = hist.get(cls.a1, Fraction(0)) + Fraction(cnt, cls.aut_order)
    return _collapse(hist)
