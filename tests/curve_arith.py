"""Scalar curve arithmetic for the enumeration oracles: long Weierstrass
curves, the group law, solving for y, exact-order 2- and 4-torsion and the
structure counts of the preset level structures.

The package counts points only in batches (hecketrace.curves.frobenius_traces)
and never handles single curves; the oracles in oracles.py do, through this
module. It is kept apart from oracles.py because perfbench/run.py loads that
file into its own process and needs none of this.
"""

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from hecketrace.curves import GAMMA0_2, GAMMA1_4, LevelStructureSpec, frobenius_traces
from hecketrace.drinfeld import FqPoly
from hecketrace.ffield import FqElem, FqField

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


def trace_of_frobenius(curve: WeierstrassCurve) -> int:
    return int(frobenius_traces(curve.field, *curve.coefficient_codes())[0])


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


# ---------------------------------------------------------------------------
# exact-order torsion and the preset structure counts


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
    for x0 in FqPoly(f, cubic).roots():
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
    for x0 in FqPoly(f, poly).roots():
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


def structure_count(curve: WeierstrassCurve, H: LevelStructureSpec) -> int:
    """Number of rational H-structures on the curve, for the preset H: a
    gamma1-4 structure is a point of exact order 4, a gamma0-2 structure one
    of exact order 2."""
    if H.N == 1:
        return 1
    if math.gcd(H.N, curve.field.q) != 1:
        raise ValueError(f"level {H.N} requires gcd(N, q) = 1")
    if H is GAMMA1_4:
        return len(exact_order_points(curve, 4))
    if H is GAMMA0_2:
        return len(exact_order_points(curve, 2))
    raise ValueError("structure counts only cover the preset structures")
