"""Scalar Drinfeld-module arithmetic for the oracles and tests: twisted
polynomials with FqElem coefficients, phi_f by Horner, the per-class
Frobenius solve by Gauss-Jordan over F_p on Python lists, and the class
enumeration that walks an |L|^2 bitmap of (g, delta) pairs.

The package finds the same classes and Frobenius data on int64 code arrays
for every class at once (hecketrace.drinfeld.enumerate_classes), from orbit
invariants and the motive product rather than a bitmap and a linear solve;
this module works one class and one element at a time, so that the two can
be compared. It is kept apart from
oracles.py because perfbench/run.py loads that file into its own process and
needs none of this.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from hecketrace.drinfeld import ClassTable, DrinfeldParams, FqPoly, fq_poly_from_codes
from hecketrace.ffield import FqElem, FqField, embed


@dataclass(frozen=True)
class DrinfeldClass:
    """One twist-orbit representative with its Frobenius data, as field
    elements: the bitmap oracle's record, and a decoded ClassTable entry."""

    g: FqElem
    delta: FqElem
    aut_order: int
    orbit_size: int
    frob_a: FqPoly
    frob_b: FqElem


def decode_table(params: DrinfeldParams, table: ClassTable) -> List[DrinfeldClass]:
    """The entries of a ClassTable as DrinfeldClass records."""
    base, L = params.base, params.L
    return [
        DrinfeldClass(L.decode(g), L.decode(d), aut, size, fq_poly_from_codes(base, a), base.decode(b))
        for g, d, aut, size, a, b in zip(
            table.g.tolist(), table.delta.tolist(), table.aut.tolist(),
            table.size.tolist(), table.a.tolist(), table.b.tolist(),
        )
    ]


def poly_evaluate(poly: FqPoly, x: FqElem) -> FqElem:
    """poly(x) by Horner, for x in the coefficient field."""
    acc = poly.field.zero
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# twisted polynomials over L, tau c = c^q tau


class TwistedPoly:
    """Skew polynomial sum c_i tau^i with coefficients in one field.

    `steps` is the number of x -> x^p iterations one tau conjugates by, so
    tau c = c^{p^steps} tau; for a module over F_q this is the degree of F_q
    over F_p regardless of the coefficient field.
    """

    __slots__ = ("field", "steps", "coeffs")

    def __init__(self, field: FqField, steps: int, coeffs: Sequence):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.steps = steps
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, TwistedPoly)
            and self.field is other.field
            and self.steps == other.steps
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.steps, self.coeffs))

    def __add__(self, other: "TwistedPoly") -> "TwistedPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return TwistedPoly(self.field, self.steps, a)

    def __mul__(self, other: "TwistedPoly") -> "TwistedPoly":
        if self.is_zero() or other.is_zero():
            return TwistedPoly(self.field, self.steps, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y.frobenius(self.steps * i)
        return TwistedPoly(self.field, self.steps, out)

    def __repr__(self):
        if self.is_zero():
            return "TwistedPoly(0)"
        terms = [f"({c})t^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return "TwistedPoly(" + " + ".join(terms) + ")"


def _tw_const(field: FqField, steps: int, c) -> TwistedPoly:
    return TwistedPoly(field, steps, [c])


def _tw_monomial(field: FqField, steps: int, i: int) -> TwistedPoly:
    return TwistedPoly(field, steps, [field.zero] * i + [field.one])


def drinfeld_phi(params: DrinfeldParams, g: FqElem, delta: FqElem, f: FqPoly) -> TwistedPoly:
    """phi_f for the module with phi_T = gamma(T) + g tau + delta tau^2."""
    L, steps = params.L, params.base.a
    if f.is_zero():
        return TwistedPoly(L, steps, [])
    phi_t = TwistedPoly(L, steps, [params.gamma_t, g, delta])
    acc = _tw_const(L, steps, embed(f.coeffs[-1], L))
    for c in reversed(f.coeffs[:-1]):
        acc = phi_t * acc + _tw_const(L, steps, embed(c, L))
    return acc


# ---------------------------------------------------------------------------
# the per-class Frobenius solve


def _fp_coords(elems: Sequence[FqElem]) -> List[int]:
    out: List[int] = []
    for e in elems:
        out.extend(e.coeffs)
    return out


def _solve_mod_p(cols: List[List[int]], rhs: List[int], p: int) -> Tuple[str, Optional[List[int]]]:
    """Gauss-Jordan over F_p; returns ("unique"|"none"|"many", solution)."""
    ncols = len(cols)
    nrows = len(rhs)
    mat = [[cols[c][r] % p for c in range(ncols)] + [rhs[r] % p] for r in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], p - 2, p) if p > 2 else 1
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if mat[r][ncols]:
            return "none", None
    if len(pivots) < ncols:
        return "many", None
    sol = [0] * ncols
    for r, col in enumerate(pivots):
        sol[col] = mat[r][ncols]
    return "unique", sol


def frobenius_poly(klass, params: DrinfeldParams) -> Tuple[FqPoly, FqElem]:
    """(a, b) with tau^{2m} + b phi_{wp} = phi_a tau^m, by linear solve.

    Accepts a DrinfeldClass or a bare (g, delta) pair.  The unknowns are the
    F_q-coefficients of a (degree <= m/2) and b; the system matches tau-
    coefficients and the solution is required to be unique with b != 0,
    then re-substituted exactly.
    """
    if isinstance(klass, DrinfeldClass):
        g, delta = klass.g, klass.delta
    else:
        g, delta = klass
    base, L, m = params.base, params.L, params.m
    steps = base.a
    if delta.is_zero():
        raise ValueError("delta must be nonzero")
    phi_wp = drinfeld_phi(params, g, delta, params.wp)
    phi_t = TwistedPoly(L, steps, [params.gamma_t, g, delta])
    tpow = [_tw_const(L, steps, L.one)]
    for _ in range(m // 2):
        tpow.append(phi_t * tpow[-1])
    basis = [base.decode(base.p**j) for j in range(base.a)]
    nslots = 2 * m + 1

    def tau_coeffs(tw: TwistedPoly, shift: int = 0) -> List[FqElem]:
        out = [L.zero] * nslots
        for i, c in enumerate(tw.coeffs):
            if i + shift < nslots:
                out[i + shift] = c
        return out

    # when tau^m is phi_c for some c in A the general relation admits every
    # unit b, so the scalar case is resolved first: there the characteristic
    # polynomial is (X - c)^2, i.e. a = 2c and b = c^2/wp
    if m % 2 == 0:
        scols: List[List[int]] = []
        for i in range(m // 2 + 1):
            for j in range(base.a):
                eps = embed(basis[j], L)
                scols.append(_fp_coords([eps * c for c in tau_coeffs(tpow[i])]))
        srhs = [L.zero] * nslots
        srhs[m] = L.one
        status, sol = _solve_mod_p(scols, _fp_coords(srhs), base.p)
        if status == "many":
            raise ArithmeticError("scalar Frobenius solve underdetermined")
        if status == "unique":
            c = FqPoly(
                base,
                [base.elem(sol[i * base.a : (i + 1) * base.a]) for i in range(m // 2 + 1)],
            )
            quo, rem = (c * c).divmod(params.wp)
            if not rem.is_zero() or quo.degree != 0:
                raise ArithmeticError("scalar Frobenius norm is not a unit times wp")
            a, b = c + c, quo.coeffs[0]
            lhs = _tw_monomial(L, steps, 2 * m) + _tw_const(L, steps, embed(b, L)) * phi_wp
            rhs = drinfeld_phi(params, g, delta, a) * _tw_monomial(L, steps, m)
            if lhs != rhs:
                raise ArithmeticError("Frobenius relation re-substitution failed")
            return a, b

    cols: List[List[int]] = []
    for j in range(base.a):
        eps = embed(basis[j], L)
        cols.append(_fp_coords([eps * c for c in tau_coeffs(phi_wp)]))
    for i in range(m // 2 + 1):
        for j in range(base.a):
            eps = embed(basis[j], L)
            cols.append(_fp_coords([-(eps * c) for c in tau_coeffs(tpow[i], shift=m)]))
    rhs_elems = [L.zero] * nslots
    rhs_elems[2 * m] = L.coerce(-1)
    status, sol = _solve_mod_p(cols, _fp_coords(rhs_elems), base.p)
    if status != "unique":
        raise ArithmeticError(f"Frobenius solve is {status} for (g, delta) = ({g}, {delta})")
    b = base.elem(sol[: base.a])
    a_coeffs = [base.elem(sol[base.a + i * base.a : base.a + (i + 1) * base.a]) for i in range(m // 2 + 1)]
    a = FqPoly(base, a_coeffs)
    if b.is_zero():
        raise ArithmeticError("Frobenius solve returned b = 0")
    lhs = _tw_monomial(L, steps, 2 * m) + _tw_const(L, steps, embed(b, L)) * phi_wp
    rhs = drinfeld_phi(params, g, delta, a) * _tw_monomial(L, steps, m)
    if lhs != rhs:
        raise ArithmeticError("Frobenius relation re-substitution failed")
    return a, b


# ---------------------------------------------------------------------------
# class enumeration over the |L|^2 bitmap


_CLASS_CACHE: Dict[DrinfeldParams, Tuple[DrinfeldClass, ...]] = {}


def enumerate_classes(params: DrinfeldParams) -> List[DrinfeldClass]:
    """All twist-orbit representatives of (g, delta) in L x L^*, lex-least.

    autOrder is the twist stabilizer size; the orbit-stabilizer identity and
    the partition total sum(orbitSize) = |L|(|L|-1) are checked, as are
    autOrder = -1 mod p and the slope bound 2 deg(a) <= m for every class
    (each failure raises ArithmeticError).
    """
    cached = _CLASS_CACHE.get(params)
    if cached is not None:
        return list(cached)
    L = params.L
    qL, q, p = L.q, params.q, params.p
    t = L.tables()
    idx = np.arange(qL - 1, dtype=np.int64)
    uq1 = t["exp"][(idx * (q - 1)) % (qL - 1)]
    uq2 = t["exp"][(idx * (q * q - 1)) % (qL - 1)]
    seen = np.zeros(qL * qL, dtype=bool)
    classes: List[DrinfeldClass] = []
    total = 0
    for gcode in range(qL):
        for dcode in range(1, qL):
            if seen[gcode * qL + dcode]:
                continue
            gs = L.v_mul(uq1, np.int64(gcode))
            ds = L.v_mul(uq2, np.int64(dcode))
            keys = gs * qL + ds
            orbit = np.unique(keys)
            seen[orbit] = True
            aut = int(np.count_nonzero((gs == gcode) & (ds == dcode)))
            size = len(orbit)
            if aut * size != qL - 1:
                raise ArithmeticError(f"autOrder {aut} times orbit size {size} is not {qL - 1}")
            if aut % p != p - 1:
                raise ArithmeticError(f"autOrder {aut} is not -1 mod p = {p}")
            total += size
            g, delta = L.decode(gcode), L.decode(dcode)
            a, b = frobenius_poly((g, delta), params)
            if 2 * a.degree > params.m:
                raise ArithmeticError(f"deg a = {a.degree} exceeds m/2 for m = {params.m}")
            classes.append(DrinfeldClass(g, delta, aut, size, a, b))
    if total != qL * (qL - 1):
        raise ArithmeticError(f"orbits cover {total} pairs, not |L|(|L|-1) = {qL * (qL - 1)}")
    _CLASS_CACHE[params] = tuple(classes)
    return classes
