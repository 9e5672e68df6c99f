"""Rank-2 Drinfeld modules over prime fields of F_q[T] and their Hecke traces.

Elements of F_q[T] (P, wp, the moduli l and the exact traces) are `FqPoly`
objects: tuples of coefficient codes on the polynomial kernel of `ffield`.
A module over the field L with q^m elements is a pair (g, delta) through
phi_T = gamma(T) + g tau + delta tau^2; isomorphism classes are orbits under
the twist (g, delta) -> (u^{q-1} g, u^{q^2-1} delta).  Every trace-side
quantity is a weighted fold over those classes that depends on a class only
through its Frobenius data (a, b), and both steps run on int64 code arrays:

- `enumerate_classes` names each orbit by a complete invariant of logarithms
  (log g mod q-1 and log delta - (q+1) log g, or log delta alone when g = 0),
  takes the lex-least pair of each, and reads the Frobenius polynomials
  X^2 - a X + b wp of all classes off the motive L{tau} (tau c = c^q tau),
  on which tau^m acts by a 2 x 2 matrix with trace a, a block of classes at
  a time.  It returns one `ClassTable`: read-only code arrays of g, delta,
  autOrder, orbit size and the Frobenius data a (T-digits) and b; only
  `dr enumerate` decodes them;
- `_rows` sums the table into weighted (a, b) rows, once per job, and the
  caller hands them, or a subset of them, to `_h_kernel`, which runs the
  recurrence h_k = a h_{k-1} - b wp h_{k-2} and folds each h_k into the
  requested types.

Together they give the exact traces of the Hecke operator at wp = P^n in
F_q[T], their residues mod powers of a prime l of F_q[T] (which certify
weight periodicity) and the split of those residues into the parts over
a = 0 mod l and over the units.  One `ResidueRing` serves every quotient
ring on code arrays: F_q[T]/l^s for the periods and the split check,
F_q[T]/l for the split's zero rows and the unit filter of the exponent
check, and L[x]/(u1) for the torsion oracle.  It and
`_mul_add` stay apart from the scalar kernel behind `FqPoly`: they pay a
numpy call per digit, which pays off across hundreds of rows and not on
one polynomial.
"""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from hecketrace.ffield import (
    BudgetError,
    FqElem,
    FqField,
    InvariantError,
    Record,
    _retired,
    embed,
    factorize,
    fq_construct,
    rp_add,
    rp_divmod,
    rp_gcd,
    rp_is_irreducible,
    rp_monic,
    rp_mul,
    rp_powmod,
    rp_roots,
    rp_sub,
    rp_trim,
    weight_budget_check,
)

# unit-group enumeration cap: |l|^s residues, each a coefficient vector
EXPONENT_GROUP_CAP = 1 << 12


def s_tilde(p: int, s: int) -> int:
    """Smallest t >= 0 with p^t >= s, i.e. ceil(log_p(s))."""
    t, v = 0, 1
    while v < s:
        v *= p
        t += 1
    return t


def _fold_add(field: FqField, arr: np.ndarray) -> np.ndarray:
    """Sum of code arrays along axis 0: integers mod p in a prime field, XOR
    for p = 2, and otherwise a tree of Zech additions.  An empty axis sums
    to zeros."""
    if not len(arr):
        return np.zeros(arr.shape[1:], dtype=np.int64)
    if field.a == 1:
        return arr.sum(axis=0) % field.p
    if field.p == 2:
        return np.bitwise_xor.reduce(arr, axis=0)
    while arr.shape[0] > 1:
        n = arr.shape[0]
        half = n // 2
        top = field.v_add(arr[:half], arr[half : 2 * half])
        arr = np.concatenate([top, arr[2 * half :]], axis=0) if n % 2 else top
    return arr[0]


# ---------------------------------------------------------------------------
# F_q[T]: polynomials over the base field, on the ffield polynomial kernel


class FqPoly:
    """Polynomial over an FqField: a trimmed tuple of coefficient codes,
    ascending, run through the `ffield` polynomial kernel on the field's
    `ops`.  Int coefficients are integers, reduced mod p; element codes go
    through `fq_poly_from_codes`."""

    __slots__ = ("field", "_codes")

    def __init__(self, field: FqField, coeffs: Sequence):
        self.field = field
        self._codes = tuple(rp_trim([field.coerce(c).code for c in coeffs]))

    @property
    def coeffs(self) -> Tuple[FqElem, ...]:
        return tuple(self.field.decode(c) for c in self._codes)

    def codes(self) -> Tuple[int, ...]:
        return self._codes

    @property
    def degree(self) -> int:
        return len(self._codes) - 1

    def is_zero(self) -> bool:
        return not self._codes

    def __eq__(self, other):
        return isinstance(other, FqPoly) and self.field is other.field and self._codes == other._codes

    def __hash__(self):
        return hash((id(self.field), self._codes))

    def _run(self, kernel, *args) -> "FqPoly":
        """kernel(ops, codes, *args) as an FqPoly; FqPoly, int and FqElem
        arguments are passed as their codes."""
        args = [a._codes if isinstance(a, FqPoly) else [self.field.coerce(a).code] for a in args]
        return fq_poly_from_codes(self.field, kernel(self.field.ops, self._codes, *args))

    def __add__(self, other):
        return self._run(rp_add, other)

    def __sub__(self, other):
        return self._run(rp_sub, other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        return self._run(rp_mul, other)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FqPoly":
        return fq_poly_from_codes(self.field, rp_powmod(self.field.ops, self._codes, e))

    def divmod(self, other: "FqPoly") -> Tuple["FqPoly", "FqPoly"]:
        quo, rem = rp_divmod(self.field.ops, self._codes, other._codes)
        return fq_poly_from_codes(self.field, quo), fq_poly_from_codes(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other: "FqPoly") -> "FqPoly":
        return self._run(rp_gcd, other)

    def monic(self) -> "FqPoly":
        return self._run(rp_monic)

    def pow_mod(self, e: int, m: "FqPoly") -> "FqPoly":
        return fq_poly_from_codes(self.field, rp_powmod(self.field.ops, self._codes, e, m._codes))

    def is_irreducible(self) -> bool:
        return rp_is_irreducible(self.field.ops, self._codes)

    def roots(self) -> List[FqElem]:
        """All roots in the base field, sorted by code."""
        return [self.field.decode(c) for c in rp_roots(self.field.ops, self._codes)]

    def __repr__(self):
        parts = [f"{c}*T^{i}" for i, c in enumerate(self._codes) if c]
        return f"FqPoly({' + '.join(parts)} over F_{self.field.q})" if parts else "FqPoly(0)"


def fq_poly_from_codes(field: FqField, codes: Sequence[int]) -> FqPoly:
    poly = FqPoly.__new__(FqPoly)
    poly.field, poly._codes = field, tuple(rp_trim([c % field.q for c in codes]))
    return poly


def canonical_irreducibles(field: FqField, degree: int) -> List[FqPoly]:
    """All monic irreducible polynomials of the given degree, in code order."""
    q = field.q
    out = []
    for code in range(q**degree):
        coeffs = [code // q**i % q for i in range(degree)] + [1]
        if rp_is_irreducible(field.ops, coeffs):
            out.append(fq_poly_from_codes(field, coeffs))
    return out


# ---------------------------------------------------------------------------
# parameters: base field, prime P, level of the Frobenius


class DrinfeldParams(NamedTuple):
    """Everything fixed by the choice of (q, P, n).

    L is the field with q^m elements (m = n deg P), gamma_t the image of T
    under the reduction A -> L, and wp the monic generator P^n of the ideal
    the Hecke operator is taken at.
    """

    base: FqField
    P: FqPoly
    n: int
    L: FqField
    gamma_t: FqElem
    wp: FqPoly
    m: int

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def p(self) -> int:
        return self.base.p

    def reduce(self, f: FqPoly) -> FqElem:
        """Image of f under T -> gamma_t, coefficients embedded into L."""
        acc = self.L.zero
        for c in reversed(f.coeffs):
            acc = acc * self.gamma_t + embed(c, self.L)
        return acc


def drinfeld_params(P: FqPoly, n: int, max_field_size: Optional[int] = None) -> DrinfeldParams:
    """Build DrinfeldParams for the prime (P) and Frobenius power n."""
    base = P.field
    if P.degree < 1 or P.codes()[-1] != 1:
        raise ValueError("P must be monic of positive degree")
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n * P.degree
    # the field budget first: Rabin's test alone runs for long at a large deg P
    L = fq_construct(base.p, base.a * m, max_size=max_field_size)
    if not P.is_irreducible():
        raise ValueError("P must be irreducible")
    roots = FqPoly(L, [embed(c, L) for c in P.coeffs]).roots()
    if not roots:
        raise InvariantError(f"P has no root in the field with {L.q} elements")
    gamma_t = roots[0]
    params = DrinfeldParams(base, P, n, L, gamma_t, P**n, m)
    if not params.reduce(P).is_zero():
        raise InvariantError("P does not reduce to 0 at its chosen root")
    return params


# ---------------------------------------------------------------------------
# twisted polynomials over L as code arrays, tau c = c^q tau: one row per
# module, the last axis holds the coefficients of tau^0, tau^1, ...


def _tw_mul(L: FqField, q: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products x y of twisted polynomials, from
    (x_i tau^i)(y_j tau^j) = x_i y_j^{q^i} tau^{i+j}."""
    ny = y.shape[1]
    out = np.zeros((max(len(x), len(y)), x.shape[1] + ny - 1), dtype=np.int64)
    for i in range(x.shape[1]):
        y_qi = _frobenius_twist(L, y, q**i)
        out[:, i : i + ny] = L.v_add(out[:, i : i + ny], L.v_mul(x[:, i : i + 1], y_qi))
    return out


def _frobenius_twist(L: FqField, x: np.ndarray, e: int) -> np.ndarray:
    """x^e for every L-code x (e > 0), by one gather through the log and exp tables."""
    t, n = L.tables(), L.q - 1
    return np.where(x == 0, 0, t["exp"][t["log"][x] * (e % n) % n])


def _embed_codes(params: DrinfeldParams, codes) -> np.ndarray:
    """L-codes of base-field codes, digit by digit along the embedded F_p-basis."""
    base, L = params.base, params.L
    digits = np.asarray(codes, dtype=np.int64)[..., None] // base.p ** np.arange(base.a) % base.p
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for j in range(base.a):
        eps = np.int64(embed(base.decode(base.p**j), L).code)
        out = L.v_add(out, L.v_mul(digits[..., j], eps))
    return out


def _phi_t(params: DrinfeldParams, g: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """phi_T = gamma(T) + g tau + delta tau^2, one row per (g, delta)."""
    return np.stack([np.full(len(g), params.gamma_t.code), g, delta], axis=1)


def _phi(params: DrinfeldParams, phi_t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """phi_f by Horner, phi_f = phi_T phi_{f'} + f_0; f holds base-field codes,
    one polynomial per row of phi_t (or one row for all)."""
    ef = np.broadcast_to(_embed_codes(params, f), (len(phi_t), f.shape[-1]))
    acc = ef[:, -1:].copy()
    for i in range(f.shape[-1] - 2, -1, -1):
        acc = _tw_mul(params.L, params.q, phi_t, acc)
        acc[:, 0] = params.L.v_add(acc[:, 0], ef[:, i])
    return acc


def _pad(x: np.ndarray, shift: int, width: int) -> np.ndarray:
    """Rows of x moved right by shift (times tau^shift), zero-filled to width."""
    out = np.zeros((len(x), width), dtype=np.int64)
    out[:, shift : shift + x.shape[1]] = x
    return out


# ---------------------------------------------------------------------------
# one linear system over F_p, for the torsion oracle


def _system(params: DrinfeldParams, polys: Sequence[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Augmented F_p system sum_k x_k polys[k] = rhs with each x_k in F_q:
    a column eps_j polys[k] for every basis element eps_j of F_q over F_p,
    every tau-coefficient unrolled into its F_p coordinates."""
    L = params.L
    eps = _embed_codes(params, params.p ** np.arange(params.base.a))
    cols = [(poly, e) for poly in polys for e in eps] + [(rhs, 1)]
    place = L.p ** np.arange(L.a, dtype=np.int64)
    digits = [L.v_mul(poly, np.int64(e))[:, None] // place % L.p for poly, e in cols]
    return np.stack([d.reshape(-1) for d in digits], axis=1)


def _base_codes(params: DrinfeldParams, sol: np.ndarray) -> np.ndarray:
    """Base-field codes of a solution, [F_q : F_p] F_p digits per unknown."""
    a = params.base.a
    return (sol.reshape(-1, a) * params.p ** np.arange(a, dtype=np.int64)).sum(axis=-1)


def _solve_mod_p(mat: np.ndarray, p: int) -> Tuple[np.ndarray, str]:
    """Solve one augmented system (rows, unknowns + 1) mod p by Gauss-Jordan,
    in place.

    Returns the solution, meaningful only where the status is "unique", and
    the status: "unique", "none" (inconsistent) or "many" (a free unknown).
    """
    ncols = mat.shape[1] - 1
    rank = 0
    for col in range(ncols):
        nz = np.flatnonzero(mat[rank:, col])
        if not len(nz):
            continue
        mat[[rank, rank + nz[0]]] = mat[[rank + nz[0], rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, col]), p - 2, p) % p
        factors = mat[:, col].copy()
        factors[rank] = 0
        mat[:] = (mat - factors[:, None] * mat[rank]) % p
        rank += 1
    status = "none" if mat[rank:, ncols].any() else "many" if rank < ncols else "unique"
    return mat[:ncols, ncols], status


# ---------------------------------------------------------------------------
# class enumeration and Frobenius polynomials


class ClassTable(Record):
    """The twist-orbit representatives and their Frobenius data, one entry
    per class in (g, delta) code order, as read-only int64 code arrays.

    g and delta are L-codes, aut the twist stabilizer size (autOrder), size
    the orbit size; a holds the base-field codes of the T-digits of a
    (classes x digits, trailing all-zero columns trimmed, at least one) and
    b the base-field code of b, for the Frobenius X^2 - a X + b wp. Tables
    compare and hash by identity, as numpy compares arrays elementwise.
    """

    __slots__ = ("g", "delta", "aut", "size", "a", "b")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, g: np.ndarray, delta: np.ndarray, aut: np.ndarray,
                 size: np.ndarray, a: np.ndarray, b: np.ndarray):
        for arr in (g, delta, aut, size, a, b):
            arr.setflags(write=False)
        self._set(g, delta, aut, size, a, b)

    def __len__(self) -> int:
        return len(self.g)


# classes per block of the Frobenius data and its re-substitution check: over
# F_{5^6} (62520 classes) one block of all classes would raise the peak RSS
# of a fresh process's `enumerate_classes` from 41 to 127 MB
_FROBENIUS_BLOCK = 1 << 11


def _first_of_each(codes: np.ndarray, residues: np.ndarray, k: int) -> np.ndarray:
    """The first code of each residue class 0..k-1, in the order of codes."""
    first = np.full(k, len(codes))
    np.minimum.at(first, residues, np.arange(len(codes)))
    keep = np.zeros(len(codes), dtype=bool)
    keep[first] = True
    return codes[keep]


def _twist_orbits(L: FqField, q: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Code arrays (g, delta, autOrder, orbitSize) of the lex-least orbit
    representatives, in (g, delta) code order.

    For g = 0 the representative of each invariant log delta mod
    gcd(q^2-1, |L|-1) is the first delta that carries it.  For g != 0 it is
    the first g of its class log g mod q-1, with every delta: one g carries
    each value of log delta - (q+1) log g mod |L|-1 once.  A unit u fixes
    (g, delta) when u^{q^2-1} = 1 and, for g != 0, u^{q-1} = 1; the orbit
    size is (|L| - 1)/autOrder.
    """
    n = L.q - 1
    log, exp = L.tables()["log"], L.tables()["exp"]
    units = np.arange(1, L.q, dtype=np.int64)
    g0 = math.gcd(q * q - 1, n)
    d_first = _first_of_each(units, log[units] % g0, g0)
    g_first = _first_of_each(units, log[units] % (q - 1), q - 1)
    g = np.concatenate([np.zeros(len(d_first), dtype=np.int64), np.repeat(g_first, n)])
    delta = np.concatenate([d_first, np.tile(units, len(g_first))])
    t = np.arange(n, dtype=np.int64)
    fix_delta = exp[t * ((q * q - 1) % n) % n] == 1
    fix_g = exp[t * ((q - 1) % n) % n] == 1
    aut = np.where(g == 0, np.count_nonzero(fix_delta), np.count_nonzero(fix_delta & fix_g))
    return g, delta, aut, n // aut


def _motive_frobenius(
    params: DrinfeldParams, g: np.ndarray, delta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Codes (a, b) of X^2 - a X + b wp for every (g, delta), from the motive.

    tau acts on the basis {1, tau} of the motive L{tau} over L[T]
    semilinearly by A = [[0, (T - gamma)/delta], [1, -g/delta]], so tau^m
    acts by B = A A^(1) ... A^(m-1), where A^(i) raises the L-coefficients
    of A to the power q^i (Musleh-Schost, ISSAC 2019).  B takes m steps
    B <- B A^(i) on (classes x (m+1)) T-digit arrays, as deg B <= m.  Then
    a = tr B, with m + 1 digits that must lie in F_q (else InvariantError),
    and det B = b wp gives b = (-1)^m / N(delta), N the norm to F_q.
    """
    L, p, q, m, n = params.L, params.p, params.q, params.m, params.L.q - 1
    log, exp = L.tables()["log"], L.tables()["exp"]
    inv = exp[-log[delta] % n]
    # A's L-coefficients: 1/delta and -gamma/delta of (T - gamma)/delta, and -g/delta
    coeffs = (inv, L.v_mul(inv, np.int64((-params.gamma_t).code)), L.v_mul(L.v_mul(inv, g), np.int64(p - 1)))
    # columns 0 and 1 of B = I, each with its two rows on axis 0
    b0 = np.zeros((2, len(g), m + 1), dtype=np.int64)
    b1 = b0.copy()
    b0[0, :, 0] = b1[1, :, 0] = 1
    for i in range(m):
        u, c, d = (_frobenius_twist(L, x, q**i)[:, None] for x in coeffs)
        new = L.v_add(L.v_mul(b0, c), L.v_mul(b1, d))
        new[..., 1:] = L.v_add(new[..., 1:], L.v_mul(b0[..., :-1], u))
        b0, b1 = b1, new
    to_base = np.full(L.q, -1, dtype=np.int64)
    to_base[_embed_codes(params, np.arange(q))] = np.arange(q)
    a = to_base[L.v_add(b0[0], b1[1])]
    if (a < 0).any():
        raise InvariantError("Frobenius trace has a coefficient outside F_q")
    # log(-1) = n/2 for odd p (0 for p = 2), and log N(delta) = log(delta) n/(q-1)
    b = to_base[exp[(m * (n // 2 if p > 2 else 0) - log[delta] * (n // (q - 1))) % n]]
    return a, b


def _frobenius_batch(
    params: DrinfeldParams, g: np.ndarray, delta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Checked codes (a, b) of X^2 - a X + b wp for every (g, delta).

    After the motive product b != 0 and 2 deg(a) <= m must hold, and the
    relation tau^{2m} + b phi_wp = phi_a tau^m is re-substituted exactly,
    with phi_a built by Horner from a; each failure raises InvariantError.
    """
    L, m = params.L, params.m
    phi_t = _phi_t(params, g, delta)
    phi_wp = _phi(params, phi_t, np.array(params.wp.codes(), dtype=np.int64))
    a, b = _motive_frobenius(params, g, delta)
    if not b.all():
        raise InvariantError("Frobenius motive returned b = 0")
    deg = int(_code_degrees(a).max())
    if 2 * deg > m:
        raise InvariantError(f"deg a = {deg} exceeds m/2 for m = {m}")
    a = a[:, : m // 2 + 1]
    lhs = L.v_mul(phi_wp, _embed_codes(params, b)[:, None])
    lhs[:, 2 * m] = L.v_add(lhs[:, 2 * m], np.int64(1))
    rhs = _phi(params, phi_t, a)
    width = max(lhs.shape[1], m + rhs.shape[1])
    if not np.array_equal(_pad(lhs, 0, width), _pad(rhs, m, width)):
        raise InvariantError("Frobenius relation re-substitution failed")
    return a, b


def enumerate_classes(params: DrinfeldParams) -> ClassTable:
    """All twist-orbit representatives of (g, delta) in L x L^*, lex-least.

    The representatives are read off complete orbit invariants, without a
    bitmap of seen pairs; autOrder is the twist stabilizer size, which gives
    the orbit size, and the Frobenius data come from the motive product,
    `_FROBENIUS_BLOCK` classes at a time.  Checked, each failure raising
    InvariantError: autOrder * orbitSize = |L| - 1, autOrder = -1 mod p, the
    partition total sum(orbitSize) = |L|(|L|-1), and, in `_frobenius_batch`,
    a trace in F_q[T], b != 0, the slope bound 2 deg(a) <= m and the
    re-substituted relation, for every class.  The table's arrays are
    read-only; each job enumerates once and keeps the table or its rows.
    """
    p, qL = params.p, params.L.q
    g, delta, aut, size = _twist_orbits(params.L, params.q)
    bad = np.flatnonzero(aut * size != qL - 1)
    if len(bad):
        raise InvariantError(f"autOrder {aut[bad[0]]} times orbit size {size[bad[0]]} is not {qL - 1}")
    bad = np.flatnonzero(aut % p != p - 1)
    if len(bad):
        raise InvariantError(f"autOrder {aut[bad[0]]} is not -1 mod p = {p}")
    total = int(size.sum())
    if total != qL * (qL - 1):
        raise InvariantError(f"orbits cover {total} pairs, not |L|(|L|-1) = {qL * (qL - 1)}")
    blocks = [
        _frobenius_batch(params, g[lo : lo + _FROBENIUS_BLOCK], delta[lo : lo + _FROBENIUS_BLOCK])
        for lo in range(0, len(g), _FROBENIUS_BLOCK)
    ]
    a, b = (np.concatenate(parts) for parts in zip(*blocks))
    return ClassTable(g, delta, aut, size, _trim_columns(a), b)


# ---------------------------------------------------------------------------
# torsion oracle: Frobenius char poly mod an auxiliary prime, computed from
# the action on the torsion scheme without factoring anything


def frobenius_mod_torsion(
    params: DrinfeldParams, g: int, delta: int, laux: FqPoly
) -> Tuple[np.ndarray, np.ndarray]:
    """Codes of (trace, norm) of the Frobenius acting on the laux-torsion of
    the module with L-codes (g, delta), as residues mod laux.

    Works in L[x]/(phi_laux(x)/x): if tau^m acts as a scalar phi_c there the
    matrix is c*Id (trace 2c, norm c^2); otherwise (x, tau^m x) is a basis
    and the unique (alpha, chi) with tau^{2m} x = phi_alpha(tau^m x) -
    phi_chi(x) gives the companion matrix.  No factoring, no extensions.
    """
    base, L = params.base, params.L
    if laux.degree < 1 or laux.codes()[-1] != 1 or not laux.is_irreducible():
        raise ValueError("laux must be monic irreducible")
    if laux == params.P:
        raise ValueError("the auxiliary prime must not divide wp")
    D = laux.degree
    q, p = params.q, params.p
    phi_t = _phi_t(params, np.array([g]), np.array([delta]))
    phi_l = _phi(params, phi_t, np.array(laux.codes(), dtype=np.int64))[0]
    deg = int(_code_degrees(phi_l))
    if deg != 2 * D or phi_l[0] == 0:
        raise ArithmeticError(f"phi_laux has degree {deg}, not {2 * D}, or no x term")
    # U1 = phi_laux(x)/x, made monic; deg = q^{2D} - 1
    u1 = np.zeros(q ** (2 * D), dtype=np.int64)
    u1[q ** np.arange(2 * D + 1) - 1] = phi_l
    lead_inv = L.decode(int(u1[-1])).inverse().code
    ring = ResidueRing(L, L.v_mul(u1, np.int64(lead_inv)))

    lam = ring.zeros()
    lam[1] = 1
    w1 = ring.pow(lam, q**params.m)
    w2 = ring.pow(w1, q**params.m)

    phi_tpow = [np.ones((1, 1), dtype=np.int64)]
    for _ in range(D - 1):
        phi_tpow.append(_tw_mul(L, q, phi_t, phi_tpow[-1]))

    def apply_phis(v: np.ndarray) -> List[np.ndarray]:
        """[phi_{T^i}(v) mod U1 for i < D], via a q-power ladder."""
        ladder = [v]
        for _ in range(2 * (D - 1)):
            ladder.append(ring.pow(ladder[-1], q))
        ladder = np.stack(ladder)
        return [_fold_add(L, L.v_mul(ladder[: tw.shape[1]], tw[0][:, None])) for tw in phi_tpow]

    phis_lam = apply_phis(lam)
    sol, status = _solve_mod_p(_system(params, phis_lam, w1), p)
    if status == "unique":
        c = _base_codes(params, sol)
        return base.v_add(c, c), ResidueRing(base, laux.codes()).mul(c, c)
    if status == "many":
        raise ArithmeticError("scalar solve underdetermined; laux not irreducible?")
    neg_lam = [L.v_mul(v, np.int64(p - 1)) for v in phis_lam]
    sol, status = _solve_mod_p(_system(params, apply_phis(w1) + neg_lam, w2), p)
    if status != "unique":
        raise ArithmeticError(f"companion solve is {status}")
    # alpha and chi have D coefficients each, so they are residues already
    codes = _base_codes(params, sol)
    return codes[:D], codes[D:]


# ---------------------------------------------------------------------------
# the h-recurrence kernel and the Hecke trace


def _rows(params: DrinfeldParams, ring: Optional["ResidueRing"] = None) -> Tuple[np.ndarray, ...]:
    """Codes (a, b, scales) of the classes' keys (a, b), a mod the ring's
    modulus when a ring is given.  `enumerate_classes` checks that every
    autOrder is -1 mod p, so a key's classes sum to one row of weight
    -count mod p in F_p <= F_q; rows of weight 0 are dropped.  Row e of the
    (q - 1, rows) scales is weight * b^e; a type l at weight index k reads
    row (l - 1 - k) mod (q - 1).
    """
    base, p, q = params.base, params.p, params.q
    table = enumerate_classes(params)
    a = table.a if ring is None else ring.reduce(table.a)
    keys, counts = np.unique(np.column_stack([a, table.b]), axis=0, return_counts=True)
    keep = counts % p != 0
    a, b = _trim_columns(keys[keep, :-1]), keys[keep, -1]
    scales = np.empty((q - 1, len(b)), dtype=np.int64)
    scales[0] = -counts[keep] % p
    for e in range(1, q - 1):
        scales[e] = base.v_mul(scales[e - 1], b)
    return a, b, scales


def _trim_columns(arr: np.ndarray) -> np.ndarray:
    """Drop the trailing all-zero columns of a (rows, digits) code array."""
    nz = np.flatnonzero(arr.any(axis=0))
    return arr[:, : nz[-1] + 1 if len(nz) else 1]


def _nonzero_digits(x: np.ndarray) -> List[int]:
    """Indices of the digits (last axis) of x that are nonzero in some row."""
    return [i for i, nz in enumerate(x.reshape(-1, x.shape[-1]).any(axis=0).tolist()) if nz]


def _mul_add(field: FqField, acc: np.ndarray, h: np.ndarray, f: np.ndarray) -> None:
    """acc += h * f, as polynomials along the last (digit) axis and
    broadcast along the others; the loop runs over the digits of f, skipping
    those that are zero in every row."""
    width = h.shape[-1]
    for i in _nonzero_digits(f):
        window = acc[..., i : i + width]
        acc[..., i : i + width] = field.v_add(window, field.v_mul(h, f[..., i : i + 1]))


def _neg_b_wp(params: DrinfeldParams, b: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """Codes of -b wp, one row per entry of b, wp given by its T-digits."""
    base = params.base
    return base.v_mul(base.v_mul(b, np.int64(base.coerce(-1).code))[:, None], wp[None, :])


def _h_kernel(
    params: DrinfeldParams,
    rows: Tuple[np.ndarray, ...],
    kmax: int,
    types: Sequence[int],
    ring: Optional["ResidueRing"] = None,
) -> Iterator[np.ndarray]:
    """Yield, for k = 0..kmax, the codes of trace(k, l) for every l in types.

    One recurrence h_k = a h_{k-1} - b wp h_{k-2} (h_0 = 1, h_1 = a) runs
    for all the given rows of `_rows` at once on (rows, T-digits) code
    arrays; h_k, the symmetric sum x^i y^{k-i} at the Frobenius roots, is
    folded into every type as soon as it is made,

        trace(k, l) = -sum over rows of h_k weight b^{(l-1-k) mod (q-1)},

    and only h_{k-1} and h_{k-2} are kept.  The row for k has shape
    (len(types), width).  Without `ring` the arithmetic is exact in F_q[T]:
    h_k is trimmed to its degree after each step, and a degree past
    floor(k m / 2) raises InvariantError.  With `ring` the rows must key on
    a mod its modulus, and every step is reduced to width deg(modulus).
    """
    base, q = params.base, params.q
    a, b, scales = rows
    wp = np.array(params.wp.codes(), dtype=np.int64)
    if ring is not None:
        wp = ring.reduce(wp)
    w = _trim_columns(_neg_b_wp(params, b, wp))
    lres = np.array([l - 1 for l in types], dtype=np.int64)
    neg_one = np.int64(base.coerce(-1).code)
    h_prev = np.zeros((len(b), 1), dtype=np.int64)
    h = np.ones((len(b), 1), dtype=np.int64) if ring is None else ring.ones(len(b))
    for k in range(kmax + 1):
        if k:
            width = max(h.shape[1] + a.shape[1], h_prev.shape[1] + w.shape[1]) - 1
            acc = np.zeros((len(b), width), dtype=np.int64)
            _mul_add(base, acc, h, a)
            _mul_add(base, acc, h_prev, w)
            if ring is not None:
                h_next = ring.reduce(acc)
            else:
                h_next = _trim_columns(acc)
                if h_next.shape[1] > k * params.m // 2 + 1:
                    raise InvariantError(f"h_{k} has a digit past degree {k * params.m // 2}")
            h_prev, h = h, h_next
        terms = base.v_mul(scales[(lres - k) % (q - 1)][:, :, None], h[None, :, :])
        row = _fold_add(base, np.moveaxis(terms, 1, 0))
        yield base.v_mul(row, neg_one)


def _code_degrees(rows: np.ndarray) -> np.ndarray:
    """Degree of each code row along the last axis, -1 for the zero row."""
    nz = rows != 0
    top = rows.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1)
    return np.where(nz.any(axis=-1), top, -1)


def trace_Tpn(params: DrinfeldParams, k: int, l: int) -> FqPoly:
    """Exact trace of the wp-Hecke operator on weight k+2, type l forms.

    The last row of `_h_kernel` run to k on the exact rows, in F_q[T]; the
    type is read mod q-1.  It is -sum_j binom(k-j, j) (-wp)^j [c_{k-2j, l-j}].
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    for rows in _h_kernel(params, _rows(params), k, (l,)):
        pass
    return fq_poly_from_codes(params.base, rows[0].tolist())


# retired: the [c_{k,l}] moment tables are an oracle in tests/oracles.py, and
# the Frobenius data of one module are a row of `_frobenius_batch`
cl_table = _retired("drinfeld.cl_table")
frobenius_poly = _retired("drinfeld.frobenius_poly")


# ---------------------------------------------------------------------------
# residue rings: vectorized arithmetic on coefficient-code arrays


class ResidueRing:
    """field[x]/(modulus) on int64 code arrays whose last axis holds the
    x-digits, for a monic modulus given by its ascending codes.

    Row i of the reduction table holds the residue of x^(d+i), made from
    row i - 1 when an input first reaches that digit, so inputs of any width
    reduce.
    """

    def __init__(self, field: FqField, modulus_codes: Sequence[int]):
        codes = np.asarray(modulus_codes, dtype=np.int64)
        if len(codes) < 2:
            raise ValueError("modulus must have positive degree")
        if codes[-1] != 1:
            raise ValueError("modulus must be monic")
        self.field = field
        self.d = len(codes) - 1
        self.rows = [field.v_mul(codes[:-1], np.int64(field.coerce(-1).code))]

    def zeros(self, *shape: int) -> np.ndarray:
        return np.zeros(shape + (self.d,), dtype=np.int64)

    def ones(self, *shape: int) -> np.ndarray:
        out = self.zeros(*shape)
        out[..., 0] = 1
        return out

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Residues of code arrays of any width along the last axis.

        Only the digits below d change, so the digits at d and above that are
        nonzero in some row are found once, and only those are folded in."""
        f, d, width = self.field, self.d, x.shape[-1]
        if width <= d:
            out = self.zeros(*x.shape[:-1])
            out[..., :width] = x
            return out
        rows = self.rows
        while len(rows) < width - d:
            rows.append(f.v_add(np.concatenate([[0], rows[-1][:-1]]), f.v_mul(rows[0], rows[-1][-1])))
        out = x[..., :d].copy()
        for e in _nonzero_digits(x[..., d:]):
            out = f.v_add(out, f.v_mul(x[..., d + e : d + e + 1], rows[e]))
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape[-1] == b.shape[-1] == self.d == 1:
            return self.field.v_mul(a, b)  # field[x]/(x - c) is the field
        shape = np.broadcast(a[..., :1], b[..., :1]).shape[:-1]
        acc = np.zeros(shape + (a.shape[-1] + b.shape[-1] - 1,), dtype=np.int64)
        _mul_add(self.field, acc, b, a)
        return self.reduce(acc)

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        result = self.ones(*a.shape[:-1])
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def trace_sequence_mod(
    params: DrinfeldParams, lpoly: FqPoly, s: int, l: int, kmax: int
) -> np.ndarray:
    """Trace residues mod lpoly^s for k = 0..kmax, shape (kmax+1, deg(lpoly^s)).

    `_h_kernel` on the rows keyed (a mod lpoly^s, b): row k is the residue
    of trace_Tpn(params, k, l), without ever forming the exact trace.
    """
    ring = ResidueRing(params.base, (lpoly**s).codes())
    return np.stack([rows[0] for rows in _h_kernel(params, _rows(params, ring), kmax, (l,), ring)])


def minimal_period_mod(
    params: DrinfeldParams, lpoly: FqPoly, s: int, l: int, kmax: int
) -> Optional[int]:
    """Least n >= 1 with trace(k) = trace(k+n) mod lpoly^s on [0, kmax-n]."""
    seq = trace_sequence_mod(params, lpoly, s, l, kmax)
    for n in range(1, kmax // 2 + 1):
        if np.array_equal(seq[: kmax - n + 1], seq[n : kmax + 1]):
            return n
    return None


# ---------------------------------------------------------------------------
# the period table and the periodicity certificate


class DPeriodSpec(NamedTuple):
    """Resolved weight-period data for one (params, lpoly, s)."""

    lpoly: FqPoly
    s: int
    s_tilde: int
    m_ls: int
    case: str
    period: int
    k0: int


def residue_symbol(params: DrinfeldParams, lpoly: FqPoly) -> int:
    """Quadratic residue symbol (wp / lpoly) in {-1, 0, 1}, by Euler's rule."""
    base = params.base
    if base.p == 2:
        raise ValueError("residue symbol needs odd characteristic")
    e = (params.q ** lpoly.degree - 1) // 2
    symbols = {(): 0, (1,): 1, (base.coerce(-1).code,): -1}
    r = params.wp.pow_mod(e, lpoly).codes()
    if r not in symbols:
        raise InvariantError("Euler power is not 0 or +-1; lpoly not irreducible?")
    return symbols[r]


def dperiod_for(params: DrinfeldParams, lpoly: FqPoly, s: int) -> DPeriodSpec:
    """Weight period and floor k0 for traces mod lpoly^s.

    Four cases for lpoly != P: characteristic 2 and odd degree take the full
    p^{1+st}(|l|^2-1); even degree halves it when wp is a square mod lpoly
    and drops the extra p factor when it is not.  lpoly = P has period
    p^{st}(|l|-1) with a later floor.
    """
    base = params.base
    if lpoly.degree < 1 or lpoly.codes()[-1] != 1 or not lpoly.is_irreducible():
        raise ValueError("lpoly must be monic irreducible")
    if s < 1:
        raise ValueError("s must be >= 1")
    p = params.p
    size = params.q ** lpoly.degree
    st = s_tilde(p, s)
    m_ls = size - 1 if (p, s) == (2, 1) else p**st * (size - 1) // 2
    if lpoly == params.P:
        period = p**st * (size - 1)
        k0 = 2 * s - 1 if params.n == 1 else s
        case = "equal-prime"
    else:
        k0 = s - 1
        if p == 2:
            period = p ** (1 + st) * (size * size - 1)
            case = "char-two"
        elif lpoly.degree % 2 == 0:
            if residue_symbol(params, lpoly) == 1:
                period = p ** (1 + st) * (size * size - 1) // 2
                case = "even-deg-residue"
            else:
                period = p**st * (size * size - 1)
                case = "even-deg-nonresidue"
        else:
            period = p ** (1 + st) * (size * size - 1)
            case = "odd-deg"
    return DPeriodSpec(lpoly, s, st, m_ls, case, period, k0)


def verify_period_ff(
    params: DrinfeldParams,
    lpoly: FqPoly,
    s: int,
    l: int,
    kmin: Optional[int] = None,
    kmax: Optional[int] = None,
    max_weight: Optional[int] = None,
) -> Tuple[DPeriodSpec, List[dict], bool]:
    """Check trace(k) = trace(k + period) mod lpoly^s over a k-window.

    Each trace is -(N + U), with N and U the sums of h_k weight b^f over the
    rows keyed (a mod lpoly^s, b) with a = 0 mod lpoly and over the rest,
    the units: `_h_kernel` folds each row set.  The split check tests the
    lemma's two reductions on every row, a^s = 0 on the first set and
    a^(2 m_ls) = 1 on the units, one flag that every record reports.  N and
    U meet an independent recurrence only in the tests
    (`oracles.split_parts`).  Returns (spec, one record per k, overall
    flag); a window reaching below the spec floor k0 is an error, and one
    whose shifted end passes weight max_weight raises BudgetError.
    """
    spec = dperiod_for(params, lpoly, s)
    if kmin is None:
        kmin = spec.k0
    if kmin < spec.k0:
        raise ValueError(f"window starts at {kmin}, below the floor k0={spec.k0}")
    if kmax is None:
        kmax = spec.k0 + 2 * spec.period
    if kmax < kmin:
        raise ValueError("empty window")
    weight_budget_check(kmax + spec.period + 2, max_weight)
    base = params.base
    ring = ResidueRing(base, (lpoly**s).codes())
    a, b, scales = _rows(params, ring)
    zero = ~ResidueRing(base, lpoly.codes()).reduce(a).any(axis=1)
    parts = [
        np.stack([r[0] for r in _h_kernel(params, (a[rows], b[rows], scales[:, rows]),
                                          kmax + spec.period, (l,), ring)])
        for rows in (zero, ~zero)
    ]
    seq = base.v_add(*parts)
    neg_one = np.int64(base.coerce(-1).code)
    nvals, uvals = (base.v_mul(part[kmin : kmax + 1], neg_one) for part in parts)
    split_ok = bool((ring.pow(a[zero], s) == 0).all()
                    and (ring.pow(a[~zero], 2 * spec.m_ls) == ring.ones()).all())
    window, shifted = seq[kmin : kmax + 1], seq[kmin + spec.period : kmax + spec.period + 1]
    ok = (window == shifted).all(axis=1)
    cols = zip(window.tolist(), shifted.tolist(), ok.tolist(), nvals.tolist(), uvals.tolist())
    records = [
        {"k": k, "trace": tuple(tr), "shifted": tuple(sh), "ok": o,
         "n_part": tuple(nv), "u_part": tuple(uv), "split_ok": split_ok}
        for k, (tr, sh, o, nv, uv) in enumerate(cols, kmin)
    ]
    return spec, records, bool(ok.all()) and split_ok


# ---------------------------------------------------------------------------
# behaviour at infinity: integrality, periodicity, and the slope bound


def infty_period(params: DrinfeldParams, s: int) -> int:
    """Weight period of the normalized trace mod the s-th power of 1/T."""
    return params.p ** (1 + s_tilde(params.p, s)) * (params.q**2 - 1)


def verify_infty_period(
    params: DrinfeldParams,
    s: int,
    l: int,
    kmin: Optional[int] = None,
    kmax: Optional[int] = None,
) -> Tuple[int, List[dict], bool]:
    """Check the normalized traces agree mod (1/T)^s one period apart.

    With period n (always even), the test is deg((-wp)^{n/2} trace(k) -
    trace(k+n)) <= (ceil(k/2) + n/2) deg(wp) - s for all k in the window.
    """
    n = infty_period(params, s)
    if kmin is None:
        kmin = s - 1
    if kmin < s - 1:
        raise ValueError(f"window starts at {kmin}, below the floor {s - 1}")
    if kmax is None:
        kmax = kmin + 2 * n
    if kmax < kmin:
        raise ValueError("empty window")
    kernel = _h_kernel(params, _rows(params), kmax + n, (l,))
    traces = [fq_poly_from_codes(params.base, r[0].tolist()) for r in kernel]
    shift = (-params.wp) ** (n // 2)
    records = []
    all_ok = True
    for k in range(kmin, kmax + 1):
        diff = traces[k] * shift - traces[k + n]
        bound = (-(-k // 2) + n // 2) * params.wp.degree - s
        ok = diff.is_zero() or diff.degree <= bound
        all_ok = all_ok and ok
        records.append({"k": k, "ok": ok})
    return n, records, all_ok


class RamanujanReport(NamedTuple):
    """Outcome of the finite slope-bound check for one params."""

    params: DrinfeldParams
    vacuous: bool
    s: Optional[int]
    s_tilde: Optional[int]
    k_limit: int
    rows: Tuple[Tuple[int, int, Optional[int], int, bool], ...]
    all_ok: bool


def ramanujan_check(params: DrinfeldParams) -> RamanujanReport:
    """Verify trace/(-wp)^{ceil(k/2)} = 0 mod (1/T)^s on the finite window.

    s = n deg(P)(q-1)/2; a fractional s makes the bound statement vacuous
    and is reported as such.  Otherwise the periodicity at infinity reduces
    the bound to types 1 <= l <= q-1 and weights k < p^{1+st}(q^2-1) + s,
    checked row by row as deg(trace) <= ceil(k/2) deg(wp) - s.
    """
    q, p = params.q, params.p
    two_s = params.n * params.P.degree * (q - 1)
    if two_s % 2:
        return RamanujanReport(params, True, None, None, 0, (), True)
    s = two_s // 2
    st = s_tilde(p, s)
    k_limit = p ** (1 + st) * (q * q - 1) + s
    kernel = _h_kernel(params, _rows(params), k_limit - 1, range(1, q))
    degs = np.stack([_code_degrees(r) for r in kernel], axis=1)
    rows = []
    all_ok = True
    for l in range(1, q):
        for k in range(k_limit):
            bound = -(-k // 2) * params.wp.degree - s
            deg = int(degs[l - 1, k])
            ok = deg <= bound or deg < 0
            all_ok = all_ok and ok
            rows.append((k, l, deg if deg >= 0 else None, bound, ok))
    return RamanujanReport(params, False, s, st, k_limit, tuple(rows), all_ok)


# ---------------------------------------------------------------------------
# unit-group exponent of F_q[T]/l^s, by enumeration


def _unit_array(lpoly: FqPoly, s: int) -> Tuple[ResidueRing, np.ndarray]:
    """The ring F_q[T]/lpoly^s and the code rows of all its units."""
    field = lpoly.field
    q, D = field.q, lpoly.degree * s
    size = q**D
    if size > EXPONENT_GROUP_CAP:
        raise BudgetError(f"residue count {size} exceeds the enumeration cap {EXPONENT_GROUP_CAP}")
    grids = np.meshgrid(*[np.arange(q, dtype=np.int64)] * D, indexing="ij")
    residues = np.stack([g.reshape(-1) for g in grids], axis=-1)
    # the units are the residues that stay nonzero mod lpoly
    units = residues[ResidueRing(field, lpoly.codes()).reduce(residues).any(axis=1)]
    expected_units = q ** (lpoly.degree * (s - 1)) * (q**lpoly.degree - 1)
    if len(units) != expected_units:
        raise ArithmeticError(f"found {len(units)} units, not {expected_units}")
    return ResidueRing(field, (lpoly**s).codes()), units


def unit_group_exponent(lpoly: FqPoly, s: int) -> int:
    """Exact exponent of (F_q[T]/lpoly^s)^*, by brute force over all units.

    Lagrange descent from the group order: a prime factor is peeled off the
    candidate exponent only after every unit passes the power test (a pass
    over the first four units rejects most candidates before the full one).
    """
    field = lpoly.field
    if lpoly.degree < 1 or lpoly.codes()[-1] != 1 or not lpoly.is_irreducible():
        raise ValueError("lpoly must be monic irreducible")
    if s < 1:
        raise ValueError("s must be >= 1")
    ring, units = _unit_array(lpoly, s)

    def passes(e: int, rows: np.ndarray) -> bool:
        return bool((ring.pow(rows, e) == ring.ones()).all())

    order = len(units)
    if not passes(order, units):
        raise ArithmeticError(f"some unit has u^{order} != 1 for the group order {order}")
    exponent = order
    for prime in sorted(factorize(order)):
        while exponent % prime == 0:
            cand = exponent // prime
            if passes(cand, units[:4]) and passes(cand, units):
                exponent = cand
            else:
                break
    return exponent


def exponent_check(lpoly: FqPoly, s: int) -> bool:
    """Compare the brute-force unit-group exponent with p^{st}(|l| - 1)."""
    field = lpoly.field
    got = unit_group_exponent(lpoly, s)
    size = field.q ** lpoly.degree
    return got == field.p ** s_tilde(field.p, s) * (size - 1)
