"""Exact arithmetic in F_q and its extensions, and the one polynomial kernel.

Everything is integer based: field elements are coefficient vectors over F_p,
optionally mirrored into numpy log/exp/Zech tables for bulk work. No floats.
The `rp_*` functions do dense polynomial arithmetic on element codes over any
ring that supplies four scalar operations: F_p and F_q here (`FieldOps`), Z/m
in `congruences`, and F_q[T] through `drinfeld.FqPoly`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_MAX_FIELD_SIZE = 1 << 20
DEFAULT_MAX_WEIGHT = 2048


class BudgetError(ValueError):
    """Raised when a computation would exceed a configured resource cap."""


class InvariantError(ArithmeticError):
    """Raised when a computed result fails one of its exact invariant checks."""


class CertificateRefused(Exception):
    """The certificate preconditions failed, as opposed to a value mismatch."""


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's limit on int <-> decimal string conversions (4300 digits
    by default) inside the block: exact traces and moments can be longer."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def weight_budget_check(top_weight: int, max_weight: Optional[int]) -> None:
    """Raise BudgetError when a verification window reaches past weight
    max_weight; None sets no cap."""
    if max_weight is not None and top_weight > max_weight:
        raise BudgetError(
            f"weight {top_weight} exceeds max_weight={max_weight}; raise it with --max-weight"
        )


def field_budget_check(q: int, degree: int, max_size: Optional[int]) -> None:
    """Raise BudgetError when q^degree passes the field-size cap (None: the
    default); a q^degree far past it is refused by bit length, unformed."""
    cap = DEFAULT_MAX_FIELD_SIZE if max_size is None else max_size
    if degree * (q.bit_length() - 1) >= cap.bit_length() or q**degree > cap:
        raise BudgetError(
            f"requested size {q}^{degree} exceeds max_field_size={cap}; raise it with --max-field-size"
        )


def _retired(name: str):
    """A stand-in for the retired entry point `name` (dotted, below the
    package) that raises when called.  The stand-ins remain only because
    perfbench/traced.py looks each name up to install its timing wrappers."""

    def retired(*args, **kwargs):
        raise NotImplementedError(f"hecketrace.{name} is retired")

    retired.__name__ = retired.__qualname__ = name.rsplit(".", 1)[-1]
    return retired


# ---------------------------------------------------------------------------
# primality


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any field size used here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Trial-division factorization, adequate for the sizes in this package."""
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Record:
    """Base of the read-only records that carry behaviour: the fields are
    the subclass's __slots__, set once by `_set`, and two records are equal,
    and hash alike, when they have one type and equal fields. Plain records
    are `typing.NamedTuple`s; neither kind loads `dataclasses`."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class PrimePower(Record):
    """A validated prime power q = p^a."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if a < 1:
            raise ValueError("exponent must be positive")
        self._set(p, a)

    @property
    def q(self) -> int:
        return self.p ** self.a


def prime_power_decompose(q: int) -> PrimePower:
    """Write q as p^a or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            return PrimePower(q, 1)
        if q % p:
            continue
        a = 0
        m = q
        while m % p == 0:
            m //= p
            a += 1
        if m != 1:
            raise ValueError(f"{q} is not a prime power")
        return PrimePower(p, a)
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# the polynomial kernel: dense polynomials as lists of element codes,
# ascending powers, trimmed.  A ring supplies four scalar operations on codes,
# add, neg, mul and inv, and code 0 is zero and code 1 is one in every ring
# used: F_p and F_q through `FieldOps`, Z/m through `congruences.ZMod`.
# Rabin's test and the root finder also read the field's q, p and a.


class FieldOps:
    """The kernel's scalar operations on the element codes of F_{p^a}: ints
    mod p when a = 1, otherwise the field's log, exp and Zech tables, indexed
    in place (list copies of the F_{2^20} tables would cost about 100 MB).
    For a = 1 the arithmetic is that of Z/p for any p >= 2, where inv raises
    ValueError on a non-unit, which `congruences.ZMod` relies on."""

    def __init__(self, p: int, a: int = 1, tables: Optional[dict] = None):
        self.p, self.a, self.q = p, a, p**a
        if a == 1:
            self.add = lambda x, y: (x + y) % p
            self.neg = lambda x: -x % p
            self.mul = lambda x, y: x * y % p
            self.inv = lambda x: pow(x, -1, p)
            return
        log, exp, zech, n = tables["log"], tables["exp"], tables["zech"], self.q - 1

        def add(x: int, y: int) -> int:
            if not x or not y:
                return x or y
            z = zech[(log[y] - log[x]) % n]  # -1 where y = -x
            return 0 if z < 0 else int(exp[(log[x] + z) % n])

        self.add = add
        self.mul = mul = lambda x, y: int(exp[(log[x] + log[y]) % n]) if x and y else 0
        self.neg = lambda x: mul(x, p - 1)  # -1 is the constant p - 1, code p - 1
        self.inv = lambda x: int(exp[-log[x] % n])


def rp_trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def rp_add(ring, f: Sequence[int], g: Sequence[int]) -> list:
    if len(f) < len(g):
        f, g = g, f
    out, add = list(f), ring.add
    for i, c in enumerate(g):
        out[i] = add(out[i], c)
    return rp_trim(out)


def rp_sub(ring, f: Sequence[int], g: Sequence[int]) -> list:
    neg = ring.neg
    return rp_add(ring, f, [neg(c) for c in g])


def rp_monic(ring, f: Sequence[int]) -> list:
    """f over its leading coefficient, which must be invertible."""
    return list(f) if not f or f[-1] == 1 else rp_mul(ring, f, [ring.inv(f[-1])])


def rp_mul(ring, f: Sequence[int], g: Sequence[int]) -> list:
    if not f or not g:
        return []
    add, mul = ring.add, ring.mul
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g, i):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return rp_trim(out)


def rp_divmod(ring, f: Sequence[int], d: Sequence[int]) -> Tuple[list, list]:
    """Quotient and remainder of long division by d, whose leading
    coefficient must be invertible (`ring.inv` raises otherwise)."""
    d = rp_trim(list(d))
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = 1 if d[-1] == 1 else ring.inv(d[-1])
    add, mul, top = ring.add, ring.mul, len(d) - 1
    rem = list(f)
    if len(rem) <= top:
        return [], rp_trim(rem)
    neg_d = [ring.neg(b) for b in d[:-1]]
    quo = [0] * (len(rem) - top)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + top]
        if c:
            c = quo[k] = c if inv_lead == 1 else mul(c, inv_lead)
            for i, b in enumerate(neg_d, k):
                if b:
                    rem[i] = add(rem[i], mul(c, b))
    return rp_trim(quo), rp_trim(rem[:top])


def rp_powmod(ring, f: Sequence[int], e: int, m: Optional[Sequence[int]] = None) -> list:
    """f^e by repeated squaring, reduced mod m when m is given."""
    if e < 0:
        raise ValueError("negative exponent")

    def reduce(g: list) -> list:
        return g if m is None else rp_divmod(ring, g, m)[1]

    result, base = [1], reduce(list(f))
    while e:
        if e & 1:
            result = reduce(rp_mul(ring, result, base))
        e >>= 1
        if e:
            base = reduce(rp_mul(ring, base, base))
    return result


def rp_gcd(ring, f: Sequence[int], g: Sequence[int]) -> list:
    """The monic gcd over a field; [] when f and g are both zero."""
    f, g = rp_trim(list(f)), rp_trim(list(g))
    while g:
        f, g = g, rp_divmod(ring, f, g)[1]
    return rp_monic(ring, f)


def rp_series_quotient(ring, f: Sequence[int], d: Sequence[int], nterms: int) -> list:
    """First nterms coefficients of the power series f/d; d[0] must be a unit."""
    if not d or not d[0]:
        raise ValueError("constant term of the denominator is not a unit")
    add, mul, inv0 = ring.add, ring.mul, ring.inv(d[0])
    neg_d = [ring.neg(c) for c in d]
    out: list = []
    for k in range(nterms):
        acc = f[k] if k < len(f) else 0
        for j in range(1, min(k, len(d) - 1) + 1):
            acc = add(acc, mul(neg_d[j], out[k - j]))
        out.append(mul(acc, inv0))
    return out


def rp_is_irreducible(ring, f: Sequence[int]) -> bool:
    """Rabin's test over the field F_q: f of degree n > 1 is irreducible iff
    x^(q^n) = x mod f and gcd(f, x^(q^(n/r)) - x) = 1 for each prime r | n."""
    f = rp_monic(ring, rp_trim(list(f)))
    n, x = len(f) - 1, [0, 1]
    if n <= 1:
        return n == 1
    if rp_sub(ring, rp_powmod(ring, x, ring.q**n, f), x):
        return False
    return all(
        len(rp_gcd(ring, f, rp_sub(ring, rp_powmod(ring, x, ring.q ** (n // r), f), x))) == 1
        for r in factorize(n)
    )


def rp_roots(ring, f: Sequence[int]) -> List[int]:
    """Codes of all roots of f in the field F_q, sorted, by equal-degree
    splitting (Cantor-Zassenhaus).

    r = gcd(f, x^q - x) is the product of the distinct linear factors.  It is
    split by gcd(r, (x + d)^((q-1)/2) - 1) for odd q, and by gcd(r, Tr(d x))
    with Tr(y) = y + y^2 + ... + y^(q/2) for even q, with d running over every
    code once, in the order i M mod q for i = 1, ..., q, until every factor is
    linear.  M is near 0.618 q and prime to q: the codes 1, 2, 3, ... stay in
    the F_p-span of 1 and the generator for p^2 probes, and there they can
    fail to separate roots that lie in a subfield.
    """
    f = rp_monic(ring, rp_trim(list(f)))
    if not f:
        raise ValueError("the zero polynomial has every element as a root")
    q, x = ring.q, [0, 1]

    def probe(d: int, r: list) -> list:
        if ring.p != 2:
            return rp_sub(ring, rp_powmod(ring, [d, 1], (q - 1) // 2, r), [1])
        t = acc = rp_divmod(ring, [0, d], r)[1]
        for _ in range(ring.a - 1):
            t = rp_divmod(ring, rp_mul(ring, t, t), r)[1]
            acc = rp_add(ring, acc, t)
        return acc

    stride = int(0.618 * q) or 1
    while math.gcd(stride, q) != 1:
        stride += 1
    todo = [rp_gcd(ring, f, rp_sub(ring, rp_powmod(ring, x, q, f), x))] if len(f) > 1 else []
    roots = []
    while todo:
        r = todo.pop()
        if len(r) == 2:
            roots.append(ring.neg(r[0]))
        elif len(r) > 2:
            for i in range(1, q + 1):
                g = rp_gcd(ring, r, probe(i * stride % q, r))
                if 1 < len(g) < len(r):
                    todo += [g, rp_divmod(ring, r, g)[0]]
                    break
            else:
                raise InvariantError(f"no split of a product of {len(r) - 1} linear factors")
    return sorted(roots)


def canonical_modulus(p: int, a: int) -> Tuple[int, ...]:
    """Lexicographically least monic irreducible of degree a over F_p.

    Candidates are ordered by their integer code sum(c_i p^i), which agrees
    with lex order on coefficient tuples read from the leading term down.
    """
    if a == 1:
        return (0, 1)
    ring = FieldOps(p)
    for code in range(p**a, 2 * p**a):
        coeffs = [code // p**i % p for i in range(a + 1)]
        # coeffs[0] = 0: x | f, reducible; cheap skip
        if coeffs[0] and rp_is_irreducible(ring, coeffs):
            return tuple(coeffs)
    raise InvariantError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# fields and elements


class FqElem:
    """Immutable element of an FqField, stored as an F_p coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FqField", coeffs: Tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        other = self.field.coerce(other)
        return FqElem(self.field, self.field._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self.field.coerce(other)

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        return FqElem(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return FqElem(self.field, self.field._neg(self.coeffs))

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def __pow__(self, e: int):
        f = self.field
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return f.one if e == 0 else f.zero
        e %= f.q - 1
        if f.a == 1:
            return FqElem(f, (pow(self.coeffs[0], e, f.p),))
        r = rp_powmod(f._fp, self.coeffs, e, f.modulus)
        return FqElem(f, tuple(r) + (0,) * (f.a - len(r)))

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def code(self) -> int:
        c = 0
        for d in reversed(self.coeffs):
            c = c * self.field.p + d
        return c

    def frobenius(self, times: int = 1) -> "FqElem":
        """Apply x -> x^p repeatedly."""
        return self ** pow(self.field.p, times, self.field.q - 1) if not self.is_zero() else self

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.a, self.coeffs))

    def __repr__(self):
        return f"Fq({self.field.q}).decode({self.code})"


class FqField:
    """The finite field with p^a elements and its canonical modulus."""

    def __init__(self, p: int, a: int):
        self.p = p
        self.a = a
        self.q = p ** a
        self.modulus = canonical_modulus(p, a)
        self._fp = FieldOps(p)
        self.zero = FqElem(self, (0,) * a)
        self.one = FqElem(self, tuple([1] + [0] * (a - 1)))
        self.gen = FqElem(self, tuple([0, 1] + [0] * (a - 2))) if a > 1 else FqElem(self, (1,))
        self._tables: Optional[dict] = None
        self._trace_table: Optional[np.ndarray] = None

    # tuple-level arithmetic -------------------------------------------------

    def _add(self, u, v):
        p = self.p
        return tuple((x + y) % p for x, y in zip(u, v))

    def _neg(self, u):
        p = self.p
        return tuple((-x) % p for x in u)

    def _mul(self, u, v):
        """The product in F_p[x] reduced mod the modulus, by the kernel."""
        if self.a == 1:
            return (u[0] * v[0] % self.p,)
        r = rp_divmod(self._fp, rp_mul(self._fp, u, v), self.modulus)[1]
        return tuple(r) + (0,) * (self.a - len(r))

    # element constructors ---------------------------------------------------

    def coerce(self, v) -> FqElem:
        if isinstance(v, FqElem):
            if v.field is not self:
                raise TypeError("element from a different field")
            return v
        if isinstance(v, int):
            return FqElem(self, tuple([v % self.p] + [0] * (self.a - 1)))
        raise TypeError(f"cannot coerce {v!r}")

    def elem(self, coeffs: Iterable[int]) -> FqElem:
        c = [x % self.p for x in coeffs]
        if len(c) > self.a:
            raise ValueError("too many coefficients")
        c += [0] * (self.a - len(c))
        return FqElem(self, tuple(c))

    def decode(self, code: int) -> FqElem:
        if not 0 <= code < self.q:
            raise ValueError("code out of range")
        c = []
        for _ in range(self.a):
            c.append(code % self.p)
            code //= self.p
        return FqElem(self, tuple(c))

    # multiplicative structure -----------------------------------------------

    def multiplicative_generator(self) -> FqElem:
        fac = factorize(self.q - 1)
        for code in range(1, self.q):
            g = self.decode(code)
            if g.is_zero():
                continue
            if all((g ** ((self.q - 1) // r)) != self.one for r in fac) or self.q == 2:
                return g
        raise InvariantError("no generator found")

    @functools.cached_property
    def ops(self) -> FieldOps:
        """The polynomial kernel's scalar operations on this field's codes;
        an extension field builds its tables for them."""
        return FieldOps(self.p, self.a, self.tables()) if self.a > 1 else self._fp

    # numpy table layer -------------------------------------------------------

    def tables(self) -> dict:
        """Lazily built log/exp/Zech tables keyed by integer codes."""
        if self._tables is not None:
            return self._tables
        q, p, a = self.q, self.p, self.a
        g = self.multiplicative_generator()
        # Multiplication by g^B is F_p-linear: row i of its matrix holds the
        # digits of x^i g^B, so the digit rows of g^0 .. g^(B-1) times it give
        # those of g^B .. g^(2B-1). Doubling B fills exp in log2(q) steps,
        # each in blocks of rows to bound the digit arrays.
        pw = p ** np.arange(a, dtype=np.int64)
        step = np.array([(self.elem([0] * i + [1]) * g).coeffs for i in range(a)], dtype=np.int64)
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        n = 1
        while n < q - 1:
            m = min(n, q - 1 - n)
            for lo in range(0, m, 1 << 16):
                digits = exp[lo : min(m, lo + (1 << 16)), None] // pw % p
                exp[n + lo : n + lo + len(digits)] = digits @ step % p @ pw
            step = step @ step % p
            n += m
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        # Zech logarithms: zech[i] = log(g^i + 1), -1 when g^i + 1 == 0
        if p == 2:
            plus_one = exp ^ 1
        else:
            c0 = exp % p
            plus_one = exp - c0 + (c0 + 1) % p
        zech = log[plus_one]
        self._tables = {"exp": exp, "log": log, "zech": zech, "gen": g}
        return self._tables

    def v_add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Addition of code arrays: XOR for p = 2, integer addition mod p in
        a prime field, and otherwise x + y = x (1 + y/x) by the Zech
        logarithms, whose cost does not grow with the degree."""
        p, q = self.p, self.q
        if p == 2:
            return x ^ y
        if self.a == 1:
            return (x + y) % p
        t = self.tables()
        log, exp, zech = t["log"], t["exp"], t["zech"]
        lx, ly = log[x], log[y]
        z = zech[(ly - lx) % (q - 1)]  # -1 where y = -x
        out = np.where(z < 0, 0, exp[(lx + z) % (q - 1)])
        return np.where(x == 0, y, np.where(y == 0, x, out))

    def v_mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Multiplication of code arrays: integer product mod p in a prime
        field, and otherwise through the log and exp tables."""
        if self.a == 1:
            return np.asarray(x, dtype=np.int64) * y % self.p
        t = self.tables()
        log, exp = t["log"], t["exp"]
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        nz = (x != 0) & (y != 0)
        lx = log[np.broadcast_to(x, out.shape)[nz]]
        ly = log[np.broadcast_to(y, out.shape)[nz]]
        out[nz] = exp[(lx + ly) % (self.q - 1)]
        return out

    v_poly_eval = _retired("ffield.FqField.v_poly_eval")

    def v_chi(self, x: np.ndarray) -> np.ndarray:
        """Quadratic character of code array entries (odd characteristic)."""
        if self.p == 2:
            raise ValueError("the quadratic character needs odd characteristic")
        log = self.tables()["log"]
        out = np.where(x == 0, 0, np.where(log[x] % 2 == 0, 1, -1))
        return out

    def trace_table(self) -> np.ndarray:
        """Absolute trace to F_p of every element, indexed by code."""
        if self._trace_table is not None:
            return self._trace_table
        q = self.q
        codes = np.arange(q, dtype=np.int64)
        t = self.tables()
        log, exp = t["log"], t["exp"]
        acc = codes.copy()
        cur = codes.copy()
        e = self.a
        for _ in range(e - 1):
            nz = cur != 0
            nxt = np.zeros_like(cur)
            nxt[nz] = exp[(log[cur[nz]] * self.p) % (q - 1)]
            cur = nxt
            acc = self.v_add(acc, cur)
        # acc holds elements of F_p embedded as constants; code == value
        self._trace_table = acc % self.p if self.p > 2 else acc
        return self._trace_table

    def __repr__(self):
        return f"FqField(p={self.p}, a={self.a})"


# kept: FqElem and FqPoly equality compares fields by identity, so one (p, a) needs one object
_FIELD_CACHE: dict = {}


def fq_construct(p: int, a: int, max_size: Optional[int] = None) -> FqField:
    """Return the cached field F_{p^a} with the canonical modulus.

    Raises BudgetError when p^a exceeds the field-size cap.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 1:
        raise ValueError("extension degree must be >= 1")
    field_budget_check(p, a, max_size)
    key = (p, a)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FqField(p, a)
    return _FIELD_CACHE[key]


def field_for(q: int, max_size: Optional[int] = None) -> FqField:
    """The cached field of order q; ValueError unless q is a prime power."""
    pp = prime_power_decompose(q)
    return fq_construct(pp.p, pp.a, max_size=max_size)


# kept: `embed` is called once per coefficient, and each miss runs `rp_roots`
_EMBED_CACHE: dict = {}


def embed(e: FqElem, target: FqField) -> FqElem:
    """Map e into an extension field along the canonical embedding.

    The embedding sends the source generator to the least root (by code) of
    the source modulus in the target, found by `rp_roots` (the modulus has
    F_p coefficients, whose codes are the same in every extension); a prime
    source field needs no root, as its elements are the constants.
    """
    src = e.field
    if src is target:
        return e
    if src.p != target.p or target.a % src.a != 0:
        raise ValueError(f"no embedding of F_{src.q} into F_{target.q}")
    key = (src.p, src.a, target.a)
    powers = _EMBED_CACHE.get(key)
    if powers is None:
        powers = [target.one]
        if src.a > 1:
            roots = rp_roots(target.ops, src.modulus)
            if len(roots) != src.a:
                raise InvariantError(
                    f"the modulus of F_{src.q} has {len(roots)} roots in F_{target.q}"
                )
            for _ in range(src.a - 1):
                powers.append(powers[-1] * target.decode(roots[0]))
        _EMBED_CACHE[key] = powers
    acc = target.zero
    for c, pw in zip(e.coeffs, powers):
        if c:
            acc = acc + pw * c
    return acc
