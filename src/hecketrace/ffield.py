"""Exact arithmetic in F_q, its extensions, and small residue rings.

Everything is integer based: field elements are coefficient vectors over F_p,
optionally mirrored into numpy log/exp/Zech tables for bulk work. No floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_MAX_FIELD_SIZE = 1 << 20
DEFAULT_MAX_WEIGHT = 2048


class BudgetError(ValueError):
    """Raised when a computation would exceed a configured resource cap."""


def _budget_check(size: int, max_size: Optional[int], cap_name: str, flag: str) -> None:
    cap = DEFAULT_MAX_FIELD_SIZE if max_size is None else max_size
    if size > cap:
        raise BudgetError(
            f"requested size {size} exceeds {cap_name}={cap}; raise it with {flag}"
        )


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


@dataclass(frozen=True)
class PrimePower:
    """A validated prime power q = p^a."""

    p: int
    a: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.a < 1:
            raise ValueError("exponent must be positive")

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
# dense polynomials over F_p as int tuples (ascending powers)


def _pp_trim(c: List[int]) -> Tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pp_mul(u: Sequence[int], v: Sequence[int], p: int) -> Tuple[int, ...]:
    if not u or not v:
        return ()
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return _pp_trim(out)


def _pp_mod(u: Sequence[int], m: Sequence[int], p: int) -> Tuple[int, ...]:
    r = list(u)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(r) - 1 >= dm and r:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dm:
            break
        c = r[-1] * inv_lead % p
        shift = len(r) - 1 - dm
        for i, b in enumerate(m):
            r[shift + i] = (r[shift + i] - c * b) % p
    return _pp_trim(r)


def _pp_powmod(u: Sequence[int], e: int, m: Sequence[int], p: int) -> Tuple[int, ...]:
    result: Tuple[int, ...] = (1,)
    base = _pp_mod(u, m, p)
    while e:
        if e & 1:
            result = _pp_mod(_pp_mul(result, base, p), m, p)
        base = _pp_mod(_pp_mul(base, base, p), m, p)
        e >>= 1
    return result


def _pp_gcd(u: Tuple[int, ...], v: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    while v:
        u, v = v, _pp_mod(u, v, p)
    return u


def _pp_is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    n = len(f) - 1
    if n <= 0:
        return False
    x = (0, 1)

    def minus_x(g: Tuple[int, ...]) -> Tuple[int, ...]:
        d = list(g) + [0] * (2 - len(g))
        d[1] = (d[1] - 1) % p
        return _pp_trim(d)

    if minus_x(_pp_powmod(x, p ** n, f, p)):
        return False
    for r in factorize(n):
        h = minus_x(_pp_powmod(x, p ** (n // r), f, p))
        if len(_pp_gcd(h, tuple(f), p)) > 1:
            return False
    return True


def canonical_modulus(p: int, a: int) -> Tuple[int, ...]:
    """Lexicographically least monic irreducible of degree a over F_p.

    Candidates are ordered by their integer code sum(c_i p^i), which agrees
    with lex order on coefficient tuples read from the leading term down.
    """
    if a == 1:
        return (0, 1)
    base = p ** a
    for code in range(base, 2 * base):
        c = code
        coeffs = []
        for _ in range(a + 1):
            coeffs.append(c % p)
            c //= p
        if coeffs[0] == 0:
            continue  # x | f, reducible; cheap skip
        if _pp_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")


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
        other = self.field.coerce(other)
        return FqElem(self.field, self.field._sub(self.coeffs, other.coeffs))

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
        result = f.one.coeffs
        base = self.coeffs
        while e:
            if e & 1:
                result = f._mul(result, base)
            base = f._mul(base, base)
            e >>= 1
        return FqElem(f, result)

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
        # rows[i] = coefficients of x^(a+i) reduced mod the modulus
        rows = []
        cur = tuple((-c) % p for c in self.modulus[:-1])
        rows.append(cur)
        for _ in range(a - 2):
            nxt = [0] + list(cur[:-1])
            hi = cur[-1]
            if hi:
                for j in range(a):
                    nxt[j] = (nxt[j] + hi * rows[0][j]) % p
            cur = tuple(nxt)
            rows.append(cur)
        self._rows = rows
        self.zero = FqElem(self, (0,) * a)
        self.one = FqElem(self, tuple([1] + [0] * (a - 1)))
        self.gen = FqElem(self, tuple([0, 1] + [0] * (a - 2))) if a > 1 else FqElem(self, (1,))
        self._tables: Optional[dict] = None
        self._trace_table: Optional[np.ndarray] = None

    # tuple-level arithmetic -------------------------------------------------

    def _add(self, u, v):
        p = self.p
        return tuple((x + y) % p for x, y in zip(u, v))

    def _sub(self, u, v):
        p = self.p
        return tuple((x - y) % p for x, y in zip(u, v))

    def _neg(self, u):
        p = self.p
        return tuple((-x) % p for x in u)

    def _mul(self, u, v):
        p, a = self.p, self.a
        if a == 1:
            return (u[0] * v[0] % p,)
        prod = [0] * (2 * a - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = prod[:a]
        for i in range(a, 2 * a - 1):
            hi = prod[i]
            if hi:
                row = self._rows[i - a]
                for j in range(a):
                    out[j] = (out[j] + hi * row[j]) % p
        return tuple(out)

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

    def elements(self):
        for code in range(self.q):
            yield self.decode(code)

    def units(self):
        for code in range(1, self.q):
            yield self.decode(code)

    # multiplicative structure -----------------------------------------------

    def multiplicative_generator(self) -> FqElem:
        fac = factorize(self.q - 1)
        for code in range(1, self.q):
            g = self.decode(code)
            if g.is_zero():
                continue
            if all((g ** ((self.q - 1) // r)) != self.one for r in fac) or self.q == 2:
                return g
        raise AssertionError("no generator found")

    def element_order(self, x: FqElem) -> int:
        if x.is_zero():
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.q - 1
        for r, e in factorize(n).items():
            for _ in range(e):
                if x ** (n // r) == self.one:
                    n //= r
                else:
                    break
        return n

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

    def v_poly_eval(self, coeffs: Sequence[int], xs: np.ndarray) -> np.ndarray:
        """Evaluate a polynomial given by element codes at an array of codes."""
        out = np.full(xs.shape, coeffs[-1] if coeffs else 0, dtype=np.int64)
        for c in reversed(coeffs[:-1]):
            out = self.v_mul(out, xs)
            if c:
                out = self.v_add(out, np.full(xs.shape, c, dtype=np.int64))
        return out

    def v_chi(self, x: np.ndarray) -> np.ndarray:
        """Quadratic character of code array entries (odd characteristic)."""
        assert self.p != 2
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


_FIELD_CACHE: dict = {}


def fq_construct(p: int, a: int, max_size: Optional[int] = None) -> FqField:
    """Return the cached field F_{p^a} with the canonical modulus.

    Raises BudgetError when p^a exceeds the field-size cap.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 1:
        raise ValueError("extension degree must be >= 1")
    _budget_check(p ** a, max_size, "max_field_size", "--max-field-size")
    key = (p, a)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FqField(p, a)
    return _FIELD_CACHE[key]


_EMBED_CACHE: dict = {}


def embed(e: FqElem, target: FqField) -> FqElem:
    """Map e into an extension field along the canonical embedding.

    The embedding sends the source generator to the lexicographically least
    root of the source modulus in the target, found by exhaustive scan.
    """
    src = e.field
    if src is target:
        return e
    if src.p != target.p or target.a % src.a != 0:
        raise ValueError(f"no embedding of F_{src.q} into F_{target.q}")
    key = (src.p, src.a, target.a)
    powers = _EMBED_CACHE.get(key)
    if powers is None:
        coeffs = list(src.modulus)
        if target.q > 4096:
            vals = target.v_poly_eval(coeffs, np.arange(target.q, dtype=np.int64))
            roots = np.flatnonzero(vals == 0)
            assert len(roots) == src.a
            root = target.decode(int(roots[0]))
        else:
            root = None
            for cand in target.elements():
                acc = target.zero
                for c in reversed(coeffs):
                    acc = acc * cand + target.coerce(c)
                if acc.is_zero():
                    root = cand
                    break
            assert root is not None
        powers = [target.one]
        for _ in range(src.a - 1):
            powers.append(powers[-1] * root)
        _EMBED_CACHE[key] = powers
    acc = target.zero
    for c, pw in zip(e.coeffs, powers):
        if c:
            acc = acc + pw * c
    return acc


# ---------------------------------------------------------------------------
# dense polynomials over an FqField


class FqPoly:
    """Polynomial with FqElem coefficients, ascending powers, trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: Sequence):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, FqPoly) and self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return FqPoly(self.field, a)

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] - c
        return FqPoly(self.field, a)

    def __neg__(self):
        return FqPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            c = self.field.coerce(other)
            return FqPoly(self.field, [x * c for x in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return FqPoly(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return FqPoly(self.field, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "FqPoly":
        if isinstance(other, FqPoly):
            return other
        if isinstance(other, (int, FqElem)):
            return FqPoly(self.field, [other])
        raise TypeError(f"cannot coerce {other!r}")

    def divmod(self, other: "FqPoly") -> Tuple["FqPoly", "FqPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FqPoly(f, []), self
        inv_lead = other.coeffs[-1].inverse()
        quo = [f.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quo[k] = c
            if not c.is_zero():
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = rem[k + i] - c * b
        return FqPoly(f, quo), FqPoly(f, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other: "FqPoly") -> "FqPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "FqPoly":
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return FqPoly(self.field, [c * inv for c in self.coeffs])

    def pow_mod(self, e: int, m: "FqPoly") -> "FqPoly":
        result = FqPoly(self.field, [self.field.one])
        base = self % m
        while e:
            if e & 1:
                result = (result * base) % m
            base = (base * base) % m
            e >>= 1
        return result

    def evaluate(self, x: FqElem) -> FqElem:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_irreducible(self) -> bool:
        """Rabin irreducibility test over F_q."""
        n = self.degree
        if n <= 0:
            return False
        if n == 1:
            return True
        f = self.monic()
        q = self.field.q
        x = FqPoly(self.field, [self.field.zero, self.field.one])
        xq = x.pow_mod(q ** n, f)
        if xq != x % f:
            return False
        for r in factorize(n):
            h = x.pow_mod(q ** (n // r), f) - x
            if f.gcd(h).degree > 0:
                return False
        return True

    def roots(self) -> List[FqElem]:
        """All roots in the base field, by exhaustive scan."""
        out = []
        fld = self.field
        if fld.q > 4096:
            vals = fld.v_poly_eval([c.code for c in self.coeffs], np.arange(fld.q, dtype=np.int64))
            return [fld.decode(int(c)) for c in np.flatnonzero(vals == 0)]
        for x in fld.elements():
            if self.evaluate(x).is_zero():
                out.append(x)
        return out

    def codes(self) -> Tuple[int, ...]:
        return tuple(c.code for c in self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "FqPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"{c.code}*T^{i}")
        return "FqPoly(" + " + ".join(parts) + f" over F_{self.field.q})"


def fq_poly_from_codes(field: FqField, codes: Sequence[int]) -> FqPoly:
    return FqPoly(field, [field.decode(c % field.q) for c in codes])


def canonical_irreducibles(field: FqField, degree: int) -> List[FqPoly]:
    """All monic irreducible polynomials of the given degree, in code order."""
    q = field.q
    out = []
    for code in range(q ** degree):
        c = code
        coeffs = []
        for _ in range(degree):
            coeffs.append(c % q)
            c //= q
        poly = FqPoly(field, [field.decode(d) for d in coeffs] + [field.one])
        if poly.is_irreducible():
            out.append(poly)
    return out


# ---------------------------------------------------------------------------
# residue rings with a shared tiny protocol:
#   zero/one attributes, from_int, add, sub, neg, mul, eq via ==,
#   is_unit, inv


class ZMod:
    """The ring Z/m with int elements in [0, m)."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.zero = 0
        self.one = 1 % m

    def from_int(self, n: int) -> int:
        return n % self.m

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.m

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.m

    def neg(self, a: int) -> int:
        return (-a) % self.m

    def mul(self, a: int, b: int) -> int:
        return a * b % self.m

    def is_unit(self, a: int) -> bool:
        return math.gcd(a, self.m) == 1

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit mod {self.m}")
        return pow(a, -1, self.m)

    def is_zero(self, a: int) -> bool:
        return a % self.m == 0

    def __repr__(self):
        return f"ZMod({self.m})"


class FqPolyQuotient:
    """The ring F_q[T]/(M) with FqPoly elements reduced mod M."""

    def __init__(self, modulus: FqPoly):
        if modulus.degree < 1:
            raise ValueError("modulus must have positive degree")
        self.modulus = modulus.monic()
        self.field = modulus.field
        self.zero = FqPoly(self.field, [])
        self.one = FqPoly(self.field, [self.field.one])

    def from_int(self, n: int) -> FqPoly:
        return FqPoly(self.field, [self.field.coerce(n)])

    def reduce(self, f: FqPoly) -> FqPoly:
        return f % self.modulus

    def add(self, a: FqPoly, b: FqPoly) -> FqPoly:
        return a + b

    def sub(self, a: FqPoly, b: FqPoly) -> FqPoly:
        return a - b

    def neg(self, a: FqPoly) -> FqPoly:
        return -a

    def mul(self, a: FqPoly, b: FqPoly) -> FqPoly:
        return (a * b) % self.modulus

    def is_unit(self, a: FqPoly) -> bool:
        return (not a.is_zero()) and self.modulus.gcd(a).degree == 0

    def inv(self, a: FqPoly) -> FqPoly:
        """Inverse by extended Euclid against the modulus."""
        if not self.is_unit(a):
            raise ZeroDivisionError("not a unit in the quotient ring")
        f = self.field
        r0, r1 = self.modulus, a % self.modulus
        s0, s1 = FqPoly(f, []), FqPoly(f, [f.one])
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        lead = r0.coeffs[-1].inverse()
        return (s0 * lead) % self.modulus

    def is_zero(self, a: FqPoly) -> bool:
        return self.reduce(a).is_zero()

    def elements(self):
        d = self.modulus.degree
        f = self.field
        for code in range(f.q ** d):
            c = code
            coeffs = []
            for _ in range(d):
                coeffs.append(c % f.q)
                c //= f.q
            yield FqPoly(f, [f.decode(x) for x in coeffs])

    def __repr__(self):
        return f"FqPolyQuotient({self.modulus!r})"


# ---------------------------------------------------------------------------
# generic dense polynomials over a residue ring (lists of ring elements)


def rp_trim(ring, f: list) -> list:
    while f and ring.is_zero(f[-1]):
        f.pop()
    return f


def rp_coerce(ring, f: Sequence) -> list:
    return rp_trim(ring, [ring.from_int(c) if isinstance(c, int) else c for c in f])


def rp_add(ring, f: Sequence, g: Sequence) -> list:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ring.zero
        b = g[i] if i < len(g) else ring.zero
        out.append(ring.add(a, b))
    return rp_trim(ring, out)


def rp_sub(ring, f: Sequence, g: Sequence) -> list:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ring.zero
        b = g[i] if i < len(g) else ring.zero
        out.append(ring.sub(a, b))
    return rp_trim(ring, out)


def rp_mul(ring, f: Sequence, g: Sequence) -> list:
    if not f or not g:
        return []
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if ring.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return rp_trim(ring, out)


def rp_divmod(ring, f: Sequence, d: Sequence) -> Tuple[list, list]:
    """Long division; requires the leading coefficient of d to be a unit."""
    d = rp_trim(ring, list(d))
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    if not ring.is_unit(d[-1]):
        raise ValueError("leading coefficient is not a unit in the ring")
    inv_lead = ring.inv(d[-1])
    rem = list(f)
    dq = len(rem) - len(d)
    if dq < 0:
        return [], rp_trim(ring, rem)
    quo = [ring.zero] * (dq + 1)
    for k in range(dq, -1, -1):
        c = ring.mul(rem[k + len(d) - 1], inv_lead)
        quo[k] = c
        if not ring.is_zero(c):
            for i, b in enumerate(d):
                rem[k + i] = ring.sub(rem[k + i], ring.mul(c, b))
    return rp_trim(ring, quo), rp_trim(ring, rem)


def rp_series_quotient(ring, f: Sequence, d: Sequence, nterms: int) -> list:
    """First nterms coefficients of the power series f/d; d[0] must be a unit."""
    if not d or ring.is_zero(d[0]):
        raise ValueError("constant term of the denominator is not a unit")
    inv0 = ring.inv(d[0])
    out = []
    for k in range(nterms):
        acc = f[k] if k < len(f) else ring.zero
        for j in range(1, min(k, len(d) - 1) + 1):
            acc = ring.sub(acc, ring.mul(d[j], out[k - j]))
        out.append(ring.mul(acc, inv0))
    return out


def poly_divides_mod(d: Sequence, f: Sequence, ring=None, modulus: Optional[int] = None):
    """Decide whether d divides f over the ring, returning (bool, witness).

    The witness is the quotient when divisibility holds, else None. Inputs may
    be int lists (interpreted through ring.from_int). The leading coefficient
    of d must be a unit after trimming; otherwise ValueError is raised.
    """
    if ring is None:
        if modulus is None:
            raise ValueError("pass a ring or an integer modulus")
        ring = ZMod(modulus)
    dd = rp_coerce(ring, d)
    ff = rp_coerce(ring, f)
    quo, rem = rp_divmod(ring, ff, dd)
    if rem:
        return False, None
    return True, quo


# ---------------------------------------------------------------------------
# rationals mod m


def fraction_mod(x: Fraction, m: int) -> int:
    """Reduce an exact rational with denominator prime to m into Z/m."""
    den = x.denominator
    if math.gcd(den, m) != 1:
        raise ZeroDivisionError(f"denominator {den} is not invertible mod {m}")
    return x.numerator * pow(den, -1, m) % m
