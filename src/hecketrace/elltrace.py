"""Weighted moment tables, the unit/non-unit split, and the elliptic trace
formula over F_q.

The central object is the list of (a1, mass) pairs for one (field, level
structure), with masses exact rationals; everything else (moments, interior
sums, traces, splits) is a fold over that list. Moments and interior sums
share one kernel, `_fold`: it scales the masses once by the lcm D of their
denominators and runs the integer recurrence over all classes at once, either
exactly on Python ints or modulo ell^s * D, and divides by D at the end.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from hecketrace import curves as cv
from hecketrace.congruences import CoeffFamily, binom_mod, m_ls_value
from hecketrace.ffield import FqField, fraction_mod

MassData = List[Tuple[int, Fraction]]

CACHE_VERSION = 1

_MASS_CACHE: Dict[Tuple[int, int, str], MassData] = {}
_MOMENT_CACHE: Dict[Tuple[int, int, str], "MomentTable"] = {}


def mass_data(field: FqField, H: cv.LevelStructureSpec, route: str = "auto") -> MassData:
    """Collapsed (a1, mass) pairs for one (field, H), mass = sum of 1/#Aut.

    route="auto" takes the one production route for the (characteristic,
    level) pair and caches it: class numbers (curves.deuring_route_masses) at
    level 1 for every p, and one normal form per pair
    (curves.normal_form_route_masses) for gamma0-2 and gamma1-4.
    route="jline" sweeps the j-line instead (level 1, p >= 5), as a
    point-counting cross-check; auto never takes it.
    """
    if route == "jline":
        if H.N != 1:
            raise ValueError("the j-line route is level 1 only")
        return cv.jline_route_masses(field)
    if route != "auto":
        raise ValueError(f"unknown route {route!r}")
    key = (field.p, field.a, H.name)
    if key not in _MASS_CACHE:
        if H.N == 1:
            _MASS_CACHE[key] = cv.deuring_route_masses(field)
        else:
            _MASS_CACHE[key] = cv.normal_form_route_masses(field, H)
    return _MASS_CACHE[key]


# ---------------------------------------------------------------------------
# moment tables and their disk cache


@dataclass(frozen=True)
class MomentTable:
    field: FqField
    H: cv.LevelStructureSpec
    max_k: int
    moments: Tuple[int, ...]  # [a_1^k] for 0 <= k <= max_k

    def __getitem__(self, k: int) -> int:
        return self.moments[k]


# Classes per pass of the exact fold. The exact c_k grow by about log2(q)/2
# bits a step, so all classes at once keep hundreds of big integers alive and
# fragment the heap (about 5 MB more peak RSS at q = 10^4, k = 1000); modular
# folds hold bounded integers and take every class in one pass.
_EXACT_BLOCK = 32


def _fold(data: MassData, q: int, max_k: int, modulus: Optional[int] = None) -> List[int]:
    """S_k = sum of m * c_k(a1) over the (a1, m) pairs for 0 <= k <= max_k,
    reduced mod modulus when one is given, where c_0 = 1, c_1 = a1 and
    c_k = a1 c_{k-1} - q c_{k-2}; q = 0 gives the moments [a1^k].

    The masses become integers w = m * D once, D the lcm of their
    denominators, and the recurrence runs over a block of classes at once.
    Modulo M = modulus * D the arrays are int64 when M < 2^31, so that no
    product reaches 2^62, and Python ints otherwise. Every scaled sum must be
    divisible by D; one that is not raises ArithmeticError.
    """
    D = math.lcm(*(m.denominator for _, m in data))
    M = None if modulus is None else modulus * D
    w = np.array([m.numerator * (D // m.denominator) for _, m in data], dtype=object)
    a = np.array([int(a1) for a1, _ in data], dtype=object)
    block = _EXACT_BLOCK
    if M is not None:
        w, a, q = w % M, a % M, q % M
        block = max(len(a), 1)
        if M < 2**31:
            w, a = w.astype(np.int64), a.astype(np.int64)
    sums = [0] * (max_k + 1)
    for lo in range(0, len(a), block):
        wb, ab = w[lo : lo + block], a[lo : lo + block]
        prev, cur = np.zeros_like(ab), np.ones_like(ab)
        for k in range(max_k + 1):
            if k:
                prev, cur = cur, ab * cur - q * prev
                if M is not None:
                    cur %= M
            sums[k] += int(wb.dot(cur)) if M is None else int((wb * cur % M).sum())
    out = []
    for k, s in enumerate(sums):
        if M is not None:
            s %= M
        if s % D:
            raise ArithmeticError(f"the mass fold at k={k} is not integral (lcm {D})")
        out.append(s // D)
    return out


def _compute_moments(field: FqField, H, max_k: int, route: str) -> Tuple[int, ...]:
    return tuple(_fold(mass_data(field, H, route=route), 0, max_k))


def _cache_path(cache_dir: str, field: FqField, H) -> str:
    return os.path.join(cache_dir, f"moments_p{field.p}_a{field.a}_{H.name}.json")


def _write_atomic(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_header(field: FqField, H) -> dict:
    return {
        "version": CACHE_VERSION,
        "p": field.p,
        "a": field.a,
        "modulus": list(field.modulus),
        "N": H.N,
        "H_generators": sorted(H.matrices),
    }


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


def _max_moment_digits(q: int, k: int) -> int:
    """Decimal length, sign included, of the Hasse bound q (4q)^(k/2) on
    |[a1^k]|: |a1| <= 2 sqrt(q) and the total mass is at most q for every
    preset structure. Two digits of slack cover the rounding."""
    return int(math.log10(q) + k * math.log10(4 * q) / 2) + 3


def _table_payload(table: MomentTable) -> dict:
    with unlimited_int_digits():
        moments = [str(m) for m in table.moments]
    return {**_table_header(table.field, table.H), "maxK": table.max_k, "moments": moments}


def _load_table(path: str, field: FqField, H) -> Optional[MomentTable]:
    """The cached table, or None for a missing, foreign or malformed file:
    its header must equal this (field, H) after a JSON round trip, and it must
    hold exactly maxK + 1 moments, each a decimal integer string no longer
    than the Hasse bound allows (checked before parsing, so that a planted
    huge string costs nothing)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    header = json.loads(json.dumps(_table_header(field, H)))
    if not isinstance(doc, dict) or any(doc.get(k) != v for k, v in header.items()):
        return None
    max_k, entries = doc.get("maxK"), doc.get("moments")
    if type(max_k) is not int or not isinstance(entries, list) or len(entries) != max_k + 1:
        return None
    if not all(isinstance(e, str) and len(e) <= _max_moment_digits(field.q, k)
               for k, e in enumerate(entries)):
        return None
    try:
        with unlimited_int_digits():
            vals = tuple(int(e) for e in entries)
    except ValueError:
        return None
    return MomentTable(field=field, H=H, max_k=max_k, moments=vals)


def moments(
    field: FqField,
    H: cv.LevelStructureSpec,
    max_k: int,
    route: str = "auto",
    cache_dir: Optional[str] = None,
) -> MomentTable:
    """The exact moments [a_1^k] for 0 <= k <= max_k, disk-cached on request."""
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    if H.N > 1 and math.gcd(field.q, H.N) != 1:
        raise ValueError("level must be coprime to q")
    key = (field.p, field.a, H.name)
    mem = _MOMENT_CACHE.get(key)
    if mem is not None and mem.max_k >= max_k:
        return mem
    if cache_dir is not None:
        disk = _load_table(_cache_path(cache_dir, field, H), field, H)
        if disk is not None and disk.max_k >= max_k:
            _MOMENT_CACHE[key] = disk
            return disk
    table = MomentTable(field, H, max_k, _compute_moments(field, H, max_k, route))
    _MOMENT_CACHE[key] = table
    if cache_dir is not None:
        _write_atomic(_cache_path(cache_dir, field, H), _table_payload(table))
    return table


# ---------------------------------------------------------------------------
# interior sums: I(k) = sum_j binom(k-j, j) (-q)^j [a_1^{k-2j}]


def interior_sequence(field: FqField, H, max_k: int, route: str = "auto") -> List[int]:
    """Exact I(0..max_k) via the per-class recurrence c_k = a1 c_{k-1} - q c_{k-2}."""
    return _fold(mass_data(field, H, route=route), field.q, max_k)


def interior_sequence_mod(
    field: FqField, H, max_k: int, modulus: int, route: str = "auto"
) -> List[int]:
    """I(0..max_k) mod modulus, folded modulo modulus times the lcm of the
    mass denominators."""
    return _fold(mass_data(field, H, route=route), field.q, max_k, modulus)


def trace_interior(field: FqField, H, k: int, route: str = "auto") -> int:
    if k < 0:
        raise ValueError("k must be >= 0")
    return interior_sequence(field, H, k, route=route)[k]


# ---------------------------------------------------------------------------
# eis and epsilon bookkeeping, full traces


@dataclass(frozen=True)
class EisSpec:
    even_value: Optional[int]
    odd_value: Optional[int]
    h0: int = 1

    def value(self, k: int) -> Optional[int]:
        return self.even_value if k % 2 == 0 else self.odd_value


def eis_for(H: cv.LevelStructureSpec) -> EisSpec:
    """Known eis values: the closed form (1^k + (-1)^k)/2 at level 1, else
    unknown. h0 = 1 for every preset (full determinant image)."""
    if H.N == 1:
        return EisSpec(even_value=1, odd_value=0, h0=1)
    return EisSpec(even_value=None, odd_value=None, h0=1)


def epsilon_k(field: FqField, k: int, h0: int = 1) -> int:
    return -(field.q + 1) * h0 if k == 0 else 0


@dataclass(frozen=True)
class TraceResult:
    q: int
    H_name: str
    weight: int
    value: int
    interior_only: bool = False


def trace(
    field: FqField,
    H: cv.LevelStructureSpec,
    k: int,
    eis: Optional[EisSpec] = None,
    route: str = "auto",
) -> TraceResult:
    """Tr(F_q | S[H, k+2]) = -eis_k - epsilon_k - I(k), exact.

    When eis is unknown for the parity of k the raw interior sum is returned
    with the interior_only flag set.
    """
    if eis is None:
        eis = eis_for(H)
    interior = trace_interior(field, H, k, route=route)
    e = eis.value(k)
    if e is None:
        return TraceResult(field.q, H.name, k + 2, interior, interior_only=True)
    val = -e - epsilon_k(field, k, eis.h0) - interior
    return TraceResult(field.q, H.name, k + 2, val)


# ---------------------------------------------------------------------------
# the unit / non-unit split modulo ell^s


def split_mass_data(field: FqField, H, ell: int, route: str = "auto"):
    data = mass_data(field, H, route=route)
    part_n = [(a1, m) for a1, m in data if a1 % ell == 0]
    part_u = [(a1, m) for a1, m in data if a1 % ell != 0]
    return part_n, part_u


@dataclass(frozen=True)
class SplitTrace:
    ell: int
    s: int
    k: int
    n_part: int
    u_part: int
    trace_mod: Optional[int]  # None when eis is unknown for this parity


def split_trace(
    field: FqField,
    H: cv.LevelStructureSpec,
    k: int,
    ell: int,
    s: int,
    eis: Optional[EisSpec] = None,
    route: str = "auto",
) -> SplitTrace:
    """The interior sum split into its non-unit and unit parts mod ell^s.

    Non-unit classes (ell | a1) contribute only the a1-degrees below s; unit
    classes are folded through a1^(2 m) = 1 mod ell^s. The two parts add up
    to I(k) mod ell^s.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if k < s - 1:
        raise ValueError("the split needs k >= s - 1")
    mod = ell ** s
    part_n, part_u = split_mass_data(field, H, ell, route=route)
    for a1, m in part_n + part_u:
        if math.gcd(m.denominator, ell) != 1:
            raise ValueError(
                f"automorphism weight 1/{m.denominator} is not invertible mod "
                f"{ell}; the split needs ell >= 5 or a representable structure"
            )
    delta = k % 2
    q = field.q
    n_part = 0
    for a1, m in part_n:
        acc = 0
        for jp in range(0, min((s - 1 - delta) // 2, (k - delta) // 2) + 1):
            term = (
                binom_mod((k + delta) // 2 + jp, 2 * jp + delta, ell, s)
                * pow(-q % mod, (k - delta) // 2 - jp, mod)
                * pow(a1 % mod, 2 * jp + delta, mod)
            )
            acc = (acc + term) % mod
        n_part = (n_part + acc * fraction_mod(m, mod)) % mod
    m_ls = m_ls_value(ell, s)
    fam = CoeffFamily(mod)
    u_part = 0
    if part_u:
        f_row = [fam.f_value(q, r, m_ls, k) for r in range(m_ls)]
        for a1, m in part_u:
            acc = 0
            for r in range(m_ls):
                acc = (acc + f_row[r] * pow(a1 % mod, 2 * r + delta, mod)) % mod
            u_part = (u_part + acc * fraction_mod(m, mod)) % mod
    if eis is None:
        eis = eis_for(H)
    e = eis.value(k)
    tr = None
    if e is not None:
        tr = (-e - epsilon_k(field, k, eis.h0) - (n_part + u_part)) % mod
    return SplitTrace(ell=ell, s=s, k=k, n_part=n_part, u_part=u_part, trace_mod=tr)


# ---------------------------------------------------------------------------
# the factorial-product moment recurrence


def _consecutive_product_coeffs(i: int) -> List[int]:
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


def moment_recurrence(
    table: MomentTable, ell: int, i: int, upto: int
) -> Tuple[int, List[int]]:
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


# ---------------------------------------------------------------------------
# Kronecker class numbers and the non-unit locus


def kronecker_H(disc: int) -> Fraction:
    """Weighted count of reduced positive binary quadratic forms of the given
    negative discriminant, imprimitive forms included; the forms proportional
    to x^2+y^2 and x^2+xy+y^2 weigh 1/2 and 1/3.

    One numpy pass over every (a, b) with 3a^2 <= -disc, -a < b <= a and
    b = disc mod 2. It shares no code with curves.hurwitz6, so that each
    checks the other."""
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    amax = math.isqrt(-disc // 3)
    a = np.arange(1, amax + 1, dtype=np.int64)[:, None]
    b = np.arange(-amax + 1, amax + 1, dtype=np.int64)
    b = b[(b - disc) % 2 == 0][None, :]
    num = b * b - disc
    c = num // (4 * a)
    ok = (b > -a) & (b <= a) & (num % (4 * a) == 0) & (c >= a) & ((c > a) | (b >= 0))
    a, b, c = (np.broadcast_to(x, ok.shape)[ok] for x in (a, b, c))
    g = np.gcd(np.gcd(a, b), c)
    base_a, base_b, base_c = a // g, b // g, c // g
    halves = int(np.count_nonzero((base_a == 1) & (base_b == 0) & (base_c == 1)))
    thirds = int(np.count_nonzero((base_a == 1) & (base_b == 1) & (base_c == 1)))
    return Fraction(6 * a.size - 3 * halves - 4 * thirds, 6)


def nonunit_mass(field: FqField, ell: int, route: str = "auto") -> Fraction:
    """Total mass of classes with a1 = 0 mod ell."""
    part_n, _ = split_mass_data(field, ell=ell, H=cv.LEVEL1, route=route)
    return sum((m for _, m in part_n), Fraction(0))


def class_number_identity_sides(p: int, ell: int = 11) -> Tuple[Fraction, Fraction]:
    """Both sides of the mass identity for the non-unit locus over F_p:
    mass = H(-4p)/2 + sum_{i >= 1} H((ell i)^2 - 4p)."""
    from hecketrace.ffield import fq_construct, is_prime

    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    field = fq_construct(p, 1)
    lhs = nonunit_mass(field, ell)
    rhs = Fraction(kronecker_H(-4 * p), 2)
    i = 1
    while (ell * i) ** 2 < 4 * p:
        rhs += kronecker_H((ell * i) ** 2 - 4 * p)
        i += 1
    return lhs, rhs
