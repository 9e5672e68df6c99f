"""Weighted moment tables, the unit/non-unit split, and the elliptic trace
formula over F_q.

The central object is the list of (a1, mass) pairs for one (field, level
structure); everything else (moments, interior sums, traces, splits) is a
fold over that list. Masses are exact rationals throughout and reduced
modulo ell^s only at the very end.
"""

from __future__ import annotations

import json
import math
import os
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


def mass_data(
    field: FqField,
    H: cv.LevelStructureSpec,
    route: str = "auto",
    max_entries: int = cv.DEFAULT_MAX_CLASSIFY,
) -> MassData:
    """Collapsed (a1, mass) pairs for one (field, H), mass = sum of 1/#Aut.

    route="auto" takes the one production route for the (characteristic,
    level) pair: class numbers ("deuring") at level 1 for p >= 5, the reduced
    families ("family") at level 1 for p = 2, 3 and for gamma0-2, and the full
    classification ("class") otherwise; only auto results are cached. A named
    route runs as asked, for cross-checks; "jline" (the j-line point count,
    level 1, p >= 5) is never chosen by auto.
    """
    key = (field.p, field.a, H.name)
    if route == "auto" and key in _MASS_CACHE:
        return _MASS_CACHE[key]
    chosen = route
    if chosen == "auto":
        if H.N == 1:
            chosen = "family" if field.p < 5 else "deuring"
        elif H is cv.GAMMA0_2:
            chosen = "family"
        else:
            chosen = "class"
    if chosen == "class":
        data = cv.class_route_masses(field, H, max_entries=max_entries)
    elif chosen == "family":
        data = cv.family_route_masses(field, H)
    elif chosen == "jline":
        if H.N != 1:
            raise ValueError("the j-line route is level 1 only")
        data = cv.jline_route_masses(field)
    elif chosen == "deuring":
        if H.N != 1:
            raise ValueError("the class-number route is level 1 only")
        data = cv.deuring_route_masses(field)
    else:
        raise ValueError(f"unknown route {route!r}")
    if route == "auto":
        _MASS_CACHE[key] = data
    return data


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


def _compute_moments(field: FqField, H, max_k: int, route: str) -> Tuple[int, ...]:
    data = mass_data(field, H, route=route)
    out = []
    for k in range(max_k + 1):
        val = sum(m * a1 ** k for a1, m in data)
        assert val.denominator == 1, f"moment k={k} is not integral: {val}"
        out.append(int(val))
    return tuple(out)


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


def _table_payload(table: MomentTable) -> dict:
    return {
        "version": CACHE_VERSION,
        "p": table.field.p,
        "a": table.field.a,
        "modulus": list(table.field.modulus),
        "N": table.H.N,
        "H_generators": sorted(table.H.matrices),
        "maxK": table.max_k,
        "moments": [str(m) for m in table.moments],
    }


def _load_table(path: str, field: FqField, H) -> Optional[MomentTable]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if doc.get("version") != CACHE_VERSION:
        return None
    if (doc.get("p"), doc.get("a")) != (field.p, field.a):
        return None
    if tuple(doc.get("modulus", ())) != tuple(field.modulus):
        return None
    if doc.get("N") != H.N:
        return None
    if [tuple(m) for m in doc.get("H_generators", [])] != sorted(H.matrices):
        return None
    vals = tuple(int(s) for s in doc["moments"])
    return MomentTable(field=field, H=H, max_k=int(doc["maxK"]), moments=vals)


def moments(
    field: FqField,
    H: cv.LevelStructureSpec,
    max_k: int,
    route: str = "auto",
    cache_dir: Optional[str] = None,
) -> MomentTable:
    """The exact moments [a_1^k] for 0 <= k <= max_k, disk-cached on request."""
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
    data = mass_data(field, H, route=route)
    q = field.q
    sums: List[Fraction] = [Fraction(0)] * (max_k + 1)
    for a1, m in data:
        prev, cur = 1, a1
        sums[0] += m
        if max_k >= 1:
            sums[1] += m * cur
        for k in range(2, max_k + 1):
            prev, cur = cur, a1 * cur - q * prev
            sums[k] += m * cur
    out = []
    for k, v in enumerate(sums):
        assert v.denominator == 1, f"interior sum k={k} is not integral: {v}"
        out.append(int(v))
    return out


def interior_sequence_mod(
    field: FqField, H, max_k: int, modulus: int, route: str = "auto"
) -> List[int]:
    """I(0..max_k) mod modulus without big integers.

    Work modulo modulus*D where D clears every mass denominator; the scaled
    sum is then exactly divisible by D.
    """
    data = mass_data(field, H, route=route)
    D = 1
    for _, m in data:
        D = D * m.denominator // math.gcd(D, m.denominator)
    MD = modulus * D
    q = field.q % MD
    acc = [0] * (max_k + 1)
    for a1, m in data:
        w = int(m * D) % MD
        a = a1 % MD
        prev, cur = 1, a
        acc[0] = (acc[0] + w) % MD
        if max_k >= 1:
            acc[1] = (acc[1] + w * cur) % MD
        for k in range(2, max_k + 1):
            prev, cur = cur, (a * cur - q * prev) % MD
            acc[k] = (acc[k] + w * cur) % MD
    out = []
    for s in acc:
        assert s % D == 0, "scaled interior sum must be divisible by the lcm"
        out.append((s // D) % modulus)
    return out


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


@dataclass(frozen=True)
class SplitMoments:
    ell: int
    s: int
    max_k: int
    moments_n: Tuple[Fraction, ...]
    moments_u: Tuple[Fraction, ...]


def split_mass_data(field: FqField, H, ell: int, route: str = "auto"):
    data = mass_data(field, H, route=route)
    part_n = [(a1, m) for a1, m in data if a1 % ell == 0]
    part_u = [(a1, m) for a1, m in data if a1 % ell != 0]
    return part_n, part_u


def split_moments(
    field: FqField, H, max_k: int, ell: int, s: int, route: str = "auto"
) -> SplitMoments:
    part_n, part_u = split_mass_data(field, H, ell, route=route)
    mn = tuple(sum((m * a1 ** k for a1, m in part_n), Fraction(0)) for k in range(max_k + 1))
    mu = tuple(sum((m * a1 ** k for a1, m in part_u), Fraction(0)) for k in range(max_k + 1))
    return SplitMoments(ell=ell, s=s, max_k=max_k, moments_n=mn, moments_u=mu)


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


def nonunit_class_count(field: FqField, ell: int) -> int:
    """Unweighted number of isomorphism classes with a1 = 0 mod ell."""
    return sum(1 for c in cv.iso_classes(field) if c.a1 % ell == 0)


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
