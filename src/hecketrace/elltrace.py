"""Weighted moment tables, the unit/non-unit split, and the elliptic trace
formula over F_q.

The central object is the list of (a1, mass) pairs for one (field, level
structure), with masses exact rationals; everything else (moments, interior
sums, traces, splits) is a fold over that list. Moments and interior sums
share one kernel. `_paired` scales the masses once by the lcm D of their
denominators and pairs a1 with -a1, since c_k(-a) = (-1)^k c_k(a): the
recurrence runs over b = |a1| only, with the weights w(b) + w(-b) at even k
and w(b) - w(-b) at odd k. `_fold` runs that recurrence for every k up to a
bound: exactly on Python ints one k at a time, or modulo M = ell^s * D on the
classes collapsed by b mod M, a block of k at a time (`_fold_blocks`);
`_fold_at` reaches one k by Lucas doubling in O(log k) steps. All divide by
D at the end.
"""

from __future__ import annotations

import math
import os
import tempfile
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from hecketrace import curves as cv
from hecketrace.ffield import FqField, InvariantError, Record, is_prime, unlimited_int_digits

MassData = List[Tuple[int, Fraction]]

CACHE_VERSION = 1

def mass_data(field: FqField, H: cv.LevelStructureSpec) -> MassData:
    """Collapsed (a1, mass) pairs for one (field, H), mass = sum of 1/#Aut.

    Every (characteristic, level) pair takes the one class-number route
    curves.deuring_route_masses, which counts no points; a CLI job asks for
    one (field, H) once, so nothing is kept between calls.
    """
    return cv.deuring_route_masses(field, H)


# ---------------------------------------------------------------------------
# moment tables and their disk cache


class MomentTable(Record):
    """[a_1^k] for 0 <= k <= max_k over one (field, H); table[k] is [a_1^k]."""

    __slots__ = ("field", "H", "max_k", "moments")

    def __init__(self, field: FqField, H: cv.LevelStructureSpec, max_k: int,
                 moments: Tuple[int, ...]):
        self._set(field, H, max_k, moments)

    def __getitem__(self, k: int) -> int:
        return self.moments[k]


def _paired(data: MassData, modulus: Optional[int] = None):
    """The (a1, mass) pairs folded onto b = |a1|, for c_k(-a) = (-1)^k c_k(a).

    Returns (D, M, b, even, odd): D the lcm of the mass denominators, M =
    modulus * D (None for an exact fold), and arrays over the distinct b of
    the scaled weights w(b) + w(-b) and w(b) - w(-b), w = m * D (w(0) counts
    once; c_k(0) = 0 at odd k). odd is None when every odd weight is 0, as
    at level 1 in odd characteristic. Modulo M the classes are keyed by
    |a1| mod M, since c_k(b) mod M depends only on b mod M, so at most M rows
    remain. The arrays are int64 when M meets the bound 2 (M - 1)^2 < 2^63
    that `_fold_blocks` and the Horner steps of `split_trace` need there,
    else Python ints.
    """
    D = math.lcm(*(m.denominator for _, m in data))
    M = None if modulus is None else modulus * D
    even: Dict[int, int] = {}
    odd: Dict[int, int] = {}
    for a1, m in data:
        a1, w = int(a1), m.numerator * (D // m.denominator)
        b = abs(a1) if M is None else abs(a1) % M
        even[b] = even.get(b, 0) + w
        odd[b] = odd.get(b, 0) + ((a1 > 0) - (a1 < 0)) * w
    keys = sorted(even)
    cols = [keys, [even[b] for b in keys], [odd[b] for b in keys]]
    if M is not None:
        cols = [[v % M for v in col] for col in cols]
    small = M is not None and 2 * (M - 1) ** 2 < 2**63
    b, ev, od = (np.array(col, dtype=np.int64 if small else object) for col in cols)
    return D, M, b, ev, (od if any(cols[2]) else None)


def _unscale(s: int, D: int, k: int) -> int:
    """A scaled sum divided by D; one that D does not divide raises."""
    if s % D:
        raise InvariantError(f"the mass fold at k={k} is not integral (lcm {D})")
    return s // D


# weights per block of `_fold_blocks`; even, so every block starts at an even k
_FOLD_BLOCK = 64


def _fold_blocks(b: np.ndarray, even: np.ndarray, odd: Optional[np.ndarray], q: int,
                 M: int, max_k: int) -> List[int]:
    """The scaled sums of `_fold` mod M for 0 <= k <= max_k, B = _FOLD_BLOCK
    weights per Python step, on the rows of `_paired` in their dtype.

    Per row, c_{k0+j} = P_j c_{k0} + Q_j c_{k0-1}, where P_j = c_j and
    Q_j = -q c_{j-1} run the recurrence from (c_0, c_{-1}) = (1, 0) and
    (0, 1). The weights of each k's parity are multiplied into P and Q once,
    as every block starts at an even k, so each block's B sums take one
    matrix product with the state (c_{k0}, c_{k0-1}), which then moves on by
    the rows B and B - 1. Entries stay below M, so a state update of two
    products is at most 2 (M - 1)^2, within int64 by `_paired`'s bound. On
    int64 the product sums chunks of c rows, 2 c (M - 1)^2 < 2^63, each
    reduced mod M before the chunks are summed (zero rows pad the last
    chunk); n <= M rows remain, so that sum stays below M^2.
    """
    B = min(_FOLD_BLOCK, max_k + 1)
    n = b.size
    c = n if b.dtype == object else min(n, (2**63 - 1) // (2 * max(M - 1, 1) ** 2))
    rows = -(-n // c) * c

    def padded(v: np.ndarray) -> np.ndarray:
        out = np.zeros(rows, dtype=b.dtype)
        out[:n] = v
        return out

    b = padded(b)
    P = np.empty((B + 1, rows), dtype=b.dtype)  # P[j] = c_j mod M
    P[0] = 1
    P[1] = b
    for j in range(2, B + 1):
        P[j] = (b * P[j - 1] - q * P[j - 2]) % M
    Q = np.zeros_like(P)
    Q[1:] = -q * P[:-1] % M
    w = np.zeros((B, rows), dtype=b.dtype)
    w[0::2] = padded(even)
    if odd is not None:
        w[1::2] = padded(odd)
    # W[chunk, j] holds the chunk's rows of w_j P_j, then of w_j Q_j
    W = np.concatenate([(w * R[:B] % M).reshape(B, -1, c) for R in (P, Q)], axis=2)
    W = W.transpose(1, 0, 2).copy()
    T = np.stack([P[[B, B - 1]], Q[[B, B - 1]]], axis=1)  # state step by B
    state = np.zeros((2, rows), dtype=b.dtype)  # (c_{k0}, c_{k0-1}) per row
    state[0] = 1
    sums: List[int] = []
    for _ in range(0, max_k + 1, B):
        x = state.reshape(2, -1, c).transpose(1, 0, 2).reshape(-1, 2 * c, 1)
        sums += ((W @ x % M).sum(axis=0).ravel() % M).tolist()
        state = (T * state).sum(axis=1) % M
    return sums[: max_k + 1]


def _fold(data: MassData, q: int, max_k: int, modulus: Optional[int] = None) -> List[int]:
    """S_k = sum of m * c_k(a1) over the (a1, m) pairs for 0 <= k <= max_k,
    reduced mod modulus when one is given, where c_0 = 1, c_1 = a1 and
    c_k = a1 c_{k-1} - q c_{k-2}; q = 0 gives the moments [a1^k].

    The recurrence runs over the paired classes of `_paired`, all at once,
    on the sums scaled by D. Modulo M = modulus * D, `_fold_blocks` takes B
    weights per Python step from c_{k0+j} = P_j c_{k0} + Q_j c_{k0-1}, on
    int64 when 2 (M - 1)^2 < 2^63 and on Python ints past it. An exact fold
    takes one step per k on Python ints, where block products would only
    make the integers grow; odd k need no dot product when every odd weight
    is 0. Every scaled sum must be divisible by D; the first that is not
    raises InvariantError.
    """
    D, M, b, even, odd = _paired(data, modulus)
    if M is not None:
        sums = _fold_blocks(b, even, odd, q % M, M, max_k)
    else:
        sums = [0] * (max_k + 1)
        prev, cur = np.zeros_like(b), np.ones_like(b)
        for k in range(max_k + 1):
            if k:
                prev, cur = cur, (b * cur - q * prev if q else b * cur)
            w = odd if k % 2 else even
            if w is not None:
                sums[k] = int(w @ cur)
    return [_unscale(s, D, k) for k, s in enumerate(sums)]


def _fold_at(data: MassData, q: int, k: int) -> int:
    """S_k alone, exact, without S_0..S_{k-1}.

    c_k(a) = U_{k+1}(a, q), the Lucas sequence with P = a and Q = q, so
    O(log k) doubling steps on the paired classes reach it:
    U_{2n} = U_n (2 U_{n+1} - a U_n), U_{2n+1} = U_{n+1}^2 - q U_n^2 and
    U_{n+2} = a U_{n+1} - q U_n, from (U_1, U_2) = (1, a) along the bits of
    k + 1. One dot product with the paired weights of k's parity follows.
    """
    D, _, b, even, odd = _paired(data)
    w = odd if k % 2 else even
    if w is None:
        return 0
    u, v = np.ones_like(b), b.copy()  # (U_n, U_{n+1}) at n = 1
    for bit in bin(k + 1)[3:]:
        u, v = u * (2 * v - b * u), v * v - q * (u * u)
        if bit == "1":
            u, v = v, b * v - q * u
    return _unscale(int(w @ u), D, k)


def _cache_path(cache_dir: str, field: FqField, H) -> str:
    return os.path.join(cache_dir, f"moments_p{field.p}_a{field.a}_{H.name}.json")


def _write_atomic(path: str, payload: dict) -> None:
    import json

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
    huge string costs nothing). json is imported here and in `_write_atomic`,
    so that jobs without a moment cache never load it."""
    import json

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
    cache_dir: Optional[str] = None,
) -> MomentTable:
    """The exact moments [a_1^k] for 0 <= k <= max_k, disk-cached on request."""
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    if H.N > 1 and math.gcd(field.q, H.N) != 1:
        raise ValueError("level must be coprime to q")
    if cache_dir is not None:
        disk = _load_table(_cache_path(cache_dir, field, H), field, H)
        if disk is not None and disk.max_k >= max_k:
            return disk
    table = MomentTable(field, H, max_k, tuple(_fold(mass_data(field, H), 0, max_k)))
    if cache_dir is not None:
        try:
            _write_atomic(_cache_path(cache_dir, field, H), _table_payload(table))
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValueError(f"cannot write the moment cache in {cache_dir!r}: {reason}") from None
    return table


# ---------------------------------------------------------------------------
# interior sums: I(k) = sum_j binom(k-j, j) (-q)^j [a_1^{k-2j}]


def interior_sequence(field: FqField, H, max_k: int) -> List[int]:
    """Exact I(0..max_k) via the per-class recurrence c_k = a1 c_{k-1} - q c_{k-2}."""
    return _fold(mass_data(field, H), field.q, max_k)


def interior_sequence_mod(field: FqField, H, max_k: int, modulus: int) -> List[int]:
    """I(0..max_k) mod modulus, folded modulo modulus times the lcm of the
    mass denominators."""
    return _fold(mass_data(field, H), field.q, max_k, modulus)


def trace_interior(field: FqField, H, k: int) -> int:
    """Exact I(k) alone, by Lucas doubling on the paired classes (`_fold_at`)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _fold_at(mass_data(field, H), field.q, k)


# ---------------------------------------------------------------------------
# eis and epsilon bookkeeping, full traces


class EisSpec(NamedTuple):
    even_value: Optional[int]
    odd_value: Optional[int]

    def value(self, k: int) -> Optional[int]:
        return self.even_value if k % 2 == 0 else self.odd_value


def eis_for(H: cv.LevelStructureSpec) -> EisSpec:
    """Known eis values: the closed form (1^k + (-1)^k)/2 at level 1, else
    unknown."""
    if H.N == 1:
        return EisSpec(even_value=1, odd_value=0)
    return EisSpec(even_value=None, odd_value=None)


def epsilon_k(field: FqField, k: int) -> int:
    """-(q + 1) h0 at k = 0 and 0 otherwise, where h0 = 1 for every preset
    (full determinant image)."""
    return -(field.q + 1) if k == 0 else 0


class TraceResult(NamedTuple):
    q: int
    H_name: str
    weight: int
    value: int
    interior_only: bool = False


def trace(
    field: FqField,
    H: cv.LevelStructureSpec,
    k: int,
) -> TraceResult:
    """Tr(F_q | S[H, k+2]) = -eis_k - epsilon_k - I(k), exact.

    When eis is unknown for the parity of k the raw interior sum is returned
    with the interior_only flag set.
    """
    interior = trace_interior(field, H, k)
    e = eis_for(H).value(k)
    if e is None:
        return TraceResult(field.q, H.name, k + 2, interior, interior_only=True)
    val = -e - epsilon_k(field, k) - interior
    return TraceResult(field.q, H.name, k + 2, val)


# ---------------------------------------------------------------------------
# the unit / non-unit split modulo ell^s


class SplitTrace(NamedTuple):
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
) -> SplitTrace:
    """The interior sum split into its non-unit part N and unit part U mod ell^s.

    c_k(a) = sum_j binom(k-j, j) (-q)^j a^(k-2j) has k's parity delta in a,
    so each part is a small polynomial in a^2 times a^delta, evaluated by
    Horner on the paired rows b = |a1| mod ell^s * D of `_paired`. N, on the
    rows with ell | b, keeps the degrees 2j + delta < s, as a1^s = 0 mod
    ell^s. U, on the other rows, folds the degrees through a1^(2m) = 1 mod
    ell^s, m = m_ls_value(ell, s): the term of j lands on a^(2r+delta) with
    r = k//2 - j mod m, so U's coefficient of a^(2r+delta) is the f family
    member `f_values(q, m, k)[r]`. Each part is the weighted sum of its rows
    times D^-1 mod ell^s, and N + U = I(k) mod ell^s. The fold's m holds for
    a prime ell only, so a composite ell is refused.
    """
    # imported at its one use, so that other elltrace jobs skip compiling it
    from hecketrace.congruences import f_values, m_ls_value

    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if s < 1:
        raise ValueError("s must be >= 1")
    if k < s - 1:
        raise ValueError("the split needs k >= s - 1")
    mod = ell ** s
    data = mass_data(field, H)
    D, M, b, even, odd = _paired(data, mod)
    if D % ell == 0:
        # the first class with such a weight, the non-unit classes first
        den = min(data, key=lambda c: (c[1].denominator % ell != 0, c[0] % ell != 0))[1].denominator
        raise ValueError(
            f"automorphism weight 1/{den} is not invertible mod "
            f"{ell}; the split needs ell >= 5 or a representable structure"
        )
    delta, half, q = k % 2, k // 2, field.q % mod
    w = odd if delta else even
    n_part = u_part = 0
    if w is not None:
        n_coeffs = [math.comb(half + delta + j, 2 * j + delta) * pow(-q, half - j, mod) % mod
                    for j in range((s - 1 - delta) // 2 + 1)]
        wb = w * b % M if delta else w  # the factor b^delta of both polynomials
        b2 = b * b % M
        unit = b % ell != 0

        def part(rows: np.ndarray, coeffs: List[int]) -> int:
            x, acc = b2[rows], np.zeros_like(b2[rows])
            for c in reversed(coeffs):
                acc = (acc * x + c) % M
            return int((wb[rows] * acc % M).sum()) * pow(D, -1, mod) % mod

        n_part = part(~unit, n_coeffs)
        u_part = part(unit, f_values(q, m_ls_value(ell, s), k, mod))
    e = eis_for(H).value(k)
    tr = None
    if e is not None:
        tr = (-e - epsilon_k(field, k) - (n_part + u_part)) % mod
    return SplitTrace(ell=ell, s=s, k=k, n_part=n_part, u_part=u_part, trace_mod=tr)


# ---------------------------------------------------------------------------
# Kronecker class numbers and the non-unit locus


# (b, a) candidates per chunk of kronecker_H
_KH_BLOCK = 1 << 13


def kronecker_H(disc: int) -> Fraction:
    """Weighted count of reduced positive binary quadratic forms of the given
    negative discriminant, imprimitive forms included; the forms proportional
    to x^2+y^2 and x^2+xy+y^2 weigh 1/2 and 1/3.

    A reduced form (a, b, c) has |b| <= a <= c. For each b >= 0 with
    b = disc mod 2 and 3b^2 <= -disc, the forms (a, +-b, c) are the divisors
    a of N = (b^2 - disc)/4 with b <= a <= N/a = c. The candidates (b, a),
    max(b, 1) <= a <= sqrt(N) for the largest N, are tested in flat chunks
    of at most _KH_BLOCK entries, and a <= c on the hits. Each hit counts
    twice, for +b and -b, except when b = 0, b = a or a = c, where only
    b >= 0 is reduced. The 1/2 and 1/3 weights follow from the gcd of the
    hits. It shares no code with curves.hurwitz6, so that each checks the
    other."""
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    b = np.arange(disc % 2, math.isqrt(-disc // 3) + 1, 2, dtype=np.int64)
    n = (b * b - disc) // 4
    least = np.maximum(b, 1)
    width = math.isqrt(int(n[-1])) + 1 - least  # >= 1, as N >= b^2
    ends = np.cumsum(width)
    count = halves = thirds = 0
    lo = 0
    while lo < b.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - width[lo] + _KH_BLOCK, "right")))
        w = width[lo:hi]
        bf, nf = np.repeat(b[lo:hi], w), np.repeat(n[lo:hi], w)
        af = np.arange(bf.size, dtype=np.int64) - np.repeat(np.cumsum(w) - w - least[lo:hi], w)
        hit = nf % af == 0
        a, bh, c = af[hit], bf[hit], nf[hit] // af[hit]
        keep = a <= c
        a, bh, c = a[keep], bh[keep], c[keep]
        count += 2 * a.size - int(np.count_nonzero((bh == 0) | (bh == a) | (a == c)))
        g = np.gcd(np.gcd(a, bh), c)
        halves += int(np.count_nonzero((a == g) & (bh == 0) & (c == g)))
        thirds += int(np.count_nonzero((a == g) & (bh == g) & (c == g)))
        lo = hi
    return Fraction(6 * count - 3 * halves - 4 * thirds, 6)


def nonunit_mass(field: FqField, ell: int) -> Fraction:
    """Total mass of classes with a1 = 0 mod ell."""
    return sum((m for a1, m in mass_data(field, cv.LEVEL1) if a1 % ell == 0), Fraction(0))


def class_number_identity_sides(p: int, ell: int = 11) -> Tuple[Fraction, Fraction]:
    """Both sides of the mass identity for the non-unit locus over F_p:
    mass = H(-4p)/2 + sum_{i >= 1} H((ell i)^2 - 4p)."""
    from hecketrace.ffield import fq_construct

    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if ell < 2:
        raise ValueError(f"--ell must be >= 2, not {ell}")
    field = fq_construct(p, 1)
    lhs = nonunit_mass(field, ell)
    rhs = Fraction(kronecker_H(-4 * p), 2)
    i = 1
    while (ell * i) ** 2 < 4 * p:
        rhs += kronecker_H((ell * i) ** 2 - 4 * p)
        i += 1
    return lhs, rhs
