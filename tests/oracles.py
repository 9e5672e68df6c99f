"""Independent oracles: q-expansions that pin expected trace values, a
full-range sieve of Hurwitz class numbers, the per-a and (a, b)-rectangle
class-number kernels, a rational fold of mass lists and the uncollapsed
one-k-at-a-time fold, the f coefficient family summed term by term and the
elliptic unit / non-unit split one class at a time, the mass routes by
enumeration (reduced families, the full isomorphism classification and its
automorphism stabilizers), Drinfeld classes by a walk over all (g, delta)
pairs, Drinfeld traces from the [c_{k,l}] table, and the Drinfeld
h-recurrence and split parts one class at a time.

Everything but the enumeration routes and the [c_{k,l}] table is plain
integer series or numpy arithmetic. The enumeration routes handle single
curves with the scalar arithmetic of curve_arith.py (long Weierstrass
curves, the group law, exact-order torsion) and single Drinfeld modules with
that of drinfeld_arith.py (twisted polynomials, a per-class linear solve),
and the [c_{k,l}] table uses the package's polynomial arithmetic and class
data; none of them uses the package's mass routes, its batched class
enumeration or its h-recurrence kernel. The per-class Drinfeld kernels use
the package's class table and code-array helpers, but weigh every class on
its own and never group the classes by (a, b). They import what they need
when called, because perfbench/run.py loads this file without the package,
curve_arith.py or drinfeld_arith.py on the path.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def _series_mul(a: List[int], b: List[int], prec: int) -> List[int]:
    out = [0] * prec
    for i, ai in enumerate(a):
        if ai == 0 or i >= prec:
            continue
        for j, bj in enumerate(b):
            if i + j >= prec:
                break
            out[i + j] += ai * bj
    return out


def delta_coefficients(prec: int = 15) -> List[int]:
    """tau(0..prec-1) from the product q prod (1 - q^n)^24."""
    series = [0] * prec
    series[0] = 1
    for n in range(1, prec):
        factor = [0] * prec
        factor[0] = 1
        if n < prec:
            factor[n] = -1
        for _ in range(24):
            series = _series_mul(series, factor, prec)
    return [0] + series[: prec - 1]


def _sigma(n: int, power: int) -> int:
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def eisenstein_coefficients(weight: int, prec: int = 15) -> List[int]:
    """Normalised E_4 or E_6 with integral coefficients."""
    lead = {4: 240, 6: -504}[weight]
    return [1] + [lead * _sigma(n, weight - 1) for n in range(1, prec)]


def cusp_form_coefficients(weight: int, prec: int = 15) -> List[int]:
    """The normalised cusp form of the given weight (weights with a
    one-dimensional cusp space only)."""
    delta = delta_coefficients(prec)
    if weight == 12:
        return delta
    if weight == 16:
        return _series_mul(eisenstein_coefficients(4, prec), delta, prec)
    if weight == 18:
        return _series_mul(eisenstein_coefficients(6, prec), delta, prec)
    if weight == 20:
        e4 = eisenstein_coefficients(4, prec)
        return _series_mul(_series_mul(e4, e4, prec), delta, prec)
    if weight == 22:
        e4 = eisenstein_coefficients(4, prec)
        e6 = eisenstein_coefficients(6, prec)
        return _series_mul(_series_mul(e4, e6, prec), delta, prec)
    if weight == 26:
        e4 = eisenstein_coefficients(4, prec)
        e6 = eisenstein_coefficients(6, prec)
        return _series_mul(_series_mul(_series_mul(e4, e4, prec), e6, prec), delta, prec)
    raise ValueError(f"no one-dimensional cusp space in weight {weight}")


def _series_pow(base: List[int], n: int, prec: int) -> List[int]:
    out = [0] * prec
    out[0] = 1
    for _ in range(n):
        out = _series_mul(out, base, prec)
    return out


def cusp_basis(weight: int, prec: int) -> List[List[int]]:
    """Echelon basis of the level-1 weight-k cusp space: delta^i e4^a e6^b
    with leading term q^i and unit leading coefficient."""
    delta = delta_coefficients(prec)
    e4 = eisenstein_coefficients(4, prec)
    e6 = eisenstein_coefficients(6, prec)
    basis = []
    i = 1
    while 12 * i <= weight:
        m = weight - 12 * i
        if m % 2 == 0 and m != 2:
            a, b = (m // 4, 0) if m % 4 == 0 else ((m - 6) // 4, 1)
            f = _series_pow(delta, i, prec)
            f = _series_mul(f, _series_pow(e4, a, prec), prec)
            f = _series_mul(f, _series_pow(e6, b, prec), prec)
            basis.append(f)
        i += 1
    return basis


def hecke_matrix(weight: int, p: int) -> List[List[int]]:
    """Matrix of T_p on the echelon cusp basis, from q-expansions alone."""
    probe = cusp_basis(weight, 2)
    d = len(probe)
    prec = p * d + 2
    basis = cusp_basis(weight, prec)
    cols = []
    for f in basis:
        g = [0] * (d + 1)
        for n in range(1, d + 1):
            g[n] = f[p * n] + (p ** (weight - 1) * f[n // p] if n % p == 0 else 0)
        coords = []
        for j in range(1, d + 1):
            c = g[j] - sum(coords[t] * basis[t][j] for t in range(j - 1))
            coords.append(c)
        cols.append(coords)
    return [[cols[i][j] for i in range(d)] for j in range(d)]


def hecke_charpoly(weight: int, p: int) -> List[int]:
    """det(1 - T_p x) on the cusp space, ascending coefficients, via
    Faddeev-LeVerrier on the q-expansion Hecke matrix."""
    from fractions import Fraction

    M = hecke_matrix(weight, p)
    d = len(M)
    if d == 0:
        return [1]

    def matmul(A, B):
        return [[sum(A[i][t] * B[t][j] for t in range(d)) for j in range(d)]
                for i in range(d)]

    coeffs = [1]
    Mk = [row[:] for row in M]
    for k in range(1, d + 1):
        ck = Fraction(-sum(Mk[i][i] for i in range(d)), k)
        assert ck.denominator == 1
        coeffs.append(int(ck))
        if k < d:
            shifted = [[Mk[i][j] + (coeffs[k] if i == j else 0) for j in range(d)]
                       for i in range(d)]
            Mk = matmul(M, shifted)
    return coeffs


def kronecker_sieve(limit: int):
    """sixh[D] = 6 * H(D) for all 0 <= D <= limit, by sieving every reduced
    form (a, b, c) with 4ac - b^2 <= limit; forms proportional to x^2+y^2 and
    x^2+xy+y^2 weigh 1/2 and 1/3, hence the factor 6."""
    sixh = np.zeros(limit + 1, dtype=np.int64)
    amax = math.isqrt(limit // 3)
    for a in range(1, amax + 1):
        cmax = (limit + a * a) // (4 * a)
        if cmax < a:
            continue
        b = np.arange(-a + 1, a + 1, dtype=np.int64)
        c = np.arange(a, cmax + 1, dtype=np.int64)
        D = 4 * a * c[None, :] - (b * b)[:, None]
        ok = D <= limit
        # the b < 0 representative is dropped when c == a
        ok[: a - 1, 0] = False
        sixh += 6 * np.bincount(D[ok], minlength=limit + 1)
    for a in range(1, amax + 1):
        if 4 * a * a <= limit:
            sixh[4 * a * a] -= 3  # (a, 0, a) weighs 1/2
        if 3 * a * a <= limit:
            sixh[3 * a * a] -= 4  # (a, a, a) weighs 1/3
    return sixh


def hurwitz6_per_a(ds) -> np.ndarray:
    """6 * H(D) for each entry D > 0 of ds, one a at a time: for each
    a <= sqrt(max D / 3), the keys (b^2 mod 4a, 4a^2 - b^2 + [b < 0]) of the
    b in (-a, a] are sorted, and two searchsorted calls count for every D the
    forms (a, b, c) with b^2 = -D mod 4a and c >= a (b >= 0 when c = a);
    (a, 0, a) at D = 4a^2 and (a, a, a) at D = 3a^2 then lose 1/2 and 2/3 of
    their weight."""
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
    for loss, forms in ((3, 4 * g * g), (4, 3 * g * g)):
        six -= loss * (np.searchsorted(forms, ds, "right") - np.searchsorted(forms, ds, "left"))
    return six


def kronecker_H_rectangle(disc: int) -> Fraction:
    """H(-disc) for a negative discriminant disc, from one numpy pass over
    every (a, b) with 3a^2 <= -disc, -a < b <= a and b = disc mod 2: the
    reduced forms (a, b, c) counted with the forms proportional to x^2+y^2
    and x^2+xy+y^2 weighing 1/2 and 1/3."""
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


def fraction_fold(pairs: Sequence[Tuple[int, Fraction]], q: int, max_k: int) -> List[Fraction]:
    """sum of m * c_k(a1) over the (a1, m) pairs for 0 <= k <= max_k, where
    c_0 = 1, c_1 = a1 and c_k = a1 c_{k-1} - q c_{k-2}, one Fraction sum per
    (pair, k); q = 0 gives the moments sum of m * a1^k."""
    sums = [Fraction(0)] * (max_k + 1)
    for a1, m in pairs:
        prev, cur = 0, 1
        for k in range(max_k + 1):
            sums[k] += m * cur
            prev, cur = cur, a1 * cur - q * prev
    return sums


def fold_stepwise(pairs: Sequence[Tuple[int, Fraction]], q: int, max_k: int,
                  modulus: Optional[int] = None) -> List[int]:
    """The fold of `fraction_fold` one k at a time over every distinct
    b = |a1|, reduced mod modulus when one is given; the package's modular
    fold before it collapsed b mod M and took blocks of k.

    The masses are scaled by their lcm D and the recurrence runs modulo
    M = modulus * D, on int64 when M < 2^31 and on Python ints otherwise,
    with the weights w(b) + w(-b) at even k and w(b) - w(-b) at odd k. A
    scaled sum that D does not divide raises ArithmeticError at its k.
    """
    D = math.lcm(*(m.denominator for _, m in pairs))
    M = None if modulus is None else modulus * D
    even: Dict[int, int] = {}
    odd: Dict[int, int] = {}
    for a1, m in pairs:
        w = m.numerator * (D // m.denominator)
        even[abs(a1)] = even.get(abs(a1), 0) + w
        odd[abs(a1)] = odd.get(abs(a1), 0) + ((a1 > 0) - (a1 < 0)) * w
    keys = sorted(even)
    cols = [keys, [even[b] for b in keys], [odd[b] for b in keys]]
    if M is not None:
        cols = [[v % M for v in col] for col in cols]
        q %= M
    dtype = np.int64 if M is not None and M < 2**31 else object
    b, w_even, w_odd = (np.array(col, dtype=dtype) for col in cols)
    out = []
    prev, cur = np.zeros_like(b), np.ones_like(b)
    for k in range(max_k + 1):
        if k:
            prev, cur = cur, b * cur - q * prev
            if M is not None:
                cur %= M
        w = w_odd if k % 2 else w_even
        s = int(w @ cur) if M is None else int((w * cur % M).sum()) % M
        if s % D:
            raise ArithmeticError(f"the mass fold at k={k} is not integral (lcm {D})")
        out.append(s // D)
    return out


def f_coeff(q: int, r: int, m: int, k: int) -> int:
    """The f family member of weight k for residue r mod m, summed term by
    term: binom(k-j, j) (-q)^j over the j = floor(k/2) - r mod m; the
    reference for congruences.f_values, one residue at a time."""
    target = (k // 2 - r) % m
    return sum(math.comb(k - j, j) * (-q) ** j for j in range(k // 2 + 1) if j % m == target)


def fraction_mod(x: Fraction, m: int) -> int:
    """Reduce an exact rational with denominator prime to m into Z/m."""
    den = x.denominator
    if math.gcd(den, m) != 1:
        raise ZeroDivisionError(f"denominator {den} is not invertible mod {m}")
    return x.numerator * pow(den, -1, m) % m


def ell_split_parts(field: "FqField", H: "LevelStructureSpec", k: int, ell: int,
                    s: int) -> Tuple[int, int]:
    """(N, U) of the elliptic split mod ell^s one class at a time, from the
    lemma's two polynomials: the reference for hecketrace.elltrace.split_trace,
    which evaluates c_k itself on the paired rows, and for its guards and
    their messages.

    N sums, over the classes with ell | a1, m * the terms of c_k(a1) of
    a1-degree below s; U sums, over the other classes, m * sum_r
    f(q, r, m_ls, k) a1^(2r+delta), each f summed term by term (f_coeff).
    """
    from hecketrace.congruences import m_ls_value
    from hecketrace.elltrace import mass_data
    from hecketrace.ffield import is_prime

    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if s < 1:
        raise ValueError("s must be >= 1")
    if k < s - 1:
        raise ValueError("the split needs k >= s - 1")
    mod = ell ** s
    data = mass_data(field, H)
    part_n = [(a1, m) for a1, m in data if a1 % ell == 0]
    part_u = [(a1, m) for a1, m in data if a1 % ell != 0]
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
                math.comb((k + delta) // 2 + jp, 2 * jp + delta)
                * pow(-q % mod, (k - delta) // 2 - jp, mod)
                * pow(a1 % mod, 2 * jp + delta, mod)
            )
            acc = (acc + term) % mod
        n_part = (n_part + acc * fraction_mod(m, mod)) % mod
    m_ls = m_ls_value(ell, s)
    u_part = 0
    if part_u:
        f_row = [f_coeff(q, r, m_ls, k) % mod for r in range(m_ls)]
        for a1, m in part_u:
            acc = 0
            for r in range(m_ls):
                acc = (acc + f_row[r] * pow(a1 % mod, 2 * r + delta, mod)) % mod
            u_part = (u_part + acc * fraction_mod(m, mod)) % mod
    return n_part, u_part


def elements(field: "FqField"):
    """Every element of the field, in code order."""
    return (field.decode(code) for code in range(field.q))


def units(field: "FqField"):
    """Every nonzero element of the field, in code order."""
    return (field.decode(code) for code in range(1, field.q))


# ---------------------------------------------------------------------------
# mass routes by enumeration: the per-curve loop over reduced Weierstrass
# families and the full isomorphism classification, q^5 curves at a time.
# They use the scalar curve arithmetic of curve_arith.py, which counts points
# with the package's batched kernel, but none of the package's mass routes,
# and they stay usable for q <= 17.

DEFAULT_MAX_CLASSIFY = 1 << 21


@dataclass
class IsoClass:
    rep: object  # a curve_arith.WeierstrassCurve
    class_size: int
    aut_order: int
    a1: int  # trace of Frobenius over the ground field
    aut_tuples: Tuple[Tuple[int, int, int, int], ...]


_CLASS_CACHE: Dict[Tuple[int, int], List[IsoClass]] = {}


def _transform_grid(field: "FqField") -> dict:
    """Every transform (u, r, s, t) and the products _orbit_indices needs,
    as flat code arrays: about 22 arrays of q^4 (q - 1) entries, so it is
    built per classification and not kept (170 MB at q = 16)."""
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
    return g


def _orbit_indices(field: "FqField", grid: dict, codes) -> np.ndarray:
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


def _smooth_mask(field: "FqField", idx: np.ndarray) -> np.ndarray:
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


def iso_classes(field: "FqField", max_entries: int = DEFAULT_MAX_CLASSIFY) -> List[IsoClass]:
    """All isomorphism classes of smooth curves over the field, with class
    sizes, automorphism group orders, and the automorphism tuples of each
    chosen representative."""
    from curve_arith import WeierstrassCurve, trace_of_frobenius
    from hecketrace.ffield import BudgetError

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


def apply_aut(curve: "WeierstrassCurve", tup: Tuple[int, int, int, int], P: "Point") -> "Point":
    """Point map (x, y) -> (u^2 x + r, u^3 y + s u^2 x + t) of an automorphism."""
    if P is None:
        return None
    f = curve.field
    u, r, s, t = (f.decode(c) for c in tup)
    x, y = P
    u2 = u * u
    return (u2 * x + r, u2 * u * y + s * u2 * x + t)


def _structure_tokens(curve: "WeierstrassCurve", H: "LevelStructureSpec") -> "List[Point]":
    """Concrete objects the automorphisms act on, one per H-structure."""
    from curve_arith import exact_order_points
    from hecketrace.curves import GAMMA0_2, GAMMA1_4

    if H.N == 1:
        return [None]
    if H is GAMMA1_4:
        return exact_order_points(curve, 4)
    if H is GAMMA0_2:
        return exact_order_points(curve, 2)
    raise ValueError("stabilizers only implemented for the preset structures")


def stabilizer_nu_ell(H: "LevelStructureSpec", field: "FqField", ell: int) -> int:
    """Largest ell-valuation of a structure stabilizer among rational pairs,
    from the stabilizers of the structures under each class's automorphisms."""
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


def family_route_masses(
    field: "FqField", H: "LevelStructureSpec"
) -> List[Tuple[int, Fraction]]:
    """Weighted (a1, mass) data from one reduced Weierstrass family per stratum.

    The group acting on each family is small enough that the orbit-stabilizer
    mass Sum 1/#Aut appears as (family size)/(group order) without classifying.
    """
    from curve_arith import WeierstrassCurve, exact_order_points, trace_of_frobenius
    from hecketrace.curves import GAMMA0_2

    q, p = field.q, field.p
    if H.N > 1 and math.gcd(H.N, q) != 1:
        raise ValueError("level must be coprime to q")
    if H.N > 1 and H is not GAMMA0_2:
        raise ValueError("family route supports level 1 and the gamma0-2 structure")
    hist: Dict[int, Fraction] = {}

    def push(curve: "WeierstrassCurve", weight: Fraction):
        if not curve.is_smooth():
            return
        cnt = 1 if H.N == 1 else len(exact_order_points(curve, 2))
        if cnt == 0:
            return
        a1 = trace_of_frobenius(curve)
        hist[a1] = hist.get(a1, Fraction(0)) + weight * cnt

    if p >= 5:
        w = Fraction(1, q - 1)
        for A in elements(field):
            for B in elements(field):
                push(WeierstrassCurve(field, 0, 0, 0, A, B), w)
    elif p == 3:
        w = Fraction(1, q * (q - 1))
        for a2 in elements(field):
            for a4 in elements(field):
                for a6 in elements(field):
                    push(WeierstrassCurve(field, 0, a2, 0, a4, a6), w)
    else:
        w = Fraction(1, q)
        for a2 in elements(field):
            for a6 in units(field):
                push(WeierstrassCurve(field, 1, a2, 0, 0, a6), w)
        w = Fraction(1, q * q * (q - 1))
        for a3 in units(field):
            for a4 in elements(field):
                for a6 in elements(field):
                    push(WeierstrassCurve(field, 0, 0, a3, a4, a6), w)
    if H.N == 1:
        assert sum(hist.values()) == q, "level-1 mass formula"
    return sorted((a1, m) for a1, m in hist.items() if m)


def class_route_masses(
    field: "FqField", H: "LevelStructureSpec", max_entries: int = DEFAULT_MAX_CLASSIFY
) -> List[Tuple[int, Fraction]]:
    """Weighted (a1, mass) data from the full isomorphism classification."""
    from curve_arith import structure_count

    if H.N > 1 and math.gcd(H.N, field.q) != 1:
        raise ValueError("level must be coprime to q")
    hist: Dict[int, Fraction] = {}
    for cls in iso_classes(field, max_entries=max_entries):
        cnt = 1 if H.N == 1 else structure_count(cls.rep, H)
        if cnt == 0:
            continue
        hist[cls.a1] = hist.get(cls.a1, Fraction(0)) + Fraction(cnt, cls.aut_order)
    return sorted((a1, m) for a1, m in hist.items() if m)


def nonunit_class_count(field: "FqField", ell: int) -> int:
    """Unweighted number of isomorphism classes with a1 = 0 mod ell."""
    return sum(1 for c in iso_classes(field) if c.a1 % ell == 0)


# ---------------------------------------------------------------------------
# mass routes by batched point-count sweeps, the package's former routes for
# the j = 0 stratum (level 1, p = 2, 3) and for gamma0-2 and gamma1-4. They
# count points with the package's frobenius_traces, looked up on the module
# when called so that a test can wrap it, and use no class number.


def _tally(hist: Dict[int, Fraction], traces: np.ndarray, weight: Fraction) -> None:
    """Add weight to hist[t] once per entry t of traces."""
    vals, counts = np.unique(traces, return_counts=True)
    for t, c in zip(vals.tolist(), counts.tolist()):
        hist[t] = hist.get(t, Fraction(0)) + c * weight


def j0_stratum(field: "FqField") -> Tuple[np.ndarray, Fraction]:
    """Traces of the j = 0 curves for p = 2, 3 (the supersingular ones), and
    the mass each entry carries.

    Each stratum is the reduced family with its group weight: for p = 2,
    y^2 + a3 y = x^3 + a4 x + a6 with a3 != 0, weight 1/(q^2 (q - 1)); for
    p = 3, y^2 = x^3 + a4 x + a6 with a4 != 0, weight 1/(q (q - 1)). The
    scaling (x, y) -> (u^2 x, u^3 y) divides a3 by u^3 and a4 by u^4, so a3
    (p = 2) or a4 (p = 3) runs over one unit per coset of the cubes or the
    fourth powers, standing for the whole coset. For p = 2 the count on each
    line x is 2 or 0 as Tr((x^3 + a4 x + a6) / a3^2) is 0 or 1, so a6 acts
    only through Tr(a6 / a3^2): half of the q values of a6 give the trace t
    of a6 = 0 and the other half give -t.
    """
    from hecketrace import curves as cv

    q, p = field.q, field.p
    units, xs = field.tables()["exp"], np.arange(q, dtype=np.int64)
    if p == 2:
        g = math.gcd(3, q - 1)
        t = cv.frobenius_traces(field, 0, 0, np.repeat(units[:g], q), np.tile(xs, g), 0)
        return np.concatenate([t, -t]), Fraction(1, 2 * q * g)
    g = math.gcd(4, q - 1)
    t = cv.frobenius_traces(field, 0, 0, 0, np.repeat(units[:g], q), np.tile(xs, g))
    return t, Fraction(1, q * g)


def j0_stratum_masses(field: "FqField") -> List[Tuple[int, Fraction]]:
    """The (a1, mass) data of the j = 0 stratum, p = 2, 3."""
    hist: Dict[int, Fraction] = {}
    _tally(hist, *j0_stratum(field))
    return sorted((a1, m) for a1, m in hist.items() if m)


def normal_form_route_masses(field: "FqField", H: "LevelStructureSpec") -> List[Tuple[int, Fraction]]:
    """(a1, mass) data of the pairs (E, P) for gamma0-2 and gamma1-4, from one
    normal form per pair, point-counted in one batch.

    gamma0-2: P of order 2 moved to (0, 0) gives y^2 = x^3 + a x^2 + b x with
    b (a^2 - 4b) != 0; the only maps between such forms are
    (a, b) -> (a u^-2, b u^-4), so each (a, b) weighs 1/(q - 1).
    gamma1-4: P of order 4 gives the Tate normal form
    y^2 + xy - by = x^3 - bx^2 with b not in {0, -1/16}, one per pair, and the
    pairs have no automorphisms: weight 1. A rational point of order N
    divides #E = q + 1 - t, which is checked for every trace. The q^2 pairs
    (a, b) of gamma0-2 are swept in blocks of about curves._TRACE_BLOCK
    curves, so memory does not grow with q^2.
    """
    from hecketrace import curves as cv

    q = field.q
    if math.gcd(H.N, q) != 1:
        raise ValueError("level must be coprime to q")
    vm, va = field.v_mul, field.v_add
    codes = np.arange(q, dtype=np.int64)
    if H is cv.GAMMA0_2:
        minus4 = np.int64(field.coerce(-4).code)
        rows = max(1, cv._TRACE_BLOCK // q)  # values of a per block

        def blocks():
            for lo in range(0, q, rows):
                a = np.repeat(codes[lo : lo + rows], q)
                b = np.tile(codes, a.size // q)
                smooth = vm(b, va(vm(a, a), vm(b, minus4))) != 0
                yield cv.frobenius_traces(field, 0, a[smooth], 0, b[smooth], 0)

        batches, weight = blocks(), Fraction(1, q - 1)
    elif H is cv.GAMMA1_4:
        b = codes[(codes != 0) & (codes != (-field.one / field.coerce(16)).code)]
        minus_b = vm(b, np.int64(field.coerce(-1).code))
        batches, weight = [cv.frobenius_traces(field, 1, minus_b, minus_b, 0, 0)], Fraction(1)
    else:
        raise ValueError("the normal-form route covers gamma0-2 and gamma1-4")
    hist: Dict[int, Fraction] = {}
    for traces in batches:
        orders = q + 1 - traces
        if (orders % H.N).any():
            bad = int(orders[orders % H.N != 0][0])
            raise ArithmeticError(f"{H.name} route: #E = {bad} is not divisible by {H.N}")
        _tally(hist, traces, weight)
    return sorted((a1, m) for a1, m in hist.items() if m)


# ---------------------------------------------------------------------------
# Drinfeld classes, one orbit and one Frobenius solve at a time


def enumerate_classes(params: "DrinfeldParams") -> "List[DrinfeldClass]":
    """Twist-orbit representatives with their Frobenius data, lex-least.

    Walks an |L|^2 bitmap of (g, delta) pairs and solves each class's
    Frobenius relation on its own with TwistedPoly arithmetic: the reference
    for the batched hecketrace.drinfeld.enumerate_classes.
    """
    from drinfeld_arith import enumerate_classes as bitmap_classes

    return bitmap_classes(params)


# ---------------------------------------------------------------------------
# Drinfeld traces from the [c_{k,l}] table: FqPoly loops over the classes,
# independent of the batched h-recurrence kernel in hecketrace.drinfeld


@dataclass(frozen=True)
class CLTable:
    """[c_{k,l}] = sum over classes of a^k b^{l-k-1}/autOrder, for k <= max_k.

    Entries are exact elements of F_q[T], indexed [k][(l-1) mod (q-1)];
    1/autOrder means the inverse of autOrder mod p inside F_p <= F_q.
    """

    params: object  # a hecketrace.drinfeld.DrinfeldParams
    max_k: int
    entries: Tuple[Tuple[object, ...], ...]  # hecketrace.drinfeld.FqPoly entries

    def value(self, k: int, l: int) -> "FqPoly":
        return self.entries[k][(l - 1) % (self.params.q - 1)]


_CL_CACHE: Dict["DrinfeldParams", CLTable] = {}


def _class_weights(
    params: "DrinfeldParams",
) -> List[Tuple["DrinfeldClass", "FqElem", List["FqElem"]]]:
    """(class, 1/autOrder in F_q, powers of b) for every class."""
    from drinfeld_arith import decode_table
    from hecketrace.drinfeld import enumerate_classes

    base, p, q = params.base, params.p, params.q
    out = []
    for cls in decode_table(params, enumerate_classes(params)):
        inv_aut = base.coerce(pow(cls.aut_order % p, p - 2, p))
        assert base.coerce(cls.aut_order) == base.coerce(-1)
        bpow = [base.one]
        for _ in range(q - 2):
            bpow.append(bpow[-1] * cls.frob_b)
        out.append((cls, inv_aut, bpow))
    return out


def cl_table(params: "DrinfeldParams", max_k: int) -> CLTable:
    from hecketrace.drinfeld import FqPoly

    cached = _CL_CACHE.get(params)
    if cached is not None and cached.max_k >= max_k:
        return cached
    base, q = params.base, params.q
    weights = _class_weights(params)
    apow = [FqPoly(base, [base.one]) for _ in weights]
    rows = []
    for k in range(max_k + 1):
        row = []
        for lres in range(q - 1):
            acc = FqPoly(base, [])
            for ci, (cls, inv_aut, bpow) in enumerate(weights):
                scale = inv_aut * bpow[(lres - k) % (q - 1)]
                if not scale.is_zero():
                    acc = acc + apow[ci] * scale
            row.append(acc)
        rows.append(tuple(row))
        for ci, (cls, _, _) in enumerate(weights):
            apow[ci] = apow[ci] * cls.frob_a
    table = CLTable(params, max_k, tuple(rows))
    _CL_CACHE[params] = table
    return table


def trace_from_cl_table(params: "DrinfeldParams", k: int, l: int) -> "FqPoly":
    """Exact trace of the wp-Hecke operator on weight k+2, type l forms.

    trace = -sum_j binom(k-j, j) (-wp)^j [c_{k-2j, l-j}], an element of
    F_q[T]; the type is read mod q-1.
    """
    from hecketrace.drinfeld import FqPoly

    if k < 0:
        raise ValueError("k must be >= 0")
    base = params.base
    table = cl_table(params, k)
    neg_wp = -params.wp
    wpj = FqPoly(base, [base.one])
    acc = FqPoly(base, [])
    for j in range(k // 2 + 1):
        c = math.comb(k - j, j) % params.p
        if c:
            acc = acc + wpj * base.coerce(c) * table.value(k - 2 * j, l - j)
        wpj = wpj * neg_wp
    return -acc


# ---------------------------------------------------------------------------
# the h-recurrence one class at a time: the reference for the weighted
# (a, b) rows of hecketrace.drinfeld._h_kernel


def _class_scales(params: "DrinfeldParams") -> Tuple["ClassTable", np.ndarray]:
    """The class table and the codes of its type scales b^e / autOrder.

    Row e of the (q - 1, classes) table is (p - 1) b^e for every class, as
    the enumeration checks that every autOrder is -1 mod p.
    """
    from hecketrace.drinfeld import enumerate_classes

    base, p, q = params.base, params.p, params.q
    table = enumerate_classes(params)
    scales = np.empty((q - 1, len(table)), dtype=np.int64)
    scales[0] = p - 1
    for e in range(1, q - 1):
        scales[e] = base.v_mul(scales[e - 1], table.b)
    return table, scales


def h_kernel_per_class(
    params: "DrinfeldParams",
    rows,
    kmax: int,
    types: Sequence[int],
    ring: Optional["ResidueRing"] = None,
):
    """hecketrace.drinfeld._h_kernel with one row per class.

    Yields the codes of trace(k, l) = -sum over classes of
    h_k b^{(l-1-k) mod (q-1)} / autOrder for k = 0..kmax, with h_k from
    h_k = a h_{k-1} - b wp h_{k-2} on (classes, T-digits) code arrays, exact
    at the fixed width floor(kmax m / 2) + 1 or reduced mod `ring`.  The
    weighted `rows` the production kernel is given are ignored: the classes
    come from the table.
    """
    from hecketrace.drinfeld import _fold_add, _mul_add, _neg_b_wp, _trim_columns

    base, q = params.base, params.q
    table, scales = _class_scales(params)
    wp = np.array(params.wp.codes(), dtype=np.int64)
    if ring is None:
        width, a = kmax * params.m // 2 + 1, table.a
    else:
        width, wp, a = ring.d, ring.reduce(wp), _trim_columns(ring.reduce(table.a))
    w = _trim_columns(_neg_b_wp(params, table.b, wp))
    span = width + max(a.shape[1], w.shape[1]) - 1
    lres = np.array([l - 1 for l in types], dtype=np.int64)
    neg_one = np.int64(base.coerce(-1).code)
    h_prev = None
    h = np.zeros((len(table), width), dtype=np.int64)
    h[:, 0] = 1
    for k in range(kmax + 1):
        if k:
            acc = np.zeros((len(table), span), dtype=np.int64)
            _mul_add(base, acc, h, a)
            if h_prev is not None:
                _mul_add(base, acc, h_prev, w)
            if ring is not None:
                h_next = ring.reduce(acc)
            elif acc[:, width:].any():
                raise ArithmeticError(f"h_{k} has a digit past degree {width - 1}")
            else:
                h_next = acc[:, :width]
            h_prev, h = h, h_next
        terms = base.v_mul(scales[(lres - k) % (q - 1)][:, :, None], h[None, :, :])
        row = _fold_add(base, np.moveaxis(terms, 1, 0))
        yield base.v_mul(row, neg_one)


# ---------------------------------------------------------------------------
# the zero-trace / unit-trace split one b at a time: the reference for the
# parts hecketrace.drinfeld.verify_period_ff folds with `_h_kernel` over the
# rows with a = 0 mod lpoly and over the units


def split_parts(
    params: "DrinfeldParams",
    spec: "DPeriodSpec",
    ring: "ResidueRing",
    l: int,
    kmin: int,
    kmax: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-k values (N, U) of the zero-trace / unit-trace split, mod lpoly^s.

    N runs over classes with a = 0 mod lpoly and keeps the exact j-sum with
    the (-b wp)^{floor(k/2)-j} history (no inversions, so lpoly = P is fine);
    U folds the g-family recurrence against per-b power sums of the units.
    """
    from hecketrace.drinfeld import ResidueRing, _fold_add, _neg_b_wp

    base, q, p, s = params.base, params.q, params.p, spec.s
    m = spec.m_ls
    table, scales = _class_scales(params)
    nw = kmax - kmin + 1
    Nvals = ring.zeros(nw)
    Uvals = ring.zeros(nw)
    abar = ring.reduce(table.a)
    wneg = ring.reduce(_neg_b_wp(params, table.b, np.array(params.wp.codes(), dtype=np.int64)))
    zero_a = ~ResidueRing(base, spec.lpoly.codes()).reduce(table.a).any(axis=1)

    nidx = np.flatnonzero(zero_a)
    if len(nidx):
        Cn = len(nidx)
        jtop = (s - 1) // 2
        apow = [ring.ones(Cn)]
        for _ in range(2 * jtop + 1):
            apow.append(ring.mul(apow[-1], abar[nidx]))
        phalf = ring.zeros(kmax + 1, Cn)
        phalf[0] = ring.ones(Cn)
        for t in range(1, kmax + 1):
            phalf[t] = ring.mul(phalf[t - 1], wneg[nidx]) if t % 2 == 0 else phalf[t - 1]
        scn = scales[(l - 1 - np.arange(q - 1)) % (q - 1)][:, nidx]
        for k in range(kmin, kmax + 1):
            delta = k % 2
            acc = ring.zeros(Cn)
            for j in range((s - 1 - delta) // 2 + 1):
                c = math.comb((k + delta) // 2 + j, 2 * j + delta) % p
                if c:
                    term = ring.mul(apow[2 * j + delta], phalf[k - 2 * j])
                    acc = base.v_add(acc, base.v_mul(term, np.int64(c)))
            acc = base.v_mul(acc, scn[k % (q - 1)][:, None])
            Nvals[k - kmin] = _fold_add(base, acc)

    units = ~zero_a
    for bcode in dict.fromkeys(table.b[units].tolist()):
        idx = np.flatnonzero(units & (table.b == bcode))
        abar_b = abar[idx]
        inv_codes = scales[0, idx]
        spow = []
        cur = ring.ones(len(idx))
        for e in range(2 * m):
            spow.append(_fold_add(base, base.v_mul(cur, inv_codes[:, None])))
            cur = ring.mul(cur, abar_b)
        s_even = np.stack([spow[2 * r] for r in range(m)])
        s_odd = np.stack([spow[2 * r + 1] for r in range(m)])
        bpow = [np.int64(1)]
        for _ in range(q - 2):
            bpow.append(base.v_mul(bpow[-1], np.int64(bcode)))
        g_prev = ring.zeros(m)
        g_prev[0] = ring.ones()
        g_cur = g_prev.copy()
        rolled = np.arange(m)

        def u_at(k: int, g_now: np.ndarray) -> np.ndarray:
            delta = k % 2
            sel = g_now[(k // 2 - rolled) % m]
            tot = _fold_add(base, ring.mul(sel, s_even if delta == 0 else s_odd))
            return base.v_mul(tot, bpow[(l - 1 - k) % (q - 1)])

        if kmin <= 0 <= kmax:
            Uvals[0 - kmin] = base.v_add(Uvals[0 - kmin], u_at(0, g_prev))
        if kmin <= 1 <= kmax and kmax >= 1:
            Uvals[1 - kmin] = base.v_add(Uvals[1 - kmin], u_at(1, g_cur))
        for k in range(2, kmax + 1):
            g_next = base.v_add(g_cur, ring.mul(np.roll(g_prev, 1, axis=0), wneg[idx[0]]))
            g_prev, g_cur = g_cur, g_next
            if k >= kmin:
                Uvals[k - kmin] = base.v_add(Uvals[k - kmin], u_at(k, g_cur))
    return Nvals, Uvals
