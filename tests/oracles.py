"""Independent oracles: q-expansions that pin expected trace values, a
full-range sieve of Hurwitz class numbers, a rational fold of mass lists, and
the mass routes by enumeration (reduced families, the full isomorphism
classification and its automorphism stabilizers).

Everything but the enumeration routes is plain integer series or numpy
arithmetic. Those routes use the package's curve arithmetic, but none of its
mass routes; they import it when called, because perfbench/run.py loads this
file without the package on the path.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

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


# ---------------------------------------------------------------------------
# mass routes by enumeration: the per-curve loop over reduced Weierstrass
# families and the full isomorphism classification, q^5 curves at a time.
# They use the package's curve arithmetic and point counts but none of its
# mass routes, and they stay usable for q <= 17.

DEFAULT_MAX_CLASSIFY = 1 << 21


@dataclass
class IsoClass:
    rep: object  # a hecketrace.curves.WeierstrassCurve
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
    from hecketrace.curves import WeierstrassCurve, trace_of_frobenius
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
    from hecketrace.curves import GAMMA0_2, GAMMA1_4, exact_order_points

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
    from hecketrace.curves import GAMMA0_2, WeierstrassCurve, exact_order_points, trace_of_frobenius

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
        assert sum(hist.values()) == q, "level-1 mass formula"
    return sorted((a1, m) for a1, m in hist.items() if m)


def class_route_masses(
    field: "FqField", H: "LevelStructureSpec", max_entries: int = DEFAULT_MAX_CLASSIFY
) -> List[Tuple[int, Fraction]]:
    """Weighted (a1, mass) data from the full isomorphism classification."""
    from hecketrace.curves import structure_count

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
