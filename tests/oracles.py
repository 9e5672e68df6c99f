"""Independent oracles: q-expansions that pin expected trace values, and a
full-range sieve of Hurwitz class numbers.

Everything here is plain integer series or numpy arithmetic, no imports from
the package under test.
"""

import math
from typing import List

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
