"""Characteristic polynomials of the Hecke operator at p on level-1
cusp-form spaces, recovered exactly from Frobenius power sums.

Newton's identities turn Tr(F_{p^n}) for n = 1..2d into det(1 - F_p x); the
Hecke polynomial drops out of that determinant triangularly. Computing the
full 2d power sums over-determines the answer, so the upper half of the
determinant doubles as a consistency check on every run. That check, the
integrality of the symmetric functions, the functional equation and the
eigenvalue bound raise InvariantError when they fail, also under python -O.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from hecketrace import curves as cv
from hecketrace import elltrace as et
from hecketrace.ffield import InvariantError, field_budget_check, fq_construct, is_prime


def dim_level1(weight: int) -> int:
    """dim S_weight(SL_2(Z)) by the classical floor formula."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    if weight % 2 or weight < 12:
        return 0
    return weight // 12 - (1 if weight % 12 == 2 else 0)


class HeckeCharPoly(NamedTuple):
    p: int
    weight: int
    poly: Tuple[int, ...]  # det(1 - T(p) x), ascending, constant term 1

    @property
    def dim(self) -> int:
        return len(self.poly) - 1


def _interior(p: int, n: int, k: int, max_field_size: Optional[int]) -> int:
    field = fq_construct(p, n, max_size=max_field_size)
    return et.trace_interior(field, cv.LEVEL1, k)


def charpoly_Tp(
    p: int, weight: int, max_field_size: Optional[int] = None
) -> HeckeCharPoly:
    """det(1 - T(p) x | S_weight(SL_2(Z))) with integer coefficients."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    d = dim_level1(weight)
    field_budget_check(p, 2 * d, max_field_size)  # the power sums reach F_{p^2d}
    if d == 0:
        return HeckeCharPoly(p=p, weight=weight, poly=(1,))
    k = weight - 2
    psums = [-1 - _interior(p, n, k, max_field_size) for n in range(1, 2 * d + 1)]
    # e_j of the 2d Frobenius eigenvalues, exact
    e: List[Fraction] = [Fraction(1)]
    for n in range(1, 2 * d + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += (-1) ** (i - 1) * e[n - i] * psums[i - 1]
        val = acc / n
        if val.denominator != 1:
            raise InvariantError(f"non-integral symmetric function e_{n}")
        e.append(val)
    C = [int(e[j]) * (-1 if j % 2 else 1) for j in range(2 * d + 1)]
    P = p ** (weight - 1)
    for j in range(d + 1):
        if C[2 * d - j] != P ** (d - j) * C[j]:
            raise InvariantError(f"functional equation failed at degree {2 * d - j}")

    def product_coeff(m: int, f: Sequence[int]) -> int:
        # x^m coefficient of prod_i (1 - a_i x + P x^2) given f_j = e_j(a)-signs
        return sum(
            math.comb(d - m + 2 * t, t) * P ** t * f[m - 2 * t]
            for t in range(0, m // 2 + 1)
            if 0 <= m - 2 * t <= d and d - m + 2 * t >= t
        )

    f: List[int] = [1]
    for m in range(1, d + 1):
        tail = sum(
            math.comb(d - m + 2 * t, t) * P ** t * f[m - 2 * t]
            for t in range(1, m // 2 + 1)
            if d - m + 2 * t >= t
        )
        f.append(C[m] - tail)
    for m in range(d + 1, 2 * d + 1):
        if product_coeff(m, f) != C[m]:
            raise InvariantError(f"power sums inconsistent at degree {m}")
    for j in range(1, d + 1):
        if f[j] ** 2 > math.comb(d, j) ** 2 * (4 * P) ** j:
            raise InvariantError(f"coefficient {j} breaks the eigenvalue bound")
    return HeckeCharPoly(p=p, weight=weight, poly=tuple(f))


def poly_mod(poly: Sequence[int], p: int) -> Tuple[int, ...]:
    """Coefficients mod p, trailing zero residues dropped."""
    out = [c % p for c in poly]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def slope0_mult(p: int, weight: int) -> int:
    """Multiplicity of unit eigenvalues: the degree of the charpoly mod p."""
    return len(poly_mod(charpoly_Tp(p, weight).poly, p)) - 1
