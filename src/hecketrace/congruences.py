"""The paper's binomial lemma, period tables, and periodicity certificates.

The unit part of a trace is made of the sums of binom(k-j, j) x^j over a
residue class of j mod m, one family for both settings: x = -q over Z for
elliptic forms (`f_values`, whose classes are anchored at k//2 and split by
the parity of k), and x = -b wp over F_q[T] or x = b over F_q for Drinfeld
forms.  `binomial_classes` sums every class of one weight in one pass on any
of those rings; the generating series in k are rational, and `series_head`
checks that a truncated series times its denominator ends in a vanishing
tail.  The certificates divide and expand polynomials over Z/m (`ZMod`)
with the polynomial kernel of `ffield`.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from hecketrace.ffield import (
    CertificateRefused,
    FieldOps,
    is_prime,
    rp_divmod,
    rp_series_quotient,
    rp_trim,
    weight_budget_check,
)


def legendre(a: int, ell: int) -> int:
    """Legendre symbol (a/ell) for an odd prime ell, in {-1, 0, 1}."""
    a %= ell
    if a == 0:
        return 0
    r = pow(a, (ell - 1) // 2, ell)
    return 1 if r == 1 else -1


def is_square_mod_2s(q: int, s: int) -> bool:
    """Whether odd q is a square in (Z/2^s)^x, by exhaustive squaring."""
    m = 2 ** s
    squares = {u * u % m for u in range(1, m, 2)}
    return q % m in squares


# ---------------------------------------------------------------------------
# the lemma's binomial family: sums of binom(k-j, j) x^j over a residue class
# of j mod m, whose generating series in k are rational


def binomial_classes(x, m: int, k: int) -> list:
    """Entry r is the sum of binom(k-j, j) x^j over the j <= k//2 with
    j = r mod m, for every r < m in one pass over j; x is an int, an
    `FqElem` or an `FqPoly`, and the entries are of its type.

    The binomial steps exactly by binom(k-j, j) = binom(k-j+2, j-1)
    (k-2j+2)(k-2j+1) / (j (k-j+1)); its product with x^j coerces it into
    x's ring, mod p over F_q.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = [x * 0] * m
    c, xj = 1, x ** 0  # binom(k-j, j) exactly, x^j
    for j in range(k // 2 + 1):
        if j:
            c = c * (k - 2 * j + 2) * (k - 2 * j + 1) // (j * (k - j + 1))
            xj = xj * x
        out[j % m] = out[j % m] + c * xj
    return out


def series_head(series: Sequence, den: Sequence, bound: int) -> list:
    """The coefficients through t^bound of den(t) sum_k series[k] t^k.

    Raises ArithmeticError unless every coefficient above t^bound vanishes
    through the horizon t^(len(series) - 1): the series is then rational
    with denominator den and a numerator of degree <= bound, the head.
    """
    zero = series[0] * 0
    prod = []
    for t in range(len(series)):
        acc = zero
        for i in range(min(t, len(den) - 1) + 1):
            acc = acc + den[i] * series[t - i]
        if t > bound and acc != zero:
            raise ArithmeticError(
                f"series is not rational with the expected denominator at degree {t}"
            )
        prod.append(acc)
    return prod[: bound + 1]


def class_numerator(x, r: int, m: int) -> list:
    """Numerator of sum_k binomial_classes(x, m, k)[r] t^k against
    (1-t)^m - (x t^2)^m, of degree <= 2m-2, checked through t^(4m+2): the
    Drinfeld setting, x = -b wp over F_q[T] and x = b over F_q."""
    series = [binomial_classes(x, m, k)[r % m] for k in range(4 * m + 3)]
    den = [(-1) ** i * math.comb(m, i) for i in range(m + 1)] + [0] * (m - 1) + [-(x ** m)]
    return series_head(series, den, 2 * m - 2)


def f_values(q: int, m: int, k: int) -> List[int]:
    """The f family of weight k for every residue r mod m: entry r is the sum
    of binom(k-j, j) (-q)^j over the j <= k//2 with k//2 - j = r mod m.

    As k//2 - j takes only the values 0..k//2, the residues past k//2 have
    f = 0, so at most k//2 + 1 entries are returned.
    """
    classes, half = binomial_classes(-q, m, k), k // 2
    return [classes[(half - r) % m] for r in range(min(m, half + 1))]


def f_denominator(q: int, m: int) -> List[int]:
    """Coefficients of (1 + q x^2)^{2m} - x^{2m} over Z, ascending."""
    out = [0] * (4 * m + 1)
    for i in range(2 * m + 1):
        out[2 * i] += math.comb(2 * m, i) * q ** i
    out[2 * m] -= 1
    return rp_trim(out)


def f_numerator(q: int, r: int, m: int, delta: int) -> List[int]:
    """Numerator of the fixed-parity generating series of the f family:
    the series restricted to k = delta (mod 2) against the denominator
    (1+qx^2)^{2m} - x^{2m}, checked through x^(10m+4); its degree is at most
    4m-2-delta."""
    series = [
        binomial_classes(-q, m, k)[(k // 2 - r) % m] if k % 2 == delta else 0
        for k in range(10 * m + 5)
    ]
    return rp_trim(series_head(series, f_denominator(q, m), 4 * m - 2 - delta))


# ---------------------------------------------------------------------------
# theorem period table


class PeriodSpec(NamedTuple):
    """Resolved weight period data for one (ell, s, q, H) combination."""

    ell: int
    s: int
    q: int
    case: str
    n: int
    k0: int
    m_ls: int
    s_eff: int
    shift_applied: bool


def m_ls_value(ell: int, s: int) -> int:
    """Residue-class count for the unit-trace part of the split."""
    if ell == 2 and s == 1:
        return 1
    return ell ** (s - 1) * (ell - 1) // 2


def n_u_value(ell: int, s: int, q: int) -> int:
    """Weight period of the unit-trace coefficient family."""
    if ell == 2:
        return math.lcm(2, 2 ** (s - 1) * 3)
    if legendre(q, ell) == 1:
        return ell ** s * (ell * ell - 1) // 2
    return ell ** (s - 1) * (ell * ell - 1)


def period_for(
    ell: int,
    s: int,
    q: int,
    representable: bool = True,
    nu: int = 0,
) -> PeriodSpec:
    """Weight period n and floor k0 from the main congruence theorem.

    For a non-representable level subgroup with ell in {2, 3}, s is replaced
    by s + nu inside the definition of n; the comparison modulus ell^s and
    the floor k0 keep the raw s.
    """
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if s < 1:
        raise ValueError("s must be >= 1")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    s_eff = s
    shift = False
    if not representable and ell in (2, 3):
        s_eff = s + nu
        shift = s_eff != s
    if q % ell == 0:
        pp = q
        p = ell
        a = 0
        while pp % p == 0:
            pp //= p
            a += 1
        if pp != 1:
            raise ValueError("ell divides q but q is not a power of ell")
        n = ell ** (s_eff - 1) * (ell - 1)
        k0 = 2 * s - 1 if q == ell else s
        case = "ell-divides-q"
    elif ell == 2:
        # both tags share one period: once s_eff >= 2 the non-unit part needs
        # 2^s_eff (odd-weight binomial step and ord(-q) for q = 1 mod 4), which
        # absorbs the square case's smaller lcm(2, 3 * 2^(s_eff - 1))
        case = "ell2-square" if is_square_mod_2s(q, s_eff) else "ell2-nonsquare"
        n = 2 ** s_eff * 3
        k0 = s - 1
    else:
        if legendre(q, ell) == 1:
            n = ell ** s_eff * (ell * ell - 1) // 2
            case = "odd-square"
        else:
            n = ell ** (s_eff - 1) * (ell * ell - 1)
            case = "odd-nonsquare"
        k0 = s - 1
    return PeriodSpec(ell, s, q, case, n, k0, m_ls_value(ell, s), s_eff, shift)


# ---------------------------------------------------------------------------
# certificates


class ZMod(FieldOps):
    """The ring Z/m on ints in [0, m), with the integer arithmetic that
    `FieldOps` runs for a prime field; inv raises ValueError on a non-unit.
    Z/m is no field, so Rabin's test and the root finder are not for it."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        super().__init__(m)
        self.m = m


def poly_divides_mod(d: Sequence[int], f: Sequence[int], modulus: int) -> Tuple[bool, Optional[list]]:
    """Decide whether d divides f over Z/modulus, returning (bool, witness).

    The witness is the quotient when divisibility holds, else None. The
    leading coefficient of d must be a unit after reduction; otherwise
    ValueError is raised.
    """
    ring = ZMod(modulus)
    quo, rem = rp_divmod(ring, [c % modulus for c in f], [c % modulus for c in d])
    return (False, None) if rem else (True, quo)


def periodic_certificate(
    f: Sequence[int],
    d: Sequence[int],
    n: int,
    modulus: int,
) -> bool:
    """Certify that the series f/d over Z/modulus is n-periodic in its tail.

    Checks d | x^n - 1 (raising CertificateRefused when that fails or when
    the division cannot even be attempted), then compares series coefficients
    a_k and a_{k+n} for deg f - deg d < k <= max(deg f, 0) + 2n.
    """
    ring = ZMod(modulus)
    ff = rp_trim([c % modulus for c in f])
    dd = rp_trim([c % modulus for c in d])
    if not dd:
        raise CertificateRefused("denominator vanishes mod modulus")
    try:
        ok, _ = poly_divides_mod(dd, [-1] + [0] * (n - 1) + [1], modulus)
    except ValueError as e:
        raise CertificateRefused(str(e))
    if not ok:
        raise CertificateRefused(f"denominator does not divide x^{n} - 1 mod {modulus}")
    if math.gcd(dd[0], modulus) != 1:
        raise CertificateRefused("constant term of denominator is not a unit")
    degf = len(ff) - 1 if ff else -1
    degd = len(dd) - 1
    horizon = max(degf, 0) + 2 * n
    coeffs = rp_series_quotient(ring, ff, dd, horizon + n + 1)
    start = max(degf - degd + 1, 0)
    for k in range(start, horizon + 1):
        if coeffs[k] != coeffs[k + n]:
            return False
    return True


def d_qt_poly(q: int, ell: int, t: int) -> List[int]:
    """The certified denominator for level t of the unit-trace family."""
    if ell == 2 and t == 1:
        return [1, -1, q]
    m = m_ls_value(ell, t)
    return f_denominator(q, m)


# ---------------------------------------------------------------------------
# theorem verification against computed traces


def verify_periodicity(
    field,
    H,
    ell: int,
    s: int,
    kmin: Optional[int] = None,
    kmax: Optional[int] = None,
    max_weight: Optional[int] = None,
) -> Tuple[PeriodSpec, List[dict], bool]:
    """Check the weight periodicity of Frobenius traces mod ell^s.

    Returns the resolved PeriodSpec, one record per weight k compared, and an
    overall pass flag; a window reaching below the floor k0 is an error. The
    period is even for every preset level structure, so the boundary terms
    cancel and the interior sums are compared directly.
    """
    from hecketrace import curves, elltrace

    q = field.q
    nu = 0
    if not H.representable and ell in (2, 3):
        nu = curves.nu_ell(H, field, ell)
    spec = period_for(ell, s, q, representable=H.representable, nu=nu)
    if kmin is None:
        kmin = spec.k0
    if kmin < spec.k0:
        raise ValueError(f"window starts at {kmin}, below the floor k0={spec.k0}")
    if kmax is None:
        kmax = spec.k0 + 2 * spec.n
    if kmax < kmin:
        raise ValueError("empty window")
    weight_budget_check(kmax + spec.n + 2, max_weight)
    modulus = ell ** s
    interior = elltrace.interior_sequence_mod(field, H, kmax + spec.n, modulus)
    records = []
    all_ok = True
    for k in range(kmin, kmax + 1):
        lhs = interior[k]
        rhs = interior[k + spec.n]
        ok = lhs == rhs
        all_ok = all_ok and ok
        records.append(
            {
                "ell": ell,
                "s": s,
                "q": q,
                "N": H.N,
                "H": H.name,
                "n": spec.n,
                "k": k,
                "lhs": int(lhs),
                "rhs": int(rhs),
                "pass": bool(ok),
            }
        )
    return spec, records, all_ok


# ---------------------------------------------------------------------------
# reference constants for high-weight trace congruences


WEIGHT28_TRACE_POLYS: Dict[str, Tuple[int, List[int]]] = {
    # modulus tag -> (modulus or exponent marker, ascending coefficients in q)
    "mod25": (25, [0, 5, 10, 4, 10, 21, 7, 22, 19, 10, 19, 0, 22, 15, 15]),
    "mod27": (27, [0, 0, 18, 3, 18, 6, 20, 21, 0, 26, 18, 0, 9]),
    "mod2r": (0, [0, 0, 116, 37, 31, 24, 108, 74, 7, 96, 6, 3, 26, 24, 92]),
}

# e2, e4, e6, e8 of {1,...,9}: expanding prod_{j=1}^{9}(x - j) = 0 mod 9! and
# dropping odd moments gives [a_1^k] + sum_m e_{2m} [a_1^{k-2m}] = 0.
EVEN_MOMENT_RECURRENCE = (870, 63273, 723680, 1026576)


def recurrence_modulus_exponent(ell: int, p: int) -> int:
    """Exponent r with the degree-four even-moment recurrence valid mod ell^r."""
    if ell == 2:
        return 6 if p == 2 else 7
    return {3: 3, 5: 2, 7: 1}.get(ell, 0)


def two_power_exponent_for_weight28(p: int) -> int:
    return recurrence_modulus_exponent(2, p)
