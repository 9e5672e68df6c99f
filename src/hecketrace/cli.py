"""Command-line front end: traces, congruence certificates, self-test suites.

Every subcommand echoes its resolved parameters to stderr (runs are
reproducible from that line alone) and emits results on stdout in one of
three formats.  All numbers are exact decimals; polynomial ring elements of
F_q[T] appear as ascending coefficient arrays, each F_q coefficient itself
an ascending F_p coefficient vector.  Verification subcommands exit nonzero
when any check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from hecketrace import congruences as cg
from hecketrace import curves as cv
from hecketrace import drinfeld as dr
from hecketrace import elltrace as et
from hecketrace import heckepoly as hp
from hecketrace.ffield import (
    BudgetError,
    DEFAULT_MAX_FIELD_SIZE,
    DEFAULT_MAX_WEIGHT,
    FqElem,
    FqField,
    FqPoly,
    canonical_irreducibles,
    fq_construct,
    fq_poly_from_codes,
    prime_power_decompose,
)


# ---------------------------------------------------------------------------
# parsing and emission helpers


def field_for(q: int, max_field_size: Optional[int]) -> FqField:
    pp = prime_power_decompose(q)
    return fq_construct(pp.p, pp.a, max_size=max_field_size)


_TERM_RE = re.compile(r"(-)?(\d+)?\*?(?:(T)(?:\^(\d+))?)?")


def parse_fq_poly(field: FqField, text: str) -> FqPoly:
    """Parse 'T^2+2*T+1' (integer coefficients) or '[c0,c1,...]' (codes).

    The bracket form takes ascending element codes and is the only way to
    write coefficients outside the prime field.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    if text.startswith("["):
        return fq_poly_from_codes(field, json.loads(text))
    coeffs: dict = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        m = _TERM_RE.fullmatch(term)
        if m is None or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse term {term!r} of {text!r}")
        c = int(m.group(2)) if m.group(2) else 1
        if m.group(1):
            c = -c
        e = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        coeffs[e] = coeffs.get(e, 0) + c
    top = max(coeffs)
    return FqPoly(field, [field.coerce(coeffs.get(e, 0)) for e in range(top + 1)])


def elem_vector(e: FqElem) -> List[int]:
    return list(e.coeffs)


def poly_vectors(poly: FqPoly) -> List[List[int]]:
    return [elem_vector(c) for c in poly.coeffs]


def _echo(args: argparse.Namespace, path: str) -> None:
    skip = {"func", "human"}
    parts = [f"{k.replace('_', '-')}={v}" for k, v in sorted(vars(args).items()) if k not in skip]
    print(f"# hecketrace {path} " + " ".join(parts), file=sys.stderr)


def _csv_cell(v):
    if isinstance(v, (list, tuple)):
        return json.dumps(v, separators=(",", ":"))
    if v is None:
        return ""
    return v


def emit(rows: Sequence[dict], fmt: str, human: Callable[[dict], str]) -> None:
    if fmt == "json":
        for r in rows:
            print(json.dumps(r, separators=(",", ":")))
    elif fmt == "csv":
        if rows:
            w = csv.writer(sys.stdout, lineterminator="\n")
            keys = list(rows[0])
            w.writerow(keys)
            for r in rows:
                w.writerow([_csv_cell(r[k]) for k in keys])
    else:
        for r in rows:
            print(human(r))


# ---------------------------------------------------------------------------
# ell subcommands


def cmd_ell_moments(args) -> int:
    field = field_for(args.q, args.max_field_size)
    H = cv.level_structure(args.level)
    table = et.moments(field, H, args.kmax, cache_dir=args.cache_dir)
    rows = [
        {"q": args.q, "H": H.name, "k": k, "value": v}
        for k, v in enumerate(table.moments[: args.kmax + 1])
    ]
    emit(rows, args.format, lambda r: f"{r['k']} {r['value']}")
    return 0


def cmd_ell_trace(args) -> int:
    if args.weight < 2:
        raise ValueError("weight must be >= 2")
    field = field_for(args.q, args.max_field_size)
    H = cv.level_structure(args.level)
    res = et.trace(field, H, args.weight - 2)
    if res.interior_only:
        print("# no boundary data for this parity: interior sum only", file=sys.stderr)
    rows = [
        {
            "q": args.q,
            "H": H.name,
            "weight": args.weight,
            "value": res.value,
            "interiorOnly": res.interior_only,
        }
    ]
    emit(rows, args.format, lambda r: str(r["value"]))
    return 0


def cmd_ell_split(args) -> int:
    if args.weight < 2:
        raise ValueError("weight must be >= 2")
    field = field_for(args.q, args.max_field_size)
    H = cv.level_structure(args.level)
    st = et.split_trace(field, H, args.weight - 2, args.ell, args.s)
    rows = [
        {
            "q": args.q,
            "H": H.name,
            "weight": args.weight,
            "ell": args.ell,
            "s": args.s,
            "nPart": st.n_part,
            "uPart": st.u_part,
            "traceMod": st.trace_mod,
        }
    ]
    emit(
        rows,
        args.format,
        lambda r: f"nPart={r['nPart']} uPart={r['uPart']} traceMod={r['traceMod']}",
    )
    return 0


def cmd_ell_verify_period(args) -> int:
    field = field_for(args.q, args.max_field_size)
    H = cv.level_structure(args.level)
    spec, records, ok = cg.verify_periodicity(
        field, H, args.ell, args.s, kmin=args.kmin, kmax=args.kmax, max_weight=args.max_weight
    )
    emit(
        records,
        args.format,
        lambda r: f"k={r['k']} lhs={r['lhs']} rhs={r['rhs']} {'pass' if r['pass'] else 'FAIL'}",
    )
    verdict = "all pass" if ok else "FAIL"
    print(f"# case={spec.case} k0={spec.k0} s_eff={spec.s_eff}", file=sys.stderr)
    print(f"period {spec.n}: {verdict}")
    return 0 if ok else 1


def cmd_ell_hecke_poly(args) -> int:
    cp = hp.charpoly_Tp(args.p, args.weight, max_field_size=args.max_field_size)
    coeffs = list(hp.poly_mod(cp.poly, args.mod)) if args.mod else list(cp.poly)
    rows = [
        {
            "p": args.p,
            "weight": args.weight,
            "dim": cp.dim,
            "mod": args.mod,
            "coeffs": coeffs,
        }
    ]
    emit(rows, args.format, lambda r: " ".join(str(c) for c in r["coeffs"]))
    return 0


def cmd_ell_class_number(args) -> int:
    lhs, rhs = et.class_number_identity_sides(args.p, args.ell)
    ok = lhs == rhs
    rows = [{"p": args.p, "ell": args.ell, "lhs": str(lhs), "rhs": str(rhs), "pass": ok}]
    emit(
        rows,
        args.format,
        lambda r: f"lhs={r['lhs']} rhs={r['rhs']} {'pass' if r['pass'] else 'FAIL'}",
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# dr subcommands


def _dr_params(args) -> dr.DrinfeldParams:
    field = field_for(args.q, args.max_field_size)
    P = parse_fq_poly(field, args.P)
    return dr.drinfeld_params(P, args.n, max_field_size=args.max_field_size)


def cmd_dr_enumerate(args) -> int:
    params = _dr_params(args)
    pvec = poly_vectors(params.P)
    rows = [
        {
            "q": args.q,
            "P": pvec,
            "n": args.n,
            "g": elem_vector(c.g),
            "delta": elem_vector(c.delta),
            "autOrder": c.aut_order,
            "orbitSize": c.orbit_size,
            "a": poly_vectors(c.frob_a),
            "b": elem_vector(c.frob_b),
        }
        for c in dr.enumerate_classes(params)
    ]
    emit(
        rows,
        args.format,
        lambda r: (
            f"g={_csv_cell(r['g'])} delta={_csv_cell(r['delta'])} "
            f"aut={r['autOrder']} orbit={r['orbitSize']} "
            f"a={_csv_cell(r['a'])} b={_csv_cell(r['b'])}"
        ),
    )
    return 0


def cmd_dr_trace(args) -> int:
    if args.weight < 2:
        raise ValueError("weight must be >= 2")
    params = _dr_params(args)
    tr = dr.trace_Tpn(params, args.weight - 2, args.type)
    rows = [
        {
            "q": args.q,
            "P": poly_vectors(params.P),
            "n": args.n,
            "weight": args.weight,
            "type": args.type,
            "trace": poly_vectors(tr),
        }
    ]
    emit(rows, args.format, lambda r: _csv_cell(r["trace"]))
    return 0


def cmd_dr_verify_period(args) -> int:
    params = _dr_params(args)
    lpoly = parse_fq_poly(params.base, args.ell)
    spec, records, ok = dr.verify_period_ff(
        params, lpoly, args.s, args.type, kmin=args.kmin, kmax=args.kmax
    )
    rows = [
        {
            "k": r["k"],
            "trace": list(r["trace"]),
            "shifted": list(r["shifted"]),
            "pass": r["ok"],
            "nPart": list(r["n_part"]),
            "uPart": list(r["u_part"]),
            "splitPass": r["split_ok"],
        }
        for r in records
    ]
    emit(
        rows,
        args.format,
        lambda r: (
            f"k={r['k']} trace={_csv_cell(r['trace'])} "
            f"{'pass' if r['pass'] and r['splitPass'] else 'FAIL'}"
        ),
    )
    print(f"# case={spec.case} k0={spec.k0} m_ls={spec.m_ls}", file=sys.stderr)
    print(f"period {spec.period}: {'all pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_dr_ramanujan(args) -> int:
    params = _dr_params(args)
    rep = dr.ramanujan_check(params)
    pvec = poly_vectors(params.P)
    if rep.vacuous:
        rows = [{"q": args.q, "P": pvec, "n": args.n, "vacuous": True, "pass": True}]
    else:
        rows = [
            {
                "q": args.q,
                "P": pvec,
                "n": args.n,
                "k": k,
                "l": l,
                "degTr": deg,
                "bound": bound,
                "pass": ok,
            }
            for (k, l, deg, bound, ok) in rep.rows
        ]
    # the report is JSON lines whatever the format flag says, per contract
    fmt = "csv" if args.format == "csv" else "json"
    emit(rows, fmt, lambda r: json.dumps(r, separators=(",", ":")))
    return 0 if rep.all_ok else 1


# ---------------------------------------------------------------------------
# selftest subcommands


def _lemma_trials(rng: random.Random, trials: int) -> Iterable[Tuple[str, Callable[[], None]]]:
    """One (name, thunk) per property instance; thunks raise on failure."""

    def binom_rows():
        fam = cg.CoeffFamily()
        k = rng.randrange(2, 60)
        row = fam.row(k)
        for j in range(len(row)):
            assert row[j] == math.comb(k - j, j)

    def series_rational_int():
        q = rng.choice([2, 3, 4, 5, 7, 9])
        m = rng.randrange(1, 4)
        num = cg.f_numerator(q, rng.randrange(2 * m), m, rng.randrange(2))
        assert len(num) - 1 <= 4 * m - 2

    def series_rational_ff():
        field = fq_construct(rng.choice([2, 3]), 1)
        P = rng.choice(canonical_irreducibles(field, rng.randrange(1, 3)))
        params = dr.drinfeld_params(P, rng.randrange(1, 3))
        b = field.decode(rng.randrange(1, field.q))
        m = rng.randrange(1, 4)
        dr.g_series_numerator(b, rng.randrange(m), m, params)
        dr.h_series_numerator(b, rng.randrange(m), m)

    def unit_period_certificate():
        ell, q = rng.choice([(3, 2), (3, 7), (5, 2), (5, 4), (2, 3), (2, 5), (2, 9)])
        s = rng.randrange(1, 3)
        t = rng.randrange(1, s + 1)
        nu = cg.n_u_value(ell, s, q)
        d = cg.d_qt_poly(q, ell, t)
        f = [1] if ell == 2 and t == 1 else cg.f_numerator(q, 0, cg.m_ls_value(ell, t), 0)
        assert cg.periodic_certificate(f, d, nu, ell ** (s + 1 - t)) is True

    def split_rejoin():
        q = rng.choice([2, 3, 4, 5, 7, 9])
        field = field_for(q, None)
        H = cv.LEVEL1
        # level-1 automorphism masses carry the primes 2 and 3, so ell >= 5
        ell = rng.choice([x for x in (5, 7, 11, 13) if x != field.p])
        s = rng.randrange(1, 3)
        k = rng.randrange(s - 1, 14)
        interior = et.interior_sequence_mod(field, H, k, ell**s)
        st = et.split_trace(field, H, k, ell, s)
        assert (st.n_part + st.u_part) % ell**s == interior[k]

    def twist_partition():
        field = fq_construct(rng.choice([2, 3]), 1)
        P = rng.choice(canonical_irreducibles(field, rng.randrange(1, 3)))
        params = dr.drinfeld_params(P, 1)
        classes = dr.enumerate_classes(params)
        qL = params.L.q
        assert sum(c.orbit_size for c in classes) == qL * (qL - 1)

    def torsion_oracle():
        field = fq_construct(rng.choice([2, 3]), 1)
        P = rng.choice(canonical_irreducibles(field, 1))
        params = dr.drinfeld_params(P, rng.randrange(1, 3))
        classes = dr.enumerate_classes(params)
        cls = classes[rng.randrange(len(classes))]
        deg = rng.randrange(1, 3)
        pool = [f for f in canonical_irreducibles(field, deg) if f != P]
        laux = pool[rng.randrange(len(pool))]
        tr, nrm = dr.frobenius_mod_torsion(params, cls, laux)
        assert tr == cls.frob_a % laux
        assert nrm == (params.wp * cls.frob_b) % laux

    def unit_exponent():
        field = fq_construct(rng.choice([2, 3]), 1)
        deg = rng.randrange(1, 3)
        lpoly = rng.choice(canonical_irreducibles(field, deg))
        s = rng.randrange(1, 3) if field.q**deg <= 9 else 1
        assert dr.exponent_check(lpoly, s)

    props = [
        ("binom-rows", binom_rows),
        ("series-rational-int", series_rational_int),
        ("series-rational-ff", series_rational_ff),
        ("unit-period-certificate", unit_period_certificate),
        ("split-rejoin", split_rejoin),
        ("twist-partition", twist_partition),
        ("torsion-oracle", torsion_oracle),
        ("unit-exponent", unit_exponent),
    ]
    for name, fn in props:
        for i in range(trials):
            yield f"{name}[{i}]", fn


def cmd_selftest_lemmas(args) -> int:
    rng = random.Random(args.seed)
    rows = []
    failed = False
    for name, fn in _lemma_trials(rng, args.trials):
        try:
            fn()
            ok, detail = True, ""
        except (AssertionError, ArithmeticError, cg.CertificateRefused) as exc:
            ok, detail = False, str(exc)
            failed = True
        rows.append({"name": name, "pass": ok, "detail": detail})
    emit(
        rows,
        args.format,
        lambda r: f"{'ok' if r['pass'] else 'FAIL'} {r['name']}"
        + (f": {r['detail']}" if r["detail"] else ""),
    )
    return 1 if failed else 0


# classical weight-12 eigenvalues; the test suite re-derives them from a
# q-expansion oracle, here they are pinned constants
TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738}

MOMENT_CLOSED_FORMS = {
    0: lambda q: q,
    2: lambda q: q * q - 1,
    4: lambda q: 2 * q**3 - 3 * q - 1,
    6: lambda q: 5 * q**4 - 9 * q * q - 5 * q - 1,
    8: lambda q: 14 * q**5 - 28 * q**3 - 20 * q * q - 7 * q - 1,
}


def _example_checks() -> Iterable[Tuple[str, Callable[[], None]]]:
    def moment_closed_forms():
        for q in (2, 3, 4, 5, 7, 9):
            field = field_for(q, None)
            table = et.moments(field, cv.LEVEL1, 8)
            for k, form in MOMENT_CLOSED_FORMS.items():
                assert table.moments[k] == form(q), (q, k)
            for k in (1, 3, 5, 7):
                assert table.moments[k] == 0, (q, k)

    def weight12_eigenvalues():
        for p, tau in TAU.items():
            assert et.trace(field_for(p, None), cv.LEVEL1, 10).value == tau, p
        assert et.trace(field_for(4, None), cv.LEVEL1, 10).value == TAU[2] ** 2 - 2 * 2**11

    def weight28_congruences():
        for q in (2, 3, 4, 5, 7, 9):
            field = field_for(q, None)
            tr = et.trace(field, cv.LEVEL1, 26).value
            for tag, (modulus, coeffs) in cg.WEIGHT28_TRACE_POLYS.items():
                if tag == "mod2r":
                    modulus = 2 ** cg.two_power_exponent_for_weight28(field.p)
                want = sum(c * pow(q, i, modulus) for i, c in enumerate(coeffs)) % modulus
                assert tr % modulus == want, (q, tag)

    def even_moment_recurrence():
        for q in (2, 3):
            field = field_for(q, None)
            table = et.moments(field, cv.LEVEL1, 14)
            mom = table.moments
            for ell in (3, 7):
                r = cg.recurrence_modulus_exponent(ell, field.p)
                mod = ell**r
                for i in (0, 1):
                    lhs = mom[10 + 2 * i]
                    rhs = -sum(
                        c * mom[8 + 2 * i - 2 * j]
                        for j, c in enumerate(cg.EVEN_MOMENT_RECURRENCE)
                    )
                    assert (lhs - rhs) % mod == 0, (q, ell, i)

    def elliptic_period_table():
        spec, _, ok = cg.verify_periodicity(field_for(2, None), cv.LEVEL1, 5, 1)
        assert ok and spec.n == 24 and not spec.shift_applied
        # level 1 is not rigid, so ell in {2, 3} picks up the s -> s + nu shift
        spec, _, ok = cg.verify_periodicity(field_for(3, None), cv.LEVEL1, 2, 1)
        assert ok and spec.n == 12 and spec.s_eff == 2
        spec, _, ok = cg.verify_periodicity(field_for(2, None), cv.LEVEL1, 2, 2)
        assert ok and spec.case == "ell-divides-q" and spec.n == 8

    def hecke_charpoly():
        assert hp.charpoly_Tp(5, 12).poly == (1, -4830)
        assert hp.poly_mod(hp.charpoly_Tp(5, 16).poly, 5) == hp.poly_mod(
            hp.charpoly_Tp(5, 20).poly, 5
        )
        assert hp.slope0_mult(5, 16) == hp.slope0_mult(5, 20)

    def class_number_identity():
        for p in (5, 31, 101):
            lhs, rhs = et.class_number_identity_sides(p, 11)
            assert lhs == rhs, p
            # lhs comes from class numbers; the j-line counts points instead
            assert et.nonunit_mass(fq_construct(p, 1), 11, route="jline") == rhs, p
        assert et.class_number_identity_sides(31, 11)[0] == Fraction(10, 3)

    def drinfeld_classes():
        field = fq_construct(2, 1)
        params = dr.drinfeld_params(parse_fq_poly(field, "T"), 1)
        got = [
            (c.g.code, c.delta.code, c.aut_order, c.frob_a.codes(), c.frob_b.code)
            for c in dr.enumerate_classes(params)
        ]
        assert got == [(0, 1, 1, (), 1), (1, 1, 1, (1,), 1)]

    def drinfeld_weight8_residue():
        field = fq_construct(3, 1)
        tsq = parse_fq_poly(field, "T^2")
        one = parse_fq_poly(field, "1")
        for ptext, n in (("T+1", 1), ("T+2", 1), ("T+1", 2)):
            params = dr.drinfeld_params(parse_fq_poly(field, ptext), n)
            assert dr.trace_Tpn(params, 6, 1) % tsq == one, (ptext, n)

    def drinfeld_period_table():
        field = fq_construct(3, 1)
        params = dr.drinfeld_params(parse_fq_poly(field, "T+1"), 1)
        lpoly = parse_fq_poly(field, "T")
        spec, _, ok = dr.verify_period_ff(params, lpoly, 1, 1)
        assert ok and spec.period == 24
        assert dr.minimal_period_mod(params, lpoly, 1, 1, 120) == 24
        for s, period in ((1, 2), (2, 6)):
            spec, _, ok = dr.verify_period_ff(params, params.P, s, 2)
            assert ok and spec.case == "equal-prime" and spec.period == period

    def infinity_period():
        field = fq_construct(3, 1)
        params = dr.drinfeld_params(parse_fq_poly(field, "T+1"), 1)
        n, _, ok = dr.verify_infty_period(params, 1, 1, kmax=50)
        assert ok and n == 24

    def ramanujan_window():
        field = fq_construct(3, 1)
        rep = dr.ramanujan_check(dr.drinfeld_params(parse_fq_poly(field, "T"), 1))
        assert not rep.vacuous and rep.k_limit == 25 and rep.all_ok

    def unit_exponent_values():
        f3 = fq_construct(3, 1)
        f2 = fq_construct(2, 1)
        assert dr.unit_group_exponent(parse_fq_poly(f3, "T"), 1) == 2
        assert dr.unit_group_exponent(parse_fq_poly(f3, "T"), 2) == 6
        assert dr.unit_group_exponent(parse_fq_poly(f2, "T^2+T+1"), 1) == 3

    return [
        ("moment-closed-forms", moment_closed_forms),
        ("weight12-eigenvalues", weight12_eigenvalues),
        ("weight28-congruences", weight28_congruences),
        ("even-moment-recurrence", even_moment_recurrence),
        ("elliptic-period-table", elliptic_period_table),
        ("hecke-charpoly", hecke_charpoly),
        ("class-number-identity", class_number_identity),
        ("drinfeld-classes", drinfeld_classes),
        ("drinfeld-weight8-residue", drinfeld_weight8_residue),
        ("drinfeld-period-table", drinfeld_period_table),
        ("infinity-period", infinity_period),
        ("ramanujan-window", ramanujan_window),
        ("unit-exponent-values", unit_exponent_values),
    ]


def cmd_selftest_examples(args) -> int:
    rows = []
    status = 0
    for name, fn in _example_checks():
        try:
            fn()
            rows.append({"name": name, "pass": True, "detail": ""})
        except AssertionError as exc:
            rows.append({"name": name, "pass": False, "detail": str(exc)})
            status = 1
        if args.format == "human":
            r = rows[-1]
            tail = f": {r['detail']}" if r["detail"] else ""
            print(f"{'ok' if r['pass'] else 'FAIL'} {r['name']}{tail}")
        if status:
            break  # loud stop on the first mismatch
    if args.format != "human":
        emit(rows, args.format, lambda r: "")
    if status:
        print(f"first mismatch: {rows[-1]['name']}", file=sys.stderr)
    return status


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="human")
    common.add_argument("--cache-dir", default=None, help="moment cache directory")
    common.add_argument(
        "--max-field-size",
        type=int,
        default=DEFAULT_MAX_FIELD_SIZE,
        help="largest finite field the run may construct",
    )
    common.add_argument(
        "--max-weight",
        type=int,
        default=DEFAULT_MAX_WEIGHT,
        help="largest weight a verification window may reach",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    top = argparse.ArgumentParser(prog="hecketrace", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="group", required=True)

    ell = sub.add_parser("ell", help="elliptic modular forms over F_q").add_subparsers(
        dest="cmd", required=True
    )

    p = ell.add_parser("moments", parents=[common], help="weighted power moments of a_1")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--level", default="1")
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(func=cmd_ell_moments)

    p = ell.add_parser("trace", parents=[common], help="exact Frobenius trace on cusp forms")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--level", default="1")
    p.add_argument("--weight", type=int, required=True)
    p.set_defaults(func=cmd_ell_trace)

    p = ell.add_parser("split", parents=[common], help="non-unit/unit split mod ell^s")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--level", default="1")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.set_defaults(func=cmd_ell_split)

    p = ell.add_parser("verify-period", parents=[common], help="weight periodicity mod ell^s")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--level", default="1")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_ell_verify_period)

    p = ell.add_parser("hecke-poly", parents=[common], help="Hecke characteristic polynomial")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--mod", type=int, default=None)
    p.set_defaults(func=cmd_ell_hecke_poly)

    p = ell.add_parser("class-number", parents=[common], help="non-unit mass identity sides")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, default=11)
    p.set_defaults(func=cmd_ell_class_number)

    drp = sub.add_parser("dr", help="Drinfeld modular forms over F_q[T]").add_subparsers(
        dest="cmd", required=True
    )

    p = drp.add_parser("enumerate", parents=[common], help="twist-orbit classes with Frobenius data")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--P", required=True, help="monic irreducible, e.g. 'T' or 'T^2+T+1'")
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_dr_enumerate)

    p = drp.add_parser("trace", parents=[common], help="Hecke trace at P^n as an F_q[T] element")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--P", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--type", type=int, default=1)
    p.set_defaults(func=cmd_dr_trace)

    p = drp.add_parser("verify-period", parents=[common], help="weight periodicity mod l^s")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--P", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--ell", required=True, help="monic irreducible modulus, e.g. 'T'")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--type", type=int, default=1)
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_dr_verify_period)

    p = drp.add_parser("ramanujan", parents=[common], help="finite slope-bound window check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--P", required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_dr_ramanujan)

    st = sub.add_parser("selftest", help="bundled verification suites").add_subparsers(
        dest="cmd", required=True
    )

    p = st.add_parser("lemmas", parents=[common], help="randomized property checks")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_selftest_lemmas)

    p = st.add_parser("paper-examples", parents=[common], help="re-check published reference values")
    p.set_defaults(func=cmd_selftest_examples)

    return top


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _echo(args, f"{args.group} {args.cmd}")
    try:
        with et.unlimited_int_digits():
            return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, cg.CertificateRefused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
