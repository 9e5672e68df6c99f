"""Command-line front end: traces, congruence certificates, self-test suites.

Every subcommand echoes its resolved parameters to stderr (runs are
reproducible from that line alone) and emits results on stdout in one of
three formats.  All numbers are exact decimals; polynomial ring elements of
F_q[T] appear as ascending coefficient arrays, each F_q coefficient itself
an ascending F_p coefficient vector.  Verification subcommands exit 1 when
any check fails.  Bad input and budget refusals exit 2, and a computed result
that fails one of its exact invariant checks exits 3.

Each job is one process, so it imports only the layer it runs.  This module
first sets OPENBLAS_NUM_THREADS to 1, unless the user set it to a non-empty
value, and only then imports `ffield` and numpy: OpenBLAS sizes its worker
pool once, when numpy loads, and no job calls BLAS.  The package `__init__`
imports nothing, so that `python -m hecketrace.cli` and the `hecketrace`
script reach the pin first.
Each handler imports the modules it calls when it runs.  A `dr` job then never
compiles the elliptic modules, an `ell` job never compiles `drinfeld`, and only
the selftest commands compile `selftest`.  In the same way `json` and `csv`
load only for the output formats and inputs that need them, and the parser
holds the flags of the chosen command only.  Handlers call through the module
(`et.trace`), never through a name bound at import, so that a wrapper installed
on the module is seen.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

# no job calls BLAS, and an idle OpenBLAS worker spins ~0.1 s of CPU per job;
# OpenBLAS reads this once, when numpy loads, so it must precede that import.
# OpenBLAS takes an empty value for unset, and so does the pin
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hecketrace.ffield import (
    DEFAULT_MAX_FIELD_SIZE,
    DEFAULT_MAX_WEIGHT,
    CertificateRefused,
    FqElem,
    FqField,
    InvariantError,
    field_budget_check,
    field_for,
    unlimited_int_digits,
)

if TYPE_CHECKING:
    from hecketrace.drinfeld import FqPoly


# ---------------------------------------------------------------------------
# parsing and emission helpers


# one term of a written polynomial; `re` compiles it on first use and caches it
_TERM = r"(-)?(\d+)?\*?(?:(T)(?:\^(\d+))?)?"


def parse_fq_poly(field: FqField, text: str, max_size: Optional[int] = None) -> FqPoly:
    """Parse 'T^2+2*T+1' (integer coefficients) or '[c0,c1,...]' (codes).

    The bracket form takes ascending element codes and is the only way to
    write coefficients outside the prime field. Over a prime field integers
    reduce mod p. Over F_{p^a} with a > 1 a written integer of p or more is
    rejected, since it would look like an element code but reduce mod p; a
    minus sign is negation in the field.  A degree d with q^d past the
    field-size cap max_size is refused before any coefficient is built: P
    of degree d needs a field of q^(n d) elements, and a modulus l of degree
    d has a weight period of at least q^d - 1.
    """
    import json

    from hecketrace.drinfeld import FqPoly, fq_poly_from_codes

    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    if text.startswith("["):
        try:
            codes = json.loads(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a list of element codes") from None
        bad = [c for c in codes if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < field.q]
        if bad:
            raise ValueError(f"entry {json.dumps(bad[0])} of {text!r} is not a code in 0..{field.q - 1}")
        field_budget_check(field.q, len(codes) - 1, max_size)
        return fq_poly_from_codes(field, codes)
    coeffs: dict = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        m = re.fullmatch(_TERM, term)
        if m is None or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse term {term!r} of {text!r}")
        c = int(m.group(2)) if m.group(2) else 1
        if field.a > 1 and c >= field.p:
            raise ValueError(
                f"coefficient {c} of {text!r} is not below p = {field.p}; write "
                f"elements of F_{field.q} outside F_{field.p} as codes, '[c0,c1,...]'"
            )
        if m.group(1):
            c = -c
        e = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        coeffs[e] = coeffs.get(e, 0) + c
    if not coeffs:
        raise ValueError(f"no terms in {text!r}")
    top = max(coeffs)
    field_budget_check(field.q, top, max_size)
    return FqPoly(field, [field.coerce(coeffs.get(e, 0)) for e in range(top + 1)])


def elem_vector(e: FqElem) -> List[int]:
    return list(e.coeffs)


def poly_vectors(poly: FqPoly) -> List[List[int]]:
    return [elem_vector(c) for c in poly.coeffs]


def _echo(args: argparse.Namespace, path: str) -> None:
    skip = {"func", "human"}
    parts = [f"{k.replace('_', '-')}={v}" for k, v in sorted(vars(args).items()) if k not in skip]
    print(f"# hecketrace {path} " + " ".join(parts), file=sys.stderr)


def _compact_json(v) -> str:
    """v as compact JSON; json is imported here, so that a human-format ell
    job never loads it."""
    import json

    return json.dumps(v, separators=(",", ":"))


def _csv_cell(v):
    # list cells are int lists from .tolist(), whose str differs from their
    # compact JSON only by the spaces
    if isinstance(v, list):
        return str(v).replace(" ", "")
    if v is None:
        return ""
    return v


def emit(rows: Iterable[dict], fmt: str, human: Callable[[dict], str]) -> None:
    """Print rows as they come: csv takes its header from the first row."""
    if fmt == "csv":
        import csv

        w = csv.writer(sys.stdout, lineterminator="\n")
        keys = None
        for r in rows:
            if keys is None:
                keys = list(r)
                w.writerow(keys)
            w.writerow([_csv_cell(r[k]) for k in keys])
        return
    line = _compact_json if fmt == "json" else human
    for r in rows:
        print(line(r))


# ---------------------------------------------------------------------------
# ell subcommands


def cmd_ell_moments(args) -> int:
    from hecketrace import curves as cv
    from hecketrace import elltrace as et

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
    from hecketrace import curves as cv
    from hecketrace import elltrace as et

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
    from hecketrace import curves as cv
    from hecketrace import elltrace as et

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
    from hecketrace import congruences as cg
    from hecketrace import curves as cv

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
    from hecketrace import heckepoly as hp

    if args.mod is not None and args.mod < 2:
        raise ValueError(f"--mod must be >= 2, not {args.mod}")
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
    from hecketrace import elltrace as et

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


def _dr_params(args):
    from hecketrace import drinfeld as dr

    field = field_for(args.q, args.max_field_size)
    P = parse_fq_poly(field, args.P, args.max_field_size)
    return dr.drinfeld_params(P, args.n, max_field_size=args.max_field_size)


def cmd_dr_enumerate(args) -> int:
    import numpy as np

    from hecketrace import drinfeld as dr

    params = _dr_params(args)
    t = dr.enumerate_classes(params)

    def digits(field: FqField, codes) -> list:
        """F_p digit lists of element codes, as elem_vector prints them."""
        return (codes[..., None] // field.p ** np.arange(field.a) % field.p).tolist()

    def rows():
        pvec, L, base = poly_vectors(params.P), params.L, params.base
        na = dr._code_degrees(t.a) + 1
        # a block of classes at a time, so that only its digit lists are alive;
        # a prints its T-digits up to its degree, as an FqPoly does
        for lo in range(0, len(t.aut), 2048):
            blk = slice(lo, lo + 2048)
            cols = zip(digits(L, t.g[blk]), digits(L, t.delta[blk]), t.aut[blk].tolist(),
                       t.size[blk].tolist(), digits(base, t.a[blk]), na[blk].tolist(),
                       digits(base, t.b[blk]))
            for g, delta, aut, size, a, n, b in cols:
                yield {"q": args.q, "P": pvec, "n": args.n, "g": g, "delta": delta,
                       "autOrder": aut, "orbitSize": size, "a": a[:n], "b": b}

    emit(
        rows(),
        args.format,
        lambda r: (
            f"g={_csv_cell(r['g'])} delta={_csv_cell(r['delta'])} "
            f"aut={r['autOrder']} orbit={r['orbitSize']} "
            f"a={_csv_cell(r['a'])} b={_csv_cell(r['b'])}"
        ),
    )
    return 0


def cmd_dr_trace(args) -> int:
    from hecketrace import drinfeld as dr

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
    from hecketrace import drinfeld as dr

    params = _dr_params(args)
    lpoly = parse_fq_poly(params.base, args.ell, args.max_field_size)
    spec, records, ok = dr.verify_period_ff(
        params, lpoly, args.s, args.type, kmin=args.kmin, kmax=args.kmax,
        max_weight=args.max_weight,
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
    from hecketrace import drinfeld as dr

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
    emit(rows, fmt, _compact_json)
    return 0 if rep.all_ok else 1


# ---------------------------------------------------------------------------
# selftest subcommands


def cmd_selftest_lemmas(args) -> int:
    import random

    from hecketrace import selftest

    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, not {args.trials}")
    rng = random.Random(args.seed)
    rows = []
    failed = False
    for name, fn in selftest.lemma_trials(rng, args.trials):
        try:
            fn()
            ok, detail = True, ""
        except (AssertionError, ArithmeticError, CertificateRefused) as exc:
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


def cmd_selftest_examples(args) -> int:
    from hecketrace import selftest

    rows = []
    status = 0
    for name, fn in selftest.example_checks():
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


_P_HELP = (
    "monic irreducible, e.g. 'T' or 'T^2+T+1'; integer coefficients must lie "
    "in 0..p-1 when q is not prime, where '[c0,c1,...]' gives element codes"
)
_REQ_INT = {"type": int, "required": True}

# the flags a command shares with others: every one takes --format, those
# that build fields --max-field-size, the two verify-period commands
# --max-weight; each command takes the first 1, 2 or 3 of them
_SHARED = (
    ("--format", {"choices": ("json", "csv", "human"), "default": "human"}),
    ("--max-field-size", {"type": int, "default": DEFAULT_MAX_FIELD_SIZE,
                          "help": "largest finite field the run may construct"}),
    ("--max-weight", {"type": int, "default": DEFAULT_MAX_WEIGHT,
                      "help": "largest weight a verification window may reach"}),
)
_FMT, _FIELDS, _WINDOW = 1, 2, 3

# group -> (help, command -> (help, handler, shared flags, own flags))
_COMMANDS = {
    "ell": ("elliptic modular forms over F_q", {
        "moments": ("weighted power moments of a_1", cmd_ell_moments, _FIELDS, {
            "--q": _REQ_INT, "--level": {"default": "1"}, "--kmax": _REQ_INT,
            "--cache-dir": {"default": None, "help": "moment cache directory"}}),
        "trace": ("exact Frobenius trace on cusp forms", cmd_ell_trace, _FIELDS, {
            "--q": _REQ_INT, "--level": {"default": "1"}, "--weight": _REQ_INT}),
        "split": ("non-unit/unit split mod ell^s", cmd_ell_split, _FIELDS, {
            "--q": _REQ_INT, "--level": {"default": "1"}, "--weight": _REQ_INT, "--ell": _REQ_INT,
            "--s": {"type": int, "default": 1}}),
        "verify-period": ("weight periodicity mod ell^s", cmd_ell_verify_period, _WINDOW, {
            "--q": _REQ_INT, "--level": {"default": "1"}, "--ell": _REQ_INT,
            "--s": {"type": int, "default": 1}, "--kmin": {"type": int, "default": None},
            "--kmax": {"type": int, "default": None}}),
        "hecke-poly": ("Hecke characteristic polynomial", cmd_ell_hecke_poly, _FIELDS, {
            "--p": _REQ_INT, "--weight": _REQ_INT, "--mod": {"type": int, "default": None}}),
        "class-number": ("non-unit mass identity sides", cmd_ell_class_number, _FMT, {
            "--p": _REQ_INT, "--ell": {"type": int, "default": 11}}),
    }),
    "dr": ("Drinfeld modular forms over F_q[T]", {
        "enumerate": ("twist-orbit classes with Frobenius data", cmd_dr_enumerate, _FIELDS, {
            "--q": _REQ_INT, "--P": {"required": True, "help": _P_HELP},
            "--n": {"type": int, "default": 1}}),
        "trace": ("Hecke trace at P^n as an F_q[T] element", cmd_dr_trace, _FIELDS, {
            "--q": _REQ_INT, "--P": {"required": True, "help": _P_HELP},
            "--n": {"type": int, "default": 1}, "--weight": _REQ_INT,
            "--type": {"type": int, "default": 1}}),
        "verify-period": ("weight periodicity mod l^s", cmd_dr_verify_period, _WINDOW, {
            "--q": _REQ_INT, "--P": {"required": True, "help": _P_HELP},
            "--n": {"type": int, "default": 1},
            "--ell": {"required": True, "help": "monic irreducible modulus, e.g. 'T'"},
            "--s": {"type": int, "default": 1}, "--type": {"type": int, "default": 1},
            "--kmin": {"type": int, "default": None}, "--kmax": {"type": int, "default": None}}),
        "ramanujan": ("finite slope-bound window check", cmd_dr_ramanujan, _FIELDS, {
            "--q": _REQ_INT, "--P": {"required": True, "help": _P_HELP},
            "--n": {"type": int, "default": 1}}),
    }),
    "selftest": ("bundled verification suites", {
        "lemmas": ("randomized property checks", cmd_selftest_lemmas, _FMT, {
            "--trials": {"type": int, "default": 5},
            "--seed": {"type": int, "default": 0, "help": "seed for randomized checks"}}),
        "paper-examples": ("re-check published reference values", cmd_selftest_examples, _FMT, {}),
    }),
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for this argv: every group and command is listed with its
    help, but only the command argv names gets its flags (argparse takes
    several milliseconds to build all of them). A command is named by the
    first two words, as no flag may precede it."""
    top = argparse.ArgumentParser(prog="hecketrace", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in _COMMANDS.items():
        parser = sub.add_parser(group, help=group_help)
        if argv[:1] != [group]:
            continue
        cmds = parser.add_subparsers(dest="cmd", required=True)
        for cmd, (cmd_help, func, shared, own) in commands.items():
            p = cmds.add_parser(cmd, help=cmd_help)
            if argv[1:2] == [cmd]:
                for flag, kwargs in _SHARED[:shared] + tuple(own.items()):
                    p.add_argument(flag, **kwargs)
                p.set_defaults(func=func)
    return top


# exit status when a computed result fails an invariant check: a fault in the
# program, not in its input
EXIT_INVARIANT = 3


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    _echo(args, f"{args.group} {args.cmd}")
    try:
        with unlimited_int_digits():
            return args.func(args)
    except InvariantError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, ArithmeticError, CertificateRefused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# exit status when the reader of stdout goes away (`| head`): 128 + SIGPIPE,
# the status a shell reports for a process that signal ended
EXIT_CLOSED_PIPE = 141


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stop quietly; stdout now points at devnull, so that the interpreter's
        # last flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_CLOSED_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    main()
