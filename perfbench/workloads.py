"""The benchmark's workloads: fixed lists of `hecketrace` CLI jobs.

A job is an argument template.  Placeholders in braces are filled per run:
`{cache}` is a fresh directory for each pass, and every other placeholder is
drawn by the workload seed from a small class of inputs that cost the same
(primes in a narrow window, monic irreducibles of one degree, weights of one
cusp-space dimension).  Every member of every class has a reference output in
`refs.json`, so every seed is checked against a recorded reference; the
`hecke-poly` jobs and the level-1 traces at small prime powers are also checked
against the independent q-expansion oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

# the eight largest primes below 2^18: past the j-line limit, so level-1
# traces take the class-number (Kronecker sieve) route
SIEVE_PRIMES = (262139, 262133, 262127, 262121, 262111, 262109, 262103, 262079)
CLASS_NUMBER_PRIMES = (100003, 100019, 100043, 100049, 100057, 100069, 100103, 100109)
# primes just above 10^4: mass data is cheap, the fold over long weight windows is not
FOLD_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)
# primes just above 2^16 that are squares mod 7, so verify-period at ell = 7,
# s = 2 always resolves to the same period (1176) and weight window, and that
# are 3 mod 4, so the masses have the same denominators (q = 1 mod 4 runs
# about 15% slower)
PERIOD_PRIMES = (65543, 65563, 65587, 65599, 65647, 65699, 65731, 65839)
# level-1 weights whose cusp space has dimension 3 (p = 5) or 2 (p = 2):
# the same fields F_{p^n} are needed, only the interior fold length moves
HECKE_WEIGHTS_DIM3 = (36, 40, 42, 44)
HECKE_WEIGHTS_DIM2 = (24, 28, 30, 32)
# weights with a one-dimensional level-1 cusp space, where the q-expansion
# oracle gives the exact trace; the mass data (and so the cost) does not move
ONE_DIM_WEIGHTS = (12, 16, 18, 20, 22, 26)
# monic irreducible cubics over F_5 (class enumeration over F_125), and
# quadratics over F_5 and F_3 (T^2+1 over F_3 runs 15% faster and is left out)
DR_CUBICS_5 = (
    "T^3+T+1", "T^3+T+4", "T^3+2*T+1", "T^3+2*T+4",
    "T^3+3*T+2", "T^3+3*T+3", "T^3+4*T+2", "T^3+4*T+3",
)
DR_QUADRATICS_5 = (
    "T^2+2", "T^2+3", "T^2+T+1", "T^2+T+2", "T^2+2*T+3",
    "T^2+2*T+4", "T^2+3*T+3", "T^2+3*T+4", "T^2+4*T+1", "T^2+4*T+2",
)
DR_QUADRATICS_3 = ("T^2+T+2", "T^2+2*T+2")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Tuple[str, ...]
    classes: Dict[str, Sequence]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ell-sieve",
            "level-1 traces past the j-line limit, where the Kronecker sieve dominates",
            (
                "ell trace --q {q} --weight 12",
                "ell hecke-poly --p 5 --weight {w}",
                "ell class-number --p {cn}",
            ),
            {"q": SIEVE_PRIMES, "w": HECKE_WEIGHTS_DIM3, "cn": CLASS_NUMBER_PRIMES},
        ),
        Workload(
            "ell-sweep",
            "characteristic 2 and 3, small prime powers and level structures: "
            "family, class and j-line routes over numpy field tables, no sieve",
            (
                "ell trace --q 16 --weight {w}",
                "ell trace --q 9 --weight {w}",
                "ell trace --q 2401 --weight {w}",
                "ell trace --q 13 --level gamma1-4 --weight {w}",
                "ell trace --q 31 --level gamma0-2 --weight {w}",
                "ell verify-period --q 13 --ell 2 --s 2",
                "ell hecke-poly --p 2 --weight {w2}",
            ),
            {"w": ONE_DIM_WEIGHTS, "w2": HECKE_WEIGHTS_DIM2},
        ),
        Workload(
            "ell-fold",
            "cheap mass data at primes above the j-line limit but long weight "
            "windows: exact and modular folds, the moment disk cache, congruences",
            (
                "ell trace --q {q} --weight 1000",
                "ell moments --q {q} --kmax 600 --cache-dir {cache}",
                "ell moments --q {q} --kmax 600 --cache-dir {cache}",
                "ell verify-period --q {qp} --ell 7 --s 2 --max-weight 4096",
                "ell split --q {q} --weight 800 --ell 5 --s 3",
            ),
            {"q": FOLD_PRIMES, "qp": PERIOD_PRIMES},
        ),
        Workload(
            "dr-hecke",
            "Drinfeld class enumeration, the [c_{k,l}] table, the h-recurrence "
            "fold and period checks over F_q[T]; no elliptic code runs",
            (
                "dr enumerate --q 5 --P {P5c}",
                "dr trace --q 5 --P {P5} --weight 30",
                "dr ramanujan --q 3 --P {P3}",
                "dr verify-period --q 5 --P T --ell T+1",
                "dr verify-period --q 3 --P T --ell T+1 --s 2",
            ),
            {"P5c": DR_CUBICS_5, "P5": DR_QUADRATICS_5, "P3": DR_QUADRATICS_3},
        ),
    )
}


def _fields(template: str) -> List[str]:
    return [f for _, f, _, _ in string.Formatter().parse(template) if f]


def choose_inputs(workload: Workload, seed: int) -> Dict[str, object]:
    """The seed's pick from each input class; the same seed, the same pick."""
    rng = random.Random(seed)
    return {key: rng.choice(workload.classes[key]) for key in sorted(workload.classes)}


def job_templates(workload: Workload, seed: int) -> List[str]:
    """The workload's jobs with the seeded inputs filled in; `{cache}` stays."""
    picks = choose_inputs(workload, seed)
    picks["cache"] = "{cache}"
    return [t.format(**picks) for t in workload.jobs]


def all_job_templates() -> List[str]:
    """Every job any seed can produce, each once: the set `refs.json` covers."""
    out: List[str] = []
    for w in WORKLOADS.values():
        for t in w.jobs:
            keys = [f for f in _fields(t) if f != "cache"]
            for combo in itertools.product(*(w.classes[k] for k in keys)):
                picks = dict(zip(keys, combo), cache="{cache}")
                job = t.format(**picks)
                if job not in out:
                    out.append(job)
    return out


# ---------------------------------------------------------------------------
# independent oracles


def _flag(job: str, name: str) -> str:
    m = re.search(rf"--{name} (\S+)", job)
    return m.group(1) if m else ""


def _small_prime_power(q: int) -> Tuple[int, int] | None:
    """(p, a) with q = p^a and p < 50, or None."""
    p = next((d for d in range(2, 50) if q % d == 0), None)
    if p is None:
        return None
    a = 0
    while q % p == 0:
        q //= p
        a += 1
    return (p, a) if q == 1 else None


def oracle_stdout(job: str, oracles) -> str | None:
    """The exact stdout an independent oracle predicts, or None if none applies.

    `hecke-poly`: det(1 - T_p x) from q-expansions.  Level-1 `trace` at
    q = p^a with p < 50 in a weight with a one-dimensional cusp space:
    t_a = a_p t_{a-1} - p^(k-1) t_{a-2}, with t_0 = 2 and t_1 = a_p.
    """
    argv = job.split()
    if argv[:2] == ["ell", "hecke-poly"] and "--mod" not in argv:
        coeffs = oracles.hecke_charpoly(int(_flag(job, "weight")), int(_flag(job, "p")))
        return " ".join(str(c) for c in coeffs) + "\n"
    if argv[:2] == ["ell", "trace"] and _flag(job, "level") in ("", "1"):
        pa = _small_prime_power(int(_flag(job, "q")))
        k = int(_flag(job, "weight"))
        if pa is None or k not in ONE_DIM_WEIGHTS:
            return None
        p, a = pa
        ap = oracles.cusp_form_coefficients(k, p + 1)[p]
        t_prev, t = 2, ap
        for _ in range(a - 1):
            t_prev, t = t, ap * t - p ** (k - 1) * t_prev
        return f"{t}\n"
    return None
