"""Run one `hecketrace` CLI job with timing wrappers on each layer's entry points.

    python3 perfbench/traced.py SPANS_FILE JOB_ID -- <hecketrace arguments>

The wrappers are installed from outside: `src/` is not edited.  Each wrapped
function is replaced in every `hecketrace` module that bound it (for example
`fq_construct` in `ffield`, `curves`, `heckepoly`, `drinfeld` and `cli`), and
methods are replaced on their class.  Spans are kept in memory as
(name, start, end, parent span, job id, count) and written to SPANS_FILE, in
`marshal` format (JSON would cost the job a second per 300k spans), when the
job ends.  `count` is a size the layer reports: the length of a route's
mass list, the number of classes enumerated, table elements built, and so on.

Per-element operators (the `FqElem`/`FqPoly` dunders, `coerce`) are not
wrapped, because a wrapper would cost more than the call; their time lands in
the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, attribute path) -> count taken from (args, result), or None
TARGETS: Dict[str, Optional[Callable]] = {}


def _target(name: str, count: Optional[Callable] = None) -> None:
    TARGETS[name] = count


def _table_elements() -> Callable:
    built = set()  # tables are built once per field object and then cached

    def count(args, result):
        field = args[0]
        if id(field) in built:
            return 0
        built.add(id(field))
        return field.q - 1

    return count


_target("ffield.fq_construct")
_target("ffield.FqField.tables", _table_elements())
for _m in ("v_add", "v_mul", "v_chi", "v_poly_eval"):
    _target(f"ffield.FqField.{_m}")
_target("ffield.embed")
for _route in ("deuring", "jline", "family", "class"):
    _target(f"curves.{_route}_route_masses", lambda a, r: len(r))
_target("curves.iso_classes", lambda a, r: len(r))
_target("curves.nu_ell")
_target("elltrace.mass_data")
_target("elltrace.interior_sequence")
_target("elltrace.interior_sequence_mod")
_target("elltrace.moments")
# private, wrapped only so that a moments call served from disk can be told
# apart from one computed afresh
_target("elltrace._load_table", lambda a, r: int(r is not None))
_target("elltrace.split_trace")
_target("elltrace.class_number_identity_sides")
_target("congruences.verify_periodicity", lambda a, r: len(r[1]))
_target("heckepoly.charpoly_Tp")
_target("drinfeld.drinfeld_params")
_target("drinfeld.enumerate_classes", lambda a, r: len(r))
_target("drinfeld.frobenius_poly")
_target("drinfeld.cl_table")
_target("drinfeld.ramanujan_check")
_target("drinfeld.verify_period_ff", lambda a, r: len(r[1]))
_target("cli.run")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: List[list] = []
        self.stack: List[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, job_id, clock = self.spans, self.stack, self.job_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, job_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"hecketrace.{name}")
            for name in ("ffield", "curves", "elltrace", "congruences", "heckepoly", "drinfeld", "cli")
        }
        package = [m for n, m in sys.modules.items() if n == "hecketrace" or n.startswith("hecketrace.")]
        for target, count in TARGETS.items():
            mod_name, *path = target.split(".")
            owner = modules[mod_name]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapped = self.wrap(target, original, count)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
                continue
            # rebind the name wherever a module imported it
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump(self.spans, fh)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    spans_path, job_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(job_id)
    tracer.install()
    from hecketrace import cli

    try:
        return cli.run(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
