"""End-to-end benchmark of the `hecketrace` CLI, with a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process runs the workload's jobs
(see `workloads.py`) one child process at a time, in passes, for about S
seconds, and checks each job's exit code and stdout against the reference in
`refs.json` and, where one applies, an independent oracle.  A job that times
out counts as failed, with its elapsed time.

With `--trace 0` it reports the end-to-end metrics of one pass, built from
each job's median over the passes: the wall time of all jobs, their CPU time,
the slowest job and the largest peak RSS; and the median time to start the
interpreter and import `hecketrace.cli`.  With `--trace 1` it alternates untraced passes with passes
whose jobs run under `traced.py`, and reports per-layer self times and counts
from the traced passes, plus the tracing overhead.  A summary of every metric
(unit, median, quartiles, sample count) goes to stderr; the last line of stdout
is one JSON object.  The exit code is 0 when every job passed its checks, 1
when some job failed, and 2 when the program or the references are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import marshal
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
JOB_TIMEOUT_S = 20.0
SETUP_REPEATS = 7

# per-layer metric -> the traced functions whose self time it sums
SELF_TIME: Dict[str, tuple] = {
    "ffield.fq_construct.self_s": ("ffield.fq_construct",),
    "ffield.tables.self_s": ("ffield.FqField.tables",),
    "ffield.vector.self_s": (
        "ffield.FqField.v_add",
        "ffield.FqField.v_mul",
        "ffield.FqField.v_chi",
        "ffield.FqField.v_poly_eval",
    ),
    "ffield.embed.self_s": ("ffield.embed",),
    "curves.deuring_route_masses.self_s": ("curves.deuring_route_masses",),
    "curves.jline_route_masses.self_s": ("curves.jline_route_masses",),
    "curves.family_route_masses.self_s": ("curves.family_route_masses",),
    "curves.class_route_masses.self_s": ("curves.class_route_masses",),
    "curves.iso_classes.self_s": ("curves.iso_classes",),
    "curves.nu_ell.self_s": ("curves.nu_ell",),
    "elltrace.interior_sequence.self_s": ("elltrace.interior_sequence",),
    "elltrace.interior_sequence_mod.self_s": ("elltrace.interior_sequence_mod",),
    "elltrace.moments.self_s": ("elltrace.moments", "elltrace._load_table"),
    "elltrace.split_trace.self_s": ("elltrace.split_trace",),
    "elltrace.class_number_identity_sides.self_s": ("elltrace.class_number_identity_sides",),
    "congruences.verify_periodicity.self_s": ("congruences.verify_periodicity",),
    "heckepoly.charpoly_Tp.self_s": ("heckepoly.charpoly_Tp",),
    "drinfeld.drinfeld_params.self_s": ("drinfeld.drinfeld_params",),
    "drinfeld.enumerate_classes.self_s": ("drinfeld.enumerate_classes",),
    "drinfeld.frobenius_poly.self_s": ("drinfeld.frobenius_poly",),
    "drinfeld.cl_table.self_s": ("drinfeld.cl_table",),
    "drinfeld.ramanujan_check.self_s": ("drinfeld.ramanujan_check",),
    "drinfeld.verify_period_ff.self_s": ("drinfeld.verify_period_ff",),
    "cli.run.self_s": ("cli.run",),
}
ROUTES = tuple(f"curves.{r}_route_masses" for r in ("deuring", "jline", "family", "class"))
# per-layer metric -> (traced functions, "calls" to count spans or "sum" to add their counts)
COUNTS: Dict[str, tuple] = {
    "ffield.tables.elements": (("ffield.FqField.tables",), "sum"),
    "ffield.vector.calls": (SELF_TIME["ffield.vector.self_s"], "calls"),
    "ffield.embed.calls": (("ffield.embed",), "calls"),
    "curves.iso_classes.classes": (("curves.iso_classes",), "sum"),
    "curves.mass_pairs": (ROUTES, "sum"),
    "elltrace.mass_data.calls": (("elltrace.mass_data",), "calls"),
    "congruences.verify_periodicity.weights": (("congruences.verify_periodicity",), "sum"),
    "drinfeld.enumerate_classes.classes": (("drinfeld.enumerate_classes",), "sum"),
    "drinfeld.frobenius_poly.calls": (("drinfeld.frobenius_poly",), "calls"),
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_job_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_units() -> Dict[str, str]:
    units = {name: "s" for name in SELF_TIME}
    units.update({name: "count" for name in COUNTS})
    units["elltrace.mass_data.hit_ratio"] = "ratio"
    units["elltrace.moments.disk_hits"] = "count"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class JobResult:
    job: str  # the template, with `{cache}` unfilled: the key into refs.json
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: Optional[int]
    stdout: bytes
    stderr_tail: str
    spans: Optional[list] = None
    failure: Optional[str] = None


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: List[str], cwd: Path, env: Dict[str, str], out: Path, err: Path):
    """Run one child to completion; returns (wall, rusage, exit code or None on timeout)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, None if killed.is_set() else proc.returncode


def run_job(job: str, job_id: int, pass_dir: Path, env, traced: bool) -> JobResult:
    args = job.format(cache=str(pass_dir / "cache")).split()
    out, err, spans_path = (pass_dir / f"{job_id}.{ext}" for ext in ("out", "err", "spans"))
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path), str(job_id), "--", *args]
    else:
        cmd = [sys.executable, "-m", "hecketrace.cli", *args]
    wall, usage, rc = run_child(cmd, pass_dir, env, out, err)
    tail = err.read_text(errors="replace").strip().splitlines()
    res = JobResult(
        job=job,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        rc=rc,
        stdout=out.read_bytes(),
        stderr_tail=tail[-1] if tail else "",
    )
    if traced and spans_path.exists():
        res.spans = marshal.loads(spans_path.read_bytes())
    return res


class Checker:
    """Exit code and stdout against the recorded reference, then the oracle."""

    def __init__(self, refs: dict, oracles):
        self.refs = refs
        self.oracles = oracles
        self._oracle_cache: Dict[str, Optional[str]] = {}

    def failure(self, res: JobResult) -> Optional[str]:
        if res.rc is None:
            return f"timed out after {res.wall_s:.2f} s"
        ref = self.refs.get(res.job)
        if ref is None:
            return "no recorded reference"
        if res.rc != ref["rc"]:
            return f"exit code {res.rc}, expected {ref['rc']} ({res.stderr_tail})"
        if hashlib.sha256(res.stdout).hexdigest() != ref["sha256"]:
            return "stdout differs from the recorded reference"
        if res.job not in self._oracle_cache:
            self._oracle_cache[res.job] = workloads.oracle_stdout(res.job, self.oracles)
        want = self._oracle_cache[res.job]
        if want is not None and res.stdout.decode() != want:
            return "stdout disagrees with the independent oracle"
        return None


def run_pass(jobs: List[str], work: Path, index: int, env, traced: bool, checker: Checker):
    pass_dir = work / f"pass-{index}"
    pass_dir.mkdir()
    try:
        results = [run_job(job, i, pass_dir, env, traced) for i, job in enumerate(jobs)]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    for res in results:
        res.failure = checker.failure(res)
    return results


def pass_metrics(results: List[JobResult]) -> Dict[str, float]:
    return {
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "max_job_s": max(r.wall_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }


def end_to_end(passes: List[List[JobResult]]) -> Dict[str, float]:
    """The metrics of one pass, built from each job's median over the passes.

    A burst of contention that slows one job in one pass then moves no total.
    """
    per_job = list(zip(*passes))
    wall = [statistics.median(r.wall_s for r in runs) for runs in per_job]
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(statistics.median(r.cpu_s for r in runs) for runs in per_job),
        "max_job_s": max(wall),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in runs) for runs in per_job),
    }


def layer_metrics(results: List[JobResult]) -> Dict[str, float]:
    """Per-layer self times and counts of one traced pass, from its spans.

    A span's self time is its duration minus its direct children's durations.
    """
    self_by_fn: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    sums: Dict[str, int] = {}
    lookups = hits = disk_hits = 0
    for res in results:
        spans = res.spans or []
        child_time = [0.0] * len(spans)
        children: List[List[int]] = [[] for _ in spans]
        for i, (_, t0, t1, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                children[parent].append(i)
        for i, (name, t0, t1, _, _, count) in enumerate(spans):
            self_by_fn[name] = self_by_fn.get(name, 0.0) + (t1 - t0 - child_time[i])
            calls[name] = calls.get(name, 0) + 1
            sums[name] = sums.get(name, 0) + (count or 0)
            kids = [spans[c] for c in children[i]]
            if name == "elltrace.mass_data":
                lookups += 1
                hits += not any(k[0] in ROUTES for k in kids)
            elif name == "elltrace.moments":
                from_disk = any(k[0] == "elltrace._load_table" and k[5] for k in kids)
                computed = any(k[0] == "elltrace.mass_data" for k in kids)
                disk_hits += from_disk and not computed
    out = {m: sum(self_by_fn.get(f, 0.0) for f in fns) for m, fns in SELF_TIME.items()}
    for m, (fns, kind) in COUNTS.items():
        out[m] = sum((calls if kind == "calls" else sums).get(f, 0) for f in fns)
    out["elltrace.mass_data.hit_ratio"] = hits / lookups if lookups else 0.0
    out["elltrace.moments.disk_hits"] = disk_hits
    return out


def measure_setup(work: Path, env) -> List[float]:
    """Wall times to start the interpreter and import the CLI module.

    The first, untimed start compiles the bytecode caches.
    """
    cmd = [sys.executable, "-c", "import hecketrace.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, rc = run_child(cmd, work, env, work / "setup.out", work / "setup.err")
        if rc != 0:
            raise RuntimeError(f"`import hecketrace.cli` failed: {(work / 'setup.err').read_text()}")
        if i:
            samples.append(wall)
    return samples


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(name: str, unit: str, value: float, samples: List[float]) -> str:
    q1, q3 = quartiles(samples)
    return (
        f"{name:42s} {value:14.6g} {unit:6s} median={statistics.median(samples):.6g} "
        f"q1={q1:.6g} q3={q3:.6g} n={len(samples)}"
    )


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("hecketrace_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [
        p for p in (ROOT / "src" / "hecketrace" / "cli.py", ROOT / "tests" / "oracles.py", BENCH_DIR / "refs.json")
        if not p.is_file()
    ]
    if missing:
        print(f"error: run from a hecketrace checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    checker = Checker(json.loads((BENCH_DIR / "refs.json").read_text()), load_oracles())
    jobs = workloads.job_templates(workloads.WORKLOADS[args.workload], args.seed)
    env = child_env()

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = measure_setup(work, env)
        start = time.perf_counter()
        kinds = [False, True] if args.trace else [False]
        passes: Dict[bool, List[List[JobResult]]] = {k: [] for k in kinds}
        durations: Dict[bool, List[float]] = {k: [] for k in kinds}
        n = 0
        while True:
            traced = kinds[n % len(kinds)]
            if n >= len(kinds):
                expected = statistics.median(durations[traced])
                if time.perf_counter() - start + expected > args.seconds:
                    break
            t0 = time.perf_counter()
            passes[traced].append(run_pass(jobs, work, n, env, traced, checker))
            durations[traced].append(time.perf_counter() - t0)
            n += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    every = [r for group in passes.values() for results in group for r in results]
    failures = [r for r in every if r.failure]
    lines = [f"# workload {args.workload} seed {args.seed}: " + " | ".join(jobs)]
    for r in failures:
        lines.append(f"FAILED {r.job}: {r.failure}")
    # per metric: the reported value, and the per-pass samples behind it
    samples: Dict[str, List[float]] = {}
    values: Dict[str, float] = {}
    if args.trace:
        for results in passes[True]:
            for name, value in layer_metrics(results).items():
                samples.setdefault(name, []).append(value)
        values = {name: statistics.median(v) for name, v in samples.items()}
        overhead = [pass_metrics(t)["wall_s"] - pass_metrics(u)["wall_s"] for t, u in zip(passes[True], passes[False])]
        samples["trace.overhead_s"] = overhead
        values["trace.overhead_s"] = end_to_end(passes[True])["wall_s"] - end_to_end(passes[False])["wall_s"]
        units = layer_units()
        lines += _job_breakdown(passes[True][-1])
    else:
        for results in passes[False]:
            for name, value in pass_metrics(results).items():
                samples.setdefault(name, []).append(value)
        values = end_to_end(passes[False])
        samples["setup_s"] = setup
        values["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
    lines.append(f"{'fail_ratio':42s} {len(failures) / len(every):14.6g} ratio  ({len(failures)} of {len(every)} jobs)")
    lines += [summarize(name, units[name], values[name], samples[name]) for name in units]
    print("\n".join(lines), file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": not failures, "attempted": len(every), "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def _job_breakdown(results: List[JobResult]) -> List[str]:
    """One line per job of a traced pass: wall time and the largest self times."""
    lines = []
    for res in results:
        one = layer_metrics([res])
        top = sorted(((v, k) for k, v in one.items() if k.endswith(".self_s") and v > 0), reverse=True)[:3]
        lines.append(f"  {res.wall_s:7.3f} s  {res.job}  " + ", ".join(f"{k}={v:.3f}" for v, k in top))
    return lines


if __name__ == "__main__":
    sys.exit(main())
