"""Record the reference output of every job any workload seed can produce.

    python3 perfbench/record_refs.py

Run from the root of a checkout of the commit whose outputs are the reference
(the benchmark's references were recorded at the commit that added it).  Each
job runs once, untraced; its exit code and the SHA-256 of its stdout are
written to `perfbench/refs.json`.  A job whose stdout disagrees with an
independent oracle stops the recording.  The wall time of each job goes to
stderr, so that the members of one input class can be seen to cost the same.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    oracles = run.load_oracles()
    env = run.child_env()
    work = run.ROOT / ".perfbench_work" / "record"
    refs = {}
    try:
        for i, job in enumerate(workloads.all_job_templates()):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            res = run.run_job(job, i, work, env, traced=False)
            if res.rc is None:
                print(f"timed out: {job}", file=sys.stderr)
                return 1
            want = workloads.oracle_stdout(job, oracles)
            if want is not None and res.stdout.decode() != want:
                print(f"oracle disagrees: {job}", file=sys.stderr)
                return 1
            refs[job] = {"rc": res.rc, "sha256": hashlib.sha256(res.stdout).hexdigest()}
            tag = "oracle" if want is not None else "ref"
            print(f"{res.wall_s:8.3f} s  rc={res.rc}  {tag:6s} {job}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH_DIR / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
