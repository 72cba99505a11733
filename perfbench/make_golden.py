"""Regenerate golden.json, the committed SHA-256 of every CLI artifact.

    python3 perfbench/make_golden.py

Run from the root of a checkout.  Each CLI job of each seed variant runs once;
a job whose exit code or physics checks fail stops the script, so only
outputs that pass the checks are committed.  Regenerating changes the gate:
do it only for an announced, intentional change of artifact bytes.
"""

import json
import shutil
import sys
from pathlib import Path

from run import child_env, probe_environment, run_job
from workloads import GOLDEN_PATH, VARIANTS, WORKLOADS, artifact_hashes


def main() -> int:
    root = Path.cwd()
    env = child_env(root, blas_threads=1)
    environment = probe_environment(env)
    environment.pop("usdsim_file")
    work = root / ".perfbench_work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    hashes = {}
    try:
        for name, make_jobs in WORKLOADS.items():
            for variant in range(VARIANTS):
                for job in make_jobs(variant):
                    if job.check is None:
                        continue
                    job_dir = work / name / str(variant) / job.name
                    run = run_job(job, job_dir, env)
                    errors = [f"exit code {run.exit_code}"] if run.exit_code else []
                    errors += job.check(job_dir / "out") if not errors else []
                    if errors:
                        print(f"{name} variant {variant} {job.name}: {errors}\n{run.stderr}",
                              file=sys.stderr)
                        return 1
                    hashes.setdefault(name, {}).setdefault(str(variant), {})[job.name] = (
                        artifact_hashes(job_dir / "out")
                    )
                    print(f"{name} variant {variant} {job.name}: {run.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(
        json.dumps({"environment": environment, "hashes": hashes}, indent=1, sort_keys=True)
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
