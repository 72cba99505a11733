"""usdsim benchmark driver.

    python3 perfbench/run.py --workload {cli-calls,fock-large,all}
        [--seed N] [--seconds S] [--trace 0|1] [--blas-threads K]

Run from the root of a checkout.  One driver process runs the workload's jobs
one at a time (a closed loop with one client), each job in a fresh
interpreter.  It starts passes over the workload until --seconds have
elapsed; an untraced run starts no job after that, a traced run finishes its
last pass.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and prints the per-layer metrics and the tracing overhead.  Every operation
is checked (exit code, golden artifact hashes, physics); the last line of
standard output is one JSON object with the result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, load_golden, variant_hashes, verify  # noqa: E402

JOB_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    stderr: str


def child_env(root: Path, blas_threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_job(job, job_dir: Path, env: dict, traced: bool = False) -> JobRun:
    """Run one job in a fresh interpreter and wait for it; never raises on failure."""
    job_dir.mkdir(parents=True)
    for name, text in job.files.items():
        (job_dir / name).write_text(text)
    stamp = job_dir / "stamp"
    flags = ["-X", "importtime"] if traced else []
    trace = str(job_dir / "spans.json") if traced else "-"
    cmd = [sys.executable, *flags, str(HERE / "launch.py"), str(stamp), trace, *job.argv]
    env = dict(env, USDSIM_OUTPUT_DIR=str(job_dir / "out"))
    with open(job_dir / "stdout", "wb") as out, open(job_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=job_dir, env=env, stdout=out, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own CPU time and peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp.is_file() else None
    return JobRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        setup_s=setup,
        stderr=(job_dir / "stderr").read_text(errors="replace"),
    )


def probe_environment(env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=JOB_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"environment probe failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def run_pass(jobs, pass_dir: Path, env, golden, traced, deadline: float | None = None) -> dict:
    """Run the jobs in order; with a deadline, start no job after it (the pass is partial)."""
    job_dirs = [pass_dir / f"{index}-{job.name}" for index, job in enumerate(jobs)]
    start = time.perf_counter()
    runs = []
    for job, job_dir in zip(jobs, job_dirs):
        if runs and deadline is not None and time.perf_counter() >= deadline:
            break
        runs.append(run_job(job, job_dir, env, traced))
    wall = time.perf_counter() - start
    jobs, job_dirs = jobs[: len(runs)], job_dirs[: len(runs)]
    # checks run after the timed region
    errors = []
    for job, job_dir, run in zip(jobs, job_dirs, runs):
        for op_errors in verify(job, job_dir, run.exit_code, golden.get(job.name)):
            errors.append([f"{job.name}: {e}" for e in op_errors])
        if run.exit_code != 0:
            print(f"{job.name} exited {run.exit_code}:\n{run.stderr[-2000:]}", file=sys.stderr)
    result = {
        "traced": traced,
        "jobs": [
            {"name": job.name, "exit_code": r.exit_code, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "peak_rss_mb": r.peak_rss_mb, "setup_s": r.setup_s}
            for job, r in zip(jobs, runs)
        ],
        "wall_s": wall,
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        "setup_s": [r.setup_s for r in runs if r.setup_s is not None],
        "errors": errors,
    }
    if traced:
        paths = [job_dir / "spans.json" for job_dir in job_dirs]
        spans = [tracing.load_spans(p) if p.is_file() else [] for p in paths]
        result["imports"] = [tracing.import_times(run.stderr) for run in runs]
        result["layers"] = tracing.layer_totals(spans)
        result["spans"] = {job.name: s for job, s in zip(jobs, spans)}
    shutil.rmtree(pass_dir)
    return result


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100)[q - 1]
    return None


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str, tuple | None]]:
    """Value, sample count and tail of each end-to-end metric.

    ``wall_s`` and ``cpu_s`` of one pass are the sums over the workload's jobs
    of each job's median, and ``peak_rss_mb`` is the largest job median, so a
    partial last pass still contributes its samples and one slow job in one
    pass does not move the result.
    """
    by_job: dict[str, list[dict]] = {}
    for p in passes:
        for job in p["jobs"]:
            by_job.setdefault(job["name"], []).append(job)
    counts = sorted(len(runs) for runs in by_job.values())
    per_job = f"{counts[0]}-{counts[-1]} per job" if counts[0] != counts[-1] else f"{counts[0]} per job"

    def median_of(key):
        return [statistics.median(job[key] for job in runs) for runs in by_job.values()]

    setup = [s for p in passes for s in p["setup_s"]]
    return {
        "wall_s": (sum(median_of("wall_s")), per_job, None),
        "setup_s": (statistics.median(setup), str(len(setup)), tail(setup)),
        "cpu_s": (sum(median_of("cpu_s")), per_job, None),
        "peak_rss_mb": (max(median_of("peak_rss_mb")), per_job, None),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes, and the tracing overhead."""
    metrics = {}
    for name in tracing.IMPORT_MODULES:
        values = [imp[name] for p in traced for imp in p["imports"] if name in imp]
        metrics[name] = (statistics.median(values) if values else 0.0, "s")
    for group in [*tracing.LAYERS, *tracing.SELF_TIME_GROUPS]:
        key = f"{group}.self_s"
        metrics[key] = (statistics.median(p["layers"][key] for p in traced), "s")
        if group in tracing.COUNTED_GROUPS:
            key = f"{group}.calls"
            metrics[key] = (statistics.median(p["layers"][key] for p in traced), "count")
    for key, unit in (
        ("cli.write.bytes", "bytes"),
        ("hilbert.ancilla_workspace_bytes", "bytes-computed"),
        ("montecarlo.trials", "count"),
        ("multiplex.rounds", "count"),
    ):
        metrics[key] = (statistics.median(p["layers"][key] for p in traced), unit)

    def total(key):
        return sum(p["layers"][key] for p in traced)

    calls = total("discrimination.povm_ancilla.calls")
    hits = total("discrimination.povm_ancilla.cache_hits")
    metrics["discrimination.ancilla_cache_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    busy = total("montecarlo.run_trials.busy_s")
    metrics["montecarlo.trials_per_s"] = (total("montecarlo.trials") / busy if busy else 0.0, "1/s")
    busy = total("multiplex.run_protocol.busy_s")
    metrics["multiplex.rounds_per_s"] = (total("multiplex.rounds") / busy if busy else 0.0, "1/s")
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced),
        "s",
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, env, golden):
    jobs = WORKLOADS[name](seed)
    hashes = variant_hashes(golden, name, seed)
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    passes = []
    start = time.perf_counter()
    try:
        while (
            time.perf_counter() - start < seconds
            or not passes
            or (trace and len(passes) < 2)
        ):
            traced = trace and len(passes) % 2 == 1
            pass_dir = work / f"pass{len(passes)}"
            # untraced runs stop at the first job boundary past the deadline;
            # traced runs compare whole passes, so theirs run to completion
            deadline = start + seconds if passes and not trace else None
            passes.append(run_pass(jobs, pass_dir, env, hashes, traced, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return passes


def report(name, seed, trace, passes, environment, root: Path) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    errors = [e for p in passes for e in p["errors"]]
    attempted = len(errors)
    failed = sum(1 for e in errors if e)

    print(f"workload {name}  seed {seed}  environment {json.dumps(environment)}")
    print(
        f"  operations attempted {attempted}  failed {failed}  "
        f"failed_ratio {failed / attempted:.6g} (fraction)"
    )
    for message in [m for e in errors for m in e][:10]:
        print(f"  FAILED {message}", file=sys.stderr)
    if trace:
        layers = per_layer(untraced, traced)
        for key, (value, unit) in layers.items():
            print(f"  {key:44s} {value:.6g} {unit}  n={len(traced)} traced passes")
        print(
            f"  trace.overhead_s is traced wall_s "
            f"{statistics.median(p['wall_s'] for p in traced):.6g} s minus untraced wall_s "
            f"{statistics.median(p['wall_s'] for p in untraced):.6g} s"
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        e2e = end_to_end(untraced)
        for key, (value, count, tail_value) in e2e.items():
            extra = f"  {tail_value[0]} {tail_value[1]:.6g}" if tail_value else ""
            unit = END_TO_END_UNITS[key]
            print(f"  {key:12s} median {value:.6g} {unit}  n={count}{extra}")
        metrics = {k: {"value": v[0], "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    spans = [p.pop("spans") for p in traced]
    (out_dir / f"{stem}.json").write_text(
        json.dumps(
            {"workload": name, "seed": seed, "environment": environment,
             "passes": passes, "metrics": metrics},
            indent=1,
        )
    )
    if spans:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for index, by_job in enumerate(spans):
                for job, job_spans in by_job.items():
                    for span in job_spans:
                        fh.write(json.dumps({"pass": index, "job": job, "span": span}) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "usdsim" / "cli.py").is_file():
        print("run.py: no src/usdsim in the current directory; run it from a checkout",
              file=sys.stderr)
        return 2
    env = child_env(root, args.blas_threads)
    environment = probe_environment(env)
    if not Path(environment.pop("usdsim_file")).resolve().is_relative_to(root / "src"):
        print("run.py: children import usdsim from outside this checkout", file=sys.stderr)
        return 2
    golden = load_golden()
    for key in ("python", "numpy", "scipy"):
        if golden["environment"][key] != environment[key]:
            print(
                f"run.py: golden hashes were made with {key} {golden['environment'][key]}, "
                f"this run has {environment[key]}; artifact checks will fail",
                file=sys.stderr,
            )

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        passes = run_workload(name, args.seed, args.seconds, bool(args.trace), root, env, golden)
        results.append(report(name, args.seed, bool(args.trace), passes, environment, root))
        print(json.dumps(results[-1]), flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
