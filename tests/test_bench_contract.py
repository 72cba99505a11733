"""The benchmark's traced jobs against the library, small enough for tier-1.

The benchmark reads library names from the outside: its tracer records
``TrialTally.n_trials`` and ``KeyReport.rounds`` as span attributes and wraps
the ``PovmSet`` guard methods, and its fock job reads ``povm[o].matrix``.
The least-eigenvalue guard runs only where ``guards`` is read, which the
``povm`` command does and the fock job does not.
Each test runs one job through ``perfbench/launch.py`` with tracing on, in a
fresh interpreter, as the benchmark's traced pass does.  The perfbench files
are loaded from perfbench/ by path, read only.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import golden_env

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "perfbench" / "launch.py"

tracer = golden_env._perfbench_module("tracer")
workloads = golden_env.workloads


def launch(job_dir: Path, *argv: str, files: dict[str, str]) -> list[list]:
    """Run one traced job in ``job_dir``; return its spans."""
    job_dir.mkdir()
    for name, text in files.items():
        (job_dir / name).write_text(text)
    env = dict(os.environ, USDSIM_OUTPUT_DIR=str(job_dir / "out"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spans = job_dir / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), str(job_dir / "stamp"), str(spans), *argv],
        cwd=job_dir,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tracer.load_spans(spans)


def readme_config(rounds: int) -> str:
    config = copy.deepcopy(workloads.README_CONFIG)
    config["multiplex"]["rounds"] = rounds
    return json.dumps(config)


def test_traced_simulate_records_its_trials(tmp_path):
    files = {"config.json": readme_config(1000)}
    argv = ["cli", "simulate", "config.json", "--trials", "1000"]
    spans = launch(tmp_path / "job", *argv, files=files)
    assert workloads.check_simulate(tmp_path / "job" / "out") == []
    [trials] = [s[5] for s in spans if s[0] == "montecarlo.run_trials"]
    assert trials == {"trials": 2000}  # 1000 per sent state
    assert tracer.layer_totals([spans])["montecarlo.trials"] == 2000


def test_traced_multiplex_records_its_rounds(tmp_path):
    files = {"config.json": readme_config(1000)}
    spans = launch(tmp_path / "job", "cli", "multiplex", "config.json", files=files)
    assert workloads.check_multiplex(tmp_path / "job" / "out") == []
    [rounds] = [s[5] for s in spans if s[0] == "multiplex.run_protocol"]
    assert rounds == {"rounds": 1000}
    assert tracer.layer_totals([spans])["multiplex.rounds"] == 1000


def test_traced_fock_job_passes_its_checks(tmp_path):
    ops = [
        {"kind": "cross", "alpha1": [0.6, 0.0], "alpha2": [0.0, -0.5], "dim": 12, "eta": 0.8},
        {"kind": "large", "alpha1": [1.0, 0.0], "alpha2": [-0.8, 0.3], "dim": 16, "eta": 1.0},
    ]
    files = {"inputs.json": json.dumps(ops)}
    spans = launch(tmp_path / "job", "fock", "inputs.json", "results.json", files=files)
    assert json.loads((tmp_path / "job" / "results.json").read_text()) == [[], []]
    names = {s[0] for s in spans}
    assert {"discrimination.povm_analytic", "discrimination.povm_ancilla"} <= names
    # construction runs the two structural guards and certifies positivity
    # without an eigenvalue; no library check reads the least eigenvalue
    eager = {"completeness_residual", "max_hermiticity_defect"}
    assert {f"discrimination.PovmSet.{m}" for m in eager} <= names
    assert "discrimination.PovmSet.min_eigenvalue" not in names
    assert {s[4] for s in spans} == {0, 1}  # every span belongs to an operation


def test_traced_povm_job_reads_every_guard(tmp_path):
    # povm reports the least eigenvalue, so each guard the tracer wraps is
    # still a live method that a benchmark job calls
    files = {"config.json": readme_config(1000)}
    argv = ["cli", "povm", "config.json", "--construction", "analytic"]
    spans = launch(tmp_path / "job", *argv, files=files)
    assert workloads.check_povm_analytic(tmp_path / "job" / "out") == []
    names = [s[0] for s in spans]
    for method in tracer.POVM_GUARDS:
        assert names.count(f"discrimination.PovmSet.{method}") == 1, method
