"""Workload definitions: the jobs each pass runs and how their outputs are checked.

A job is one fresh child process.  A CLI job is one operation; the fock-large
job carries many library operations in one process.  Every input is derived
from the workload seed.  CLI configs come from a pool of VARIANTS seeded
configs, so that every artifact they write has a committed SHA-256 in
golden.json.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

VARIANTS = 8

# The README example config; variant k runs it with rng seed 12345 + k.
README_CONFIG = {
    "receiver": {"alpha1": [1.0, 0.0], "alpha2": [-1.0, 0.0], "dim": 32, "eta": 1.0},
    "multiplex": {
        "gamma": [10.0, 0.0],
        "T": 0.05,
        "eta": 1.0,
        "channel_transmission": 1.0,
        "rounds": 100000,
    },
    "rng": {"seed": 12345},
    "output": {"format": "json", "path": "out"},
}

# Fixed here, not read from usdsim, so the library cannot loosen its own gate.
CROSS_ORACLE_TOL = 1e-8  # hilbert.CROSS_ORACLE_TOL
STRUCTURAL_TOL = 1e-9  # hilbert.STRUCTURAL_TOL
CLOSED_FORM_TOL = 1e-8
OPTIMALITY_GAP_TOL = 1e-8
ROUNDOFF_TOL = 1e-12

# fock-large sizes: cross-checks share one dim, so all but the first
# povm_ancilla call reuse the cached beam-splitter columns.
CROSS_PAIRS = 8
CROSS_DIM = 48
CROSS_MAX_ALPHA = 2.5
LARGE_PAIRS = 16
LARGE_DIM = 192
LARGE_MAX_ALPHA = 8.0


@dataclass
class Job:
    name: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    ops: int = 1
    # physics checks on the output directory of a CLI job; None for the library job
    check: Callable[[Path], list[str]] | None = None


# ---------------------------------------------------------------------------
# physics checks on CLI artifacts; each returns a list of error messages


def _results(path: Path) -> dict:
    record = json.loads(path.read_text())
    return {(r["name"], r["source"]): r["value"] for r in record["results"]}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_povm_both(out: Path) -> list[str]:
    value = _results(out / "povm.json")[("cross_construction_max_discrepancy", "ancilla")]
    if not value <= CROSS_ORACLE_TOL:
        return [f"cross-construction discrepancy {value:.3e} > {CROSS_ORACLE_TOL:.0e}"]
    return []


def check_povm_analytic(out: Path) -> list[str]:
    value = _results(out / "povm.json")[("completeness_residual", "analytic")]
    if not value <= STRUCTURAL_TOL:
        return [f"completeness residual {value:.3e} > {STRUCTURAL_TOL:.0e}"]
    return []


def check_probs(out: Path) -> list[str]:
    record = json.loads((out / "probs.json").read_text())
    errors = []
    for row in record["table"]:
        miss = abs(row["numeric"] - row["closed_form"])
        if not miss <= CLOSED_FORM_TOL:
            errors.append(f"{row['sent']} {row['outcome']} misses the closed form by {miss:.3e}")
    gap = _results(out / "probs.json")[("optimality_gap", "analytic")]
    if not abs(gap) <= OPTIMALITY_GAP_TOL:
        errors.append(f"optimality gap {gap:.3e} at eta 1")
    return errors


def check_simulate(out: Path) -> list[str]:
    return [
        f"{row['sent']} {row['outcome']} frequency {row['frequency']} outside its 3-sigma band"
        for row in _rows(out / "simulate.csv")
        if row["within_band"] != "true"
    ]


def check_multiplex(out: Path) -> list[str]:
    results = _results(out / "multiplex.json")
    errors = []
    if results[("bit_error_rate", "multiplex")] != 0:
        errors.append(f"bit error rate {results[('bit_error_rate', 'multiplex')]}")
    if results[("anomalous_count", "multiplex")] != 0:
        errors.append(f"anomalous count {results[('anomalous_count', 'multiplex')]}")
    return errors


def check_sweep(out: Path) -> list[str]:
    """The quantum bound is never beaten; Monte Carlo draws no double click."""
    errors = []
    for row in _rows(out / "sweep.csv"):
        if "analytic_ratio" in row and not float(row["analytic_ratio"]) >= 1.0 - ROUNDOFF_TOL:
            errors.append(f"inconclusive rate below the quantum bound: {row}")
        if "mc_inconclusive" in row:
            total = float(row["mc_inconclusive"]) + float(row["mc_conclusive"])
            if not abs(total - 1.0) <= ROUNDOFF_TOL:
                errors.append(f"double clicks drawn: {row}")
    return errors


# ---------------------------------------------------------------------------
# workloads


def _config(variant: int, **sections) -> str:
    config = copy.deepcopy(README_CONFIG)
    config["rng"]["seed"] = 12345 + variant
    for section, values in sections.items():
        config[section].update(values)
    return json.dumps(config, indent=2)


def _cli(name, args, config, check) -> Job:
    return Job(name, ["cli", *args], {"config.json": config}, check=check)


def cli_small(seed: int) -> list[Job]:
    config = _config(seed % VARIANTS)
    sweep = ["sweep", "config.json", "--param"]
    return [
        _cli("povm-both", ["povm", "config.json", "--construction", "both"], config, check_povm_both),
        _cli("probs", ["probs", "config.json"], config, check_probs),
        _cli("simulate", ["simulate", "config.json"], config, check_simulate),
        _cli("multiplex", ["multiplex", "config.json"], config, check_multiplex),
        _cli(
            "sweep-eta",
            [*sweep, "eta", "--from", "0.1", "--to", "1.0", "--steps", "11"],
            config,
            check_sweep,
        ),
        _cli(
            "sweep-alpha",
            [*sweep, "alpha_separation", "--from", "0.1", "--to", "4.0", "--steps", "40",
             "--mc", "20000"],
            config,
            check_sweep,
        ),
        _cli(
            "povm-dump-192",
            ["povm", "config.json", "--construction", "analytic", "--dump"],
            _config(seed % VARIANTS, receiver={"dim": 192}),
            check_povm_analytic,
        ),
    ]


def qkd_rounds(seed: int) -> list[Job]:
    config = _config(
        seed % VARIANTS,
        multiplex={"rounds": 10_000_000, "eta": 0.9, "channel_transmission": 0.5},
    )
    return [
        _cli("multiplex-1e7", ["multiplex", "config.json"], config, check_multiplex),
        _cli(
            "sweep-T",
            ["sweep", "config.json", "--param", "T", "--from", "0.01", "--to", "0.2",
             "--steps", "20", "--mc", "1000000"],
            config,
            check_sweep,
        ),
        _cli("simulate-2e6", ["simulate", "config.json", "--trials", "2000000"], config,
             check_simulate),
    ]


def _amplitude(rng: random.Random, low: float, high: float) -> list[float]:
    magnitude = rng.uniform(low, high)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [magnitude * math.cos(phase), magnitude * math.sin(phase)]


def fock_large(seed: int) -> list[Job]:
    rng = random.Random(seed)
    ops = [
        {
            "kind": "cross",
            "alpha1": _amplitude(rng, 0.2, CROSS_MAX_ALPHA),
            "alpha2": _amplitude(rng, 0.2, CROSS_MAX_ALPHA),
            "dim": CROSS_DIM,
            "eta": rng.uniform(0.5, 0.95),
        }
        for _ in range(CROSS_PAIRS)
    ]
    ops += [
        {
            "kind": "large",
            "alpha1": _amplitude(rng, 0.5, LARGE_MAX_ALPHA),
            "alpha2": _amplitude(rng, 0.5, LARGE_MAX_ALPHA),
            "dim": LARGE_DIM,
            "eta": 1.0,
        }
        for _ in range(LARGE_PAIRS)
    ]
    return [
        Job(
            "fock",
            ["fock", "inputs.json", "results.json"],
            {"inputs.json": json.dumps(ops)},
            ops=len(ops),
        )
    ]


def cli_calls(seed: int) -> list[Job]:
    """The small README calls, then the large sampling calls, all fresh CLI processes."""
    return cli_small(seed) + qkd_rounds(seed)


WORKLOADS = {"cli-calls": cli_calls, "fock-large": fock_large}


# ---------------------------------------------------------------------------
# verification


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def variant_hashes(golden: dict, workload: str, seed: int) -> dict:
    """Committed artifact hashes per job for the config variant of ``seed``."""
    return golden["hashes"].get(workload, {}).get(str(seed % VARIANTS), {})


def artifact_hashes(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def hash_errors(actual: dict[str, str], expected: dict[str, str] | None) -> list[str]:
    if expected is None:
        return ["no committed hashes for this job"]
    errors = [f"missing artifact {name}" for name in sorted(set(expected) - set(actual))]
    errors += [f"unexpected artifact {name}" for name in sorted(set(actual) - set(expected))]
    errors += [
        f"artifact {name} differs from its golden hash"
        for name in sorted(set(actual) & set(expected))
        if actual[name] != expected[name]
    ]
    return errors


def verify(job: Job, job_dir: Path, exit_code: int, golden: dict | None) -> list[list[str]]:
    """Error messages per operation of a finished job; empty lists passed.

    ``golden`` maps artifact names to SHA-256 for a CLI job, and is ignored
    for the library job, which writes no artifacts.
    """
    if exit_code != 0:
        return [[f"exit code {exit_code}"]] * job.ops
    if job.check is None:
        results = job_dir / "results.json"
        if not results.is_file():
            return [["no results written"]] * job.ops
        return json.loads(results.read_text())
    out = job_dir / "out"
    errors = hash_errors(artifact_hashes(out), golden)
    try:
        errors += job.check(out)
    except (OSError, KeyError, ValueError) as exc:
        errors.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return [errors]
