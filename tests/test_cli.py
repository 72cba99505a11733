import collections
import csv
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from usdsim import cli

# The benchmark's job definitions and committed artifact hashes, read only.
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def base_config(out_dir, **overrides):
    cfg = {
        "receiver": {"alpha1": [1.0, 0.0], "alpha2": [-1.0, 0.0], "dim": 32, "eta": 1.0},
        "multiplex": {
            "gamma": [10.0, 0.0],
            "T": 0.05,
            "eta": 1.0,
            "channel_transmission": 1.0,
            "rounds": 20000,
        },
        "rng": {"seed": 12345},
        "output": {"format": "json", "path": str(out_dir)},
    }
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    return cfg


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "out"

    def write(config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    return tmp_path, out, write


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_python(*args):
    """Run a fresh interpreter that imports this usdsim, so an escaping
    exception shows up as a traceback and exit code 1."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_fresh(*argv):
    """Run the CLI as a fresh process."""
    return run_python("-m", "usdsim.cli", *argv)


def test_import_leaves_out_scipy_stats():
    proc = run_python("-c", "import sys, usdsim.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_each_command_builds_each_section_once(workspace, monkeypatch):
    _, out, write = workspace
    path = write(base_config(out))
    builds = collections.Counter()
    for name in ("ReceiverConfig", "MultiplexConfig", "RngStream"):

        def counted(*args, _build=getattr(cli, name), _name=name, **kwargs):
            builds[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    separation = ["--param", "alpha_separation", "--from", "1", "--to", "2", "--steps", "2"]
    for argv, streams in (
        (["povm", path, "--construction", "analytic"], 1),
        (["probs", path], 1),
        (["simulate", path, "--trials", "10"], 1),
        (["multiplex", path], 1),
        # the rng section, then one Monte Carlo stream per grid point
        (["sweep", path, *separation, "--mc", "10"], 3),
    ):
        builds.clear()
        assert cli.main(argv) == 0
        assert builds == {"ReceiverConfig": 1, "MultiplexConfig": 1, "RngStream": streams}, argv


class TestConfigLoading:
    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["povm", "/nonexistent/config.json"]) == 2
        assert "/nonexistent/config.json" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, workspace, capsys):
        tmp_path, _, _ = workspace
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["povm", str(path)]) == 2
        # undecodable bytes, an integer literal past the conversion limit, deep nesting
        for text in (b"\xff{", b'{"rng": {"seed": ' + b"1" * 5000 + b"}}", b"[" * 100_000):
            path.write_bytes(text)
            assert cli.main(["povm", str(path)]) == 2

    def test_dim_one_exits_2(self, workspace):
        _, out, write = workspace
        path = write(base_config(out, receiver={"dim": 1}))
        assert cli.main(["povm", path]) == 2

    def test_unknown_key_exits_2(self, workspace):
        _, out, write = workspace
        cfg = base_config(out)
        cfg["receiver"]["mystery"] = 1
        assert cli.main(["povm", write(cfg)]) == 2

    def test_unknown_section_exits_2(self, workspace):
        _, out, write = workspace
        cfg = base_config(out)
        cfg["detector"] = {}
        assert cli.main(["povm", write(cfg)]) == 2

    def test_bad_amplitude_shape_exits_2(self, workspace):
        _, out, write = workspace
        assert cli.main(["povm", write(base_config(out, receiver={"alpha1": 1.0}))]) == 2

    def test_bad_output_format_exits_2(self, workspace):
        _, out, write = workspace
        assert cli.main(["povm", write(base_config(out, output={"format": "xml"}))]) == 2
        assert cli.main(["povm", write(base_config(out, output={"path": 5}))]) == 2
        tmp_path, _, _ = workspace
        (tmp_path / "a_file").write_text("")
        for path in (str(tmp_path / "a_file"), "nul\u0000byte"):
            assert cli.main(["povm", write(base_config(out, output={"path": path}))]) == 2

    def test_guard_failure_exits_3(self, workspace, capsys):
        _, out, write = workspace
        cfg = base_config(out, receiver={"alpha1": [4.0, 0.0], "alpha2": [-4.0, 0.0], "dim": 16})
        assert cli.main(["povm", write(cfg)]) == 3
        assert "guard" in capsys.readouterr().err

    def test_fock_dimension_guard_exits_3(self, workspace):
        # 302 overflows sqrt((dim-1)!); 10**20 is past what numpy can allocate
        _, out, write = workspace
        for dim in (302, 10**20):
            path = write(base_config(out, receiver={"dim": dim}))
            for command, *options in (
                ["probs"],
                ["povm", "--construction", "analytic"],
                ["povm", "--construction", "ancilla"],
            ):
                proc = run_fresh(command, path, *options)
                assert proc.returncode == 3, (dim, command, options, proc.stderr)
                assert "guard" in proc.stderr
                assert "Traceback" not in proc.stderr

    def test_usage_error_exits_2(self, capsys):
        assert cli.main(["sweep", "config.json", "--param", "bogus", "--from", "0", "--to", "1", "--steps", "5"]) == 2
        capsys.readouterr()


class TestPovmCommand:
    def test_both_constructions_agree(self, workspace):
        _, out, write = workspace
        cfg = base_config(out, receiver={"alpha1": [0.8, 0.0], "alpha2": [-0.8, 0.0]})
        assert cli.main(["povm", write(cfg), "--construction", "both"]) == 0
        record = json.loads((out / "povm.json").read_text())
        values = {(r["name"], r["source"]): r["value"] for r in record["results"]}
        assert values[("cross_construction_max_discrepancy", "ancilla")] <= 1e-8
        for source in ("analytic", "ancilla"):
            assert values[("completeness_residual", source)] <= 1e-9
            assert values[("min_eigenvalue", source)] >= -1e-10
        assert record["metadata"]["rng_algorithm"] == "philox4x64"

    def test_dump_format_round_trips(self, workspace):
        _, out, write = workspace
        assert cli.main(["povm", write(base_config(out)), "--construction", "analytic", "--dump"]) == 0
        dump = (out / "povm_analytic_00.txt").read_text().splitlines()
        assert dump[0] == "dim 32 modes 1"
        assert len(dump) == 1 + 32
        row0 = [float(x) for x in dump[1].split()]
        assert len(row0) == 64
        # element (0,0) of the inconclusive element at alpha = +-1 is
        # exp(-|a1-a2|^2/4) |<0|mu>|^2 with mu = 0 -> exp(-1)
        assert row0[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert row0[1] == 0.0

    def test_csv_record_format(self, workspace):
        _, out, write = workspace
        cfg = base_config(out, output={"format": "csv"})
        assert cli.main(["povm", write(cfg), "--construction", "analytic"]) == 0
        rows = read_csv(out / "povm.csv")
        assert rows[0] == ["name", "value", "source"]
        names = [r[0] for r in rows]
        assert "completeness_residual" in names


class TestProbsCommand:
    def test_table_matches_closed_forms(self, workspace):
        _, out, write = workspace
        assert cli.main(["probs", write(base_config(out))]) == 0
        record = json.loads((out / "probs.json").read_text())
        target = math.exp(-0.5 * abs(1.0 - (-1.0)) ** 2)
        rows = {(r["sent"], r["outcome"]): r for r in record["table"]}
        for sent in ("alpha1", "alpha2"):
            assert rows[(sent, "00")]["numeric"] == pytest.approx(target, abs=1e-8)
            assert rows[(sent, "11")]["numeric"] <= 1e-9
        assert rows[("alpha1", "10")]["numeric"] <= 1e-9
        assert rows[("alpha2", "01")]["numeric"] <= 1e-9
        gap = {r["name"]: r["value"] for r in record["results"]}["optimality_gap"]
        assert abs(gap) <= 1e-8


class TestSimulateCommand:
    def test_deterministic_bytes(self, workspace):
        _, out, write = workspace
        path = write(base_config(out))
        assert cli.main(["simulate", path, "--trials", "20000"]) == 0
        first = (out / "simulate.csv").read_bytes()
        assert cli.main(["simulate", path, "--trials", "20000"]) == 0
        assert (out / "simulate.csv").read_bytes() == first

    def test_header_is_stable(self, workspace):
        _, out, write = workspace
        assert cli.main(["simulate", write(base_config(out)), "--trials", "1000"]) == 0
        rows = read_csv(out / "simulate.csv")
        assert rows[0] == [
            "sent",
            "outcome",
            "trials",
            "count",
            "frequency",
            "expected",
            "band_lo",
            "band_hi",
            "within_band",
            "source",
        ]

    def test_bands_and_forbidden_outcomes(self, workspace):
        _, out, write = workspace
        assert cli.main(["simulate", write(base_config(out)), "--trials", "20000"]) == 0
        rows = read_csv(out / "simulate.csv")
        header = rows[0]
        table = [dict(zip(header, r)) for r in rows[1:]]
        for row in table:
            assert row["source"] == "montecarlo"
            if row["sent"] == "alpha1" and row["outcome"] in ("10", "11"):
                assert row["count"] == "0"
            if row["sent"] == "alpha2" and row["outcome"] in ("01", "11"):
                assert row["count"] == "0"
            if row["outcome"] == "conclusive":
                lo, hi = float(row["band_lo"]), float(row["band_hi"])
                expected = 1.0 - math.exp(-0.5 * abs(1.0 - (-1.0)) ** 2)
                assert lo <= expected <= hi
                assert row["within_band"] == "true"

    def test_bad_trials_exits_2(self, workspace):
        _, out, write = workspace
        assert cli.main(["simulate", write(base_config(out)), "--trials", "0"]) == 2


class TestMultiplexCommand:
    def test_echo_fields(self, workspace):
        _, out, write = workspace
        assert cli.main(["multiplex", write(base_config(out))]) == 0
        record = json.loads((out / "multiplex.json").read_text())
        values = {r["name"]: r["value"] for r in record["results"]}
        assert values["state_overlap"] == pytest.approx(math.exp(-0.125), abs=1e-12)
        assert values["tau"] == pytest.approx(1.0 / 1.95, abs=1e-15)
        assert values["alice_signal_amp"] == [0.5, 0.0]
        assert values["bit_error_rate"] == 0.0
        assert values["anomalous_count"] == 0
        rate = math.exp(-(0.95**2) * 0.25 / 1.95)
        assert values["round_inconclusive_probability"] == pytest.approx(rate, abs=1e-12)
        assert record["counts"]["11"] == 0

    def test_missing_section_exits_2(self, workspace):
        _, out, write = workspace
        cfg = base_config(out)
        del cfg["multiplex"]
        assert cli.main(["multiplex", write(cfg)]) == 2

    def test_overflowing_gamma_is_a_config_error(self, workspace):
        # |gamma|^2 overflows a float
        _, out, write = workspace
        cfg = base_config(out, multiplex={"gamma": [1e200, 0.0]})
        proc = run_fresh("multiplex", write(cfg))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_weak_splitting_warning_is_printed_once(self, workspace):
        _, out, write = workspace
        cfg = base_config(out, multiplex={"T": 0.5, "rounds": 100})
        proc = run_python("-W", "always", "-m", "usdsim.cli", "multiplex", write(cfg))
        assert proc.returncode == 0
        assert proc.stderr.count("exceeds 0.2") == 1
        assert "<string>" not in proc.stderr

    def test_blind_detectors_leave_bit_error_rate_undefined(self, workspace):
        _, out, write = workspace
        cfg = base_config(out, multiplex={"eta": 0.0, "rounds": 500})
        assert cli.main(["multiplex", write(cfg)]) == 0
        record = json.loads((out / "multiplex.json").read_text())
        assert {r["name"]: r["value"] for r in record["results"]}["bit_error_rate"] is None
        cfg["output"]["format"] = "csv"
        assert cli.main(["multiplex", write(cfg)]) == 0
        rows = {r[0]: r[1] for r in read_csv(out / "multiplex.csv")}
        assert rows["bit_error_rate"] == ""



class TestSweepCommand:
    def test_eta_sweep_monotone(self, workspace):
        _, out, write = workspace
        path = write(base_config(out))
        assert cli.main(["sweep", path, "--param", "eta", "--from", "0", "--to", "1", "--steps", "11"]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["eta", "analytic_inconclusive", "analytic_quantum_bound", "analytic_ratio"]
        inconclusive = [float(r[1]) for r in rows[1:]]
        assert len(inconclusive) == 11
        assert all(a > b for a, b in zip(inconclusive, inconclusive[1:]))

    def test_alpha_separation_matches_closed_form(self, workspace):
        _, out, write = workspace
        path = write(base_config(out))
        assert cli.main(["sweep", path, "--param", "alpha_separation", "--from", "0", "--to", "3", "--steps", "13"]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["alpha_separation", "analytic_inconclusive", "analytic_quantum_bound"]
        for row in rows[1:]:
            sep = float(row[0])
            assert float(row[1]) == pytest.approx(math.exp(-0.5 * sep * sep), abs=1e-10)

    def test_rows_ordered_by_parameter(self, workspace):
        _, out, write = workspace
        path = write(base_config(out))
        assert cli.main(["sweep", path, "--param", "T", "--from", "0.01", "--to", "0.2", "--steps", "5"]) == 0
        rows = read_csv(out / "sweep.csv")
        values = [float(r[0]) for r in rows[1:]]
        assert values == sorted(values)

    def test_mc_columns(self, workspace):
        _, out, write = workspace
        path = write(base_config(out))
        assert cli.main(["sweep", path, "--param", "eta", "--from", "0.5", "--to", "1", "--steps", "3", "--mc", "2000"]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0][-2:] == ["mc_inconclusive", "mc_conclusive"]
        for row in rows[1:]:
            assert abs(float(row[4]) - float(row[1])) < 0.05

    def test_single_step_exits_2(self, workspace):
        _, out, write = workspace
        assert cli.main(["sweep", write(base_config(out)), "--param", "eta", "--from", "0", "--to", "1", "--steps", "1"]) == 2

    def test_bad_mc_leaves_no_output_directory(self, workspace):
        _, out, write = workspace
        argv = ["--param", "eta", "--from", "0", "--to", "1", "--steps", "3", "--mc", "0"]
        assert cli.main(["sweep", write(base_config(out)), *argv]) == 2
        assert not out.exists()

    def test_reversed_range_exits_2(self, workspace):
        _, out, write = workspace
        assert cli.main(["sweep", write(base_config(out)), "--param", "eta", "--from", "1", "--to", "0", "--steps", "5"]) == 2

    def test_out_of_range_value_exits_2(self, workspace):
        _, out, write = workspace
        assert cli.main(["sweep", write(base_config(out)), "--param", "T", "--from", "0.5", "--to", "2.0", "--steps", "4"]) == 2

    def test_rejected_separation_exits_2(self, workspace, capsys):
        _, out, write = workspace
        path = write(base_config(out))
        for to in ("inf", "1e300"):  # an infinite grid; |alpha|^2 overflows
            argv = ["sweep", path, "--param", "alpha_separation", "--from", "0", "--to", to]
            assert cli.main([*argv, "--steps", "3"]) == 2
        assert "sweep value" in capsys.readouterr().err

    def test_overflowing_separation_sweeps(self, workspace):
        # each |alpha|^2 fits a float but |alpha1 - alpha2|^2 does not
        _, out, write = workspace
        argv = ["--param", "alpha_separation", "--from", "1", "--to", "2e154", "--steps", "2"]
        proc = run_fresh("sweep", write(base_config(out)), *argv)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert read_csv(out / "sweep.csv")[-1][1:] == ["0", "0"]

    def test_underflowing_bound_keeps_the_ratio(self, workspace):
        _, out, write = workspace
        path = write(base_config(out))
        assert cli.main(["sweep", path, "--param", "gamma_mag", "--from", "100", "--to", "1000", "--steps", "2"]) == 0
        rows = read_csv(out / "sweep.csv")
        assert float(rows[2][2]) == 0.0  # the quantum bound exp(-1250)
        ratios = [float(r[3]) for r in rows[1:]]
        assert math.log(ratios[1]) == pytest.approx(100.0 * math.log(ratios[0]), rel=1e-10)


class TestOutputDirectory:
    def test_env_var_overrides_path(self, workspace, monkeypatch, tmp_path):
        _, out, write = workspace
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(override))
        assert cli.main(["probs", write(base_config(out))]) == 0
        assert (override / "probs.json").is_file()
        assert not (out / "probs.json").exists()

    def test_default_label_sources(self, workspace):
        _, out, write = workspace
        assert cli.main(["multiplex", write(base_config(out))]) == 0
        record = json.loads((out / "multiplex.json").read_text())
        allowed = {"analytic", "ancilla", "montecarlo", "multiplex"}
        assert all(r["source"] in allowed for r in record["results"])


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_sampler_artifacts_match_golden_hashes(variant, tmp_path, monkeypatch):
    """The sampling commands of the benchmark's small CLI calls reproduce the
    committed artifact bytes; the artifacts embed the numpy and scipy
    versions, so the hashes hold only for the recorded environment."""
    golden = workloads.load_golden()
    versions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    differ = [
        f"{name} {version} (hashes made with {golden['environment'][name]})"
        for name, version in versions.items()
        if golden["environment"][name] != version
    ]
    if differ:
        pytest.skip("golden hashes belong to another environment: " + ", ".join(differ))
    expected = workloads.variant_hashes(golden, "cli-calls", variant)
    jobs = {job.name: job for job in workloads.cli_small(variant)}
    for name in ("simulate", "multiplex", "sweep-alpha"):
        job = jobs[name]
        job_dir = tmp_path / name
        job_dir.mkdir()
        for file_name, text in job.files.items():
            (job_dir / file_name).write_text(text)
        monkeypatch.chdir(job_dir)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(job_dir / "out"))
        kind, *argv = job.argv
        assert kind == "cli"
        assert cli.main(argv) == 0, name
        assert workloads.artifact_hashes(job_dir / "out") == expected[name], name
