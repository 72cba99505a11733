"""Tests of the benchmark itself: span arithmetic and failure accounting.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import tracer
from run import child_env, run_job, run_pass
from workloads import VARIANTS, Job, cli_calls, cli_small, load_golden, variant_hashes, verify

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("discrimination.povm_analytic", 1.0, 4.0, parent=0),
        span("hilbert.normally_ordered_exponential", 2.0, 3.0, parent=1),
        span("cli.write_json", 5.0, 9.0, parent=0, attrs={"bytes": 7}),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, parent=0), span("c", 4.0, 12.0, parent=0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_group_spans_and_count_cache_hits():
    cold = [
        span("discrimination.povm_ancilla", 0.0, 5.0),
        span("hilbert.beam_splitter_unitary", 1.0, 4.0, parent=0, attrs={"workspace_bytes": 16}),
        span("discrimination.povm_ancilla", 6.0, 7.0),
        span("discrimination.PovmSet.min_eigenvalue", 6.5, 6.75, parent=2),
    ]
    warm = [span("discrimination.povm_ancilla", 0.0, 1.0)]
    totals = tracer.layer_totals([cold, warm])
    assert totals["discrimination.povm_ancilla.calls"] == 3
    assert totals["discrimination.povm_ancilla.cache_hits"] == 2
    assert totals["discrimination.povm_ancilla.self_s"] == pytest.approx(2.0 + 0.75 + 1.0)
    assert totals["discrimination.validate.self_s"] == pytest.approx(0.25)
    assert totals["hilbert.beam_splitter_unitary.self_s"] == pytest.approx(3.0)
    assert totals["hilbert.ancilla_workspace_bytes"] == 16
    assert totals["hilbert.self_s"] + totals["discrimination.self_s"] == pytest.approx(7.0)


def test_import_times_reads_cumulative_microseconds():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      8072 |     404427 |       usdsim.hilbert\n"
        "import time:      8885 |    1286479 | usdsim.cli\n"
    )
    times = tracer.import_times(stderr)
    assert times == {"hilbert.import_s": pytest.approx(0.404427),
                     "cli.import_s": pytest.approx(1.286479)}


@pytest.fixture
def env():
    return child_env(ROOT, blas_threads=1)


def probs_job(seed=0):
    return next(job for job in cli_small(seed) if job.name == "probs")


def test_flipped_artifact_byte_fails_the_operation(tmp_path, env):
    job = probs_job()
    golden = variant_hashes(load_golden(), "cli-calls", 0)[job.name]
    run = run_job(job, tmp_path / "job", env)
    assert run.exit_code == 0
    assert verify(job, tmp_path / "job", run.exit_code, golden) == [[]]

    # flip one bit of a metadata hex digit: still valid JSON, physics unchanged
    artifact = tmp_path / "job" / "out" / "probs.json"
    data = bytearray(artifact.read_bytes())
    data[data.index(b'"config_hash": "') + len(b'"config_hash": "')] ^= 0x01
    artifact.write_bytes(bytes(data))
    [errors] = verify(job, tmp_path / "job", run.exit_code, golden)
    assert errors == ["artifact probs.json differs from its golden hash"]


def test_unexpected_exit_code_counts_as_failed(tmp_path, env):
    job = probs_job()
    config = json.loads(job.files["config.json"])
    config["receiver"]["dim"] = 1
    bad = Job("probs", job.argv, {"config.json": json.dumps(config)}, check=job.check)
    result = run_pass([bad], tmp_path / "pass", env, golden={}, traced=False)
    assert result["errors"] == [["probs: exit code 2"]]


def test_failed_library_job_fails_all_its_operations(tmp_path):
    job = Job("fock", ["fock"], ops=3)
    assert verify(job, tmp_path, 1, None) == [["exit code 1"]] * 3


def test_traced_job_records_spans_at_every_binding(tmp_path, env):
    job = probs_job()
    run = run_job(job, tmp_path / "job", env, traced=True)
    assert run.exit_code == 0
    spans = tracer.load_spans(tmp_path / "job" / "spans.json")
    names = [s[0] for s in spans]
    # cmd_probs reaches povm_analytic through the cli module's own binding,
    # and normally_ordered_gaussian calls normally_ordered_exponential inside hilbert.
    analytic = names.index("discrimination.povm_analytic")
    assert spans[analytic][3] == names.index("cli.cmd_probs")
    assert any(
        s[0] == "hilbert.normally_ordered_exponential"
        and spans[s[3]][0] == "hilbert.normally_ordered_gaussian"
        for s in spans
    )
    assert "discrimination.PovmSet.completeness_residual" in names
    assert tracer.import_times(run.stderr)["cli.import_s"] > 0
    assert run.setup_s > 0


def test_every_cli_variant_has_committed_hashes():
    for variant in range(VARIANTS):
        hashes = variant_hashes(load_golden(), "cli-calls", variant)
        assert {job.name for job in cli_calls(variant)} == set(hashes)
        assert all(hashes.values())


def test_benchmark_json_lists_the_metrics_the_driver_prints():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    sample = {"wall_s": 1.0, "imports": [], "layers": tracer.layer_totals([])}
    layers = run.per_layer([sample], [sample])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_sums_job_medians_and_keeps_a_partial_pass():
    import run

    def job(name, wall, rss=100.0):
        return {"name": name, "wall_s": wall, "cpu_s": wall / 2, "peak_rss_mb": rss}

    passes = [
        {"jobs": [job("a", 1.0), job("b", 2.0, rss=300.0)], "setup_s": [0.5, 0.7]},
        {"jobs": [job("a", 9.0), job("b", 3.0)], "setup_s": [0.6, 0.8]},
        {"jobs": [job("a", 2.0)], "setup_s": [0.9]},  # stopped at the deadline
    ]
    e2e = run.end_to_end(passes)
    assert e2e["wall_s"][:2] == (pytest.approx(2.0 + 2.5), "2-3 per job")
    assert e2e["cpu_s"][0] == pytest.approx((2.0 + 2.5) / 2)
    assert e2e["peak_rss_mb"][0] == pytest.approx(200.0)
    assert e2e["setup_s"][:2] == (pytest.approx(0.7), "5")
