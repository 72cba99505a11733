import collections
import copy
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from golden_env import openblas_note, probe, version_differences, workloads
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from usdsim import cli
from usdsim.discrimination import OUTCOME_ORDER, ReceiverConfig, closed_form_probabilities
from usdsim.hilbert import coherent_state


def base_config(out_dir, **overrides):
    """The README config with 20000 rounds, writing to ``out_dir``, then
    ``overrides`` merged into its sections."""
    cfg = copy.deepcopy(workloads.README_CONFIG)
    cfg["multiplex"]["rounds"] = 20000
    cfg["output"]["path"] = str(out_dir)
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


def fresh_env():
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def run_python(*args):
    """Run a fresh interpreter that imports this usdsim, so an escaping
    exception shows up as a traceback and exit code 1."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=fresh_env())


def run_fresh(*argv):
    """Run the CLI as a fresh process."""
    return run_python("-m", "usdsim.cli", *argv)


_PEAK_RSS = (
    "import os, subprocess, sys; "
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(proc.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def fresh_python_peak_rss_mb(*args):
    """Peak resident memory of a successful fresh interpreter run with
    ``args``, in MiB, read with os.wait4 by a bare launcher interpreter.  A
    child's peak also counts the process it was spawned from before its exec,
    so read from this test process it would be at least the test process's
    own size."""
    proc = run_python("-c", _PEAK_RSS, sys.executable, *args)
    assert proc.returncode == 0, proc.stderr
    exit_code, max_rss_kib = map(int, proc.stdout.split())  # ru_maxrss is in KiB on Linux
    assert exit_code == 0, args
    return max_rss_kib / 1024.0


def fresh_peak_rss_mb(*argv):
    """Peak resident memory of a successful fresh CLI process, in MiB."""
    return fresh_python_peak_rss_mb("-m", "usdsim.cli", *argv)


def _loaded(names: str) -> str:
    """Code that prints, as a JSON list, the loaded modules that ``names``
    (a Python expression over ``m``) selects."""
    return f"import json, sys; print(json.dumps(sorted(m for m in sys.modules if {names})))"


_LOADED_SCIPY_OR_OPENSSL = _loaded("m == 'scipy' or m.startswith('scipy.') or m == '_hashlib'")


def test_import_leaves_out_scipy_stats(workspace):
    # the run metadata reads scipy's version from its version file, and
    # hashes the config without hashlib, which loads OpenSSL's _hashlib
    proc = run_python("-c", "import usdsim.cli; " + _LOADED_SCIPY_OR_OPENSSL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    # in one fresh process: probs runs without scipy or OpenSSL, and so do
    # both POVM constructions and the dump; the ancilla POVM's beam-splitter
    # columns are a committed table
    _, out, write = workspace
    path = write(base_config(out))
    proc = run_python(
        "-c",
        "import sys; from usdsim import cli; "
        f"assert cli.main(['probs', sys.argv[1]]) == 0; {_LOADED_SCIPY_OR_OPENSSL}; "
        f"assert cli.main(['povm', sys.argv[1], '--construction', 'both', '--dump']) == 0; "
        f"{_LOADED_SCIPY_OR_OPENSSL}",
        path,
    )
    assert proc.returncode == 0, proc.stderr
    after_probs, after_povm = map(json.loads, proc.stdout.splitlines())
    assert after_probs == []
    assert after_povm == []
    record = json.loads((out / "povm.json").read_text())
    assert {r["source"] for r in record["results"]} == {"analytic", "ancilla"}


# JSON values as json.loads returns them: nested, with non-ASCII text and floats
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=st.dictionaries(st.text(), _JSON_VALUES, max_size=6))
@example(raw=workloads.README_CONFIG)
@example(raw={"clé": {"ключ": [0.1, -2.5e-300, None, True]}, "": {"数": 1e300}})
@pytest.mark.parametrize(
    "blocked",
    [
        # the built-in module, and no hashlib import
        [],
        # a build without the built-in module: hashlib is imported to hash
        ["_sha2", "_sha256"],
    ],
    ids=["builtin", "no-builtin"],
)
def test_config_hash_is_sha256_of_the_canonical_json(monkeypatch, blocked, raw):
    # each example sets sys.modules again: Hypothesis imports hashlib itself
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)  # a None entry fails its import
    monkeypatch.delitem(sys.modules, "hashlib", raising=False)
    got = cli.config_hash(raw)
    assert ("hashlib" in sys.modules) == bool(blocked)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    assert got == hashlib.sha256(canonical).hexdigest()


def test_import_peaks_near_numpy():
    # beyond numpy, importing the CLI loads only the standard library's
    # argparse, csv, json and dataclasses and usdsim itself; scipy's package
    # and OpenSSL put the import 7 MB above numpy's
    numpy_peak = fresh_python_peak_rss_mb("-c", "import numpy")
    cli_peak = fresh_python_peak_rss_mb("-c", "import usdsim.cli")
    assert cli_peak - numpy_peak <= 5.0, (cli_peak, numpy_peak)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_record_names_the_installed_scipy(workspace, fmt):
    import scipy

    _, out, write = workspace
    assert cli.main(["probs", write(base_config(out, output={"format": fmt}))]) == 0
    if fmt == "json":
        recorded = json.loads((out / "probs.json").read_text())["metadata"]["versions"]["scipy"]
    else:
        (recorded,) = [value for name, value, _ in read_csv(out / "probs.csv") if name == "metadata.versions.scipy"]
    assert recorded == scipy.__version__


def _flat_record(record):
    """A JSON run record as the (name, value, source) rows of its CSV twin,
    in the CSV's order: metadata, results, then the probability table and the
    outcome counts."""
    rows = []
    for key, value in record["metadata"].items():
        items = sorted(value.items()) if isinstance(value, dict) else [(None, value)]
        rows += [(".".join(filter(None, ("metadata", key, sub))), item, "") for sub, item in items]
    rows += [(r["name"], r["value"], r["source"]) for r in record.get("results", [])]
    for row in record.get("table", []):
        for column in ("numeric", "closed_form"):
            rows.append((f"{row['sent']}.{row['outcome']}.{column}", row[column], row["source"]))
    rows += [(f"counts.{label}", count, "multiplex") for label, count in record.get("counts", {}).items()]
    return rows


def test_csv_records_match_their_json_twins(workspace):
    # the CSV form of each run record holds the JSON form's rows in its
    # order: floats round-trip, counts are integers, null is an empty cell
    # and a complex value its "re im" pair; the config hash names each
    # record's own config, which differs only in the format
    tmp_path, _, _ = workspace
    hashes = {}
    for fmt in ("json", "csv"):
        raw = base_config(tmp_path / fmt, receiver={"eta": 0.8}, output={"format": fmt})
        path = tmp_path / f"{fmt}.json"
        path.write_text(json.dumps(raw))
        for argv in (["povm", "--construction", "both"], ["probs"], ["simulate", "--trials", "1000"], ["multiplex"]):
            assert cli.main([argv[0], str(path), *argv[1:]]) == 0, argv
        hashes[fmt] = cli.config_hash(raw)
    for stem in ("povm", "probs", "simulate_run", "multiplex"):
        record = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
        header, *cells = read_csv(tmp_path / "csv" / f"{stem}.csv")
        assert header == ["name", "value", "source"]
        expected = _flat_record(record)
        assert [(name, source) for name, _, source in cells] == [(name, source) for name, _, source in expected]
        for (name, cell, _), (_, value, _) in zip(cells, expected):
            if name == "metadata.config_hash":
                assert (value, cell) == (hashes["json"], hashes["csv"])
            elif value is None:
                assert cell == "", name
            elif isinstance(value, list):
                assert list(map(float, cell.split(" "))) == value, name
            elif isinstance(value, float):
                assert float(cell) == value, name
            elif isinstance(value, int):
                assert int(cell) == value, name
            else:
                assert cell == value, name


@pytest.mark.parametrize(
    "files",
    [
        pytest.param({"scipy.py": ""}, id="module"),
        pytest.param({"scipy/__init__.py": ""}, id="no-version-file"),
        pytest.param({"scipy/__init__.py": "", "scipy/version.py": "release = True\n"}, id="no-version"),
        pytest.param({"scipy/__init__.py": "", "scipy/version.py": "raise ImportError\n"}, id="raises"),
        pytest.param({"scipy/__init__.py": "", "scipy/version.py": "version = 1.0\n"}, id="non-string"),
    ],
)
def test_shadowed_scipy_records_null(workspace, files):
    # a module named scipy ahead of the installed one on the path, a lone
    # scipy.py or a package without scipy's version.py or its version, or
    # whose version.py raises or sets a non-string version, leaves the run
    # record's scipy version null, where it ended the run with a traceback
    # and exit code 1 or recorded the non-string
    tmp_path, out, write = workspace
    shadow = tmp_path / "shadow"
    for name, text in files.items():
        (shadow / name).parent.mkdir(parents=True, exist_ok=True)
        (shadow / name).write_text(text)
    env = fresh_env()
    env["PYTHONPATH"] = os.pathsep.join([str(shadow), env["PYTHONPATH"]])
    argv = [sys.executable, "-m", "usdsim.cli", "probs", write(base_config(out))]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "probs.json").read_text())["metadata"]["versions"]["scipy"] is None


def _blank_scipy_version(artifact: bytes, version: str) -> tuple[bytes, int]:
    """``artifact`` with the scipy version of its run record blanked as a
    record made without scipy writes it, and how many records it held."""
    blanked = 0
    for named, blank in (
        (f'"scipy": "{version}"', '"scipy": null'),
        (f"metadata.versions.scipy,{version},", "metadata.versions.scipy,,"),
    ):
        blanked += artifact.count(named.encode())
        artifact = artifact.replace(named.encode(), blank.encode())
    return artifact, blanked


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked every command
    # exits 0 and writes the same bytes as with scipy installed, except the
    # scipy version of each run record, which reads null (an empty CSV cell)
    import scipy

    t_grid = ["--param", "T", "--from", "0.01", "--to", "0.1", "--steps", "3", "--mc", "1000"]
    separation = ["--param", "alpha_separation", "--from", "1", "--to", "2", "--steps", "3", "--mc", "1000"]
    runs = []
    for fmt in ("json", "csv"):
        config = tmp_path / f"{fmt}.json"
        config.write_text(json.dumps(base_config(tmp_path / "unused", output={"format": fmt})))
        for tag, args in (
            ("povm", ["povm", "--construction", "both", "--dump"]),
            ("probs", ["probs"]),
            ("simulate", ["simulate", "--trials", "1000"]),
            ("multiplex", ["multiplex"]),
            ("sweep-T", ["sweep", *t_grid]),
            ("sweep-separation", ["sweep", *separation]),
        ):
            runs.append((f"{fmt}/{tag}", [args[0], str(config), *args[1:]]))
    script = (
        "import json, os, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from usdsim import cli\n"
        "codes = []\n"
        "for out, argv in json.loads(sys.argv[3]):\n"
        "    os.environ[cli.OUTPUT_DIR_ENV] = os.path.join(sys.argv[2], out)\n"
        "    codes.append(cli.main(argv))\n"
        "print(json.dumps(codes))\n"
    )
    trees = {}
    for side in ("blocked", "installed"):
        proc = run_python("-c", script, side, str(tmp_path / side), json.dumps(runs))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert json.loads(proc.stdout) == [0] * len(runs), (side, proc.stderr)
        root = tmp_path / side
        trees[side] = {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    assert trees["blocked"].keys() == trees["installed"].keys()
    blanked = {}
    for name, installed in trees["installed"].items():
        expected, blanked[name] = _blank_scipy_version(installed, scipy.__version__)
        assert trees["blocked"][name] == expected, name
    # each run record names scipy once, and no other artifact names it
    records = [
        f"{fmt}/{tag}/{stem}.{fmt}"
        for fmt in ("json", "csv")
        for tag, stem in (("povm", "povm"), ("probs", "probs"), ("simulate", "simulate_run"), ("multiplex", "multiplex"))
    ]
    assert {name: n for name, n in blanked.items() if n} == dict.fromkeys(records, 1)


def test_ancilla_povm_costs_little_memory_over_probs(workspace):
    # at the README config the ancilla reduction's workspace is about
    # 5 * 32^3 complex numbers (2.6 MB); loading scipy.linalg for an expm
    # once put povm --construction both 26 MB above probs
    _, out, write = workspace
    path = write(base_config(out))
    probs = fresh_peak_rss_mb("probs", path)
    both = fresh_peak_rss_mb("povm", path, "--construction", "both")
    assert both - probs <= 10.0, (both, probs)


def test_readme_config_is_the_benchmark_config():
    # the CLI tests, the benchmark and the CI console-script step all run
    # the README's example config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert json.loads(example) == workloads.README_CONFIG


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    proc = run_python("-c", example)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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

    def test_unreadable_config_exits_2(self, workspace):
        # a directory, and a file whose read fails (reading /proc/self/mem at
        # offset 0 is an I/O error), each in a fresh process
        tmp_path, _, _ = workspace
        paths = [str(tmp_path)]
        if os.path.exists("/proc/self/mem"):
            paths.append("/proc/self/mem")
        for path in paths:
            proc = run_fresh("probs", path)
            assert proc.returncode == 2, (path, proc.stderr)
            assert f"config error: cannot read config file {path}: " in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_nul_byte_in_path_cannot_be_read(self):
        # only a library caller can pass one: a command line cannot carry it
        with pytest.raises(cli.ConfigError) as info:
            cli.load_config("a\0b")
        assert str(info.value) == "cannot read config file a\0b: embedded null byte"

    def test_invalid_json_exits_2(self, workspace, capsys):
        tmp_path, _, _ = workspace
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["povm", str(path)]) == 2
        # undecodable bytes, an integer literal past the conversion limit, deep nesting
        for text in (b"\xff{", b'{"rng": {"seed": ' + b"1" * 5000 + b"}}", b"[" * 100_000):
            path.write_bytes(text)
            assert cli.main(["povm", str(path)]) == 2
        # valid JSON whose root is not an object
        capsys.readouterr()
        path.write_text("[1, 2]")
        assert cli.main(["povm", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config root must be a JSON object\n"

    def test_dim_one_exits_2(self, workspace):
        _, out, write = workspace
        path = write(base_config(out, receiver={"dim": 1}))
        assert cli.main(["povm", path]) == 2

    def test_unknown_key_exits_2(self, workspace, capsys):
        _, out, write = workspace
        cfg = base_config(out)
        cfg["receiver"]["mystery"] = 1
        assert cli.main(["povm", write(cfg)]) == 2
        # reported ahead of a section the command needs and the file lacks
        del cfg["multiplex"]
        capsys.readouterr()
        assert cli.main(["multiplex", write(cfg)]) == 2
        assert capsys.readouterr().err == "config error: unknown keys in 'receiver': ['mystery']\n"
        assert not out.exists()

    def test_unknown_section_exits_2(self, workspace):
        _, out, write = workspace
        cfg = base_config(out)
        cfg["detector"] = {}
        assert cli.main(["povm", write(cfg)]) == 2

    def test_missing_section_exits_2_and_creates_no_directory(self, workspace, capsys):
        _, out, write = workspace
        separation = ["--param", "alpha_separation", "--from", "1", "--to", "2", "--steps", "2", "--mc", "10"]
        for argv, section in (
            (["povm"], "receiver"),
            (["probs"], "receiver"),
            (["simulate", "--trials", "10"], "receiver"),
            (["simulate", "--trials", "10"], "rng"),
            (["multiplex"], "multiplex"),
            (["sweep", *separation], "receiver"),
            (["sweep", *separation], "rng"),
            (["sweep", "--param", "T", "--from", "0.01", "--to", "0.1", "--steps", "2"], "multiplex"),
        ):
            cfg = base_config(out)
            del cfg[section]
            command, *flags = argv
            assert cli.main([command, write(cfg), *flags]) == 2, argv
            assert capsys.readouterr().err == f"config error: config is missing the '{section}' section\n"
            assert not out.exists(), argv

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

    def test_each_construction_runs_the_guards_once(self, workspace, monkeypatch):
        # one eigvalsh per element, taken by the report's first read of
        # guards: positivity is certified at construction without one, and
        # the least eigenvalue is computed once, where it is reported
        _, out, write = workspace
        path = write(base_config(out))
        calls = []

        def counted(matrix, _eigvalsh=np.linalg.eigvalsh):
            calls.append(matrix.shape)
            return _eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for construction, expected in (("analytic", 4), ("both", 8)):
            calls.clear()
            assert cli.main(["povm", path, "--construction", construction]) == 0
            assert len(calls) == expected, construction

    def test_commands_that_report_no_eigenvalue_take_none(self, workspace, monkeypatch):
        # the POVMs these commands build certify positivity without eigvalsh,
        # and none of them reads guards
        _, out, write = workspace
        path = write(base_config(out))
        calls = []

        def counted(matrix, _eigvalsh=np.linalg.eigvalsh):
            calls.append(matrix.shape)
            return _eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        separation = ["--param", "alpha_separation", "--from", "1", "--to", "2", "--steps", "3", "--mc", "100"]
        for argv in (["probs", path], ["simulate", path, "--trials", "1000"], ["sweep", path, *separation]):
            assert cli.main(argv) == 0, argv
        assert calls == []

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

    def test_dump_writes_each_number_as_fmt(self, tmp_path):
        # edge values the golden dump hash does not reach: a negative zero,
        # the smallest subnormal, a huge value and a non-terminating fraction
        values = [-0.0, 5e-324, 1e300, 1 / 3]
        matrix = np.array([[complex(x, y) for y in values] for x in values])
        path = tmp_path / "op.txt"
        cli.dump_operator(path, matrix)
        rows = [" ".join(f"{cli._fmt(z.real)} {cli._fmt(z.imag)}" for z in row) for row in matrix]
        assert path.read_text() == "\n".join(["dim 4 modes 1", *rows]) + "\n"

    def test_dump_at_reduced_efficiency_matches_closed_forms(self, workspace):
        # the dumped matrices are the lossy receiver's own POVM
        _, out, write = workspace
        cfg = base_config(out, receiver={"eta": 0.6})
        assert cli.main(["povm", write(cfg), "--construction", "both", "--dump"]) == 0
        receiver = ReceiverConfig(1.0, -1.0, 32, 0.6)
        for tag in ("analytic", "ancilla"):
            for sent in (receiver.alpha1, receiver.alpha2):
                state = coherent_state(sent, 32)
                closed = closed_form_probabilities(receiver, sent)
                for outcome in OUTCOME_ORDER:
                    pairs = np.loadtxt(out / f"povm_{tag}_{outcome.label}.txt", skiprows=1)
                    matrix = pairs[:, 0::2] + 1j * pairs[:, 1::2]
                    value = np.vdot(state, matrix @ state).real
                    assert abs(value - closed[outcome]) <= 1e-12, (tag, sent, outcome)

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
        # a complex value is a [re, im] pair in JSON and 're im' in CSV; the
        # JSON encoder still refuses any other type it cannot write
        assert cli.main(["multiplex", write(base_config(out, output={"format": "csv"}))]) == 0
        rows = {r[0]: r[1] for r in read_csv(out / "multiplex.csv")}
        assert rows["alice_signal_amp"] == "0.5 0"
        with pytest.raises(TypeError):
            cli.write_json(out / "unwritable.json", {"value": {1}})

    def test_missing_section_exits_2(self, workspace):
        _, out, write = workspace
        cfg = base_config(out)
        del cfg["multiplex"]
        assert cli.main(["multiplex", write(cfg)]) == 2

    def test_overflowing_gamma_is_a_config_error(self, workspace, capsys):
        # |gamma|^2 overflows a float
        _, out, write = workspace
        cfg = base_config(out, multiplex={"gamma": [1e200, 0.0]})
        proc = run_fresh("multiplex", write(cfg))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr
        # an integer splitter transmission past a float's range
        cfg = base_config(out, multiplex={"T": 10**400 // 9})
        assert cli.main(["multiplex", write(cfg)]) == 2
        assert capsys.readouterr().err == "config error: multiplex: splitter transmission is too large for a float\n"

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



# sweep ends: any finite float, and ends within a few hundred ulps of zero,
# whose step is subnormal or underflows to 0, where linspace computes in
# another order
_GRID_ENDS = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-321, 1e-321)


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

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(start=_GRID_ENDS, stop=_GRID_ENDS, steps=st.integers(2, 200))
    @example(start=0.0, stop=1.0, steps=11)
    @example(start=0.01, stop=0.2, steps=7)
    @example(start=-1.5, stop=2e154, steps=3)
    @example(start=0.0, stop=1e-323, steps=5)
    def test_grid_points_equal_linspace(self, start, stop, steps):
        assume(start < stop and math.isfinite(stop - start))
        lazy = np.array([cli._grid_point(start, stop, steps, i) for i in range(steps)])
        # linspace also multiplies out the last point before it writes stop
        # there, which overflows for ends near the largest float
        with np.errstate(over="ignore"):
            grid = np.linspace(start, stop, steps)
        assert lazy.tobytes() == grid.tobytes()

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
        # the grid's third point, T = 1.5, is rejected after two rows were written
        _, out, write = workspace
        assert cli.main(["sweep", write(base_config(out)), "--param", "T", "--from", "0.5", "--to", "2.0", "--steps", "4"]) == 2
        assert not (out / "sweep.csv").exists()

    def test_rejected_separation_exits_2(self, workspace, capsys):
        _, out, write = workspace
        path = write(base_config(out))
        for to in ("inf", "1e300"):  # an infinite grid; |alpha|^2 overflows
            argv = ["sweep", path, "--param", "alpha_separation", "--from", "0", "--to", to]
            assert cli.main([*argv, "--steps", "3"]) == 2
        assert "sweep value" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

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


class TestRngSection:
    def test_missing_section_runs_the_protocol_with_seed_0(self, workspace):
        # multiplex and the T sweep's Monte Carlo columns draw from seed 0
        # when the config has no 'rng' section; only the config hash differs
        tmp_path, _, write = workspace
        grid = ["--param", "T", "--from", "0.01", "--to", "0.2", "--steps", "4", "--mc", "200"]
        records, sweeps = {}, {}
        for label in ("seed-0", "no-rng"):
            out = tmp_path / label
            cfg = base_config(out, rng={"seed": 0})
            if label == "no-rng":
                del cfg["rng"]
            path = write(cfg)
            assert cli.main(["multiplex", path]) == 0
            assert cli.main(["sweep", path, *grid]) == 0
            records[label] = json.loads((out / "multiplex.json").read_text())
            sweeps[label] = (out / "sweep.csv").read_bytes()
        seeded, bare = records["seed-0"], records["no-rng"]
        assert bare["results"] == seeded["results"]
        assert bare["counts"] == seeded["counts"]
        assert bare["metadata"]["seed"] == seeded["metadata"]["seed"] == 0
        assert bare["metadata"]["config_hash"] != seeded["metadata"]["config_hash"]
        assert sweeps["no-rng"] == sweeps["seed-0"]

    def test_missing_section_still_required_by_the_trials(self, workspace, capsys):
        _, out, write = workspace
        cfg = base_config(out)
        del cfg["rng"]
        path = write(cfg)
        grid = ["--param", "alpha_separation", "--from", "1", "--to", "2", "--steps", "2"]
        assert cli.main(["simulate", path, "--trials", "10"]) == 2
        assert cli.main(["sweep", path, *grid, "--mc", "10"]) == 2
        assert capsys.readouterr().err.count("missing the 'rng' section") == 2
        assert cli.main(["sweep", path, *grid]) == 0


class TestDrawCounts:
    def test_counts_above_the_draw_cap_exit_2(self, workspace):
        # rounds, --trials, --steps, and --mc on both sweep branches (the
        # protocol and the trials), all in one fresh interpreter: a count that
        # reached an allocation would end it with a traceback, or never let it
        # finish
        tmp_path, out, write = workspace
        path = write(base_config(out))
        argvs = []
        for value in (2**53 + 1, 10**20):
            big = tmp_path / f"rounds-{value}.json"
            big.write_text(json.dumps(base_config(out, multiplex={"rounds": value})))
            argvs.append(["multiplex", str(big)])
            argvs.append(["simulate", path, "--trials", str(value)])
            argvs.append(["sweep", path, "--param", "eta", "--from", "0.1", "--to", "1", "--steps", str(value)])
            for param in ("T", "alpha_separation"):
                grid = ["--param", param, "--from", "0.01", "--to", "0.1", "--steps", "2"]
                argvs.append(["sweep", path, *grid, "--mc", str(value)])
        proc = run_python(
            "-c",
            "import json, sys; from usdsim import cli; "
            "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))",
            json.dumps(argvs),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [2] * len(argvs)
        errors = proc.stderr.splitlines()
        assert len(errors) == len(argvs)
        assert all(e.startswith("config error") and "MAX_DRAWS" in e for e in errors), errors
        assert not out.exists()

    def test_peak_memory_is_flat_in_rounds_and_trials(self, workspace):
        # both samplers stream their draws, so 40x the rounds or 200x the
        # trials leave the peak resident memory where it was
        _, out, write = workspace
        peaks = {}
        for rounds in (100_000, 4_000_000):
            path = write(base_config(out, multiplex={"rounds": rounds}))
            peaks["multiplex", rounds] = fresh_peak_rss_mb("multiplex", path)
        path = write(base_config(out))
        for trials in (10_000, 2_000_000):
            peaks["simulate", trials] = fresh_peak_rss_mb("simulate", path, "--trials", str(trials))
        assert abs(peaks["multiplex", 4_000_000] - peaks["multiplex", 100_000]) < 16.0, peaks
        assert abs(peaks["simulate", 2_000_000] - peaks["simulate", 10_000]) < 16.0, peaks


class TestOutputDirectory:
    def test_env_var_overrides_path(self, workspace, monkeypatch, tmp_path):
        _, out, write = workspace
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(override))
        assert cli.main(["probs", write(base_config(out))]) == 0
        assert (override / "probs.json").is_file()
        assert not (out / "probs.json").exists()

    def test_output_path_under_a_file_exits_2(self, workspace):
        tmp_path, _, write = workspace
        (tmp_path / "a_file").write_text("")
        blocked = tmp_path / "a_file" / "out"
        proc = run_fresh("probs", write(base_config(blocked)))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"config error: cannot create output directory {blocked}: "
            f"[Errno 20] Not a directory: {str(blocked)!r}\n"
        )

    def test_unwritable_artifact_exits_2(self, workspace):
        # each artifact path is taken by a directory, so the open fails, or
        # links to /dev/full where the system has it, so the write fails;
        # every writer reports the file, in one fresh interpreter
        tmp_path, out, write = workspace
        cases = [(write(base_config(out)), out, Path.mkdir)]
        if os.path.exists("/dev/full"):
            full = tmp_path / "full"
            config = tmp_path / "full.json"
            config.write_text(json.dumps(base_config(full)))
            cases.append((str(config), full, lambda p: p.symlink_to("/dev/full")))
        blocked = []
        for path, out_dir, block in cases:
            out_dir.mkdir()
            for argv, name in (
                (["probs", path], "probs.json"),
                (["simulate", path, "--trials", "10"], "simulate.csv"),
                (["povm", path, "--construction", "analytic", "--dump"], "povm_analytic_00.txt"),
            ):
                block(out_dir / name)
                blocked.append((argv, out_dir / name))
        proc = run_python(
            "-c",
            "import json, sys; from usdsim import cli; "
            "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))",
            json.dumps([argv for argv, _ in blocked]),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [2] * len(blocked)
        assert "Traceback" not in proc.stderr
        errors = proc.stderr.splitlines()
        assert len(errors) == len(blocked)
        for error, (_, artifact) in zip(errors, blocked):
            assert error.startswith("config error: cannot write") and str(artifact) in error

    def test_default_label_sources(self, workspace):
        _, out, write = workspace
        assert cli.main(["multiplex", write(base_config(out))]) == 0
        record = json.loads((out / "multiplex.json").read_text())
        allowed = {"analytic", "ancilla", "montecarlo", "multiplex"}
        assert all(r["source"] in allowed for r in record["results"])


def assert_jobs_match_golden_hashes(names, variant, tmp_path, monkeypatch):
    """The named jobs of the benchmark's CLI calls reproduce the committed
    artifact bytes of ``variant``; the artifacts embed the numpy and
    scipy versions, so the hashes hold only for the recorded environment."""
    golden = workloads.load_golden()
    differ = version_differences(golden)
    if differ:
        pytest.skip("golden hashes belong to another environment: " + ", ".join(differ))
    expected = workloads.variant_hashes(golden, "cli-calls", variant)
    jobs = {job.name: job for job in workloads.cli_calls(variant)}
    for name in names:
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
        assert workloads.artifact_hashes(job_dir / "out") == expected[name], openblas_note(name, golden)


_SAMPLER_JOBS = (
    "simulate", "multiplex", "sweep-alpha",
    "multiplex-1e7", "sweep-T", "simulate-2e6",  # the large cli-calls jobs
)


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_sampler_artifacts_match_golden_hashes(variant, tmp_path, monkeypatch):
    assert_jobs_match_golden_hashes(_SAMPLER_JOBS, variant, tmp_path, monkeypatch)


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_povm_artifacts_match_golden_hashes(variant, tmp_path, monkeypatch):
    # every other small CLI job: the POVM builds, probabilities and dumps
    names = [job.name for job in workloads.cli_small(variant) if job.name not in _SAMPLER_JOBS]
    assert_jobs_match_golden_hashes(names, variant, tmp_path, monkeypatch)


def test_openblas_runs_the_thread_count_the_environment_names():
    # tests/conftest.py names one thread unless the caller names another; the
    # POVM artifacts' last bits depend on the count, which the hashes cannot see
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS next to numpy's)

    want = min(int(os.environ["OPENBLAS_NUM_THREADS"]), len(os.sched_getaffinity(0)))
    libraries = probe._openblas_libraries()
    assert libraries
    assert [lib.get("threads") for lib in libraries] == [want] * len(libraries), libraries
