"""The environment the benchmark's golden artifact hashes belong to.

The benchmark's job definitions, committed artifact hashes and environment
probe are loaded from perfbench/ by path, read only.  The helpers here say
how the running environment differs from the recorded one, so a test that
pins exact bytes can tell a kernel or version difference from a defect.
"""

import importlib.util
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy


def _perfbench_module(name):
    """perfbench/<name>.py, loaded by path as ``perfbench_<name>``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _perfbench_module("workloads")
probe = _perfbench_module("probe")


def version_differences(golden) -> list[str]:
    """The Python, numpy and scipy versions here that differ from those the
    golden hashes were made with; the artifacts embed the numpy and scipy
    versions."""
    versions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    return [
        f"{name} {version} (hashes made with {golden['environment'][name]})"
        for name, version in versions.items()
        if golden["environment"][name] != version
    ]


def openblas_differences(golden) -> list[str]:
    """Each loaded OpenBLAS build whose kernel configuration or thread count
    differs from the recorded build of the same library: the last bits of a
    matrix product depend on both, which the version gate cannot see."""
    recorded = {lib["library"]: lib for lib in golden["environment"]["openblas"]}
    differ = []
    for lib in probe._openblas_libraries():
        want = recorded.get(lib["library"], {})
        if (lib.get("config"), lib.get("threads")) != (want.get("config"), want.get("threads")):
            differ.append(f"{lib['library']}: {lib.get('config')}, {lib.get('threads')} threads")
    return differ


def require_recorded_environment(what: str) -> None:
    """Skip the calling test unless the versions, OpenBLAS kernels and thread
    counts here are those the golden hashes were made with: ``what``, a
    bit-for-bit comparison, may hold only there.  The reason names each
    difference, so ``-rs`` shows which exact checks did not run and why."""
    golden = workloads.load_golden()
    differ = version_differences(golden) + openblas_differences(golden)
    if differ:
        pytest.skip(f"exact check of {what} runs only in the recorded environment; here " + "; ".join(differ))


def openblas_note(name, golden):
    """Which OpenBLAS builds ran here and which made the golden hashes: the
    POVM artifacts depend on the kernel, which the version gate cannot see."""
    runner = [lib.get("config") for lib in probe._openblas_libraries()]
    recorded = [lib.get("config") for lib in golden["environment"]["openblas"]]
    return f"{name}: runner OpenBLAS {runner}; golden hashes made with {recorded}"
