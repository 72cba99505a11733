"""Print the environment a benchmark result belongs to, as one JSON line.

Runs as a benchmark child, with the children's environment, after importing
``usdsim.cli`` so that numpy's and scipy's OpenBLAS builds are both loaded.
The JSON artifacts embed the numpy and scipy versions, so the golden hashes
hold only for the versions recorded here.
"""

import ctypes
import json
import os
import platform

import numpy
import scipy

import usdsim
import usdsim.cli  # noqa: F401  (loads scipy.linalg and with it scipy's OpenBLAS)


def _openblas_libraries() -> list[dict]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if os.path.isfile(p)):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                    info["threads"] = threads()
        found.append(info)
    return found


def main() -> None:
    print(
        json.dumps(
            {
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "usdsim": usdsim.__version__,
                "usdsim_file": usdsim.__file__,
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "openblas": _openblas_libraries(),
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
