"""Print one SHA-256 digest per output format over 17 CLI artifacts.

    PYTHONPATH=src python3 tests/artifact_digest.py

Run from the root of a checkout; a change that keeps every artifact byte
prints the digests of its parent.  The config is the README's with eta 0.8
in both its receiver and multiplex sections and 20000 rounds, its
``output.path`` kept at "out", which enters the run record's config hash;
the files go to a temporary directory named by USDSIM_OUTPUT_DIR instead.
The commands are ``povm --construction both --dump``, ``probs``,
``simulate --trials 20000`` and ``multiplex``, then ``sweep --steps 5 --mc
2000`` over eta 0.1-1, T 0.01-0.2, gamma_mag 1-10 and alpha_separation
0.5-2.  The output directory is emptied before each command, and the digest
reads each command's files sorted by name, command after command.  One
OpenBLAS thread is used unless OPENBLAS_NUM_THREADS names another count, as
the POVM's last bits depend on it.
"""

import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads, below

from usdsim import cli  # noqa: E402

COMMANDS = (
    ["povm", "--construction", "both", "--dump"],
    ["probs"],
    ["simulate", "--trials", "20000"],
    ["multiplex"],
    *(
        ["sweep", "--param", param, "--from", start, "--to", stop, "--steps", "5", "--mc", "2000"]
        for param, start, stop in (
            ("eta", "0.1", "1"),
            ("T", "0.01", "0.2"),
            ("gamma_mag", "1", "10"),
            ("alpha_separation", "0.5", "2"),
        )
    ),
)


def readme_config() -> dict:
    """The README's one JSON config block."""
    (block,) = re.findall(r"```json\n(.*?)```", Path("README.md").read_text(), re.S)
    return json.loads(block)


def digest(fmt: str, work: Path) -> str:
    config = readme_config()
    config["receiver"]["eta"] = config["multiplex"]["eta"] = 0.8
    config["multiplex"]["rounds"] = 20000
    config["output"]["format"] = fmt
    path = work / f"config-{fmt}.json"
    path.write_text(json.dumps(config))
    out = work / "out"
    os.environ[cli.OUTPUT_DIR_ENV] = str(out)
    sha = hashlib.sha256()
    for command, *options in COMMANDS:
        shutil.rmtree(out, ignore_errors=True)
        if cli.main([command, str(path), *options]) != 0:
            sys.exit(f"{command} {' '.join(options)} failed")
        for file in sorted(out.iterdir()):
            sha.update(file.read_bytes())
    return sha.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        for fmt in ("json", "csv"):
            print(fmt, digest(fmt, Path(work)))


if __name__ == "__main__":
    main()
