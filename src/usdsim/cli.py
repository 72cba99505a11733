"""Command-line front end with machine-readable, byte-deterministic outputs.

Subcommands: povm, probs, simulate, multiplex, sweep.  All read a strict JSON
config file (unknown keys rejected, every value validated at load by the
library constructor it feeds) and write their artifacts into the configured
output directory; the environment variable USDSIM_OUTPUT_DIR overrides that
directory.

Exit codes: 0 success, 2 config or usage error, 3 numerical guard failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util  # scipy's version is read from its version file, not imported
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    closed_form_probabilities,
    inconclusive_rate,
    optimality_check,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)
from .hilbert import NumericalGuardError, _as_real
from .montecarlo import RNG_ALGORITHM, RngStream, check_draws, run_trials, three_sigma_band
from .multiplex import (
    MultiplexConfig,
    alice_emit,
    balance_imbalance,
    inconclusive_bound_ratio,
    quantum_bound,
    round_inconclusive_probability,
    run_protocol,
)

OUTPUT_DIR_ENV = "USDSIM_OUTPUT_DIR"

SWEEP_PARAMS = ("eta", "T", "gamma_mag", "alpha_separation")


class ConfigError(Exception):
    """Invalid configuration file or values."""


# ---------------------------------------------------------------------------
# config loading (JSON layout checked here, values by the library constructors)

# the config file's layout: each section's library constructor, which checks
# its values (named, and looked up here when a config loads), and each JSON
# key's keyword there; load_config checks 'output' itself
_SECTIONS = {
    "receiver": ("ReceiverConfig", {"alpha1": "alpha1", "alpha2": "alpha2", "dim": "dim", "eta": "eta"}),
    "multiplex": ("MultiplexConfig", {"gamma": "gamma", "T": "splitter_transmission", "eta": "eta",
                                      "channel_transmission": "channel_transmission", "rounds": "rounds"}),
    "rng": ("RngStream", {"seed": "seed"}),
    "output": (None, {"format": "format", "path": "path"}),
}

# keys a section may leave out, for the default of load_config or MultiplexConfig
_OPTIONAL_KEYS = {"channel_transmission", "format", "path"}


@dataclass(frozen=True)
class Config:
    """A loaded config file: each section present built once, by the library
    constructor it feeds, and the raw JSON that run metadata hashes.

    ``rng`` is seed 0 when the file has no 'rng' section, for every command.

    ``format`` serializes run records: 'json' or flat 'csv' rows; inherently
    tabular artifacts (the simulate table, sweep grids) are CSV regardless.
    """

    raw: dict
    receiver: ReceiverConfig | None
    multiplex: MultiplexConfig | None
    rng: RngStream
    format: str
    path: str


@contextmanager
def _config_errors(section: str | None = None):
    """Report a value the library rejects as a config error in ``section``,
    or with the library's bare message where there is no section (a
    --trials, --mc or --steps count)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}" if section else str(exc)) from exc


def _amplitude(value, key: str) -> complex:
    """Decode a JSON [re, im] pair."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{key} must be a [re, im] pair, got {value!r}")
    re, im = value
    return complex(_as_real(re, f"{key} real part"), _as_real(im, f"{key} imaginary part"))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice is a
    config error, where ``json`` would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> Config:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:  # a missing file, a directory, an unreadable file
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL byte in the path
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(data.decode(), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, (_, keys) in _SECTIONS.items():
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(f"config section '{section}' must be an object")
            extra = set(raw[section]) - set(keys)
            if extra:
                raise ConfigError(f"unknown keys in '{section}': {sorted(extra)}")
            missing = sorted(set(keys) - _OPTIONAL_KEYS - set(raw[section]))
            if missing:
                raise ConfigError(f"missing key '{missing[0]}' in '{section}'")

    built = {}
    for section, (constructor, keys) in _SECTIONS.items():
        if constructor and section in raw:
            sec = raw[section]
            with _config_errors(section):
                values = {word: _amplitude(sec[key], key) if key in ("alpha1", "alpha2", "gamma") else sec[key]
                          for key, word in keys.items() if key in sec}
                built[section] = globals()[constructor](**values)
    output = raw.get("output", {})
    fmt = output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"output format must be 'json' or 'csv', got {fmt!r}")
    out = output.get("path", "out")
    if not isinstance(out, str):
        raise ConfigError(f"output path must be a string, got {out!r}")
    return Config(raw, built.get("receiver"), built.get("multiplex"), built.get("rng") or RngStream(0), fmt, out)


def open_run(path: str | Path, section: str) -> tuple[Config, Path]:
    """A command's prologue: the config at ``path``, a config error if it
    lacks ``section``, the one the command reads, then the output directory,
    created (USDSIM_OUTPUT_DIR, else the config's output path)."""
    config = load_config(path)
    if section not in config.raw:
        raise ConfigError(f"config is missing the '{section}' section")
    out = Path(os.environ.get(OUTPUT_DIR_ENV) or config.path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return config, out


# ---------------------------------------------------------------------------
# deterministic writers

def _fmt(x: float) -> str:
    """17 significant digits, locale independent, float64 round-trip exact."""
    return format(float(x), ".17g")


def config_hash(raw: dict) -> str:
    # hashlib loads OpenSSL's _hashlib, 2.4 to 3.4 MB of peak RSS, so SHA-256
    # comes from CPython's built-in module (_sha2 on 3.12+, _sha256 before),
    # the one hashlib falls back to without OpenSSL, as the stdlib's random
    # does for SHA-512; plain hashlib serves builds that have neither.
    for module in ("_sha2", "_sha256", "hashlib"):
        try:
            sha256 = importlib.import_module(module).sha256
            break
        except ImportError:
            continue
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def run_metadata(command: str, raw: dict, seed: int | None) -> dict:
    # scipy.__version__ is set in scipy/version.py, a file of string literals
    # that imports nothing, so running it alone skips scipy's __init__ and its
    # extensions. Without scipy (numpy is the one runtime need), or if that
    # file is missing, raises or sets no string version, the record is None.
    scipy_dirs = getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", None)
    scipy_version = None
    if scipy_dirs and (path := Path(scipy_dirs[0]) / "version.py").is_file():
        spec = importlib.util.spec_from_file_location("scipy_version", path)
        module = importlib.util.module_from_spec(spec)
        with suppress(Exception):
            spec.loader.exec_module(module)
            scipy_version = module.version if isinstance(module.version, str) else None
    return {
        "command": command,
        "config_hash": config_hash(raw),
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
        "versions": {
            "usdsim": __version__,
            "numpy": np.__version__,
            "scipy": scipy_version,
        },
    }


@contextmanager
def _create(path: Path, newline: str | None = None):
    """``path`` opened for writing text; a file the system refuses to open,
    write or close is a config error that names it, and a file that fails
    once open (its content, a write, the close) is removed first."""
    opened = False
    try:
        with path.open("w", newline=newline) as fh:
            opened = True
            yield fh
    except BaseException as exc:
        if opened:
            with suppress(OSError):  # a failed removal must not hide the error
                path.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _complex_pair(value) -> list[float]:
    """JSON encoding of a complex result value: its [re, im] pair."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, default=_complex_pair) + "\n")


def write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """Write ``header``, then each row as ``rows`` yields it, each cell as
    ``_flat_value`` formats it."""
    with _create(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_flat_value, row) for row in rows)


def _flat_value(value) -> str:
    """One CSV cell: a float as ``_fmt`` writes it, a complex as its 're im'
    pair, null as an empty cell, a truth value as JSON spells it."""
    if isinstance(value, float):
        return _fmt(value)
    if value is None:
        return ""
    if isinstance(value, complex):
        return f"{_fmt(value.real)} {_fmt(value.imag)}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def write_record(base: Path, config: Config, command: str, seed: int | None, **body) -> None:
    """Write the run record of ``command``, its metadata then ``body`` (its
    results, table or counts), as JSON or as flat name,value,source CSV rows,
    in the config's format."""
    metadata = run_metadata(command, config.raw, seed)
    if config.format == "json":
        write_json(base.with_suffix(".json"), {"metadata": metadata, **body})
        return
    rows = []
    for key, value in sorted(metadata.items()):
        if isinstance(value, dict):
            rows += [[f"metadata.{key}.{sub}", item, ""] for sub, item in sorted(value.items())]
        else:
            rows.append([f"metadata.{key}", value, ""])
    rows += [[entry["name"], entry["value"], entry["source"]] for entry in body.get("results", [])]
    for row in body.get("table", []):
        stem = f"{row['sent']}.{row['outcome']}"
        rows += [[f"{stem}.{column}", row[column], row["source"]] for column in ("numeric", "closed_form")]
    rows += [[f"counts.{label}", count, "multiplex"] for label, count in body.get("counts", {}).items()]
    write_csv(base.with_suffix(".csv"), ["name", "value", "source"], rows)


def dump_operator(path: Path, matrix: np.ndarray) -> None:
    """Dense matrix text dump: 'dim m modes 1' then row-major 're im' pairs,
    each number as ``_fmt`` writes it."""
    dim = len(matrix)
    pairs = np.stack((matrix.real, matrix.imag), axis=-1).reshape(dim, 2 * dim)
    with _create(path) as fh:
        np.savetxt(fh, pairs, fmt="%.17g", header=f"dim {dim} modes 1", comments="")


def result(name: str, value, source: str) -> dict:
    return {"name": name, "value": value, "source": source}


# ---------------------------------------------------------------------------
# commands

def cmd_povm(args) -> None:
    config, out = open_run(args.config, "receiver")
    cfg = config.receiver
    constructions = (
        ("analytic", "ancilla") if args.construction == "both" else (args.construction,)
    )
    built = {}
    results = []
    for tag in constructions:
        povm = povm_analytic(cfg) if tag == "analytic" else povm_ancilla(cfg)
        built[tag] = povm
        results += [result(name, value, tag) for name, value in povm.guards.items()]
    if len(built) == 2:
        discrepancy = max(
            float(np.max(np.abs(built["analytic"].elements[o] - built["ancilla"].elements[o])))
            for o in OUTCOME_ORDER
        )
        results.append(result("cross_construction_max_discrepancy", discrepancy, "ancilla"))
    if args.dump:
        for tag, povm in built.items():
            for outcome in OUTCOME_ORDER:
                path = out / f"povm_{tag}_{outcome.label}.txt"
                dump_operator(path, povm.elements[outcome])
    write_record(out / "povm", config, "povm", None, results=results)


def cmd_probs(args) -> None:
    config, out = open_run(args.config, "receiver")
    cfg = config.receiver
    povm = povm_analytic(cfg)
    table = []
    for sent_name, sent in (("alpha1", cfg.alpha1), ("alpha2", cfg.alpha2)):
        numeric = outcome_probabilities(cfg, sent, povm)
        closed = closed_form_probabilities(cfg, sent)
        for outcome in OUTCOME_ORDER:
            table.append(
                {
                    "sent": sent_name,
                    "outcome": outcome.label,
                    "numeric": numeric[outcome],
                    "closed_form": closed[outcome],
                    "source": "analytic",
                }
            )
    report = optimality_check(cfg, povm)
    results = [
        result("numeric_inconclusive", report.numeric_inconclusive, "analytic"),
        result("quantum_bound", report.quantum_bound, "analytic"),
        result("optimality_gap", report.gap, "analytic"),
    ]
    write_record(out / "probs", config, "probs", None, results=results, table=table)


_SIMULATE_HEADER = [
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


def cmd_simulate(args) -> None:
    with _config_errors():
        n = check_draws(args.trials, "--trials")
    config, out = open_run(args.config, "receiver")
    cfg, rng = config.receiver, config.rng
    tallies = run_trials(cfg, n, rng)
    rows = []
    for sent_value, sent_name, sent in ((1, "alpha1", cfg.alpha1), (2, "alpha2", cfg.alpha2)):
        tally = tallies[sent_value]
        closed = closed_form_probabilities(cfg, sent)
        conclusive_freq = tally.frequency(Outcome.CONCLUSIVE_1) + tally.frequency(
            Outcome.CONCLUSIVE_2
        )
        conclusive_expected = closed[Outcome.CONCLUSIVE_1] + closed[Outcome.CONCLUSIVE_2]
        entries = [(o.label, tally.counts[o], tally.frequency(o), closed[o]) for o in OUTCOME_ORDER]
        entries.append(
            (
                "conclusive",
                tally.counts[Outcome.CONCLUSIVE_1] + tally.counts[Outcome.CONCLUSIVE_2],
                conclusive_freq,
                conclusive_expected,
            )
        )
        for label, count, freq, expected in entries:
            lo, hi = three_sigma_band(expected, n)
            rows.append([sent_name, label, n, count, freq, expected, lo, hi, lo <= freq <= hi, "montecarlo"])
    write_csv(out / "simulate.csv", _SIMULATE_HEADER, rows)
    results = [result("trials_per_state", n, "montecarlo")]
    write_record(out / "simulate_run", config, "simulate", rng.seed, results=results)


def cmd_multiplex(args) -> None:
    config, out = open_run(args.config, "multiplex")
    cfg = config.multiplex
    report = run_protocol(cfg, config.rng)
    results = [
        result("alice_signal_amp", alice_emit(1, cfg), "multiplex"),
        result("alice_aux_amp", cfg.alice_aux_amp, "multiplex"),
        result("tau", cfg.bob_bs_transmission, "multiplex"),
        result("detector_mean_photons", cfg.detector_mean_photons, "multiplex"),
        result("state_overlap", cfg.state_overlap, "multiplex"),
        result("balance_imbalance", balance_imbalance(cfg), "multiplex"),
        result("round_inconclusive_probability", round_inconclusive_probability(cfg), "multiplex"),
        result("quantum_bound", quantum_bound(cfg), "multiplex"),
        result("rounds", report.rounds, "multiplex"),
        result("sifted_key_rate", report.sifted_key_rate, "multiplex"),
        result("bit_error_rate", report.bit_error_rate, "multiplex"),
        result("inconclusive_rate_empirical", report.inconclusive_rate_empirical, "multiplex"),
        result("anomalous_count", report.anomalous_count, "multiplex"),
        result("sifted_bits", report.sifted_count, "multiplex"),
    ]
    counts = {o.label: report.counts[o] for o in OUTCOME_ORDER}
    write_record(out / "multiplex", config, "multiplex", config.rng.seed, results=results, counts=counts)


def _grid_point(start: float, stop: float, steps: int, i: int) -> float:
    """Point i of np.linspace(start, stop, steps), by linspace's own formula,
    so no grid is ever built whole."""
    if i == steps - 1:
        return stop
    step = (stop - start) / (steps - 1)
    if step == 0.0:  # linspace's order for a subnormal step
        return i / (steps - 1) * (stop - start) + start
    return i * step + start


def cmd_sweep(args) -> None:
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    with _config_errors():
        steps = check_draws(args.steps, "--steps")
    if not (args.sweep_from < args.sweep_to and math.isfinite(args.sweep_to - args.sweep_from)):
        raise ConfigError(
            f"--from must be smaller than --to, both finite, got {args.sweep_from}, {args.sweep_to}"
        )
    with _config_errors():
        mc = None if args.mc is None else check_draws(args.mc, "--mc")
    separation = args.param == "alpha_separation"
    section = "receiver" if separation else "multiplex"
    config, out = open_run(args.config, section)
    base = getattr(config, section)
    if not separation:
        rounds = {} if mc is None else {"rounds": mc}
        field = _SECTIONS[section][1]["gamma" if args.param == "gamma_mag" else args.param]
        phase = base.gamma / abs(base.gamma) if abs(base.gamma) else 1.0
    header = [args.param, "analytic_inconclusive", "analytic_quantum_bound"]
    if not separation:
        header.append("analytic_ratio")
    if mc is not None:
        header += ["mc_inconclusive", "mc_conclusive"]

    def grid_row(i: int) -> list[float]:
        value = _grid_point(args.sweep_from, args.sweep_to, steps, i)
        rejected = _config_errors(f"sweep value {value!r} for {args.param}")
        if separation:
            a1, a2 = -value / 2.0, value / 2.0
            with rejected:
                rate = inconclusive_rate(a1, a2)
                cfg = replace(base, alpha1=a1, alpha2=a2) if mc is not None else base
            row = [value, rate**base.eta, rate]
            if mc is not None:
                tallies = run_trials(cfg, mc, RngStream(config.rng.seed, i))
                merged = tallies[1].merge(tallies[2])
                inconclusive = merged.frequency(Outcome.INCONCLUSIVE)
                row += [inconclusive, 1.0 - inconclusive - merged.frequency(Outcome.ANOMALOUS)]
        else:
            point = float(value) * phase if args.param == "gamma_mag" else float(value)
            with rejected, warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = replace(base, **rounds, **{field: point})
            row = [value, round_inconclusive_probability(cfg), quantum_bound(cfg), inconclusive_bound_ratio(cfg)]
            if mc is not None:
                report = run_protocol(cfg, RngStream(config.rng.seed, i))
                row += [report.inconclusive_rate_empirical, report.sifted_key_rate]
        return row

    write_csv(out / "sweep.csv", header, map(grid_row, range(steps)))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usdsim",
        description="Unambiguous two-coherent-state receiver and key-distribution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("povm", help="build the receiver POVM and report diagnostics")
    p.add_argument("config")
    p.add_argument(
        "--construction",
        choices=("analytic", "ancilla", "both"),
        default="both",
    )
    p.add_argument("--dump", action="store_true", help="dump POVM matrices as text")
    p.set_defaults(func=cmd_povm)

    p = sub.add_parser("probs", help="tabulate outcome probabilities and the optimality gap")
    p.add_argument("config")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("simulate", help="Monte Carlo outcome tallies with 3-sigma bands")
    p.add_argument("config")
    p.add_argument("--trials", type=int, default=100_000, help="trials per sent state")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("multiplex", help="run the fiber key-distribution protocol")
    p.add_argument("config")
    p.set_defaults(func=cmd_multiplex)

    p = sub.add_parser("sweep", help="grid sweep of one parameter to CSV")
    p.add_argument("config")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--from", dest="sweep_from", type=float, required=True)
    p.add_argument("--to", dest="sweep_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mc", type=int, default=None, help="add Monte Carlo columns with this many rounds")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors already print to stderr
        return int(exc.code or 0)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
