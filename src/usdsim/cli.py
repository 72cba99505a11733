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
import hashlib
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy  # for scipy.__version__ only; loads no submodule

from . import __version__
from .discrimination import (
    OUTCOME_ORDER,
    NumericalGuardError,
    Outcome,
    ReceiverConfig,
    closed_form_probabilities,
    inconclusive_rate,
    optimality_check,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)
from .hilbert import _as_real
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

_SECTION_KEYS = {
    "receiver": {"alpha1", "alpha2", "dim", "eta"},
    "multiplex": {"gamma", "T", "eta", "channel_transmission", "rounds"},
    "rng": {"seed"},
    "output": {"format", "path"},
}

# keys a section may leave out; load_config supplies their defaults
_OPTIONAL_KEYS = {"channel_transmission", "format", "path"}


@dataclass(frozen=True)
class Config:
    """A loaded config file: each section present built once, by the library
    constructor it feeds, and the raw JSON that run metadata hashes.

    ``rng`` is seed 0 when the file has no 'rng' section, which the multiplex
    commands allow; ``require('rng')`` still refuses it.

    ``format`` serializes run records: 'json' or flat 'csv' rows; inherently
    tabular artifacts (the simulate table, sweep grids) are CSV regardless.
    """

    raw: dict
    receiver: ReceiverConfig | None
    multiplex: MultiplexConfig | None
    rng: RngStream
    format: str
    path: str

    def require(self, section: str):
        """The built section, or a config error naming the missing section."""
        if section not in self.raw:
            raise ConfigError(f"config is missing the '{section}' section")
        return getattr(self, section)


@contextmanager
def _config_errors(section: str):
    """Report a value the library rejects as a config error in ``section``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _draw_option(value: int, option: str) -> int:
    """A --trials, --mc or --steps count, checked by the library before any
    config is read or output written."""
    try:
        return check_draws(value, option)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _amplitude(value, key: str) -> complex:
    """Decode a JSON [re, im] pair."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{key} must be a [re, im] pair, got {value!r}")
    re, im = value
    return complex(_as_real(re, f"{key} real part"), _as_real(im, f"{key} imaginary part"))


def load_config(path: str | Path) -> Config:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:  # a missing file, a directory, an unreadable file
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, keys in _SECTION_KEYS.items():
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(f"config section '{section}' must be an object")
            extra = set(raw[section]) - keys
            if extra:
                raise ConfigError(f"unknown keys in '{section}': {sorted(extra)}")
            missing = sorted(keys - _OPTIONAL_KEYS - set(raw[section]))
            if missing:
                raise ConfigError(f"missing key '{missing[0]}' in '{section}'")

    with _config_errors("rng"):
        rng = RngStream(raw["rng"]["seed"] if "rng" in raw else 0)
    receiver = multiplex = None
    if "receiver" in raw:
        sec = raw["receiver"]
        with _config_errors("receiver"):
            receiver = ReceiverConfig(
                alpha1=_amplitude(sec["alpha1"], "alpha1"),
                alpha2=_amplitude(sec["alpha2"], "alpha2"),
                dim=sec["dim"],
                eta=sec["eta"],
            )
    if "multiplex" in raw:
        sec = raw["multiplex"]
        with _config_errors("multiplex"):
            multiplex = MultiplexConfig(
                gamma=_amplitude(sec["gamma"], "gamma"),
                splitter_transmission=sec["T"],
                eta=sec["eta"],
                channel_transmission=sec.get("channel_transmission", 1.0),
                rounds=sec["rounds"],
            )
    output = raw.get("output", {})
    fmt = output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"output format must be 'json' or 'csv', got {fmt!r}")
    out = output.get("path", "out")
    if not isinstance(out, str):
        raise ConfigError(f"output path must be a string, got {out!r}")
    return Config(raw, receiver, multiplex, rng, fmt, out)


def output_dir(config: Config) -> Path:
    path = Path(os.environ.get(OUTPUT_DIR_ENV) or config.path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# deterministic writers

def _fmt(x: float) -> str:
    """17 significant digits, locale independent, float64 round-trip exact."""
    return format(float(x), ".17g")


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_metadata(command: str, raw: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "config_hash": config_hash(raw),
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
        "versions": {
            "usdsim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


@contextmanager
def _create(path: Path, newline: str | None = None):
    """``path`` opened for writing text; a file the system refuses to open,
    write or close is a config error that names it."""
    try:
        with path.open("w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _complex_pair(value) -> list[float]:
    """JSON encoding of a complex result value: its [re, im] pair."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, default=_complex_pair) + "\n")


def write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write ``header``, then each row as ``rows`` yields it; if producing a
    row fails, the partial file is removed before the error propagates."""
    with _create(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        try:
            writer.writerows(rows)
        except OSError:
            raise
        except BaseException:
            fh.close()
            path.unlink()
            raise


def _flat_value(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if value is None:
        return ""
    if isinstance(value, complex):
        return f"{_fmt(value.real)} {_fmt(value.imag)}"
    return str(value)


def write_record(base: Path, record: dict, fmt: str) -> None:
    """Write a run record as JSON or as flat name,value,source CSV rows."""
    if fmt == "json":
        write_json(base.with_suffix(".json"), record)
        return
    rows = []
    for key, value in sorted(record["metadata"].items()):
        if isinstance(value, dict):
            for sub, sub_value in sorted(value.items()):
                rows.append([f"metadata.{key}.{sub}", _flat_value(sub_value), ""])
        else:
            rows.append([f"metadata.{key}", _flat_value(value), ""])
    for entry in record.get("results", []):
        rows.append([entry["name"], _flat_value(entry["value"]), entry["source"]])
    for row in record.get("table", []):
        stem = f"{row['sent']}.{row['outcome']}"
        rows.append([f"{stem}.numeric", _fmt(row["numeric"]), row["source"]])
        rows.append([f"{stem}.closed_form", _fmt(row["closed_form"]), row["source"]])
    for label, count in record.get("counts", {}).items():
        rows.append([f"counts.{label}", str(count), "multiplex"])
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

def cmd_povm(args) -> int:
    config = load_config(args.config)
    cfg = config.require("receiver")
    out = output_dir(config)
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
            float(np.max(np.abs(built["analytic"][o].matrix - built["ancilla"][o].matrix)))
            for o in OUTCOME_ORDER
        )
        results.append(result("cross_construction_max_discrepancy", discrepancy, "ancilla"))
    if args.dump:
        for tag, povm in built.items():
            for outcome in OUTCOME_ORDER:
                path = out / f"povm_{tag}_{outcome.label}.txt"
                dump_operator(path, povm[outcome].matrix)
    write_record(
        out / "povm",
        {"metadata": run_metadata("povm", config.raw, None), "results": results},
        config.format,
    )
    return 0


def cmd_probs(args) -> int:
    config = load_config(args.config)
    cfg = config.require("receiver")
    out = output_dir(config)
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
    write_record(
        out / "probs",
        {"metadata": run_metadata("probs", config.raw, None), "results": results, "table": table},
        config.format,
    )
    return 0


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


def cmd_simulate(args) -> int:
    n = _draw_option(args.trials, "--trials")
    config = load_config(args.config)
    cfg = config.require("receiver")
    rng = config.require("rng")
    out = output_dir(config)
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
            rows.append(
                [
                    sent_name,
                    label,
                    str(n),
                    str(count),
                    _fmt(freq),
                    _fmt(expected),
                    _fmt(lo),
                    _fmt(hi),
                    str(lo <= freq <= hi).lower(),
                    "montecarlo",
                ]
            )
    write_csv(out / "simulate.csv", _SIMULATE_HEADER, rows)
    write_record(
        out / "simulate_run",
        {
            "metadata": run_metadata("simulate", config.raw, rng.seed),
            "results": [result("trials_per_state", n, "montecarlo")],
        },
        config.format,
    )
    return 0


def cmd_multiplex(args) -> int:
    config = load_config(args.config)
    cfg = config.require("multiplex")
    out = output_dir(config)
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
    write_record(
        out / "multiplex",
        {
            "metadata": run_metadata("multiplex", config.raw, config.rng.seed),
            "results": results,
            "counts": counts,
        },
        config.format,
    )
    return 0


_SWEEP_FIELDS = {"eta": "eta", "T": "splitter_transmission", "gamma_mag": "gamma"}


def _grid_point(start: float, stop: float, steps: int, i: int) -> float:
    """Point i of np.linspace(start, stop, steps), by linspace's own formula,
    so no grid is ever built whole."""
    if i == steps - 1:
        return stop
    step = (stop - start) / (steps - 1)
    if step == 0.0:  # linspace's order for a subnormal step
        return i / (steps - 1) * (stop - start) + start
    return i * step + start


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    steps = _draw_option(args.steps, "--steps")
    if not (args.sweep_from < args.sweep_to and math.isfinite(args.sweep_to - args.sweep_from)):
        raise ConfigError(
            f"--from must be smaller than --to, both finite, got {args.sweep_from}, {args.sweep_to}"
        )
    mc = None if args.mc is None else _draw_option(args.mc, "--mc")
    config = load_config(args.config)
    separation = args.param == "alpha_separation"
    if separation:
        base = config.require("receiver")
        if mc is not None:
            config.require("rng")
    else:
        base = config.require("multiplex")
        rounds = {} if mc is None else {"rounds": mc}
        phase = base.gamma / abs(base.gamma) if abs(base.gamma) else 1.0
    out = output_dir(config)
    header = [args.param, "analytic_inconclusive", "analytic_quantum_bound"]
    if not separation:
        header.append("analytic_ratio")
    if mc is not None:
        header += ["mc_inconclusive", "mc_conclusive"]

    def grid_row(i: int) -> list[str]:
        value = _grid_point(args.sweep_from, args.sweep_to, steps, i)
        rejected = _config_errors(f"sweep value {value!r} for {args.param}")
        if separation:
            a1, a2 = -value / 2.0, value / 2.0
            with rejected:
                rate = inconclusive_rate(a1, a2)
                cfg = replace(base, alpha1=a1, alpha2=a2) if mc is not None else base
            row = [_fmt(value), _fmt(rate**base.eta), _fmt(rate)]
            if mc is not None:
                tallies = run_trials(cfg, mc, RngStream(config.rng.seed, i))
                merged = tallies[1].merge(tallies[2])
                inconclusive = merged.frequency(Outcome.INCONCLUSIVE)
                row += [_fmt(inconclusive), _fmt(1.0 - inconclusive - merged.frequency(Outcome.ANOMALOUS))]
        else:
            point = float(value) * phase if args.param == "gamma_mag" else float(value)
            with rejected, warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = replace(base, **rounds, **{_SWEEP_FIELDS[args.param]: point})
            row = [
                _fmt(value),
                _fmt(round_inconclusive_probability(cfg)),
                _fmt(quantum_bound(cfg)),
                _fmt(inconclusive_bound_ratio(cfg)),
            ]
            if mc is not None:
                report = run_protocol(cfg, RngStream(config.rng.seed, i))
                row += [_fmt(report.inconclusive_rate_empirical), _fmt(report.sifted_key_rate)]
        return row

    write_csv(out / "sweep.csv", header, map(grid_row, range(steps)))
    return 0


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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
