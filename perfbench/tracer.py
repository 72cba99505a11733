"""Span tracer for the benchmark's traced run.

The tracer wraps usdsim's public functions from the outside, so no library
file changes.  Each call becomes one span ``[name, start, end, parent, op,
attrs]`` kept in memory and written out once, when the process ends.  The
parent is the index of the enclosing span in the same process, and ``op`` is
the benchmark operation the call belongs to.

Only the standard library is used, so the module loads in the benchmark's
driver process as well as in the traced children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import time

LAYERS = ("hilbert", "discrimination", "montecarlo", "multiplex", "cli")

# Public guard methods of discrimination.PovmSet; their spans form
# ``discrimination.validate``.
POVM_GUARDS = ("completeness_residual", "min_eigenvalue", "max_hermiticity_defect")

# Per-layer metric groups: each reports the summed self time of its spans.
SELF_TIME_GROUPS = {
    "cli.load_config": ("cli.load_config",),
    "cli.command": (
        "cli.cmd_povm",
        "cli.cmd_probs",
        "cli.cmd_simulate",
        "cli.cmd_multiplex",
        "cli.cmd_sweep",
    ),
    "cli.write": ("cli.write_record", "cli.write_csv", "cli.write_json", "cli.dump_operator"),
    "hilbert.beam_splitter_unitary": ("hilbert.beam_splitter_unitary",),
    "hilbert.normally_ordered_exponential": ("hilbert.normally_ordered_exponential",),
    "hilbert.coherent_state": ("hilbert.coherent_state",),
    "discrimination.povm_analytic": ("discrimination.povm_analytic",),
    "discrimination.povm_ancilla": ("discrimination.povm_ancilla",),
    "discrimination.validate": tuple(f"discrimination.PovmSet.{m}" for m in POVM_GUARDS),
    "discrimination.outcome_probabilities": ("discrimination.outcome_probabilities",),
    "montecarlo.run_trials": ("montecarlo.run_trials",),
    "multiplex.run_protocol": ("multiplex.run_protocol",),
}

# Groups that also report their call count.
COUNTED_GROUPS = tuple(g for g in SELF_TIME_GROUPS if not g.startswith("cli."))


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_argument(args, kwargs, 0, "path"))}


def _workspace_bytes(args, kwargs, result):
    # dim^2 x dim^2 complex128 unitary: computed from the size, not measured.
    dim = _argument(args, kwargs, 1, "dim")
    return {"workspace_bytes": dim**4 * 16}


def _trials(args, kwargs, result):
    return {"trials": sum(tally.n_trials for tally in result.values())}


def _rounds(args, kwargs, result):
    return {"rounds": result.rounds}


# Attributes recorded on a span, computed from the call's arguments and result.
ATTRIBUTES = {
    "cli.write_json": _file_bytes,
    "cli.write_csv": _file_bytes,
    "cli.dump_operator": _file_bytes,
    "hilbert.beam_splitter_unitary": _workspace_bytes,
    "montecarlo.run_trials": _trials,
    "multiplex.run_protocol": _rounds,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attributes is not None:
                span[5] = attributes(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every public function of the usdsim layers at every binding.

    A function is public when its name has no leading underscore and it is
    defined in the layer module itself.  Every attribute of the package and of
    the layer modules that refers to such a function is replaced, so calls
    through ``from .x import f`` bindings are traced too.
    """
    package = importlib.import_module("usdsim")
    modules = [importlib.import_module(f"usdsim.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    for module in [package, *modules]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])
    povm_set = modules[LAYERS.index("discrimination")].PovmSet
    for method in POVM_GUARDS:
        name = f"discrimination.PovmSet.{method}"
        setattr(povm_set, method, tracer.wrap(name, getattr(povm_set, method)))


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for (_, start, end, _, _, _), covered in zip(spans, children):
        busy = 0.0
        cursor = start
        for lo, hi in sorted(covered):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                busy += hi - lo
                cursor = hi
        result.append(end - start - busy)
    return result


def _ancilla_cache_hits(spans) -> int:
    """``povm_ancilla`` spans under which no beam-splitter unitary was built."""
    misses = set()
    for name, _, _, parent, _, _ in spans:
        if name != "hilbert.beam_splitter_unitary":
            continue
        while parent is not None:
            if spans[parent][0] == "discrimination.povm_ancilla":
                misses.add(parent)
            parent = spans[parent][3]
    calls = sum(1 for span in spans if span[0] == "discrimination.povm_ancilla")
    return calls - len(misses)


def layer_totals(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer sums over the span lists of the processes of one pass."""
    totals = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    totals.update({f"{g}.self_s": 0.0 for g in SELF_TIME_GROUPS})
    totals.update({f"{g}.calls": 0 for g in COUNTED_GROUPS})
    group_of = {name: g for g, names in SELF_TIME_GROUPS.items() for name in names}
    totals.update(
        {
            "cli.write.bytes": 0,
            "hilbert.ancilla_workspace_bytes": 0,
            "montecarlo.trials": 0,
            "montecarlo.run_trials.busy_s": 0.0,
            "multiplex.rounds": 0,
            "multiplex.run_protocol.busy_s": 0.0,
            "discrimination.povm_ancilla.cache_hits": 0,
        }
    )
    for spans in processes:
        totals["discrimination.povm_ancilla.cache_hits"] += _ancilla_cache_hits(spans)
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _, _, attrs = span
            totals[f"{name.split('.')[0]}.self_s"] += own
            group = group_of.get(name)
            if group is not None:
                totals[f"{group}.self_s"] += own
                if group in COUNTED_GROUPS:
                    totals[f"{group}.calls"] += 1
            attrs = attrs or {}
            totals["cli.write.bytes"] += attrs.get("bytes", 0)
            totals["hilbert.ancilla_workspace_bytes"] += attrs.get("workspace_bytes", 0)
            if name == "montecarlo.run_trials":
                totals["montecarlo.trials"] += attrs.get("trials", 0)
                totals["montecarlo.run_trials.busy_s"] += end - start
            elif name == "multiplex.run_protocol":
                totals["multiplex.rounds"] += attrs.get("rounds", 0)
                totals["multiplex.run_protocol.busy_s"] += end - start
    return totals


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")

# Cumulative import time of ``usdsim.cli`` covers the package and every layer
# it pulls in; each other layer's covers what it imported first, such as
# numpy and scipy.linalg for hilbert.
IMPORT_MODULES = {f"{layer}.import_s": f"usdsim.{layer}" for layer in LAYERS}


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative import seconds per layer from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr_text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            cumulative[match.group(3)] = int(match.group(2)) * 1e-6
    return {
        metric: cumulative[module]
        for metric, module in IMPORT_MODULES.items()
        if module in cumulative
    }
