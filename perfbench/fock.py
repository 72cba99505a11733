"""The fock-large library job: POVM builds and their physics checks.

Runs inside one fresh benchmark child process.  INPUTS is a JSON list of
operations generated by the driver from the workload seed; RESULTS receives
one list of error messages per operation (empty when it passed).
"""

import json

import numpy as np
from workloads import CLOSED_FORM_TOL, CROSS_ORACLE_TOL, OPTIMALITY_GAP_TOL

# launch.py imports this module after installing the tracer, so in a traced
# run these names bind the traced wrappers.
from usdsim import (
    OUTCOME_ORDER,
    ReceiverConfig,
    closed_form_probabilities,
    optimality_check,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)


def _config(op):
    return ReceiverConfig(complex(*op["alpha1"]), complex(*op["alpha2"]), op["dim"], op["eta"])


def _closed_form_errors(cfg, povm, tag):
    errors = []
    for sent in (cfg.alpha1, cfg.alpha2):
        numeric = outcome_probabilities(cfg, sent, povm)
        closed = closed_form_probabilities(cfg, sent)
        worst = max(abs(numeric[o] - closed[o]) for o in closed)
        if not worst <= CLOSED_FORM_TOL:
            errors.append(f"{tag} probabilities for {sent} miss the closed form by {worst:.3e}")
    return errors


def cross_check(op) -> list[str]:
    """Analytic against ancilla POVM, and both against the closed forms."""
    cfg = _config(op)
    analytic = povm_analytic(cfg)
    ancilla = povm_ancilla(cfg)
    errors = _closed_form_errors(cfg, analytic, "analytic")
    errors += _closed_form_errors(cfg, ancilla, "ancilla")
    discrepancy = max(
        float(np.max(np.abs(analytic[o].matrix - ancilla[o].matrix))) for o in OUTCOME_ORDER
    )
    if not discrepancy <= CROSS_ORACLE_TOL:
        errors.append(f"cross-construction discrepancy {discrepancy:.3e}")
    return errors


def large_check(op) -> list[str]:
    """Large-dim analytic POVM: closed forms and the optimality gap."""
    cfg = _config(op)
    povm = povm_analytic(cfg)
    errors = _closed_form_errors(cfg, povm, "analytic")
    gap = optimality_check(cfg, povm).gap
    if cfg.eta == 1.0 and not abs(gap) <= OPTIMALITY_GAP_TOL:
        errors.append(f"optimality gap {gap:.3e} at eta 1")
    return errors


CHECKS = {"cross": cross_check, "large": large_check}


def run(inputs_path, results_path, tracer=None) -> int:
    with open(inputs_path) as fh:
        ops = json.load(fh)
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        try:
            errors = CHECKS[op["kind"]](op)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors = [f"{type(exc).__name__}: {exc}"]
        results.append(errors)
    with open(results_path, "w") as fh:
        json.dump(results, fh)
    return 0
