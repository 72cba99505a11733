"""The names the ``usdsim`` package exports."""

import types

import usdsim


def test_public_names_are_pinned():
    # a name added to or removed from the package is a deliberate change,
    # made here too
    public = {
        name
        for name, value in vars(usdsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {
        "DetectorAmplitudes",
        "KeyReport",
        "MultiplexConfig",
        "NumericalGuardError",
        "OUTCOME_ORDER",
        "OptimalityReport",
        "Outcome",
        "PovmSet",
        "ReceiverConfig",
        "RngStream",
        "TrialTally",
        "alice_emit",
        "balance_imbalance",
        "click_probabilities",
        "closed_form_probabilities",
        "coherent_state",
        "inconclusive_rate",
        "normally_ordered_exponential",
        "normally_ordered_gaussian",
        "optimality_check",
        "outcome_probabilities",
        "povm_analytic",
        "povm_ancilla",
        "propagate_bob",
        "quantum_bound",
        "round_inconclusive_probability",
        "run_protocol",
        "run_trials",
    }
