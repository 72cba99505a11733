"""Optimal unambiguous discrimination of two coherent states, as a simulator.

The package builds the displaced two-detector receiver whose inconclusive
probability saturates the quantum bound |<alpha1|alpha2>|, verifies it two
independent ways, samples its click statistics, and runs the time-multiplexed
fiber key-distribution protocol built on it.
"""

__version__ = "0.1.0"

from .discrimination import (
    OUTCOME_ORDER,
    Outcome,
    OptimalityReport,
    PovmSet,
    ReceiverConfig,
    closed_form_probabilities,
    inconclusive_rate,
    optimality_check,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)
from .hilbert import (
    NumericalGuardError,
    coherent_state,
    normally_ordered_exponential,
    normally_ordered_gaussian,
)
from .montecarlo import RngStream, TrialTally, run_trials
from .multiplex import (
    DetectorAmplitudes,
    KeyReport,
    MultiplexConfig,
    alice_emit,
    balance_imbalance,
    click_probabilities,
    propagate_bob,
    quantum_bound,
    round_inconclusive_probability,
    run_protocol,
)
