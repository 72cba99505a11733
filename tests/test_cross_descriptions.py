"""Property tests: the three descriptions of one receiver agree.

The Fock-space POVM (``povm_analytic`` + ``outcome_probabilities``), the
closed forms (``closed_form_probabilities``) and the fiber-network click model
(``click_probabilities`` on the detector amplitudes (sent - alpha_i)/sqrt(2))
must give the same four-outcome distribution for any pair |alpha_i| <= 2, any
efficiency and any coherent input, within ``oracles.probability_bound``.  The
two POVM constructions, which both carry the efficiency, must agree with each
other element by element within ``oracles.element_bound``.  The
fiber network itself (``propagate_bob`` on the bit Alice sends) must be
the displaced receiver that ``oracles.fiber_receiver`` maps it to, its
closed-form bound and inconclusive rate must be that receiver's, the
quantities ``MultiplexConfig`` derives must be the network's, and the
outcome counts ``run_protocol`` draws must follow that receiver's
distribution.  Examples are derandomized, so every run checks the same cases.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import default_dim, element_bound, fiber_receiver, probability_bound
from scipy import stats

from usdsim.discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    closed_form_probabilities,
    inconclusive_rate,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)
from usdsim.hilbert import coherent_state
from usdsim.montecarlo import RngStream
from usdsim.multiplex import (
    WEAK_SPLITTING_LIMIT,
    DetectorAmplitudes,
    MultiplexConfig,
    alice_emit,
    balance_imbalance,
    click_probabilities,
    propagate_bob,
    quantum_bound,
    round_inconclusive_probability,
    run_protocol,
)

amplitudes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def receiver_cases(draw):
    alpha1 = draw(amplitudes)
    alpha2 = draw(amplitudes.filter(lambda a: a != alpha1))
    # the lossless receiver is drawn explicitly; every eta builds its own POVM
    eta = draw(st.just(1.0) | st.floats(min_value=0.0, max_value=1.0))
    sent = draw(st.sampled_from([alpha1, alpha2]) | amplitudes)
    return alpha1, alpha2, eta, sent


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(receiver_cases())
def test_fock_closed_form_and_fiber_descriptions_agree(case):
    alpha1, alpha2, eta, sent = case
    cfg = ReceiverConfig(alpha1, alpha2, default_dim(alpha1, alpha2, sent), eta)
    closed = closed_form_probabilities(cfg, sent)
    fock = outcome_probabilities(cfg, sent, povm_analytic(cfg))
    amps = DetectorAmplitudes(
        (sent - alpha1) / math.sqrt(2.0), (sent - alpha2) / math.sqrt(2.0)
    )
    fiber = click_probabilities(amps, eta)
    for outcome in OUTCOME_ORDER:
        assert abs(fock[outcome] - closed[outcome]) <= probability_bound(sent, cfg.dim), outcome
        assert abs(fiber[outcome] - closed[outcome]) <= 1e-12, outcome


@st.composite
def construction_cases(draw):
    alpha1 = draw(amplitudes)
    alpha2 = draw(amplitudes.filter(lambda a: a != alpha1))
    eta = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
    return alpha1, alpha2, eta


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(construction_cases())
def test_ancilla_and_analytic_constructions_agree_at_every_efficiency(case):
    alpha1, alpha2, eta = case
    cfg = ReceiverConfig(alpha1, alpha2, default_dim(alpha1, alpha2), eta)
    assert cfg.dim <= 32
    analytic, ancilla = povm_analytic(cfg), povm_ancilla(cfg)
    for outcome in OUTCOME_ORDER:
        gap = np.max(np.abs(analytic.elements[outcome] - ancilla.elements[outcome]))
        assert gap <= element_bound(cfg.dim), outcome
    # the elements themselves, not only the probabilities read from them,
    # describe the receiver at this efficiency
    for sent in (alpha1, alpha2):
        state = coherent_state(sent, cfg.dim)
        closed = closed_form_probabilities(cfg, sent)
        for outcome in OUTCOME_ORDER:
            expectation = np.vdot(state, ancilla.elements[outcome] @ state).real
            assert abs(expectation - closed[outcome]) <= probability_bound(sent, cfg.dim), outcome


@st.composite
def multiplex_configs(draw):
    # T inside the weak-splitting regime (a larger T warns); gamma chosen so
    # the signal T gamma sqrt(c) reaching Bob is nonzero with modulus <= 2,
    # which keeps the mapped receiver's default_dim <= 32
    t = draw(st.floats(min_value=1e-6, max_value=WEAK_SPLITTING_LIMIT))
    c = draw(st.floats(min_value=1e-6, max_value=1.0))
    signal = draw(
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1.99, allow_nan=False, allow_infinity=False
        )
    )
    eta = draw(st.just(1.0) | st.floats(min_value=0.0, max_value=1.0))
    return MultiplexConfig(signal / (t * math.sqrt(c)), t, eta, c)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multiplex_configs())
def test_fiber_network_is_the_displaced_receiver(cfg):
    receiver, sent_by_bit = fiber_receiver(cfg)
    assert 0.0 < abs(sent_by_bit[1]) <= 2.0 and receiver.dim <= 32
    analytic, ancilla = povm_analytic(receiver), povm_ancilla(receiver)
    for bit, sent in enumerate(sent_by_bit):
        fiber = click_probabilities(propagate_bob(bit, cfg), cfg.eta)
        closed = closed_form_probabilities(receiver, sent)
        fock = [outcome_probabilities(receiver, sent, povm) for povm in (analytic, ancilla)]
        for outcome in OUTCOME_ORDER:
            assert abs(fiber[outcome] - closed[outcome]) <= 1e-12, (bit, outcome)
            for probs in fock:
                assert abs(fiber[outcome] - probs[outcome]) <= probability_bound(sent, receiver.dim), (bit, outcome)
    assert abs(quantum_bound(cfg) - inconclusive_rate(*sent_by_bit)) <= 1e-15
    bit1_inconclusive = closed_form_probabilities(receiver, sent_by_bit[1])[Outcome.INCONCLUSIVE]
    assert abs(round_inconclusive_probability(cfg) - bit1_inconclusive) <= 1e-15
    # the derived quantities on MultiplexConfig are the network's own: D1's
    # bit-1 power, the emitted pair's overlap, and a balanced tap
    d1_power = abs(propagate_bob(1, cfg).amp_d1) ** 2
    c = cfg.channel_transmission
    assert abs(cfg.detector_mean_photons * c - d1_power) <= 1e-13 * d1_power
    assert cfg.state_overlap == inconclusive_rate(0, alice_emit(1, cfg))
    lossless = dataclasses.replace(cfg, channel_transmission=1.0)
    assert abs(cfg.state_overlap - quantum_bound(lossless)) <= 1e-15
    assert abs(balance_imbalance(cfg)) <= 1e-13 * d1_power


# a two-sided binomial tail below this is a 5-sigma event
_FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(multiplex_configs(), st.integers(0, 2**64 - 1))
def test_protocol_counts_follow_the_displaced_receiver(cfg, stream_id):
    # each round sends bit 0 or 1 with probability 1/2, so each outcome's
    # count is binomial in the mixture of the mapped receiver's two
    # distributions.  The band is the exact binomial tail at the 5-sigma
    # level: the normal band is far too narrow where n p or n (1 - p) is
    # small (one miss at p = 1 - 8.8e-7, n = 20000, is "7.4 sigma" but has
    # probability 1.7%).  Over 30 examples x 4 outcomes a 5-sigma band
    # fails by chance with probability about 7e-5; 3 sigma would fail on
    # some fixed seed set about 28% of the time.
    cfg = dataclasses.replace(cfg, rounds=20_000)
    receiver, sent_by_bit = fiber_receiver(cfg)
    report = run_protocol(cfg, RngStream(0, stream_id))
    per_bit = [closed_form_probabilities(receiver, sent) for sent in sent_by_bit]
    n = cfg.rounds
    for outcome in OUTCOME_ORDER:
        p = 0.5 * (per_bit[0][outcome] + per_bit[1][outcome])
        count = report.counts[outcome]
        if p == 0.0:
            assert count == 0, outcome
        else:
            tail = min(stats.binom.cdf(count, n, p), stats.binom.sf(count - 1, n, p))
            assert 2.0 * tail >= _FIVE_SIGMA_TAIL, (outcome, count, n * p)
    assert report.anomalous_count == 0
    assert report.bit_error_rate in (0.0, None)
