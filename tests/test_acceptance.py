"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every expected number is evaluated here from its defining expression
or from an independent construction, never pasted as a decimal.
"""

import math
import time

import numpy as np
import pytest

from usdsim import hilbert as h
from usdsim.discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)
from usdsim.montecarlo import RngStream, run_trials, three_sigma_band
from usdsim.multiplex import (
    MultiplexConfig,
    alice_emit,
    balance_imbalance,
    click_probabilities,
    propagate_bob,
    quantum_bound,
    round_inconclusive_probability,
    run_protocol,
)

DIM = 32
N_PAIRS = 20


def acceptance_pairs():
    rng = np.random.default_rng(160594)
    pairs = []
    while len(pairs) < N_PAIRS:
        mags = np.sqrt(rng.uniform(0.0, 1.0, 2)) * 1.5
        phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        a1 = complex(mags[0] * np.exp(1j * phases[0]))
        a2 = complex(mags[1] * np.exp(1j * phases[1]))
        if a1 != a2:
            pairs.append((a1, a2))
    return pairs


@pytest.fixture(scope="module")
def povm_pairs():
    built = []
    for a1, a2 in acceptance_pairs():
        cfg = ReceiverConfig(a1, a2, DIM)
        built.append((cfg, povm_analytic(cfg), povm_ancilla(cfg)))
    return built


def test_criterion_1_povm_cross_oracle(povm_pairs):
    """Analytic and ancilla POVMs agree element-wise on randomized pairs."""
    start = time.time()
    worst_cross = worst_residual = 0.0
    worst_eig = 0.0
    for cfg, analytic, ancilla in povm_pairs:
        cross = max(
            float(np.max(np.abs(analytic.elements[o] - ancilla.elements[o])))
            for o in OUTCOME_ORDER
        )
        worst_cross = max(worst_cross, cross)
        residuals = [p.guards["completeness_residual"] for p in (analytic, ancilla)]
        eigenvalues = [p.guards["min_eigenvalue"] for p in (analytic, ancilla)]
        worst_residual = max(worst_residual, *residuals)
        worst_eig = min(worst_eig, *eigenvalues)
        assert cross <= 1e-8
        assert max(residuals) <= 1e-9
        assert min(eigenvalues) >= -1e-10
    print(
        f"\nACCEPTANCE 1 PASS: {N_PAIRS} pairs, max discrepancy {worst_cross:.2e}, "
        f"max residual {worst_residual:.2e}, min eigenvalue {worst_eig:.2e} "
        f"({time.time() - start:.1f}s)"
    )


def test_criterion_2_closed_form_probabilities():
    """The click statistics of the opposite-unit-amplitude pair."""
    cfg = ReceiverConfig(1.0, -1.0, DIM)
    povm = povm_analytic(cfg)
    no_click = math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)  # = exp(-2)
    worst = 0.0
    for sent in (cfg.alpha1, cfg.alpha2):
        state = h.coherent_state(sent, DIM)
        p00 = np.vdot(state, povm.elements[Outcome.INCONCLUSIVE] @ state).real
        p11 = np.vdot(state, povm.elements[Outcome.ANOMALOUS] @ state).real
        worst = max(worst, abs(p00 - no_click))
        assert p00 == pytest.approx(no_click, abs=1e-8)
        assert abs(p11) <= 1e-9
    s1 = h.coherent_state(cfg.alpha1, DIM)
    s2 = h.coherent_state(cfg.alpha2, DIM)
    assert abs(np.vdot(s2, povm.elements[Outcome.CONCLUSIVE_1] @ s2)) <= 1e-9
    assert abs(np.vdot(s1, povm.elements[Outcome.CONCLUSIVE_2] @ s1)) <= 1e-9
    print(f"\nACCEPTANCE 2 PASS: inconclusive = exp(-2) within {worst:.2e}, zeros below 1e-9")


def test_criterion_3_optimality(povm_pairs):
    """Numeric inconclusive probability equals the truncated-state overlap."""
    worst = 0.0
    for cfg, analytic, _ in povm_pairs:
        probs1 = outcome_probabilities(cfg, cfg.alpha1, analytic)
        probs2 = outcome_probabilities(cfg, cfg.alpha2, analytic)
        bound = abs(np.vdot(h.coherent_state(cfg.alpha1, DIM), h.coherent_state(cfg.alpha2, DIM)))
        for numeric in (probs1[Outcome.INCONCLUSIVE], probs2[Outcome.INCONCLUSIVE]):
            worst = max(worst, abs(numeric - bound))
            assert numeric == pytest.approx(bound, abs=1e-8)
    print(f"\nACCEPTANCE 3 PASS: {N_PAIRS} pairs, worst |numeric - bound| = {worst:.2e}")


def test_criterion_4_monte_carlo_consistency():
    """100k trials per sent state reproduce the closed-form frequencies."""
    start = time.time()
    cfg = ReceiverConfig(0.8, -0.8, DIM)
    n = 100_000
    tallies = run_trials(cfg, n, RngStream(271828))
    no_click = math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)
    expected = {
        1: {
            Outcome.INCONCLUSIVE: no_click,
            Outcome.CONCLUSIVE_1: 1.0 - no_click,
            Outcome.CONCLUSIVE_2: 0.0,
            Outcome.ANOMALOUS: 0.0,
        },
        2: {
            Outcome.INCONCLUSIVE: no_click,
            Outcome.CONCLUSIVE_1: 0.0,
            Outcome.CONCLUSIVE_2: 1.0 - no_click,
            Outcome.ANOMALOUS: 0.0,
        },
    }
    for sent in (1, 2):
        for outcome in OUTCOME_ORDER:
            p = expected[sent][outcome]
            freq = tallies[sent].frequency(outcome)
            if p == 0.0:
                assert tallies[sent].counts[outcome] == 0  # exactly zero, not rare
            else:
                lo, hi = three_sigma_band(p, n)
                assert lo <= freq <= hi
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: all four frequencies in 3-sigma bands, "
          f"zero forbidden events ({elapsed:.1f}s)")


def test_criterion_5_fiber_closed_forms():
    """Balance, detected energy, and the per-round inconclusive probability."""
    start = time.time()
    worst_imbalance = worst_energy = worst_prob = 0.0
    for i, t in enumerate((0.01, 0.05, 0.1, 0.2)):
        for j, gamma in enumerate((5.0, 10.0, 20.0)):
            cfg = MultiplexConfig(
                gamma=gamma,
                splitter_transmission=t,
                eta=1.0,
                rounds=100_000,
            )
            imbalance = balance_imbalance(cfg)
            worst_imbalance = max(worst_imbalance, abs(imbalance))
            assert abs(imbalance) <= 1e-12

            amps = propagate_bob(alice_emit(1, cfg), cfg)
            d1_mean_photons = abs(amps.amp_d1) ** 2
            mean_photons = (1.0 - t) ** 2 * t * t * gamma * gamma / (2.0 - t)
            worst_energy = max(worst_energy, abs(d1_mean_photons - mean_photons))
            assert d1_mean_photons == pytest.approx(mean_photons, abs=1e-12)

            p_inc = math.exp(-cfg.eta * mean_photons)
            analytic = click_probabilities(amps, cfg.eta)[Outcome.INCONCLUSIVE]
            worst_prob = max(worst_prob, abs(analytic - p_inc))
            assert analytic == pytest.approx(p_inc, abs=1e-12)

            empirical = run_protocol(cfg, RngStream(31 * i + j)).inconclusive_rate_empirical
            lo, hi = three_sigma_band(p_inc, cfg.rounds)
            assert lo <= empirical <= hi
    print(
        f"\nACCEPTANCE 5 PASS: grid of 12 configs, imbalance <= {worst_imbalance:.2e}, "
        f"energy error <= {worst_energy:.2e}, probability error <= {worst_prob:.2e}, "
        f"all empirical rates in 3-sigma bands ({time.time() - start:.1f}s)"
    )


def test_criterion_6_quantum_limit_approach():
    """At fixed signal strength the rate ratio falls monotonically toward 1."""
    strength = 0.5  # |gamma| * T
    ratios = []
    for t in (0.1, 0.05, 0.01):
        cfg = MultiplexConfig(gamma=strength / t, splitter_transmission=t, eta=1.0)
        ratios.append(round_inconclusive_probability(cfg) / quantum_bound(cfg))
    assert all(r >= 1.0 - 1e-15 for r in ratios)
    for larger_t, smaller_t in zip(ratios, ratios[1:]):
        assert smaller_t <= larger_t
    assert ratios[-1] == pytest.approx(1.0, abs=2e-3)
    print(
        "\nACCEPTANCE 6 PASS: inconclusive/bound ratio "
        + " -> ".join(f"{r:.6f}" for r in ratios)
    )


def test_criterion_7_protocol_end_to_end():
    """Full key exchange at gamma=10, T=0.05: error-free sifted key."""
    cfg = MultiplexConfig(gamma=10.0, splitter_transmission=0.05, eta=1.0, rounds=100_000)
    report = run_protocol(cfg, RngStream(314159))
    assert report.bit_error_rate == 0.0
    assert report.anomalous_count == 0
    # sifted fraction: 1 - exp(-(1-T)^2 T^2 |gamma|^2 / (2-T))
    t, g2 = 0.05, 100.0
    sift_expected = 1.0 - math.exp(-((1.0 - t) ** 2) * t * t * g2 / (2.0 - t))
    lo, hi = three_sigma_band(sift_expected, cfg.rounds)
    assert lo <= report.sifted_key_rate <= hi
    assert cfg.state_overlap == pytest.approx(math.exp(-0.125), abs=1e-15)
    print(
        f"\nACCEPTANCE 7 PASS: sifted fraction {report.sifted_key_rate:.4f} vs "
        f"{sift_expected:.4f} expected, zero errors, zero double clicks"
    )
