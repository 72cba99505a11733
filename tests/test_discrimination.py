import math

import numpy as np
import pytest

from usdsim import discrimination
from usdsim import hilbert as h
from usdsim.discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    ancilla_projections,
    closed_form_probabilities,
    inconclusive_rate,
    optimality_check,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)
from usdsim.hilbert import NumericalGuardError


def random_pairs(n, rng, max_mag=1.5):
    pairs = []
    while len(pairs) < n:
        r = np.sqrt(rng.uniform(0.0, 1.0, 2)) * max_mag
        ph = rng.uniform(0.0, 2.0 * math.pi, 2)
        a1 = r[0] * np.exp(1j * ph[0])
        a2 = r[1] * np.exp(1j * ph[1])
        if a1 != a2:
            pairs.append((complex(a1), complex(a2)))
    return pairs


def cross_discrepancy(povm_a, povm_b):
    return max(
        float(np.max(np.abs(povm_a[o].matrix - povm_b[o].matrix))) for o in OUTCOME_ORDER
    )


class TestReceiverConfig:
    def test_identical_states_rejected(self):
        with pytest.raises(ValueError):
            ReceiverConfig(0.5, 0.5, 16)

    def test_betas_are_derived(self):
        cfg = ReceiverConfig(1.0 + 1.0j, -0.4, 16)
        assert cfg.beta1 == (1.0 + 1.0j) / math.sqrt(2.0)
        assert cfg.beta2 == -0.4 / math.sqrt(2.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ReceiverConfig(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            ReceiverConfig(1.0, -1.0, 16, eta=1.5)
        for junk in ("0.5", None, True):
            with pytest.raises(ValueError):
                ReceiverConfig(1.0, -1.0, 16, eta=junk)
            with pytest.raises(ValueError):
                ReceiverConfig(junk, -1.0, 16)
            with pytest.raises(ValueError):
                ReceiverConfig(1.0, -1.0, junk)
        with pytest.raises(ValueError):
            ReceiverConfig(float("inf"), -1.0, 16)
        with pytest.raises(ValueError):
            ReceiverConfig(1e200, -1.0, 16)  # |alpha|^2 overflows

    def test_outcome_classification(self):
        assert Outcome.classify(0, 1) is Outcome.CONCLUSIVE_1
        assert Outcome.classify(1, 0) is Outcome.CONCLUSIVE_2
        assert Outcome.classify(0, 0) is Outcome.INCONCLUSIVE
        assert Outcome.classify(1, 1) is Outcome.ANOMALOUS


class TestAnalyticPovm:
    def test_opposite_unit_amplitudes(self):
        # the no-click probability for both inputs is exp(-|a1-a2|^2/2)
        cfg = ReceiverConfig(1.0, -1.0, 32)
        povm = povm_analytic(cfg)
        target = math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)
        for sent in (cfg.alpha1, cfg.alpha2):
            state, _ = h.coherent_state(sent, cfg.dim)
            p00 = h.expectation(povm[Outcome.INCONCLUSIVE], state).real
            assert p00 == pytest.approx(target, abs=1e-8)

    def test_wrong_conclusive_never_fires(self):
        cfg = ReceiverConfig(1.0, -1.0, 32)
        povm = povm_analytic(cfg)
        s1, _ = h.coherent_state(cfg.alpha1, cfg.dim)
        s2, _ = h.coherent_state(cfg.alpha2, cfg.dim)
        assert abs(h.expectation(povm[Outcome.CONCLUSIVE_1], s2)) <= 1e-9
        assert abs(h.expectation(povm[Outcome.CONCLUSIVE_2], s1)) <= 1e-9
        assert abs(h.expectation(povm[Outcome.ANOMALOUS], s1)) <= 1e-9
        assert abs(h.expectation(povm[Outcome.ANOMALOUS], s2)) <= 1e-9

    def test_truncation_adequacy_guard(self):
        with pytest.raises(NumericalGuardError):
            povm_analytic(ReceiverConfig(3.5, -3.5, 16))

    def test_inconclusive_element_is_scaled_coherent_projector(self):
        # :Q1 Q2: = exp(-|a1-a2|^2/4) |mu><mu| with mu the midpoint
        a1, a2 = 1.0 + 0.3j, -0.8 + 0.1j
        cfg = ReceiverConfig(a1, a2, 32)
        povm = povm_analytic(cfg)
        mu = 0.5 * (a1 + a2)
        state, _ = h.coherent_state(mu, 32)
        oracle = math.exp(-0.25 * abs(a1 - a2) ** 2) * np.outer(
            state.amplitudes, state.amplitudes.conj()
        )
        assert np.max(np.abs(povm[Outcome.INCONCLUSIVE].matrix - oracle)) <= 1e-12


class TestAncillaPovm:
    def test_two_mode_projections_are_complete(self):
        cfg = ReceiverConfig(0.7, -0.4 + 0.2j, 16)
        total = sum(p.matrix for p in ancilla_projections(cfg).values())
        assert np.max(np.abs(total - np.eye(16 * 16))) <= 1e-12

    def test_cross_oracle_agreement(self):
        cfg = ReceiverConfig(0.8, -0.8, 32)
        assert cross_discrepancy(povm_analytic(cfg), povm_ancilla(cfg)) <= 1e-8

    def test_cross_oracle_probabilities(self):
        cfg = ReceiverConfig(0.0, 0.5, 32)
        pa = povm_analytic(cfg)
        pb = povm_ancilla(cfg)
        for sent in (cfg.alpha1, cfg.alpha2):
            probs_a = outcome_probabilities(cfg, sent, pa)
            probs_b = outcome_probabilities(cfg, sent, pb)
            for outcome in OUTCOME_ORDER:
                assert probs_a[outcome] == pytest.approx(probs_b[outcome], abs=1e-8)

    def test_reduction_matches_literal_conjugation_path(self):
        # full path: conjugate each two-mode projection by the beam splitter,
        # then take the vacuum expectation over the unused port
        cfg = ReceiverConfig(0.9, -0.6 + 0.4j, 16)
        u = h.beam_splitter_unitary(0.5, cfg.dim)
        analytic = povm_analytic(cfg)
        fused = povm_ancilla(cfg)
        for outcome, proj in ancilla_projections(cfg).items():
            conjugated = u.dag() @ proj @ u
            reduced = h.vacuum_expectation(conjugated, 2)
            assert np.max(np.abs(reduced.matrix - fused[outcome].matrix)) <= 1e-12
            assert np.max(np.abs(reduced.matrix - analytic[outcome].matrix)) <= 1e-8

    def test_workspace_guard(self):
        cfg = ReceiverConfig(0.5, -0.5, 66)
        with pytest.raises(NumericalGuardError):
            povm_ancilla(cfg)

    def test_isometry_guard(self, monkeypatch):
        def leaky_columns(t, dim):
            return h.beam_splitter_vacuum_columns(t, dim) * (1 + 1e-6)

        monkeypatch.setattr(discrimination, "beam_splitter_vacuum_columns", leaky_columns)
        with pytest.raises(NumericalGuardError, match="isometry guard"):
            povm_ancilla(ReceiverConfig(0.5, -0.5, 16))

    def test_norm_guard_small_dim(self):
        cfg = ReceiverConfig(2.5, -2.5, 8)
        with pytest.raises(NumericalGuardError):
            povm_ancilla(cfg)


class TestPovmInvariants:
    def test_randomized_positivity_completeness(self):
        # at least 50 randomized draws across the two constructions
        rng = np.random.default_rng(42)
        for i, (a1, a2) in enumerate(random_pairs(50, rng)):
            cfg = ReceiverConfig(a1, a2, 24)
            povm = povm_ancilla(cfg) if i % 5 == 0 else povm_analytic(cfg)
            assert povm.completeness_residual() <= 1e-9
            assert povm.min_eigenvalue() >= -1e-10
            assert povm.max_hermiticity_defect() <= 1e-9

    def test_zero_error_and_never_both_click(self):
        rng = np.random.default_rng(43)
        for a1, a2 in random_pairs(10, rng):
            for eta in (1.0, 0.6):
                cfg = ReceiverConfig(a1, a2, 32, eta=eta)
                povm = povm_analytic(cfg)
                p1 = outcome_probabilities(cfg, a1, povm)
                p2 = outcome_probabilities(cfg, a2, povm)
                assert p1[Outcome.CONCLUSIVE_2] <= 1e-9
                assert p2[Outcome.CONCLUSIVE_1] <= 1e-9
                assert p1[Outcome.ANOMALOUS] <= 1e-9
                assert p2[Outcome.ANOMALOUS] <= 1e-9

    def test_swap_symmetry(self):
        a1, a2 = 0.9 + 0.2j, -0.5 - 0.7j
        povm = povm_analytic(ReceiverConfig(a1, a2, 28))
        swapped = povm_analytic(ReceiverConfig(a2, a1, 28))
        pairs = [
            (Outcome.INCONCLUSIVE, Outcome.INCONCLUSIVE),
            (Outcome.CONCLUSIVE_1, Outcome.CONCLUSIVE_2),
            (Outcome.CONCLUSIVE_2, Outcome.CONCLUSIVE_1),
            (Outcome.ANOMALOUS, Outcome.ANOMALOUS),
        ]
        for orig, mirror in pairs:
            assert np.max(np.abs(povm[orig].matrix - swapped[mirror].matrix)) <= 1e-9

    def test_discrepancy_never_grows_with_dim(self):
        # both constructions reproduce the untruncated matrix elements, so the
        # discrepancy sits at the floating-point floor for every dim; growing
        # the basis must never push it above that floor
        a1, a2 = 1.2, -1.0 + 0.4j
        discs = []
        for dim in (16, 24, 32, 48):
            cfg = ReceiverConfig(a1, a2, dim)
            discs.append(cross_discrepancy(povm_analytic(cfg), povm_ancilla(cfg)))
        for smaller, larger in zip(discs, discs[1:]):
            assert larger <= smaller + 1e-14
        assert max(discs) <= 1e-12


class TestOutcomeProbabilities:
    def test_distribution_sums_to_one(self):
        cfg = ReceiverConfig(0.8, -0.3 + 0.5j, 32)
        povm = povm_analytic(cfg)
        probs = outcome_probabilities(cfg, cfg.alpha1, povm)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in probs.values())

    def test_blind_detectors(self):
        cfg = ReceiverConfig(0.8, -0.8, 32, eta=0.0)
        probs = outcome_probabilities(cfg, cfg.alpha1, povm_analytic(cfg))
        assert probs[Outcome.INCONCLUSIVE] == 1.0
        assert all(probs[o] == 0.0 for o in OUTCOME_ORDER if o is not Outcome.INCONCLUSIVE)

    def test_matches_closed_form_at_reduced_efficiency(self):
        cfg = ReceiverConfig(1.0, -1.0, 32, eta=0.7)
        povm = povm_analytic(cfg)
        for sent in (cfg.alpha1, cfg.alpha2, 0.3 + 0.1j):
            numeric = outcome_probabilities(cfg, sent, povm)
            closed = closed_form_probabilities(cfg, sent)
            for outcome in OUTCOME_ORDER:
                assert numeric[outcome] == pytest.approx(closed[outcome], abs=1e-9)

    def test_eta_one_returns_expectations(self):
        cfg = ReceiverConfig(1.0, -1.0, 32)
        povm = povm_analytic(cfg)
        probs = outcome_probabilities(cfg, cfg.alpha1, povm)
        closed = closed_form_probabilities(cfg, cfg.alpha1)
        assert probs[Outcome.CONCLUSIVE_1] == pytest.approx(
            closed[Outcome.CONCLUSIVE_1], abs=1e-10
        )

    def test_dimension_mismatch_rejected(self):
        povm = povm_analytic(ReceiverConfig(1.0, -1.0, 32))
        other = ReceiverConfig(1.0, -1.0, 24)
        with pytest.raises(ValueError):
            outcome_probabilities(other, 1.0, povm)


class TestInconclusiveRate:
    def test_identical_states(self):
        assert inconclusive_rate(0.7j, 0.7j) == 1.0

    def test_opposite_unit_amplitudes(self):
        assert inconclusive_rate(1.0, -1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_equals_truncated_overlap_modulus(self):
        a1, a2 = 0.9j, 0.1
        s1, _ = h.coherent_state(a1, 48)
        s2, _ = h.coherent_state(a2, 48)
        assert inconclusive_rate(a1, a2) == pytest.approx(abs(h.overlap(s1, s2)), abs=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            inconclusive_rate(float("nan"), 0.0)
        with pytest.raises(ValueError):
            inconclusive_rate(1e200, 0.0)
        with pytest.raises(ValueError):
            closed_form_probabilities(ReceiverConfig(1.0, -1.0, 16), float("nan"))

    def test_overflowing_separation_reaches_its_limit(self):
        # each |alpha|^2 = 1e308 fits a float, |alpha1 - alpha2|^2 = 4e308 does not
        assert inconclusive_rate(1e154, -1e154) == 0.0
        for eta, expected in ((1.0, [0.0, 1.0, 0.0, 0.0]), (0.0, [1.0, 0.0, 0.0, 0.0])):
            cfg = ReceiverConfig(1e154, -1e154, 32, eta)
            closed = closed_form_probabilities(cfg, 1e154)
            assert [closed[o] for o in OUTCOME_ORDER] == expected


class TestOptimality:
    def test_ideal_receiver_attains_bound(self):
        cfg = ReceiverConfig(0.6, -0.6, 32)
        report = optimality_check(cfg, povm_analytic(cfg))
        assert abs(report.gap) <= 1e-8

    def test_inefficiency_exceeds_bound(self):
        cfg = ReceiverConfig(0.6, -0.6, 32, eta=0.5)
        report = optimality_check(cfg, povm_analytic(cfg))
        assert report.gap > 1e-3

    def test_near_degenerate_pair(self):
        cfg = ReceiverConfig(0.6, 0.6 + 1e-3, 32)
        report = optimality_check(cfg, povm_analytic(cfg))
        assert report.quantum_bound == pytest.approx(1.0, abs=1e-5)
        assert abs(report.gap) <= 1e-8
