import math

import numpy as np
import pytest
from scipy import stats

from usdsim.discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    closed_form_probabilities,
    povm_analytic,
)
from usdsim.montecarlo import (
    RngStream,
    TrialTally,
    _draw_indices,
    clean_distribution,
    run_trials,
    three_sigma_band,
)


def draw(dist, gen, n=1):
    """Indices into OUTCOME_ORDER of n draws from one distribution."""
    return _draw_indices({0: dist}, np.zeros(n, dtype=int), gen.random(n))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 4).generator().random(100)
        b = RngStream(123, 4).generator().random(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(100)
        b = RngStream(123, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        with pytest.raises(ValueError):
            RngStream(1.5)
        with pytest.raises(ValueError):
            RngStream(True)


class TestSampling:
    def test_degenerate_distributions(self):
        gen = RngStream(0).generator()
        for i in range(len(OUTCOME_ORDER)):
            dist = [0.0] * 4
            dist[i] = 1.0
            assert np.all(draw(dist, gen, 20) == i)

    def test_invalid_distributions(self):
        gen = RngStream(0).generator()
        with pytest.raises(ValueError):
            draw([0.5, 0.2, 0.0, 0.0], gen)
        with pytest.raises(ValueError):
            draw([0.5, 0.6, -0.1, 0.0], gen)
        with pytest.raises(ValueError):
            draw([1.0, 0.0], gen)
        with pytest.raises(ValueError):
            draw([float("nan"), 0.5, 0.25, 0.25], gen)

    def test_sub_tolerance_mass_is_zeroed(self):
        probs = clean_distribution([1.0 - 3e-10, 1e-10, 1e-10, 1e-10])
        np.testing.assert_array_equal(probs, [1.0, 0.0, 0.0, 0.0])

    def test_empirical_frequency_within_three_sigma(self):
        # sent alpha1: conclusive probability is 1 - exp(-|a1-a2|^2/2)
        cfg = ReceiverConfig(1.0, -1.0, 32)
        dist = closed_form_probabilities(cfg, cfg.alpha1)
        gen = RngStream(2024).generator()
        n = 100_000
        idx = draw(dist, gen, n)
        hits = int(np.count_nonzero(idx == OUTCOME_ORDER.index(Outcome.CONCLUSIVE_1)))
        p = 1.0 - math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)
        lo, hi = three_sigma_band(p, n)
        assert lo <= hits / n <= hi


class TestRunTrials:
    def test_pure_sequence_has_no_cross_talk(self):
        cfg = ReceiverConfig(1.0, -1.0, 24)
        tallies = run_trials(cfg, [1] * 5000, RngStream(5))
        tally = tallies[1]
        assert tally.n_trials == 5000
        assert tally.counts[Outcome.CONCLUSIVE_2] == 0
        assert tally.counts[Outcome.ANOMALOUS] == 0
        assert tallies[2].n_trials == 0

    def test_empty_sequence_rejected(self):
        cfg = ReceiverConfig(1.0, -1.0, 16)
        with pytest.raises(ValueError):
            run_trials(cfg, [], RngStream(0))

    def test_bad_sequence_entries_rejected(self):
        cfg = ReceiverConfig(1.0, -1.0, 16)
        with pytest.raises(ValueError):
            run_trials(cfg, [1, 2, 3], RngStream(0))

    def test_mixed_sequence_conclusive_fraction(self):
        cfg = ReceiverConfig(0.8, -0.8, 24)
        n = 100_000
        sequence = RngStream(77).generator().integers(1, 3, size=n)
        tallies = run_trials(cfg, sequence, RngStream(78))
        merged = tallies[1].merge(tallies[2])
        conclusive = (
            merged.counts[Outcome.CONCLUSIVE_1] + merged.counts[Outcome.CONCLUSIVE_2]
        ) / n
        p = 1.0 - math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)
        lo, hi = three_sigma_band(p, n)
        assert lo <= conclusive <= hi
        # conclusive events never contradict the sent state
        assert tallies[1].counts[Outcome.CONCLUSIVE_2] == 0
        assert tallies[2].counts[Outcome.CONCLUSIVE_1] == 0

    def test_reproducibility(self):
        cfg = ReceiverConfig(0.8, -0.8, 24)
        seq = [1, 2] * 2000
        first = run_trials(cfg, seq, RngStream(31, 7))
        second = run_trials(cfg, seq, RngStream(31, 7))
        assert first[1].counts == second[1].counts
        assert first[2].counts == second[2].counts

    def test_accepts_prebuilt_povm(self):
        cfg = ReceiverConfig(0.5, -0.5, 24)
        povm = povm_analytic(cfg)
        tallies = run_trials(cfg, [1, 2, 1], RngStream(1), povm=povm)
        assert tallies[1].n_trials == 2


class TestTrialTally:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            TrialTally({Outcome.INCONCLUSIVE: 3}, 5)
        with pytest.raises(ValueError):
            TrialTally({Outcome.INCONCLUSIVE: -1}, -1)

    def test_merge_is_associative(self):
        def tally(a, b, c, d):
            counts = dict(zip(OUTCOME_ORDER, (a, b, c, d)))
            return TrialTally(counts, a + b + c + d)

        x, y, z = tally(1, 2, 3, 4), tally(5, 6, 7, 8), tally(9, 0, 1, 2)
        left = x.merge(y).merge(z)
        right = x.merge(y.merge(z))
        assert left.counts == right.counts
        assert left.n_trials == right.n_trials

    def test_frequency(self):
        t = TrialTally(dict(zip(OUTCOME_ORDER, (2, 6, 0, 0))), 8)
        assert t.frequency(Outcome.CONCLUSIVE_1) == 0.75


class TestGoodnessOfFit:
    def test_chi_square_across_twenty_seeded_runs(self):
        # Pearson's test over the live categories; the forbidden ones stay empty
        cfg = ReceiverConfig(0.8, -0.8, 24)
        probs = clean_distribution(closed_form_probabilities(cfg, cfg.alpha1))
        live = probs > 0.0
        n = 100_000
        for seed in range(20):
            tally = run_trials(cfg, [1] * n, RngStream(1000 + seed))[1]
            observed = np.array([tally.counts[o] for o in OUTCOME_ORDER])
            assert not np.any(observed[~live])
            assert stats.chisquare(observed[live], probs[live] * n).pvalue > 1e-3
