import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import reference_counts
from usdsim import montecarlo
from usdsim.discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    closed_form_probabilities,
    outcome_probabilities,
    povm_analytic,
)
from usdsim.montecarlo import (
    MAX_DRAWS,
    RngStream,
    TrialTally,
    _tally,
    check_draws,
    clean_distribution,
    run_trials,
    three_sigma_band,
)


def draw(probs, gen, n=1):
    """Outcome counts of n draws from probabilities listed in OUTCOME_ORDER."""
    [counts] = _tally([dict(zip(OUTCOME_ORDER, probs))], gen, n)
    return counts


def tally(*counts):
    """A TrialTally of counts listed in OUTCOME_ORDER."""
    return TrialTally(dict(zip(OUTCOME_ORDER, counts)))


def assert_matches_reference_sampler(cfg, n):
    """run_trials' tallies equal the per-draw reference sampler's counts of
    one unchunked stream: state 1 takes its first n uniforms, state 2 the
    next n."""
    tallies = run_trials(cfg, n, RngStream(41, 3))
    u = RngStream(41, 3).generator().random(2 * n)
    povm = povm_analytic(cfg)
    for value, sent, half in ((1, cfg.alpha1, u[:n]), (2, cfg.alpha2, u[n:])):
        expected = reference_counts(outcome_probabilities(cfg, sent, povm), half)
        assert tallies[value].counts == expected
        assert tallies[value].n_trials == n


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
        for seed in (-1, 2**64, 1.5, True, "0.5", None):
            with pytest.raises(ValueError):
                RngStream(seed)


class TestSampling:
    def test_degenerate_distributions(self):
        gen = RngStream(0).generator()
        for i, outcome in enumerate(OUTCOME_ORDER):
            dist = [0.0] * 4
            dist[i] = 1.0
            assert draw(dist, gen, 20)[outcome] == 20

    def test_invalid_distributions(self):
        gen = RngStream(0).generator()
        with pytest.raises(ValueError):
            draw([0.5, 0.2, 0.0, 0.0], gen)
        with pytest.raises(ValueError):
            draw([0.5, 0.6, -0.1, 0.0], gen)
        with pytest.raises(ValueError):
            draw([float("nan"), 0.5, 0.25, 0.25], gen)

    def test_sub_tolerance_mass_is_zeroed(self):
        probs = clean_distribution(dict(zip(OUTCOME_ORDER, [1.0 - 3e-10, 1e-10, 1e-10, 1e-10])))
        np.testing.assert_array_equal(probs, [1.0, 0.0, 0.0, 0.0])

    def test_sum_is_checked_to_the_normalization_guard_tolerance(self):
        # the 1e-9 of outcome_probabilities' normalization guard; the sum is
        # printed as a Python float
        with pytest.raises(ValueError) as info:
            clean_distribution(dict(zip(OUTCOME_ORDER, [1.000000002, 0.0, 0.0, 0.0])))
        assert str(info.value) == "distribution sums to 1.000000002, expected 1"
        probs = clean_distribution(dict(zip(OUTCOME_ORDER, [1.0, 5e-10, 0.0, 0.0])))
        np.testing.assert_array_equal(probs, [1.0, 0.0, 0.0, 0.0])

    def test_distribution_keys_must_be_exactly_the_four_outcomes(self):
        dist = dict(zip(OUTCOME_ORDER, [0.25, 0.25, 0.25, 0.25]))
        with pytest.raises(ValueError, match="missing CONCLUSIVE_2; unexpected none"):
            clean_distribution({o: p for o, p in dist.items() if o is not Outcome.CONCLUSIVE_2})
        with pytest.raises(ValueError, match="missing none; unexpected 'extra'"):
            clean_distribution(dist | {"extra": 0.0})

    def test_empirical_frequency_within_three_sigma(self):
        # sent alpha1: conclusive probability is 1 - exp(-|a1-a2|^2/2)
        cfg = ReceiverConfig(1.0, -1.0, 32)
        dist = closed_form_probabilities(cfg, cfg.alpha1)
        n = 100_000
        [counts] = _tally([dist], RngStream(2024).generator(), n)
        hits = counts[Outcome.CONCLUSIVE_1]
        p = 1.0 - math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)
        lo, hi = three_sigma_band(p, n)
        assert lo <= hits / n <= hi


class TestRunTrials:
    def test_pure_sequence_has_no_cross_talk(self):
        cfg = ReceiverConfig(1.0, -1.0, 24)
        tallies = run_trials(cfg, 5000, RngStream(5))
        assert tallies[1].n_trials == tallies[2].n_trials == 5000
        assert tallies[1].counts[Outcome.CONCLUSIVE_2] == 0
        assert tallies[2].counts[Outcome.CONCLUSIVE_1] == 0
        assert tallies[1].counts[Outcome.ANOMALOUS] == tallies[2].counts[Outcome.ANOMALOUS] == 0

    def test_trial_count_below_one_rejected(self):
        cfg = ReceiverConfig(1.0, -1.0, 16)
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                run_trials(cfg, trials, RngStream(0))

    def test_non_integer_trial_count_rejected(self):
        cfg = ReceiverConfig(1.0, -1.0, 16)
        for trials in (2.0, True, "3", None):
            with pytest.raises(ValueError, match="trials must be an integer"):
                run_trials(cfg, trials, RngStream(0))

    def test_trial_count_above_the_draw_cap_rejected(self):
        cfg = ReceiverConfig(1.0, -1.0, 16)
        for trials in (MAX_DRAWS + 1, 10**20):
            with pytest.raises(ValueError, match="trials must be <= MAX_DRAWS"):
                run_trials(cfg, trials, RngStream(0))
        assert check_draws(MAX_DRAWS, "trials") == MAX_DRAWS

    def test_mixed_sequence_conclusive_fraction(self):
        cfg = ReceiverConfig(0.8, -0.8, 24)
        n = 50_000
        tallies = run_trials(cfg, n, RngStream(78))
        merged = tallies[1].merge(tallies[2])
        conclusive = (
            merged.counts[Outcome.CONCLUSIVE_1] + merged.counts[Outcome.CONCLUSIVE_2]
        ) / merged.n_trials
        p = 1.0 - math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)
        lo, hi = three_sigma_band(p, merged.n_trials)
        assert lo <= conclusive <= hi
        # conclusive events never contradict the sent state
        assert tallies[1].counts[Outcome.CONCLUSIVE_2] == 0
        assert tallies[2].counts[Outcome.CONCLUSIVE_1] == 0

    def test_reproducibility(self):
        cfg = ReceiverConfig(0.8, -0.8, 24)
        first = run_trials(cfg, 2000, RngStream(31, 7))
        second = run_trials(cfg, 2000, RngStream(31, 7))
        assert first[1].counts == second[1].counts
        assert first[2].counts == second[2].counts

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(ReceiverConfig(0.8, -0.8, 24), id="ideal"),
            pytest.param(ReceiverConfig(1.0 + 0.5j, -0.3, 24, eta=0.6), id="eta-0.6"),
            pytest.param(ReceiverConfig(0.8, -0.8, 24, eta=0.0), id="blind"),
        ],
    )
    def test_matches_reference_sampler(self, cfg):
        assert_matches_reference_sampler(cfg, 3000)

    def test_working_set_is_a_few_cache_sized_chunks(self):
        # a 2**15 chunk of uniforms is 256 KB of float64; the sampler holds
        # one per state in turn and one 32 KB comparison mask, a 1.29-chunk
        # peak with the POVM's arrays, where 2**16 chunks, one buffer per
        # state and a fresh mask per comparison peaked at 1.13 MB
        cfg = ReceiverConfig(0.8, -0.8, 24)
        run_trials(cfg, 1000, RngStream(0))
        tracemalloc.start()
        try:
            run_trials(cfg, 2_000_000, RngStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**15 * 8


    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_chunks_match_reference_sampler(self, chunk, monkeypatch):
        # 3001 trials per state: every chunk size here above 1 leaves a
        # partial last chunk before state 2's uniforms begin
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        assert_matches_reference_sampler(ReceiverConfig(1.0 + 0.5j, -0.3, 24, eta=0.6), 3001)


class TestTrialTally:
    def test_counts_must_sum(self):
        # n_trials is the counts' sum, so a negative count cannot hide in it
        assert tally(3, 0, 1, 0).n_trials == 4
        with pytest.raises(ValueError, match="non-negative"):
            tally(-1, 1, 0, 0)

    def test_counts_must_be_integers(self):
        for count in (2.7, True, "2", None):
            with pytest.raises(ValueError, match="count must be an integer"):
                tally(count, 0, 0, 0)
        assert tally(np.int64(2), 0, 0, 0).counts[Outcome.INCONCLUSIVE] == 2

    def test_keys_must_be_exactly_the_four_outcomes(self):
        message = "tally needs exactly the four outcomes: missing none; unexpected 'bogus'"
        with pytest.raises(ValueError, match=message):
            TrialTally(dict(zip(OUTCOME_ORDER, (1, 0, 0, 0))) | {"bogus": 5})
        with pytest.raises(ValueError, match="missing ANOMALOUS; unexpected none"):
            TrialTally(dict(zip(OUTCOME_ORDER[:3], (1, 0, 0))))

    def test_counts_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="^tally needs a mapping keyed by Outcome, got list$"):
            TrialTally([1, 2, 3, 4])

    def test_merge_is_associative(self):
        x, y, z = tally(1, 2, 3, 4), tally(5, 6, 7, 8), tally(9, 0, 1, 2)
        left = x.merge(y).merge(z)
        right = x.merge(y.merge(z))
        assert left.counts == right.counts
        assert left.n_trials == right.n_trials

    def test_frequency(self):
        t = tally(2, 6, 0, 0)
        assert t.frequency(Outcome.CONCLUSIVE_1) == 0.75
        assert tally(0, 0, 0, 0).frequency(Outcome.CONCLUSIVE_1) == 0.0


class TestGoodnessOfFit:
    def test_chi_square_across_twenty_seeded_runs(self):
        # Pearson's test over the live categories; the forbidden ones stay empty
        cfg = ReceiverConfig(0.8, -0.8, 24)
        probs = clean_distribution(closed_form_probabilities(cfg, cfg.alpha1))
        live = probs > 0.0
        n = 100_000
        for seed in range(20):
            tally = run_trials(cfg, n, RngStream(1000 + seed))[1]
            observed = np.array([tally.counts[o] for o in OUTCOME_ORDER])
            assert not np.any(observed[~live])
            assert stats.chisquare(observed[live], probs[live] * n).pvalue > 1e-3
