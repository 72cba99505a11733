import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import reference_counts
from usdsim import cli, montecarlo
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

    def test_numpy_integers_are_kept_as_ints(self):
        # the checked ints are stored, so a run record can encode the seed
        stream = RngStream(np.int64(5), np.uint64(2))
        assert (type(stream.seed), type(stream.stream_id)) == (int, int)
        assert stream == RngStream(5, 2)
        assert json.loads(json.dumps(cli.run_metadata("simulate", {}, stream.seed)))["seed"] == 5


class TestSampling:
    def test_degenerate_distributions(self):
        gen = RngStream(0).generator()
        for i, outcome in enumerate(OUTCOME_ORDER):
            dist = [0.0] * 4
            dist[i] = 1.0
            assert draw(dist, gen, 20)[outcome] == 20

    def test_sub_tolerance_mass_is_zeroed(self):
        # also where the sum is off by less than the 1e-9 of
        # outcome_probabilities' normalization guard
        for probs in ([1.0 - 3e-10, 1e-10, 1e-10, 1e-10], [1.0, 5e-10, 0.0, 0.0]):
            np.testing.assert_array_equal(clean_distribution(dict(zip(OUTCOME_ORDER, probs))), [1.0, 0.0, 0.0, 0.0])

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

    def test_trial_count_at_the_draw_cap_is_accepted(self):
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
    def test_n_trials_is_the_sum_of_the_integer_counts(self):
        assert tally(3, 0, 1, 0).n_trials == 4
        assert tally(np.int64(2), 0, 0, 0).counts[Outcome.INCONCLUSIVE] == 2

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
