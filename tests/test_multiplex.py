import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_protocol
from usdsim import montecarlo
from usdsim.discrimination import Outcome, inconclusive_rate
from usdsim.montecarlo import MAX_DRAWS, RngStream, three_sigma_band
from usdsim.multiplex import (
    MultiplexConfig,
    alice_emit,
    balance_imbalance,
    click_probabilities,
    inconclusive_bound_ratio,
    propagate_bob,
    quantum_bound,
    round_inconclusive_probability,
    run_protocol,
)


def make_config(gamma=10.0, T=0.05, eta=1.0, channel=1.0, rounds=1000):
    return MultiplexConfig(
        gamma=gamma,
        splitter_transmission=T,
        eta=eta,
        channel_transmission=channel,
        rounds=rounds,
    )


def assert_matches_per_round_reference(cfg, seed):
    """run_protocol's report equals the per-round classification of the same
    stream, exactly."""
    rng = RngStream(seed)
    counts, sifted, errors = reference_protocol(cfg, rng)
    report = run_protocol(cfg, rng)
    assert report.counts == counts
    assert report.sifted_count == sifted
    assert report.bit_error_rate == (errors / sifted if sifted else None)
    assert report.anomalous_count == counts[Outcome.ANOMALOUS]
    assert report.inconclusive_rate_empirical == counts[Outcome.INCONCLUSIVE] / cfg.rounds
    assert report.sifted_key_rate == sifted / cfg.rounds


def network_amplitudes_bruteforce(bit, cfg):
    """Independent amplitude propagation by literal 2x2 splitter products.

    Every splitter uses the matrix [[sqrt(t), sqrt(1-t)], [sqrt(1-t), -sqrt(t)]]
    on (transmitting input, reflecting input); the attenuation in Bob's short
    arm is solved from the destructive-interference condition at D2 instead of
    reusing the library's expression.
    """

    def splitter(t):
        rt, rr = math.sqrt(t), math.sqrt(1.0 - t)
        return np.array([[rt, rr], [rr, -rt]])

    t = cfg.splitter_transmission
    m_t = splitter(t)
    m_tau = splitter(cfg.bob_bs_transmission)

    # Alice: split, shutter on the short path, recombine (different slots)
    short0, long0 = m_t @ np.array([cfg.gamma, 0.0])
    early = (m_t @ np.array([short0 * bit, 0.0]))[0]
    late = (m_t @ np.array([0.0, long0]))[0]

    root_c = math.sqrt(cfg.channel_transmission)
    early *= root_c
    late *= root_c

    # Bob: early signal into the long arm, late reference into the short arm;
    # the tap to D1 is the reflected output (power 1 - tau)
    long_arm = (m_t @ np.array([early, 0.0]))[1]
    to_d1 = (m_tau @ np.array([long_arm, 0.0]))[1]
    residual = (m_tau @ np.array([long_arm, 0.0]))[0]
    short_arm = (m_t @ np.array([late, 0.0]))[0]

    # attenuation solved so the bit-1 signal cancels at D2
    early_ref = t * cfg.gamma * root_c  # bit-1 early amplitude
    long_ref = (m_t @ np.array([early_ref, 0.0]))[1]
    residual_ref = (m_tau @ np.array([long_ref, 0.0]))[0]
    short_ref = (m_t @ np.array([late, 0.0]))[0]
    attenuation = -(m_t @ np.array([0.0, residual_ref]))[0] / (m_t @ np.array([short_ref, 0.0]))[0]

    d2 = (m_t @ np.array([short_arm * attenuation, residual]))[0]
    return to_d1, d2


class TestConfig:
    def test_tau_is_derived(self):
        cfg = make_config(T=0.05)
        assert cfg.bob_bs_transmission == 1.0 / (2.0 - 0.05)

    def test_limit_tap_is_balanced(self):
        # 1/(2-T) rounds to exactly 1/2 at the smallest positive T
        assert make_config(T=5e-324).bob_bs_transmission == 0.5

    def test_weak_splitting_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make_config(T=0.3)
        [warning] = caught
        assert "T=0.3" in str(warning.message)
        assert warning.filename == __file__  # the caller, not the dataclass __init__
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make_config(T=0.2)
        assert not caught


class TestAliceEmit:
    def test_shutter_closed(self):
        assert alice_emit(0, make_config()) == 0.0

    def test_weak_pulse_and_overlap(self):
        cfg = make_config(gamma=10.0, T=0.05)
        signal = alice_emit(1, cfg)
        assert signal == pytest.approx(0.5)
        # overlap of the two emitted states with the vacuum alternative
        overlap = math.exp(-0.5 * abs(signal) ** 2)
        assert overlap == pytest.approx(math.exp(-0.125), abs=1e-15)
        assert cfg.state_overlap == pytest.approx(overlap, abs=1e-15)

    def test_reference_pulse(self):
        assert make_config(gamma=10.0, T=0.05).alice_aux_amp == pytest.approx(9.5)


class TestPropagation:
    def test_bit_one_interferes_destructively_at_d2(self):
        cfg = make_config(gamma=10.0, T=0.05)
        amps = propagate_bob(1, cfg)
        assert amps.amp_d2 == 0.0  # exact cancellation, not approximate
        t = cfg.splitter_transmission
        want = (1.0 - t) ** 2 * t * t * abs(cfg.gamma) ** 2 / (2.0 - t)
        assert abs(amps.amp_d1) ** 2 == pytest.approx(want, abs=1e-12)
        # the algebraic identity behind it
        tau = cfg.bob_bs_transmission
        assert (1.0 - t) * (1.0 - tau) == pytest.approx((1.0 - t) ** 2 / (2.0 - t), abs=1e-15)

    def test_bit_zero_reference_leak_only(self):
        cfg = make_config(gamma=10.0, T=0.05)
        amps = propagate_bob(0, cfg)
        assert amps.amp_d1 == 0.0
        t, tau = cfg.splitter_transmission, cfg.bob_bs_transmission
        want = t * t * abs(cfg.gamma) ** 2 * (1.0 - t) ** 2 * tau
        assert abs(amps.amp_d2) ** 2 == pytest.approx(want, abs=1e-12)

    def test_vanishing_tap(self):
        cfg = make_config(gamma=10.0, T=1e-9)
        for bit in (0, 1):
            amps = propagate_bob(bit, cfg)
            assert abs(amps.amp_d1) < 1e-6 and abs(amps.amp_d2) < 1e-6

    def test_matches_bruteforce_network(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            cfg = make_config(
                gamma=complex(*rng.uniform(-8, 8, 2)),
                T=rng.uniform(0.005, 0.2),
                channel=rng.uniform(0.3, 1.0),
            )
            for bit in (0, 1):
                amps = propagate_bob(bit, cfg)
                d1, d2 = network_amplitudes_bruteforce(bit, cfg)
                assert abs(amps.amp_d1 - d1) <= 1e-12
                assert abs(amps.amp_d2 - d2) <= 1e-12

    def test_channel_scales_both_pulses(self):
        cfg = make_config(gamma=10.0, T=0.05, channel=0.5)
        amps1 = propagate_bob(1, cfg)
        assert amps1.amp_d2 == 0.0  # cancellation survives the loss
        full = propagate_bob(1, make_config(gamma=10.0, T=0.05))
        assert abs(amps1.amp_d1) ** 2 == pytest.approx(0.5 * abs(full.amp_d1) ** 2, abs=1e-12)

    def test_splitter_within_an_ulp_of_one(self):
        # the derived tap transmission 1/(2-T) rounds to exactly 1 here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = make_config(T=0.9999999999999999, rounds=100)
        assert cfg.bob_bs_transmission == 1.0
        assert propagate_bob(1, cfg).amp_d1 == 0.0
        assert run_protocol(cfg, RngStream(0)).rounds == 100


class TestClickProbabilities:
    def test_no_field_no_click(self):
        from usdsim.multiplex import DetectorAmplitudes

        probs = click_probabilities(DetectorAmplitudes(0.0, 0.0), 1.0)
        assert probs[Outcome.INCONCLUSIVE] == 1.0

    def test_closed_form_rate(self):
        cfg = make_config(gamma=10.0, T=0.05, eta=1.0)
        amps = propagate_bob(1, cfg)
        probs = click_probabilities(amps, cfg.eta)
        want = math.exp(-(0.95**2) * 0.25 / 1.95)
        assert probs[Outcome.INCONCLUSIVE] == pytest.approx(want, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-15)

    def test_quantum_limit_approach(self):
        # fixed signal strength |gamma| T: the inconclusive rate approaches
        # the bound exp(-T^2 |gamma|^2 / 2) monotonically as T shrinks
        strength = 0.5
        ratios = []
        for t in (0.1, 0.05, 0.01):
            cfg = make_config(gamma=strength / t, T=t, eta=1.0)
            ratios.append(round_inconclusive_probability(cfg) / quantum_bound(cfg))
        assert all(r >= 1.0 for r in ratios)
        assert ratios[0] >= ratios[1] >= ratios[2]
        assert ratios[2] == pytest.approx(1.0, abs=2e-3)


class TestBalance:
    @pytest.mark.parametrize("T", [0.01, 0.05, 0.1, 0.2])
    @pytest.mark.parametrize("gamma", [5.0, 10.0, 20.0])
    def test_derived_tap_balances_exactly(self, T, gamma):
        cfg = make_config(gamma=gamma, T=T)
        assert abs(balance_imbalance(cfg)) <= 1e-12
        d1_mean_photons = abs(propagate_bob(1, cfg).amp_d1) ** 2
        assert d1_mean_photons == pytest.approx(cfg.detector_mean_photons, abs=1e-12)

    def test_monotone_in_eta_and_gamma(self):
        rates_eta = [
            round_inconclusive_probability(make_config(eta=e)) for e in np.linspace(0.1, 1.0, 10)
        ]
        assert all(a > b for a, b in zip(rates_eta, rates_eta[1:]))
        rates_gamma = [
            round_inconclusive_probability(make_config(gamma=g)) for g in np.linspace(1.0, 20.0, 10)
        ]
        assert all(a > b for a, b in zip(rates_gamma, rates_gamma[1:]))

    def test_consistency_with_receiver_bound(self):
        # the detector-level states of the two bits form an effective pair
        # whose unambiguous-discrimination bound is the round's no-click
        # probability: the fiber network realizes the two-detector receiver
        for T in (0.01, 0.05, 0.1):
            cfg = make_config(gamma=10.0, T=T, eta=1.0)
            amps1 = propagate_bob(1, cfg)
            amps0 = propagate_bob(0, cfg)
            separation = math.hypot(abs(amps1.amp_d1), abs(amps0.amp_d2))
            assert inconclusive_rate(0.0, separation) == pytest.approx(
                round_inconclusive_probability(cfg), abs=1e-10
            )


class TestBoundRatio:
    def test_direct_ratio_while_the_bound_is_positive(self):
        cfg = make_config(gamma=10.0, T=0.05, eta=0.9, channel=0.6)
        direct = round_inconclusive_probability(cfg) / quantum_bound(cfg)
        assert inconclusive_bound_ratio(cfg) == direct

    def test_underflowing_bound(self):
        # the log of the ratio scales with |gamma|^2, so gamma = 1000 (bound
        # exp(-1250) underflows) gives 100 times the log at gamma = 100
        small = make_config(gamma=100.0, T=0.05, eta=0.9)
        big = make_config(gamma=1000.0, T=0.05, eta=0.9)
        assert quantum_bound(big) == 0.0
        expected = 100.0 * math.log(inconclusive_bound_ratio(small))
        assert math.log(inconclusive_bound_ratio(big)) == pytest.approx(expected, rel=1e-10)
        assert inconclusive_bound_ratio(make_config(gamma=1e5, T=0.05, eta=0.0)) == math.inf


class TestProtocol:
    def test_blind_detectors_empty_key(self):
        report = run_protocol(make_config(eta=0.0, rounds=500), RngStream(0))
        assert report.sifted_count == 0
        assert report.inconclusive_rate_empirical == 1.0
        assert report.bit_error_rate is None  # undefined, not a perfect key

    def test_ideal_run_statistics(self):
        cfg = make_config(gamma=10.0, T=0.05, eta=1.0, rounds=100_000)
        report = run_protocol(cfg, RngStream(99))
        assert report.bit_error_rate == 0.0
        assert report.anomalous_count == 0
        p = round_inconclusive_probability(cfg)
        lo, hi = three_sigma_band(p, cfg.rounds)
        assert lo <= report.inconclusive_rate_empirical <= hi
        assert report.sifted_count == (
            report.counts[Outcome.CONCLUSIVE_1] + report.counts[Outcome.CONCLUSIVE_2]
        )
        assert report.sifted_key_rate == pytest.approx(
            1.0 - report.inconclusive_rate_empirical, abs=1e-12
        )

    def test_sifted_bits_match_alice(self):
        report = run_protocol(make_config(rounds=20_000), RngStream(3))
        assert report.sifted_count > 0
        assert report.bit_error_rate == 0.0

    def test_reproducible(self):
        cfg = make_config(rounds=5000)
        assert run_protocol(cfg, RngStream(12)) == run_protocol(cfg, RngStream(12))
        assert run_protocol(cfg, RngStream(12)) != run_protocol(cfg, RngStream(13))

    def test_lossy_channel_still_error_free(self):
        cfg = make_config(gamma=10.0, T=0.05, eta=0.9, channel=0.6, rounds=50_000)
        report = run_protocol(cfg, RngStream(5))
        assert report.bit_error_rate == 0.0
        assert report.anomalous_count == 0
        p = round_inconclusive_probability(cfg)
        lo, hi = three_sigma_band(p, cfg.rounds)
        assert lo <= report.inconclusive_rate_empirical <= hi

    @pytest.mark.parametrize(
        "cfg, seed",
        [
            pytest.param(make_config(T=0.15, rounds=4000), 21, id="ideal"),
            pytest.param(make_config(T=0.15, eta=0.7, channel=0.5, rounds=4000), 22, id="lossy"),
            pytest.param(make_config(eta=0.0, rounds=500), 23, id="blind"),
        ],
    )
    def test_matches_per_round_reference(self, cfg, seed):
        assert_matches_per_round_reference(cfg, seed)

    def test_working_set_is_a_few_cache_sized_chunks(self):
        # a 2**15 chunk of uniforms is 256 KB of float64; the protocol holds
        # it, the chunk's int32 bits (half a chunk) and three 32 KB masks, a
        # 1.89-chunk peak, where 2**16 chunks with int64 bits and a fresh
        # mask per comparison peaked at 1.25 MB
        cfg = make_config(T=0.15, eta=0.9, channel=0.5, rounds=4_000_000)
        run_protocol(make_config(rounds=1000), RngStream(0))
        tracemalloc.start()
        try:
            run_protocol(cfg, RngStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 2**15 * 8

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    @pytest.mark.parametrize("rounds", [1, 2, 3, 5, 7, 8, 4001])
    def test_chunks_match_per_round_reference(self, rounds, chunk, monkeypatch):
        # the bits take (rounds + 1) // 2 Philox outputs; these rounds cover
        # every offset of the first uniform within a block of four outputs
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        assert_matches_per_round_reference(
            make_config(T=0.15, eta=0.7, channel=0.5, rounds=rounds), rounds
        )

    def test_rounds_at_the_draw_cap_are_accepted(self):
        assert make_config(rounds=MAX_DRAWS).rounds == MAX_DRAWS


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    rounds=st.integers(1, 3000),
    chunk=st.integers(1, 97),
    seed=st.integers(0, 2**64 - 1),
)
def test_any_chunking_matches_per_round_reference(rounds, chunk, seed):
    with mock.patch.object(montecarlo, "_CHUNK", chunk):
        assert_matches_per_round_reference(
            make_config(T=0.15, eta=0.7, channel=0.5, rounds=rounds), seed
        )
