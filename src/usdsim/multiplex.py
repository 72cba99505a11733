"""Time-multiplexed key distribution over a single fiber.

Alice encodes each bit in a weak early pulse (bit 1: amplitude T*gamma after
two passes through her unbalanced splitters; bit 0: shutter closed, vacuum)
followed by a strong late reference pulse of amplitude (1-T)*gamma.  Bob's
unequal-path interferometer overlaps the early pulse routed through his long
arm with the late pulse routed through his short arm; inside that coincidence
window the network reduces to the displaced two-detector receiver:

  * D1 taps the long arm before recombination and sees only the signal, so a
    D1 click identifies bit 1;
  * D2 sits behind the recombining splitter where the attenuated reference
    cancels the bit-1 signal exactly, so a D2 click identifies bit 0.

Path convention (fixed; every splitter reflection is real, no phases):
signal transmits twice at Alice (amplitude T*gamma), reflects once into
Bob's long arm (sqrt(1-T)), is tapped to D1 with power 1-tau, and meets the
reference at the last splitter with another sqrt(1-T); the reference reflects
twice at Alice and is attenuated in Bob's short arm by the fixed ratio
-sqrt(tau) that enforces the destructive interference.  Balancing the two
click rates requires tau = 1/(2-T).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .discrimination import OUTCOME_ORDER, Outcome, _joint_outcomes
from .hilbert import _as_amplitude, _as_real, check_efficiency
from .montecarlo import RngStream, _tally_rounds, check_draws

#: Alice's states become hard to tell from a plain attenuator beyond this.
WEAK_SPLITTING_LIMIT = 0.2

_EXP_OVERFLOW = math.log(sys.float_info.max)


@dataclass(frozen=True)
class MultiplexConfig:
    """Protocol parameters for the fiber scheme.

    ``splitter_transmission`` is the shared power transmission T of every
    unbalanced splitter; the regime of interest is T << 1 and a warning is
    emitted above WEAK_SPLITTING_LIMIT.  Bob's tap transmission is derived,
    never set independently.
    """

    gamma: complex
    splitter_transmission: float
    eta: float
    channel_transmission: float = 1.0
    rounds: int = 100_000

    def __post_init__(self):
        g = _as_amplitude(self.gamma)
        t = _as_real(self.splitter_transmission, "splitter transmission")
        if not 0.0 < t < 1.0:
            raise ValueError(f"splitter transmission must lie in (0, 1), got {t}")
        eta = check_efficiency(self.eta, "detector efficiency")
        c = _as_real(self.channel_transmission, "channel transmission")
        if not 0.0 < c <= 1.0:
            raise ValueError(f"channel transmission must lie in (0, 1], got {c}")
        rounds = check_draws(self.rounds, "rounds")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "splitter_transmission", t)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "channel_transmission", c)
        object.__setattr__(self, "rounds", rounds)
        if t > WEAK_SPLITTING_LIMIT:
            warnings.warn(
                f"splitter transmission T={t} exceeds {WEAK_SPLITTING_LIMIT}; "
                "the scheme is designed for T << 1",
                UserWarning,
                stacklevel=3,  # past the dataclass-generated __init__ to its caller
            )

    @property
    def bob_bs_transmission(self) -> float:
        """Power transmission tau = 1/(2-T) of Bob's tap splitter, which
        balances the two conclusive click rates."""
        return 1.0 / (2.0 - self.splitter_transmission)

    @property
    def alice_aux_amp(self) -> complex:
        """Alice's late reference pulse (1-T)*gamma, the same for both bits."""
        return (1.0 - self.splitter_transmission) * self.gamma

    @property
    def detector_mean_photons(self) -> float:
        """Mean photon number (1-T)^2 T^2 |gamma|^2 / (2-T) at the one detector
        that can click (D1 for bit 1, D2 for bit 0), at unit channel
        transmission."""
        t = self.splitter_transmission
        return (1.0 - t) ** 2 * t * t * abs(self.gamma) ** 2 / (2.0 - t)

    @property
    def state_overlap(self) -> float:
        """|<vacuum|signal>| = exp(-T^2 |gamma|^2 / 2) of Alice's two
        early-slot states."""
        return math.exp(-0.5 * abs(self.splitter_transmission * self.gamma) ** 2)


def alice_emit(bit: int, cfg: MultiplexConfig) -> complex:
    """Alice's early-slot signal amplitude for one bit: 0 (shutter closed,
    vacuum) for bit 0, the weak pulse T*gamma for bit 1.  The late reference
    pulse is the same for both bits: ``MultiplexConfig.alice_aux_amp``."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return bit * cfg.splitter_transmission * cfg.gamma


@dataclass(frozen=True)
class DetectorAmplitudes:
    """Coherent amplitudes at the two detectors inside the coincidence window."""

    amp_d1: complex
    amp_d2: complex


def propagate_bob(signal_amplitude: complex, cfg: MultiplexConfig) -> DetectorAmplitudes:
    """Exact in-window detector amplitudes for one emitted round, given
    Alice's early-slot signal amplitude (``alice_emit``).

    Signal and reference ride the same fiber, so channel loss scales both by
    sqrt(channel_transmission) and the fixed attenuation ratio in Bob's short
    arm keeps the destructive interference at D2 exact: for bit 1 the signal
    contribution and the reference leak are the same floating-point product,
    so amp_d2 is exactly zero.
    """
    t = cfg.splitter_transmission
    tau = cfg.bob_bs_transmission
    root_c = math.sqrt(cfg.channel_transmission)
    signal = signal_amplitude * root_c
    bit1_signal = t * cfg.gamma * root_c  # what the signal would be for bit 1
    leak = bit1_signal * (1.0 - t) * math.sqrt(tau)
    return DetectorAmplitudes(
        amp_d1=signal * math.sqrt(1.0 - t) * math.sqrt(1.0 - tau),
        amp_d2=signal * (1.0 - t) * math.sqrt(tau) - leak,
    )


def click_probabilities(amps: DetectorAmplitudes, eta: float) -> dict[Outcome, float]:
    """Joint click distribution for coherent light on two detectors.

    Each detector clicks independently with probability 1 - exp(-eta |amp|^2).
    """
    eta = check_efficiency(eta, "detector efficiency")
    no1 = math.exp(-eta * abs(_as_amplitude(amps.amp_d1)) ** 2)
    no2 = math.exp(-eta * abs(_as_amplitude(amps.amp_d2)) ** 2)
    return _joint_outcomes(no1, no2)


def balance_imbalance(cfg: MultiplexConfig) -> float:
    """Detected mean photon number of D1 for bit 1 minus that of D2 for bit 0;
    the derived tap transmission tau = 1/(2-T) makes the two equal."""
    amp_d1 = propagate_bob(alice_emit(1, cfg), cfg).amp_d1
    amp_d2 = propagate_bob(alice_emit(0, cfg), cfg).amp_d2
    return abs(amp_d1) ** 2 - abs(amp_d2) ** 2


def round_inconclusive_probability(cfg: MultiplexConfig) -> float:
    """Closed-form per-round no-click probability, channel loss included."""
    rate = cfg.detector_mean_photons * cfg.channel_transmission
    return math.exp(-cfg.eta * rate)


def quantum_bound(cfg: MultiplexConfig) -> float:
    """Lowest inconclusive probability any receiver could reach on the pair
    of states arriving at Bob: exp(-c T^2 |gamma|^2 / 2)."""
    t = cfg.splitter_transmission
    return math.exp(
        -0.5 * cfg.channel_transmission * t * t * abs(cfg.gamma) ** 2
    )


def inconclusive_bound_ratio(cfg: MultiplexConfig) -> float:
    """round_inconclusive_probability over quantum_bound; once the bound
    underflows to 0, exp of c T^2 |gamma|^2 (1/2 - eta (1-T)^2 / (2-T))."""
    bound = quantum_bound(cfg)
    if bound > 0.0:
        return round_inconclusive_probability(cfg) / bound
    t = cfg.splitter_transmission
    excess = 0.5 - cfg.eta * (1.0 - t) ** 2 / (2.0 - t)
    exponent = cfg.channel_transmission * t * t * abs(cfg.gamma) ** 2 * excess
    return math.exp(exponent) if exponent < _EXP_OVERFLOW else math.inf


@dataclass(frozen=True)
class KeyReport:
    """Result of a full protocol run."""

    rounds: int
    sifted_count: int  # conclusive rounds, each giving Bob one key bit
    sifted_key_rate: float
    bit_error_rate: float | None  # None when nothing was sifted
    inconclusive_rate_empirical: float
    anomalous_count: int
    counts: dict[Outcome, int]


def run_protocol(cfg: MultiplexConfig, rng: RngStream) -> KeyReport:
    """Run the whole protocol: emit, propagate, detect, classify, sift, with
    the draws of ``montecarlo._tally_rounds`` on ``rng``.

    A D1 click reads bit 1, a D2 click bit 0; no clicks is inconclusive and
    double clicks are anomalous, counted and excluded.  Under the ideal model
    one detector amplitude is exactly zero every round, so the sifted key is
    error free and no anomalous events occur.
    """
    dists = [
        click_probabilities(propagate_bob(alice_emit(bit, cfg), cfg), cfg.eta) for bit in (0, 1)
    ]
    per_bit = _tally_rounds(dists, cfg.rounds, rng)

    counts = {o: per_bit[0][o] + per_bit[1][o] for o in OUTCOME_ORDER}
    n_sifted = counts[Outcome.CONCLUSIVE_1] + counts[Outcome.CONCLUSIVE_2]
    # a D2 click (CONCLUSIVE_1) reads bit 0, a D1 click (CONCLUSIVE_2) bit 1
    errors = per_bit[1][Outcome.CONCLUSIVE_1] + per_bit[0][Outcome.CONCLUSIVE_2]

    return KeyReport(
        rounds=cfg.rounds,
        sifted_count=n_sifted,
        sifted_key_rate=n_sifted / cfg.rounds,
        bit_error_rate=errors / n_sifted if n_sifted else None,
        inconclusive_rate_empirical=counts[Outcome.INCONCLUSIVE] / cfg.rounds,
        anomalous_count=counts[Outcome.ANOMALOUS],
        counts=counts,
    )
