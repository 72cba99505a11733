"""Seeded sampling of detector outcomes and tally statistics.

Outcomes are drawn by inverse CDF over the fixed ordering (00, 01, 10, 11),
one uniform per draw.  Every draw in the package, ``run_trials`` and
``multiplex.run_protocol`` alike, is counted by the one kernel ``_tally``,
which returns outcome counts and never a per-draw array.  Probability mass
below ``SUB_TOLERANCE_MASS`` is zeroed and the distribution renormalized
before sampling, so outcomes the model forbids (the exact zeros of the ideal
receiver) never appear as roundoff dust in a tally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    outcome_probabilities,
    povm_analytic,
)
from .hilbert import _as_integer

#: Counter-based generator backing every stream; recorded in run metadata.
RNG_ALGORITHM = "philox4x64"

#: Probability mass below this is treated as an exact zero before sampling.
SUB_TOLERANCE_MASS = 1e-9

_DISTRIBUTION_SUM_TOL = 1e-9


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream, one of many keyed by a shared seed.

    Identical (seed, stream_id) pairs reproduce identical draws bit for bit;
    distinct stream_ids key statistically independent Philox streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= _as_integer(value, name) < 2**64:
                raise ValueError(f"{name} must fit in 64 bits, got {value}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TrialTally:
    """Outcome counts for a batch of trials."""

    counts: dict[Outcome, int]
    n_trials: int

    def __post_init__(self):
        counts = {o: int(self.counts.get(o, 0)) for o in OUTCOME_ORDER}
        if any(c < 0 for c in counts.values()):
            raise ValueError("counts must be non-negative")
        if sum(counts.values()) != self.n_trials:
            raise ValueError(
                f"counts sum to {sum(counts.values())}, expected n_trials={self.n_trials}"
            )
        object.__setattr__(self, "counts", counts)

    def frequency(self, outcome: Outcome) -> float:
        if self.n_trials == 0:
            return 0.0
        return self.counts[outcome] / self.n_trials

    def merge(self, other: "TrialTally") -> "TrialTally":
        merged = {o: self.counts[o] + other.counts[o] for o in OUTCOME_ORDER}
        return TrialTally(merged, self.n_trials + other.n_trials)


def clean_distribution(dist: dict[Outcome, float]) -> np.ndarray:
    """Validate a 4-outcome distribution keyed by Outcome and zero
    sub-tolerance mass; returns the probabilities in OUTCOME_ORDER."""
    probs = np.array([float(dist[o]) for o in OUTCOME_ORDER])
    if not np.all(np.isfinite(probs)):
        raise ValueError("distribution contains non-finite probabilities")
    if np.any(probs < -SUB_TOLERANCE_MASS):
        raise ValueError(f"distribution contains negative probability: {probs}")
    if abs(probs.sum() - 1.0) > _DISTRIBUTION_SUM_TOL:
        raise ValueError(f"distribution sums to {probs.sum()!r}, expected 1")
    probs = np.where(probs < SUB_TOLERANCE_MASS, 0.0, probs)
    return probs / probs.sum()


def _tally(dist: dict[Outcome, float], u: np.ndarray) -> dict[Outcome, int]:
    """The one inverse-CDF sampler: outcome counts of one draw per uniform.

    The draw for ``u[i]`` is the first outcome whose cumulative cleaned
    probability exceeds it, capped at the last outcome against roundoff in
    the cumulative sum.
    """
    last = len(OUTCOME_ORDER) - 1
    idx = np.searchsorted(np.cumsum(clean_distribution(dist)), u, side="right")
    binned = np.bincount(np.minimum(idx, last, out=idx), minlength=last + 1)
    return {o: int(binned[i]) for i, o in enumerate(OUTCOME_ORDER)}


def run_trials(cfg: ReceiverConfig, trials: int, rng: RngStream) -> dict[int, TrialTally]:
    """Send each state (1 and 2) ``trials`` times and tally per sent state.

    One uniform is drawn per trial, the first ``trials`` for state 1 and the
    next ``trials`` for state 2, so the result is deterministic in
    (seed, stream_id).
    """
    n = _as_integer(trials, "trials")
    if n < 1:
        raise ValueError(f"trials must be >= 1, got {n}")
    povm = povm_analytic(cfg)
    dists = {
        1: outcome_probabilities(cfg, cfg.alpha1, povm),
        2: outcome_probabilities(cfg, cfg.alpha2, povm),
    }
    u = rng.generator().random(2 * n)
    halves = {1: u[:n], 2: u[n:]}
    return {value: TrialTally(_tally(dists[value], halves[value]), n) for value in (1, 2)}


def three_sigma_band(p: float, n: int) -> tuple[float, float]:
    """Binomial 3-sigma band around expected frequency p for n trials."""
    sigma = np.sqrt(max(p * (1.0 - p), 0.0) / n)
    return (p - 3.0 * sigma, p + 3.0 * sigma)
