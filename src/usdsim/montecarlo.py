"""Seeded sampling of detector outcomes and tally statistics.

Outcomes are drawn by inverse CDF over the fixed ordering (00, 01, 10, 11).
Every draw in the package, ``run_trials`` and ``multiplex.run_protocol``
alike, goes through the one sampler ``_draw_indices``, one uniform per draw.
Probability mass below ``SUB_TOLERANCE_MASS`` is zeroed and the distribution
renormalized before sampling, so outcomes the model forbids (the exact zeros
of the ideal receiver) never appear as roundoff dust in a tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .discrimination import (
    OUTCOME_ORDER,
    Outcome,
    PovmSet,
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


def clean_distribution(dist) -> np.ndarray:
    """Validate a 4-outcome distribution and zero sub-tolerance mass.

    Accepts a mapping keyed by Outcome or a sequence in the fixed ordering.
    """
    if isinstance(dist, Mapping):
        probs = np.array([float(dist[o]) for o in OUTCOME_ORDER])
    else:
        probs = np.asarray(dist, dtype=float).reshape(-1)
        if probs.size != len(OUTCOME_ORDER):
            raise ValueError(
                f"distribution must have {len(OUTCOME_ORDER)} entries, got {probs.size}"
            )
    if not np.all(np.isfinite(probs)):
        raise ValueError("distribution contains non-finite probabilities")
    if np.any(probs < -SUB_TOLERANCE_MASS):
        raise ValueError(f"distribution contains negative probability: {probs}")
    if abs(probs.sum() - 1.0) > _DISTRIBUTION_SUM_TOL:
        raise ValueError(f"distribution sums to {probs.sum()!r}, expected 1")
    probs = np.where(probs < SUB_TOLERANCE_MASS, 0.0, probs)
    return probs / probs.sum()


def _draw_indices(
    dists: Mapping[Hashable, object], labels: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The one inverse-CDF sampler; returns indices into OUTCOME_ORDER.

    Draw i inverts the cumulative cleaned distribution ``dists[labels[i]]``
    at the uniform ``u[i]``; every label must be a key of ``dists``.  Each
    distribution is handled on its own boolean mask, so no (n, 4) array is
    ever built.
    """
    cums = {label: np.cumsum(clean_distribution(d)) for label, d in dists.items()}
    idx = np.empty(u.size, dtype=int)
    for label, cum in cums.items():
        mask = labels == label
        if np.any(mask):
            idx[mask] = np.minimum(
                np.searchsorted(cum, u[mask], side="right"), len(OUTCOME_ORDER) - 1
            )
    return idx


def _outcome_counts(idx: np.ndarray) -> dict[Outcome, int]:
    """Counts of each outcome among indices into OUTCOME_ORDER."""
    binned = np.bincount(idx, minlength=len(OUTCOME_ORDER))
    return {o: int(binned[i]) for i, o in enumerate(OUTCOME_ORDER)}


def run_trials(
    cfg: ReceiverConfig,
    sent_sequence: Sequence[int] | Iterable[int],
    rng: RngStream,
    povm: PovmSet | None = None,
) -> dict[int, TrialTally]:
    """Simulate a sequence of sent states (1 or 2) and tally per sent value.

    One uniform draw is consumed per trial in sequence order, so the result
    is deterministic in (seed, stream_id) and independent of how trials are
    grouped afterwards.
    """
    sent = np.asarray(list(sent_sequence), dtype=int)
    if sent.size == 0:
        raise ValueError("sent_sequence must be nonempty")
    if not np.all(np.isin(sent, (1, 2))):
        raise ValueError("sent_sequence entries must be 1 or 2")
    if povm is None:
        povm = povm_analytic(cfg)
    dists = {
        1: outcome_probabilities(cfg, cfg.alpha1, povm),
        2: outcome_probabilities(cfg, cfg.alpha2, povm),
    }
    idx = _draw_indices(dists, sent, rng.generator().random(sent.size))
    tallies = {}
    for value in (1, 2):
        mask = sent == value
        tallies[value] = TrialTally(_outcome_counts(idx[mask]), int(mask.sum()))
    return tallies


def three_sigma_band(p: float, n: int) -> tuple[float, float]:
    """Binomial 3-sigma band around expected frequency p for n trials."""
    sigma = np.sqrt(max(p * (1.0 - p), 0.0) / n)
    return (p - 3.0 * sigma, p + 3.0 * sigma)
