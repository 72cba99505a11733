"""Seeded sampling of detector outcomes and tally statistics.

Outcomes are drawn by inverse CDF over the fixed ordering (00, 01, 10, 11),
one uniform per draw.  This module makes every draw in the package, for
``run_trials`` and (through ``_tally_rounds``) ``multiplex.run_protocol``
alike, and counts them with the one kernel ``_tally``, which returns outcome
counts and never a per-draw array.  Probability mass below
``SUB_TOLERANCE_MASS`` is zeroed and the distribution renormalized before
sampling, so outcomes the model forbids (the exact zeros of the ideal
receiver) never appear as roundoff dust in a tally.

Both samplers stream: they draw at most ``_CHUNK`` = 2**15 uniforms at a time
into one reused buffer, compare each chunk into one reused boolean mask and
add up the counts as Python ints, so memory stays flat in the number of
draws: a chunk and its mask are 288 KB.  The draws are the same, bit for bit,
as one unchunked call on the same stream would give, because a Philox stream
fills an array the same way whether it is asked for it whole or in pieces.
A draw count is at most ``MAX_DRAWS`` (``check_draws``), the limit up to
which counts and rates stay exact in float64.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .discrimination import (
    OUTCOME_ORDER,
    Outcome,
    ReceiverConfig,
    _outcome_values,
    outcome_probabilities,
    povm_analytic,
)
from .hilbert import STRUCTURAL_TOL, _as_integer

#: Counter-based generator backing every stream; recorded in run metadata.
RNG_ALGORITHM = "philox4x64"

#: Probability mass below this is treated as an exact zero before sampling.
SUB_TOLERANCE_MASS = 1e-9

#: Largest number of draws one call makes: counts and rates built from up to
#: 2**53 draws are exact in float64.
MAX_DRAWS = 2**53

# Uniforms drawn per step of a streaming sampler: 256 KB of float64.  A CLI
# call is a fresh process whose peak RSS holds the chunk, so a smaller one
# lowers each sampling command's peak; 2**14 lowered it further but made a
# 1e7-round run_protocol 7 to 10% slower, while 2**15 kept the time of 2**16.
_CHUNK = 2**15


def check_draws(value, name: str) -> int:
    """Validate a number of draws (trials per state, protocol rounds): an
    integer in [1, MAX_DRAWS]."""
    n = _as_integer(value, name)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > MAX_DRAWS:
        raise ValueError(f"{name} must be <= MAX_DRAWS = 2**53, got {n}")
    return n


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
    """Outcome counts for a batch of trials, keyed by exactly the four
    outcomes (kept in OUTCOME_ORDER); each count is an integer >= 0, and any
    other keys or counts raise ValueError.  ``n_trials`` is their sum."""

    counts: dict[Outcome, int]

    def __post_init__(self):
        values = [_as_integer(c, "count") for c in _outcome_values(self.counts, "tally")]
        if any(c < 0 for c in values):
            raise ValueError(f"counts must be non-negative, got {values}")
        object.__setattr__(self, "counts", dict(zip(OUTCOME_ORDER, values)))

    @property
    def n_trials(self) -> int:
        return sum(self.counts.values())

    def frequency(self, outcome: Outcome) -> float:
        n = self.n_trials
        return 0.0 if n == 0 else self.counts[outcome] / n

    def merge(self, other: "TrialTally") -> "TrialTally":
        return TrialTally({o: self.counts[o] + other.counts[o] for o in OUTCOME_ORDER})


def clean_distribution(dist: dict[Outcome, float]) -> np.ndarray:
    """Validate a distribution keyed by exactly the four outcomes (any other
    key set raises ValueError) and zero sub-tolerance mass; returns the
    probabilities in OUTCOME_ORDER."""
    probs = np.array([float(p) for p in _outcome_values(dist, "distribution")])
    if not np.all(np.isfinite(probs)):
        raise ValueError("distribution contains non-finite probabilities")
    if np.any(probs < -SUB_TOLERANCE_MASS):
        raise ValueError(f"distribution contains negative probability: {probs}")
    total = float(probs.sum())
    if abs(total - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"distribution sums to {total!r}, expected 1")
    probs = np.where(probs < SUB_TOLERANCE_MASS, 0.0, probs)
    return probs / probs.sum()


def _uniforms(gen: np.random.Generator, *counts: int) -> Iterator[tuple[int, np.ndarray]]:
    """The next uniforms of ``gen`` as ``(i, chunk)``: ``counts[i]`` of them
    for each part ``i`` in turn, at most ``_CHUNK`` at a time, each chunk
    written over the last in one buffer that serves every part."""
    buf = np.empty(min(max(counts), _CHUNK))
    for i, n in enumerate(counts):
        for start in range(0, n, _CHUNK):
            yield i, gen.random(out=buf[: min(_CHUNK, n - start)])


def _tally(
    dists: Sequence[dict[Outcome, float]],
    draws: Iterable[tuple[int, np.ndarray, np.ndarray | None]],
) -> list[dict[Outcome, int]]:
    """The one inverse-CDF sampler: outcome counts per distribution.

    Each ``(k, u, where)`` in ``draws`` makes one draw from ``dists[k]`` per
    uniform in ``u``, or per uniform where the boolean mask ``where`` is set.
    The draw is the first outcome whose cumulative cleaned probability
    exceeds the uniform, capped at the last outcome against roundoff in the
    cumulative sum: its index is the number of the first three cumulative
    probabilities at or below the uniform.  So a count is taken without a
    per-draw index, from the draws reaching each cumulative probability.
    Each distribution is cleaned once, before the first draw.  Every
    comparison writes into one boolean mask, grown only for a longer chunk,
    and the counts add up as Python ints however ``draws`` is chunked.
    """
    last = len(OUTCOME_ORDER) - 1
    edges = [np.cumsum(clean_distribution(dist))[:last] for dist in dists]
    # reached[k][j]: draws from dists[k] whose outcome index is at least j
    reached = [[0] * (last + 2) for _ in dists]
    # numpy 2 counts as np.intp, so int() keeps every count a Python int
    mask = np.empty(0, dtype=bool)
    for k, u, where in draws:
        if mask.size < u.size:
            mask = np.empty(u.size, dtype=bool)
        above = mask[: u.size]
        reached[k][0] += u.size if where is None else int(np.count_nonzero(where))
        for j, edge in enumerate(edges[k], start=1):
            np.greater_equal(u, edge, out=above)
            if where is not None:
                above &= where
            reached[k][j] += int(np.count_nonzero(above))
    return [dict(zip(OUTCOME_ORDER, (a - b for a, b in zip(row, row[1:])))) for row in reached]


def _tally_rounds(
    dists: Sequence[dict[Outcome, float]], rounds: int, rng: RngStream
) -> list[dict[Outcome, int]]:
    """Outcome counts per key bit over ``rounds`` rounds, each sending a
    random bit ``k`` and drawing from ``dists[k]``.

    ``rng`` gives all the bits first, then one uniform per round, read in
    ``_CHUNK``-round steps by two generators in lockstep.  Each bit takes one
    32-bit half of a 64-bit Philox output (Lemire's method never rejects for
    a range of 2, and a spare half is kept for the next 32-bit draw), so the
    bits use the first ``m = (rounds + 1) // 2`` outputs, and a 64-bit draw
    never takes a spare half.  The second generator skips them in O(1) time:
    ``advance`` skips blocks of four outputs (Salmon et al., SC'11),
    ``random_raw`` the rest.
    """
    bit_gen, gen = rng.generator(), rng.generator()
    m = (rounds + 1) // 2
    gen.bit_generator.advance(m // 4)
    gen.bit_generator.random_raw(m % 4)

    def draws():
        for _, u in _uniforms(gen, rounds):
            # int32 bits are the default int64's draws in half the bytes: numpy
            # takes any range below 2**32 from 32-bit outputs for both dtypes
            ones = bit_gen.integers(0, 2, size=len(u), dtype="int32").astype(bool)
            yield 0, u, ~ones
            yield 1, u, ones

    return _tally(dists, draws())


def run_trials(cfg: ReceiverConfig, trials: int, rng: RngStream) -> dict[int, TrialTally]:
    """Send each state (1 and 2) ``trials`` times and tally per sent state.

    One uniform is drawn per trial, the first ``trials`` for state 1 and the
    next ``trials`` for state 2, so the result is deterministic in
    (seed, stream_id).  The uniforms stream in chunks of ``_CHUNK``, the same
    draws as one ``random(2 * trials)`` call split in halves; ``trials`` is
    checked against ``MAX_DRAWS`` before anything is drawn.
    """
    n = check_draws(trials, "trials")
    povm = povm_analytic(cfg)
    dists = [outcome_probabilities(cfg, alpha, povm) for alpha in (cfg.alpha1, cfg.alpha2)]
    gen = rng.generator()
    counts = _tally(dists, ((k, u, None) for k, u in _uniforms(gen, n, n)))
    return {value: TrialTally(c) for value, c in zip((1, 2), counts)}


def three_sigma_band(p: float, n: int) -> tuple[float, float]:
    """Binomial 3-sigma band around expected frequency p for n trials.

    This is the normal approximation p +- 3 sqrt(p (1 - p) / n), which is too
    narrow where n p or n (1 - p) is below about 1: at p = 1e-5 and n = 1000
    any nonzero count (probability 1.0%, not the nominal 0.27%) lies outside.  An
    exact binomial band would change the ``within_band`` column of
    ``simulate.csv``.
    """
    sigma = np.sqrt(max(p * (1.0 - p), 0.0) / n)
    return (p - 3.0 * sigma, p + 3.0 * sigma)
