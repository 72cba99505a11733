"""Unambiguous discrimination of two coherent states.

The receiver splits the incoming pulse on a 50:50 beam splitter, displaces
each output so that one of the two candidate states interferes destructively
at each photodetector, and reads the two click bits.  A click pattern then
either identifies the sent state with certainty or is inconclusive; the
inconclusive probability saturates the quantum lower bound |<alpha1|alpha2>|.

This module builds the measurement's POVM two independent ways:

  * ``povm_analytic`` - directly on the signal mode, from normally ordered
    Gaussian operators Q_i = :exp(-(a^dag - alpha_i*)(a - alpha_i)/2): ;
  * ``povm_ancilla``  - brute force on the two-mode space: coherent
    projectors on both beam-splitter outputs, conjugated back through the
    beam splitter and reduced by a vacuum expectation over the unused port.

The two constructions serve as oracles for each other and must agree in max
norm (hilbert.CROSS_ORACLE_TOL) at adequate truncation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hilbert import (
    ADEQUACY_MIN_NORM,
    STRUCTURAL_TOL,
    NumericalGuardError,
    TruncatedOperator,
    _as_amplitude,
    _check_fock_range,
    beam_splitter_vacuum_columns,
    check_dim,
    check_efficiency,
    coherent_state,
    expectation,
    identity,
    normally_ordered_exponential,
    normally_ordered_gaussian,
    overlap,
)

logger = logging.getLogger(__name__)

# Eigenvalues in [-EIGENVALUE_CLAMP, 0) count as roundoff zeros; anything more
# negative marks a construction bug rather than floating-point dust.
EIGENVALUE_CLAMP = 1e-10

# Probability clamps larger than this are logged instead of silently absorbed.
PROBABILITY_CLAMP_LOG = 1e-10

# Two-mode workspaces beyond this per-mode dimension are refused (dim^2 x dim^2
# intermediates stop being desk-scale).
MAX_ANCILLA_DIM = 64


class Outcome(Enum):
    """Joint click pattern (d1, d2) of the two photodetectors.

    Bit 0 means no photons were registered, bit 1 at least one.  A click on
    D2 alone identifies the first state, a click on D1 alone the second; no
    clicks is inconclusive and both clicking never happens under the ideal
    model.
    """

    INCONCLUSIVE = (0, 0)
    CONCLUSIVE_1 = (0, 1)
    CONCLUSIVE_2 = (1, 0)
    ANOMALOUS = (1, 1)

    @property
    def d1(self) -> int:
        return self.value[0]

    @property
    def d2(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        return f"{self.d1}{self.d2}"


#: Fixed outcome ordering (00, 01, 10, 11) used by samplers and writers: the
#: definition order of Outcome.
OUTCOME_ORDER: tuple[Outcome, ...] = tuple(Outcome)


def _joint_outcomes(q1: float, q2: float) -> dict[Outcome, float]:
    """Four-outcome distribution of two independent detectors whose no-click
    probabilities are q1 (D1) and q2 (D2)."""
    return {
        Outcome.INCONCLUSIVE: q1 * q2,
        Outcome.CONCLUSIVE_1: q1 * (1.0 - q2),
        Outcome.CONCLUSIVE_2: (1.0 - q1) * q2,
        Outcome.ANOMALOUS: (1.0 - q1) * (1.0 - q2),
    }


@dataclass(frozen=True)
class ReceiverConfig:
    """Receiver parameters: the candidate pair, truncation, and efficiency.

    The displaced-detection amplitudes are always beta_i = alpha_i / sqrt(2);
    they are derived, never set independently.
    """

    alpha1: complex
    alpha2: complex
    dim: int
    eta: float = 1.0

    def __post_init__(self):
        a1, a2 = _as_amplitude(self.alpha1), _as_amplitude(self.alpha2)
        if a1 == a2:
            raise ValueError("alpha1 == alpha2: identical states are not discriminable")
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "eta", check_efficiency(self.eta))

    @property
    def beta1(self) -> complex:
        return self.alpha1 / math.sqrt(2.0)

    @property
    def beta2(self) -> complex:
        return self.alpha2 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class PovmSet:
    """The four positive operators of the receiver, keyed by outcome."""

    elements: dict[Outcome, TruncatedOperator]
    construction: str  # "analytic" | "ancilla"
    dim: int

    def __getitem__(self, outcome: Outcome) -> TruncatedOperator:
        return self.elements[outcome]

    def completeness_residual(self) -> float:
        total = sum(op.matrix for op in self.elements.values())
        return float(np.max(np.abs(total - np.eye(self.dim))))

    def min_eigenvalue(self) -> float:
        return min(op.min_eigenvalue() for op in self.elements.values())

    def max_hermiticity_defect(self) -> float:
        return max(op.hermiticity_defect() for op in self.elements.values())


def _validate_povm(povm: PovmSet) -> PovmSet:
    # each guard is written so that a NaN fails it
    herm = povm.max_hermiticity_defect()
    if not herm <= STRUCTURAL_TOL:
        raise NumericalGuardError(
            f"hermiticity guard: POVM defect {herm:.3e} exceeds {STRUCTURAL_TOL:.1e}"
        )
    residual = povm.completeness_residual()
    if not residual <= STRUCTURAL_TOL:
        raise NumericalGuardError(
            f"completeness guard: residual {residual:.3e} exceeds {STRUCTURAL_TOL:.1e}"
        )
    min_eig = povm.min_eigenvalue()
    if not min_eig >= -EIGENVALUE_CLAMP:
        raise NumericalGuardError(
            f"positivity guard: eigenvalue {min_eig:.3e} below -{EIGENVALUE_CLAMP:.1e}"
        )
    return povm


def _check_adequacy(cfg: ReceiverConfig) -> None:
    _check_fock_range(cfg.dim)
    for name, alpha in (("alpha1", cfg.alpha1), ("alpha2", cfg.alpha2)):
        achieved = coherent_state(alpha, cfg.dim).norm
        if achieved < ADEQUACY_MIN_NORM:
            raise NumericalGuardError(
                f"truncation adequacy guard: coherent state for {name} reaches "
                f"norm {achieved:.12f} < {ADEQUACY_MIN_NORM:.12f} at dim={cfg.dim}"
            )


def _q_product(alpha1: complex, alpha2: complex, dim: int) -> TruncatedOperator:
    """Normally ordered product :Q1 Q2: assembled from the merged exponent.

    Normal symbols multiply, so the product's exponent is the sum of the two
    Gaussian exponents; the Fock matrix follows from the same exact triangular
    assembly used for a single Gaussian.
    """
    mu = 0.5 * (alpha1 + alpha2)
    const = -0.5 * (abs(alpha1) ** 2 + abs(alpha2) ** 2)
    return normally_ordered_exponential(mu, np.conj(mu), -1.0, const, dim)


def povm_analytic(cfg: ReceiverConfig) -> PovmSet:
    """Closed-form POVM on the signal mode.

    With Q_i = :exp(-(a^dag - alpha_i*)(a - alpha_i)/2): the four elements are

        A_00 = :Q1 Q2:                      (no clicks, inconclusive)
        A_01 = :Q1: - :Q1 Q2:               (D2 clicked, state 1)
        A_10 = :Q2: - :Q1 Q2:               (D1 clicked, state 2)
        A_11 = I - :Q1: - :Q2: + :Q1 Q2:    (both clicked, never occurs)
    """
    _check_adequacy(cfg)
    dim = cfg.dim
    q1 = normally_ordered_gaussian(0.5, cfg.alpha1, dim)
    q2 = normally_ordered_gaussian(0.5, cfg.alpha2, dim)
    q12 = _q_product(cfg.alpha1, cfg.alpha2, dim)
    eye = identity(dim)
    elements = {
        Outcome.INCONCLUSIVE: q12,
        Outcome.CONCLUSIVE_1: q1 - q12,
        Outcome.CONCLUSIVE_2: q2 - q12,
        Outcome.ANOMALOUS: eye - q1 - q2 + q12,
    }
    return _validate_povm(PovmSet(elements, "analytic", dim))


def povm_ancilla(cfg: ReceiverConfig) -> PovmSet:
    """Brute-force POVM through the explicit two-mode ancilla construction.

    Each two-mode projection B is expressed in the (signal, vacuum-port)
    modes by conjugation with the 50:50 beam-splitter unitary U and reduced
    by the vacuum expectation over the unused port:

        A[m, n] = <m, 0| U^dag B U |n, 0> = (U|m,0>)^dag B (U|n,0>).

    Only the vacuum-port columns W = U|n,0> enter the reduction, so they are
    built directly on every call and the conjugation is evaluated as
    W^dag B W; the literal conjugate-then-reduce path lives in
    tests/oracles.py, and the tests check this against it.  Mode 1 carries
    the first output (displaced detection at beta1), mode 2 the second.  The
    projections B are built one at a time, so a single dense
    dim^2 x dim^2 complex matrix (dim^4 * 16 bytes) is live at once.  The
    reduction relies on W being an isometry: an isometry defect
    max|W^dag W - I| above STRUCTURAL_TOL raises NumericalGuardError.
    """
    dim = cfg.dim
    if dim > MAX_ANCILLA_DIM:
        raise NumericalGuardError(
            f"two-mode workspace guard: dim={dim} exceeds the cap {MAX_ANCILLA_DIM}"
        )
    _check_adequacy(cfg)
    w = beam_splitter_vacuum_columns(0.5, dim)
    defect = float(np.max(np.abs(w.conj().T @ w - np.eye(dim))))
    if not defect <= STRUCTURAL_TOL:
        raise NumericalGuardError(
            f"isometry guard: vacuum-port defect {defect:.3e} exceeds {STRUCTURAL_TOL:.1e}"
        )
    p1 = normally_ordered_gaussian(1.0, cfg.beta1, dim)
    p2 = normally_ordered_gaussian(1.0, cfg.beta2, dim)
    eye = identity(dim)
    factors = {
        Outcome.INCONCLUSIVE: (p1, p2),
        Outcome.CONCLUSIVE_1: (p1, eye - p2),
        Outcome.CONCLUSIVE_2: (eye - p1, p2),
        Outcome.ANOMALOUS: (eye - p1, eye - p2),
    }
    elements = {}
    for outcome, (left, right) in factors.items():
        reduced = w.conj().T @ np.kron(left.matrix, right.matrix) @ w
        elements[outcome] = TruncatedOperator(dim, reduced)
    return _validate_povm(PovmSet(elements, "ancilla", dim))


def outcome_probabilities(
    cfg: ReceiverConfig,
    sent: complex,
    povm: PovmSet,
) -> dict[Outcome, float]:
    """Outcome distribution for a coherent input of amplitude ``sent``.

    At unit efficiency these are the POVM expectations <sent|A_kl|sent>.
    Detector inefficiency scales every field amplitude reaching a detector by
    sqrt(eta), which for coherent light raises each no-click probability to
    the power eta; the distribution is rebuilt from the two no-click
    marginals, keeping the exact zeros exact.
    """
    if povm.dim != cfg.dim:
        raise ValueError(f"POVM dim {povm.dim} does not match config dim {cfg.dim}")
    state = coherent_state(sent, cfg.dim).state
    raw = {}
    for outcome in OUTCOME_ORDER:
        value = expectation(povm[outcome], state)
        if abs(value.imag) > 1e-10:
            logger.warning(
                "imaginary residue %.3e in <%s> expectation exceeds 1e-10",
                value.imag,
                outcome.label,
            )
        raw[outcome] = _clamp_probability(value.real, outcome)

    if cfg.eta == 1.0:
        probs = dict(raw)
    else:
        # no-click marginals for each detector, then eta-scaled products
        q1 = min(raw[Outcome.INCONCLUSIVE] + raw[Outcome.CONCLUSIVE_1], 1.0)
        q2 = min(raw[Outcome.INCONCLUSIVE] + raw[Outcome.CONCLUSIVE_2], 1.0)
        probs = _joint_outcomes(q1**cfg.eta, q2**cfg.eta)

    total = sum(probs.values())
    if abs(total - 1.0) > STRUCTURAL_TOL:
        raise NumericalGuardError(
            f"probability normalization guard: outcome probabilities sum to "
            f"{total!r}, off by more than {STRUCTURAL_TOL:.1e}"
        )
    return {o: p / total for o, p in probs.items()}


def _clamp_probability(p: float, outcome: Outcome) -> float:
    clamped = min(max(p, 0.0), 1.0)
    if abs(clamped - p) > PROBABILITY_CLAMP_LOG:
        logger.warning(
            "clamped probability of outcome %s by %.3e", outcome.label, abs(clamped - p)
        )
    return clamped


def _gaussian_decay(scale: float, separation: complex) -> float:
    """exp(scale |separation|^2) for scale <= 0; once |separation|^2
    overflows a float, its limit 0, or 1 at scale 0 (0 * inf would be NaN)."""
    try:
        return math.exp(scale * abs(separation) ** 2)
    except OverflowError:
        return 1.0 if scale == 0.0 else 0.0


def closed_form_probabilities(cfg: ReceiverConfig, sent: complex) -> dict[Outcome, float]:
    """Outcome distribution from the closed forms alone (no truncation).

    For a coherent input the no-click probability of detector i is
    exp(-eta |sent - alpha_i|^2 / 2) and the detectors are independent.
    """
    sent = _as_amplitude(sent)
    q1 = _gaussian_decay(-0.5 * cfg.eta, sent - cfg.alpha1)
    q2 = _gaussian_decay(-0.5 * cfg.eta, sent - cfg.alpha2)
    return _joint_outcomes(q1, q2)


def inconclusive_rate(alpha1: complex, alpha2: complex) -> float:
    """Closed-form inconclusive probability exp(-|alpha1 - alpha2|^2 / 2).

    This equals the state overlap |<alpha1|alpha2>|, the lowest inconclusive
    rate any measurement can reach on this pair.
    """
    return _gaussian_decay(-0.5, _as_amplitude(alpha1) - _as_amplitude(alpha2))


@dataclass(frozen=True)
class OptimalityReport:
    """Numeric inconclusive probability against the quantum lower bound."""

    numeric_inconclusive: float
    quantum_bound: float
    gap: float
    eta: float
    dim: int


def optimality_check(cfg: ReceiverConfig, povm: PovmSet) -> OptimalityReport:
    """Compare the receiver's inconclusive probability with the quantum bound.

    The bound |<alpha1|alpha2>| is evaluated from the truncated coherent-state
    vectors themselves, independently of the closed form and of the POVM.  At
    eta = 1 and adequate truncation the gap is zero to cross-oracle accuracy;
    any eta < 1 leaves the bound unattained.
    """
    p1 = outcome_probabilities(cfg, cfg.alpha1, povm)[Outcome.INCONCLUSIVE]
    p2 = outcome_probabilities(cfg, cfg.alpha2, povm)[Outcome.INCONCLUSIVE]
    numeric = 0.5 * (p1 + p2)
    s1 = coherent_state(cfg.alpha1, cfg.dim).state
    s2 = coherent_state(cfg.alpha2, cfg.dim).state
    bound = abs(overlap(s1, s2))
    return OptimalityReport(
        numeric_inconclusive=numeric,
        quantum_bound=bound,
        gap=numeric - bound,
        eta=cfg.eta,
        dim=cfg.dim,
    )
