"""Unambiguous discrimination of two coherent states.

The receiver splits the incoming pulse on a 50:50 beam splitter, displaces
each output so that one of the two candidate states interferes destructively
at each photodetector, and reads the two click bits.  A click pattern then
either identifies the sent state with certainty or is inconclusive; the
inconclusive probability saturates the quantum lower bound |<alpha1|alpha2>|.

This module builds the measurement's POVM two independent ways:

  * ``povm_analytic`` - directly on the signal mode, from normally ordered
    Gaussian operators Q_i = :exp(-eta (a^dag - alpha_i*)(a - alpha_i)/2): ;
  * ``povm_ancilla``  - brute force on the two-mode space: the detectors'
    no-click operators :exp(-eta (b^dag - beta_i*)(b - beta_i)): on both
    beam-splitter outputs, conjugated back through the beam splitter and
    reduced by a vacuum expectation over the unused port.

The two constructions serve as oracles for each other; the tests hold their
agreement to a roundoff bound at adequate truncation.  The module needs numpy
only: the ancilla construction's beam-splitter columns are read from the
committed per-sector table ``_sector_columns``, which the first ancilla POVM
imports.

Two-mode conventions (fixed, do not change silently), used by the ancilla
construction only:
  * two-mode basis index = n1 * dim + n2, i.e. mode 1 varies slowest; mode 1
    is the signal a, then the output b1 (D1), mode 2 the vacuum port v, then
    the output b2 (D2);
  * the 50:50 beam splitter maps annihilation operators as
        b1 = (a + v) / sqrt(2)
        b2 = (a - v) / sqrt(2)
    (real orthogonal, no reflection phases).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .hilbert import (
    ADEQUACY_MIN_NORM,
    STRUCTURAL_TOL,
    _as_amplitude,
    _guard,
    check_dim,
    check_efficiency,
    coherent_state,
    normally_ordered_exponential,
    normally_ordered_gaussian,
)

logger = logging.getLogger(__name__)

# Eigenvalues in [-EIGENVALUE_CLAMP, 0) count as roundoff zeros; anything more
# negative marks a construction bug rather than floating-point dust.  A PovmSet
# certifies this at build time by a Cholesky factorization shifted by half the
# clamp, and computes the least eigenvalue only where that fails or where
# ``guards`` is read.
EIGENVALUE_CLAMP = 1e-10

# Probability clamps larger than this are logged instead of silently absorbed.
PROBABILITY_CLAMP_LOG = 1e-10

# Ancilla reductions beyond this per-mode dimension are refused: their
# O(dim^5) time, about dim^5 complex multiply-adds per pair of outcomes, stops
# being desk-scale (0.4 s at the cap, single-threaded, on a 2-core x86_64 VM);
# their memory is only about 5 dim^3 complex numbers, 21 MB at the cap.
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
    def label(self) -> str:
        d1, d2 = self.value
        return f"{d1}{d2}"


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
        object.__setattr__(self, "eta", check_efficiency(self.eta, "detector efficiency"))

    @property
    def beta1(self) -> complex:
        return self.alpha1 / math.sqrt(2.0)

    @property
    def beta2(self) -> complex:
        return self.alpha2 / math.sqrt(2.0)


def _outcome_values(mapping: Mapping, what: str) -> list:
    """The values of ``mapping`` in OUTCOME_ORDER.  It must be a mapping whose
    keys are exactly the four outcomes; anything else raises ValueError, which
    names the type of a non-mapping, or the missing and the unexpected keys."""
    if not isinstance(mapping, Mapping):
        raise ValueError(
            f"{what} needs a mapping keyed by Outcome, got {type(mapping).__name__}"
        )
    missing = ", ".join(o.name for o in OUTCOME_ORDER if o not in mapping)
    unexpected = ", ".join(repr(k) for k in mapping if k not in OUTCOME_ORDER)
    if missing or unexpected:
        raise ValueError(
            f"{what} needs exactly the four outcomes: missing {missing or 'none'}; "
            f"unexpected {unexpected or 'none'}"
        )
    return [mapping[o] for o in OUTCOME_ORDER]


class _Built(dict):
    """Elements that a construction of this module has just built as fresh
    complex128 arrays, referenced nowhere else: PovmSet adopts them as they
    are instead of copying each while the original is still alive."""


@dataclass(frozen=True, eq=False)
class PovmSet:
    """The four positive operators of the receiver ``config``, keyed by outcome.

    Built from a mapping with exactly one ``config.dim`` square array per
    outcome; anything else raises ValueError.  The PovmSet owns its elements:
    ``elements`` maps each outcome, in OUTCOME_ORDER, to a read-only complex128
    copy of the array it was given, so nothing written through the PovmSet or
    into the caller's arrays can undo its guards.  Only ``povm_analytic`` and
    ``povm_ancilla`` hand over arrays that no caller holds, and those are
    adopted without a copy.  Construction then runs the hermiticity,
    completeness and positivity guards once each, in that order, so no PovmSet
    exists unvalidated.  Positivity is certified by a Cholesky factorization
    of each element's Hermitian part shifted by half the clamp; only where one
    fails is the least eigenvalue computed, and the guard decides on it.
    ``guards`` keeps the three values in ``povm``'s order: the least
    eigenvalue, which only ``povm`` reports, is computed once, by the
    positivity guard where the certificate fails, else on the first read.
    ``elements`` is a read-only mapping, so ``PovmSet(povm.elements,
    povm.config)`` rebuilds a PovmSet from copies.  ``povm[o].matrix``, the
    same array as ``povm.elements[o]``, exists only for perfbench/fock.py:49.
    """

    elements: Mapping[Outcome, np.ndarray]
    config: ReceiverConfig

    def __post_init__(self):
        dim = self.config.dim
        adopt = type(self.elements) is _Built
        elements = {}
        for outcome, array in zip(OUTCOME_ORDER, _outcome_values(self.elements, "POVM")):
            shape = np.shape(array)
            if shape != (dim, dim):
                raise ValueError(
                    f"POVM element {outcome.name} has shape {shape}, expected ({dim}, {dim}) "
                    f"for dim={dim}"
                )
            matrix = np.array(array, dtype=np.complex128, copy=not adopt)
            matrix.flags.writeable = False
            elements[outcome] = matrix
        object.__setattr__(self, "elements", MappingProxyType(elements))
        herm = self.max_hermiticity_defect()
        _guard("hermiticity", herm <= STRUCTURAL_TOL, "POVM defect %.3e exceeds %.1e", herm, STRUCTURAL_TOL)
        resid = self.completeness_residual()
        _guard("completeness", resid <= STRUCTURAL_TOL, "residual %.3e exceeds %.1e", resid, STRUCTURAL_TOL)
        object.__setattr__(self, "_measured", (resid, herm))
        if not self._certified_positive():
            min_eig = self._least_eigenvalue
            _guard(
                "positivity", min_eig >= -EIGENVALUE_CLAMP, "eigenvalue %.3e below -%.1e", min_eig, EIGENVALUE_CLAMP
            )

    @cached_property
    def guards(self) -> MappingProxyType[str, float]:
        """The guard values, read-only; the least eigenvalue is computed on
        the first read, unless the positivity guard already took it."""
        resid, herm = self._measured
        guards = dict(completeness_residual=resid, min_eigenvalue=self._least_eigenvalue, hermiticity_defect=herm)
        return MappingProxyType(guards)

    def __getitem__(self, outcome: Outcome) -> SimpleNamespace:
        """``elements[outcome]`` as ``.matrix``, only for perfbench/fock.py:49."""
        return SimpleNamespace(matrix=self.elements[outcome])

    def completeness_residual(self) -> float:
        total = sum(self.elements.values())
        return float(np.max(np.abs(total - np.eye(self.config.dim))))

    # The Hermitian parts and the hermiticity defect take each element's
    # conjugate transpose once, as a fresh copy, and fill it in place with
    # (m + m^dag)/2 or m - m^dag: the same operations in the same order as
    # the plain expressions, with one complex dim x dim temporary per element
    # instead of two or three.
    def _hermitian_parts(self):
        for m in self.elements.values():
            h = m.conj().T
            np.add(m, h, out=h)
            np.multiply(0.5, h, out=h)
            yield h

    def _certified_positive(self) -> bool:
        """Whether a Cholesky factorization of every Hermitian part, with
        EIGENVALUE_CLAMP/2 added to its diagonal, succeeds.  Where all four
        succeed, each part's least eigenvalue is at least -EIGENVALUE_CLAMP/2
        up to the factorization's backward error of about dim * eps * |h|,
        and as the parts sum to I within STRUCTURAL_TOL (the completeness
        guard runs first), each |h| is about 1 at most: the eigenvalue guard
        would pass.  A failure proves nothing, and the guard decides."""
        for h in self._hermitian_parts():
            h.flat[:: self.config.dim + 1] += 0.5 * EIGENVALUE_CLAMP
            try:
                np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                return False
        return True

    def min_eigenvalue(self) -> float:
        return min(float(np.linalg.eigvalsh(h)[0]) for h in self._hermitian_parts())

    _least_eigenvalue = cached_property(lambda self: self.min_eigenvalue())  # for the guard and guards

    def max_hermiticity_defect(self) -> float:
        defects = []
        for m in self.elements.values():
            h = m.conj().T
            np.subtract(m, h, out=h)
            defects.append(float(np.max(np.abs(h))))
        return max(defects)


def _check_adequacy(cfg: ReceiverConfig) -> None:
    for name, alpha in (("alpha1", cfg.alpha1), ("alpha2", cfg.alpha2)):
        achieved = np.linalg.norm(coherent_state(alpha, cfg.dim))
        _guard(
            "truncation adequacy",
            achieved >= ADEQUACY_MIN_NORM,
            "coherent state for %s reaches norm %.12f < %.12f at dim=%s",
            name,
            achieved,
            ADEQUACY_MIN_NORM,
            cfg.dim,
        )


def _q_product(kappa: float, alpha1: complex, alpha2: complex, dim: int) -> np.ndarray:
    """Normally ordered product :Q1 Q2: assembled from the merged exponent.

    Normal symbols multiply, so the product's exponent is the sum of the two
    Gaussian exponents; the Fock matrix follows from the same exact triangular
    assembly used for a single Gaussian.
    """
    mu = kappa * (alpha1 + alpha2)
    const = -kappa * (abs(alpha1) ** 2 + abs(alpha2) ** 2)
    return normally_ordered_exponential(mu, np.conj(mu), -2 * kappa, const, dim)


def povm_analytic(cfg: ReceiverConfig) -> PovmSet:
    """Closed-form POVM on the signal mode.

    With Q_i = :exp(-eta (a^dag - alpha_i*)(a - alpha_i)/2): the four elements are

        A_00 = :Q1 Q2:                      (no clicks, inconclusive)
        A_01 = :Q1: - :Q1 Q2:               (D2 clicked, state 1)
        A_10 = :Q2: - :Q1 Q2:               (D1 clicked, state 2)
        A_11 = I - :Q1: - :Q2: + :Q1 Q2:    (both clicked, never occurs)

    The differences are taken in place, left to right as written, in the
    arrays of :Q1:, :Q2: and the identity, and PovmSet adopts the four
    results without a copy: the elements are the same bits as the plain
    expressions, and the build holds at most about 7 dim^2 complex numbers
    (the Gaussian assemblies, then the guards' one temporary per element).
    """
    _check_adequacy(cfg)
    dim = cfg.dim
    kappa = 0.5 * cfg.eta
    q1 = normally_ordered_gaussian(kappa, cfg.alpha1, dim)
    q2 = normally_ordered_gaussian(kappa, cfg.alpha2, dim)
    q12 = _q_product(kappa, cfg.alpha1, cfg.alpha2, dim)
    anomalous = np.eye(dim, dtype=np.complex128)
    anomalous -= q1
    anomalous -= q2
    anomalous += q12
    q1 -= q12
    q2 -= q12
    elements = {
        Outcome.INCONCLUSIVE: q12,
        Outcome.CONCLUSIVE_1: q1,
        Outcome.CONCLUSIVE_2: q2,
        Outcome.ANOMALOUS: anomalous,
    }
    return PovmSet(_Built(elements), cfg)


def _port_parity(dim: int) -> np.ndarray:
    """Phase (-1)^(n2) on the two-mode basis, n2 the second-mode number."""
    return np.where(np.arange(dim * dim) % dim % 2 == 1, -1.0, 1.0)


def vacuum_port_columns(dim: int) -> np.ndarray:
    """Columns W = U|n, 0>, n = 0..dim-1, of the 50:50 beam splitter U: a
    dim^2 x dim isometry whose rows follow the two-mode index n1 * dim + n2.

    The generator theta*(a^dag v - a v^dag), theta = pi/4, conserves total
    photon number, so column n lies in sector n, the states |n1, n - n1>,
    n1 = 0..n, and its entries depend on n only, not on dim.  They come from
    the committed table ``_sector_columns.SECTOR_COLUMNS`` (the exponential of
    each sector's generator block, tabulated for the sectors below
    MAX_ANCILLA_DIM; a larger dim raises ValueError), and the parity phase
    (-1)^(n2) supplies the sign of the second output row.  The columns are
    real: they are written into the complex128 result through its ``.real``
    view and the parity is applied there in place, so no float copy of the
    dim^3 array is made.  The bits are those of the real array times the
    parity, cast to complex, -0.0 from parity * 0.0 included.
    """
    if dim > MAX_ANCILLA_DIM:
        raise ValueError(
            f"vacuum-port columns are tabulated up to dim={MAX_ANCILLA_DIM}, got dim={dim}"
        )
    # Imported here, not at module level: only the ancilla POVM reads the table.
    from ._sector_columns import SECTOR_COLUMNS

    w = np.zeros((dim * dim, dim), dtype=np.complex128)
    real = w.real
    for total, column in enumerate(SECTOR_COLUMNS[:dim]):
        n1 = np.arange(total + 1)
        real[n1 * dim + (total - n1), total] = column
    real *= _port_parity(dim)[:, None]
    return w


def povm_ancilla(cfg: ReceiverConfig) -> PovmSet:
    """Brute-force POVM through the explicit two-mode ancilla construction.

    Each two-mode operator B, a product of the detectors' no-click operators
    :exp(-eta (b^dag - beta_i*)(b - beta_i)): or their complements, is
    expressed in the (signal, vacuum-port) modes by conjugation with the 50:50
    beam-splitter unitary U and reduced by the vacuum expectation over the
    unused port:

        A[m, n] = <m, 0| U^dag B U |n, 0> = (U|m,0>)^dag B (U|n,0>).

    Only the vacuum-port columns W = U|n,0> enter the reduction, so
    ``vacuum_port_columns`` builds them on every call and the conjugation is
    evaluated as W^dag B W; the literal conjugate-then-reduce path lives in
    tests/oracles.py, and the tests check this against it.  Mode 1 carries
    the first output (displaced detection at beta1), mode 2 the second.  No
    B = L (x) R is ever built whole: column block c of B is the dim^2 x dim
    slab kron(L[:, c], R), whose rows follow W's two-mode index
    n1 * dim + n2, and the half-product W^dag B is filled one block at a
    time before the final product with W.  The outcomes come in two
    pairs that share D1's factor L (P1, then I - P1) and differ in D2's R
    (P2 or I - P2), so one slab L[:, c] (x) [P2 | I - P2] serves both
    outcomes of a pair.  Column n of W lies in sector n, so W's row (c, j) is
    zero unless c + j < dim, and the final product reads only the first
    width = dim - c columns of block c of each half-product.  Slab c holds
    just those: it is dim^2 x 2 width, one broadcast multiply from a
    contiguous copy of the width columns of P2 and of I - P2.  The dim
    products W^dag slab of a pair fill the columns that are read, about
    dim^5 complex multiply-adds where full-width slabs took twice that, and
    the other columns of the half-products, zero-filled once, stay exact
    zeros.  About 5 dim^3 complex numbers are live at once (W, the two
    half-products, the slab at its widest) and the work is O(dim^5).  W is
    real, so W^dag is taken as the view W^T rather than a conjugated copy.
    The slabs split the dense product W^dag B along its columns only, and
    the columns left out meet only W's zero rows, so with single-threaded
    OpenBLAS every element equals in value that of W^dag kron(L, R) W, and
    agrees to roundoff otherwise.  The bytes may differ in the sign of an
    element that is exactly zero, where an amplitude with a zero part puts
    exact zeros in the factors: OpenBLAS takes another path for the
    narrower products.  The reduction relies on W being an isometry: an
    isometry defect max|W^dag W - I| above STRUCTURAL_TOL raises
    NumericalGuardError.
    """
    dim = cfg.dim
    _guard("two-mode workspace", dim <= MAX_ANCILLA_DIM, "dim=%s exceeds the cap %s", dim, MAX_ANCILLA_DIM)
    _check_adequacy(cfg)
    eye = np.eye(dim, dtype=np.complex128)
    if cfg.eta == 0.0:
        # Blind detectors: B = I (x) I for no clicks, so A_00 = I exactly.  The
        # reduction below would give W^dag W instead, which differs from I by
        # roundoff (about 4e-15 from dim 6 on).
        blind = {o: 0 * eye for o in OUTCOME_ORDER}
        return PovmSet(_Built(blind | {Outcome.INCONCLUSIVE: eye}), cfg)
    w = vacuum_port_columns(dim)
    w_dag = w.T  # W is real: a view, where w.conj().T would copy dim^3 numbers
    defect = float(np.max(np.abs(w_dag @ w - np.eye(dim))))
    _guard("isometry", defect <= STRUCTURAL_TOL, "vacuum-port defect %.3e exceeds %.1e", defect, STRUCTURAL_TOL)
    p1 = normally_ordered_gaussian(cfg.eta, cfg.beta1, dim)
    p2 = normally_ordered_gaussian(cfg.eta, cfg.beta2, dim)
    # D1's factor L is shared by each pair of outcomes, D2's R = P2 | I - P2
    pairs = {
        (Outcome.INCONCLUSIVE, Outcome.CONCLUSIVE_1): p1,
        (Outcome.CONCLUSIVE_2, Outcome.ANOMALOUS): eye - p1,
    }
    q2 = eye - p2
    slab_buffer = np.empty(dim * dim * 2 * dim, dtype=np.complex128)
    # zero-filled once: the columns W never reads stay exact zeros
    halves = np.zeros((2, dim, dim * dim), dtype=np.complex128)
    elements = _Built()
    for outcomes, left in pairs.items():
        for c in range(dim):
            # W's row (c, j) is zero unless c + j < dim, so only the first
            # width columns of block c of each half-product are read
            width = dim - c
            # a contiguous copy: filling from strided columns took 11.6 ms per
            # pair at dim 48, against 6.5 ms
            right = np.concatenate((p2[:, :width], q2[:, :width]), axis=1)
            slab = slab_buffer[: dim * dim * 2 * width].reshape(dim, dim, 2 * width)
            # slab[a, b, :] = L[a, c] * right[b, :], the entries of kron(L[:, c], R)
            # in the columns read
            np.multiply(left[:, c, None, None], right, out=slab)
            block = w_dag @ slab.reshape(dim * dim, 2 * width)
            halves[:, :, c * dim : c * dim + width] = block.reshape(dim, 2, width).swapaxes(0, 1)
        for outcome, half in zip(outcomes, halves):
            elements[outcome] = half @ w
    return PovmSet(elements, cfg)


def outcome_probabilities(
    cfg: ReceiverConfig,
    sent: complex,
    povm: PovmSet,
) -> dict[Outcome, float]:
    """Outcome distribution <sent|A_kl|sent> for a coherent input ``sent``,
    read from a POVM built for ``cfg``: its elements carry the efficiency."""
    if povm.config != cfg:
        raise ValueError(f"POVM built for {povm.config} does not match {cfg}")
    state = coherent_state(sent, cfg.dim)
    probs = {}
    for outcome in OUTCOME_ORDER:
        value = complex(np.vdot(state, povm.elements[outcome] @ state))
        if abs(value.imag) > 1e-10:
            logger.warning(
                "imaginary residue %.3e in <%s> expectation exceeds 1e-10",
                value.imag,
                outcome.label,
            )
        probs[outcome] = _clamp_probability(value.real, outcome)

    total = sum(probs.values())
    _guard(
        "probability normalization",
        abs(total - 1.0) <= STRUCTURAL_TOL,
        "outcome probabilities sum to %r, off by more than %.1e",
        total,
        STRUCTURAL_TOL,
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


def optimality_check(cfg: ReceiverConfig, povm: PovmSet) -> OptimalityReport:
    """Compare the receiver's inconclusive probability with the quantum bound.

    The bound |<alpha1|alpha2>| is evaluated from the truncated coherent-state
    vectors themselves, independently of the closed form and of the POVM.  At
    eta = 1 and adequate truncation the gap is zero to roundoff;
    any eta < 1 leaves the bound unattained.
    """
    p1 = outcome_probabilities(cfg, cfg.alpha1, povm)[Outcome.INCONCLUSIVE]
    p2 = outcome_probabilities(cfg, cfg.alpha2, povm)[Outcome.INCONCLUSIVE]
    numeric = 0.5 * (p1 + p2)
    s1, s2 = coherent_state(cfg.alpha1, cfg.dim), coherent_state(cfg.alpha2, cfg.dim)
    bound = abs(complex(np.vdot(s1, s2)))
    return OptimalityReport(numeric_inconclusive=numeric, quantum_bound=bound, gap=numeric - bound)
