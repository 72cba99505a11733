"""Test-only reference constructions.

Each function here reaches a quantity the library builds another way, so the
tests can compare the two: dense matrix exponentials where the library uses
closed forms or per-sector blocks, a float array cast to complex where it
fills complex storage in place, the full two-mode conjugation where it uses
only the vacuum-port columns, the whole dense reduction where it streams
column slabs, the displaced receiver where it propagates amplitudes through
the fiber network, a per-draw inverse CDF from one unchunked stream
where the library counts streamed chunks of draws, and the exact sum of a
normally ordered exponential's matrix elements in 40-digit decimal where the
library multiplies triangular float factors.  None of them calls the library
code it is compared with.

It also owns the two roundoff bounds that tests comparing two descriptions of
the receiver hold them to: ``element_bound`` for the element gap between two
POVM constructions, and ``probability_bound`` for a Fock probability against
the closed forms or the fiber model.
"""

import collections
import decimal
import itertools
import math

import numpy as np
from scipy.linalg import expm

from usdsim.discrimination import OUTCOME_ORDER, Outcome, ReceiverConfig, vacuum_port_columns
from usdsim.hilbert import normally_ordered_gaussian
from usdsim.montecarlo import clean_distribution
from usdsim.multiplex import alice_emit, click_probabilities, propagate_bob


EPS = float(np.finfo(float).eps)

# c_el of element_bound.  The largest element gap measured between
# povm_analytic and povm_ancilla is 0.93 dim eps (at dim 22) over the
# derandomized examples of tests/test_cross_descriptions.py, 1.33 dim eps over
# 300 random adequate receivers with |alpha| <= 2 (dims 16-32) and 4.3 dim eps
# over 246 random adequate receivers at dims 2-48; 8 is about twice the last.
ELEMENT_FACTOR = 8.0

# c_p of probability_bound.  Beyond twice the lost mass, the largest gap
# measured of a Fock probability against the closed forms or the fiber model
# is 0.13 dim eps over the derandomized examples of
# tests/test_cross_descriptions.py and 0.17 dim eps over the 300 random
# receivers above, each read from both constructions; 0.5 is about three
# times the latter.
PROBABILITY_FACTOR = 0.5


def element_bound(dim: int) -> float:
    """c_el dim eps: how far an element of one POVM construction may lie from
    the same element of another at truncation ``dim``."""
    return ELEMENT_FACTOR * dim * EPS


def lost_mass(sent: complex, dim: int) -> float:
    """1 - |psi|^2 for psi the coherent state at ``sent`` truncated at ``dim``:
    the Poisson tail of mean |sent|^2 from ``dim`` photons on, as one minus
    the correctly rounded sum of the terms below it."""
    mean = abs(complex(sent)) ** 2
    terms = [math.exp(-mean)]
    for n in range(1, dim):
        terms.append(terms[-1] * mean / n)
    return max(0.0, 1.0 - math.fsum(terms))


def probability_bound(sent: complex, dim: int) -> float:
    """2 (1 - |psi|^2) + c_p dim eps: how far a Fock probability of the input
    ``sent``, read at truncation ``dim``, may lie from the untruncated closed
    forms or the fiber model.  The mass the truncation loses moves a
    probability by 1.0-1.6 times itself near the truncation edge."""
    return 2.0 * lost_mass(sent, dim) + PROBABILITY_FACTOR * dim * EPS


def normally_ordered_exponential_reference(
    coeff_dag: complex, coeff_a: complex, coeff_quad: complex, coeff_const: float, dim: int
) -> np.ndarray:
    """The Fock matrix of :exp(c0 + cd a^dag + ca a + cq a^dag a): from the
    exact sum of its elements,

        M[j, k] = e^c0 sum_m cd^(j-m) ca^(k-m) s^m sqrt(j! k!) / ((j-m)! (k-m)! m!),

    m = 0..min(j, k), s = 1 + cq, evaluated in the stdlib ``decimal`` at 40
    digits from the float coefficients taken exactly, with complex numbers as
    (re, im) pairs of Decimal; each element is rounded to complex128 once.
    c0 is real, as every caller of the library kernel passes it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec = decimal.Decimal

        def mul(x, y):
            return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        def scaled_powers(z):
            """z^n / n!, n < dim, for the pair z."""
            out = [(dec(1), dec(0))]
            for n in range(1, dim):
                re, im = mul(out[-1], z)
                out.append((re / n, im / n))
            return out

        cd, ca, cq = (complex(c) for c in (coeff_dag, coeff_a, coeff_quad))
        u = scaled_powers((dec(cd.real), dec(cd.imag)))
        v = scaled_powers((dec(ca.real), dec(ca.imag)))
        w = scaled_powers((1 + dec(cq.real), dec(cq.imag)))
        scale = dec(float(coeff_const)).exp()
        sqrt_factorials = [dec(math.factorial(n)).sqrt() for n in range(dim)]
        out = np.empty((dim, dim), dtype=np.complex128)
        for j in range(dim):
            for k in range(dim):
                re = im = dec(0)
                for m in range(min(j, k) + 1):
                    t_re, t_im = mul(mul(u[j - m], v[k - m]), w[m])
                    re += t_re
                    im += t_im
                factor = scale * sqrt_factorials[j] * sqrt_factorials[k]
                out[j, k] = complex(float(re * factor), float(im * factor))
    return out


def default_dim(*alphas: complex) -> int:
    """Truncation size keeping coherent-state norm loss below ~1e-10.

    Uses dim = max(16, ceil(|a|^2 + 8|a| + 12)) for the largest amplitude in
    play; generous Poisson-tail headroom for |a| <= 2 at desk-scale cost.
    """
    m = max((abs(complex(a)) for a in alphas), default=0.0)
    return max(16, math.ceil(m * m + 8.0 * m + 12.0))


def annihilation(dim: int) -> np.ndarray:
    """Single-mode annihilation operator: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def unitary_defect(u: np.ndarray) -> float:
    """max|U^dag U - I|, the truncation leak of a truncated unitary."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) by dense matrix exponential.

    The truncated generator makes the result leak near the top of the basis;
    ``unitary_defect`` measures how much.
    """
    a = annihilation(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def beam_splitter_generator(power_transmission: float, dim: int) -> np.ndarray:
    """Dense theta*(a^dag v - a v^dag) with cos^2(theta) = t, mode 1 slowest:
    with a = A (x) I and v = I (x) A, a^dag v = A^dag (x) A."""
    t = power_transmission
    theta = math.atan2(math.sqrt(1.0 - t), math.sqrt(t))
    a = annihilation(dim)
    return theta * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))


def port_parity(dim: int) -> np.ndarray:
    """Phase (-1)^(n_v) on the two-mode basis, n_v the second-mode number."""
    return np.where(np.arange(dim * dim) % dim % 2 == 1, -1.0, 1.0)


def vacuum_columns_reference(power_transmission: float, dim: int) -> np.ndarray:
    """The vacuum-port columns U|n, 0> as a float array filled sector by
    sector, times the port parity, then cast to complex128.

    Each sector |n1, total - n1>, n1 = 0..total, gets its own generator block
    with the entries theta*sqrt((n1+1)(total-n1)) the library writes, so at
    t = 1/2 (theta = pi/4 exactly) the result pins the bits of
    ``vacuum_port_columns``, which fills complex storage in place instead.
    """
    t = power_transmission
    theta = math.atan2(math.sqrt(1.0 - t), math.sqrt(t))
    w = np.zeros((dim * dim, dim))
    w[0, 0] = 1.0
    for total in range(1, dim):
        block = np.zeros((total + 1, total + 1))
        for n1 in range(total):
            entry = theta * math.sqrt((n1 + 1) * (total - n1))
            block[n1 + 1, n1] = entry
            block[n1, n1 + 1] = -entry
        rows = [n1 * dim + (total - n1) for n1 in range(total + 1)]
        w[rows, total] = expm(block)[:, total]
    return (port_parity(dim)[:, None] * w).astype(np.complex128)


def beam_splitter_unitary(power_transmission: float, dim: int) -> np.ndarray:
    """Two-mode beam splitter (-1)^(n_v) exp(generator) on dim^2 x dim^2.

    The generator conserves total photon number, so its exponential is taken
    on each sector's block of the dense generator, far cheaper than one expm
    of the whole dim^2 x dim^2 generator.
    """
    gen = beam_splitter_generator(power_transmission, dim)
    total = np.arange(dim * dim) // dim + np.arange(dim * dim) % dim
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for n in range(2 * dim - 1):
        sector = np.ix_(total == n, total == n)
        u[sector] = expm(gen[sector])
    return port_parity(dim)[:, None] * u


def ancilla_projections(cfg) -> dict:
    """The four two-mode operators measured behind the beam splitter.

    Mode 1 carries the first output (displaced detection at beta1), mode 2
    the second; the products of the no-click operators
    :exp(-eta (b^dag - beta_i*)(b - beta_i)): and their complements form a
    complete measurement on the two-mode space, projective at eta = 1.
    """
    p1 = normally_ordered_gaussian(cfg.eta, cfg.beta1, cfg.dim)
    p2 = normally_ordered_gaussian(cfg.eta, cfg.beta2, cfg.dim)
    q1, q2 = np.eye(cfg.dim) - p1, np.eye(cfg.dim) - p2
    return {
        Outcome.INCONCLUSIVE: np.kron(p1, p2),
        Outcome.CONCLUSIVE_1: np.kron(p1, q2),
        Outcome.CONCLUSIVE_2: np.kron(q1, p2),
        Outcome.ANOMALOUS: np.kron(q1, q2),
    }


def conjugated_ancilla_povm(cfg) -> dict:
    """The ancilla POVM the literal way: conjugate each two-mode operator
    by the full 50:50 unitary, then take the vacuum expectation
    <m, 0| . |n, 0> over the unused port."""
    d = cfg.dim
    u = beam_splitter_unitary(0.5, d)
    return {
        outcome: (u.conj().T @ proj @ u).reshape(d, d, d, d)[:, 0, :, 0]
        for outcome, proj in ancilla_projections(cfg).items()
    }


def dense_ancilla_povm(cfg) -> dict:
    """The ancilla POVM by the dense reduction W^dag kron(L, R) W over the
    vacuum-port columns W, one whole dim^4 * 16-byte two-mode operator per
    outcome: the product that povm_ancilla evaluates in column slabs.

    W is the library's ``vacuum_port_columns`` on purpose: this oracle pins
    the reduction given W, so it shares W's bits with povm_ancilla; W itself
    is pinned by ``vacuum_columns_reference``."""
    w = vacuum_port_columns(cfg.dim)
    return {
        outcome: w.conj().T @ proj @ w for outcome, proj in ancilla_projections(cfg).items()
    }


def fiber_receiver(cfg) -> tuple[ReceiverConfig, tuple[complex, complex]]:
    """The displaced two-detector receiver that Bob's network is inside the
    coincidence window, and the amplitude it receives for bit 0 and bit 1.

    Bit 0 arrives as vacuum and bit 1 as s = T gamma sqrt(c), so alpha1 = 0
    and alpha2 = s.  At the balanced tap tau = 1/(2-T) each detector sees
    kappa = eta (1-T)^2 / (2-T) of the intensity, which the receiver's
    kappa = eta'/2 matches at eta' = 2 eta (1-T)^2 / (2-T).
    """
    t = cfg.splitter_transmission
    signal = t * cfg.gamma * math.sqrt(cfg.channel_transmission)
    eta = 2.0 * cfg.eta * (1.0 - t) ** 2 / (2.0 - t)
    return ReceiverConfig(0.0, signal, default_dim(signal), eta), (0.0, signal)


def reference_outcomes(dist: dict, u: np.ndarray) -> list:
    """The outcome drawn by each uniform in ``u`` from the distribution
    ``dist``, one draw at a time by literal inverse CDF: the index into
    OUTCOME_ORDER is the number of cumulative cleaned probabilities at or
    below the uniform, capped at the last outcome."""
    cum = list(itertools.accumulate(clean_distribution(dist).tolist()))
    last = len(OUTCOME_ORDER) - 1
    return [OUTCOME_ORDER[min(sum(c <= x for c in cum), last)] for x in u.tolist()]


def reference_counts(dist: dict, u: np.ndarray) -> dict:
    """Count of each outcome, zeros included, among ``reference_outcomes``."""
    drawn = collections.Counter(reference_outcomes(dist, u))
    return {o: drawn[o] for o in OUTCOME_ORDER}


def reference_protocol(cfg, rng) -> tuple[dict, int, int]:
    """Outcome counts, sifted rounds and bit errors of the protocol run with
    ``cfg`` on the stream ``rng``, classified one round at a time.  One
    unchunked generator on ``rng`` gives all the bits first, then one uniform
    per round; a D1 click (CONCLUSIVE_2) reads bit 1, a D2 click bit 0."""
    gen = rng.generator()
    bits = gen.integers(0, 2, size=cfg.rounds).tolist()
    u = gen.random(cfg.rounds)
    drawn = {
        bit: reference_outcomes(
            click_probabilities(propagate_bob(alice_emit(bit, cfg), cfg), cfg.eta), u
        )
        for bit in (0, 1)
    }
    counts = dict.fromkeys(OUTCOME_ORDER, 0)
    sifted = errors = 0
    for i, bit in enumerate(bits):
        outcome = drawn[bit][i]
        counts[outcome] += 1
        if outcome in (Outcome.CONCLUSIVE_1, Outcome.CONCLUSIVE_2):
            sifted += 1
            errors += (outcome is Outcome.CONCLUSIVE_2) != bit
    return counts, sifted, errors
