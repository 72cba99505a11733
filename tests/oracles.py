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
library multiplies triangular float factors, the four POVM elements
combined from three such sums in decimal where ``povm_analytic`` combines
float Gaussians, and the vacuum-port reduction summed over binomial columns
in decimal where ``povm_ancilla`` multiplies tabulated float columns.  None
of them calls the library code it is compared with.

It also owns the roundoff bounds that tests comparing two descriptions of
the receiver hold them to: ``element_bound`` for the element gap between two
POVM constructions, ``reference_bound`` and ``ancilla_reference_bound`` for
``povm_analytic`` and ``povm_ancilla`` against their decimal references, and
``probability_bound`` for a Fock probability against the closed forms or the
fiber model.
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
from usdsim.multiplex import click_probabilities, propagate_bob


EPS = float(np.finfo(float).eps)

# Working precision of the decimal references.
DECIMAL_DIGITS = 40

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


# c_ref of reference_bound.  The largest gap measured between an element of
# povm_analytic and the same element of povm_analytic_reference is 0.0625 dim
# eps over the eight receivers of
# tests/test_discrimination.py::TestAnalyticPovm::test_elements_match_the_decimal_sums
# (dims 16 and 32, real and complex pairs, eta 1 and 0.6) and 0.57 dim eps
# over 300 random adequate receivers at dims 2-32 and any efficiency (8.6 eps
# at dim 15 and eta 0.019, where A_11 = I - Q1 - Q2 + Q12 cancels to about
# eta^2); 1 is about twice the latter.
REFERENCE_FACTOR = 1.0


# c_anc of ancilla_reference_bound.  The largest gap measured between an
# element of povm_ancilla and the same element of povm_ancilla_reference is
# 3.75 and 3.64 dim eps over two sets of 320 and 300 random adequate
# receivers at dims 2-24 (|alpha| <= 2, eta 1 or uniform), and 4.2 dim eps
# over 400 more at dims 2-10, each at dim 6 or 7; at dims 12-24 it is at most
# 2.1 dim eps.  8 is about twice the largest.
ANCILLA_REFERENCE_FACTOR = 8.0


def reference_bound(dim: int) -> float:
    """c_ref dim eps: how far an element of ``povm_analytic`` may lie from the
    decimal ``povm_analytic_reference`` at truncation ``dim``."""
    return REFERENCE_FACTOR * dim * EPS


def ancilla_reference_bound(dim: int) -> float:
    """c_anc dim eps: how far an element of ``povm_ancilla`` may lie from the
    decimal ``povm_ancilla_reference`` at truncation ``dim``."""
    return ANCILLA_REFERENCE_FACTOR * dim * EPS


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


def _exact_exponential(cd, ca, s, c0, dim) -> list:
    """The elements of :exp(c0 + cd a^dag + ca a + (s - 1) a^dag a): as rows
    of (re, im) pairs of Decimal, from the exact sum

        M[j, k] = e^c0 sum_m cd^(j-m) ca^(k-m) s^m sqrt(j! k!) / ((j-m)! (k-m)! m!),

    m = 0..min(j, k), for cd, ca and s given as (re, im) pairs of Decimal and
    c0 as a real Decimal, at the precision of the caller's decimal context."""
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

    u, v, w = scaled_powers(cd), scaled_powers(ca), scaled_powers(s)
    scale = c0.exp()
    sqrt_factorials = [dec(math.factorial(n)).sqrt() for n in range(dim)]
    rows = []
    for j in range(dim):
        row = []
        for k in range(dim):
            re = im = dec(0)
            for m in range(min(j, k) + 1):
                t_re, t_im = mul(mul(u[j - m], v[k - m]), w[m])
                re += t_re
                im += t_im
            factor = scale * sqrt_factorials[j] * sqrt_factorials[k]
            row.append((re * factor, im * factor))
        rows.append(row)
    return rows


def _rounded(rows) -> np.ndarray:
    """Rows of (re, im) Decimal pairs, each rounded to complex128 once."""
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


def normally_ordered_exponential_reference(
    coeff_dag: complex, coeff_a: complex, coeff_quad: complex, coeff_const: float, dim: int
) -> np.ndarray:
    """The Fock matrix of :exp(c0 + cd a^dag + ca a + cq a^dag a): from the
    exact sum of its elements (``_exact_exponential``), evaluated in the
    stdlib ``decimal`` at DECIMAL_DIGITS digits from the float coefficients
    taken exactly, with complex numbers as (re, im) pairs of Decimal; each
    element is rounded to complex128 once.  c0 is real, as every caller of
    the library kernel passes it."""
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        dec = decimal.Decimal
        cd, ca, cq = ((dec(c.real), dec(c.imag)) for c in map(complex, (coeff_dag, coeff_a, coeff_quad)))
        s = (1 + cq[0], cq[1])
        return _rounded(_exact_exponential(cd, ca, s, dec(float(coeff_const)), dim))


def povm_analytic_reference(cfg) -> dict:
    """The four elements of the receiver ``cfg`` on the signal mode, from the
    exact sums of Q_i = :exp(-kappa (a^dag - alpha_i*)(a - alpha_i)):, kappa =
    eta / 2, and of their product :Q1 Q2:, whose exponent is the sum of the
    two.  Coefficients are formed and the elements

        A_00 = :Q1 Q2:, A_01 = :Q1: - :Q1 Q2:, A_10 = :Q2: - :Q1 Q2:,
        A_11 = I - :Q1: - :Q2: + :Q1 Q2:

    combined in DECIMAL_DIGITS-digit decimal from the float amplitudes and
    efficiency taken exactly; each element is rounded to complex128 once."""
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        dec = decimal.Decimal
        kappa = dec(cfg.eta) / 2
        (r1, i1), (r2, i2) = ((dec(a.real), dec(a.imag)) for a in (cfg.alpha1, cfg.alpha2))
        n1, n2 = r1 * r1 + i1 * i1, r2 * r2 + i2 * i2

        def gaussian(re, im, quad, const):
            """:exp(const + kappa (re + i im) a^dag + kappa (re - i im) a + quad a^dag a):"""
            cd, ca = (kappa * re, kappa * im), (kappa * re, -kappa * im)
            return _exact_exponential(cd, ca, (1 + quad, dec(0)), const, cfg.dim)

        q1 = gaussian(r1, i1, -kappa, -kappa * n1)
        q2 = gaussian(r2, i2, -kappa, -kappa * n2)
        q12 = gaussian(r1 + r2, i1 + i2, -2 * kappa, -kappa * (n1 + n2))

        def signed_sum(eye, *terms):
            """``eye`` times I plus the sum of sign * matrix over the
            (sign, matrix) ``terms``, element by element."""
            return [
                [
                    (
                        eye * (j == k) + sum(sign * m[j][k][0] for sign, m in terms),
                        sum(sign * m[j][k][1] for sign, m in terms),
                    )
                    for k in range(cfg.dim)
                ]
                for j in range(cfg.dim)
            ]

        return {
            Outcome.INCONCLUSIVE: _rounded(q12),
            Outcome.CONCLUSIVE_1: _rounded(signed_sum(0, (1, q1), (-1, q12))),
            Outcome.CONCLUSIVE_2: _rounded(signed_sum(0, (1, q2), (-1, q12))),
            Outcome.ANOMALOUS: _rounded(signed_sum(1, (-1, q1), (-1, q2), (1, q12))),
        }


def povm_ancilla_reference(cfg) -> dict:
    """The four elements of the receiver ``cfg`` the ancilla way, from the
    exact sums of the vacuum-port reduction

        A[m, n] = sum_(a <= m, c <= n) V[a, m] L[a, c] R[m - a, n - c] V[c, n],

    V[a, n] = sqrt(C(n, a) / 2^n) the entry of the 50:50 column U|n, 0> at
    |a, n - a>, port parity included, and L (x) R the detectors'
    two-mode operator: L is P1 or I - P1 and R is P2 or I - P2, for the
    no-click operators P_i = :exp(-eta (b^dag - beta_i*)(b - beta_i)): as
    ``_exact_exponential`` sums them.  Evaluated in DECIMAL_DIGITS-digit
    decimal from the float beta1, beta2 and efficiency taken exactly; each
    element is rounded to complex128 once."""
    dim = cfg.dim
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        dec = decimal.Decimal
        eta = dec(cfg.eta)
        # v[a][n] = V[a, n], 0 for a > n
        v = [[(dec(math.comb(n, a)) / 2**n).sqrt() for n in range(dim)] for a in range(dim)]

        def no_click(beta):
            re, im = dec(beta.real), dec(beta.imag)
            cd, ca = (eta * re, eta * im), (eta * re, -eta * im)
            return _exact_exponential(cd, ca, (1 - eta, dec(0)), -eta * (re * re + im * im), dim)

        def complement(p):
            return [[(dec(j == k) - re, -im) for k, (re, im) in enumerate(row)] for j, row in enumerate(p)]

        def reduced(left, right):
            rows = []
            for m in range(dim):
                row = []
                for n in range(dim):
                    re = im = dec(0)
                    for a in range(m + 1):
                        for c in range(n + 1):
                            (l_re, l_im), (r_re, r_im) = left[a][c], right[m - a][n - c]
                            weight = v[a][m] * v[c][n]
                            re += weight * (l_re * r_re - l_im * r_im)
                            im += weight * (l_re * r_im + l_im * r_re)
                    row.append((re, im))
                rows.append(row)
            return rows

        p1, p2 = no_click(cfg.beta1), no_click(cfg.beta2)
        q1, q2 = complement(p1), complement(p2)
        return {
            Outcome.INCONCLUSIVE: _rounded(reduced(p1, p2)),
            Outcome.CONCLUSIVE_1: _rounded(reduced(p1, q2)),
            Outcome.CONCLUSIVE_2: _rounded(reduced(q1, p2)),
            Outcome.ANOMALOUS: _rounded(reduced(q1, q2)),
        }


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
        bit: reference_outcomes(click_probabilities(propagate_bob(bit, cfg), cfg.eta), u) for bit in (0, 1)
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
