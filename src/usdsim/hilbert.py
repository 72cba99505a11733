"""Truncated Fock-space linear algebra for weak coherent light.

States and operators live on the photon-number basis |0>, ..., |dim-1> of one
or two optical modes.  The module provides the handful of objects the receiver
simulation needs: coherent states, displacement operators, beam-splitter
unitaries and their vacuum-port columns, normally ordered Gaussian operators,
tensor products, and partial vacuum expectations.

Conventions (fixed, do not change silently):
  * two-mode basis index = n1 * dim + n2, i.e. mode 1 varies slowest;
  * beam splitter with power transmission t maps annihilation operators as
        b1 =  sqrt(t)   a + sqrt(1-t) v
        b2 =  sqrt(1-t) a - sqrt(t)   v
    (real orthogonal, no reflection phases);
  * displacement D(alpha) = exp(alpha a^dag - conj(alpha) a).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

__all__ = [
    "NumericalGuardError",
    "TruncatedState",
    "TruncatedOperator",
    "CoherentResult",
    "STRUCTURAL_TOL",
    "CROSS_ORACLE_TOL",
    "ADEQUACY_MIN_NORM",
    "check_dim",
    "check_efficiency",
    "default_dim",
    "annihilation",
    "identity",
    "vacuum_state",
    "coherent_state",
    "displacement_operator",
    "beam_splitter_unitary",
    "beam_splitter_vacuum_columns",
    "normally_ordered_gaussian",
    "normally_ordered_exponential",
    "tensor",
    "vacuum_expectation",
    "expectation",
    "overlap",
]

# Structural identities (hermiticity, completeness) must hold to this level;
# agreement between independent constructions gets one extra decade of slack.
STRUCTURAL_TOL = 1e-9
CROSS_ORACLE_TOL = 1e-8

# A coherent state whose truncated norm falls below this is considered
# inadequately resolved and rejected by the guarded constructors downstream.
ADEQUACY_MIN_NORM = 1.0 - 1e-8

# Cumulative products of sqrt(n!) switch to log space beyond this index so the
# helper stays finite for any dim while small-n values remain exact products.
_LOG_FACTORIAL_SWITCH = 30


class NumericalGuardError(RuntimeError):
    """A numerical guard tripped (truncation adequacy, workspace caps)."""


def _as_integer(value, name: str) -> int:
    """``value`` as an int; bools and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_real(value, name: str) -> float:
    """``value`` as a float; bools, strings, None and non-real numbers are
    rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def check_dim(dim: int) -> int:
    """Validate a Fock-space truncation size (at least the levels |0>, |1>)."""
    dim = _as_integer(dim, "Fock dimension")
    if dim < 2:
        raise ValueError(f"Fock dimension must be >= 2, got {dim}")
    return dim


def check_efficiency(eta: float) -> float:
    """Validate a detector efficiency, a real number in [0, 1]."""
    eta = _as_real(eta, "detector efficiency")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detector efficiency must lie in [0, 1], got {eta}")
    return eta


def _as_amplitude(alpha: complex) -> complex:
    """``alpha`` as a complex amplitude whose mean photon number |alpha|^2 is
    a finite float; bools, strings, None and non-numbers are rejected."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Complex):
        raise ValueError(f"amplitude must be a number, got {alpha!r}")
    alpha = complex(_as_real(alpha.real, "amplitude"), _as_real(alpha.imag, "amplitude"))
    modulus = math.hypot(alpha.real, alpha.imag)
    if not math.isfinite(modulus * modulus):
        raise ValueError(f"amplitude must be finite with finite |amplitude|^2, got {alpha!r}")
    return alpha


def default_dim(*alphas: complex) -> int:
    """Truncation size keeping coherent-state norm loss below ~1e-10.

    Uses dim = max(16, ceil(|a|^2 + 8|a| + 12)) for the largest amplitude in
    play; generous Poisson-tail headroom for |a| <= 2 at desk-scale cost.
    """
    if not alphas:
        return 16
    m = max(abs(_as_amplitude(a)) for a in alphas)
    return max(16, math.ceil(m * m + 8.0 * m + 12.0))


def _sqrt_factorials(n: int) -> np.ndarray:
    """sqrt(k!) for k = 0..n-1; cumulative product, log space for large k."""
    out = np.empty(n)
    acc = 1.0
    for k in range(min(n, _LOG_FACTORIAL_SWITCH)):
        if k > 0:
            acc *= math.sqrt(k)
        out[k] = acc
    if n > _LOG_FACTORIAL_SWITCH:
        ks = np.arange(_LOG_FACTORIAL_SWITCH, n)
        out[_LOG_FACTORIAL_SWITCH:] = np.exp(0.5 * gammaln(ks + 1.0))
    return out


@dataclass(frozen=True, eq=False)
class TruncatedState:
    """Complex amplitude vector over the truncated Fock basis of 1 or 2 modes."""

    dim: int
    modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_dim(self.dim)
        if self.modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {self.modes}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.dim**self.modes:
            raise ValueError(
                f"amplitude vector has length {amps.size}, "
                f"expected dim^modes = {self.dim**self.modes}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Complex matrix on a truncated 1- or 2-mode Fock space.

    ``unitary_defect`` is filled in by the unitary constructors with the
    measured max-norm of U^dag U - I so callers can see the truncation leak.
    """

    dim: int
    modes: int
    matrix: np.ndarray
    unitary_defect: float | None = None

    def __post_init__(self):
        check_dim(self.dim)
        if self.modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {self.modes}")
        n = self.dim**self.modes
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (n, n):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        object.__setattr__(self, "matrix", mat)

    def _check_compatible(self, other: "TruncatedOperator | TruncatedState"):
        if self.dim != other.dim or self.modes != other.modes:
            raise ValueError(
                f"dimension mismatch: (dim={self.dim}, modes={self.modes}) vs "
                f"(dim={other.dim}, modes={other.modes})"
            )

    def dag(self) -> "TruncatedOperator":
        return TruncatedOperator(self.dim, self.modes, self.matrix.conj().T)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def is_hermitian(self, tol: float = STRUCTURAL_TOL) -> bool:
        return self.hermiticity_defect() <= tol

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def __matmul__(self, other):
        if isinstance(other, TruncatedOperator):
            self._check_compatible(other)
            return TruncatedOperator(self.dim, self.modes, self.matrix @ other.matrix)
        if isinstance(other, TruncatedState):
            self._check_compatible(other)
            return TruncatedState(self.dim, self.modes, self.matrix @ other.amplitudes)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedOperator(self.dim, self.modes, self.matrix + other.matrix)

    def __sub__(self, other):
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedOperator(self.dim, self.modes, self.matrix - other.matrix)

    def __rmul__(self, scalar):
        return TruncatedOperator(self.dim, self.modes, complex(scalar) * self.matrix)


class CoherentResult(NamedTuple):
    """A truncated coherent state together with the norm it achieved."""

    state: TruncatedState
    norm: float


def annihilation(dim: int) -> np.ndarray:
    """Single-mode annihilation operator: a|n> = sqrt(n)|n-1>."""
    check_dim(dim)
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def identity(dim: int, modes: int = 1) -> TruncatedOperator:
    check_dim(dim)
    return TruncatedOperator(dim, modes, np.eye(dim**modes, dtype=np.complex128))


def vacuum_state(dim: int, modes: int = 1) -> TruncatedState:
    check_dim(dim)
    amps = np.zeros(dim**modes, dtype=np.complex128)
    amps[0] = 1.0
    return TruncatedState(dim, modes, amps)


def coherent_state(alpha: complex, dim: int) -> CoherentResult:
    """Truncated coherent state c_n = exp(-|a|^2/2) a^n / sqrt(n!).

    The amplitudes are built by the stable recurrence c_n = c_{n-1} a/sqrt(n).
    Truncation may lose norm; the achieved norm is returned so callers can
    decide whether the basis was large enough.
    """
    alpha = _as_amplitude(alpha)
    check_dim(dim)
    amps = np.empty(dim, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    state = TruncatedState(dim, 1, amps)
    return CoherentResult(state, state.norm())


def displacement_operator(alpha: complex, dim: int) -> TruncatedOperator:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated space.

    Built by dense matrix exponential of the tridiagonal generator; the
    resulting truncation leak max|U^dag U - I| is measured and attached to the
    returned operator rather than hidden.
    """
    alpha = _as_amplitude(alpha)
    check_dim(dim)
    a = annihilation(dim)
    gen = alpha * a.conj().T - np.conj(alpha) * a
    mat = expm(gen)
    defect = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
    return TruncatedOperator(dim, 1, mat, unitary_defect=defect)


def _mixing_angle(power_transmission: float) -> float:
    """Beam-splitter angle theta with cos^2(theta) = t, after validating t."""
    t = _as_real(power_transmission, "power transmission")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"power transmission must lie in [0, 1], got {t}")
    return math.atan2(math.sqrt(1.0 - t), math.sqrt(t))


def _port_parity(dim: int) -> np.ndarray:
    """Phase (-1)^(n_v) on the two-mode basis, n_v the second-mode number."""
    return np.where(np.arange(dim * dim) % dim % 2 == 1, -1.0, 1.0)


def _sector_block(theta: float, total: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices and exponentiated generator of one photon-number sector.

    The sector holds |n1, total - n1> for the n1 that fit in the truncation,
    ordered by increasing n1, so for total < dim its last state is |total, 0>.
    """
    lo = max(0, total - dim + 1)
    hi = min(total, dim - 1)
    size = hi - lo + 1
    block = np.zeros((size, size))
    for i in range(size - 1):
        n1 = lo + i
        n2 = total - n1
        # couples |n1, n2> -> |n1+1, n2-1> with weight theta*sqrt((n1+1) n2)
        w = theta * math.sqrt((n1 + 1) * n2)
        block[i + 1, i] = w
        block[i, i + 1] = -w
    eblock = expm(block) if size > 1 else np.ones((1, 1))
    idx = np.array([(lo + i) * dim + (total - lo - i) for i in range(size)])
    return idx, eblock


def beam_splitter_unitary(power_transmission: float, dim: int) -> TruncatedOperator:
    """Two-mode beam-splitter unitary for the fixed real orthogonal convention.

    Heisenberg action: b1 = sqrt(t) a + sqrt(1-t) v,  b2 = sqrt(1-t) a - sqrt(t) v.
    Equivalently, coherent amplitudes transform by the same 2x2 matrix, so the
    50:50 case sends |alpha> (x) |0> to |alpha/sqrt2> (x) |alpha/sqrt2>.

    The generator theta*(a^dag v - a v^dag) conserves total photon number, so
    it is exponentiated sector by sector (cheap), then composed with the
    parity phase (-1)^(n_v) that supplies the sign of the second output row.
    Up to that phase and a permutation the unitary is block diagonal, so the
    max-norm of U^dag U - I is the largest E^T E - I over the sector blocks E.
    """
    theta = _mixing_angle(power_transmission)
    check_dim(dim)

    n = dim * dim
    u = np.zeros((n, n))
    defect = 0.0
    for total in range(2 * dim - 1):
        idx, eblock = _sector_block(theta, total, dim)
        u[np.ix_(idx, idx)] = eblock
        defect = max(defect, float(np.max(np.abs(eblock.T @ eblock - np.eye(idx.size)))))

    mat = (_port_parity(dim)[:, None] * u).astype(np.complex128)
    return TruncatedOperator(dim, 2, mat, unitary_defect=defect)


def beam_splitter_vacuum_columns(power_transmission: float, dim: int) -> np.ndarray:
    """Columns U|n, 0>, n = 0..dim-1, of the beam splitter: a dim^2 x dim isometry.

    |n, 0> is the last state of photon-number sector n, so column n is the last
    column of that sector's block and sectors with total >= dim are never
    built.  The result equals ``beam_splitter_unitary(t, dim).matrix[:, ::dim]``
    bit for bit.
    """
    theta = _mixing_angle(power_transmission)
    check_dim(dim)

    w = np.zeros((dim * dim, dim))
    for total in range(dim):
        idx, eblock = _sector_block(theta, total, dim)
        w[idx, total] = eblock[:, total]
    return (_port_parity(dim)[:, None] * w).astype(np.complex128)


def _exp_creation(z: complex, dim: int) -> np.ndarray:
    """Lower-triangular Fock matrix of exp(z a^dag).

    <j| exp(z a^dag) |k> = z^(j-k) sqrt(j!/k!) / (j-k)!  for j >= k.
    The column z^m / m! is shared by every k; one gather fills the triangle.
    """
    sf = _sqrt_factorials(dim)
    col = np.empty(dim, dtype=np.complex128)
    col[0] = 1.0
    for m in range(1, dim):
        col[m] = col[m - 1] * z / m
    j, k = np.tril_indices(dim)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[j, k] = col[j - k] * (sf[j] / sf[k])
    return mat


def normally_ordered_exponential(
    coeff_dag: complex,
    coeff_a: complex,
    coeff_quad: complex,
    coeff_const: complex,
    dim: int,
) -> TruncatedOperator:
    """Fock matrix of :exp(c0 + cd a^dag + ca a + cq a^dag a):.

    A normally ordered exponential of this form factors exactly as

        e^{c0} * exp(cd a^dag) * (1 + cq)^n * exp(ca a),

    which matches its coherent-state matrix elements <b|:F:|g> = F(b*, g)<b|g>
    term by term.  The three factors are lower-triangular, diagonal, and
    upper-triangular, so the truncated product carries no truncation leak and
    no cancellation: the result equals the exact Fock matrix elements of the
    untruncated operator.
    """
    check_dim(dim)
    cd, ca, cq, c0 = map(_as_amplitude, (coeff_dag, coeff_a, coeff_quad, coeff_const))

    left = _exp_creation(cd, dim)
    right = _exp_creation(ca, dim).T
    diag = np.power(1.0 + cq, np.arange(dim))
    mat = np.exp(c0) * ((left * diag[None, :]) @ right)
    return TruncatedOperator(dim, 1, mat)


def normally_ordered_gaussian(kappa: float, alpha: complex, dim: int) -> TruncatedOperator:
    """Matrix of :exp(-kappa (a^dag - conj(alpha)) (a - alpha)):.

    Expanding the exponent reduces this to ``normally_ordered_exponential``,
    whose triangular assembly reproduces the untruncated matrix elements
    exactly; at kappa = 1 the result is the coherent projector
    |alpha><alpha|.  The operator also equals D(alpha) (1-kappa)^n D(alpha)^dag
    with (1-kappa)^n diagonal in photon number; that displaced-diagonal form
    leaks near the top of a truncated basis, so it serves as an independent
    test oracle rather than as the construction.
    """
    kappa = _as_real(kappa, "kappa")
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    alpha = _as_amplitude(alpha)
    check_dim(dim)
    return normally_ordered_exponential(
        kappa * alpha,
        kappa * np.conj(alpha),
        -kappa,
        -kappa * abs(alpha) ** 2,
        dim,
    )


def tensor(a, b):
    """Kronecker composite of two single-mode objects of the same kind.

    Mode ordering: the first factor is mode 1 and its index varies slowest,
    i.e. the composite basis index is n1 * dim + n2.
    """
    if isinstance(a, TruncatedState) and isinstance(b, TruncatedState):
        if a.dim != b.dim:
            raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
        if a.modes != 1 or b.modes != 1:
            raise ValueError("tensor requires single-mode factors")
        return TruncatedState(a.dim, 2, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, TruncatedOperator) and isinstance(b, TruncatedOperator):
        if a.dim != b.dim:
            raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
        if a.modes != 1 or b.modes != 1:
            raise ValueError("tensor requires single-mode factors")
        return TruncatedOperator(a.dim, 2, np.kron(a.matrix, b.matrix))
    raise ValueError("tensor requires two states or two operators")


def vacuum_expectation(op: TruncatedOperator, vacuum_mode: int) -> TruncatedOperator:
    """Partial vacuum expectation <m, 0| op |n, 0> over the designated mode.

    ``vacuum_mode`` names the slot (1 or 2) in which the vacuum is fixed; the
    result is a single-mode operator on the remaining slot.
    """
    if op.modes != 2:
        raise ValueError("vacuum_expectation requires a two-mode operator")
    if vacuum_mode not in (1, 2):
        raise ValueError(f"mode index must be 1 or 2, got {vacuum_mode}")
    d = op.dim
    blocks = op.matrix.reshape(d, d, d, d)
    if vacuum_mode == 2:
        reduced = blocks[:, 0, :, 0]
    else:
        reduced = blocks[0, :, 0, :]
    return TruncatedOperator(d, 1, reduced.copy())


def expectation(op: TruncatedOperator, state: TruncatedState) -> complex:
    """<state| op |state> without normalizing the state."""
    op._check_compatible(state)
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def overlap(a: TruncatedState, b: TruncatedState) -> complex:
    """Inner product <a|b> of two truncated states."""
    if a.dim != b.dim or a.modes != b.modes:
        raise ValueError(
            f"dimension mismatch: (dim={a.dim}, modes={a.modes}) vs "
            f"(dim={b.dim}, modes={b.modes})"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
