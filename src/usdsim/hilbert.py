"""Truncated Fock-space linear algebra for weak coherent light on one mode.

States and operators live on the photon-number basis |0>, ..., |dim-1> of one
optical mode, as complex128 numpy arrays whose shape holds dim.  The module
provides the single-mode arrays the receiver simulation needs (coherent
states, normally ordered Gaussian operators), and the validators and the one
Gaussian-decay kernel the other modules share; it defines no array type.
``discrimination.PovmSet`` keeps and checks the POVM elements, and the
receiver's one two-mode object, its beam splitter, lives in
``discrimination`` too.

``coherent_state`` drops the Poisson tail from dim photons on; ``discrimination``
guards the lost mass 1 - |psi|^2 of every state a POVM meets at STRUCTURAL_TOL / 2.

Importing the module loads numpy only.  The factorials sqrt(k!) past k = 30
come from a port of cephes ``lgam`` (Moshier, *Methods and Programs for
Mathematical Functions*, 1989).
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

# Structural identities (hermiticity, completeness, probability sum) hold to this.
STRUCTURAL_TOL = 1e-9

# Cumulative products of sqrt(n!) switch to log space beyond this index so no
# intermediate n! overflows while small-n values remain exact products.
_LOG_FACTORIAL_SWITCH = 30

# Largest truncation whose sqrt((dim-1)!) is a finite float, read off the float
# range: the first d for which sqrt(d!) = exp(lgamma(d+1)/2) overflows (301 for
# IEEE doubles).  Fock matrices carry sqrt(j!/k!), so none is built past it.
MAX_FOCK_DIM = next(
    d for d in itertools.count(2) if 0.5 * math.lgamma(d + 1) > math.log(np.finfo(float).max)
)


class NumericalGuardError(RuntimeError):
    """A numerical guard tripped (Fock dimension, truncation adequacy,
    the ancilla POVM's dimension cap, isometry, POVM structure, probability
    normalization); ``_guard`` raises it."""


def _guard(name: str, ok: bool, detail: str, *values) -> None:
    """Fail guard ``name`` unless ``ok``, its passing comparison (value <=
    limit, which a NaN fails): the package's one raise of the error.  Its
    message is ``detail % values``, formatted only when the guard fails."""
    if not ok:
        raise NumericalGuardError(f"{name} guard: {detail % values}")


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


def check_efficiency(value: float, name: str) -> float:
    """Validate a real number in [0, 1] named ``name``: a detector efficiency,
    the kappa of ``normally_ordered_gaussian`` or a probability."""
    value = _as_real(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _as_complex(value, name: str) -> complex:
    """``value`` as a complex number with float parts; bools, strings, None
    and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return complex(_as_real(value.real, name), _as_real(value.imag, name))


def _as_amplitude(alpha: complex) -> complex:
    """``alpha`` as a complex amplitude whose mean photon number |alpha|^2 is
    a finite float."""
    alpha = _as_complex(alpha, "amplitude")
    modulus = math.hypot(alpha.real, alpha.imag)
    if not math.isfinite(modulus * modulus):
        raise ValueError(f"amplitude must be finite with finite |amplitude|^2, got {alpha!r}")
    return alpha


def _gaussian_decay(scale: float, x: complex) -> float:
    """exp(scale |x|^2) for scale <= 0, the package's one evaluation of it; once
    |x|^2 overflows a float, its limit 0, or 1 at scale 0 (0 * inf is NaN)."""
    try:
        return math.exp(scale * abs(x) ** 2)
    except OverflowError:
        return 1.0 if scale == 0.0 else 0.0


def _check_fock_range(dim: int) -> None:
    """Fock-dimension guard: sqrt(k!) must be a finite float for every level
    k < dim; checked before anything dim-sized is allocated."""
    _guard(
        "Fock dimension",
        dim <= MAX_FOCK_DIM,
        "dim=%s exceeds %s, beyond which sqrt((dim-1)!) overflows a float",
        dim,
        MAX_FOCK_DIM,
    )


# Stirling-series coefficients of cephes lgam, highest power of 1/x^2 first,
# and ln sqrt(2 pi) as cephes writes it.
_LGAM_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_factorial(ks: np.ndarray) -> np.ndarray:
    """ln k! for each k, as cephes lgam evaluates ln Gamma(x) at x = k + 1.

    The Stirling branch of lgam with the same operations in the same order and
    the libm ``log`` it calls, so every value is lgam's, bit for bit.  The
    branch holds for 13 <= x < 1000; ``_check_fock_range`` caps k at
    MAX_FOCK_DIM - 1 = 300 and the caller starts at k = 30, so x lies in
    [31, 301] and lgam's branches for x < 13 and x >= 1000 are never needed.
    """
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        x = float(k) + 1.0
        q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
        p = 1.0 / (x * x)
        series = _LGAM_STIRLING[0]
        for coeff in _LGAM_STIRLING[1:]:
            series = series * p + coeff
        out[i] = q + series / x
    return out


def _sqrt_factorials(n: int) -> np.ndarray:
    """sqrt(k!) for k = 0..n-1; cumulative product, log space for large k.

    The log-space values come from ``_log_factorial``, a port of cephes lgam
    (S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989).
    It is a port, not ``math.lgamma``, because libm's lgamma rounds
    differently: sqrt(k!) built from it differs in the last bit at 159 of
    k = 30..300, and every Fock matrix past dim 30 is built from these
    values.  The port keeps their bits with numpy alone.
    """
    _check_fock_range(n)
    out = np.empty(n)
    acc = 1.0
    for k in range(min(n, _LOG_FACTORIAL_SWITCH)):
        if k > 0:
            acc *= math.sqrt(k)
        out[k] = acc
    if n > _LOG_FACTORIAL_SWITCH:
        ks = np.arange(_LOG_FACTORIAL_SWITCH, n)
        out[_LOG_FACTORIAL_SWITCH:] = np.exp(0.5 * _log_factorial(ks))
    return out


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent state c_n = exp(-|a|^2/2) a^n / sqrt(n!), n < dim,
    as a complex128 vector.

    The amplitudes are built by the stable recurrence c_n = c_{n-1} a/sqrt(n).
    Truncation may lose norm; callers read the achieved vector norm to decide
    whether the basis was large enough.
    """
    alpha = _as_amplitude(alpha)
    check_dim(dim)
    _check_fock_range(dim)
    amps = np.empty(dim, dtype=np.complex128)
    amps[0] = _gaussian_decay(-0.5, alpha)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def _exp_creation(z: complex, dim: int, sf: np.ndarray) -> np.ndarray:
    """Lower-triangular Fock matrix of exp(z a^dag).

    <j| exp(z a^dag) |k> = z^(j-k) sqrt(j!/k!) / (j-k)!  for j >= k.
    The column z^m / m! is shared by every k; one gather fills the triangle.
    ``sf`` is ``_sqrt_factorials(dim)``, taken once by the caller for the two
    such matrices it builds.
    """
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
) -> np.ndarray:
    """Fock matrix of :exp(c0 + cd a^dag + ca a + cq a^dag a):, a complex128
    dim x dim array.

    A normally ordered exponential of this form factors exactly as

        e^{c0} * exp(cd a^dag) * (1 + cq)^n * exp(ca a),

    which matches its coherent-state matrix elements <b|:F:|g> = F(b*, g)<b|g>
    term by term.  The three factors are lower-triangular, diagonal, and
    upper-triangular, so the truncated product carries no truncation leak and
    no cancellation: the result equals the exact Fock matrix elements of the
    untruncated operator.  Coefficients that are not finite complex numbers,
    or whose matrix overflows a float, raise ValueError.
    """
    check_dim(dim)
    coeffs = tuple(_as_complex(c, "coefficient") for c in (coeff_dag, coeff_a, coeff_quad, coeff_const))
    cd, ca, cq, c0 = coeffs

    sf = _sqrt_factorials(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        left = _exp_creation(cd, dim, sf)
        right = _exp_creation(ca, dim, sf).T
        diag = np.power(1.0 + cq, np.arange(dim))
        mat = np.exp(c0) * ((left * diag[None, :]) @ right)
    if not (np.isfinite(coeffs).all() and np.isfinite(mat).all()):
        raise ValueError(f"coefficients {coeffs} must be finite and give a finite Fock matrix at dim={dim}")
    return mat


def normally_ordered_gaussian(kappa: float, alpha: complex, dim: int) -> np.ndarray:
    """Complex128 Fock matrix of :exp(-kappa (a^dag - conj(alpha)) (a - alpha)):.

    Expanding the exponent reduces this to ``normally_ordered_exponential``,
    whose triangular assembly reproduces the untruncated matrix elements
    exactly.  kappa lies in [0, 1]: the result is the identity, bit for bit
    np.eye, at kappa = 0 and the coherent projector |alpha><alpha| at 1.  The
    operator also equals D(alpha) (1-kappa)^n D(alpha)^dag with (1-kappa)^n
    diagonal in photon number; that displaced-diagonal form leaks near the top
    of a truncated basis, so it serves as an independent test oracle
    (tests/oracles.py) rather than as the construction.
    """
    kappa = check_efficiency(kappa, "kappa")
    alpha = _as_amplitude(alpha)
    return normally_ordered_exponential(
        kappa * alpha,
        kappa * np.conj(alpha),
        -kappa,
        -kappa * abs(alpha) ** 2,
        dim,
    )
