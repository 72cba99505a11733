import math

import golden_env
import numpy as np
import oracles
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from usdsim import hilbert as h
from usdsim._sector_columns import SECTOR_COLUMNS
from usdsim.discrimination import MAX_ANCILLA_DIM, vacuum_port_columns


def coherent_amplitudes_reference(alpha, dim):
    """Independent coherent expansion, term by term with explicit factorials."""
    return np.array(
        [
            math.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
            for n in range(dim)
        ],
        dtype=complex,
    )


class TestCoherentState:
    def test_vacuum_case(self):
        state = h.coherent_state(0.0, 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(state, expected)
        assert np.linalg.norm(state) == 1.0

    def test_norm_against_partial_poisson_sum(self):
        # oracle: norm^2 is the Poisson(|alpha|^2) mass below the cutoff
        state = h.coherent_state(1.0, 32)
        norm = np.linalg.norm(state)
        mass = math.fsum(math.exp(-1.0) / math.factorial(n) for n in range(32))
        assert norm**2 == pytest.approx(mass, abs=1e-14)
        assert norm >= 1.0 - 1e-12

    def test_amplitudes_match_reference_expansion(self):
        alpha = 0.7 - 0.4j
        state = h.coherent_state(alpha, 24)
        np.testing.assert_allclose(state, coherent_amplitudes_reference(alpha, 24), atol=1e-14)

    def test_overlap_modulus_matches_closed_form(self):
        a1, a2 = 0.5, -0.5
        s1 = h.coherent_state(a1, 32)
        s2 = h.coherent_state(a2, 32)
        assert abs(np.vdot(s1, s2)) == pytest.approx(math.exp(-0.5 * abs(a1 - a2) ** 2), abs=1e-10)

    def test_overlap_modulus_complex_amplitudes(self):
        a1, a2 = 0.9j, 0.1
        s1 = h.coherent_state(a1, 48)
        s2 = h.coherent_state(a2, 48)
        assert abs(np.vdot(s1, s2)) == pytest.approx(math.exp(-0.5 * abs(a1 - a2) ** 2), abs=1e-12)

    def test_norm_never_exceeds_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = complex(*rng.uniform(-1.5, 1.5, 2))
            assert np.linalg.norm(h.coherent_state(alpha, 20)) <= 1.0 + 1e-12

    def test_adequacy_guard_region(self):
        # |alpha|^2 <= dim/4 keeps the norm within 1e-8 of unity (dim >= 32)
        for dim in (32, 48, 64):
            for frac in (0.25, 0.5, 1.0):
                alpha = math.sqrt(frac * dim / 4.0)
                assert np.linalg.norm(h.coherent_state(alpha, dim)) >= 1.0 - 1e-8

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            h.coherent_state(float("nan"), 8)
        with pytest.raises(ValueError):
            h.coherent_state(complex(1.0, float("inf")), 8)


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        np.testing.assert_array_equal(oracles.displacement_operator(0.0, 12), np.eye(12))

    def test_displaced_vacuum_matches_coherent(self):
        alpha = 0.7 + 0.2j
        moved = oracles.displacement_operator(alpha, 40)[:, 0]  # D(alpha)|0>
        state = h.coherent_state(alpha, 40)
        assert np.max(np.abs(moved - state)) <= 1e-8

    def test_inverse_property(self):
        d = oracles.displacement_operator(1.0, 48)
        dinv = oracles.displacement_operator(-1.0, 48)
        leak = max(oracles.unitary_defect(d), oracles.unitary_defect(dinv), 1e-12)
        assert np.max(np.abs(d @ dinv - np.eye(48))) <= 10 * leak

    def test_composition_phase(self):
        # D(a) D(b) = exp(i Im(a conj(b))) D(a+b) up to truncation leak; the
        # identity is checked on the lower half of the basis, where the
        # displaced states still fit below the cutoff
        a, b = 0.4 + 0.3j, -0.2 + 0.5j
        dim = 48
        lhs = oracles.displacement_operator(a, dim) @ oracles.displacement_operator(b, dim)
        phase = np.exp(1j * (a * np.conj(b)).imag)
        rhs = phase * oracles.displacement_operator(a + b, dim)
        assert np.max(np.abs(lhs[:, :16] - rhs[:, :16])) <= 1e-10

    def test_unitary_defect_reported(self):
        defect = oracles.unitary_defect(oracles.displacement_operator(1.2, 24))
        assert 0.0 <= defect < 1e-6


def vacuum_port_input(psi):
    """psi (x) |0> on the two-mode basis."""
    return np.kron(psi, np.eye(psi.size)[0])


class TestBeamSplitter:
    # U (psi (x) |0>) = W psi for the vacuum-port columns W = U|n, 0> of the
    # receiver's 50:50 splitter (discrimination.vacuum_port_columns); the
    # general-t splitter lives in tests/oracles.py only

    def test_vacuum_invariance(self):
        vac = np.eye(10)[0]
        out = vacuum_port_columns(10) @ vac
        assert np.max(np.abs(out - vacuum_port_input(vac))) <= 1e-12

    def test_balanced_splitting_of_coherent_input(self):
        # coherent in, vacuum ancilla: both outputs at alpha/sqrt(2)
        dim, alpha = 32, 1.0
        out = vacuum_port_columns(dim) @ h.coherent_state(alpha, dim)
        half = h.coherent_state(alpha / math.sqrt(2.0), dim)
        assert np.max(np.abs(out - np.kron(half, half))) <= 1e-8

    def test_amplitude_map_over_random_inputs(self):
        # coherent (x) coherent maps to coherent (x) coherent with the 2x2 matrix
        rng = np.random.default_rng(11)
        dim = 32
        for k in range(8):
            t = 0.5 if k < 2 else rng.uniform(0.05, 0.95)  # pin the balanced case
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            v = complex(*rng.uniform(-0.7, 0.7, 2))
            u = oracles.beam_splitter_unitary(t, dim)
            out = u @ np.kron(h.coherent_state(a, dim), h.coherent_state(v, dim))
            c, s = math.sqrt(t), math.sqrt(1.0 - t)
            want = np.kron(h.coherent_state(c * a + s * v, dim), h.coherent_state(s * a - c * v, dim))
            assert np.max(np.abs(out - want)) <= 1e-8

    def test_sector_assembly_matches_dense_exponential(self):
        # the oracle's per-sector exponentials against one dense expm of the
        # whole generator, plus parity
        dim, t = 9, 0.37
        dense = np.diag(oracles.port_parity(dim)) @ expm(oracles.beam_splitter_generator(t, dim))
        assert np.max(np.abs(oracles.beam_splitter_unitary(t, dim) - dense)) <= 1e-12

    def test_unitarity(self):
        assert oracles.unitary_defect(oracles.beam_splitter_unitary(0.5, 24)) <= 1e-11

    def test_vacuum_columns_are_unitary_columns(self):
        for dim in (2, 5, 16, 32):
            w = vacuum_port_columns(dim)
            assert w.dtype == np.complex128
            unitary = oracles.beam_splitter_unitary(0.5, dim)
            assert np.max(np.abs(w - unitary[:, ::dim])) <= 1e-13

    def test_vacuum_columns_keep_the_float_assembly_bits(self):
        # complex storage filled through .real, parity applied in place: the
        # same bytes as the real array times the parity cast to complex, the
        # -0.0 of parity * 0.0 included; the ancilla POVM's golden bits rest
        # on these.  The library reads a committed table and the oracle runs
        # the local expm, so the bytes agree only in the environment the
        # golden hashes were made in; elsewhere this skips by name, and the
        # roundoff test below still runs
        golden_env.require_recorded_environment("the vacuum-column bytes")
        for dim in range(2, 65):
            want = oracles.vacuum_columns_reference(0.5, dim)
            assert vacuum_port_columns(dim).tobytes() == want.tobytes(), dim

    def test_vacuum_columns_match_the_float_assembly_to_roundoff(self):
        # the exact test's comparison in any environment
        for dim in range(2, 65):
            want = oracles.vacuum_columns_reference(0.5, dim)
            assert np.max(np.abs(vacuum_port_columns(dim) - want)) <= 1e-14, dim

    def test_sector_table_covers_the_ancilla_cap(self):
        # one line per sector n < MAX_ANCILLA_DIM, n + 1 entries each; a dim
        # beyond the table is refused by name, not by an IndexError
        assert len(SECTOR_COLUMNS) == MAX_ANCILLA_DIM
        assert [len(column) for column in SECTOR_COLUMNS] == list(range(1, MAX_ANCILLA_DIM + 1))
        with pytest.raises(ValueError, match=f"up to dim={MAX_ANCILLA_DIM}, got dim=65"):
            vacuum_port_columns(MAX_ANCILLA_DIM + 1)

    def test_vacuum_columns_binomial_closed_form(self):
        # oracle: U|n,0> = sum_a sqrt(C(n,a) / 2^n) |a, n-a> at t = 1/2, every
        # amplitude positive under the port parity
        for dim in range(2, 65):
            want = np.zeros((dim * dim, dim))
            for n in range(dim):
                for a in range(n + 1):
                    want[a * dim + (n - a), n] = math.sqrt(math.comb(n, a) / 2**n)
            w = vacuum_port_columns(dim)
            assert np.max(np.abs(w - want)) <= 1e-14, dim


def exp_creation_loop_reference(z, dim):
    """The former per-column double loop, kept as the exact reference."""
    sf = h._sqrt_factorials(dim)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    col = np.empty(dim, dtype=np.complex128)
    for k in range(dim):
        col[0] = 1.0
        for m in range(1, dim - k):
            col[m] = col[m - 1] * z / m
        mat[k:, k] = col[: dim - k] * (sf[k:] / sf[k])
    return mat


class TestExpCreation:
    def test_equals_double_loop_bit_for_bit(self):
        for z in (0.3 + 0.2j, -1.7j, 5):
            for dim in (2, 3, 50, 200):
                got = h._exp_creation(z, dim, h._sqrt_factorials(dim))
                want = exp_creation_loop_reference(z, dim)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()


class TestNormallyOrderedGaussian:
    def test_full_kappa_at_origin_is_vacuum_projector(self):
        g = h.normally_ordered_gaussian(1.0, 0.0, 8)
        want = np.zeros((8, 8))
        want[0, 0] = 1.0
        np.testing.assert_array_equal(g, want)

    def test_full_kappa_is_rank_one_coherent_projector(self):
        g = h.normally_ordered_gaussian(1.0, 0.8, 32)
        state = h.coherent_state(0.8, 32)
        outer = np.outer(state, state.conj())
        assert np.max(np.abs(g - outer)) <= 1e-12
        assert np.trace(g).real == pytest.approx(1.0, abs=1e-8)

    def test_half_kappa_coherent_expectation(self):
        q = h.normally_ordered_gaussian(0.5, 1.0, 32)
        probe = h.coherent_state(0.3, 32)
        value = np.vdot(probe, q @ probe)
        assert value.real == pytest.approx(math.exp(-0.5 * abs(0.3 - 1.0) ** 2), abs=1e-8)
        assert abs(value.imag) <= 1e-12

    def test_hermitian_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            kappa = rng.uniform(0.05, 1.0)
            alpha = complex(*rng.uniform(-1.2, 1.2, 2))
            g = h.normally_ordered_gaussian(kappa, alpha, 28)
            assert np.max(np.abs(g - g.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] >= -1e-10

    def test_displaced_diagonal_identity(self):
        # the operator equals D(alpha) (1-kappa)^n D(alpha)^dag once the
        # truncated displacement has headroom above the occupied levels
        kappa, alpha, dim = 0.5, 0.8 - 0.3j, 48
        d = oracles.displacement_operator(alpha, dim)
        decay = np.power(1.0 - kappa, np.arange(dim))
        displaced = (d * decay[None, :]) @ d.conj().T
        g = h.normally_ordered_gaussian(kappa, alpha, dim)
        assert np.max(np.abs(g - displaced)) <= 1e-8

    def test_kappa_out_of_range(self):
        for bad in (-0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="kappa"):
                h.normally_ordered_gaussian(bad, 0.5, 8)
        # the detector efficiency's check, under kappa's name
        for bad, message in (
            (1.5, "kappa must lie in [0, 1], got 1.5"),
            ("x", "kappa must be a real number, got 'x'"),
        ):
            with pytest.raises(ValueError) as info:
                h.normally_ordered_gaussian(bad, 0.5, 8)
            assert str(info.value) == message

    def test_kappa_zero_is_the_identity_bit_for_bit(self):
        # a blind detector: the same bytes as np.eye, with no -0.0 anywhere
        for dim in range(2, 193):
            eye = np.eye(dim, dtype=np.complex128).tobytes()
            for alpha in (0.0, 1.1 - 2.3j, -0.7 + 0.2j, -4.0 - 1.0j):
                assert h.normally_ordered_gaussian(0.0, alpha, dim).tobytes() == eye, (dim, alpha)


class TestNormallyOrderedExponential:
    def test_matches_gaussian_constructor(self):
        kappa, alpha = 0.5, 0.9 - 0.4j
        g1 = h.normally_ordered_gaussian(kappa, alpha, 32)
        g2 = h.normally_ordered_exponential(
            kappa * alpha, kappa * np.conj(alpha), -kappa, -kappa * abs(alpha) ** 2, 32
        )
        assert np.max(np.abs(g1 - g2)) <= 1e-14

    def test_truncation_is_exact_embedding(self):
        # matrix elements must not depend on dim: growing the basis only adds
        # rows and columns, it never changes the existing block
        args = (0.45 + 0.2j, 0.45 - 0.2j, -0.5, -0.3)
        small = h.normally_ordered_exponential(*args, 24)
        large = h.normally_ordered_exponential(*args, 40)
        np.testing.assert_array_equal(small, large[:24, :24])

    def test_coherent_kernel_rule(self):
        # <b|:F:|g> = F(conj(b), g) <b|g> for a random coefficient set
        cd, ca, cq, c0 = 0.3 - 0.1j, 0.2 + 0.4j, -0.6, 0.1 + 0.05j
        dim = 40
        op = h.normally_ordered_exponential(cd, ca, cq, c0, dim)
        beta, gamma = 0.5 + 0.2j, -0.3 + 0.6j
        sb = h.coherent_state(beta, dim)
        sg = h.coherent_state(gamma, dim)
        lhs = np.vdot(sb, op @ sg)
        symbol = np.exp(c0 + cd * np.conj(beta) + ca * gamma + cq * np.conj(beta) * gamma)
        rhs = symbol * np.vdot(sb, sg)
        assert abs(lhs - rhs) <= 1e-12

    # dims 16, 32 and 48 at real and complex amplitudes, then a far complex
    # point at dim 64
    @pytest.mark.parametrize(
        "kappa, alpha, dim",
        [
            (0.5, 1.2, 16),
            (1.0, 0.8 - 0.9j, 16),
            (0.5, 2.5, 32),
            (0.25, -1.5 + 2j, 32),
            (0.5, 3.5, 48),
            (0.75, 2 - 3j, 48),
            (0.35, -4 + 2j, 64),
        ],
    )
    def test_kernel_matches_the_decimal_sum(self, kappa, alpha, dim):
        # the kernel that both POVM constructions build every element from,
        # against its exact sum in 40-digit decimal.  The measured error is
        # at most 0.06 dim eps (3.9 eps at the dim-64 point, 0.2-0.4 eps at
        # the others); 0.25 dim eps leaves four times that
        alpha = complex(alpha)
        coeffs = (kappa * alpha, kappa * alpha.conjugate(), -kappa, -kappa * abs(alpha) ** 2)
        want = oracles.normally_ordered_exponential_reference(*coeffs, dim)
        got = h.normally_ordered_exponential(*coeffs, dim)
        assert np.max(np.abs(got - want)) <= 0.25 * dim * oracles.EPS


class TestTypesAndGuards:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            h.check_dim(1)
        with pytest.raises(ValueError):
            h.check_dim(2.0)
        with pytest.raises(ValueError, match="integer"):
            h.check_dim(True)

    def test_default_dim(self):
        assert oracles.default_dim() == 16
        assert oracles.default_dim(0.0) == 16
        assert oracles.default_dim(2.0) == math.ceil(4.0 + 16.0 + 12.0)
        # large enough that the norm loss stays below 1e-10 up to |alpha| = 2
        for mag in (0.5, 1.0, 1.5, 2.0):
            dim = oracles.default_dim(mag)
            assert np.linalg.norm(h.coherent_state(mag, dim)) >= 1.0 - 1e-10

    def test_sqrt_factorials_consistent_across_log_switch(self):
        values = h._sqrt_factorials(40)
        for k in (0, 1, 5, 29, 30, 31, 39):
            assert values[k] == pytest.approx(math.sqrt(math.factorial(k)), rel=1e-12)

    def test_log_factorials_equal_gammaln_bit_for_bit(self):
        # oracle: the gammaln expression the port replaced, whose bits the
        # committed artifact hashes record; equality, not a tolerance
        n = h.MAX_FOCK_DIM
        ks = np.arange(h._LOG_FACTORIAL_SWITCH, n)
        assert np.array_equal(h._log_factorial(ks), gammaln(ks + 1.0))
        ref = np.empty(n)
        ref[: h._LOG_FACTORIAL_SWITCH] = [
            math.prod(math.sqrt(j) for j in range(1, k + 1)) for k in range(h._LOG_FACTORIAL_SWITCH)
        ]
        ref[h._LOG_FACTORIAL_SWITCH :] = np.exp(0.5 * gammaln(ks + 1.0))
        assert np.array_equal(h._sqrt_factorials(n), ref)
