import math

import numpy as np
import pytest
from scipy.linalg import expm

from usdsim import hilbert as h


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
        state, norm = h.coherent_state(0.0, 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(state.amplitudes, expected)
        assert norm == 1.0

    def test_norm_against_partial_poisson_sum(self):
        # oracle: norm^2 is the Poisson(|alpha|^2) mass below the cutoff
        state, norm = h.coherent_state(1.0, 32)
        mass = math.fsum(math.exp(-1.0) / math.factorial(n) for n in range(32))
        assert norm**2 == pytest.approx(mass, abs=1e-14)
        assert norm >= 1.0 - 1e-12

    def test_amplitudes_match_reference_expansion(self):
        alpha = 0.7 - 0.4j
        state, _ = h.coherent_state(alpha, 24)
        np.testing.assert_allclose(
            state.amplitudes, coherent_amplitudes_reference(alpha, 24), atol=1e-14
        )

    def test_overlap_modulus_matches_closed_form(self):
        a1, a2 = 0.5, -0.5
        s1, _ = h.coherent_state(a1, 32)
        s2, _ = h.coherent_state(a2, 32)
        assert abs(h.overlap(s1, s2)) == pytest.approx(
            math.exp(-0.5 * abs(a1 - a2) ** 2), abs=1e-10
        )

    def test_overlap_modulus_complex_amplitudes(self):
        a1, a2 = 0.9j, 0.1
        s1, _ = h.coherent_state(a1, 48)
        s2, _ = h.coherent_state(a2, 48)
        assert abs(h.overlap(s1, s2)) == pytest.approx(
            math.exp(-0.5 * abs(a1 - a2) ** 2), abs=1e-12
        )

    def test_norm_never_exceeds_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = complex(*rng.uniform(-1.5, 1.5, 2))
            assert h.coherent_state(alpha, 20).norm <= 1.0 + 1e-12

    def test_adequacy_guard_region(self):
        # |alpha|^2 <= dim/4 keeps the norm within 1e-8 of unity (dim >= 32)
        for dim in (32, 48, 64):
            for frac in (0.25, 0.5, 1.0):
                alpha = math.sqrt(frac * dim / 4.0)
                assert h.coherent_state(alpha, dim).norm >= 1.0 - 1e-8

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            h.coherent_state(float("nan"), 8)
        with pytest.raises(ValueError):
            h.coherent_state(complex(1.0, float("inf")), 8)


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        d = h.displacement_operator(0.0, 12)
        np.testing.assert_array_equal(d.matrix, np.eye(12))

    def test_displaced_vacuum_matches_coherent(self):
        alpha = 0.7 + 0.2j
        d = h.displacement_operator(alpha, 40)
        moved = d @ h.vacuum_state(40)
        state, _ = h.coherent_state(alpha, 40)
        assert np.max(np.abs(moved.amplitudes - state.amplitudes)) <= 1e-8

    def test_inverse_property(self):
        d = h.displacement_operator(1.0, 48)
        dinv = h.displacement_operator(-1.0, 48)
        prod = (d @ dinv).matrix
        assert np.max(np.abs(prod - np.eye(48))) <= 10 * max(
            d.unitary_defect, dinv.unitary_defect, 1e-12
        )

    def test_composition_phase(self):
        # D(a) D(b) = exp(i Im(a conj(b))) D(a+b) up to truncation leak; the
        # identity is checked on the lower half of the basis, where the
        # displaced states still fit below the cutoff
        a, b = 0.4 + 0.3j, -0.2 + 0.5j
        dim = 48
        lhs = (h.displacement_operator(a, dim) @ h.displacement_operator(b, dim)).matrix
        phase = np.exp(1j * (a * np.conj(b)).imag)
        rhs = phase * h.displacement_operator(a + b, dim).matrix
        assert np.max(np.abs(lhs[:, :16] - rhs[:, :16])) <= 1e-10

    def test_unitary_defect_reported(self):
        d = h.displacement_operator(1.2, 24)
        assert d.unitary_defect is not None
        assert 0.0 <= d.unitary_defect < 1e-6


class TestBeamSplitter:
    def test_vacuum_invariance(self):
        for t in (0.0, 0.3, 0.5, 1.0):
            u = h.beam_splitter_unitary(t, 10)
            vac = h.tensor(h.vacuum_state(10), h.vacuum_state(10))
            out = u @ vac
            assert np.max(np.abs(out.amplitudes - vac.amplitudes)) <= 1e-12

    def test_balanced_splitting_of_coherent_input(self):
        # coherent in, vacuum ancilla: both outputs at alpha/sqrt(2)
        dim, alpha = 32, 1.0
        u = h.beam_splitter_unitary(0.5, dim)
        out = u @ h.tensor(h.coherent_state(alpha, dim).state, h.vacuum_state(dim))
        half = alpha / math.sqrt(2.0)
        want = h.tensor(h.coherent_state(half, dim).state, h.coherent_state(half, dim).state)
        assert np.max(np.abs(out.amplitudes - want.amplitudes)) <= 1e-8

    def test_full_transmission_passes_signal_through(self):
        dim = 24
        u = h.beam_splitter_unitary(1.0, dim)
        inp = h.tensor(h.coherent_state(0.8, dim).state, h.vacuum_state(dim))
        out = u @ inp
        assert np.max(np.abs(out.amplitudes - inp.amplitudes)) <= 1e-12

    def test_amplitude_map_over_random_inputs(self):
        # coherent (x) coherent maps to coherent (x) coherent with the 2x2 matrix
        rng = np.random.default_rng(11)
        dim = 32
        for k in range(8):
            t = 0.5 if k < 2 else rng.uniform(0.05, 0.95)  # pin the balanced case
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            v = complex(*rng.uniform(-0.7, 0.7, 2))
            u = h.beam_splitter_unitary(t, dim)
            out = u @ h.tensor(h.coherent_state(a, dim).state, h.coherent_state(v, dim).state)
            c, s = math.sqrt(t), math.sqrt(1.0 - t)
            want = h.tensor(
                h.coherent_state(c * a + s * v, dim).state,
                h.coherent_state(s * a - c * v, dim).state,
            )
            assert np.max(np.abs(out.amplitudes - want.amplitudes)) <= 1e-8

    def test_sector_assembly_matches_dense_exponential(self):
        # independent route: dense expm of the full generator plus parity
        dim, t = 9, 0.37
        theta = math.atan2(math.sqrt(1 - t), math.sqrt(t))
        a = h.annihilation(dim)
        big_a = np.kron(a, np.eye(dim))
        big_v = np.kron(np.eye(dim), a)
        gen = theta * (big_a.conj().T @ big_v - big_a @ big_v.conj().T)
        parity = np.diag(np.where(np.arange(dim * dim) % dim % 2 == 1, -1.0, 1.0))
        dense = parity @ expm(gen)
        u = h.beam_splitter_unitary(t, dim)
        assert np.max(np.abs(u.matrix - dense)) <= 1e-12

    def test_unitarity(self):
        u = h.beam_splitter_unitary(0.5, 24)
        assert u.unitary_defect <= 1e-11
        prod = u.matrix.conj().T @ u.matrix
        assert np.max(np.abs(prod - np.eye(24 * 24))) <= 1e-11

    def test_transmission_out_of_range(self):
        with pytest.raises(ValueError):
            h.beam_splitter_unitary(-0.1, 8)
        with pytest.raises(ValueError):
            h.beam_splitter_unitary(1.1, 8)
        with pytest.raises(ValueError):
            h.beam_splitter_vacuum_columns(1.1, 8)

    def test_sector_defect_matches_dense_defect(self):
        for dim in (4, 10, 16):
            u = h.beam_splitter_unitary(0.5, dim)
            dense = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim * dim)))
            assert abs(u.unitary_defect - dense) <= 1e-15

    def test_vacuum_columns_are_unitary_columns_exactly(self):
        for t in (0.0, 0.3, 0.5, 1.0):
            for dim in (2, 5, 16):
                w = h.beam_splitter_vacuum_columns(t, dim)
                assert w.dtype == np.complex128
                assert np.array_equal(w, h.beam_splitter_unitary(t, dim).matrix[:, ::dim])

    def test_vacuum_columns_binomial_closed_form(self):
        # oracle: U|n,0> = sum_k sqrt(C(n,k)) t^(k/2) (1-t)^((n-k)/2) |k, n-k>
        dim = 12
        for t in (0.3, 0.5, 0.85):
            want = np.zeros((dim * dim, dim))
            for n in range(dim):
                for k in range(n + 1):
                    want[k * dim + (n - k), n] = (
                        math.sqrt(math.comb(n, k)) * t ** (k / 2) * (1 - t) ** ((n - k) / 2)
                    )
            w = h.beam_splitter_vacuum_columns(t, dim)
            assert np.max(np.abs(w - want)) <= 1e-13


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
                got = h._exp_creation(z, dim)
                want = exp_creation_loop_reference(z, dim)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()


class TestNormallyOrderedGaussian:
    def test_full_kappa_at_origin_is_vacuum_projector(self):
        g = h.normally_ordered_gaussian(1.0, 0.0, 8)
        want = np.zeros((8, 8))
        want[0, 0] = 1.0
        np.testing.assert_array_equal(g.matrix, want)

    def test_full_kappa_is_rank_one_coherent_projector(self):
        g = h.normally_ordered_gaussian(1.0, 0.8, 32)
        state, _ = h.coherent_state(0.8, 32)
        outer = np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.max(np.abs(g.matrix - outer)) <= 1e-12
        assert np.trace(g.matrix).real == pytest.approx(1.0, abs=1e-8)

    def test_half_kappa_coherent_expectation(self):
        q = h.normally_ordered_gaussian(0.5, 1.0, 32)
        probe, _ = h.coherent_state(0.3, 32)
        value = h.expectation(q, probe)
        assert value.real == pytest.approx(math.exp(-0.5 * abs(0.3 - 1.0) ** 2), abs=1e-8)
        assert abs(value.imag) <= 1e-12

    def test_hermitian_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            kappa = rng.uniform(0.05, 1.0)
            alpha = complex(*rng.uniform(-1.2, 1.2, 2))
            g = h.normally_ordered_gaussian(kappa, alpha, 28)
            assert g.is_hermitian(1e-12)
            assert g.min_eigenvalue() >= -1e-10

    def test_displaced_diagonal_identity(self):
        # the operator equals D(alpha) (1-kappa)^n D(alpha)^dag once the
        # truncated displacement has headroom above the occupied levels
        kappa, alpha, dim = 0.5, 0.8 - 0.3j, 48
        d = h.displacement_operator(alpha, dim).matrix
        decay = np.power(1.0 - kappa, np.arange(dim))
        displaced = (d * decay[None, :]) @ d.conj().T
        g = h.normally_ordered_gaussian(kappa, alpha, dim)
        assert np.max(np.abs(g.matrix - displaced)) <= 1e-8

    def test_kappa_out_of_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                h.normally_ordered_gaussian(bad, 0.5, 8)


class TestNormallyOrderedExponential:
    def test_matches_gaussian_constructor(self):
        kappa, alpha = 0.5, 0.9 - 0.4j
        g1 = h.normally_ordered_gaussian(kappa, alpha, 32)
        g2 = h.normally_ordered_exponential(
            kappa * alpha, kappa * np.conj(alpha), -kappa, -kappa * abs(alpha) ** 2, 32
        )
        assert np.max(np.abs(g1.matrix - g2.matrix)) <= 1e-14

    def test_truncation_is_exact_embedding(self):
        # matrix elements must not depend on dim: growing the basis only adds
        # rows and columns, it never changes the existing block
        args = (0.45 + 0.2j, 0.45 - 0.2j, -0.5, -0.3)
        small = h.normally_ordered_exponential(*args, 24).matrix
        large = h.normally_ordered_exponential(*args, 40).matrix
        np.testing.assert_array_equal(small, large[:24, :24])

    def test_coherent_kernel_rule(self):
        # <b|:F:|g> = F(conj(b), g) <b|g> for a random coefficient set
        cd, ca, cq, c0 = 0.3 - 0.1j, 0.2 + 0.4j, -0.6, 0.1 + 0.05j
        dim = 40
        op = h.normally_ordered_exponential(cd, ca, cq, c0, dim)
        beta, gamma = 0.5 + 0.2j, -0.3 + 0.6j
        sb, _ = h.coherent_state(beta, dim)
        sg, _ = h.coherent_state(gamma, dim)
        lhs = complex(np.vdot(sb.amplitudes, op.matrix @ sg.amplitudes))
        symbol = np.exp(c0 + cd * np.conj(beta) + ca * gamma + cq * np.conj(beta) * gamma)
        rhs = symbol * h.overlap(sb, sg)
        assert abs(lhs - rhs) <= 1e-12


class TestTensorAndReduction:
    def test_identity_tensor_identity(self):
        composite = h.tensor(h.identity(6), h.identity(6))
        np.testing.assert_array_equal(composite.matrix, np.eye(36))

    def test_vacuum_tensor_vacuum_index(self):
        vac2 = h.tensor(h.vacuum_state(6), h.vacuum_state(6))
        assert vac2.amplitudes[0] == 1.0
        assert np.count_nonzero(vac2.amplitudes) == 1

    def test_trace_of_product_projectors(self):
        # trace of a Kronecker product is the product of traces
        p1 = h.normally_ordered_gaussian(1.0, 0.5, 24)
        p2 = h.normally_ordered_gaussian(1.0, 0.5, 24)
        composite = h.tensor(p1, p2)
        t1, t2 = np.trace(p1.matrix), np.trace(p2.matrix)
        assert np.trace(composite.matrix) == pytest.approx(t1 * t2, abs=1e-12)
        assert np.trace(composite.matrix).real == pytest.approx(1.0, abs=1e-8)

    def test_mode_ordering_is_first_factor_slowest(self):
        a = np.zeros(3, dtype=complex)
        a[1] = 1.0  # |1>
        b = np.zeros(3, dtype=complex)
        b[2] = 1.0  # |2>
        composite = h.tensor(h.TruncatedState(3, 1, a), h.TruncatedState(3, 1, b))
        assert composite.amplitudes[1 * 3 + 2] == 1.0

    def test_tensor_rejects_mismatches(self):
        with pytest.raises(ValueError):
            h.tensor(h.identity(6), h.identity(8))
        with pytest.raises(ValueError):
            h.tensor(h.identity(6), h.vacuum_state(6))
        two_mode = h.tensor(h.identity(4), h.identity(4))
        with pytest.raises(ValueError):
            h.tensor(two_mode, h.identity(4))

    def test_vacuum_expectation_identity(self):
        composite = h.tensor(h.identity(8), h.identity(8))
        np.testing.assert_array_equal(h.vacuum_expectation(composite, 2).matrix, np.eye(8))

    def test_vacuum_expectation_vacuum_projector(self):
        vac_proj = h.normally_ordered_gaussian(1.0, 0.0, 8)
        composite = h.tensor(h.identity(8), vac_proj)
        np.testing.assert_array_equal(h.vacuum_expectation(composite, 2).matrix, np.eye(8))
        # and with the roles swapped, reducing over mode 1
        composite = h.tensor(vac_proj, h.identity(8))
        np.testing.assert_array_equal(h.vacuum_expectation(composite, 1).matrix, np.eye(8))

    def test_vacuum_expectation_guards(self):
        with pytest.raises(ValueError):
            h.vacuum_expectation(h.identity(8), 2)  # single-mode input
        composite = h.tensor(h.identity(8), h.identity(8))
        with pytest.raises(ValueError):
            h.vacuum_expectation(composite, 3)


class TestTypesAndGuards:
    def test_dim_validation(self):
        with pytest.raises(ValueError):
            h.check_dim(1)
        with pytest.raises(ValueError):
            h.check_dim(2.0)
        with pytest.raises(ValueError):
            h.vacuum_state(1)

    def test_mixed_dimension_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            h.identity(8) @ h.identity(12)
        with pytest.raises(ValueError):
            h.identity(8) @ h.vacuum_state(12)
        with pytest.raises(ValueError):
            h.identity(8) + h.identity(12)
        with pytest.raises(ValueError):
            h.expectation(h.identity(8), h.vacuum_state(12))
        with pytest.raises(ValueError):
            h.overlap(h.vacuum_state(8), h.vacuum_state(12))

    def test_default_dim(self):
        assert h.default_dim() == 16
        assert h.default_dim(0.0) == 16
        assert h.default_dim(2.0) == math.ceil(4.0 + 16.0 + 12.0)
        # large enough that the norm loss stays below 1e-10 up to |alpha| = 2
        for mag in (0.5, 1.0, 1.5, 2.0):
            dim = h.default_dim(mag)
            assert h.coherent_state(mag, dim).norm >= 1.0 - 1e-10

    def test_sqrt_factorials_consistent_across_log_switch(self):
        values = h._sqrt_factorials(40)
        for k in (0, 1, 5, 29, 30, 31, 39):
            assert values[k] == pytest.approx(math.sqrt(math.factorial(k)), rel=1e-12)
