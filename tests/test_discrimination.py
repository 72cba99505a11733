import math
import re
import tracemalloc
import warnings

import golden_env
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdsim import discrimination
from usdsim import hilbert as h
from usdsim.discrimination import (
    OUTCOME_ORDER,
    Outcome,
    PovmSet,
    ReceiverConfig,
    closed_form_probabilities,
    inconclusive_rate,
    optimality_check,
    outcome_probabilities,
    povm_analytic,
    povm_ancilla,
)
from usdsim.hilbert import NumericalGuardError


def truncation_radius(dim):
    """An amplitude modulus the truncation at ``dim`` holds: the coherent
    state at any |alpha| up to it passes the adequacy guard."""
    return min(1e-3 * dim**2, math.sqrt(dim) / 3)


@pytest.fixture(scope="module")
def streamed_and_dense():
    """(cfg, povm_ancilla(cfg), the dense reduction's elements) for random
    complex amplitudes at dims 2-32, 40 and 48, then zero, real and
    imaginary ones at eight dims, each at two efficiencies."""
    rng = np.random.default_rng(20261018)
    cases = []
    for dim in (*range(2, 33), 40, 48):
        r = truncation_radius(dim)
        a1, a2 = r * np.sqrt(rng.uniform(0.0, 1.0, 2)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 2))
        eta = 1.0 if dim % 4 == 0 else 1.0 - rng.uniform(0.0, 1.0)  # in (0, 1]
        cases.append(ReceiverConfig(a1, a2, dim, eta))
    for dim in (2, 3, 5, 6, 10, 17, 24, 32):
        r = truncation_radius(dim)
        for a1, a2 in ((0.0, r), (0.0, 1j * r), (0.6 * r, -r)):
            cases += [ReceiverConfig(a1, a2, dim, eta) for eta in (1.0, 0.7)]
    return [(cfg, povm_ancilla(cfg), oracles.dense_ancilla_povm(cfg)) for cfg in cases]


@st.composite
def ancilla_configs(draw):
    """Receivers at dims 2-24 and efficiencies in (0, 1], each amplitude
    exactly zero, real, imaginary or complex, with modulus within the
    truncation radius."""
    dim = draw(st.integers(2, 24))
    part = st.floats(-0.7, 0.7).map(lambda x: x * truncation_radius(dim))  # |re + i im| < r
    amplitude = st.one_of(
        st.just(0j), part.map(complex), part.map(lambda x: 1j * x), st.builds(complex, part, part)
    )
    alpha1 = draw(amplitude)
    alpha2 = draw(amplitude.filter(lambda a: a != alpha1))
    eta = draw(st.floats(0.0, 1.0, exclude_min=True))
    return ReceiverConfig(alpha1, alpha2, dim, eta)


def least_eigenvalue(elements):
    """The positivity rule's measure written out: the least eigenvalue, by
    eigvalsh, of the elements' Hermitian parts as complex128 arrays."""
    parts = (np.asarray(m, dtype=np.complex128) for m in elements)
    return min(float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) for m in parts)


@st.composite
def sets_near_the_clamp(draw):
    """(cfg, elements): four complex elements of a dim in 2-24 that sum to I.
    One has least eigenvalue -10**u, u uniform in [-12, -8], and the rest of
    its spectrum in [0.1, 0.3]; two have spectra in [0.1, 0.2]; the fourth is
    I minus the three, so its spectrum lies in [0.3, 0.7].  Each is rotated by
    its own random unitary."""
    dim = draw(st.integers(2, 24))
    lowest = -(10.0 ** draw(st.floats(-12.0, -8.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rotated(spectrum):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        return (q * spectrum) @ q.conj().T

    first = rotated(np.concatenate(([lowest], rng.uniform(0.1, 0.3, dim - 1))))
    second, third = (rotated(rng.uniform(0.1, 0.2, dim)) for _ in range(2))
    return ReceiverConfig(0.5, -0.5, dim), (np.eye(dim) - first - second - third, first, second, third)


@st.composite
def symmetry_cases(draw):
    """(cfg, phi): a receiver of two distinct amplitudes with modulus at most
    1.5 at their ``oracles.default_dim`` (16-27), the lossless one or any
    efficiency, and a phase in [0, 2 pi)."""
    amplitude = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
    alpha1 = draw(amplitude)
    alpha2 = draw(amplitude.filter(lambda a: a != alpha1))
    eta = draw(st.just(1.0) | st.floats(0.0, 1.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    return ReceiverConfig(alpha1, alpha2, oracles.default_dim(alpha1, alpha2), eta), phi


def random_pairs(n, rng, max_mag=1.5):
    pairs = []
    while len(pairs) < n:
        r = np.sqrt(rng.uniform(0.0, 1.0, 2)) * max_mag
        ph = rng.uniform(0.0, 2.0 * math.pi, 2)
        a1 = r[0] * np.exp(1j * ph[0])
        a2 = r[1] * np.exp(1j * ph[1])
        if a1 != a2:
            pairs.append((complex(a1), complex(a2)))
    return pairs


def guard_message(build, *args):
    """The message of the NumericalGuardError that ``build(*args)`` raises."""
    with pytest.raises(NumericalGuardError) as info:
        build(*args)
    return str(info.value)


def adequacy_norm(message, name, dim):
    """The achieved norm a truncation adequacy message reports, once its fixed
    text, its limit and the norm's 12-decimal format are checked."""
    pattern = rf"coherent state for {name} reaches norm (0\.\d{{12}}) < 0\.999999990000 at dim={dim}"
    norm = re.fullmatch(f"truncation adequacy guard: {pattern}", message)
    assert norm, message
    return float(norm[1])


def cross_discrepancy(povm_a, povm_b):
    return max(
        float(np.max(np.abs(povm_a.elements[o] - povm_b.elements[o]))) for o in OUTCOME_ORDER
    )


class TestReceiverConfig:
    def test_identical_states_rejected(self):
        with pytest.raises(ValueError):
            ReceiverConfig(0.5, 0.5, 16)

    def test_betas_are_derived(self):
        cfg = ReceiverConfig(1.0 + 1.0j, -0.4, 16)
        assert cfg.beta1 == (1.0 + 1.0j) / math.sqrt(2.0)
        assert cfg.beta2 == -0.4 / math.sqrt(2.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ReceiverConfig(1.0, -1.0, 1)
        with pytest.raises(ValueError) as info:
            ReceiverConfig(1.0, -1.0, 16, eta=1.5)
        assert str(info.value) == "detector efficiency must lie in [0, 1], got 1.5"
        for junk in ("0.5", None, True):
            with pytest.raises(ValueError):
                ReceiverConfig(1.0, -1.0, 16, eta=junk)
            with pytest.raises(ValueError):
                ReceiverConfig(junk, -1.0, 16)
            with pytest.raises(ValueError):
                ReceiverConfig(1.0, -1.0, junk)
        with pytest.raises(ValueError):
            ReceiverConfig(float("inf"), -1.0, 16)
        with pytest.raises(ValueError):
            ReceiverConfig(1e200, -1.0, 16)  # |alpha|^2 overflows

    def test_outcome_classification(self):
        # the click pattern (d1, d2) is the enum value
        assert Outcome((0, 1)) is Outcome.CONCLUSIVE_1
        assert Outcome((1, 0)) is Outcome.CONCLUSIVE_2
        assert Outcome((0, 0)) is Outcome.INCONCLUSIVE
        assert Outcome((1, 1)) is Outcome.ANOMALOUS
        assert [o.label for o in OUTCOME_ORDER] == ["00", "01", "10", "11"]


class TestAnalyticPovm:
    def test_opposite_unit_amplitudes(self):
        # the no-click probability for both inputs is exp(-|a1-a2|^2/2)
        cfg = ReceiverConfig(1.0, -1.0, 32)
        povm = povm_analytic(cfg)
        target = math.exp(-0.5 * abs(cfg.alpha1 - cfg.alpha2) ** 2)
        for sent in (cfg.alpha1, cfg.alpha2):
            state = h.coherent_state(sent, cfg.dim)
            p00 = np.vdot(state, povm.elements[Outcome.INCONCLUSIVE] @ state).real
            assert p00 == pytest.approx(target, abs=1e-8)

    def test_wrong_conclusive_never_fires(self):
        cfg = ReceiverConfig(1.0, -1.0, 32)
        povm = povm_analytic(cfg)
        s1 = h.coherent_state(cfg.alpha1, cfg.dim)
        s2 = h.coherent_state(cfg.alpha2, cfg.dim)
        assert abs(np.vdot(s2, povm.elements[Outcome.CONCLUSIVE_1] @ s2)) <= 1e-9
        assert abs(np.vdot(s1, povm.elements[Outcome.CONCLUSIVE_2] @ s1)) <= 1e-9
        assert abs(np.vdot(s1, povm.elements[Outcome.ANOMALOUS] @ s1)) <= 1e-9
        assert abs(np.vdot(s2, povm.elements[Outcome.ANOMALOUS] @ s2)) <= 1e-9

    def test_truncation_adequacy_guard(self):
        message = guard_message(povm_analytic, ReceiverConfig(3.5, -3.5, 16))
        norm = adequacy_norm(message, "alpha1", 16)
        assert norm == pytest.approx(np.linalg.norm(h.coherent_state(3.5, 16)), abs=1e-12)

    def test_fock_dimension_guard(self):
        assert h.MAX_FOCK_DIM == 301  # sqrt(300!) ~ 1e307, sqrt(301!) overflows
        povm_analytic(ReceiverConfig(1.0, -1.0, h.MAX_FOCK_DIM))
        for dim in (h.MAX_FOCK_DIM + 1, 2000, 10**20):
            # raised before anything dim-sized is allocated or overflows; a
            # bright coherent state would otherwise underflow to norm 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                message = (
                    f"Fock dimension guard: dim={dim} exceeds 301, beyond which sqrt((dim-1)!) overflows a float"
                )
                assert guard_message(povm_analytic, ReceiverConfig(1.0, -1.0, dim)) == message
                assert guard_message(h.coherent_state, 40.0, dim) == message

    def test_inconclusive_element_is_scaled_coherent_projector(self):
        # :Q1 Q2: = exp(-|a1-a2|^2/4) |mu><mu| with mu the midpoint
        a1, a2 = 1.0 + 0.3j, -0.8 + 0.1j
        cfg = ReceiverConfig(a1, a2, 32)
        povm = povm_analytic(cfg)
        mu = 0.5 * (a1 + a2)
        state = h.coherent_state(mu, 32)
        oracle = math.exp(-0.25 * abs(a1 - a2) ** 2) * np.outer(state, state.conj())
        assert np.max(np.abs(povm.elements[Outcome.INCONCLUSIVE] - oracle)) <= 1e-12


class TestAncillaPovm:
    def test_two_mode_projections_are_complete(self):
        cfg = ReceiverConfig(0.7, -0.4 + 0.2j, 16)
        total = sum(oracles.ancilla_projections(cfg).values())
        assert np.max(np.abs(total - np.eye(16 * 16))) <= 1e-12

    def test_cross_oracle_agreement(self):
        cfg = ReceiverConfig(0.8, -0.8, 32)
        assert cross_discrepancy(povm_analytic(cfg), povm_ancilla(cfg)) <= oracles.element_bound(cfg.dim)

    def test_cross_oracle_probabilities(self):
        cfg = ReceiverConfig(0.0, 0.5, 32)
        pa = povm_analytic(cfg)
        pb = povm_ancilla(cfg)
        for sent in (cfg.alpha1, cfg.alpha2):
            probs_a = outcome_probabilities(cfg, sent, pa)
            probs_b = outcome_probabilities(cfg, sent, pb)
            for outcome in OUTCOME_ORDER:
                assert abs(probs_a[outcome] - probs_b[outcome]) <= oracles.probability_bound(sent, cfg.dim)

    def test_reduction_matches_literal_conjugation_path(self):
        # full path: conjugate each two-mode operator by the beam splitter,
        # then take the vacuum expectation over the unused port
        for eta in (1.0, 0.6):
            cfg = ReceiverConfig(0.9, -0.6 + 0.4j, 16, eta)
            analytic = povm_analytic(cfg)
            fused = povm_ancilla(cfg)
            for outcome, reduced in oracles.conjugated_ancilla_povm(cfg).items():
                assert np.max(np.abs(reduced - fused.elements[outcome])) <= 1e-12
                assert np.max(np.abs(reduced - analytic.elements[outcome])) <= oracles.element_bound(cfg.dim)

    def test_streamed_reduction_is_bitwise_the_dense_product(self, streamed_and_dense):
        # the slabs L[:, c] (x) [R | R'] of a pair of outcomes sharing L split
        # W^dag kron(L, R) and W^dag kron(L, R') along their columns only,
        # and OpenBLAS sums each entry over the same k however the columns
        # are split; the columns W never reads are exact zeros instead of
        # computed values, and adding a zero term changes no value.  So in
        # the recorded single-threaded environment every value agrees, and
        # off it this skips by name (the roundoff test below still runs).
        # The bytes agree too in the cases whose amplitudes are both nonzero.
        # An exactly zero amplitude gives factors with exact zeros, and the
        # narrower products (OpenBLAS takes another path for a smaller N)
        # flip the sign of some elements that are exactly zero: 16 of this
        # test's elements, all in its alpha1 = 0 cases, read -0 on one side
        # and +0 on the other.  np.array_equal counts -0 and +0 as equal.
        golden_env.require_recorded_environment("the streamed reduction's bits")
        for cfg, streamed, dense in streamed_and_dense:
            both_nonzero = cfg.alpha1 != 0 and cfg.alpha2 != 0
            for outcome, want in dense.items():
                got = streamed.elements[outcome]
                if both_nonzero:
                    assert got.tobytes() == want.tobytes(), (cfg, outcome)
                else:
                    assert np.array_equal(got, want), (cfg, outcome)

    def test_streamed_reduction_matches_the_dense_product_to_roundoff(self, streamed_and_dense):
        # the exact test's comparison in any environment
        for cfg, streamed, dense in streamed_and_dense:
            for outcome, want in dense.items():
                assert np.max(np.abs(streamed.elements[outcome] - want)) <= 1e-15, (cfg, outcome)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(ancilla_configs())
    def test_reduction_is_the_dense_product_over_random_receivers(self, cfg):
        # equal values in the recorded environment, skipped by name elsewhere;
        # real, imaginary and zero amplitudes give exact zeros whose sign the
        # two products may set differently, so values, not bytes, are compared
        golden_env.require_recorded_environment("the streamed reduction's values")
        streamed = povm_ancilla(cfg)
        for outcome, want in oracles.dense_ancilla_povm(cfg).items():
            assert np.array_equal(streamed.elements[outcome], want), (cfg, outcome)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(ancilla_configs())
    def test_reduction_matches_the_dense_product_over_random_receivers(self, cfg):
        # the property test's comparison in any environment
        streamed = povm_ancilla(cfg)
        for outcome, want in oracles.dense_ancilla_povm(cfg).items():
            assert np.max(np.abs(streamed.elements[outcome] - want)) <= 1e-15, (cfg, outcome)

    def test_reduction_never_holds_a_two_mode_operator(self):
        # one dense kron(L, R) alone is dim^4 * 16 bytes, 41 MB at dim 40;
        # the streamed reduction holds about 5 dim^3 complex numbers (W, two
        # half-products, one slab), 5.1 MB
        dim = 40
        cfg = ReceiverConfig(0.9, -0.7 + 0.2j, dim, 0.8)
        povm_ancilla(cfg)  # the first call also imports the sector table
        tracemalloc.start()
        try:
            povm_ancilla(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim**4 * 16 / 4
        assert peak <= 6 * dim**3 * 16

    def test_workspace_guard(self):
        # checked before the adequacy guard allocates anything dim-sized
        for dim in (66, 10**20):
            message = guard_message(povm_ancilla, ReceiverConfig(0.5, -0.5, dim))
            assert message == f"two-mode workspace guard: dim={dim} exceeds the cap 64"

    def test_isometry_guard(self, monkeypatch):
        columns = discrimination.vacuum_port_columns

        def leaky_columns(dim):
            return columns(dim) * (1 + 1e-6)

        monkeypatch.setattr(discrimination, "vacuum_port_columns", leaky_columns)
        message = guard_message(povm_ancilla, ReceiverConfig(0.5, -0.5, 16))
        defect = re.fullmatch(r"isometry guard: vacuum-port defect (\d\.\d{3}e-\d\d) exceeds 1\.0e-09", message)
        assert defect, message
        assert float(defect[1]) == pytest.approx(2e-6, rel=1e-3)  # (1 + 1e-6)^2 - 1

    def test_norm_guard_small_dim(self):
        message = guard_message(povm_ancilla, ReceiverConfig(2.5, -2.5, 8))
        norm = adequacy_norm(message, "alpha1", 8)
        assert norm == pytest.approx(np.linalg.norm(h.coherent_state(2.5, 8)), abs=1e-12)


class TestAnalyticMemory:
    def test_elements_are_assembled_in_place_and_adopted(self):
        # the four elements are 4 dim^2 complex numbers; the Gaussian builds
        # and the guards' one temporary per element stay within 7, where
        # out-of-place sums and copied elements held almost 14
        dim = 192
        cfg = ReceiverConfig(0.9, -0.7 + 0.2j, dim, 0.8)
        povm_analytic(cfg)  # the first call also warms numpy's linear algebra
        tracemalloc.start()
        try:
            povm_analytic(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * dim**2 * 16


class TestPovmInvariants:
    def test_randomized_positivity_completeness(self):
        # at least 50 randomized draws across the two constructions
        rng = np.random.default_rng(42)
        for i, (a1, a2) in enumerate(random_pairs(50, rng)):
            cfg = ReceiverConfig(a1, a2, 24)
            povm = povm_ancilla(cfg) if i % 5 == 0 else povm_analytic(cfg)
            assert povm.guards["completeness_residual"] <= 1e-9
            assert povm.guards["min_eigenvalue"] >= -1e-10
            assert povm.guards["hermiticity_defect"] <= 1e-9

    def test_guards_run_once_and_keep_their_values(self, monkeypatch):
        calls = []
        for method in ("completeness_residual", "min_eigenvalue", "max_hermiticity_defect"):

            def counted(self, _method=getattr(PovmSet, method), _name=method):
                calls.append(_name)
                return _method(self)

            monkeypatch.setattr(PovmSet, method, counted)
        cfg = ReceiverConfig(0.7 - 0.2j, -0.4 + 0.5j, 16, eta=0.8)
        eager = ["max_hermiticity_defect", "completeness_residual"]
        for build in (povm_analytic, povm_ancilla):
            calls.clear()
            povm = build(cfg)
            # positivity is certified without an eigenvalue; the least
            # eigenvalue is computed on the first read of guards, and only then
            assert calls == eager
            guards = povm.guards
            assert calls == eager + ["min_eigenvalue"]
            assert povm.guards is guards
            assert list(povm.guards) == ["completeness_residual", "min_eigenvalue", "hermiticity_defect"]
            assert calls == eager + ["min_eigenvalue"]
            assert povm.guards["completeness_residual"] == povm.completeness_residual()
            assert povm.guards["min_eigenvalue"] == povm.min_eigenvalue()
            assert povm.guards["hermiticity_defect"] == povm.max_hermiticity_defect()
            with pytest.raises(TypeError):
                povm.guards["min_eigenvalue"] = 0.0

    def test_hand_built_povm_is_guarded(self):
        cfg = ReceiverConfig(0.5, -0.5, 4)
        eye, zero = np.eye(4), np.zeros((4, 4))
        skew = np.zeros((4, 4))
        skew[0, 1] = 1e-6
        negative = np.diag([-1e-6, 0.0, 0.0, 0.0])
        nan = np.full((4, 4), np.nan)
        for elements, message in (
            ((eye - skew, skew, zero, zero), "hermiticity guard: POVM defect 1.000e-06 exceeds 1.0e-09"),
            ((nan, zero, zero, zero), "hermiticity guard: POVM defect nan exceeds 1.0e-09"),
            ((0.5 * eye, zero, zero, zero), "completeness guard: residual 5.000e-01 exceeds 1.0e-09"),
            ((eye - negative, negative, zero, zero), "positivity guard: eigenvalue -1.000e-06 below -1.0e-10"),
        ):
            assert guard_message(PovmSet, dict(zip(OUTCOME_ORDER, elements)), cfg) == message

    def test_roundoff_negative_eigenvalue_is_kept(self):
        # an eigenvalue inside the roundoff clamp builds and is reported as
        # measured, beside the -1e-6 the positivity guard rejects
        cfg = ReceiverConfig(0.5, -0.5, 4)
        eye, zero = np.eye(4), np.zeros((4, 4))
        negative = np.diag([-1e-12, 0.0, 0.0, 0.0])
        povm = PovmSet(dict(zip(OUTCOME_ORDER, (eye - negative, negative, zero, zero))), cfg)
        assert povm.guards["min_eigenvalue"] == -1e-12

    @pytest.mark.parametrize("lowest", [-1e-6, -1.5e-10, -1e-10, -7e-11, -5e-11, -1e-12, 0.0])
    def test_positivity_certificate_keeps_the_eigenvalue_rule(self, lowest, monkeypatch):
        # one diagonal element of least eigenvalue `lowest` beside dense ones
        # well inside the cone.  The Cholesky certificate, shifted by half the
        # clamp, decides alone above -5e-11; at and below it the least
        # eigenvalue is computed at construction and the rule decides.  A set
        # that builds takes one eigvalsh per element over its construction
        # and the first read of guards, wherever the eigenvalue was computed
        calls = []
        original = PovmSet.min_eigenvalue
        monkeypatch.setattr(PovmSet, "min_eigenvalue", lambda self: calls.append(1) or original(self))
        eigvalsh_calls = []

        def counted(matrix, _eigvalsh=np.linalg.eigvalsh):
            eigvalsh_calls.append(matrix.shape)
            return _eigvalsh(matrix)

        cfg = ReceiverConfig(0.5, -0.5, 4)
        v = np.array([1, 1j, -1, 2 - 1j]) / math.sqrt(8)
        dense = 0.25 * np.eye(4) + 0.25 * np.outer(v, v.conj())
        negative = np.diag([lowest, 0.0, 0.0, 0.0])
        elements = (np.eye(4) - negative - dense, negative, dense, np.zeros((4, 4)))
        assert least_eigenvalue(elements) == lowest
        mapping = dict(zip(OUTCOME_ORDER, elements))
        if lowest >= -1e-10:
            monkeypatch.setattr(np.linalg, "eigvalsh", counted)
            povm = PovmSet(mapping, cfg)
            assert len(calls) == (lowest <= -5e-11)
            assert povm.guards["min_eigenvalue"] == lowest
            assert len(eigvalsh_calls) == 4
            assert len(calls) == 1
        else:
            message = f"positivity guard: eigenvalue {lowest:.3e} below -1.0e-10"
            assert guard_message(PovmSet, mapping, cfg) == message
            assert len(calls) == 1

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(sets_near_the_clamp())
    def test_positivity_is_the_eigenvalue_rule_near_the_clamp(self, case):
        # a set builds exactly where its least eigenvalue is at least -1e-10,
        # and reports it; anywhere else it fails with the positivity message
        cfg, elements = case
        lowest = least_eigenvalue(elements)
        mapping = dict(zip(OUTCOME_ORDER, elements))
        if lowest >= -1e-10:
            assert PovmSet(mapping, cfg).guards["min_eigenvalue"] == lowest
        else:
            message = f"positivity guard: eigenvalue {lowest:.3e} below -1.0e-10"
            assert guard_message(PovmSet, mapping, cfg) == message

    def test_library_paths_take_no_eigenvalue(self, monkeypatch):
        # positivity is certified by Cholesky at construction; only a read of
        # guards takes eigvalsh, and no library function reads them
        calls = []

        def counted(matrix, _eigvalsh=np.linalg.eigvalsh):
            calls.append(matrix.shape)
            return _eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for eta in (0.8, 1.0, 0.0):
            cfg = ReceiverConfig(0.7 - 0.2j, -0.4 + 0.5j, 16, eta=eta)
            for build in (povm_analytic, povm_ancilla):
                povm = build(cfg)
                outcome_probabilities(cfg, cfg.alpha2, povm)
                optimality_check(cfg, povm)
        assert calls == []

    def test_missing_outcome_is_rejected(self):
        # the guards alone would pass this one-element set (residual 0.0)
        cfg = ReceiverConfig(0.5, -0.5, 4)
        message = (
            "POVM needs exactly the four outcomes: "
            "missing CONCLUSIVE_1, CONCLUSIVE_2, ANOMALOUS; unexpected none"
        )
        with pytest.raises(ValueError, match=message):
            PovmSet({Outcome.INCONCLUSIVE: np.eye(4)}, cfg)

    def test_unexpected_key_is_rejected(self):
        cfg = ReceiverConfig(0.5, -0.5, 4)
        elements = {o: np.zeros((4, 4)) for o in OUTCOME_ORDER}
        elements[Outcome.INCONCLUSIVE] = np.eye(4)
        with pytest.raises(ValueError, match="missing none; unexpected 'extra'"):
            PovmSet(elements | {"extra": np.eye(4)}, cfg)

    def test_element_of_another_dim_is_rejected(self):
        cfg = ReceiverConfig(0.5, -0.5, 4)
        elements = {o: np.eye(3) / 4 for o in OUTCOME_ORDER}
        message = r"POVM element INCONCLUSIVE has shape \(3, 3\), expected \(4, 4\) for dim=4"
        with pytest.raises(ValueError, match=message):
            PovmSet(elements, cfg)
        elements = {o: np.zeros((4, 4)) for o in OUTCOME_ORDER}
        elements[Outcome.ANOMALOUS] = np.eye(4)[:, :3]
        with pytest.raises(ValueError, match=r"ANOMALOUS has shape \(4, 3\), expected \(4, 4\)"):
            PovmSet(elements, cfg)
        # a 1 x 1 matrix, a non-square matrix and a vector, each with dim's rows
        cfg = ReceiverConfig(0.5, -0.5, 8)
        for matrix in (np.eye(1), np.zeros((8, 12)), np.zeros(8)):
            elements = {o: np.zeros((8, 8)) for o in OUTCOME_ORDER}
            elements[Outcome.CONCLUSIVE_2] = matrix
            message = f"CONCLUSIVE_2 has shape {matrix.shape}, expected (8, 8)"
            with pytest.raises(ValueError, match=re.escape(message)):
                PovmSet(elements, cfg)

    def test_non_mapping_is_rejected(self):
        cfg = ReceiverConfig(0.5, -0.5, 4)
        elements = [np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4))]
        with pytest.raises(ValueError, match="^POVM needs a mapping keyed by Outcome, got list$"):
            PovmSet(elements, cfg)

    def test_rebuilt_from_elements_is_a_copy(self):
        povm = povm_analytic(ReceiverConfig(0.7 - 0.2j, -0.4 + 0.5j, 16, eta=0.8))
        rebuilt = PovmSet(povm.elements, povm.config)
        assert dict(rebuilt.guards) == dict(povm.guards)
        for outcome in OUTCOME_ORDER:
            assert rebuilt.elements[outcome] is rebuilt[outcome].matrix
            assert rebuilt.elements[outcome].tobytes() == povm.elements[outcome].tobytes()
            assert not np.shares_memory(rebuilt.elements[outcome], povm.elements[outcome])
            assert not rebuilt.elements[outcome].flags.writeable

    def test_elements_are_kept_in_outcome_order(self):
        cfg = ReceiverConfig(0.5, -0.5, 4)
        reverse = {o: np.eye(4) * (o is Outcome.INCONCLUSIVE) for o in reversed(OUTCOME_ORDER)}
        assert list(PovmSet(reverse, cfg).elements) == list(OUTCOME_ORDER)

    def test_elements_cannot_be_replaced(self):
        # a replaced INCONCLUSIVE of 7 I would skip every guard
        povm = povm_analytic(ReceiverConfig(0.5, -0.5, 8))
        with pytest.raises(TypeError):
            povm.elements[Outcome.INCONCLUSIVE] = 7 * np.eye(8)

    def test_element_matrices_are_read_only(self):
        povm = povm_analytic(ReceiverConfig(0.5, -0.5, 8))
        before = povm.elements[Outcome.ANOMALOUS].copy()
        with pytest.raises(ValueError, match="read-only"):
            povm.elements[Outcome.ANOMALOUS][0, 0] = 5.0
        assert np.array_equal(povm.elements[Outcome.ANOMALOUS], before)

    def test_caller_array_stays_writeable_and_is_copied(self):
        # a caller writing 7 I into the array it built INCONCLUSIVE from must
        # not break the completeness the guards measured
        cfg = ReceiverConfig(0.5, -0.5, 4)
        elements = {o: np.zeros((4, 4), dtype=np.complex128) for o in OUTCOME_ORDER}
        elements[Outcome.INCONCLUSIVE] = np.eye(4, dtype=np.complex128)
        povm = PovmSet(elements, cfg)
        for outcome in OUTCOME_ORDER:
            assert elements[outcome].flags.writeable
            assert not povm.elements[outcome].flags.writeable
            assert not np.shares_memory(povm.elements[outcome], elements[outcome])
        elements[Outcome.INCONCLUSIVE][:] = 7 * np.eye(4)
        assert povm.completeness_residual() == povm.guards["completeness_residual"] == 0.0
        assert povm.max_hermiticity_defect() == povm.guards["hermiticity_defect"]
        assert povm.min_eigenvalue() == povm.guards["min_eigenvalue"]

    def test_zero_error_and_never_both_click(self):
        rng = np.random.default_rng(43)
        for a1, a2 in random_pairs(10, rng):
            for eta in (1.0, 0.6):
                cfg = ReceiverConfig(a1, a2, 32, eta=eta)
                povm = povm_analytic(cfg)
                p1 = outcome_probabilities(cfg, a1, povm)
                p2 = outcome_probabilities(cfg, a2, povm)
                assert p1[Outcome.CONCLUSIVE_2] <= 1e-9
                assert p2[Outcome.CONCLUSIVE_1] <= 1e-9
                assert p1[Outcome.ANOMALOUS] <= 1e-9
                assert p2[Outcome.ANOMALOUS] <= 1e-9

    # The exact symmetries of the receiver, each checked on both constructions
    # at the element bound.  Every one holds exactly in the truncated basis,
    # so a gap above roundoff is a convention slip in a construction.
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(symmetry_cases())
    def test_phase_covariance(self, case):
        # a common phase rotates the pair as R = exp(i phi n) rotates its
        # states, and R A R^dag [j, k] = e^(i (j - k) phi) A[j, k]
        cfg, phi = case
        turn = np.exp(1j * phi)
        rotated = ReceiverConfig(cfg.alpha1 * turn, cfg.alpha2 * turn, cfg.dim, cfg.eta)
        phases = np.exp(1j * phi * np.arange(cfg.dim))
        for build in (povm_analytic, povm_ancilla):
            povm, moved = build(cfg), build(rotated)
            for outcome in OUTCOME_ORDER:
                want = phases[:, None] * povm.elements[outcome] * phases.conj()[None, :]
                assert np.max(np.abs(moved.elements[outcome] - want)) <= oracles.element_bound(cfg.dim), outcome

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(symmetry_cases())
    def test_conjugation_symmetry(self, case):
        # conjugating both amplitudes conjugates every element
        cfg, _ = case
        mirrored = ReceiverConfig(cfg.alpha1.conjugate(), cfg.alpha2.conjugate(), cfg.dim, cfg.eta)
        for build in (povm_analytic, povm_ancilla):
            povm, conjugated = build(cfg), build(mirrored)
            for outcome in OUTCOME_ORDER:
                gap = np.max(np.abs(conjugated.elements[outcome] - povm.elements[outcome].conj()))
                assert gap <= oracles.element_bound(cfg.dim), outcome

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(symmetry_cases())
    def test_swap_symmetry(self, case):
        # exchanging alpha1 and alpha2 exchanges A_01 and A_10
        cfg, _ = case
        exchanged = ReceiverConfig(cfg.alpha2, cfg.alpha1, cfg.dim, cfg.eta)
        pairs = [
            (Outcome.INCONCLUSIVE, Outcome.INCONCLUSIVE),
            (Outcome.CONCLUSIVE_1, Outcome.CONCLUSIVE_2),
            (Outcome.CONCLUSIVE_2, Outcome.CONCLUSIVE_1),
            (Outcome.ANOMALOUS, Outcome.ANOMALOUS),
        ]
        for build in (povm_analytic, povm_ancilla):
            povm, swapped = build(cfg), build(exchanged)
            for orig, mirror in pairs:
                gap = np.max(np.abs(povm.elements[orig] - swapped.elements[mirror]))
                assert gap <= oracles.element_bound(cfg.dim), orig

    def test_discrepancy_never_grows_with_dim(self):
        # both constructions reproduce the untruncated matrix elements, so the
        # discrepancy sits at the floating-point floor for every dim; growing
        # the basis must never push it above that floor
        a1, a2 = 1.2, -1.0 + 0.4j
        discs = []
        for dim in (16, 24, 32, 48):
            cfg = ReceiverConfig(a1, a2, dim)
            discs.append(cross_discrepancy(povm_analytic(cfg), povm_ancilla(cfg)))
        for smaller, larger in zip(discs, discs[1:]):
            assert larger <= smaller + 1e-14
        assert max(discs) <= 1e-12


class TestOutcomeProbabilities:
    def test_distribution_sums_to_one(self):
        cfg = ReceiverConfig(0.8, -0.3 + 0.5j, 32)
        povm = povm_analytic(cfg)
        probs = outcome_probabilities(cfg, cfg.alpha1, povm)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in probs.values())

    def test_blind_detectors(self):
        cfg = ReceiverConfig(0.8, -0.8, 32, eta=0.0)
        for povm in (povm_analytic(cfg), povm_ancilla(cfg)):
            assert np.array_equal(povm.elements[Outcome.INCONCLUSIVE], np.eye(32))
            probs = outcome_probabilities(cfg, cfg.alpha1, povm)
            assert probs[Outcome.INCONCLUSIVE] == 1.0
            assert all(probs[o] == 0.0 for o in OUTCOME_ORDER if o is not Outcome.INCONCLUSIVE)

    def test_matches_closed_form_at_reduced_efficiency(self):
        cfg = ReceiverConfig(1.0, -1.0, 32, eta=0.7)
        povm = povm_analytic(cfg)
        for sent in (cfg.alpha1, cfg.alpha2, 0.3 + 0.1j):
            numeric = outcome_probabilities(cfg, sent, povm)
            closed = closed_form_probabilities(cfg, sent)
            for outcome in OUTCOME_ORDER:
                assert numeric[outcome] == pytest.approx(closed[outcome], abs=1e-9)

    def test_eta_one_returns_expectations(self):
        cfg = ReceiverConfig(1.0, -1.0, 32)
        povm = povm_analytic(cfg)
        probs = outcome_probabilities(cfg, cfg.alpha1, povm)
        closed = closed_form_probabilities(cfg, cfg.alpha1)
        assert probs[Outcome.CONCLUSIVE_1] == pytest.approx(
            closed[Outcome.CONCLUSIVE_1], abs=1e-10
        )

    def test_dimension_mismatch_rejected(self):
        # a POVM answers only for the config it was built for: dim and eta
        povm = povm_analytic(ReceiverConfig(1.0, -1.0, 32))
        for other in (ReceiverConfig(1.0, -1.0, 24), ReceiverConfig(1.0, -1.0, 32, eta=0.5)):
            with pytest.raises(ValueError):
                outcome_probabilities(other, 1.0, povm)

    def test_normalization_guard(self):
        # a state the truncation cannot hold: its expectations sum to the
        # truncated norm squared, which the complete POVM reproduces
        cfg = ReceiverConfig(0.5, -0.5, 8)
        message = guard_message(outcome_probabilities, cfg, 3.0, povm_analytic(cfg))
        total = re.fullmatch(
            r"probability normalization guard: outcome probabilities sum to (\d\.\d+), off by more than 1\.0e-09",
            message,
        )
        assert total, message
        assert float(total[1]) == pytest.approx(np.linalg.norm(h.coherent_state(3.0, 8)) ** 2, abs=1e-12)

    def test_clamp_and_imaginary_residue_are_logged(self, caplog):
        # hand-built POVMs inside the structural guards' 1e-9: one whose
        # inconclusive element overshoots I by 5e-10, and one whose
        # anti-Hermitian 4e-10j off-diagonal leaves an imaginary expectation
        cfg = ReceiverConfig(0.5, -0.5, 12)
        eye, zero = np.eye(12), np.zeros((12, 12))
        a = np.zeros((12, 12), dtype=complex)
        a[0, 1] = a[1, 0] = 4e-10j
        for elements, line in (
            (((1 + 5e-10) * eye, zero, zero, zero), "clamped probability of outcome 00 by 5.000e-10"),
            ((eye + a, zero, zero, -a), "imaginary residue 3.115e-10 in <00> expectation exceeds 1e-10"),
        ):
            caplog.clear()
            with caplog.at_level("WARNING", logger="usdsim.discrimination"):
                outcome_probabilities(cfg, 0.5, PovmSet(dict(zip(OUTCOME_ORDER, elements)), cfg))
            assert line in caplog.messages


class TestInconclusiveRate:
    def test_identical_states(self):
        assert inconclusive_rate(0.7j, 0.7j) == 1.0

    def test_opposite_unit_amplitudes(self):
        assert inconclusive_rate(1.0, -1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_equals_truncated_overlap_modulus(self):
        a1, a2 = 0.9j, 0.1
        s1 = h.coherent_state(a1, 48)
        s2 = h.coherent_state(a2, 48)
        assert inconclusive_rate(a1, a2) == pytest.approx(abs(np.vdot(s1, s2)), abs=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            inconclusive_rate(float("nan"), 0.0)
        with pytest.raises(ValueError):
            inconclusive_rate(1e200, 0.0)
        with pytest.raises(ValueError):
            closed_form_probabilities(ReceiverConfig(1.0, -1.0, 16), float("nan"))

    def test_overflowing_separation_reaches_its_limit(self):
        # each |alpha|^2 = 1e308 fits a float, |alpha1 - alpha2|^2 = 4e308 does not
        assert inconclusive_rate(1e154, -1e154) == 0.0
        for eta, expected in ((1.0, [0.0, 1.0, 0.0, 0.0]), (0.0, [1.0, 0.0, 0.0, 0.0])):
            cfg = ReceiverConfig(1e154, -1e154, 32, eta)
            closed = closed_form_probabilities(cfg, 1e154)
            assert [closed[o] for o in OUTCOME_ORDER] == expected


class TestOptimality:
    def test_ideal_receiver_attains_bound(self):
        cfg = ReceiverConfig(0.6, -0.6, 32)
        report = optimality_check(cfg, povm_analytic(cfg))
        assert abs(report.gap) <= 1e-8

    def test_inefficiency_exceeds_bound(self):
        cfg = ReceiverConfig(0.6, -0.6, 32, eta=0.5)
        report = optimality_check(cfg, povm_analytic(cfg))
        assert report.gap > 1e-3

    def test_near_degenerate_pair(self):
        cfg = ReceiverConfig(0.6, 0.6 + 1e-3, 32)
        report = optimality_check(cfg, povm_analytic(cfg))
        assert report.quantum_bound == pytest.approx(1.0, abs=1e-5)
        assert abs(report.gap) <= 1e-8
