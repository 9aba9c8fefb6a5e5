"""State/observable algebra: frozen examples plus representation properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ID,
    SX,
    SY,
    SZ,
    bloch_vectors,
    observables,
    oracle_anticommutator_term,
    oracle_commutator_term,
    oracle_obs,
    oracle_state,
    oracle_variance,
    oracle_xi,
    qubit_states,
)
from qubitvar.core import (
    BlochVector,
    GeneralState,
    OBS_I,
    OBS_X,
    OBS_Y,
    OBS_Z,
    PauliObservable,
    QubitState,
    anticommutator_term,
    anticommutator_terms,
    bloch_array,
    bloch_to_matrix,
    commutator_term,
    commutator_terms,
    decompose_observable,
    expectation,
    expectations,
    matrix_to_bloch,
    mixedness,
    mixedness_general,
    mixedness_values,
    random_bloch_vectors,
    random_density_matrix,
    random_qubit_state,
    symmetrized_products,
    variance,
    variances,
    xi,
    xi_values,
)
from qubitvar.errors import (
    BadDimension,
    BlochNormExceeded,
    NonFiniteInput,
    NotHermitian,
    NotPositive,
    NumericalInconsistency,
    TraceNotOne,
)

MAXMIXED = QubitState(BlochVector(0.0, 0.0, 0.0))
GROUND = QubitState(BlochVector(0.0, 0.0, 1.0))  # |0><0|


class TestRepresentations:
    def test_pauli_constants_are_standard(self):
        from qubitvar.core import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z

        assert np.array_equal(PAULI_X, SX)
        assert np.array_equal(PAULI_Y, SY)
        assert np.array_equal(PAULI_Z, SZ)
        assert np.array_equal(IDENTITY, ID)

    def test_zero_vector_gives_maximally_mixed(self):
        state = bloch_to_matrix((0.0, 0.0, 0.0))
        assert np.allclose(state.matrix, ID / 2, atol=0)

    def test_z_pole_gives_ground_projector(self):
        state = bloch_to_matrix((0.0, 0.0, 1.0))
        assert np.allclose(state.matrix, np.diag([1.0, 0.0]), atol=0)

    def test_x_axis_state_hand_expanded(self):
        # (I + 0.6 sx)/2 = [[0.5, 0.3], [0.3, 0.5]]
        state = bloch_to_matrix((0.6, 0.0, 0.0))
        assert np.allclose(state.matrix, [[0.5, 0.3], [0.3, 0.5]], atol=1e-15)

    def test_matrix_to_bloch_trivial_cases(self):
        assert matrix_to_bloch(ID / 2).as_array() == pytest.approx([0, 0, 0], abs=1e-15)
        assert matrix_to_bloch(np.diag([1.0, 0.0])).as_array() == pytest.approx(
            [0, 0, 1], abs=1e-15
        )

    def test_matrix_to_bloch_roundtrip(self):
        back = matrix_to_bloch(bloch_to_matrix((0.6, 0.0, 0.0)).matrix)
        assert back.as_array() == pytest.approx([0.6, 0.0, 0.0], abs=1e-12)

    def test_bloch_norm_exceeded(self):
        with pytest.raises(BlochNormExceeded):
            BlochVector(1.0, 0.1, 0.0)

    def test_matrix_validation_errors(self):
        with pytest.raises(NotHermitian):
            matrix_to_bloch(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
        with pytest.raises(TraceNotOne):
            matrix_to_bloch(0.8 * ID)
        with pytest.raises(NotPositive):
            matrix_to_bloch(np.diag([1.5, -0.5]).astype(complex))

    @settings(deadline=None)
    @given(bloch_vectors())
    def test_roundtrip_property(self, b):
        back = matrix_to_bloch(QubitState(b).matrix)
        assert np.abs(back.as_array() - b.as_array()).max() <= 1e-12


class TestObservables:
    def test_decompose_sigma_x(self):
        obs = decompose_observable(SX)
        assert (obs.a1, obs.a2, obs.a3, obs.a4) == (1.0, 0.0, 0.0, 0.0)

    def test_decompose_identity(self):
        obs = decompose_observable(ID)
        assert (obs.a1, obs.a2, obs.a3, obs.a4) == (0.0, 0.0, 0.0, 1.0)

    def test_decompose_mixed_matrix(self):
        # [[2, 1], [1, 0]] = sx + sz + I
        obs = decompose_observable(np.array([[2, 1], [1, 0]], dtype=complex))
        assert (obs.a1, obs.a2, obs.a3, obs.a4) == (1.0, 0.0, 1.0, 1.0)
        assert np.allclose(obs.matrix, oracle_obs(1, 0, 1, 1), atol=0)

    def test_decompose_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            decompose_observable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_observable_arithmetic(self):
        combo = 2.0 * OBS_X + OBS_I
        assert (combo.a1, combo.a2, combo.a3, combo.a4) == (2.0, 0.0, 0.0, 1.0)

    @settings(deadline=None)
    @given(observables())
    def test_decompose_reconstruct_roundtrip(self, obs):
        back = decompose_observable(obs.matrix)
        assert np.abs(back.matrix - obs.matrix).max() <= 1e-12


class TestMoments:
    def test_expectation_examples(self):
        assert expectation(MAXMIXED, OBS_Z) == 0.0
        assert expectation(GROUND, OBS_Z) == pytest.approx(1.0, abs=1e-15)
        state = bloch_to_matrix((0.6, 0.0, 0.0))
        assert expectation(state, OBS_X + 2.0 * OBS_I) == pytest.approx(2.6, abs=1e-12)

    def test_variance_examples(self):
        assert variance(GROUND, OBS_Z) == 0.0
        assert variance(GROUND, OBS_X) == pytest.approx(1.0, abs=1e-15)
        # identity shifts leave the variance unchanged
        assert variance(GROUND, OBS_X + 2.0 * OBS_I) == pytest.approx(1.0, abs=1e-12)

    def test_commutator_term_examples(self):
        assert commutator_term(MAXMIXED, OBS_X, OBS_Z) == 0.0
        # [sx, sy] = 2i sz and <sz> = 1 on |0><0|
        assert commutator_term(GROUND, OBS_X, OBS_Y) == pytest.approx(1.0, abs=1e-12)
        obs = PauliObservable(0.3, -1.2, 0.7, 0.1)
        assert commutator_term(GROUND, obs, obs) == 0.0

    def test_anticommutator_term_examples(self):
        assert anticommutator_term(MAXMIXED, OBS_X, OBS_Z) == 0.0
        obs = PauliObservable(1.5, 0.0, -0.5, 2.0)
        state = bloch_to_matrix((0.2, -0.4, 0.1))
        assert anticommutator_term(state, obs, obs) == pytest.approx(
            variance(state, obs) ** 2, abs=1e-10
        )

    def test_anticommutator_term_against_matrix_oracle(self):
        rho = oracle_state(0.6, 0.0, 0.0)
        a = oracle_obs(1, 0, 0, 0)
        b = oracle_obs(1, 0, 1, 0)
        sym = np.trace(rho @ (a @ b + b @ a)).real / 2
        want = (sym - np.trace(rho @ a).real * np.trace(rho @ b).real) ** 2
        state = bloch_to_matrix((0.6, 0.0, 0.0))
        got = anticommutator_term(state, OBS_X, OBS_X + OBS_Z)
        assert got == pytest.approx(want, abs=1e-12)

    def test_xi_examples(self):
        assert xi(OBS_X, OBS_X) == pytest.approx(4.0, abs=1e-15)
        assert xi(OBS_X, OBS_Z) == 0.0
        assert xi(OBS_I, OBS_I) == 0.0

    @settings(deadline=None)
    @given(qubit_states(), observables(), observables())
    def test_closed_forms_match_matrix_route(self, state, obs_a, obs_b):
        b = state.bloch
        rho = oracle_state(b.px, b.py, b.pz)
        a_mat = oracle_obs(obs_a.a1, obs_a.a2, obs_a.a3, obs_a.a4)
        b_mat = oracle_obs(obs_b.a1, obs_b.a2, obs_b.a3, obs_b.a4)
        assert variance(state, obs_a) == pytest.approx(
            max(oracle_variance(rho, a_mat), 0.0), abs=1e-12
        )
        assert commutator_term(state, obs_a, obs_b) == pytest.approx(
            oracle_commutator_term(rho, a_mat, b_mat), rel=1e-10, abs=1e-11
        )
        assert anticommutator_term(state, obs_a, obs_b) == pytest.approx(
            oracle_anticommutator_term(rho, a_mat, b_mat), rel=1e-10, abs=1e-11
        )
        assert xi(obs_a, obs_b) == pytest.approx(oracle_xi(a_mat, b_mat), abs=1e-12)

    def test_linear_covariance_form_needs_outer_square(self):
        # the linear Bloch expression for the covariance term equals
        # -(a.b - (a.p)(b.p)); only its square matches the matrix value
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_bloch_vectors(rng, 1)[0]
            a = rng.uniform(-5, 5, 4)
            b = rng.uniform(-5, 5, 4)
            state = bloch_to_matrix(p)
            obs_a, obs_b = PauliObservable(*a), PauliObservable(*b)
            linear = sum(
                (
                    ((p[0] ** 2 - 1) * a[0] + p[0] * (p[1] * a[1] + p[2] * a[2])) * b[0],
                    (p[0] * p[1] * a[0] + (p[1] ** 2 - 1) * a[1] + p[1] * p[2] * a[2]) * b[1],
                    (p[0] * p[2] * a[0] + p[1] * p[2] * a[1] + (p[2] ** 2 - 1) * a[2]) * b[2],
                )
            )
            assert anticommutator_term(state, obs_a, obs_b) == pytest.approx(
                linear**2, abs=1e-10
            )

    @settings(deadline=None)
    @given(qubit_states(), observables(), st.floats(-10, 10, allow_nan=False))
    def test_variance_shift_invariance(self, state, obs, shift):
        shifted = obs + PauliObservable(0.0, 0.0, 0.0, shift)
        assert variance(state, shifted) == pytest.approx(variance(state, obs), abs=1e-12)

    @settings(deadline=None)
    @given(observables(), observables())
    def test_xi_gram_nonnegative_adversarial(self, obs_a, obs_b):
        # parallel pairs can round a hair below zero; scale the floor with
        # the product magnitude (the exact value is >= 0 by Cauchy-Schwarz)
        product = xi(obs_a, obs_a) * xi(obs_b, obs_b)
        gram = product - xi(obs_a, obs_b) ** 2
        assert gram >= -1e-12 * max(1.0, abs(product))


class TestArrayMoments:
    def test_non_finite_components_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteInput):
                BlochVector(bad, 0.0, 0.0)
            with pytest.raises(NonFiniteInput):
                PauliObservable(0.0, 0.0, bad, 0.0)

    def test_bloch_array_rejects_rows_outside_ball_and_nan(self):
        assert bloch_array([[0.0, 0.0, 1.0], [0.1, 0.2, 0.3]]).shape == (2, 3)
        with pytest.raises(BlochNormExceeded):
            bloch_array([[0.0, 0.0, 0.5], [1.0, 0.1, 0.0]])
        with pytest.raises(BlochNormExceeded):
            variances([[0.0, 0.0, 0.5], [math.nan, 0.0, 0.0]], OBS_X.coeffs)

    def test_variance_clamp_raises_on_any_row(self):
        # |p|^2 = 1 + 8e-13 passes the ball check, but a large observable
        # turns the excess into a variance of -8e-7, which must raise
        ok = variances([[0.0, 0.0, 1.0]], OBS_Z.coeffs)
        assert ok.tolist() == [0.0]
        with pytest.raises(NumericalInconsistency):
            variances([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 4e-13]], [0.0, 0.0, 1e3, 0.0])

    @settings(deadline=None, max_examples=50)
    @given(st.lists(bloch_vectors(), min_size=1, max_size=8), observables(), observables())
    def test_stacked_rows_match_scalar_forms(self, vectors, obs_a, obs_b):
        p = np.array([v.as_array() for v in vectors])
        a, b = obs_a.coeffs, obs_b.coeffs
        stacked = {
            "expectation": expectations(p, a),
            "variance": variances(p, a),
            "commutator": commutator_terms(p, a, b),
            "anticommutator": anticommutator_terms(p, a, b),
            "mixedness": mixedness_values(p),
        }
        for i, vector in enumerate(vectors):
            state = QubitState(vector)
            assert stacked["expectation"][i] == expectation(state, obs_a)
            assert stacked["variance"][i] == variance(state, obs_a)
            assert stacked["commutator"][i] == commutator_term(state, obs_a, obs_b)
            assert stacked["anticommutator"][i] == anticommutator_term(state, obs_a, obs_b)
            assert stacked["mixedness"][i] == mixedness(state)
        assert float(xi_values(a, b)) == xi(obs_a, obs_b)

    def test_symmetrized_products_against_dense(self, rng):
        a = rng.uniform(-3, 3, size=(50, 4))
        b = rng.uniform(-3, 3, size=(50, 4))
        c = symmetrized_products(a, b)
        for ai, bi, ci in zip(a, b, c):
            am, bm = oracle_obs(*ai), oracle_obs(*bi)
            assert np.abs(oracle_obs(*ci) - 0.5 * (am @ bm + bm @ am)).max() <= 1e-12


class TestMixedness:
    def test_qubit_examples(self):
        assert mixedness(MAXMIXED) == 0.5
        assert mixedness(GROUND) == pytest.approx(0.0, abs=1e-15)
        state = bloch_to_matrix((0.6, 0.0, 0.0))
        rho = oracle_state(0.6, 0, 0)
        assert mixedness(state) == pytest.approx(1 - np.trace(rho @ rho).real, abs=1e-12)
        assert mixedness(state) == pytest.approx(0.32, abs=1e-12)

    def test_general_dimension_examples(self):
        assert mixedness_general(GeneralState(np.eye(3) / 3)) == pytest.approx(
            2 / 3, abs=1e-12
        )
        pure = np.zeros((5, 5), dtype=complex)
        pure[2, 2] = 1.0
        assert mixedness_general(GeneralState(pure)) == 0.0
        half_half = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert mixedness_general(GeneralState(half_half)) == pytest.approx(0.5, abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 4),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
    )
    def test_mixedness_convexity(self, dim, weight, seed):
        state_a = random_density_matrix([seed, 0], dim)
        state_b = random_density_matrix([seed, 1], dim)
        combo = GeneralState(weight * state_a.matrix + (1 - weight) * state_b.matrix)
        lhs = mixedness_general(combo)
        rhs = weight * mixedness_general(state_a) + (1 - weight) * mixedness_general(state_b)
        assert lhs >= rhs - 1e-12


class TestSampling:
    def test_fixed_seed_reproducible(self):
        assert random_qubit_state(42, "mixed") == random_qubit_state(42, "mixed")
        first = random_density_matrix(7, 3)
        second = random_density_matrix(7, 3)
        assert np.array_equal(first.matrix, second.matrix)

    def test_pure_samples_have_zero_mixedness(self):
        vectors = random_bloch_vectors(3, 100_000, "pure")
        mix = 0.5 * (1.0 - np.einsum("nk,nk->n", vectors, vectors))
        assert np.abs(mix).mean() < 1e-10

    def test_uniform_ball_radius_cubed_moment(self):
        # |p|^3 is uniform on [0, 1] for the volume measure: mean 1/2
        vectors = random_bloch_vectors(5, 100_000, "mixed")
        r3 = np.linalg.norm(vectors, axis=1) ** 3
        sigma = math.sqrt(1.0 / 12.0 / len(r3))
        assert abs(r3.mean() - 0.5) < 3 * sigma

    def test_single_state_matches_batch_ensemble(self):
        state = random_qubit_state(11, "pure")
        assert state.bloch.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_ginibre_outputs_are_valid(self):
        for dim in (2, 3, 5):
            state = random_density_matrix([0, dim], dim)
            assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-10

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            random_density_matrix(0, 1)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            random_bloch_vectors(0, 3, "thermal")
