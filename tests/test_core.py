"""State/observable algebra: frozen examples plus representation properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ID,
    ORIGIN,
    SX,
    SY,
    SZ,
    Z_POLE,
    I,
    X,
    Y,
    Z,
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
from qubitvar import feedback, relations, tightness
from qubitvar.core import (
    BlochVector,
    OBS_X,
    OBS_Z,
    PauliObservable,
    QubitState,
    anticommutator_terms,
    bloch_array,
    commutator_terms,
    decompose_observable,
    density_matrices,
    matrix_to_bloch,
    mixedness,
    mixedness_general,
    mixedness_values,
    random_bloch_vectors,
    random_density_matrix,
    symmetrized_products,
    variances,
    xi_values,
)
from qubitvar.errors import (
    BadDimension,
    BlochNormExceeded,
    InvalidArgument,
    NonFiniteInput,
    NotHermitian,
    NotPositive,
    NumericalInconsistency,
    TraceNotOne,
)
from qubitvar.relations import high_outcome_probabilities

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
        assert np.allclose(density_matrices(ORIGIN), ID / 2, atol=0)
        assert np.allclose(density_matrices(MAXMIXED.bloch.as_array()), ID / 2, atol=0)

    def test_z_pole_gives_ground_projector(self):
        assert np.allclose(density_matrices(Z_POLE), np.diag([1.0, 0.0]), atol=0)

    def test_x_axis_state_hand_expanded(self):
        # (I + 0.6 sx)/2 = [[0.5, 0.3], [0.3, 0.5]]
        rho = density_matrices([0.6, 0.0, 0.0])
        assert np.allclose(rho, [[0.5, 0.3], [0.3, 0.5]], atol=1e-15)

    def test_matrix_to_bloch_trivial_cases(self):
        assert matrix_to_bloch(ID / 2) == pytest.approx([0, 0, 0], abs=1e-15)
        assert matrix_to_bloch(np.diag([1.0, 0.0])) == pytest.approx([0, 0, 1], abs=1e-15)

    def test_matrix_to_bloch_roundtrip(self):
        back = matrix_to_bloch(density_matrices([0.6, 0.0, 0.0]))
        assert back.shape == (3,)
        assert back == pytest.approx([0.6, 0.0, 0.0], abs=1e-12)
        # a stack keeps its leading shape: (2, 3, 2, 2) -> (2, 3, 3)
        p = random_bloch_vectors(4, 6).reshape(2, 3, 3)
        back = matrix_to_bloch(density_matrices(p))
        assert back.shape == (2, 3, 3)
        assert np.abs(back - p).max() <= 1e-12

    def test_bloch_norm_exceeded(self):
        with pytest.raises(BlochNormExceeded):
            BlochVector(1.0, 0.1, 0.0)

    def test_matrix_validation_errors(self):
        valid = ID / 2
        bad = {
            NotHermitian: np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex),
            TraceNotOne: 0.8 * ID,
            NotPositive: np.diag([1.5, -0.5]).astype(complex),
            NonFiniteInput: np.diag([math.nan, 0.5]).astype(complex),
        }
        for error, matrix in bad.items():
            with pytest.raises(error):
                matrix_to_bloch(matrix)
            # every matrix of a stack is checked, not only the first
            with pytest.raises(error):
                matrix_to_bloch(np.stack([valid, valid, matrix]))
        with pytest.raises(BadDimension):
            matrix_to_bloch(np.eye(3) / 3)
        with pytest.raises(BadDimension):
            decompose_observable(np.ones(4))

    @settings(deadline=None)
    @given(bloch_vectors())
    def test_roundtrip_property(self, b):
        back = matrix_to_bloch(density_matrices(b.as_array()))
        assert np.abs(back - b.as_array()).max() <= 1e-12


class TestObservables:
    def test_decompose_sigma_x(self):
        assert decompose_observable(SX).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_decompose_identity(self):
        assert decompose_observable(ID).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_decompose_mixed_matrix(self):
        # [[2, 1], [1, 0]] = sx + sz + I
        coeffs = decompose_observable(np.array([[2, 1], [1, 0]], dtype=complex))
        assert coeffs.tolist() == [1.0, 0.0, 1.0, 1.0]
        # a stack decomposes row by row
        stacked = decompose_observable(np.stack([SX, ID, SY, SZ]))
        assert stacked.tolist() == np.eye(4)[[0, 3, 1, 2]].tolist()

    def test_decompose_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            decompose_observable(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(NotHermitian):
            decompose_observable(np.stack([SX, np.array([[0, 1], [0, 0]], dtype=complex)]))

    @settings(deadline=None)
    @given(observables())
    def test_decompose_reconstruct_roundtrip(self, obs):
        matrix = oracle_obs(*obs.coeffs)
        back = decompose_observable(matrix)
        assert np.abs(oracle_obs(*back) - matrix).max() <= 1e-12


class TestMoments:
    def test_expectation_examples(self):
        # <A> = a4 + |a| (2 p_hi - 1) from the outcome probabilities is tr(rho A)
        def mean(p, a):
            return a[3] + math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2) * (
                2.0 * high_outcome_probabilities(p, a) - 1.0
            )

        assert mean(ORIGIN, Z) == 0.0
        assert mean(Z_POLE, Z) == pytest.approx(1.0, abs=1e-15)
        assert mean([0.6, 0.0, 0.0], X + 2.0 * I) == pytest.approx(2.6, abs=1e-12)

    def test_variance_examples(self):
        assert variances(Z_POLE, Z) == 0.0
        assert variances(Z_POLE, X) == pytest.approx(1.0, abs=1e-15)
        # identity shifts leave the variance unchanged
        assert variances(Z_POLE, X + 2.0 * I) == pytest.approx(1.0, abs=1e-12)

    def test_commutator_term_examples(self):
        assert commutator_terms(ORIGIN, X, Z) == 0.0
        # [sx, sy] = 2i sz and <sz> = 1 on |0><0|
        assert commutator_terms(Z_POLE, X, Y) == pytest.approx(1.0, abs=1e-12)
        obs = [0.3, -1.2, 0.7, 0.1]
        assert commutator_terms(Z_POLE, obs, obs) == 0.0

    def test_anticommutator_term_examples(self):
        assert anticommutator_terms(ORIGIN, X, Z) == 0.0
        obs = [1.5, 0.0, -0.5, 2.0]
        p = [0.2, -0.4, 0.1]
        assert anticommutator_terms(p, obs, obs) == pytest.approx(
            variances(p, obs) ** 2, abs=1e-10
        )

    def test_anticommutator_term_against_matrix_oracle(self):
        rho = oracle_state(0.6, 0.0, 0.0)
        a = oracle_obs(1, 0, 0, 0)
        b = oracle_obs(1, 0, 1, 0)
        sym = np.trace(rho @ (a @ b + b @ a)).real / 2
        want = (sym - np.trace(rho @ a).real * np.trace(rho @ b).real) ** 2
        got = anticommutator_terms([0.6, 0.0, 0.0], X, X + Z)
        assert got == pytest.approx(want, abs=1e-12)

    def test_xi_examples(self):
        assert xi_values(X, X) == pytest.approx(4.0, abs=1e-15)
        assert xi_values(X, Z) == 0.0
        assert xi_values(I, I) == 0.0

    @settings(deadline=None)
    @given(qubit_states(), observables(), observables())
    def test_closed_forms_match_matrix_route(self, state, obs_a, obs_b):
        b = state.bloch
        p, a_c, b_c = b.as_array(), obs_a.coeffs, obs_b.coeffs
        rho = oracle_state(b.px, b.py, b.pz)
        a_mat = oracle_obs(obs_a.a1, obs_a.a2, obs_a.a3, obs_a.a4)
        b_mat = oracle_obs(obs_b.a1, obs_b.a2, obs_b.a3, obs_b.a4)
        assert variances(p, a_c) == pytest.approx(
            max(oracle_variance(rho, a_mat), 0.0), abs=1e-12
        )
        assert commutator_terms(p, a_c, b_c) == pytest.approx(
            oracle_commutator_term(rho, a_mat, b_mat), rel=1e-10, abs=1e-11
        )
        assert anticommutator_terms(p, a_c, b_c) == pytest.approx(
            oracle_anticommutator_term(rho, a_mat, b_mat), rel=1e-10, abs=1e-11
        )
        assert xi_values(a_c, b_c) == pytest.approx(oracle_xi(a_mat, b_mat), abs=1e-12)

    def test_linear_covariance_form_needs_outer_square(self):
        # the linear Bloch expression for the covariance term equals
        # -(a.b - (a.p)(b.p)); only its square matches the matrix value
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_bloch_vectors(rng, 1)[0]
            a = rng.uniform(-5, 5, 4)
            b = rng.uniform(-5, 5, 4)
            linear = sum(
                (
                    ((p[0] ** 2 - 1) * a[0] + p[0] * (p[1] * a[1] + p[2] * a[2])) * b[0],
                    (p[0] * p[1] * a[0] + (p[1] ** 2 - 1) * a[1] + p[1] * p[2] * a[2]) * b[1],
                    (p[0] * p[2] * a[0] + p[1] * p[2] * a[1] + (p[2] ** 2 - 1) * a[2]) * b[2],
                )
            )
            assert anticommutator_terms(p, a, b) == pytest.approx(linear**2, abs=1e-10)

    @settings(deadline=None)
    @given(qubit_states(), observables(), st.floats(-10, 10, allow_nan=False))
    def test_variance_shift_invariance(self, state, obs, shift):
        p = state.bloch.as_array()
        shifted = PauliObservable(obs.a1, obs.a2, obs.a3, obs.a4 + shift)
        assert variances(p, shifted.coeffs) == pytest.approx(variances(p, obs.coeffs), abs=1e-12)

    @settings(deadline=None)
    @given(observables(), observables())
    def test_xi_gram_nonnegative_adversarial(self, obs_a, obs_b):
        # parallel pairs can round a hair below zero; scale the floor with
        # the product magnitude (the exact value is >= 0 by Cauchy-Schwarz)
        a, b = obs_a.coeffs, obs_b.coeffs
        product = xi_values(a, a) * xi_values(b, b)
        gram = product - xi_values(a, b) ** 2
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
            variances([[0.0, 0.0, 0.5], [math.nan, 0.0, 0.0]], X)

    def test_variance_clamp_raises_on_any_row(self):
        # |p|^2 = 1 + 8e-13 passes the ball check, but a large observable
        # turns the excess into a variance of -8e-7, which must raise
        ok = variances([[0.0, 0.0, 1.0]], Z)
        assert ok.tolist() == [0.0]
        with pytest.raises(NumericalInconsistency):
            variances([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 4e-13]], [0.0, 0.0, 1e3, 0.0])

    @settings(deadline=None, max_examples=50)
    @given(st.lists(bloch_vectors(), min_size=1, max_size=8), observables(), observables())
    def test_stacked_rows_match_scalar_forms(self, vectors, obs_a, obs_b):
        # one row through a function equals that row of the stacked call, bit for bit
        p = np.array([v.as_array() for v in vectors])
        a, b = obs_a.coeffs, obs_b.coeffs
        rows_a = np.stack([a + k for k in range(len(vectors))])  # one observable per row
        functions = {
            "variance": lambda p, a, b: variances(p, a),
            "commutator": commutator_terms,
            "anticommutator": anticommutator_terms,
            "mixedness": lambda p, a, b: mixedness_values(p),
        }
        for name, fn in functions.items():
            for a_in in (a, rows_a):
                stacked = fn(p, a_in, b)
                for i in range(len(vectors)):
                    one = fn(p[i], a_in if a_in.ndim == 1 else a_in[i], b)
                    assert one.shape == () and one == stacked[i], (name, i)
        for i, vector in enumerate(vectors):
            assert mixedness(QubitState(vector)) == mixedness_values(p)[i]
        assert xi_values(rows_a, b)[-1] == xi_values(rows_a[-1], b)

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
        state = QubitState(BlochVector(0.6, 0.0, 0.0))
        rho = oracle_state(0.6, 0, 0)
        assert mixedness(state) == pytest.approx(1 - np.trace(rho @ rho).real, abs=1e-12)
        assert mixedness(state) == pytest.approx(0.32, abs=1e-12)

    def test_general_dimension_examples(self):
        assert mixedness_general(np.eye(3) / 3) == pytest.approx(2 / 3, abs=1e-12)
        pure = np.zeros((5, 5), dtype=complex)
        pure[2, 2] = 1.0
        assert mixedness_general(pure) == 0.0
        half_half = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert mixedness_general(half_half) == pytest.approx(0.5, abs=1e-12)

    def test_general_stack_rows_are_single_calls(self):
        stack = np.stack([random_density_matrix([9, k], 3) for k in range(6)]).reshape(2, 3, 3, 3)
        values = mixedness_general(stack)
        assert values.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert values[i, j] == mixedness_general(stack[i, j])

    def test_general_validation(self):
        valid = np.eye(3, dtype=complex) / 3
        bad = {
            # NaN passes every comparison-based rule, so it is rejected by name
            NonFiniteInput: np.diag([math.nan, 0.5, 0.5]),
            NotHermitian: valid + np.triu(np.full((3, 3), 0.1), 1),
            TraceNotOne: 0.8 * valid,
            NotPositive: np.diag([1.5, -0.5, 0.0]),
        }
        for error, matrix in bad.items():
            with pytest.raises(error):
                mixedness_general(matrix)
            # every matrix of a stack is checked, not only the first
            with pytest.raises(error):
                mixedness_general(np.stack([valid, valid, matrix]))
        for shape in ((3, 2), (3,), (2, 3, 4)):
            with pytest.raises(BadDimension):
                mixedness_general(np.zeros(shape))

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 4),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
    )
    def test_mixedness_convexity(self, dim, weight, seed):
        rho_a = random_density_matrix([seed, 0], dim)
        rho_b = random_density_matrix([seed, 1], dim)
        combo = weight * rho_a + (1 - weight) * rho_b
        mix_a, mix_b, mix_combo = mixedness_general(np.stack([rho_a, rho_b, combo]))
        assert mix_combo >= weight * mix_a + (1 - weight) * mix_b - 1e-12


class TestSampling:
    def test_fixed_seed_reproducible(self):
        assert np.array_equal(random_bloch_vectors(42, 5), random_bloch_vectors(42, 5))
        first = random_density_matrix(7, 3)
        second = random_density_matrix(7, 3)
        assert np.array_equal(first, second)

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
        # a batch of one is the first row of a larger batch, on the sphere
        one = random_bloch_vectors(11, 1, "pure")
        assert np.array_equal(one[0], random_bloch_vectors(11, 5, "pure")[0])
        assert float(one[0] @ one[0]) == pytest.approx(1.0, abs=1e-12)

    def test_ginibre_outputs_are_valid(self):
        for dim in (2, 3, 5):
            rho = random_density_matrix([0, dim], dim)
            assert rho.shape == (dim, dim)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            random_density_matrix(0, 1)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            random_bloch_vectors(0, 3, "thermal")


def test_package_all_resolves():
    import qubitvar

    assert len(set(qubitvar.__all__)) == len(qubitvar.__all__)
    missing = [name for name in qubitvar.__all__ if not hasattr(qubitvar, name)]
    assert missing == []
    namespace = {}
    exec("from qubitvar import *", namespace)
    assert set(qubitvar.__all__) <= set(namespace)


AXIS = tightness.GridAxis
GENERAL_B = PauliObservable(0.5, 0.0, 1.0, 0.7)  # (A B + B A)/2 with A = sx is not prop. to I


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_bloch_vectors(0, 3, "thermal"),
        lambda: feedback.evolve(0.3, 1.0, [0.2, 0.1], 1e-3),
        lambda: AXIS(0.0, 1.0, 0),
        lambda: AXIS(0.0, 1.0, 1),
        lambda: AXIS(1.0, 0.0, 3),
        lambda: tightness.SweepGrid(AXIS(0.1, 0.1, 1), AXIS(1.0, 1.0, 1), AXIS(-1.0, 1.0, 3)),
        lambda: tightness.SweepGrid(AXIS(0.1, 0.1, 1), AXIS(-1.0, -1.0, 1), AXIS(0.0, 1.0, 3)),
        lambda: tightness.sweep(tightness.fig2_grid(steps=2), source="exact"),
        lambda: relations.simulate_shots(MAXMIXED, OBS_X, 0, seed=0),
        lambda: relations.estimate_mixedness_from_counts((0, 0), (5, 5), None, OBS_X, OBS_Z),
        lambda: relations.estimate_mixedness_from_counts((5, 5), (5, 5), None, OBS_X, GENERAL_B),
    ],
    ids=["sample_kind", "sample_times", "axis_steps", "pinned_axis", "axis_order", "t_axis",
         "lambda_axis", "sweep_source", "shots", "counts", "omitted_c"],
)
def test_invalid_arguments_are_typed(call):
    # one type for every refused argument: a QubitVarError that is still a ValueError
    with pytest.raises(InvalidArgument):
        call()
