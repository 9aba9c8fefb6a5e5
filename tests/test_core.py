"""State/observable algebra: frozen examples plus representation properties."""

import math
import sys

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
)
from qubitvar import core, feedback, relations, tightness
from qubitvar.core import (
    OBS_X,
    OBS_Z,
    bloch_array,
    decompose_observable,
    density_matrices,
    matrix_to_bloch,
    mixedness_general,
    mixedness_values,
    random_bloch_vectors,
    random_density_matrix,
    symmetrized_products,
    xi_values,
)
from qubitvar.errors import DegenerateSpectrum, InvalidArgument
from qubitvar.relations import high_outcome_probabilities, reports


def fields_or_degenerate(p, a, b):
    """reports(p, a, b), or None where it refuses A or B as proportional to
    I: a Pauli part zero in double precision."""
    try:
        return reports(p, a, b)
    except DegenerateSpectrum:
        squares = [(np.asarray(x, dtype=float)[..., :3] ** 2).sum(axis=-1).min() for x in (a, b)]
        assert min(squares) < sys.float_info.min
        return None


class TestRepresentations:
    def test_pauli_constants_are_standard(self):
        from qubitvar.core import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z

        assert np.array_equal(PAULI_X, SX)
        assert np.array_equal(PAULI_Y, SY)
        assert np.array_equal(PAULI_Z, SZ)
        assert np.array_equal(IDENTITY, ID)

    def test_zero_vector_gives_maximally_mixed(self):
        assert np.allclose(density_matrices(ORIGIN), ID / 2, atol=0)

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
        with pytest.raises(InvalidArgument, match=r"\|p\|\^2 = 1.01 exceeds 1 \+ 1e-12"):
            core._state_row([1.0, 0.1, 0.0])

    def test_matrix_validation_errors(self):
        valid = ID / 2
        bad = {
            r"\|m - m\^dag\|": np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex),
            "trace = 1.6": 0.8 * ID,
            "min eigenvalue = -5": np.diag([1.5, -0.5]).astype(complex),
            "entries must be finite": np.diag([math.nan, 0.5]).astype(complex),
        }
        for cause, matrix in bad.items():
            with pytest.raises(InvalidArgument, match=cause):
                matrix_to_bloch(matrix)
            # every matrix of a stack is checked, not only the first
            with pytest.raises(InvalidArgument, match=cause):
                matrix_to_bloch(np.stack([valid, valid, matrix]))
        with pytest.raises(InvalidArgument, match=r"expected \(\.\.\., 2, 2\), got \(3, 3\)"):
            matrix_to_bloch(np.eye(3) / 3)
        with pytest.raises(InvalidArgument, match=r"expected \(\.\.\., 2, 2\), got \(4,\)"):
            decompose_observable(np.ones(4))

    @settings(deadline=None)
    @given(bloch_vectors())
    def test_roundtrip_property(self, p):
        back = matrix_to_bloch(density_matrices(p))
        assert np.abs(back - p).max() <= 1e-12


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
        with pytest.raises(InvalidArgument, match=r"\|m - m\^dag\| = 1"):
            decompose_observable(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(InvalidArgument, match=r"\|m - m\^dag\| = 1"):
            decompose_observable(np.stack([SX, np.array([[0, 1], [0, 0]], dtype=complex)]))

    def test_hermiticity_is_judged_in_the_matrix_units(self, rng):
        # a rotated Hermitian matrix in large units keeps its rounding relative to its size
        for scale in (1e-9, 1.0, 1e9):
            for _ in range(200):
                unitary, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                matrix = scale * (unitary @ oracle_obs(*rng.normal(size=4)) @ unitary.conj().T)
                decompose_observable(matrix)
        # and a small anti-Hermitian part is refused rather than dropped, naming its matrix
        tiny = 1e-14 * np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InvalidArgument, match=(
            r"^max \|m - m\^dag\| = 1.000e-14 exceeds 1e-12 of max \|m\| = 1.000e-14$"
        )):
            decompose_observable(np.stack([SX, tiny, 2 * SX + SY]))

    @settings(deadline=None)
    @given(observables())
    def test_decompose_reconstruct_roundtrip(self, a):
        matrix = oracle_obs(*a)
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
        assert reports(Z_POLE, Z, X)["varA"] == 0.0
        assert reports(Z_POLE, X, Z)["varA"] == pytest.approx(1.0, abs=1e-15)
        # identity shifts leave the variance unchanged
        assert reports(Z_POLE, X + 2.0 * I, Z)["varA"] == pytest.approx(1.0, abs=1e-12)

    def test_commutator_term_examples(self):
        assert reports(ORIGIN, X, Z)["rur_bound"] == 0.0
        # [sx, sy] = 2i sz and <sz> = 1 on |0><0|
        assert reports(Z_POLE, X, Y)["rur_bound"] == pytest.approx(1.0, abs=1e-12)
        obs = [0.3, -1.2, 0.7, 0.1]
        assert reports(Z_POLE, obs, obs)["rur_bound"] == 0.0

    def test_anticommutator_term_examples(self):
        # the anticommutator term is sur_bound - rur_bound
        assert reports(ORIGIN, X, Z)["sur_bound"] == 0.0
        obs = [1.5, 0.0, -0.5, 2.0]
        p = [0.2, -0.4, 0.1]
        fields = reports(p, obs, obs)
        assert fields["rur_bound"] == 0.0
        variance = oracle_variance(oracle_state(*p), oracle_obs(*obs))
        assert fields["sur_bound"] == pytest.approx(variance**2, abs=1e-10)

    def test_anticommutator_term_against_matrix_oracle(self):
        rho = oracle_state(0.6, 0.0, 0.0)
        a = oracle_obs(1, 0, 0, 0)
        b = oracle_obs(1, 0, 1, 0)
        sym = np.trace(rho @ (a @ b + b @ a)).real / 2
        want = (sym - np.trace(rho @ a).real * np.trace(rho @ b).real) ** 2
        fields = reports([0.6, 0.0, 0.0], X, X + Z)
        assert fields["sur_bound"] - fields["rur_bound"] == pytest.approx(want, abs=1e-12)

    def test_xi_examples(self):
        assert xi_values(X, X) == pytest.approx(4.0, abs=1e-15)
        assert xi_values(X, Z) == 0.0
        assert xi_values(I, I) == 0.0

    @settings(deadline=None)
    @given(bloch_vectors(), observables(), observables())
    def test_closed_forms_match_matrix_route(self, p, a, b):
        rho = oracle_state(*p)
        a_mat, b_mat = oracle_obs(*a), oracle_obs(*b)
        assert xi_values(a, b) == pytest.approx(oracle_xi(a_mat, b_mat), abs=1e-12)
        fields = fields_or_degenerate(p, a, b)
        if fields is None:
            return
        for key, mat in (("varA", a_mat), ("varB", b_mat)):
            assert fields[key] == pytest.approx(max(oracle_variance(rho, mat), 0.0), abs=1e-12)
        comm = oracle_commutator_term(rho, a_mat, b_mat)
        anti = oracle_anticommutator_term(rho, a_mat, b_mat)
        assert fields["rur_bound"] == pytest.approx(comm, rel=1e-10, abs=1e-11)
        assert fields["sur_bound"] - fields["rur_bound"] == pytest.approx(
            anti, rel=1e-10, abs=1e-11
        )

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
            fields = reports(p, a, b)
            anti = fields["sur_bound"] - fields["rur_bound"]
            assert anti == pytest.approx(linear**2, abs=1e-10)

    @settings(deadline=None)
    @given(bloch_vectors(), observables(), st.floats(-10, 10, allow_nan=False))
    def test_variance_shift_invariance(self, p, a, shift):
        shifted = np.array([*a[:3], a[3] + shift])
        fields = fields_or_degenerate(p, a, X)
        if fields is not None:
            assert reports(p, shifted, X)["varA"] == pytest.approx(fields["varA"], abs=1e-12)

    @settings(deadline=None)
    @given(observables(), observables())
    def test_xi_gram_nonnegative_adversarial(self, a, b):
        # parallel pairs can round a hair below zero; scale the floor with
        # the product magnitude (the exact value is >= 0 by Cauchy-Schwarz)
        product = xi_values(a, a) * xi_values(b, b)
        gram = product - xi_values(a, b) ** 2
        assert gram >= -1e-12 * max(1.0, abs(product))


class TestArrayMoments:
    def test_non_finite_components_rejected(self):
        # the one row check per input kind, as the CLI flags and SweepGrid call it
        for bad in (math.nan, math.inf, -math.inf):
            message = rf"^components must be finite, got \({bad}, 0.0, 0.0\)$"
            with pytest.raises(InvalidArgument, match=message):
                core._state_row((bad, 0.0, 0.0))
            with pytest.raises(InvalidArgument, match="components must be finite"):
                core._observable_row((0.0, 0.0, bad, 0.0))
        assert core._observable_row([1, 0, 0, core.COEFF_MAX]) == (1.0, 0.0, 0.0, core.COEFF_MAX)
        with pytest.raises(InvalidArgument, match="^coefficients above 1.16e[+]76 overflow"):
            core._observable_row([0.0, -2.0 * core.COEFF_MAX, 0.0, 0.0])
        with pytest.raises(InvalidArgument, match="an observable has 4 coefficients, got 3"):
            core._observable_row([1.0, 0.0, 0.0])

    def test_row_width_refused(self):
        # 3 components a Bloch vector, 4 an observable, checked once per argument
        for call in (
            lambda: mixedness_values([0.1, 0.0]),
            lambda: high_outcome_probabilities([0.1, 0.0, 0.0], [1.0, 0.0, 0.0]),
            lambda: mixedness_values([[0.1, 0.0, 0.0, 0.0]]),
            lambda: symmetrized_products((1, 0, 0), (0, 1, 0)),
            lambda: reports([0.0, 0.0, 0.0], X, [[0.0, 1.0, 0.0]]),
            lambda: xi_values(X, 1.0),
            lambda: bloch_array(0.5),
        ):
            with pytest.raises(InvalidArgument, match="^rows of [34] components expected"):
                call()

    def test_bloch_array_rejects_rows_outside_ball_and_nan(self):
        assert bloch_array([[0.0, 0.0, 1.0], [0.1, 0.2, 0.3]]).shape == (2, 3)
        with pytest.raises(InvalidArgument, match=r"\|p\|\^2 = 1.01 exceeds"):
            bloch_array([[0.0, 0.0, 0.5], [1.0, 0.1, 0.0]])
        with pytest.raises(InvalidArgument, match=r"\|p\|\^2 = nan exceeds"):
            mixedness_values([[0.0, 0.0, 0.5], [math.nan, 0.0, 0.0]])

    def test_variance_clamp_is_unit_free(self):
        # |p|^2 = 1 + 8e-13 passes the ball check; its excess is a variance of
        # -8e-13 |a|^2, clamped to 0 whatever the observable's units
        rows = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 4e-13]]
        for scale in (1.0, 1e3):
            assert reports(rows, scale * Z, X)["varA"].tolist() == [scale * scale, 0.0]
        # beyond the tolerance the ball check refuses the row, at any scale
        for scale in (1.0, 1e3):
            with pytest.raises(InvalidArgument, match=r"\|p\|\^2 = 1.000000000002 exceeds"):
                reports([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 1e-12]], scale * Z, X)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(bloch_vectors(), min_size=1, max_size=8), observables(), observables())
    def test_stacked_rows_match_scalar_forms(self, vectors, a, b):
        # one row through a function equals that row of the stacked call, bit for bit
        p = np.array(vectors)
        rows_a = np.stack([a + k for k in range(len(vectors))])  # one observable per row
        functions = {"mixedness": lambda p, a, b: {"mixedness": mixedness_values(p)}}
        if fields_or_degenerate(p, rows_a, b) is not None:
            functions["reports"] = reports
        for name, fn in functions.items():
            for a_in in (a, rows_a):
                stacked = fn(p, a_in, b)
                for i in range(len(vectors)):
                    one = fn(p[i], a_in if a_in.ndim == 1 else a_in[i], b)
                    for key, value in one.items():
                        assert value.shape == () and value == stacked[key][i], (name, key, i)
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
        assert mixedness_values(ORIGIN) == 0.5
        assert mixedness_values(Z_POLE) == pytest.approx(0.0, abs=1e-15)
        rho = oracle_state(0.6, 0, 0)
        value = mixedness_values([0.6, 0.0, 0.0])
        assert value == pytest.approx(1 - np.trace(rho @ rho).real, abs=1e-12)
        assert value == pytest.approx(0.32, abs=1e-12)

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
            "entries must be finite": np.diag([math.nan, 0.5, 0.5]),
            r"\|m - m\^dag\| = 1.000e-01": valid + np.triu(np.full((3, 3), 0.1), 1),
            "trace = 0.8": 0.8 * valid,
            "min eigenvalue = -5": np.diag([1.5, -0.5, 0.0]),
        }
        for cause, matrix in bad.items():
            with pytest.raises(InvalidArgument, match=cause):
                mixedness_general(matrix)
            # every matrix of a stack is checked, not only the first
            with pytest.raises(InvalidArgument, match=cause):
                mixedness_general(np.stack([valid, valid, matrix]))
        for shape in ((3, 2), (3,), (2, 3, 4)):
            with pytest.raises(InvalidArgument, match=r"expected \(\.\.\., d, d\)"):
                mixedness_general(np.zeros(shape))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_positivity_floor(self, dim):
        # the Cholesky check and the eigvalsh fallback decide alike on both
        # sides of the -1e-10 floor, and a refusal names the matrix's eigenvalue
        q, _ = np.linalg.qr(random_density_matrix(7, dim))
        valid = random_density_matrix(8, dim)
        for lowest, refused in ((-2e-10, True), (-5e-11, False)):
            spectrum = np.r_[lowest, np.full(dim - 1, (1.0 - lowest) / (dim - 1))]
            rho = (q * spectrum) @ q.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            assert np.linalg.eigvalsh(rho)[0] == pytest.approx(lowest, abs=1e-15)
            for matrix in (rho, np.stack([valid, rho, valid])):
                if refused:
                    with pytest.raises(InvalidArgument, match="min eigenvalue = -2.000e-10"):
                        mixedness_general(matrix)
                else:
                    assert np.all(mixedness_general(matrix) >= 0.0)

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
        with pytest.raises(InvalidArgument, match="dim must be >= 2, got 1"):
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
GENERAL_B = (0.5, 0.0, 1.0, 0.7)  # (A B + B A)/2 with A = sx is not prop. to I


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
        lambda: relations.shot_counts(ORIGIN, OBS_X, 0, [0]),
        lambda: relations.shot_counts(ORIGIN, OBS_X, 10, 5),
        lambda: AXIS("0", 1.0, 3),
        lambda: AXIS(0.0, True, 3),
        lambda: tightness.fig3_grid(4, alpha="x"),
        lambda: relations.mixedness_estimates_from_counts((0, 0), (5, 5), None, OBS_X, OBS_Z),
        lambda: relations.mixedness_estimates_from_counts((5, 5), (5, 5), None, OBS_X, GENERAL_B),
    ],
    ids=["sample_kind", "sample_times", "axis_steps", "pinned_axis", "axis_order", "t_axis",
         "lambda_axis", "sweep_source", "shots", "seeds", "axis_end", "bool_axis_end",
         "grid_alpha", "counts", "omitted_c"],
)
def test_invalid_arguments_are_typed(call):
    # one type for every refused argument: a QubitVarError that is still a ValueError
    with pytest.raises(InvalidArgument):
        call()
