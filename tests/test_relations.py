"""Uncertainty relations, the equality residual and the mixedness estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import observables, oracle_obs, qubit_states
from qubitvar.core import (
    BlochVector,
    OBS_I,
    OBS_X,
    OBS_Y,
    OBS_Z,
    PauliObservable,
    QubitState,
    bloch_to_matrix,
    mixedness,
    random_bloch_vectors,
    variance,
)
from qubitvar.errors import CollinearObservables, DegenerateSpectrum
from qubitvar.verify import check_remainder_sign
from qubitvar.relations import (
    MeasurementCounts,
    check_equality,
    complementarity_c,
    compute_report,
    entropy_of_measurement,
    equality_remainder,
    estimate_mixedness,
    estimate_mixedness_from_counts,
    eur_check,
    gram_determinant,
    mixedness_weighted_bound,
    rur_bound,
    simulate_shots,
    sum_relation,
    sur_bound,
    symmetrized_product,
)

MAXMIXED = QubitState(BlochVector(0.0, 0.0, 0.0))
GROUND = QubitState(BlochVector(0.0, 0.0, 1.0))


def random_triple(rng, span=5.0, kind="mixed"):
    p = random_bloch_vectors(rng, 1, kind)[0]
    state = QubitState(BlochVector(*map(float, p)))
    obs_a = PauliObservable(*rng.uniform(-span, span, 4))
    obs_b = PauliObservable(*rng.uniform(-span, span, 4))
    return state, obs_a, obs_b


class TestProductBounds:
    def test_rur_examples(self):
        assert rur_bound(MAXMIXED, OBS_X, OBS_Z) == 0.0
        assert rur_bound(GROUND, OBS_X, OBS_Y) == pytest.approx(1.0, abs=1e-12)
        obs = PauliObservable(0.4, 1.0, -0.3, 0.2)
        assert rur_bound(MAXMIXED, obs, obs) == 0.0

    def test_sur_trivial_examples(self):
        assert sur_bound(MAXMIXED, OBS_X, OBS_Z) == 0.0
        state = bloch_to_matrix((0.3, -0.2, 0.4))
        obs = PauliObservable(1.2, 0.0, -0.7, 0.5)
        assert sur_bound(state, obs, obs) == pytest.approx(
            variance(state, obs) ** 2, abs=1e-10
        )

    def test_remainder_maximally_mixed(self):
        # (1/8) * (1/2) * (4*4 - 0) = 1, term by term from the traces
        assert equality_remainder(MAXMIXED, OBS_X, OBS_Z) == pytest.approx(1.0, abs=1e-14)

    def test_remainder_trivial_cases(self, rng):
        for _ in range(200):
            state, obs_a, obs_b = random_triple(rng, kind="pure")
            assert abs(equality_remainder(state, obs_a, obs_b)) <= 1e-12
            assert equality_remainder(state, obs_a, obs_a) == pytest.approx(0.0, abs=1e-9)

    def test_remainder_check_scales_with_gram(self):
        # worst absolute pure-state remainder here is 1.02e-12 at G ~ 1e4;
        # relative to G/8 it is rounding-sized
        result = check_remainder_sign(10_000, 1737546428)
        assert result.passed
        assert result.worst <= 1e-15

    def test_equality_examples(self):
        assert check_equality(MAXMIXED, OBS_X, OBS_Z) == pytest.approx(0.0, abs=1e-14)
        assert check_equality(GROUND, OBS_X, OBS_Z) == pytest.approx(0.0, abs=1e-14)

    @settings(deadline=None)
    @given(qubit_states(), observables(), observables())
    def test_equality_residual_property(self, state, obs_a, obs_b):
        assert abs(check_equality(state, obs_a, obs_b)) <= 1e-10

    def test_mixedness_weighted_bound_examples(self):
        assert mixedness_weighted_bound(MAXMIXED, OBS_X, OBS_Z) == pytest.approx(1.0, abs=1e-14)
        product = variance(MAXMIXED, OBS_X) * variance(MAXMIXED, OBS_Z)
        assert product == pytest.approx(
            mixedness_weighted_bound(MAXMIXED, OBS_X, OBS_Z), abs=1e-14
        )
        # pure eigenstate of A with vanishing commutator expectation
        assert mixedness_weighted_bound(GROUND, OBS_Z, OBS_X) == pytest.approx(0.0, abs=1e-14)

    def test_mixedness_weighted_bound_never_exceeds_product(self, rng):
        for _ in range(2000):
            state, obs_a, obs_b = random_triple(rng)
            product = variance(state, obs_a) * variance(state, obs_b)
            assert mixedness_weighted_bound(state, obs_a, obs_b) <= product + 1e-10

    def test_bound_chain(self, rng):
        for _ in range(2000):
            state, obs_a, obs_b = random_triple(rng)
            product = variance(state, obs_a) * variance(state, obs_b)
            sur = sur_bound(state, obs_a, obs_b)
            assert product >= sur - 1e-10
            assert sur >= rur_bound(state, obs_a, obs_b) - 1e-10


class TestSumRelation:
    def test_examples(self):
        assert sum_relation(MAXMIXED, OBS_X, OBS_Z) == pytest.approx((2.0, 1.0), abs=1e-14)
        assert sum_relation(GROUND, OBS_X, OBS_Y) == pytest.approx((2.0, 1.0), abs=1e-14)
        state = bloch_to_matrix((0.3, 0.1, -0.5))
        obs = PauliObservable(0.7, -0.2, 1.1, 0.4)
        lhs, bound = sum_relation(state, obs, obs)
        assert lhs == pytest.approx(2 * variance(state, obs), abs=1e-12)
        assert bound == pytest.approx(2 * variance(state, obs), abs=1e-12)

    @settings(deadline=None)
    @given(qubit_states(), observables(), observables())
    def test_holds_always(self, state, obs_a, obs_b):
        lhs, bound = sum_relation(state, obs_a, obs_b)
        assert lhs >= bound - 1e-10


class TestEntropic:
    def test_entropy_examples(self):
        assert entropy_of_measurement(GROUND, OBS_Z) == 0.0
        assert entropy_of_measurement(MAXMIXED, OBS_Z) == pytest.approx(1.0, abs=1e-15)
        assert entropy_of_measurement(GROUND, OBS_X) == pytest.approx(1.0, abs=1e-15)

    def test_entropy_range(self, rng):
        for _ in range(500):
            state, obs_a, _ = random_triple(rng)
            if np.linalg.norm(obs_a.vec()) < 1e-6:
                continue
            assert 0.0 <= entropy_of_measurement(state, obs_a) <= 1.0

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            entropy_of_measurement(MAXMIXED, OBS_I)
        with pytest.raises(DegenerateSpectrum):
            complementarity_c(OBS_I, OBS_X)

    def test_complementarity_examples(self):
        assert complementarity_c(OBS_X, OBS_Z) == pytest.approx(0.5, abs=1e-15)
        assert complementarity_c(OBS_Z, OBS_Z + 3.0 * OBS_I) == pytest.approx(1.0, abs=1e-15)
        tilted = PauliObservable(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0)
        assert complementarity_c(OBS_Z, tilted) == pytest.approx(
            math.cos(math.pi / 8) ** 2, abs=1e-12
        )

    def test_complementarity_against_eigenvector_overlap(self, rng):
        for _ in range(300):
            _, obs_a, obs_b = random_triple(rng, span=2.0)
            if min(np.linalg.norm(obs_a.vec()), np.linalg.norm(obs_b.vec())) < 1e-3:
                continue
            _, vecs_a = np.linalg.eigh(obs_a.matrix)
            _, vecs_b = np.linalg.eigh(obs_b.matrix)
            overlap = np.abs(vecs_a.conj().T @ vecs_b) ** 2
            assert complementarity_c(obs_a, obs_b) == pytest.approx(
                float(overlap.max()), abs=1e-10
            )

    def test_eur_examples(self):
        assert eur_check(MAXMIXED, OBS_X, OBS_Z) == pytest.approx((2.0, 1.0), abs=1e-12)
        entropy_sum, bound = eur_check(GROUND, OBS_Z, OBS_Z + OBS_I)
        assert bound == 0.0
        entropy_sum, bound = eur_check(GROUND, OBS_X, OBS_Z)
        assert (entropy_sum, bound) == pytest.approx((1.0, 1.0), abs=1e-12)


class TestEstimator:
    def test_examples(self):
        assert estimate_mixedness(MAXMIXED, OBS_X, OBS_Z) == pytest.approx(0.5, abs=1e-12)
        assert estimate_mixedness(GROUND, OBS_X, OBS_Z) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(CollinearObservables):
            estimate_mixedness(MAXMIXED, OBS_X, 2.0 * OBS_X + OBS_I)

    def test_matches_mixedness_for_any_pair(self, rng):
        for _ in range(1000):
            state, obs_a, obs_b = random_triple(rng, span=2.0)
            if gram_determinant(obs_a, obs_b) <= 1.0:
                continue
            assert estimate_mixedness(state, obs_a, obs_b) == pytest.approx(
                mixedness(state), abs=1e-10
            )

    def test_pair_independence(self, rng):
        state = QubitState(BlochVector(0.2, -0.3, 0.4))
        values = []
        for _ in range(20):
            obs_a = PauliObservable(*rng.uniform(-2, 2, 4))
            obs_b = PauliObservable(*rng.uniform(-2, 2, 4))
            if gram_determinant(obs_a, obs_b) <= 1.0:
                continue
            values.append(estimate_mixedness(state, obs_a, obs_b))
        assert max(values) - min(values) <= 1e-10


class TestSymmetrizedProduct:
    def test_examples(self):
        zero = symmetrized_product(OBS_X, OBS_Z)
        assert (zero.a1, zero.a2, zero.a3, zero.a4) == (0.0, 0.0, 0.0, 0.0)
        identity = symmetrized_product(OBS_X, OBS_X)
        assert (identity.a1, identity.a2, identity.a3, identity.a4) == (0.0, 0.0, 0.0, 1.0)
        shifted = symmetrized_product(OBS_X + OBS_I, OBS_Z)
        assert (shifted.a1, shifted.a2, shifted.a3, shifted.a4) == (0.0, 0.0, 1.0, 0.0)

    def test_against_trace_oracle(self, rng):
        for _ in range(200):
            _, obs_a, obs_b = random_triple(rng)
            got = symmetrized_product(obs_a, obs_b).matrix
            want = 0.5 * (
                oracle_obs(obs_a.a1, obs_a.a2, obs_a.a3, obs_a.a4)
                @ oracle_obs(obs_b.a1, obs_b.a2, obs_b.a3, obs_b.a4)
                + oracle_obs(obs_b.a1, obs_b.a2, obs_b.a3, obs_b.a4)
                @ oracle_obs(obs_a.a1, obs_a.a2, obs_a.a3, obs_a.a4)
            )
            assert np.abs(got - want).max() <= 1e-12


class TestShots:
    def test_deterministic_outcome(self):
        counts = simulate_shots(GROUND, OBS_Z, 1000, seed=5)
        assert counts.counts == (1000, 0)
        assert counts.eigenvalues == (1.0, -1.0)

    def test_balanced_within_three_sigma(self):
        counts = simulate_shots(MAXMIXED, OBS_Z, 10**6, seed=9)
        assert abs(counts.counts[0] - 5 * 10**5) < 3 * 500

    def test_fixed_seed_reproducible(self):
        first = simulate_shots(MAXMIXED, OBS_X, 1234, seed=3)
        second = simulate_shots(MAXMIXED, OBS_X, 1234, seed=3)
        assert first.counts == second.counts

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            simulate_shots(MAXMIXED, OBS_I, 10, seed=0)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            MeasurementCounts(OBS_Z, (1.0, -1.0), (3, 3), 5)
        with pytest.raises(ValueError):
            MeasurementCounts(OBS_Z, (1.0, -1.0), (0, 0), 0)


def exact_counts(state, obs, shots):
    """Counts proportional to the exact outcome probabilities."""
    from qubitvar.relations import outcome_probabilities

    p_hi, _ = outcome_probabilities(state, obs)
    norm = float(np.linalg.norm(obs.vec()))
    n_hi = round(p_hi * shots)
    return MeasurementCounts(
        obs, (obs.a4 + norm, obs.a4 - norm), (n_hi, shots - n_hi), shots
    )


class TestEstimateFromCounts:
    def test_exact_moment_limit(self, rng):
        # in-plane states (no Bloch component along a x b): the pathway's
        # commutator-moment omission is exactly zero there
        shots = 10**9
        for _ in range(50):
            r = rng.uniform(0, 1) ** 0.5
            angle = rng.uniform(0, 2 * math.pi)
            state = QubitState(BlochVector(r * math.cos(angle), 0.0, r * math.sin(angle)))
            counts_a = exact_counts(state, OBS_X, shots)
            counts_b = exact_counts(state, OBS_Z, shots)
            estimate, _ = estimate_mixedness_from_counts(
                counts_a, counts_b, None, OBS_X, OBS_Z
            )
            assert estimate == pytest.approx(mixedness(state), abs=1e-4)

    def test_exact_moment_limit_with_c_counts(self, rng):
        shots = 10**9
        obs_a = PauliObservable(1.0, 0.0, 0.3, 0.5)
        obs_b = PauliObservable(-0.2, 0.0, 1.1, -0.4)
        for _ in range(20):
            r = rng.uniform(0, 1) ** 0.5
            angle = rng.uniform(0, 2 * math.pi)
            state = QubitState(BlochVector(r * math.cos(angle), 0.0, r * math.sin(angle)))
            counts_a = exact_counts(state, obs_a, shots)
            counts_b = exact_counts(state, obs_b, shots)
            counts_c = exact_counts(state, symmetrized_product(obs_a, obs_b), shots)
            estimate, _ = estimate_mixedness_from_counts(
                counts_a, counts_b, counts_c, obs_a, obs_b
            )
            assert estimate == pytest.approx(mixedness(state), abs=1e-4)

    def test_maximally_mixed_within_three_se(self):
        counts_a = simulate_shots(MAXMIXED, OBS_X, 10**6, seed=[21, 0])
        counts_b = simulate_shots(MAXMIXED, OBS_Z, 10**6, seed=[21, 1])
        estimate, std_error = estimate_mixedness_from_counts(
            counts_a, counts_b, None, OBS_X, OBS_Z
        )
        assert abs(estimate - 0.5) <= 3 * std_error

    def test_zero_shot_c_requires_identity_like_product(self):
        counts_a = simulate_shots(MAXMIXED, OBS_X, 100, seed=0)
        obs_b = PauliObservable(0.5, 0.0, 1.0, 0.7)
        counts_b = simulate_shots(MAXMIXED, obs_b, 100, seed=1)
        with pytest.raises(ValueError):
            estimate_mixedness_from_counts(counts_a, counts_b, None, OBS_X, obs_b)

    def test_collinear_rejected(self):
        counts_a = simulate_shots(MAXMIXED, OBS_X, 100, seed=0)
        with pytest.raises(CollinearObservables):
            estimate_mixedness_from_counts(
                counts_a, counts_a, None, OBS_X, 2.0 * OBS_X + OBS_I
            )

    def test_error_scaling_with_shots(self):
        state = QubitState(BlochVector(0.3, 0.0, 0.5))
        ses = {}
        for shots in (10**4, 10**6):
            values = []
            for k in range(30):
                counts_a = simulate_shots(state, OBS_X, shots, seed=[shots, k, 0])
                counts_b = simulate_shots(state, OBS_Z, shots, seed=[shots, k, 1])
                _, se = estimate_mixedness_from_counts(counts_a, counts_b, None, OBS_X, OBS_Z)
                values.append(se)
            ses[shots] = np.mean(values)
        ratio = ses[10**4] / ses[10**6]
        assert 5.0 <= ratio <= 20.0

    def test_std_error_tracks_monte_carlo_spread(self):
        state = QubitState(BlochVector(0.4, 0.0, -0.3))
        estimates, ses = [], []
        for k in range(400):
            counts_a = simulate_shots(state, OBS_X, 10**5, seed=[77, k, 0])
            counts_b = simulate_shots(state, OBS_Z, 10**5, seed=[77, k, 1])
            est, se = estimate_mixedness_from_counts(counts_a, counts_b, None, OBS_X, OBS_Z)
            estimates.append(est)
            ses.append(se)
        spread = np.std(estimates)
        mean_se = np.mean(ses)
        assert 0.5 <= spread / mean_se <= 2.0


class TestReport:
    def test_report_fields_consistent(self, rng):
        for _ in range(100):
            state, obs_a, obs_b = random_triple(rng, span=2.0)
            if min(np.linalg.norm(obs_a.vec()), np.linalg.norm(obs_b.vec())) < 1e-3:
                continue
            report = compute_report(state, obs_a, obs_b)
            assert report.product == pytest.approx(report.varA * report.varB, abs=1e-12)
            assert report.product >= report.rur_bound - 1e-10
            assert report.product >= report.sur_bound - 1e-10
            assert report.product >= report.eq19_bound - 1e-10
            assert abs(report.equality_residual) <= 1e-10
            assert report.sum_lhs >= report.sum_bound - 1e-10
            assert report.entropy_sum >= report.entropy_bound - 1e-10
