"""Uncertainty relations, the equality residual and the mixedness estimator."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import ORIGIN, Z_POLE, I, X, Y, Z, observables, oracle_obs, qubit_states
from qubitvar import core, relations
from qubitvar.core import (
    BlochVector,
    OBS_I,
    OBS_X,
    OBS_Y,
    OBS_Z,
    PauliObservable,
    QubitState,
    anticommutator_terms,
    commutator_terms,
    mixedness,
    mixedness_values,
    random_bloch_vectors,
    variances,
)
from qubitvar.errors import (
    CollinearObservables, DegenerateSpectrum, InvalidArgument, QubitVarError
)
from qubitvar.relations import (
    MAX_SHOTS,
    SPECTRUM_GAP_TOL,
    complementarities,
    compute_report,
    equality_remainders,
    estimate_mixedness,
    estimate_mixedness_from_counts,
    gram_determinants,
    high_outcome_probabilities,
    measurement_entropies,
    mixedness_estimates,
    reports,
    simulate_shots,
    symmetrized_product,
)
from qubitvar.tightness import ratios
from qubitvar.verify import check_remainder_sign

MAXMIXED = QubitState(BlochVector(0.0, 0.0, 0.0))
GROUND = QubitState(BlochVector(0.0, 0.0, 1.0))


def random_triple(rng, span=5.0, kind="mixed"):
    """One Bloch vector and two coefficient rows."""
    p = random_bloch_vectors(rng, 1, kind)[0]
    return p, rng.uniform(-span, span, 4), rng.uniform(-span, span, 4)


def sum_fields(p, a, b):
    """The variance-sum relation's sides, (varA + varB, var(A+B)/2), from reports."""
    fields = reports(p, a, b)
    return float(fields["sum_lhs"]), float(fields["sum_bound"])


def entropic_fields(p, a, b):
    """The entropic relation's sides, (H(A) + H(B), log2(1/c)), from reports."""
    fields = reports(p, a, b)
    return float(fields["entropy_sum"]), float(fields["entropy_bound"])


def residual(p, a, b):
    """varA varB - SUR - remainder: zero by the equality."""
    return (
        variances(p, a) * variances(p, b) - commutator_terms(p, a, b)
        - anticommutator_terms(p, a, b) - equality_remainders(p, a, b)
    )


class TestProductBounds:
    def test_rur_examples(self):
        # the Robertson bound is the commutator term
        assert commutator_terms(ORIGIN, X, Z) == 0.0
        assert commutator_terms(Z_POLE, X, Y) == pytest.approx(1.0, abs=1e-12)
        obs = [0.4, 1.0, -0.3, 0.2]
        assert commutator_terms(ORIGIN, obs, obs) == 0.0
        assert compute_report(GROUND, OBS_X, OBS_Y).rur_bound == pytest.approx(1.0, abs=1e-12)

    def test_sur_trivial_examples(self):
        assert compute_report(MAXMIXED, OBS_X, OBS_Z).sur_bound == 0.0
        state = QubitState(BlochVector(0.3, -0.2, 0.4))
        obs = PauliObservable(1.2, 0.0, -0.7, 0.5)
        assert compute_report(state, obs, obs).sur_bound == pytest.approx(
            variances(state.bloch.as_array(), obs.coeffs) ** 2, abs=1e-10
        )

    def test_remainder_maximally_mixed(self):
        # (1/8) * (1/2) * (4*4 - 0) = 1, term by term from the traces
        assert equality_remainders(ORIGIN, X, Z) == pytest.approx(1.0, abs=1e-14)

    def test_remainder_trivial_cases(self, rng):
        for _ in range(200):
            p, a, b = random_triple(rng, kind="pure")
            assert abs(equality_remainders(p, a, b)) <= 1e-12
            assert equality_remainders(p, a, a) == pytest.approx(0.0, abs=1e-9)

    def test_remainder_check_scales_with_gram(self):
        # worst absolute pure-state remainder here is 1.02e-12 at G ~ 1e4;
        # relative to G/8 it is rounding-sized
        result = check_remainder_sign(10_000, 1737546428)
        assert result.passed
        assert result.worst <= 1e-15

    def test_equality_examples(self):
        for state in (MAXMIXED, GROUND):
            report = compute_report(state, OBS_X, OBS_Z)
            assert report.equality_residual == pytest.approx(0.0, abs=1e-14)
            assert residual(state.bloch.as_array(), X, Z) == pytest.approx(0.0, abs=1e-14)

    @settings(deadline=None)
    @given(qubit_states(), observables(), observables())
    def test_equality_residual_property(self, state, obs_a, obs_b):
        assert abs(residual(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs)) <= 1e-10

    def test_mixedness_weighted_bound_examples(self):
        assert reports(ORIGIN, X, Z)["eq19_bound"] == pytest.approx(1.0, abs=1e-14)
        product = variances(ORIGIN, X) * variances(ORIGIN, Z)
        assert product == pytest.approx(reports(ORIGIN, X, Z)["eq19_bound"], abs=1e-14)
        # pure eigenstate of A with vanishing commutator expectation
        assert reports(Z_POLE, Z, X)["eq19_bound"] == pytest.approx(0.0, abs=1e-14)

    def test_mixedness_weighted_bound_never_exceeds_product(self, rng):
        for _ in range(2000):
            p, a, b = random_triple(rng)
            product = variances(p, a) * variances(p, b)
            assert reports(p, a, b)["eq19_bound"] <= product + 1e-10

    def test_bound_chain(self, rng):
        for _ in range(2000):
            p, a, b = random_triple(rng)
            product = variances(p, a) * variances(p, b)
            rur = commutator_terms(p, a, b)
            sur = rur + anticommutator_terms(p, a, b)
            assert product >= sur - 1e-10
            assert sur >= rur - 1e-10


class TestSumRelation:
    def test_examples(self):
        assert sum_fields(ORIGIN, X, Z) == pytest.approx((2.0, 1.0), abs=1e-14)
        assert sum_fields(Z_POLE, X, Y) == pytest.approx((2.0, 1.0), abs=1e-14)
        p = [0.3, 0.1, -0.5]
        obs = [0.7, -0.2, 1.1, 0.4]
        lhs, bound = sum_fields(p, obs, obs)
        assert lhs == pytest.approx(2 * variances(p, obs), abs=1e-12)
        assert bound == pytest.approx(2 * variances(p, obs), abs=1e-12)

    @settings(deadline=None)
    @given(qubit_states(), observables(), observables())
    def test_holds_always(self, state, obs_a, obs_b):
        p, a, b = state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs
        try:
            lhs, bound = sum_fields(p, a, b)
        except DegenerateSpectrum:
            # reports needs both eigenbases (its entropic fields): A or B is proportional to I
            assert min(np.linalg.norm(a[:3]), np.linalg.norm(b[:3])) <= SPECTRUM_GAP_TOL
            return
        assert lhs >= bound - 1e-10


class TestEntropic:
    def test_entropy_examples(self):
        assert measurement_entropies(Z_POLE, Z) == 0.0
        assert measurement_entropies(ORIGIN, Z) == pytest.approx(1.0, abs=1e-15)
        assert measurement_entropies(Z_POLE, X) == pytest.approx(1.0, abs=1e-15)

    def test_entropy_range(self, rng):
        for _ in range(500):
            p, a, _ = random_triple(rng)
            if np.linalg.norm(a[:3]) < 1e-6:
                continue
            assert 0.0 <= measurement_entropies(p, a) <= 1.0

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            measurement_entropies(ORIGIN, I)
        with pytest.raises(DegenerateSpectrum):
            complementarities(I, X)

    def test_complementarity_examples(self):
        assert complementarities(X, Z) == pytest.approx(0.5, abs=1e-15)
        assert complementarities(Z, Z + 3.0 * I) == pytest.approx(1.0, abs=1e-15)
        tilted = [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0]
        assert complementarities(Z, tilted) == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)

    def test_complementarity_against_eigenvector_overlap(self, rng):
        for _ in range(300):
            _, a, b = random_triple(rng, span=2.0)
            if min(np.linalg.norm(a[:3]), np.linalg.norm(b[:3])) < 1e-3:
                continue
            _, vecs_a = np.linalg.eigh(oracle_obs(*a))
            _, vecs_b = np.linalg.eigh(oracle_obs(*b))
            overlap = np.abs(vecs_a.conj().T @ vecs_b) ** 2
            assert complementarities(a, b) == pytest.approx(float(overlap.max()), abs=1e-10)

    def test_eur_examples(self):
        assert entropic_fields(ORIGIN, X, Z) == pytest.approx((2.0, 1.0), abs=1e-12)
        entropy_sum, bound = entropic_fields(Z_POLE, Z, Z + I)
        assert bound == 0.0
        entropy_sum, bound = entropic_fields(Z_POLE, X, Z)
        assert (entropy_sum, bound) == pytest.approx((1.0, 1.0), abs=1e-12)


class TestEstimator:
    def test_examples(self):
        # the estimate is a ratio of variance data: A and B in other units
        # change neither its value nor which pairs are refused
        state = QubitState(BlochVector(0.3, 0.1, -0.2))
        parallels = ([1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 1.0],
                     [2.0, 0.0, 0.0, 1.0])
        for scale in (1.0, 1e-3, 1e3):
            obs_a, obs_b = PauliObservable(*(scale * X)), PauliObservable(*(scale * Z))
            assert estimate_mixedness(MAXMIXED, obs_a, obs_b) == pytest.approx(0.5, abs=1e-12)
            assert estimate_mixedness(GROUND, obs_a, obs_b) == pytest.approx(0.0, abs=1e-12)
            assert estimate_mixedness(state, obs_a, obs_b) == pytest.approx(0.43, abs=1e-12)
            for parallel in parallels:
                obs_b = PauliObservable(*(scale * np.array(parallel)))
                with pytest.raises(CollinearObservables, match="gram determinant = 0.000e"):
                    estimate_mixedness(state, obs_a, obs_b)

    def test_matches_mixedness_for_any_pair(self, rng):
        for _ in range(1000):
            p, a, b = random_triple(rng, span=2.0)
            if gram_determinants(a, b) <= 1.0:
                continue
            state = QubitState(BlochVector(*p.tolist()))
            obs_a, obs_b = PauliObservable(*a), PauliObservable(*b)
            assert estimate_mixedness(state, obs_a, obs_b) == pytest.approx(
                mixedness(state), abs=1e-10
            )

    def test_pair_independence(self, rng):
        state = QubitState(BlochVector(0.2, -0.3, 0.4))
        values = []
        for _ in range(20):
            obs_a = PauliObservable(*rng.uniform(-2, 2, 4))
            obs_b = PauliObservable(*rng.uniform(-2, 2, 4))
            if gram_determinants(obs_a.coeffs, obs_b.coeffs) <= 1.0:
                continue
            values.append(estimate_mixedness(state, obs_a, obs_b))
        assert max(values) - min(values) <= 1e-10


    def test_per_object_forms_match_array_rows(self, rng):
        # estimate_mixedness and mixedness are the one-row forms of the array
        # route, bit for bit, with one pair for all states and one pair per state
        p = random_bloch_vectors(rng, 300, "mixed")
        a, b = rng.uniform(-2, 2, (300, 4)), rng.uniform(-2, 2, (300, 4))
        kept = gram_determinants(a, b) > 1.0
        p, a, b = p[kept], a[kept], b[kept]
        values = mixedness_values(p)
        for pair in ((OBS_X.coeffs, OBS_Z.coeffs), (a, b)):
            estimates = mixedness_estimates(p, *pair)
            rows_a, rows_b = (np.broadcast_to(x, a.shape) for x in pair)
            for i, row in enumerate(p):
                state = QubitState(BlochVector(*row.tolist()))
                obs_a, obs_b = PauliObservable(*rows_a[i]), PauliObservable(*rows_b[i])
                assert estimate_mixedness(state, obs_a, obs_b).hex() == float(estimates[i]).hex()
                assert mixedness(state).hex() == float(values[i]).hex()


class TestSymmetrizedProduct:
    def test_examples(self):
        zero = symmetrized_product(OBS_X, OBS_Z)
        assert (zero.a1, zero.a2, zero.a3, zero.a4) == (0.0, 0.0, 0.0, 0.0)
        identity = symmetrized_product(OBS_X, OBS_X)
        assert (identity.a1, identity.a2, identity.a3, identity.a4) == (0.0, 0.0, 0.0, 1.0)
        shifted = symmetrized_product(PauliObservable(1.0, 0.0, 0.0, 1.0), OBS_Z)
        assert (shifted.a1, shifted.a2, shifted.a3, shifted.a4) == (0.0, 0.0, 1.0, 0.0)

    def test_against_trace_oracle(self, rng):
        for _ in range(200):
            _, a, b = random_triple(rng)
            got = oracle_obs(*symmetrized_product(PauliObservable(*a), PauliObservable(*b)).coeffs)
            want = 0.5 * (oracle_obs(*a) @ oracle_obs(*b) + oracle_obs(*b) @ oracle_obs(*a))
            assert np.abs(got - want).max() <= 1e-12


class TestShots:
    def test_deterministic_outcome(self):
        assert simulate_shots(GROUND, OBS_Z, 1000, seed=5) == (1000, 0)

    def test_balanced_within_three_sigma(self):
        n_hi, _ = simulate_shots(MAXMIXED, OBS_Z, 10**6, seed=9)
        assert abs(n_hi - 5 * 10**5) < 3 * 500

    def test_fixed_seed_reproducible(self):
        first = simulate_shots(MAXMIXED, OBS_X, 1234, seed=3)
        second = simulate_shots(MAXMIXED, OBS_X, 1234, seed=3)
        assert first == second

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            simulate_shots(MAXMIXED, OBS_I, 10, seed=0)

    def test_shot_cap(self):
        # counts up to 2^53 stay exact as floats; one more is refused before any draw
        counts = simulate_shots(MAXMIXED, OBS_X, MAX_SHOTS, seed=3)
        assert sum(counts) == MAX_SHOTS == 2**53
        with pytest.raises(InvalidArgument, match="shots are more than 9007199254740992"):
            simulate_shots(MAXMIXED, OBS_X, MAX_SHOTS + 1, seed=3)

    def test_counts_validation(self):
        for bad in ((0, 0), (-1, 3)):
            with pytest.raises(ValueError):
                estimate_mixedness_from_counts(bad, (5, 5), None, OBS_X, OBS_Z)
            with pytest.raises(ValueError):
                estimate_mixedness_from_counts((5, 5), bad, None, OBS_X, OBS_Z)


def exact_counts(state, obs, shots):
    """Counts proportional to the exact outcome probabilities."""
    n_hi = round(float(high_outcome_probabilities(state.bloch.as_array(), obs.coeffs)) * shots)
    return n_hi, shots - n_hi


class TestEstimateFromCounts:
    def test_known_floats(self):
        # bit for bit the values of the earlier counts-object implementation
        obs_a = PauliObservable(1.0, 0.0, 0.3, 0.5)
        obs_b = PauliObservable(-0.2, 0.7, 1.1, -0.4)
        assert estimate_mixedness_from_counts(
            (6120, 3880), (4011, 5989), (7000, 3000), obs_a, obs_b
        ) == (0.3249578533236898, 0.007640449508878182)
        for counts_c in (None, (5, 5)):  # C = 0 I: counts of it carry no information
            assert estimate_mixedness_from_counts(
                (6120, 3880), (4011, 5989), counts_c, OBS_X, OBS_Z
            ) == (0.45534958000000003, 0.002919802320688412)

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
        # refused by the rule of the exact estimator, at every scale of A and B
        counts_a = simulate_shots(MAXMIXED, OBS_X, 100, seed=0)
        counts_b = simulate_shots(MAXMIXED, OBS_Z, 100, seed=1)
        for scale in (1.0, 1e-3, 1e3):
            obs_a = PauliObservable(scale, 0.0, 0.0, 0.0)
            with pytest.raises(CollinearObservables, match="gram determinant = 0.000e"):
                estimate_mixedness_from_counts(
                    counts_a, counts_a, None, obs_a, PauliObservable(2.0 * scale, 0.0, 0.0, scale)
                )
            estimate, _ = estimate_mixedness_from_counts(
                counts_a, counts_b, None, obs_a, PauliObservable(0.0, 0.0, scale, 0.0)
            )
            unit, _ = estimate_mixedness_from_counts(counts_a, counts_b, None, OBS_X, OBS_Z)
            assert estimate == pytest.approx(unit, rel=1e-12)

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


class TestStackedShots:
    """shot_counts and mixedness_estimates_from_counts: one row per seed,
    bit for bit the one-row forms."""

    @pytest.mark.parametrize(
        "seed",
        [0, 5, 2**32 - 1, 2**32, 2**64 + 5, [12345, 14, 10**6, 3, 1], (7, 0), [3, 2**40, 1], [],
         np.int64(5), [np.uint32(3), 4], True, [False, 2]],
        ids=["zero", "five", "top_word", "two_words", "three_words", "check_seed", "tuple",
             "wide_entry", "empty", "numpy_int", "numpy_entry", "bool", "bool_entry"],
    )
    def test_generator_state_is_default_rng_state(self, seed):
        assert relations._generator(seed).bit_generator.state == (
            np.random.default_rng(seed).bit_generator.state
        )

    @pytest.mark.parametrize("seed", [-1, [3, -1], 2.5, [1.5, 2]])
    def test_generator_refuses_what_default_rng_refuses(self, seed):
        with pytest.raises(Exception) as numpy_refusal:
            np.random.default_rng(seed)
        with pytest.raises(numpy_refusal.type, match=re.escape(str(numpy_refusal.value))):
            relations._generator(seed)

    def test_rows_are_one_row_draws(self):
        p = random_bloch_vectors(3, 6)
        a = np.random.default_rng(4).uniform(-2, 2, (6, 4))
        seeds = [[99, k, 2] for k in range(6)]
        for rows in ((p, a), (p[0], a[0])):  # one (state, A) row per seed, and one for all
            high, low = relations.shot_counts(*rows, 5000, seeds)
            assert high.dtype == low.dtype == np.int64
            for i, seed in enumerate(seeds):
                state = QubitState(BlochVector(*np.broadcast_to(rows[0], p.shape)[i]))
                obs = PauliObservable(*np.broadcast_to(rows[1], a.shape)[i])
                assert simulate_shots(state, obs, 5000, seed) == (high[i], low[i])

    def test_rows_must_match_seeds(self):
        with pytest.raises(InvalidArgument, match=r"rows of shape \(3,\) for 2 seeds"):
            relations.shot_counts(random_bloch_vectors(3, 3), X, 10, [0, 1])

    def test_estimates_are_one_row_calls(self, rng):
        n = 40
        p = random_bloch_vectors(rng, n)
        a, b = rng.uniform(-2, 2, (n, 4)), rng.uniform(-2, 2, (n, 4))
        keep = gram_determinants(a, b) > 1.0
        p, a, b = p[keep], a[keep], b[keep]
        c = core.symmetrized_products(a, b)
        seeds = [[5, k] for k in range(len(p))]
        counts = [relations.shot_counts(p, rows, 10**4, seeds) for rows in (a, b, c)]
        cases = [((a, b), counts)]
        # C = 0 for sx and sz: its counts may be omitted
        xz = [relations.shot_counts(p, rows, 10**4, seeds) for rows in (X, Z)]
        cases.append(((X, Z), [*xz, None]))
        for (rows_a, rows_b), (counts_a, counts_b, counts_c) in cases:
            estimates, std_errors = relations.mixedness_estimates_from_counts(
                counts_a, counts_b, counts_c, rows_a, rows_b
            )
            # the one-row form takes (high, low) ints, as simulate_shots returns them
            pairs_a, pairs_b = (list(zip(*(x.tolist() for x in n))) for n in (counts_a, counts_b))
            pairs_c = [None] * len(p)
            if counts_c is not None:
                pairs_c = list(zip(*(x.tolist() for x in counts_c)))
            one_row = [
                estimate_mixedness_from_counts(
                    pairs_a[i], pairs_b[i], pairs_c[i],
                    PauliObservable(*np.broadcast_to(rows_a, a.shape)[i]),
                    PauliObservable(*np.broadcast_to(rows_b, b.shape)[i]),
                )
                for i in range(len(p))
            ]
            assert np.array_equal(estimates, [e for e, _ in one_row])
            assert np.array_equal(std_errors, [se for _, se in one_row])

    def test_refused_counts_name_their_row(self):
        good = (np.array([5, 6, 7]), np.array([5, 4, 3]))
        for bad, named in (((np.array([5, -2, 7]), good[1]), r"\(-2, 4\)"),
                           ((np.array([5, 6, 0]), np.array([5, 4, 0])), r"\(0, 0\)")):
            for counts in ((bad, good), (good, bad)):
                with pytest.raises(InvalidArgument, match=named):
                    relations.mixedness_estimates_from_counts(*counts, None, X, Z)

    def test_omitted_c_needs_every_row_proportional_to_i(self):
        counts = (np.array([5, 6]), np.array([5, 4]))
        b = np.array([Z, [0.5, 0.0, 1.0, 0.7]])  # (AB + BA)/2 is not prop. to I in the second row
        with pytest.raises(InvalidArgument, match="counts_c may be omitted"):
            relations.mixedness_estimates_from_counts(counts, counts, None, X, b)


class TestReport:
    def test_report_fields_consistent(self, rng):
        for _ in range(100):
            p, a, b = random_triple(rng, span=2.0)
            if min(np.linalg.norm(a[:3]), np.linalg.norm(b[:3])) < 1e-3:
                continue
            state = QubitState(BlochVector(*p.tolist()))
            obs_a, obs_b = PauliObservable(*a), PauliObservable(*b)
            report = compute_report(state, obs_a, obs_b)
            assert report.product == pytest.approx(report.varA * report.varB, abs=1e-12)
            assert report.product >= report.rur_bound - 1e-10
            assert report.product >= report.sur_bound - 1e-10
            assert report.product >= report.eq19_bound - 1e-10
            assert abs(report.equality_residual) <= 1e-10
            assert report.sum_lhs >= report.sum_bound - 1e-10
            assert report.entropy_sum >= report.entropy_bound - 1e-10

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared_pair", "pair_per_row"])
    def test_stack_matches_one_row_calls(self, rng, per_row):
        # an (n, T, 3) stack keeps its leading shape in every field; each row,
        # its one-row call and compute_report agree bit for bit, in field order
        n, steps = 5, 7
        p = random_bloch_vectors(rng, n * steps, "mixed").reshape(n, steps, 3)
        if per_row:
            a, b = rng.uniform(-2, 2, (n, steps, 4)), rng.uniform(-2, 2, (n, steps, 4))
        else:
            a, b = np.array([1.0, 0.0, 0.3, 0.5]), np.array([-0.2, 0.7, 1.1, -0.4])
        stacked = reports(p, a, b)
        assert [v.shape for v in stacked.values()] == [(n, steps)] * 12
        rows_a, rows_b = np.broadcast_to(a, (n, steps, 4)), np.broadcast_to(b, (n, steps, 4))
        for i, j in np.ndindex(n, steps):
            row = [(k, float(v[i, j]).hex()) for k, v in stacked.items()]
            one = reports(p[i, j], rows_a[i, j], rows_b[i, j])
            assert row == [(k, float(v).hex()) for k, v in one.items()]
            report = compute_report(
                QubitState(BlochVector(*p[i, j].tolist())),
                PauliObservable(*rows_a[i, j].tolist()), PauliObservable(*rows_b[i, j].tolist()),
            )
            assert row == [(k, v.hex()) for k, v in dataclasses.asdict(report).items()]


LAYOUTS = ["single_row", "stack_one_pair", "pairs_one_state"]


def layout_triple(rng, layout):
    """A state, A and B rows: one row each, an (n, T, 3) stack against one
    pair, or one state against a pair per row."""
    n, steps = 4, 5
    p = random_bloch_vectors(rng, n * steps, "mixed")
    a, b = np.array([1.0, 0.0, 0.3, 0.5]), np.array([-0.2, 0.7, 1.1, -0.4])
    if layout == "single_row":
        return p[0], a, b
    if layout == "stack_one_pair":
        return p.reshape(n, steps, 3), a, b
    return p[0], rng.uniform(-2, 2, (n, 4)), rng.uniform(-2, 2, (n, 4))


class TestOneCheckPerCall:
    """reports, mixedness_estimates and ratios check the state once and read
    every field from shared projections, bit for bit as the one-quantity
    functions give it."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_state_checked_once(self, rng, layout, monkeypatch):
        calls = []
        check = core._ball_components

        def counting(p):
            calls.append(p)
            return check(p)

        monkeypatch.setattr(core, "_ball_components", counting)
        monkeypatch.setattr(relations, "_ball_components", counting)
        p, a, b = layout_triple(rng, layout)
        for fn in (reports, mixedness_estimates, ratios):
            calls.clear()
            fn(p, a, b)
            assert len(calls) == 1, fn.__name__

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_fields_match_one_quantity_forms(self, rng, layout):
        p, a, b = layout_triple(rng, layout)
        fields = reports(p, a, b)
        comm, anti = commutator_terms(p, a, b), anticommutator_terms(p, a, b)
        var_a, var_b = variances(p, a), variances(p, b)
        expected = {
            "varA": var_a,
            "varB": var_b,
            "rur_bound": comm,
            "sur_bound": comm + anti,
            "remainder": equality_remainders(p, a, b),
            "sum_bound": 0.5 * variances(p, a + b),
            "entropy_sum": measurement_entropies(p, a) + measurement_entropies(p, b),
            "entropy_bound": np.log2(1.0 / complementarities(a, b)),
        }
        for key, want in expected.items():
            got = fields[key]
            assert np.array_equal(got, np.broadcast_to(want, np.shape(got))), key
        estimate = 8.0 * (var_a * var_b - comm - anti) / gram_determinants(a, b)
        assert np.array_equal(mixedness_estimates(p, a, b), estimate)

    def test_refusal_order(self):
        # the collinearity check comes before the state's; the state's
        # before the spectra's
        with pytest.raises(CollinearObservables):
            mixedness_estimates([2, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0])
        for fn in (reports, ratios):
            with pytest.raises(InvalidArgument, match="exceeds"):
                fn([2, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0])


# Every public array function of core, relations and tightness, with the
# inputs it reads from a (p, a, b, counts_a, counts_b, counts_c) row.
ARRAY_FUNCTIONS = [
    (variances, "p a"), (commutator_terms, "p a b"), (anticommutator_terms, "p a b"),
    (mixedness_values, "p"), (core.xi_values, "a b"), (core.symmetrized_products, "a b"),
    (gram_determinants, "a b"), (equality_remainders, "p a b"),
    (high_outcome_probabilities, "p a"), (measurement_entropies, "p a"),
    (complementarities, "a b"), (mixedness_estimates, "p a b"), (reports, "p a b"),
    (ratios, "p a b"),
    (relations.mixedness_estimates_from_counts, "counts_a counts_b counts_c a b"),
]

A_ROW, B_ROW = [1.0, 0.0, 0.3, 0.5], [-0.2, 0.7, 1.1, -0.4]
COUNTS = ((6120, 3880), (4011, 5989), (7000, 3000))
UNIT = np.array([0.6, 0.0, 0.8])
# (p, a, b, counts) rows at the edges of the closed forms and their checks
EDGE_ROWS = {
    "origin": ([0.0, 0.0, 0.0], A_ROW, B_ROW, COUNTS),
    # |a|^2 - (a.p)^2 = -4e-13 before the variance clamp
    "pure_along_a": (UNIT * (1 + 2e-13), [*UNIT, 0.3], B_ROW, COUNTS),
    # outcome probability 0 for A, 1/2 for B: the 0 log 0 select
    "certain_outcome": ([0.0, 0.0, -1.0], Z, X, COUNTS),
    # accepted; the mixedness clamps to 0 and A's probability to 1
    "ball_edge_accepted": ([math.sqrt(1 + 5e-13), 0.0, 0.0], X, B_ROW, COUNTS),
    "ball_edge_refused": ([math.sqrt(1 + 2e-12), 0.0, 0.0], A_ROW, B_ROW, COUNTS),
    "nan_state": ([math.nan, 0.0, 0.0], A_ROW, B_ROW, COUNTS),
    # undefined ti1 and ti2: their bounds vanish
    "collinear_pair": ([0.3, 0.1, -0.2], [1.0, 0.0, 0.0, 0.3], [2.0, 0.0, 0.0, -1.0], COUNTS),
    "a_proportional_to_i": ([0.3, 0.1, -0.2], [0.0, 0.0, 0.0, 0.7], B_ROW, COUNTS),
    "one_sided_counts": ([0.3, 0.1, -0.2], A_ROW, B_ROW, ((10, 0), (0, 10), (5, 5))),
    "zero_total_counts": ([0.3, 0.1, -0.2], A_ROW, B_ROW, ((0, 0), (5, 5), (5, 5))),
}


def _stacked(rows):
    """Stacked inputs from a list of (p, a, b, counts) rows; counts as
    (high, low) int64 arrays."""
    p, a, b, counts = zip(*rows)
    stack = dict(p=np.array(p, dtype=float), a=np.array(a, dtype=float),
                 b=np.array(b, dtype=float))
    for k, name in enumerate(("counts_a", "counts_b", "counts_c")):
        stack[name] = tuple(np.array(n, dtype=np.int64) for n in zip(*(c[k] for c in counts)))
    return stack


def _one_row(stack, i):
    """Row i of stacked inputs, as a caller with one row passes it: 1-D
    arrays and (high, low) pairs of ints."""
    return {
        name: tuple(n[i].item() for n in value) if name.startswith("counts") else value[i]
        for name, value in stack.items()
    }


def _cells(result):
    """A result's values: a dict's or a tuple's entries, or the result itself."""
    if isinstance(result, dict):
        return list(result.values())
    return list(result) if isinstance(result, tuple) else [result]


def _outcome(fn, args, inputs):
    """The result cells of fn on the named inputs, or its refusal as (type, message)."""
    try:
        return _cells(fn(*(inputs[name] for name in args.split())))
    except QubitVarError as exc:
        return type(exc), str(exc)


def _bits(value):
    """Type, shape and the hex bits of every entry of a value."""
    return type(value), np.shape(value), [float(x).hex() for x in np.ravel(value)]


class TestOneRowRoute:
    """A one-row call runs in Python floats; it gives the type, the shape,
    the bits and the refusal of that row of a stack, which runs in numpy
    columns.  Random rows take np.log2 thousands of times (math.log2
    differs from it in about 2 of 1000 values) and would all be refused
    if ~ negated a Python bool; the collinear pair's undefined ratios
    would divide by 0.0, which raises in Python."""

    @pytest.mark.parametrize(
        "fn, args", ARRAY_FUNCTIONS, ids=[fn.__name__ for fn, _ in ARRAY_FUNCTIONS]
    )
    def test_one_row_is_its_stack_row(self, rng, fn, args):
        n, shots = 400, 1000
        p = random_bloch_vectors(rng, n)
        a, b = rng.uniform(-2, 2, (n, 4)), rng.uniform(-2, 2, (n, 4))
        high = rng.integers(0, shots + 1, (3, n)).tolist()
        rows = [(p[i], a[i], b[i], tuple((h[i], shots - h[i]) for h in high)) for i in range(n)]
        random_rows = _stacked(rows)
        stacked = _outcome(fn, args, random_rows)
        assert isinstance(stacked, list), stacked
        for i in range(n):
            one = _outcome(fn, args, _one_row(random_rows, i))
            assert [_bits(v) for v in one] == [_bits(v[i]) for v in stacked]
        for name, edge in EDGE_ROWS.items():  # at the head of a stack with a random row
            edge_rows = _stacked([edge, rows[0]])
            stacked, one = _outcome(fn, args, edge_rows), _outcome(fn, args, _one_row(edge_rows, 0))
            if isinstance(stacked, tuple):  # refused: same type, same message
                assert one == stacked, name
            else:
                assert [_bits(v) for v in one] == [_bits(v[0]) for v in stacked], name
