"""Uncertainty relations, the equality residual and the mixedness estimator."""

import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    ORIGIN, Z_POLE, I, X, Y, Z, bloch_vectors, observables, oracle_anticommutator_term,
    oracle_commutator_term, oracle_entropies, oracle_obs, oracle_state, oracle_variance,
    oracle_xi
)
import qubitvar.serialize  # the meter workload's read_one reads it
from qubitvar import core, relations
from qubitvar.core import (
    OBS_X,
    OBS_Z,
    mixedness_values,
    random_bloch_vectors,
    symmetrized_products,
)
from qubitvar.errors import (
    CollinearObservables, DegenerateSpectrum, InvalidArgument, QubitVarError
)
from qubitvar.relations import (
    MAX_SHOTS,
    gram_determinants,
    high_outcome_probabilities,
    mixedness_estimates,
    mixedness_estimates_from_counts,
    reports,
    shot_counts,
)
from qubitvar.tightness import BOUND_FLOOR, C_ONE_TOL, ratios
from qubitvar.verify import check_remainder_sign


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


class TestProductBounds:
    def test_rur_examples(self):
        # the Robertson bound is the commutator term
        assert reports(ORIGIN, X, Z)["rur_bound"] == 0.0
        assert reports(Z_POLE, X, Y)["rur_bound"] == pytest.approx(1.0, abs=1e-12)
        obs = [0.4, 1.0, -0.3, 0.2]
        assert reports(ORIGIN, obs, obs)["rur_bound"] == 0.0

    def test_sur_trivial_examples(self):
        assert reports(ORIGIN, X, Z)["sur_bound"] == 0.0
        p, obs = [0.3, -0.2, 0.4], [1.2, 0.0, -0.7, 0.5]
        assert reports(p, obs, obs)["sur_bound"] == pytest.approx(
            oracle_variance(oracle_state(*p), oracle_obs(*obs)) ** 2, abs=1e-10
        )

    def test_remainder_maximally_mixed(self):
        # (1/8) * (1/2) * (4*4 - 0) = 1, term by term from the traces
        assert reports(ORIGIN, X, Z)["remainder"] == pytest.approx(1.0, abs=1e-14)

    def test_remainder_trivial_cases(self, rng):
        for _ in range(200):
            p, a, b = random_triple(rng, kind="pure")
            assert abs(reports(p, a, b)["remainder"]) <= 1e-12
            assert reports(p, a, a)["remainder"] == pytest.approx(0.0, abs=1e-9)

    def test_remainder_check_scales_with_gram(self):
        # worst absolute pure-state remainder here is 1.02e-12 at G ~ 1e4;
        # relative to G/8 it is rounding-sized
        result = check_remainder_sign(10_000, 1737546428)
        assert result.passed
        assert result.worst <= 1e-15

    def test_equality_examples(self):
        for p in (ORIGIN, Z_POLE):
            assert reports(p, X, Z)["equality_residual"] == pytest.approx(0.0, abs=1e-14)

    @settings(deadline=None)
    @given(bloch_vectors(), observables(), observables())
    def test_equality_residual_property(self, p, a, b):
        try:
            fields = reports(p, a, b)
        except DegenerateSpectrum:
            # A or B is proportional to I, its Pauli part zero in double precision
            assert min(core._dot(a, a), core._dot(b, b)) < sys.float_info.min
            return
        assert abs(fields["product"] - fields["sur_bound"] - fields["remainder"]) <= 1e-10
        assert abs(fields["equality_residual"]) <= 1e-10

    def test_mixedness_weighted_bound_examples(self):
        fields = reports(ORIGIN, X, Z)
        assert fields["eq19_bound"] == pytest.approx(1.0, abs=1e-14)
        assert fields["product"] == pytest.approx(fields["eq19_bound"], abs=1e-14)
        # pure eigenstate of A with vanishing commutator expectation
        assert reports(Z_POLE, Z, X)["eq19_bound"] == pytest.approx(0.0, abs=1e-14)

    def test_mixedness_weighted_bound_never_exceeds_product(self, rng):
        for _ in range(2000):
            p, a, b = random_triple(rng)
            fields = reports(p, a, b)
            assert fields["eq19_bound"] <= fields["product"] + 1e-10

    def test_bound_chain(self, rng):
        for _ in range(2000):
            p, a, b = random_triple(rng)
            fields = reports(p, a, b)
            product, rur, sur = fields["product"], fields["rur_bound"], fields["sur_bound"]
            assert product >= sur - 1e-10
            assert sur >= rur - 1e-10


class TestSumRelation:
    def test_examples(self):
        assert sum_fields(ORIGIN, X, Z) == pytest.approx((2.0, 1.0), abs=1e-14)
        assert sum_fields(Z_POLE, X, Y) == pytest.approx((2.0, 1.0), abs=1e-14)
        p = [0.3, 0.1, -0.5]
        obs = [0.7, -0.2, 1.1, 0.4]
        lhs, bound = sum_fields(p, obs, obs)
        variance = oracle_variance(oracle_state(*p), oracle_obs(*obs))
        assert lhs == pytest.approx(2 * variance, abs=1e-12)
        assert bound == pytest.approx(2 * variance, abs=1e-12)

    @settings(deadline=None)
    @given(bloch_vectors(), observables(), observables())
    def test_holds_always(self, p, a, b):
        try:
            lhs, bound = sum_fields(p, a, b)
        except DegenerateSpectrum:
            # reports needs both eigenbases (its entropic fields): A or B is proportional
            # to I, its Pauli part zero in double precision
            assert min(core._dot(a, a), core._dot(b, b)) < sys.float_info.min
            return
        assert lhs >= bound - 1e-10


class TestEntropic:
    def test_entropy_examples(self):
        # entropy_sum of a pair A = B is twice H(A)
        assert reports(Z_POLE, Z, Z)["entropy_sum"] == 0.0
        assert reports(ORIGIN, Z, Z)["entropy_sum"] == pytest.approx(2.0, abs=1e-15)
        assert reports(Z_POLE, X, X)["entropy_sum"] == pytest.approx(2.0, abs=1e-15)

    def test_entropy_range(self, rng):
        for _ in range(500):
            p, a, _ = random_triple(rng)
            if np.linalg.norm(a[:3]) < 1e-6:
                continue
            assert 0.0 <= reports(p, a, a)["entropy_sum"] <= 2.0

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            reports(ORIGIN, I, X)
        with pytest.raises(DegenerateSpectrum):
            reports(ORIGIN, X, I)

    @pytest.mark.parametrize("stack, error, message", [
        # a NaN row is refused before any spectrum is looked at
        pytest.param([[math.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], InvalidArgument,
                     "coefficients must be finite, got nan", id="nan_row"),
        # the first closed row, 2e-160 (|a|^2 subnormal), is not the smallest, 0
        pytest.param([[1.0, 0.0, 0.0, 0.0], [1e-160, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                     DegenerateSpectrum,
                     "degenerate observable spectrum: eigenvalue gap 2|a| = 2.000e-160",
                     id="subnormal_square"),
        # |a|^2 = 1e-300 is a normal float: the spectrum is resolved, at any scale
        pytest.param([[1e-150, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], None, None,
                     id="normal_square"),
    ])
    def test_degenerate_message_names_first_closed_row(self, stack, error, message):
        if error is None:
            assert high_outcome_probabilities([0.1, 0.0, 0.0], stack).tolist() == [0.55, 0.55]
            return
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            high_outcome_probabilities([0.1, 0.0, 0.0], stack)

    def test_non_finite_coefficient_rows_are_refused(self):
        p = [0.1, 0.0, 0.0]
        for bad in (math.nan, math.inf, -math.inf):
            stack = [[1.0, 0.0, 0.0, 0.0], [bad, 0.0, 0.0, 0.0]]
            for call in (lambda: reports(p, stack, Z), lambda: ratios(p, X, stack),
                         lambda: high_outcome_probabilities(p, stack),
                         lambda: mixedness_estimates(p, stack, Z)):
                with pytest.raises(InvalidArgument, match=f"^coefficients must be finite, got {bad}$"):
                    call()

    def test_complementarity_examples(self):
        # entropy_bound is log2(1/c), c the largest squared eigenvector overlap
        assert entropic_fields(ORIGIN, X, Z)[1] == pytest.approx(1.0, abs=1e-15)
        assert entropic_fields(ORIGIN, Z, Z + 3.0 * I)[1] == 0.0
        tilted = [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0]
        assert entropic_fields(ORIGIN, Z, tilted)[1] == pytest.approx(
            -math.log2(math.cos(math.pi / 8) ** 2), abs=1e-12
        )

    def test_complementarity_against_eigenvector_overlap(self, rng):
        for _ in range(300):
            p, a, b = random_triple(rng, span=2.0)
            if min(np.linalg.norm(a[:3]), np.linalg.norm(b[:3])) < 1e-3:
                continue
            want = oracle_entropies(oracle_state(*p), oracle_obs(*a), oracle_obs(*b))
            assert entropic_fields(p, a, b) == pytest.approx(want, abs=1e-10)

    def test_eur_examples(self):
        assert entropic_fields(ORIGIN, X, Z) == pytest.approx((2.0, 1.0), abs=1e-12)
        entropy_sum, bound = entropic_fields(Z_POLE, Z, Z + I)
        assert bound == 0.0
        entropy_sum, bound = entropic_fields(Z_POLE, X, Z)
        assert (entropy_sum, bound) == pytest.approx((1.0, 1.0), abs=1e-12)


# the refusal of a pair whose |a|^2 |b|^2 is subnormal
UNDERFLOW = r"\|a\|\^2 \|b\|\^2 = \S+ underflows the smallest normal float"


class TestEstimator:
    def test_examples(self):
        # the estimate is a ratio of variance data: A and B in other units
        # change neither its value nor which pairs are refused
        p = [0.3, 0.1, -0.2]
        parallels = ([1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 1.0],
                     [2.0, 0.0, 0.0, 1.0])
        for scale in (1.0, 1e-3, 1e3):
            a, b = scale * X, scale * Z
            assert mixedness_estimates(ORIGIN, a, b) == pytest.approx(0.5, abs=1e-12)
            assert mixedness_estimates(Z_POLE, a, b) == pytest.approx(0.0, abs=1e-12)
            assert mixedness_estimates(p, a, b) == pytest.approx(0.43, abs=1e-12)
            for parallel in parallels:
                with pytest.raises(CollinearObservables, match="gram determinant = 0.000e"):
                    mixedness_estimates(p, a, scale * np.array(parallel))

    def test_underflowing_pair_refused(self):
        # A = s sx, B = s sz: below s = 1.2e-77 |a|^2 |b|^2 = s^4 is subnormal,
        # and there the estimators refuse the pair and ti1 is undefined
        p, counts = [0.3, 0.1, -0.2], ((600, 400), (350, 650), None)
        scales = 10.0 ** -np.arange(70.0, 100.5, 0.5)
        underflows = (scales * scales) * (scales * scales) < sys.float_info.min
        assert not underflows[0] and underflows[-1] and 0 < underflows.sum() < len(scales)
        unit = (float(mixedness_estimates(p, X, Z)),
                float(mixedness_estimates_from_counts(*counts, X, Z)[0]),
                float(ratios(p, X, Z)[0]))
        for s, underflow in zip(scales, underflows):
            a, b = s * X, s * Z
            ti1 = ratios(p, a, b)[0]
            if underflow:
                for estimate in (lambda: mixedness_estimates(p, a, b),
                                 lambda: mixedness_estimates_from_counts(*counts, a, b)):
                    with pytest.raises(CollinearObservables, match=UNDERFLOW):
                        estimate()
                assert math.isnan(ti1)
            else:
                scaled = (float(mixedness_estimates(p, a, b)),
                          float(mixedness_estimates_from_counts(*counts, a, b)[0]), float(ti1))
                assert scaled == pytest.approx(unit, abs=1e-9)
        # stacked: the same ti1 row by row, and a stack holding one underflowing pair is refused
        a, b = scales[:, None] * X, scales[:, None] * Z
        ti1 = ratios(p, a, b)[0]
        assert np.array_equal(np.isnan(ti1), underflows)
        assert ti1[~underflows] == pytest.approx(unit[2], abs=1e-9)
        kept = ~underflows
        assert mixedness_estimates(p, a[kept], b[kept]) == pytest.approx(unit[0], abs=1e-9)
        estimates = mixedness_estimates_from_counts(*counts, a[kept], b[kept])[0]
        assert estimates == pytest.approx(unit[1], abs=1e-9)
        for i in np.flatnonzero(underflows):
            rows = np.flatnonzero(kept).tolist() + [i]
            with pytest.raises(CollinearObservables, match=UNDERFLOW):
                mixedness_estimates(p, a[rows], b[rows])
            with pytest.raises(CollinearObservables, match=UNDERFLOW):
                mixedness_estimates_from_counts(*counts, a[rows], b[rows])

    def test_matches_mixedness_for_any_pair(self, rng):
        for _ in range(1000):
            p, a, b = random_triple(rng, span=2.0)
            if gram_determinants(a, b) <= 1.0:
                continue
            assert mixedness_estimates(p, a, b) == pytest.approx(mixedness_values(p), abs=1e-10)

    def test_pair_independence(self, rng):
        p = [0.2, -0.3, 0.4]
        values = []
        for _ in range(20):
            a, b = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
            if gram_determinants(a, b) <= 1.0:
                continue
            values.append(float(mixedness_estimates(p, a, b)))
        assert max(values) - min(values) <= 1e-10


    def test_per_object_forms_match_array_rows(self, rng):
        # the nine per-object forms are one-row entry points over checked rows,
        # kept for the benchmark's meter workload: each constructor returns
        # its checked row (a state is its Bloch vector's row) and refuses with
        # its row check's message, and each function equals its one-row array
        # call bit for bit, with one pair for all states and one pair per state
        p = random_bloch_vectors(rng, 300, "mixed")
        a, b = rng.uniform(-2, 2, (300, 4)), rng.uniform(-2, 2, (300, 4))
        kept = gram_determinants(a, b) > 1.0
        p, a, b = p[kept], a[kept], b[kept]
        for pair in ((OBS_X, OBS_Z), (a, b)):
            rows_a, rows_b = (np.broadcast_to(x, a.shape) for x in pair)
            for i, row in enumerate(p):
                a_i, b_i, seed = rows_a[i], rows_b[i], [8, i]
                vector = core.BlochVector(*row.tolist())
                state = core.QubitState(vector)
                obs_a, obs_b = core.PauliObservable(*a_i), core.PauliObservable(*b_i)
                assert state is vector and type(vector) is core._Row and vector == tuple(row)
                for obs, coeffs in ((obs_a, a_i), (obs_b, b_i)):
                    assert type(obs) is core._Row and obs == tuple(coeffs)
                assert core.mixedness(state).hex() == float(mixedness_values(row)).hex()
                assert relations.estimate_mixedness(state, obs_a, obs_b).hex() == (
                    float(mixedness_estimates(row, a_i, b_i)).hex()
                )
                report = relations.compute_report(state, obs_a, obs_b)
                assert [(k, v.hex()) for k, v in vars(report).items()] == [
                    (k, float(v).hex()) for k, v in reports(row, a_i, b_i).items()
                ]
                obs_c = relations.symmetrized_product(obs_a, obs_b)
                c_i = symmetrized_products(a_i, b_i)
                assert type(obs_c) is core._Row and obs_c == tuple(c_i)
                counts = []
                for obs, coeffs in ((obs_a, a_i), (obs_b, b_i), (obs_c, c_i)):
                    if obs is obs_c and pair[0] is OBS_X:  # C = 0 I for sx, sz: no shots
                        counts.append(None)
                        continue
                    drawn = relations.simulate_shots(state, obs, 1000, seed + [len(counts)])
                    high, low = shot_counts(row, coeffs, 1000, [seed + [len(counts)]])
                    assert type(drawn[0]) is int and drawn == (high[0], low[0])
                    counts.append(drawn)
                estimate = relations.estimate_mixedness_from_counts(*counts, obs_a, obs_b)
                assert [x.hex() for x in estimate] == [
                    float(x).hex() for x in mixedness_estimates_from_counts(*counts, a_i, b_i)
                ]
        finite = "components must be finite, got "
        refusals = [
            (core.BlochVector, (math.nan, 0.0, 0.0), finite + "(nan, 0.0, 0.0)"),
            (core.BlochVector, (0, math.inf, 0), finite + "(0, inf, 0)"),
            (core.BlochVector, (1.0, 0.1, 0.0), "|p|^2 = 1.01 exceeds 1 + 1e-12"),
            (core.PauliObservable, (0.0, -math.inf, 0.0, 0.0), finite + "(0.0, -inf, 0.0, 0.0)"),
            (core.PauliObservable, (1e77, 0, 0, 0),
             "coefficients above 1.16e+76 overflow the moments"),
        ]
        for cls, values, message in refusals:
            with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
                cls(*values)

    def test_benchmark_meter_reads_every_smoke_triple(self, tmp_path):
        # the benchmark's meter workload, loaded by path as it is, reads each
        # of its 40 smoke triples through the per-object names and passes its
        # own check: a renamed name fails here, not only inside a benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        meter = workloads.MeterStream(5, "smoke", tmp_path)
        assert len(meter.triples) == 40
        for index, triple in enumerate(meter.triples):
            assert workloads.check_reading(meter.read_one(qubitvar, index, *triple)), index


class TestSymmetrizedProduct:
    def test_examples(self):
        assert symmetrized_products(X, Z).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert symmetrized_products(X, X).tolist() == [0.0, 0.0, 0.0, 1.0]
        assert symmetrized_products(X + I, Z).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_against_trace_oracle(self, rng):
        for _ in range(200):
            _, a, b = random_triple(rng)
            got = oracle_obs(*symmetrized_products(a, b))
            want = 0.5 * (oracle_obs(*a) @ oracle_obs(*b) + oracle_obs(*b) @ oracle_obs(*a))
            assert np.abs(got - want).max() <= 1e-12


class TestMeterSettings:
    def test_c_proportional_to_identity_is_none(self):
        assert relations.meter_settings(OBS_X, OBS_Z) == [OBS_X, OBS_Z, None]
        # a stack whose every C is a multiple of I: sx with sz, sy with 2 sy
        a, b = np.array([OBS_X, [0, 1, 0, 0]]), np.array([OBS_Z, [0, 2, 0, 0]])
        settings = relations.meter_settings(a, b)
        assert settings[0] is a and settings[1] is b and settings[2] is None
        assert symmetrized_products(a, b).tolist() == [[0, 0, 0, 0], [0, 0, 0, 2]]

    def test_c_row_otherwise(self, rng):
        assert relations.meter_settings(X + I, Z)[2].tolist() == [0.0, 0.0, 1.0, 0.0]
        # one row of a stack off the identity is enough to measure C
        a, b = np.array([OBS_X, X + I]), np.array([OBS_Z, Z])
        assert relations.meter_settings(a, b)[2].tolist() == [[0, 0, 0, 0], [0, 0, 1, 0]]
        for _ in range(20):
            _, a, b = random_triple(rng)
            c = relations.meter_settings(a, b)[2]
            assert c.tolist() == symmetrized_products(a, b).tolist()


def one_row_counts(p, a, shots, seed):
    """shot_counts for one (state, A) row and one seed, as a (high, low) pair of ints."""
    high, low = shot_counts(p, a, shots, [seed])
    return int(high[0]), int(low[0])


def one_row_estimate(counts_a, counts_b, counts_c, a, b):
    """mixedness_estimates_from_counts for one row, as (estimate, std_error) floats."""
    return tuple(map(float, mixedness_estimates_from_counts(counts_a, counts_b, counts_c, a, b)))


class TestShots:
    def test_deterministic_outcome(self):
        assert one_row_counts(Z_POLE, Z, 1000, 5) == (1000, 0)

    def test_balanced_within_three_sigma(self):
        n_hi, _ = one_row_counts(ORIGIN, Z, 10**6, 9)
        assert abs(n_hi - 5 * 10**5) < 3 * 500

    def test_fixed_seed_reproducible(self):
        first = one_row_counts(ORIGIN, X, 1234, 3)
        second = one_row_counts(ORIGIN, X, 1234, 3)
        assert first == second

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            shot_counts(ORIGIN, I, 10, [0])

    def test_shot_cap(self):
        # counts up to 2^53 stay exact as floats; one more is refused before any draw
        counts = one_row_counts(ORIGIN, X, MAX_SHOTS, 3)
        assert sum(counts) == MAX_SHOTS == 2**53
        with pytest.raises(InvalidArgument, match="shots are more than 9007199254740992"):
            shot_counts(ORIGIN, X, MAX_SHOTS + 1, [3])
        # a whole number of shots, as a Python or numpy integer
        assert one_row_counts(ORIGIN, X, np.int64(10), 3) == one_row_counts(ORIGIN, X, 10, 3)
        for shots in (10.5, 10.0, True, "10"):
            with pytest.raises(InvalidArgument, match="shots must be an integer"):
                shot_counts(ORIGIN, X, shots, [3])

    def test_counts_validation(self):
        for bad in ((0, 0), (-1, 3)):
            with pytest.raises(ValueError):
                mixedness_estimates_from_counts(bad, (5, 5), None, X, Z)
            with pytest.raises(ValueError):
                mixedness_estimates_from_counts((5, 5), bad, None, X, Z)
        # a bool beside an int would be promoted to int64 if the pair were one
        # array, and so would a bool inside a sequence of ints
        for bad in ((10.5, 0), (5.0, 5), (np.array([10.5]), np.array([0.0])),
                    (True, 5), (5, False), (np.True_, 5), (np.int64(5), np.False_),
                    (np.array([True]), np.array([5])), (np.array([5]), np.array([False])),
                    ([True, 3], [5, 5]), ([5, 5], [3, np.False_]), ([[5], [True]], [[5], [5]])):
            with pytest.raises(InvalidArgument, match="counts must be integers"):
                mixedness_estimates_from_counts(bad, (5, 5), None, X, Z)
            with pytest.raises(InvalidArgument, match="counts must be integers"):
                mixedness_estimates_from_counts((5, 5), bad, None, X, Z)
        # integer counts keep their bits, as Python ints, numpy scalars or arrays
        want = one_row_estimate((3, 7), (6, 4), None, X, Z)
        for counts in ((np.int64(3), np.int64(7)), (np.uint32(3), 7),
                       (np.array(3), np.array(7))):
            assert one_row_estimate(counts, (6, 4), None, X, Z) == want
        # and in sequences, the bits of their arrays
        want = mixedness_estimates_from_counts((np.array([1, 3]), np.array([5, 5])), (6, 4),
                                               None, X, Z)
        for counts in (([1, 3], [5, 5]), ((np.int64(1), 3), [np.uint8(5), 5])):
            got = mixedness_estimates_from_counts(counts, (6, 4), None, X, Z)
            assert [_bits(v) for v in got] == [_bits(v) for v in want]


def exact_counts(p, a, shots):
    """Counts proportional to the exact outcome probabilities."""
    n_hi = round(float(high_outcome_probabilities(p, a)) * shots)
    return n_hi, shots - n_hi


def in_plane_state(rng):
    """A Bloch vector in the xz-plane, uniform over the disk."""
    r = rng.uniform(0, 1) ** 0.5
    angle = rng.uniform(0, 2 * math.pi)
    return [r * math.cos(angle), 0.0, r * math.sin(angle)]


class TestEstimateFromCounts:
    def test_known_floats(self):
        # bit for bit the values of the earlier counts-object implementation
        a, b = [1.0, 0.0, 0.3, 0.5], [-0.2, 0.7, 1.1, -0.4]
        assert one_row_estimate(
            (6120, 3880), (4011, 5989), (7000, 3000), a, b
        ) == (0.3249578533236898, 0.007640449508878182)
        for counts_c in (None, (5, 5)):  # C = 0 I: counts of it carry no information
            assert one_row_estimate(
                (6120, 3880), (4011, 5989), counts_c, X, Z
            ) == (0.45534958000000003, 0.002919802320688412)

    def test_exact_moment_limit(self, rng):
        # in-plane states (no Bloch component along a x b): the pathway's
        # commutator-moment omission is exactly zero there
        shots = 10**9
        for _ in range(50):
            p = in_plane_state(rng)
            counts_a = exact_counts(p, X, shots)
            counts_b = exact_counts(p, Z, shots)
            estimate, _ = one_row_estimate(counts_a, counts_b, None, X, Z)
            assert estimate == pytest.approx(mixedness_values(p), abs=1e-4)

    def test_exact_moment_limit_with_c_counts(self, rng):
        shots = 10**9
        a, b = [1.0, 0.0, 0.3, 0.5], [-0.2, 0.0, 1.1, -0.4]
        for _ in range(20):
            p = in_plane_state(rng)
            counts_a = exact_counts(p, a, shots)
            counts_b = exact_counts(p, b, shots)
            counts_c = exact_counts(p, symmetrized_products(a, b), shots)
            estimate, _ = one_row_estimate(counts_a, counts_b, counts_c, a, b)
            assert estimate == pytest.approx(mixedness_values(p), abs=1e-4)

    def test_maximally_mixed_within_three_se(self):
        counts_a = one_row_counts(ORIGIN, X, 10**6, [21, 0])
        counts_b = one_row_counts(ORIGIN, Z, 10**6, [21, 1])
        estimate, std_error = one_row_estimate(counts_a, counts_b, None, X, Z)
        assert abs(estimate - 0.5) <= 3 * std_error

    def test_zero_shot_c_requires_identity_like_product(self):
        counts_a = one_row_counts(ORIGIN, X, 100, 0)
        b = [0.5, 0.0, 1.0, 0.7]
        counts_b = one_row_counts(ORIGIN, b, 100, 1)
        with pytest.raises(ValueError):
            mixedness_estimates_from_counts(counts_a, counts_b, None, X, b)

    def test_collinear_rejected(self):
        # refused by the rule of the exact estimator, at every scale of A and B
        counts_a = one_row_counts(ORIGIN, X, 100, 0)
        counts_b = one_row_counts(ORIGIN, Z, 100, 1)
        for scale in (1.0, 1e-3, 1e3):
            a = scale * X
            with pytest.raises(CollinearObservables, match="gram determinant = 0.000e"):
                mixedness_estimates_from_counts(counts_a, counts_a, None, a, scale * (2.0 * X + I))
            estimate, _ = one_row_estimate(counts_a, counts_b, None, a, scale * Z)
            unit, _ = one_row_estimate(counts_a, counts_b, None, X, Z)
            assert estimate == pytest.approx(unit, rel=1e-12)

    def test_error_scaling_with_shots(self):
        # one stacked draw per observable: row k is the draw from seed [shots, k, j]
        p = [0.3, 0.0, 0.5]
        ses = {}
        for shots in (10**4, 10**6):
            counts_a, counts_b = (
                shot_counts(p, a, shots, [[shots, k, j] for k in range(30)])
                for j, a in enumerate((X, Z))
            )
            _, se = mixedness_estimates_from_counts(counts_a, counts_b, None, X, Z)
            ses[shots] = np.mean(se)
        ratio = ses[10**4] / ses[10**6]
        assert 5.0 <= ratio <= 20.0

    def test_std_error_tracks_monte_carlo_spread(self):
        p = [0.4, 0.0, -0.3]
        counts_a, counts_b = (
            shot_counts(p, a, 10**5, [[77, k, j] for k in range(400)]) for j, a in enumerate((X, Z))
        )
        estimates, ses = mixedness_estimates_from_counts(counts_a, counts_b, None, X, Z)
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
            rows_p, rows_a = np.broadcast_to(rows[0], p.shape), np.broadcast_to(rows[1], a.shape)
            for i, seed in enumerate(seeds):
                assert one_row_counts(rows_p[i], rows_a[i], 5000, seed) == (high[i], low[i])

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
            # a one-row call takes (high, low) ints, as one_row_counts returns them
            pairs_a, pairs_b = (list(zip(*(x.tolist() for x in n))) for n in (counts_a, counts_b))
            pairs_c = [None] * len(p)
            if counts_c is not None:
                pairs_c = list(zip(*(x.tolist() for x in counts_c)))
            one_row = [
                one_row_estimate(
                    pairs_a[i], pairs_b[i], pairs_c[i],
                    np.broadcast_to(rows_a, a.shape)[i], np.broadcast_to(rows_b, b.shape)[i],
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


def _dot(x, y):
    """x . y over components 0-2 of row-major x and y, term by term: the
    projection route the reference pins, one dot product at a time."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _entropy_bits(projection):
    p_hi = np.minimum(np.maximum(0.5 * (1.0 + projection), 0.0), 1.0)
    total = 0.0
    for prob in (p_hi, 1.0 - p_hi):
        prob = np.where(prob > 0.0, prob, 1.0)
        total = total - prob * np.log2(prob)
    return total


def reference_reports(p, a, b):
    """Every reports field and the three ratios, each projection from its own _dot."""
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    aa, bb, ab = _dot(a, a), _dot(b, b), _dot(a, b)
    axis_a, axis_b = a[..., :3] / np.sqrt(aa)[..., None], b[..., :3] / np.sqrt(bb)[..., None]
    s = a + b
    ss = _dot(s, s)
    cross = np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                      a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                      a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)
    ap, bp, triple, sp = _dot(a, p), _dot(b, p), _dot(cross, p), _dot(s, p)
    var_a, var_b = np.maximum(aa - ap * ap, 0.0), np.maximum(bb - bp * bp, 0.0)
    rur = triple * triple
    covariance = ab - ap * bp
    product, sur = var_a * var_b, rur + covariance * covariance
    xi_ab = 4.0 * ab
    scale = (4.0 * aa) * (4.0 * bb)
    remainder = np.maximum(0.5 * (1.0 - _dot(p, p)), 0.0) * (scale - xi_ab * xi_ab) / 8.0
    complementarity = 0.5 * (1.0 + abs(_dot(axis_a, axis_b)))
    fields = dict(
        varA=var_a, varB=var_b, product=product, rur_bound=rur, sur_bound=sur,
        eq19_bound=rur + remainder, remainder=remainder,
        equality_residual=product - sur - remainder,
        sum_lhs=var_a + var_b, sum_bound=0.5 * np.maximum(ss - sp * sp, 0.0),
        entropy_sum=_entropy_bits(_dot(axis_a, p)) + _entropy_bits(_dot(axis_b, p)),
        entropy_bound=np.log2(1.0 / complementarity),
    )
    shape = np.shape(product)
    fields = {k: np.broadcast_to(v, shape) for k, v in fields.items()}

    def ratio(lhs, bound, defined):
        return np.where(defined, lhs / np.where(defined, bound, 1.0), math.nan)

    eq19, sum_bound = fields["eq19_bound"], fields["sum_bound"]
    return fields, (
        ratio(product, eq19, (aa * bb >= sys.float_info.min) & (eq19 > BOUND_FLOOR * aa * bb)),
        ratio(fields["entropy_sum"], fields["entropy_bound"], complementarity < 1.0 - C_ONE_TOL),
        ratio(fields["sum_lhs"], sum_bound, sum_bound > BOUND_FLOOR * ss),
    )


def projection_layouts(rng, pure):
    """(state, A, B) inputs of every layout the projections meet: one row,
    a stack against one pair, a stack of triples, one A row beside B rows,
    an (n, 1, 3) stack against A rows, and one state against A rows."""
    n = int(rng.integers(1, 6))

    def states(k):
        return random_bloch_vectors(rng, k, "pure" if pure else "mixed")

    def obs(*lead):
        return rng.normal(size=(*lead, 4)) * rng.choice([1e-3, 1.0, 10.0])

    return [
        (states(1)[0], obs(), obs()),
        (states(n), obs(), obs()),
        (states(n), obs(n), obs(n)),
        (states(n), obs(), obs(n)),
        (states(n).reshape(n, 1, 3), obs(n + 1), obs()),
        (states(1)[0], obs(n), obs()),
    ]


class TestReport:
    def test_report_fields_consistent(self, rng):
        for _ in range(100):
            p, a, b = random_triple(rng, span=2.0)
            if min(np.linalg.norm(a[:3]), np.linalg.norm(b[:3])) < 1e-3:
                continue
            f = {k: float(v) for k, v in reports(p, a, b).items()}
            assert f["product"] == pytest.approx(f["varA"] * f["varB"], abs=1e-12)
            assert f["product"] >= f["rur_bound"] - 1e-10
            assert f["product"] >= f["sur_bound"] - 1e-10
            assert f["product"] >= f["eq19_bound"] - 1e-10
            assert abs(f["equality_residual"]) <= 1e-10
            assert f["sum_lhs"] >= f["sum_bound"] - 1e-10
            assert f["entropy_sum"] >= f["entropy_bound"] - 1e-10

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared_pair", "pair_per_row"])
    def test_stack_matches_one_row_calls(self, rng, per_row):
        # an (n, T, 3) stack keeps its leading shape in every field; each row
        # and its one-row call agree bit for bit, in field order
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


    def test_projection_bits(self):
        # every field and ratio has the bits of one _dot per projection, on
        # each layout and on pure states, as arrays and as checked rows
        rng = np.random.default_rng(1705)
        for case in range(100):
            for p, a, b in projection_layouts(rng, pure=case % 5 == 0):
                fields, want_ratios = reference_reports(p, a, b)
                for args in ((p, a, b), (p, core._observable_row(a.tolist()) if a.ndim == 1 else a,
                                         core._observable_row(b.tolist()) if b.ndim == 1 else b)):
                    got = reports(*args)
                    assert list(got) == list(fields)
                    for key, value in got.items():
                        assert value.shape == fields[key].shape, key
                        assert value.tobytes() == fields[key].tobytes(), key
                    for value, want in zip(ratios(*args), want_ratios):
                        assert value.shape == want.shape
                        assert value.tobytes() == want.tobytes()

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


def dense_fields(p, a, b):
    """The fields of reports, but for the ones its others combine, and the
    mixedness, from dense matrices, on the broadcast rows of p, a and b."""
    lead = np.broadcast_shapes(np.shape(p)[:-1], np.shape(a)[:-1], np.shape(b)[:-1])
    p, a, b = (np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1])
               for x in map(np.asarray, (p, a, b)))
    rows = []
    for p_i, a_i, b_i in zip(p, a, b):
        rho, a_mat, b_mat = oracle_state(*p_i), oracle_obs(*a_i), oracle_obs(*b_i)
        comm = oracle_commutator_term(rho, a_mat, b_mat)
        gram = oracle_xi(a_mat, a_mat) * oracle_xi(b_mat, b_mat) - oracle_xi(a_mat, b_mat) ** 2
        mixedness = 1.0 - np.trace(rho @ rho).real
        rows.append((
            oracle_variance(rho, a_mat), oracle_variance(rho, b_mat), comm,
            comm + oracle_anticommutator_term(rho, a_mat, b_mat), mixedness * gram / 8.0,
            0.5 * oracle_variance(rho, a_mat + b_mat), *oracle_entropies(rho, a_mat, b_mat),
            mixedness,
        ))
    keys = ("varA", "varB", "rur_bound", "sur_bound", "remainder", "sum_bound", "entropy_sum",
            "entropy_bound", "mixedness")
    return {key: np.reshape(column, lead) for key, column in zip(keys, zip(*rows))}


class TestOneCheckPerCall:
    """reports, mixedness_estimates and ratios check the state once and read
    every field from shared projections; the fields are the one-quantity
    forms the dense oracles give."""

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
        expected = dense_fields(p, a, b)
        for key in ("varA", "varB", "rur_bound", "sur_bound", "remainder", "sum_bound",
                    "entropy_sum", "entropy_bound"):
            assert fields[key].shape == expected[key].shape, key
            np.testing.assert_allclose(fields[key], expected[key], rtol=0, atol=1e-12,
                                       err_msg=key)
        np.testing.assert_allclose(mixedness_estimates(p, a, b), expected["mixedness"],
                                   rtol=0, atol=1e-12)

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
    (mixedness_values, "p"), (core.xi_values, "a b"), (core.symmetrized_products, "a b"),
    (gram_determinants, "a b"), (high_outcome_probabilities, "p a"),
    (mixedness_estimates, "p a b"), (reports, "p a b"), (ratios, "p a b"),
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


def _one_rows(stack, i):
    """Row i of stacked inputs as _one_row gives it and, where the row
    checks accept it, with p, a and b as the checked rows the CLI passes."""
    row = _one_row(stack, i)
    forms = [row]
    try:
        forms.append(dict(row, p=core._state_row(row["p"]), a=core._observable_row(row["a"]),
                          b=core._observable_row(row["b"])))
    except InvalidArgument:
        pass
    return forms


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
            forms = _one_rows(random_rows, i)
            assert len(forms) == 2
            for inputs in forms:
                one = _outcome(fn, args, inputs)
                assert [_bits(v) for v in one] == [_bits(v[i]) for v in stacked]
        for name, edge in EDGE_ROWS.items():  # at the head of a stack with a random row
            edge_rows = _stacked([edge, rows[0]])
            stacked = _outcome(fn, args, edge_rows)
            for inputs in _one_rows(edge_rows, 0):
                one = _outcome(fn, args, inputs)
                if isinstance(stacked, tuple):  # refused: same type, same message
                    assert one == stacked, name
                else:
                    assert [_bits(v) for v in one] == [_bits(v[0]) for v in stacked], name

    def test_checked_rows_are_marked(self):
        # the row checks build a _Row; one of the wrong width takes the
        # unchecked route and its refusal
        state, obs = core._state_row(np.array([0.1, 0.2, 0.3])), core._observable_row([1, 0, 0, 2])
        assert type(state) is type(obs) is core._Row
        assert all(type(v) is float for v in (*state, *obs))
        with pytest.raises(
            InvalidArgument, match=re.escape("rows of 4 components expected, got shape (3,)")
        ):
            high_outcome_probabilities(state, state)
