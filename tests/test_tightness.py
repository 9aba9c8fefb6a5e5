"""Tightness ratios, the closed-form ti1 expressions and grid sweeps."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bloch_vectors, observables
from qubitvar.core import (
    BlochVector,
    OBS_I,
    OBS_X,
    OBS_Y,
    OBS_Z,
    PauliObservable,
    QubitState,
    random_bloch_vectors,
)
from qubitvar.errors import DegenerateSpectrum, NonFiniteInput, NonPositiveLambda, NonPositiveTime
from qubitvar.feedback import FeedbackParams, analytic_bloch, analytic_state
from qubitvar.tightness import (
    GridAxis,
    SweepGrid,
    count_ordering_violations,
    fig2_grid,
    fig3_grid,
    ratios,
    sweep,
    ti1,
    ti1_analytic_alpha_pi4,
    ti1_analytic_lambda1,
    ti2,
    ti3,
)

MAXMIXED = QubitState(BlochVector(0.0, 0.0, 0.0))
GROUND = QubitState(BlochVector(0.0, 0.0, 1.0))


class TestRatios:
    def test_ti1_examples(self):
        assert ti1(MAXMIXED, OBS_X, OBS_Z) == pytest.approx(1.0, abs=1e-12)
        # vanishing covariance with a positive bound saturates ti1
        state = QubitState(BlochVector(0.0, 0.0, 0.5))
        assert ti1(state, OBS_X, OBS_Z) == pytest.approx(1.0, abs=1e-12)

    def test_ti1_undefined_when_bound_vanishes(self):
        # pure eigenstate of B with commuting-free pair: bound = 0
        assert ti1(GROUND, OBS_Z, OBS_X) is None

    def test_ti1_matches_closed_form_on_feedback_state(self):
        state = analytic_state(FeedbackParams(alpha=math.pi / 4, lam=1.0), 1.0)
        assert ti1(state, OBS_X, OBS_Z) == pytest.approx(
            ti1_analytic_lambda1(math.pi / 4, 1.0), abs=1e-9
        )

    def test_ti2_examples(self):
        assert ti2(MAXMIXED, OBS_X, OBS_Z) == pytest.approx(2.0, abs=1e-12)
        assert ti2(GROUND, OBS_X, OBS_Z) == pytest.approx(1.0, abs=1e-12)
        assert ti2(MAXMIXED, OBS_Z, OBS_Z + OBS_I) is None

    def test_ti3_examples(self):
        assert ti3(MAXMIXED, OBS_X, OBS_Z) == pytest.approx(2.0, abs=1e-12)
        assert ti3(GROUND, OBS_X, OBS_Y) == pytest.approx(2.0, abs=1e-12)
        obs = PauliObservable(0.8, -0.1, 0.4, 1.2)
        state = QubitState(BlochVector(0.2, 0.3, -0.1))
        assert ti3(state, obs, obs) == pytest.approx(1.0, abs=1e-12)

    def test_ti1_scale_and_shift_invariance(self, rng):
        for _ in range(500):
            p = random_bloch_vectors(rng, 1)[0]
            state = QubitState(BlochVector(*map(float, p)))
            obs_a = PauliObservable(*rng.uniform(-3, 3, 4))
            obs_b = PauliObservable(*rng.uniform(-3, 3, 4))
            base = ti1(state, obs_a, obs_b)
            if base is None:
                continue
            scale = float(rng.uniform(0.3, 2.5)) * float(rng.choice([-1.0, 1.0]))
            shift = float(rng.uniform(-4, 4))
            assert ti1(state, scale * obs_a, obs_b) == pytest.approx(
                base, rel=1e-10, abs=1e-10
            )
            assert ti1(state, obs_a + shift * OBS_I, obs_b) == pytest.approx(
                base, rel=1e-10, abs=1e-10
            )


class TestArrayRatios:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(bloch_vectors(), min_size=1, max_size=12), observables(), observables())
    def test_batch_equals_scalar_point_by_point(self, vectors, obs_a, obs_b):
        p = np.array([v.as_array() for v in vectors])
        scalar = (ti1, ti2, ti3)
        try:
            batch = ratios(p, obs_a.coeffs, obs_b.coeffs)
        except DegenerateSpectrum:
            with pytest.raises(DegenerateSpectrum):
                ti2(QubitState(vectors[0]), obs_a, obs_b)
            return
        for i, vector in enumerate(vectors):
            state = QubitState(vector)
            for fn, values in zip(scalar, batch):
                expected = fn(state, obs_a, obs_b)
                if expected is None:
                    assert math.isnan(values[i])
                else:
                    # same operations; SIMD and scalar libm paths may differ by an ulp
                    assert values[i] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_per_row_observables_broadcast(self, rng):
        p = random_bloch_vectors(rng, 20)
        a = rng.uniform(-2, 2, size=(20, 4))
        b = rng.uniform(-2, 2, size=(20, 4))
        batch = np.column_stack(ratios(p, a, b))
        for i in range(20):
            state = QubitState(BlochVector(*map(float, p[i])))
            obs_a, obs_b = PauliObservable(*a[i]), PauliObservable(*b[i])
            row = [ti1(state, obs_a, obs_b), ti2(state, obs_a, obs_b), ti3(state, obs_a, obs_b)]
            assert batch[i].tolist() == pytest.approx(row, rel=1e-12, abs=0)

    def test_definedness_is_unit_free(self):
        # a vanishing bound is judged in the bound's own units, so scaling both
        # observables leaves every ratio (and whether it is defined) unchanged
        state = QubitState(BlochVector(0.2, 0.3, -0.1))
        base = [fn(state, OBS_X, OBS_Z) for fn in (ti1, ti2, ti3)]
        assert None not in base
        assert base[0] == pytest.approx(1.000421, abs=1e-6)
        for scale in (1e-3, 1e-7):
            scaled = [fn(state, scale * OBS_X, scale * OBS_Z) for fn in (ti1, ti2, ti3)]
            for value, want in zip(scaled, base):
                assert value == pytest.approx(want, rel=1e-10, abs=0)


class TestClosedFormExpressions:
    def test_lambda1_trivial_angles(self):
        for t in (0.2, 1.0, 2.5):
            assert ti1_analytic_lambda1(0.0, t) == pytest.approx(1.0, abs=1e-12)
            assert ti1_analytic_lambda1(math.pi / 2, t) == pytest.approx(1.0, abs=1e-12)

    def test_lambda1_long_time_plateau(self):
        for alpha in (0.4, 1.0, 2.0):
            assert abs(ti1_analytic_lambda1(alpha, 20.0) - 1.0) < 1e-4

    def test_formulas_agree_at_shared_point(self):
        assert ti1_analytic_lambda1(math.pi / 4, 1.0) == pytest.approx(
            ti1_analytic_alpha_pi4(1.0, 1.0), abs=1e-9
        )

    def test_alpha_pi4_short_time_limit(self):
        for lam in (0.2, 0.6, 1.0):
            assert abs(ti1_analytic_alpha_pi4(lam, 1e-6) - 1.0) < 1e-3

    def test_alpha_pi4_long_time_matches_pipeline(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        pipeline = ti1(analytic_state(params, 20.0), OBS_X, OBS_Z)
        assert ti1_analytic_alpha_pi4(1.0, 20.0) == pytest.approx(pipeline, abs=1e-9)

    def test_large_t_matches_pipeline(self):
        # the published forms overflow exp(7t) beyond t ~ 101
        ts = [30.0, 110.0, 200.0]
        for alpha, closed_form in (
            (0.3, partial(ti1_analytic_lambda1, 0.3)),
            (math.pi / 4, partial(ti1_analytic_alpha_pi4, 1.0)),
        ):
            bloch = analytic_bloch(FeedbackParams(alpha=alpha, lam=1.0), ts)
            pipeline = ratios(bloch, OBS_X.coeffs, OBS_Z.coeffs)[0]
            assert [closed_form(t) for t in ts] == pytest.approx(pipeline, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(NonPositiveTime):
            ti1_analytic_lambda1(0.5, 0.0)
        with pytest.raises(NonPositiveTime):
            ti1_analytic_alpha_pi4(0.5, -1.0)
        with pytest.raises(NonPositiveLambda):
            ti1_analytic_alpha_pi4(0.0, 1.0)
        with pytest.raises(NonFiniteInput):
            ti1_analytic_alpha_pi4(1e200, 1.0)


class TestGrid:
    def test_axis_values_open_endpoints(self):
        axis = GridAxis(0.0, 3.0, 50, include_lo=False)
        values = axis.values()
        assert len(values) == 50
        assert values[0] == pytest.approx(0.06)
        assert values[-1] == 3.0

    def test_axis_pinned(self):
        axis = GridAxis(1.0, 1.0, 1)
        assert axis.values() == pytest.approx([1.0])

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            GridAxis(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridAxis(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridAxis(0.0, 1.0, 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(
                alpha_axis=GridAxis(0.1, 0.1, 1),
                lambda_axis=GridAxis(1.0, 1.0, 1),
                t_axis=GridAxis(-1.0, 1.0, 5),
            )

    def test_fig_presets(self):
        grid = fig2_grid(steps=50)
        assert len(grid.alpha_axis.values()) == 50
        assert grid.lambda_axis.values() == pytest.approx([1.0])
        assert grid.t_axis.values()[0] > 0
        grid = fig3_grid(steps=50)
        assert grid.alpha_axis.values() == pytest.approx([math.pi / 4])
        assert grid.lambda_axis.values()[0] == pytest.approx(0.02)


class TestSweep:
    def test_degenerate_direction_grid(self):
        grid = SweepGrid(
            alpha_axis=GridAxis(0.5, 0.5, 1),
            lambda_axis=GridAxis(1.0, 1.0, 1),
            t_axis=GridAxis(1.0, 2.0, 2),
        )
        points = sweep(grid, source="analytic")
        assert len(points) == 2
        assert [p.t for p in points] == [1.0, 2.0]
        assert points == sweep(grid, source="analytic")

    def test_row_major_ordering(self):
        grid = SweepGrid(
            alpha_axis=GridAxis(0.3, 0.9, 2),
            lambda_axis=GridAxis(1.0, 1.0, 1),
            t_axis=GridAxis(1.0, 2.0, 2),
        )
        points = sweep(grid, source="analytic")
        assert [(p.alpha, p.t) for p in points] == [
            (0.3, 1.0),
            (0.3, 2.0),
            (0.9, 1.0),
            (0.9, 2.0),
        ]

    def test_numeric_source_agrees_with_analytic(self):
        grid = SweepGrid(
            alpha_axis=GridAxis(0.4, 1.2, 3),
            lambda_axis=GridAxis(0.5, 1.0, 2),
            t_axis=GridAxis(0.0, 1.5, 3, include_lo=False),
        )
        exact = sweep(grid, source="analytic")
        numeric = sweep(grid, source="numeric", h=1e-3)
        for a, b in zip(exact, numeric):
            assert b.ti1 == pytest.approx(a.ti1, abs=1e-6)
            assert b.ti2 == pytest.approx(a.ti2, abs=1e-6)
            assert b.ti3 == pytest.approx(a.ti3, abs=1e-6)

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            sweep(fig2_grid(steps=2), source="magic")

    def test_fig3_ti1_defined_and_above_one(self):
        points = sweep(fig3_grid(steps=12), source="analytic")
        assert len(points) == 144
        for p in points:
            assert p.ti1 is not None
            assert p.ti1 >= 1.0 - 1e-9

    def test_violation_counter_matches_recount(self):
        points = sweep(fig2_grid(steps=12), source="analytic")
        counts = count_ordering_violations(points)
        manual2 = sum(
            1
            for p in points
            if None not in (p.ti1, p.ti2, p.ti3) and p.ti1 > p.ti2 + 1e-9
        )
        manual3 = sum(
            1
            for p in points
            if None not in (p.ti1, p.ti2, p.ti3) and p.ti1 > p.ti3 + 1e-9
        )
        assert counts["ti1_gt_ti2"] == manual2
        assert counts["ti1_gt_ti3"] == manual3
        assert counts["points_all_defined"] == sum(
            1 for p in points if None not in (p.ti1, p.ti2, p.ti3)
        )

    @pytest.mark.parametrize("source", ["analytic", "numeric"])
    @pytest.mark.parametrize(
        "obs_a, obs_b, defined",
        [
            (OBS_Z, OBS_Z + OBS_I, (False, False, True)),  # commuting, shared axis
            (OBS_X, -1.0 * OBS_X, (False, False, False)),  # B = -A: A + B = 0
        ],
    )
    def test_shared_axis_cells_stay_undefined(self, source, obs_a, obs_b, defined):
        grid = SweepGrid(
            alpha_axis=GridAxis(0.3, 1.2, 3),
            lambda_axis=GridAxis(0.5, 1.0, 2),
            t_axis=GridAxis(0.0, 1.0, 3, include_lo=False),
            obs_a=obs_a,
            obs_b=obs_b,
        )
        points = sweep(grid, source=source, h=1e-2)
        assert len(points) == 18
        for p in points:
            assert [v is not None for v in (p.ti1, p.ti2, p.ti3)] == list(defined)
        # the grid path agrees with the per-point ratios
        for p in sweep(grid, source="analytic")[:6]:
            state = analytic_state(FeedbackParams(alpha=p.alpha, lam=p.lam), p.t)
            for got, fn in zip((p.ti1, p.ti2, p.ti3), (ti1, ti2, ti3)):
                want = fn(state, obs_a, obs_b)
                assert got == (None if want is None else pytest.approx(want, rel=1e-12))

    def test_undefined_points_marked_not_raised(self):
        # commuting pair: ti2 undefined everywhere, sweep still completes
        grid = SweepGrid(
            alpha_axis=GridAxis(0.5, 0.5, 1),
            lambda_axis=GridAxis(1.0, 1.0, 1),
            t_axis=GridAxis(1.0, 2.0, 2),
            obs_a=OBS_Z,
            obs_b=OBS_Z + OBS_I,
        )
        points = sweep(grid, source="analytic")
        assert all(p.ti2 is None for p in points)
        assert all(p.ti3 is not None for p in points)
