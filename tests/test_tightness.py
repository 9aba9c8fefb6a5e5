"""Tightness ratios, the closed-form ti1 expressions and grid sweeps."""

import importlib.util
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ORIGIN, Z_POLE, I, X, Y, Z, bloch_vectors, observables
from qubitvar import relations
from qubitvar.core import OBS_X, OBS_Z, PauliObservable, random_bloch_vectors
from qubitvar.errors import DegenerateSpectrum, InvalidArgument
from qubitvar.feedback import analytic_bloch
from qubitvar.tightness import (
    GridAxis,
    SweepGrid,
    count_ordering_violations,
    fig2_grid,
    fig3_grid,
    ratios,
    sweep,
    ti1_analytic_alpha_pi4,
    ti1_analytic_lambda1,
)



class TestRatios:
    def test_ti1_examples(self):
        assert ratios(ORIGIN, X, Z)[0] == pytest.approx(1.0, abs=1e-12)
        # vanishing covariance with a positive bound saturates ti1
        assert ratios([0.0, 0.0, 0.5], X, Z)[0] == pytest.approx(1.0, abs=1e-12)

    def test_ti1_undefined_when_bound_vanishes(self):
        # pure eigenstate of B with commuting-free pair: bound = 0
        assert math.isnan(ratios(Z_POLE, Z, X)[0])

    def test_ti1_matches_closed_form_on_feedback_state(self):
        p = analytic_bloch(math.pi / 4, 1.0, 1.0)
        assert ratios(p, X, Z)[0] == pytest.approx(
            ti1_analytic_lambda1(math.pi / 4, 1.0), abs=1e-9
        )

    def test_ti2_examples(self):
        assert ratios(ORIGIN, X, Z)[1] == pytest.approx(2.0, abs=1e-12)
        assert ratios(Z_POLE, X, Z)[1] == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(ratios(ORIGIN, Z, Z + I)[1])

    def test_ti3_examples(self):
        assert ratios(ORIGIN, X, Z)[2] == pytest.approx(2.0, abs=1e-12)
        assert ratios(Z_POLE, X, Y)[2] == pytest.approx(2.0, abs=1e-12)
        obs = [0.8, -0.1, 0.4, 1.2]
        assert ratios([0.2, 0.3, -0.1], obs, obs)[2] == pytest.approx(1.0, abs=1e-12)

    def test_ti1_scale_and_shift_invariance(self, rng):
        for _ in range(500):
            p = random_bloch_vectors(rng, 1)[0]
            a = rng.uniform(-3, 3, 4)
            b = rng.uniform(-3, 3, 4)
            base = ratios(p, a, b)[0]
            if math.isnan(base):
                continue
            scale = float(rng.uniform(0.3, 2.5)) * float(rng.choice([-1.0, 1.0]))
            shift = float(rng.uniform(-4, 4))
            assert ratios(p, scale * a, b)[0] == pytest.approx(base, rel=1e-10, abs=1e-10)
            assert ratios(p, a + shift * I, b)[0] == pytest.approx(base, rel=1e-10, abs=1e-10)


def same_ratio(one, stacked) -> bool:
    """Both undefined, or equal up to an ulp (SIMD and scalar libm paths may differ)."""
    if math.isnan(one):
        return math.isnan(stacked)
    return stacked == pytest.approx(one, rel=1e-12, abs=0)


class TestArrayRatios:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(bloch_vectors(), min_size=1, max_size=12), observables(), observables())
    def test_batch_equals_scalar_point_by_point(self, vectors, obs_a, obs_b):
        # one row through ratios() equals that row of the stacked call
        p = np.array([v.as_array() for v in vectors])
        a, b = obs_a.coeffs, obs_b.coeffs
        try:
            batch = ratios(p, a, b)
        except DegenerateSpectrum:
            with pytest.raises(DegenerateSpectrum):
                ratios(p[0], a, b)
            return
        for i in range(len(vectors)):
            for one, values in zip(ratios(p[i], a, b), batch):
                assert one.shape == ()
                assert same_ratio(one, values[i])

    def test_stack_of_trajectories_keeps_its_shape(self, rng):
        # (n, T, 3) Bloch stacks give (n, T) ratios, bit for bit the flat call
        bloch = analytic_bloch([0.3, 0.3, 1.1, 1.1], [0.0, 0.5, 0.0, 0.5], np.linspace(0.0, 3.0, 7))
        a, b = rng.uniform(-2, 2, size=(2, 4))
        flat = ratios(bloch.reshape(-1, 3), a, b)
        for stacked, one in zip(ratios(bloch, a, b), flat):
            assert stacked.shape == (4, 7)
            assert np.array_equal(stacked, one.reshape(4, 7), equal_nan=True)

    def test_per_row_observables_broadcast(self, rng):
        p = random_bloch_vectors(rng, 20)
        a = rng.uniform(-2, 2, size=(20, 4))
        b = rng.uniform(-2, 2, size=(20, 4))
        batch = np.column_stack(ratios(p, a, b))
        for i in range(20):
            row = ratios(p[i], a[i], b[i])
            assert all(same_ratio(one, stacked) for one, stacked in zip(row, batch[i]))

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_a_row_against_b_rows(self, n):
        # the ti3 floor reads |a + b|^2 of each row's own pair; with 4 rows a
        # component-major sum would pair the wrong components
        p = np.array([[0.3, 0.1, -0.2], [0.0, 0.0, 0.5], [0.1, 0.6, 0.2], [-0.4, 0.2, 0.1]])[:n]
        b = np.array([Z, -X + 1e-7 * Y, 2 * Z, Z + I])[:n]
        batch = np.array(ratios(p, X, b))
        rows = np.array([ratios(p[i], X, b[i]) for i in range(n)]).T
        assert np.array_equal(batch, rows, equal_nan=True)
        assert batch[2, 1] > 1e14

    def test_observables_normalised_once_per_use(self, monkeypatch):
        # the entropies, the complementarity and the ti2 mask all read one
        # normalisation of each observable
        calls = []

        def counting(a):
            calls.append(a)
            return axes(a)

        axes = relations._axes
        monkeypatch.setattr(relations, "_axes", counting)
        ratios(random_bloch_vectors(np.random.default_rng(5), 4), X, Z)
        assert len(calls) == 2

    def test_definedness_is_unit_free(self):
        # a vanishing bound is judged in the bound's own units, so scaling both
        # observables leaves every ratio (and whether it is defined) unchanged
        p = [0.2, 0.3, -0.1]
        base = ratios(p, X, Z)
        assert not np.isnan(base).any()
        assert base[0] == pytest.approx(1.000421, abs=1e-6)
        for scale in (1e-3, 1e-7):
            scaled = ratios(p, scale * X, scale * Z)
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
        pipeline = ratios(analytic_bloch(math.pi / 4, 1.0, 20.0), X, Z)[0]
        assert ti1_analytic_alpha_pi4(1.0, 20.0) == pytest.approx(pipeline, abs=1e-9)

    def test_large_t_matches_pipeline(self):
        # the published forms overflow exp(7t) beyond t ~ 101
        ts = [30.0, 110.0, 200.0]
        for alpha, closed_form in (
            (0.3, partial(ti1_analytic_lambda1, 0.3)),
            (math.pi / 4, partial(ti1_analytic_alpha_pi4, 1.0)),
        ):
            bloch = analytic_bloch(alpha, 1.0, ts)
            pipeline = ratios(bloch, X, Z)[0]
            assert [closed_form(t) for t in ts] == pytest.approx(pipeline, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(InvalidArgument, match="t must be > 0, got 0.0"):
            ti1_analytic_lambda1(0.5, 0.0)
        with pytest.raises(InvalidArgument, match="t must be > 0, got -1.0"):
            ti1_analytic_alpha_pi4(0.5, -1.0)
        with pytest.raises(InvalidArgument, match="lam must be > 0, got 0.0"):
            ti1_analytic_alpha_pi4(0.0, 1.0)
        with pytest.raises(InvalidArgument, match=r"lam = 1e\+200 overflows the decay rate"):
            ti1_analytic_alpha_pi4(1e200, 1.0)
        with pytest.raises(InvalidArgument, match=r"alpha = 1e\+308 overflows the angle 2 alpha"):
            ti1_analytic_lambda1(1e308, 1.0)
        # non-finite input is rejected before the domain checks
        for args in ((0.3, math.nan), (math.nan, 1.0), (0.3, math.inf), (0.3, -math.inf)):
            with pytest.raises(InvalidArgument, match="alpha and t must be finite"):
                ti1_analytic_lambda1(*args)
        for args in ((0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.5, math.inf)):
            with pytest.raises(InvalidArgument, match="lam and t must be finite"):
                ti1_analytic_alpha_pi4(*args)


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
        with pytest.raises(InvalidArgument, match=r"axis ends must be finite, got \[0.0, inf\]"):
            GridAxis(0.0, math.inf, 10)

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
        table = sweep(grid, source="analytic")
        assert table.shape == (2, 6)
        assert table[:, 2].tolist() == [1.0, 2.0]
        assert np.array_equal(table, sweep(grid, source="analytic"), equal_nan=True)

    def test_row_major_ordering(self):
        grid = SweepGrid(
            alpha_axis=GridAxis(0.3, 0.9, 2),
            lambda_axis=GridAxis(1.0, 1.0, 1),
            t_axis=GridAxis(1.0, 2.0, 2),
        )
        table = sweep(grid, source="analytic")
        assert table[:, :3].tolist() == [
            [0.3, 1.0, 1.0],
            [0.3, 1.0, 2.0],
            [0.9, 1.0, 1.0],
            [0.9, 1.0, 2.0],
        ]

    def test_numeric_source_agrees_with_analytic(self):
        grid = SweepGrid(
            alpha_axis=GridAxis(0.4, 1.2, 3),
            lambda_axis=GridAxis(0.5, 1.0, 2),
            t_axis=GridAxis(0.0, 1.5, 3, include_lo=False),
        )
        exact = sweep(grid, source="analytic")
        numeric = sweep(grid, source="numeric", h=1e-3)
        assert np.array_equal(numeric[:, :3], exact[:, :3])
        assert numeric[:, 3:] == pytest.approx(exact[:, 3:], abs=1e-6, nan_ok=True)

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            sweep(fig2_grid(steps=2), source="magic")

    def test_fig3_ti1_defined_and_above_one(self):
        ti1 = sweep(fig3_grid(steps=12), source="analytic")[:, 3]
        assert len(ti1) == 144
        assert not np.isnan(ti1).any()
        assert (ti1 >= 1.0 - 1e-9).all()

    def test_violation_counter_matches_recount(self):
        table = sweep(fig2_grid(steps=12), source="analytic")
        counts = count_ordering_violations(table)
        defined = [row for row in table.tolist() if not any(map(math.isnan, row[3:]))]
        assert counts["ti1_gt_ti2"] == sum(1 for row in defined if row[3] > row[4] + 1e-9)
        assert counts["ti1_gt_ti3"] == sum(1 for row in defined if row[3] > row[5] + 1e-9)
        assert counts["points_all_defined"] == len(defined)
        assert all(type(v) is int for v in counts.values())

    @pytest.mark.parametrize("source", ["analytic", "numeric"])
    @pytest.mark.parametrize(
        "obs_a, obs_b, defined",
        [
            # commuting, shared axis
            (OBS_Z, PauliObservable(0.0, 0.0, 1.0, 1.0), (False, False, True)),
            # B = -A: A + B = 0
            (OBS_X, PauliObservable(-1.0, 0.0, 0.0, 0.0), (False, False, False)),
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
        table = sweep(grid, source=source, h=1e-2)
        assert table.shape == (18, 6)
        assert (~np.isnan(table[:, 3:]) == defined).all()
        # the grid path agrees with the per-point ratios
        for alpha, lam, t, *got in sweep(grid, source="analytic")[:6].tolist():
            bloch = analytic_bloch(alpha, lam, t)
            want = [float(r) for r in ratios(bloch, obs_a.coeffs, obs_b.coeffs)]
            assert got == pytest.approx(want, rel=1e-12, nan_ok=True)

    def test_undefined_points_marked_not_raised(self):
        # commuting pair: ti2 undefined everywhere, sweep still completes
        grid = SweepGrid(
            alpha_axis=GridAxis(0.5, 0.5, 1),
            lambda_axis=GridAxis(1.0, 1.0, 1),
            t_axis=GridAxis(1.0, 2.0, 2),
            obs_a=OBS_Z,
            obs_b=PauliObservable(0.0, 0.0, 1.0, 1.0),
        )
        table = sweep(grid, source="analytic")
        assert np.isnan(table[:, 4]).all()
        assert not np.isnan(table[:, 5]).any()


@pytest.mark.parametrize("name", ["reproduce_fig2", "reproduce_fig3"])
def test_figure_script_writes_paper_grid(name, monkeypatch, tmp_path):
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", tmp_path)
    assert script.run() == 0
    (csv,) = tmp_path.glob("*.csv")
    assert len(csv.read_text().splitlines()) == 2501
    assert csv.with_suffix(".meta.json").is_file()
