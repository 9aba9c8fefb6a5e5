"""Feedback master equation, closed-form solution and RK4 integrator."""

import math
import re
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_rk4_matrices, oracle_state
from qubitvar import feedback
from qubitvar.core import density_matrices, mixedness_values
from qubitvar.errors import InvalidArgument, PositivityLost
from qubitvar.feedback import (
    analytic_bloch,
    evolve,
    generator,
    steady_state,
    step_times,
)


class TestMasterRhs:
    """The master equation's right-hand side in Bloch form, L(lam, omega) (p, 1)."""

    def test_steady_state_annihilated(self):
        for lam in (0.3, 1 / math.sqrt(2), 1.0):
            p_ss = steady_state(lam)
            assert np.abs(generator(lam, 0.0) @ np.append(p_ss, 1.0)).max() <= 1e-12

    def test_ground_state_fixed_point_of_pure_decay(self):
        assert not (generator(0.0, 0.0) @ [0.0, 0.0, 1.0, 1.0]).any()

    def test_maximally_mixed_pure_decay(self):
        # d rho/dt = (|0><0| - |1><1|)/2 = sz/2 from I/2
        assert (generator(0.0, 0.0) @ [0.0, 0.0, 0.0, 1.0]).tolist() == [0.0, 0.0, 1.0, 0.0]


class TestGenerator:
    def test_real_with_zero_last_row(self, rng):
        gen = generator(rng.uniform(0, 1, size=300), rng.uniform(0, 2, size=300))
        assert gen.shape == (300, 4, 4)
        assert gen.dtype == np.float64 and not gen[:, 3].any()

    def test_stacked_matches_scalar(self, rng):
        lam = rng.uniform(0, 3, size=50)
        omega = rng.uniform(0, 5, size=50)
        stacked = generator(lam, omega)
        for i in range(50):
            assert np.array_equal(stacked[i], generator(lam[i], omega[i]))
        assert generator(lam[0]).shape == (4, 4)
        assert np.array_equal(generator(lam)[7], generator(lam[7], 0.0))
        assert np.array_equal(generator(lam[:, None], omega)[3, 5], generator(lam[3], omega[5]))


class TestAnalyticSolution:
    def test_initial_values_match_prepared_superposition(self):
        # rho11(0) = sin^2(alpha), rho12(0) = sin(2 alpha)/2
        for alpha in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
            for lam in (0.0, 0.4, 1.0):
                px, py, pz = analytic_bloch(alpha, lam, 0.0)
                rho11 = 0.5 * (1.0 - pz)
                rho12 = 0.5 * (px + 1j * py)
                assert rho11 == pytest.approx(math.sin(alpha) ** 2, abs=1e-12)
                assert rho12 == pytest.approx(math.sin(2 * alpha) / 2, abs=1e-12)

    def test_long_time_limit_lambda_one(self):
        px, py, pz = analytic_bloch(math.pi / 4, 1.0, 40.0)
        assert 0.5 * (1.0 - pz) == pytest.approx(1 / 3, abs=1e-12)
        assert abs(px) + abs(py) <= 1e-8

    def test_alpha_zero_heats_toward_steady_population(self):
        # with feedback on, the ground state is not dark: the jump operator
        # s- - i lam sx pumps it at rate lam^2 toward lam^2/(1+2 lam^2)
        for lam in (0.3, 1.0):
            decay = 1.0 + 2.0 * lam**2
            for t in (0.0, 0.5, 2.0):
                want = lam**2 * (1.0 - math.exp(-t * decay)) / decay
                px, _, pz = analytic_bloch(0.0, lam, t)
                assert 0.5 * (1.0 - pz) == pytest.approx(want, abs=1e-12)
                assert px == pytest.approx(0.0, abs=1e-15)

    def test_alpha_zero_without_feedback_stays_ground(self):
        for t in (0.0, 1.0, 10.0):
            assert analytic_bloch(0.0, 0.0, t)[2] == pytest.approx(1.0, abs=1e-15)

    def test_lambda_zero_has_no_py(self):
        # the lam -> 0 limit of px expm1(-2 lam^2 t)/lam is taken exactly,
        # and py starts at an unsigned 0 for every lam
        alphas = [0.3, 1.2, 2.5]
        py = analytic_bloch(alphas, 0.0, np.linspace(0.0, 5.0, 11))[..., 1]
        assert not py.any() and not np.signbit(py).any()
        py = analytic_bloch(alphas, 0.7, 0.0)[:, 1]
        assert not py.any() and not np.signbit(py).any()

    def test_small_lambda_matches_integrator(self):
        # one expression for every lam: no switch to the lam -> 0 limit,
        # whose dropped term 2 lam t exp(-t/2) sin(2 alpha) is ~1e-6 here
        lams = [1e-7, 1e-6, 1.0001e-6, 1e-5]
        times = step_times(2.0, 1e-3)
        gap = analytic_bloch(0.6, lams, times) - evolve(0.6, lams, times, 1e-3)
        assert np.abs(gap).max() <= 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidArgument, match="t must be >= 0, got -0.1"):
            analytic_bloch(0.5, 0.5, -0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgument, match="t must be finite"):
                analytic_bloch(0.5, 0.5, bad)
            with pytest.raises(InvalidArgument, match="t must be finite"):
                analytic_bloch(0.5, 0.5, [0.5, bad])

    def test_analytic_bloch_vectorized_over_t(self):
        ts = np.linspace(0.0, 4.0, 9)
        stacked = analytic_bloch(0.9, 0.6, ts)
        assert stacked.shape == (9, 3)
        for t, row in zip(ts, stacked):
            assert row == pytest.approx(analytic_bloch(0.9, 0.6, float(t)), abs=1e-15)
        with pytest.raises(InvalidArgument, match="t must be >= 0, got -0.1"):
            analytic_bloch(0.9, 0.6, [0.5, -0.1])

    def test_stacked_rows_are_single_calls(self):
        # each cell of a broadcast (alpha, lam) grid carries the bits of its own call
        alphas = np.array([0.0, 0.4, 1.9, 3.0])
        lams = np.array([0.0, 1e-7, 0.3, 1.0, 2.5])
        for t in (np.linspace(0.0, 7.0, 29), np.array([[0.1, 2.0], [3.0, 0.0]]), 1.3, 0.0):
            stacked = analytic_bloch(alphas[:, None], lams[None, :], t)
            assert stacked.shape == (len(alphas), len(lams)) + np.shape(t) + (3,)
            for i, alpha in enumerate(alphas):
                for j, lam in enumerate(lams):
                    assert np.array_equal(stacked[i, j], analytic_bloch(alpha, lam, t))
            rows = analytic_bloch(np.repeat(alphas, len(lams)), np.tile(lams, len(alphas)), t)
            assert np.array_equal(rows, stacked.reshape(rows.shape))

    def test_overflowing_product_reaches_steady_state(self):
        # -g t overflows to -inf, whose exponentials are the right limits
        want = steady_state(1e150)
        assert analytic_bloch(0.3, 1e150, 1e10) == pytest.approx(want, abs=1e-15)

    def test_overflowing_decay_rate_rejected(self):
        # lam^2 or 2 alpha overflows: every entry point raises a typed error,
        # never OverflowError or a RuntimeWarning
        lam_overflow = r"lam = 1e\+200 overflows the decay rate"
        alpha_overflow = r"alpha = 1e\+308 overflows the angle 2 alpha"
        with np.errstate(all="raise"):
            with pytest.raises(InvalidArgument, match=lam_overflow):
                analytic_bloch(0.3, 1e200, 1.0)
            with pytest.raises(InvalidArgument, match=lam_overflow):
                analytic_bloch(0.3, [0.5, 1e200], [0.0, 1.0])
            with pytest.raises(InvalidArgument, match=lam_overflow):
                steady_state(1e200)
            with pytest.raises(InvalidArgument, match=lam_overflow):
                generator(1e200)
            with pytest.raises(InvalidArgument, match=lam_overflow):
                evolve(0.3, 1e200, [0.01], h=1e-3)
            with pytest.raises(InvalidArgument, match=alpha_overflow):
                analytic_bloch([0.3, 1e308], 0.5, 1.0)
            with pytest.raises(InvalidArgument, match="alpha = -1e\\+308 overflows"):
                evolve(-1e308, 0.5, [0.01], h=1e-3)

    def test_params_validation(self):
        # the same refusals through every public entry point
        entry_points = {
            "analytic_bloch": lambda a, lam, omega: analytic_bloch(a, lam, 1.0),
            "evolve": lambda a, lam, omega: evolve(a, lam, [0.01], 1e-3, omega),
            "generator": lambda a, lam, omega: generator(lam, omega),
            "steady_state": lambda a, lam, omega: steady_state(lam),
        }
        for name, call in entry_points.items():
            with pytest.raises(InvalidArgument, match="lam must be >= 0"):
                call(0.0, -0.1, 0.0)
            with pytest.raises(InvalidArgument, match="lam must be >= 0"):
                call(0.0, [0.5, -0.1], 0.0)
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidArgument, match="lam must be finite"):
                    call(0.0, bad, 0.0)
                if name in ("analytic_bloch", "evolve"):
                    with pytest.raises(InvalidArgument, match="alpha must be finite"):
                        call([0.3, bad], 0.0, 0.0)
                if name in ("evolve", "generator"):
                    with pytest.raises(InvalidArgument, match="omega must be finite"):
                        call(0.0, 0.0, bad)
            if name in ("evolve", "generator"):
                with pytest.raises(InvalidArgument, match="omega must be >= 0"):
                    call(0.0, 0.0, -1.0)


# (parameter, value, the exact message of its refusal)
PARAMETER_REFUSALS = [
    *[(name, bad, f"{name} must be finite, got {bad}")
      for name in ("alpha", "lam", "omega") for bad in (math.nan, math.inf, -math.inf)],
    ("lam", -1.0, "lam must be >= 0"),
    ("omega", -1.0, "omega must be >= 0"),
    ("alpha", 1e308, "alpha = 1e+308 overflows the angle 2 alpha"),
    ("lam", 1e200, "lam = 1e+200 overflows the decay rate 1 + 2 lam^2"),
    ("omega", 1e308, "omega = 1e+308 overflows the drive 2 omega"),
]

# every public entry point by the parameters it takes
PARAMETER_ENTRY_POINTS = [
    (("alpha", "lam", "omega"), lambda alpha, lam, omega: evolve(alpha, lam, [0.01], 1e-3, omega)),
    (("alpha", "lam"), lambda alpha, lam, omega: analytic_bloch(alpha, lam, 1.0)),
    (("lam", "omega"), lambda alpha, lam, omega: generator(lam, omega)),
    (("lam",), lambda alpha, lam, omega: steady_state(lam)),
]


class TestParameterRule:
    """One accept test per parameter set; the named refusals only when it fails."""

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("name, value, message", PARAMETER_REFUSALS)
    def test_refusal_messages(self, name, value, message, stacked):
        params = {"alpha": 0.3, "lam": 0.5, "omega": 0.0}
        params[name] = [params[name], value] if stacked else value
        for takes, call in PARAMETER_ENTRY_POINTS:
            if name not in takes:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidArgument) as refused:
                    call(**params)
            assert str(refused.value) == message

    def test_finite_set_with_overflowing_sum_accepted(self):
        # 2 alpha + 2 lam^2 (+ 2 omega) overflows while every term is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bloch = analytic_bloch(8e307, 9e153, [0.0, 1.0])
            gen = generator(9.2e153, 1e307)
            both = analytic_bloch([0.3, 8e307], [0.5, 9e153], 1.0)
        assert np.isfinite(bloch).all() and np.isfinite(gen).all()
        assert np.array_equal(both[1], bloch[1])
        assert np.array_equal(both[0], analytic_bloch(0.3, 0.5, 1.0))


def test_broadcast_parameters_match_flat_parameters():
    # (A, 1) x (1, L) parameters give the bits of the repeated and tiled flat sets
    alphas = np.array([0.0, 0.4, math.pi / 4, 2.9])
    lams = np.array([0.0, 1e-7, 0.3, 1.0, 2.5])
    flat = np.repeat(alphas, len(lams)), np.tile(lams, len(alphas))
    times = np.array([0.05, 0.2, 0.33, 0.7])
    for fn in (lambda a, lam: analytic_bloch(a, lam, times),
               lambda a, lam: evolve(a, lam, times, 1e-2)):
        broadcast = fn(alphas[:, None], lams[None, :])
        assert broadcast.shape == (len(alphas), len(lams), len(times), 3)
        assert broadcast.tobytes() == fn(*flat).tobytes()


class TestSteadyState:
    def test_examples(self):
        assert 0.5 * (1.0 - steady_state(1.0)[2]) == pytest.approx(1 / 3, abs=1e-15)
        assert 0.5 * (1.0 - steady_state(1 / math.sqrt(2))[2]) == pytest.approx(0.25, abs=1e-12)
        # lam = 0: pure decay, ground state returned (documented behaviour)
        assert steady_state(0.0).tolist() == [0.0, 0.0, 1.0]

    def test_stacked_cells_are_single_calls(self):
        lams = np.linspace(0.0, 2.0, 6).reshape(2, 3)
        fixed = steady_state(lams)
        assert fixed.shape == lams.shape + (3,)
        for idx in np.ndindex(lams.shape):
            assert np.array_equal(fixed[idx], steady_state(lams[idx]))

    def test_cross_checked_by_long_integration(self):
        lam = 1 / math.sqrt(2)
        pz = evolve(math.pi / 4, lam, step_times(20.0, 1e-2), 1e-2)[-1, 2]
        assert abs(pz - steady_state(lam)[2]) <= 1e-6
        assert 0.5 * (1.0 - pz) == pytest.approx(0.25, abs=1e-6)


class TestIntegrator:
    def test_matches_analytic_solution(self):
        times = step_times(5.0, 1e-3)
        exact = density_matrices(analytic_bloch(math.pi / 4, 1.0, times))
        numeric = density_matrices(evolve(math.pi / 4, 1.0, times, 1e-3))
        assert np.abs(numeric - exact).max() <= 1e-6

    def test_pure_exponential_decay(self):
        # lam = 0, initial excited state: rho11(t) = e^{-t}
        times = step_times(3.0, 1e-3)
        rho11 = 0.5 * (1.0 - evolve(math.pi / 2, 0.0, times, 1e-3)[:, 2])
        assert np.abs(rho11 - np.exp(-times)).max() <= 1e-9

    def test_trace_preserved_every_step(self):
        bloch = evolve(1.0, 0.7, step_times(2.0, 1e-3), 1e-3, omega=1.5)
        traces = np.einsum("nii->n", density_matrices(bloch)).real
        assert np.abs(traces - 1.0).max() <= 1e-9

    def test_starts_pure_and_stays_positive(self):
        for alpha in (0.0, 0.7, math.pi / 2):
            for lam in (0.0, 0.5, 1.0):
                bloch = evolve(alpha, lam, step_times(4.0, 5e-3), 5e-3)
                assert mixedness_values(bloch)[0] <= 1e-12
                norms = np.sqrt((bloch**2).sum(axis=1))
                assert ((norms - 1.0) / 2.0).max() <= 1e-8

    def test_step_validation(self):
        with pytest.raises(InvalidArgument, match="0 < h <= 0.01, got 0.02"):
            step_times(1.0, 0.02)
        with pytest.raises(InvalidArgument, match="0 < h <= 0.01, got 0.0"):
            step_times(1.0, 0.0)
        with pytest.raises(InvalidArgument, match="0 < h <= 0.01, got 0.02"):
            evolve(0.5, 0.5, [1.0], h=0.02)
        with pytest.raises(InvalidArgument, match="t_end must be > 0, got 0.0"):
            step_times(0.0, 1e-3)
        with pytest.raises(InvalidArgument, match="needs more than 1000000 steps"):
            step_times(1e12, 1e-3)
        with pytest.raises(InvalidArgument, match="needs more than 1000000 steps"):
            evolve(0.5, 0.5, [1.0, 1e12])

    def test_positivity_lost_on_unresolved_step(self):
        # a drive far above the step's stability limit blows the state out
        # of the Bloch ball and must be reported, not silently stored
        with pytest.raises(PositivityLost):
            evolve(0.3, 1.0, step_times(1.0, 1e-2), 1e-2, omega=300.0)

    def test_positivity_lost_on_non_finite_state(self):
        # an overflowing drive carries the step, and the state, to NaN; the
        # NaN state must be reported rather than stored (NaN > 1 is False)
        with pytest.raises(PositivityLost, match="t = 0.001"):
            evolve(0.3, 1.0, step_times(0.01, 1e-3), 1e-3, omega=1e300)
        with pytest.raises(PositivityLost):
            evolve(0.3, 1.0, [0.01], h=1e-3, omega=1e300)
        # in a stack, the message names the set that left the ball
        with pytest.raises(PositivityLost, match=r"t = 0\.001 for .* = \(0\.3, 1\.0, 1e\+300\)"):
            evolve(0.3, 1.0, step_times(0.05, 1e-3), h=1e-3, omega=[0.0, 1e300])

    def test_positivity_lost_stops_stepping(self, monkeypatch):
        # the first stored row (t = 0.01) is already outside the ball: the run
        # stops at its first check rather than stepping 1000 intervals on inf/NaN
        checked = []

        def counting(p):
            checked.append(p.shape[-1])
            return outside_ball(p)

        outside_ball = feedback._outside_ball
        monkeypatch.setattr(feedback, "_outside_ball", counting)
        times = step_times(10.0, 1e-2)
        with pytest.raises(PositivityLost, match=r"at t = 0\.01$"):
            evolve(0.3, 1.0, times, 1e-2, omega=300.0)
        assert sum(checked) < len(times) // 2

    def test_positivity_lost_names_earliest_time_across_sets(self):
        # the first set leaves the ball at t = 0.015, the second already at
        # t = 0.001: the error reports the earlier time and the set it hit
        alpha, lam, omega = [math.pi / 4, 0.3], [0.0, 1.0], [1500.0, 1450.0]
        with pytest.raises(PositivityLost, match=r"t = 0\.015$"):
            evolve(alpha[0], lam[0], step_times(0.05, 1e-3), h=1e-3, omega=omega[0])
        with pytest.raises(PositivityLost, match=r"t = 0\.001 for .* = \(0\.3, 1\.0, 1450\.0\)"):
            evolve(alpha, lam, step_times(0.05, 1e-3), h=1e-3, omega=omega)
        # a drive just above the stability limit leaves the ball at t = 0.132,
        # past the first _CHECK_BLOCK stored rows
        with pytest.raises(PositivityLost, match=r"t = 0\.132 for .* = \(0\.785.*, 0\.0, 1425\.0\)"):
            evolve(alpha[::-1], lam[::-1], step_times(2.0, 1e-3), h=1e-3, omega=[1400.0, 1425.0])

    def test_non_finite_times_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidArgument, match="t_end must be finite"):
                step_times(bad, 1e-3)
            with pytest.raises(InvalidArgument, match="sample_times must be finite"):
                evolve(0.5, 0.5, [0.1, bad], h=1e-3)

    def test_times_not_one_dimensional_rejected(self):
        # refused before the other time checks, which would compare arrays
        for bad, shape in (([[0.1, 0.2]], "(1, 2)"), (0.1, "()"), ([[-1.0]], "(1, 1)")):
            message = f"sample_times must be 1-D, got shape {shape}"
            with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
                evolve(0.3, 0.5, bad, h=1e-3)

    def test_driven_matches_dense_oracle(self):
        # omega > 0 has no closed form; the dense RK4 is the reference
        for alpha, lam, omega, t_end in (
            (0.3, 1.0, 1.5, 1.0),
            (0.0, 0.0, 2.0, 0.5),
            (1.2, 0.4, 0.7, 0.7005),
        ):
            bloch = evolve(alpha, lam, step_times(t_end, 1e-3), 1e-3, omega)
            want = oracle_rk4_matrices(alpha, lam, omega, t_end, 1e-3)
            assert np.abs(density_matrices(bloch) - want).max() <= 1e-12

    def test_omega_drive_supported_numerically(self):
        # Rabi drive moves population out of the ground state
        pz = evolve(0.0, 0.0, step_times(1.0, 1e-3), 1e-3, omega=2.0)[:, 2]
        assert (0.5 * (1.0 - pz)).max() > 0.1

    def test_step_grid_handles_non_multiple_end(self):
        times = step_times(0.0035, 1e-3)
        assert times == pytest.approx([0.0, 0.001, 0.002, 0.003, 0.0035])
        times = step_times(5.0, 1e-3)
        assert len(times) == 5001
        assert times[-1] == 5.0

    def test_evolve_matches_analytic_on_arbitrary_grid(self):
        grid = np.array([0.013, 0.4, 1.1, 2.07])
        sampled = evolve(0.9, 0.6, grid, h=1e-3)
        assert sampled.shape == (4, 3)
        exact = density_matrices(analytic_bloch(0.9, 0.6, grid))
        assert np.abs(density_matrices(sampled) - exact).max() <= 1e-7

    def test_stacked_rows_are_single_runs(self):
        # each row of a stack carries the bits of its own run, drive and
        # remainder steps included
        alpha = [1.2, 0.0, 0.9, 2.5]
        lam = [0.4, 0.0, 0.6, 1.0]
        omega = [0.7, 2.0, 0.0, 1.5]
        for times, h in (
            (step_times(0.7005, 1e-3), 1e-3),
            (np.array([0.0, 0.0137, 0.4, 1.1, 2.37]), 2e-3),
        ):
            stacked = evolve(alpha, lam, times, h, omega)
            assert stacked.shape == (len(alpha), len(times), 3)
            for i in range(len(alpha)):
                assert np.array_equal(stacked[i], evolve(alpha[i], lam[i], times, h, omega[i]))
            # a 2 x 2 (alpha, lam) grid broadcasts the same way
            grid = evolve(np.array(alpha[:2])[:, None], lam[2:], times, h)
            assert grid.shape == (2, 2, len(times), 3)
            for i, j in np.ndindex(2, 2):
                assert np.array_equal(grid[i, j], evolve(alpha[i], lam[2 + j], times, h))

    @pytest.mark.parametrize("times, h", [
        # unequal step counts, remainder intervals and a stored t = 0
        (np.array([0.0, 0.0137, 0.4, 1.1, 2.37]), 2e-3),
        # a uniform grid: 60 steps between stored times, no remainders
        (np.linspace(0.0, 3.0, 51)[1:], 1e-3),
    ], ids=["uneven", "uniform"])
    def test_sparse_grid_matches_every_step_run(self, times, h):
        # an interval's steps applied as one power of the step map agree with
        # the same steps taken one by one, undriven and driven sets alike
        alpha, lam, omega = [1.2, 0.0, 0.9, 2.5], [0.4, 0.0, 0.6, 1.0], [0.7, 0.0, 0.0, 0.7]
        dense, stored = _every_step(times, h)
        sparse = evolve(alpha, lam, times, h, omega)
        assert np.abs(sparse - evolve(alpha, lam, dense, h, omega)[:, stored]).max() <= 1e-13

    def test_powers_do_not_outlive_a_call(self):
        # evolve on G, then on a grid with other step counts, then on G again
        grid = np.linspace(0.0, 3.0, 51)[1:]
        first = evolve([0.3, 1.1], [0.5, 1.0], grid, 1e-3, [0.0, 0.7])
        evolve([0.3, 1.1], [0.5, 1.0], np.linspace(0.0, 3.0, 38)[1:], 1e-3, [0.0, 0.7])
        again = evolve([0.3, 1.1], [0.5, 1.0], grid, 1e-3, [0.0, 0.7])
        assert np.array_equal(first, again)

    def test_trajectory_stores_bloch_array(self):
        # one run takes scalar parameters: a (T, 3) float array
        times = step_times(0.05, 1e-2)
        bloch = evolve(0.4, 0.7, times, 1e-2)
        assert bloch.shape == (len(times), 3)
        assert bloch.dtype == np.float64 and bloch.flags.c_contiguous
        mixedness = 0.5 * (1.0 - (bloch**2).sum(axis=1))
        assert mixedness_values(bloch) == pytest.approx(mixedness.clip(0), abs=1e-16)
        dense = np.array([oracle_state(*p) for p in bloch])
        assert np.abs(density_matrices(bloch) - dense).max() <= 1e-15

    def test_evolve_starts_at_projector(self):
        bloch = evolve(0.7, 0.5, [0.0, 0.1])[0]
        psi = np.array([math.cos(0.7), math.sin(0.7)])
        assert np.abs(density_matrices(bloch) - np.outer(psi, psi)).max() <= 1e-15


def expm(m):
    """exp(m) of each matrix of a (..., n, n) stack: scaling and squaring with
    an order-16 Taylor polynomial, scaled by the largest 1-norm in the stack."""
    norm = np.abs(m).sum(axis=-2).max()
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    a = m / 2.0**squarings
    result = term = np.eye(m.shape[-1])
    for k in range(1, 17):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def exact_bloch(alpha, lam, omega, times):
    """Bloch vectors exp(t L) (p0, 1) from cos(alpha)|0> + sin(alpha)|1>, one row per time."""
    start = np.array([math.sin(2 * alpha), 0.0, math.cos(2 * alpha), 1.0])
    return (expm(np.multiply.outer(times, generator(lam, omega))) @ start)[:, :3]


DRIVEN = [(0.8, 0.7), (0.3, 1.5)]


class TestExactPropagator:
    """evolve against exp(t L) of the 4x4 generator, for driven runs too."""

    def test_reference_matches_closed_form(self):
        times = np.linspace(0.0, 5.0, 11)
        for lam in (0.0, 0.4, 1.0):
            exact = exact_bloch(math.pi / 5, lam, 0.0, times)
            assert np.abs(exact - analytic_bloch(math.pi / 5, lam, times)).max() <= 1e-13

    @pytest.mark.parametrize("lam, omega", DRIVEN)
    def test_driven_run_matches_exact(self, lam, omega):
        # on every step, and on a sparse grid whose intervals take the cached
        # powers S^k of the step map and remainder steps
        for times in (step_times(5.0, 1e-3), np.array([0.3337, 0.5, 1.25, 2.0, 3.3333, 5.0])):
            numeric = evolve(math.pi / 5, lam, times, 1e-3, omega)
            assert np.abs(numeric - exact_bloch(math.pi / 5, lam, omega, times)).max() <= 1e-10

    @pytest.mark.parametrize("lam, omega", DRIVEN)
    def test_driven_halving_ratio(self, lam, omega):
        # at h = 1e-2 and 5e-3 truncation, not rounding, sets the error: RK4's 2^4
        times = np.linspace(0.5, 5.0, 10)
        exact = exact_bloch(math.pi / 5, lam, omega, times)
        coarse, fine = (np.abs(evolve(math.pi / 5, lam, times, h, omega) - exact).max()
                        for h in (1e-2, 5e-3))
        assert 8.0 <= coarse / fine <= 32.0


def _every_step(times, h):
    """A grid on which evolve stores each step it takes on times, and the
    indices of times in it: full steps of h, then any remainder step."""
    dense, stored = [0.0], []
    for end in times:
        start = dense[-1]
        dense.extend(start + j * h for j in range(1, int(math.floor((end - start) / h + 1e-9)) + 1))
        if end - dense[-1] > 1e-12:
            dense.append(end)
        stored.append(len(dense) - 1)
    return np.array(dense), stored


def test_feedback_demo_runs():
    demo = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "feedback_demo.py"))
    assert demo["run"]() == 0
