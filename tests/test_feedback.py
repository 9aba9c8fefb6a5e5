"""Feedback master equation, closed-form solution and RK4 integrator."""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_rk4_matrices, oracle_state
from qubitvar.core import density_matrices, mixedness_values
from qubitvar.errors import (
    NegativeTime, NonFiniteInput, PositivityLost, StepTooLarge, TooMuchWork
)
from qubitvar.feedback import (
    FeedbackParams,
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
            p_ss = steady_state(FeedbackParams(alpha=0.9, lam=lam)).bloch.as_array()
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
                px, py, pz = analytic_bloch([FeedbackParams(alpha=alpha, lam=lam)], 0.0)[0]
                rho11 = 0.5 * (1.0 - pz)
                rho12 = 0.5 * (px + 1j * py)
                assert rho11 == pytest.approx(math.sin(alpha) ** 2, abs=1e-12)
                assert rho12 == pytest.approx(math.sin(2 * alpha) / 2, abs=1e-12)

    def test_long_time_limit_lambda_one(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        px, py, pz = analytic_bloch([params], 40.0)[0]
        assert 0.5 * (1.0 - pz) == pytest.approx(1 / 3, abs=1e-12)
        assert abs(px) + abs(py) <= 1e-8

    def test_alpha_zero_heats_toward_steady_population(self):
        # with feedback on, the ground state is not dark: the jump operator
        # s- - i lam sx pumps it at rate lam^2 toward lam^2/(1+2 lam^2)
        for lam in (0.3, 1.0):
            params = FeedbackParams(alpha=0.0, lam=lam)
            decay = 1.0 + 2.0 * lam**2
            for t in (0.0, 0.5, 2.0):
                want = lam**2 * (1.0 - math.exp(-t * decay)) / decay
                px, _, pz = analytic_bloch([params], t)[0]
                assert 0.5 * (1.0 - pz) == pytest.approx(want, abs=1e-12)
                assert px == pytest.approx(0.0, abs=1e-15)

    def test_alpha_zero_without_feedback_stays_ground(self):
        params = FeedbackParams(alpha=0.0, lam=0.0)
        for t in (0.0, 1.0, 10.0):
            assert analytic_bloch([params], t)[0, 2] == pytest.approx(1.0, abs=1e-15)

    def test_lambda_zero_has_no_py(self):
        # the lam -> 0 limit of px expm1(-2 lam^2 t)/lam is taken exactly,
        # and py starts at an unsigned 0 for every lam
        ps = [FeedbackParams(alpha=alpha, lam=0.0) for alpha in (0.3, 1.2, 2.5)]
        py = analytic_bloch(ps, np.linspace(0.0, 5.0, 11))[..., 1]
        assert not py.any() and not np.signbit(py).any()
        ps = [FeedbackParams(alpha=alpha, lam=0.7) for alpha in (0.3, 1.2, 2.5)]
        py = analytic_bloch(ps, 0.0)[:, 1]
        assert not py.any() and not np.signbit(py).any()

    def test_small_lambda_matches_integrator(self):
        # one expression for every lam: no switch to the lam -> 0 limit,
        # whose dropped term 2 lam t exp(-t/2) sin(2 alpha) is ~1e-6 here
        ps = [FeedbackParams(alpha=0.6, lam=lam) for lam in (1e-7, 1e-6, 1.0001e-6, 1e-5)]
        times = step_times(2.0, 1e-3)
        assert np.abs(analytic_bloch(ps, times) - evolve(ps, times, 1e-3)).max() <= 1e-12

    def test_rejects_bad_inputs(self):
        params = FeedbackParams(alpha=0.5, lam=0.5)
        with pytest.raises(NegativeTime):
            analytic_bloch([params], -0.1)
        with pytest.raises(ValueError):
            analytic_bloch([FeedbackParams(alpha=0.5, lam=0.5, omega=1.0)], 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteInput):
                analytic_bloch([params], bad)
            with pytest.raises(NonFiniteInput):
                analytic_bloch([params], [0.5, bad])

    def test_analytic_bloch_vectorized_over_t(self):
        params = FeedbackParams(alpha=0.9, lam=0.6)
        ts = np.linspace(0.0, 4.0, 9)
        stacked = analytic_bloch([params], ts)
        assert stacked.shape == (1, 9, 3)
        for t, row in zip(ts, stacked[0]):
            assert row == pytest.approx(analytic_bloch([params], float(t))[0], abs=1e-15)
        with pytest.raises(NegativeTime):
            analytic_bloch([params], [0.5, -0.1])

    def test_stacked_rows_are_single_calls(self):
        # each row of a stack carries the bits of its own call
        ps = [
            FeedbackParams(alpha=alpha, lam=lam)
            for alpha in (0.0, 0.4, 1.9, 3.0) for lam in (0.0, 1e-7, 0.3, 1.0, 2.5)
        ]
        for t in (np.linspace(0.0, 7.0, 29), np.array([[0.1, 2.0], [3.0, 0.0]]), 1.3, 0.0):
            stacked = analytic_bloch(ps, t)
            assert stacked.shape == (len(ps),) + np.shape(t) + (3,)
            for i, params in enumerate(ps):
                assert np.array_equal(stacked[i], analytic_bloch([params], t)[0])

    def test_overflowing_product_reaches_steady_state(self):
        # -g t overflows to -inf, whose exponentials are the right limits
        params = FeedbackParams(alpha=0.3, lam=1e150)
        want = steady_state(params).bloch.as_array()
        assert analytic_bloch([params], 1e10)[0] == pytest.approx(want, abs=1e-15)

    def test_overflowing_decay_rate_rejected(self):
        # lam^2 overflows: the closed form raises a typed error, never OverflowError
        params = FeedbackParams(alpha=0.3, lam=1e200)
        with pytest.raises(NonFiniteInput):
            analytic_bloch([params], 1.0)
        with pytest.raises(NonFiniteInput):
            analytic_bloch([FeedbackParams(alpha=0.3, lam=0.5), params], [0.0, 1.0])
        with pytest.raises(NonFiniteInput):
            steady_state(params)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FeedbackParams(alpha=0.0, lam=-0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                FeedbackParams(alpha=bad)
            with pytest.raises(ValueError):
                FeedbackParams(alpha=0.0, lam=bad)
            with pytest.raises(ValueError):
                FeedbackParams(alpha=0.0, omega=bad)


class TestSteadyState:
    def test_examples(self):
        assert 0.5 * (
            1.0 - steady_state(FeedbackParams(alpha=0.0, lam=1.0)).bloch.pz
        ) == pytest.approx(1 / 3, abs=1e-15)
        assert 0.5 * (
            1.0 - steady_state(FeedbackParams(alpha=0.0, lam=1 / math.sqrt(2))).bloch.pz
        ) == pytest.approx(0.25, abs=1e-12)
        # lam = 0: pure decay, ground state returned (documented behaviour)
        assert steady_state(FeedbackParams(alpha=0.0, lam=0.0)).bloch.pz == 1.0

    def test_cross_checked_by_long_integration(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1 / math.sqrt(2))
        pz = evolve([params], step_times(20.0, 1e-2), 1e-2)[0, -1, 2]
        assert abs(pz - steady_state(params).bloch.pz) <= 1e-6
        assert 0.5 * (1.0 - pz) == pytest.approx(0.25, abs=1e-6)


class TestIntegrator:
    def test_matches_analytic_solution(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        times = step_times(5.0, 1e-3)
        exact = density_matrices(analytic_bloch([params], times)[0])
        assert np.abs(density_matrices(evolve([params], times, 1e-3)[0]) - exact).max() <= 1e-6

    def test_pure_exponential_decay(self):
        # lam = 0, initial excited state: rho11(t) = e^{-t}
        params = FeedbackParams(alpha=math.pi / 2, lam=0.0)
        times = step_times(3.0, 1e-3)
        rho11 = 0.5 * (1.0 - evolve([params], times, 1e-3)[0, :, 2])
        assert np.abs(rho11 - np.exp(-times)).max() <= 1e-9

    def test_trace_preserved_every_step(self):
        params = FeedbackParams(alpha=1.0, lam=0.7, omega=1.5)
        bloch = evolve([params], step_times(2.0, 1e-3), 1e-3)[0]
        traces = np.einsum("nii->n", density_matrices(bloch)).real
        assert np.abs(traces - 1.0).max() <= 1e-9

    def test_starts_pure_and_stays_positive(self):
        for alpha in (0.0, 0.7, math.pi / 2):
            for lam in (0.0, 0.5, 1.0):
                params = FeedbackParams(alpha=alpha, lam=lam)
                bloch = evolve([params], step_times(4.0, 5e-3), 5e-3)[0]
                assert mixedness_values(bloch)[0] <= 1e-12
                norms = np.sqrt((bloch**2).sum(axis=1))
                assert ((norms - 1.0) / 2.0).max() <= 1e-8

    def test_step_validation(self):
        params = FeedbackParams(alpha=0.5, lam=0.5)
        with pytest.raises(StepTooLarge):
            step_times(1.0, 0.02)
        with pytest.raises(StepTooLarge):
            step_times(1.0, 0.0)
        with pytest.raises(StepTooLarge):
            evolve([params], [1.0], h=0.02)
        with pytest.raises(NegativeTime):
            step_times(0.0, 1e-3)
        with pytest.raises(TooMuchWork):
            step_times(1e12, 1e-3)
        with pytest.raises(TooMuchWork):
            evolve([params], [1.0, 1e12])

    def test_positivity_lost_on_unresolved_step(self):
        # a drive far above the step's stability limit blows the state out
        # of the Bloch ball and must be reported, not silently stored
        with pytest.raises(PositivityLost):
            evolve([FeedbackParams(alpha=0.3, lam=1.0, omega=300.0)], step_times(1.0, 1e-2), 1e-2)

    def test_positivity_lost_on_non_finite_state(self):
        # lam^2 overflows, the generator holds NaN, and the NaN state must
        # be reported rather than stored (NaN > 1 is False)
        params = FeedbackParams(alpha=0.3, lam=1e200)
        with pytest.raises(PositivityLost, match="t = 0.001"):
            evolve([params], step_times(0.01, 1e-3), 1e-3)
        with pytest.raises(PositivityLost):
            evolve([params], [0.01], h=1e-3)
        # in a stack, the message names the set that left the ball
        stack = [FeedbackParams(alpha=0.3, lam=0.5), params]
        with pytest.raises(PositivityLost, match=r"t = 0\.001 for .*lam=1e\+200"):
            evolve(stack, step_times(0.05, 1e-3), h=1e-3)

    def test_positivity_lost_names_earliest_time_across_sets(self):
        # the first set leaves the ball at t = 0.015, the second already at
        # t = 0.001: the error reports the earlier time and the set it hit
        stack = [
            FeedbackParams(alpha=math.pi / 4, lam=0.0, omega=1500.0),
            FeedbackParams(alpha=0.3, lam=1.0, omega=1450.0),
        ]
        with pytest.raises(PositivityLost, match=r"t = 0\.015$"):
            evolve(stack[:1], step_times(0.05, 1e-3), h=1e-3)
        with pytest.raises(PositivityLost, match=r"t = 0\.001 for .*omega=1450\.0"):
            evolve(stack, step_times(0.05, 1e-3), h=1e-3)

    def test_non_finite_times_rejected(self):
        params = FeedbackParams(alpha=0.5, lam=0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(NonFiniteInput):
                step_times(bad, 1e-3)
            with pytest.raises(NonFiniteInput):
                evolve([params], [0.1, bad], h=1e-3)

    def test_driven_matches_dense_oracle(self):
        # omega > 0 has no closed form; the dense RK4 is the reference
        for params, t_end in (
            (FeedbackParams(alpha=0.3, lam=1.0, omega=1.5), 1.0),
            (FeedbackParams(alpha=0.0, lam=0.0, omega=2.0), 0.5),
            (FeedbackParams(alpha=1.2, lam=0.4, omega=0.7), 0.7005),
        ):
            bloch = evolve([params], step_times(t_end, 1e-3), 1e-3)[0]
            want = oracle_rk4_matrices(params, t_end, 1e-3)
            assert np.abs(density_matrices(bloch) - want).max() <= 1e-12

    def test_omega_drive_supported_numerically(self):
        # Rabi drive moves population out of the ground state
        params = FeedbackParams(alpha=0.0, lam=0.0, omega=2.0)
        pz = evolve([params], step_times(1.0, 1e-3), 1e-3)[0, :, 2]
        assert (0.5 * (1.0 - pz)).max() > 0.1

    def test_step_grid_handles_non_multiple_end(self):
        times = step_times(0.0035, 1e-3)
        assert times == pytest.approx([0.0, 0.001, 0.002, 0.003, 0.0035])
        times = step_times(5.0, 1e-3)
        assert len(times) == 5001
        assert times[-1] == 5.0

    def test_evolve_matches_analytic_on_arbitrary_grid(self):
        params = FeedbackParams(alpha=0.9, lam=0.6)
        grid = np.array([0.013, 0.4, 1.1, 2.07])
        sampled = evolve([params], grid, h=1e-3)
        assert sampled.shape == (1, 4, 3)
        exact = density_matrices(analytic_bloch([params], grid)[0])
        assert np.abs(density_matrices(sampled[0]) - exact).max() <= 1e-7

    def test_stacked_rows_are_single_runs(self):
        # each row of a stack carries the bits of its own run, drive and
        # remainder steps included
        stack = [
            FeedbackParams(alpha=1.2, lam=0.4, omega=0.7),
            FeedbackParams(alpha=0.0, lam=0.0, omega=2.0),
            FeedbackParams(alpha=0.9, lam=0.6),
            FeedbackParams(alpha=2.5, lam=1.0, omega=1.5),
        ]
        for times, h in (
            (step_times(0.7005, 1e-3), 1e-3),
            (np.array([0.0, 0.0137, 0.4, 1.1, 2.37]), 2e-3),
        ):
            stacked = evolve(stack, times, h)
            assert stacked.shape == (len(stack), len(times), 3)
            for i, params in enumerate(stack):
                assert np.array_equal(stacked[i], evolve([params], times, h)[0])

    def test_trajectory_stores_bloch_array(self):
        # one run is row 0 of a stack of one: a (T, 3) float array
        params = FeedbackParams(alpha=0.4, lam=0.7)
        times = step_times(0.05, 1e-2)
        bloch = evolve([params], times, 1e-2)[0]
        assert bloch.shape == (len(times), 3)
        assert bloch.dtype == np.float64 and bloch.flags.c_contiguous
        mixedness = 0.5 * (1.0 - (bloch**2).sum(axis=1))
        assert mixedness_values(bloch) == pytest.approx(mixedness.clip(0), abs=1e-16)
        dense = np.array([oracle_state(*p) for p in bloch])
        assert np.abs(density_matrices(bloch) - dense).max() <= 1e-15

    def test_evolve_starts_at_projector(self):
        bloch = evolve([FeedbackParams(alpha=0.7, lam=0.5)], [0.0, 0.1])[0, 0]
        psi = np.array([math.cos(0.7), math.sin(0.7)])
        assert np.abs(density_matrices(bloch) - np.outer(psi, psi)).max() <= 1e-15


def test_feedback_demo_runs():
    demo = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "feedback_demo.py"))
    assert demo["run"]() == 0
