"""Feedback master equation, closed-form solution and RK4 integrator."""

import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_rk4_matrices, oracle_state
from qubitvar.core import density_matrices
from qubitvar.errors import (
    NegativeTime, NonFiniteInput, PositivityLost, StepTooLarge, TooMuchWork
)
from qubitvar.feedback import (
    FeedbackParams,
    Trajectory,
    analytic_bloch,
    analytic_state,
    evolve,
    generator,
    integrate,
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
                params = FeedbackParams(alpha=alpha, lam=lam)
                state = analytic_state(params, 0.0)
                rho11 = 0.5 * (1.0 - state.bloch.pz)
                rho12 = 0.5 * (state.bloch.px + 1j * state.bloch.py)
                assert rho11 == pytest.approx(math.sin(alpha) ** 2, abs=1e-12)
                assert rho12 == pytest.approx(math.sin(2 * alpha) / 2, abs=1e-12)

    def test_long_time_limit_lambda_one(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        state = analytic_state(params, 40.0)
        assert 0.5 * (1.0 - state.bloch.pz) == pytest.approx(1 / 3, abs=1e-12)
        assert abs(state.bloch.px) + abs(state.bloch.py) <= 1e-8

    def test_alpha_zero_heats_toward_steady_population(self):
        # with feedback on, the ground state is not dark: the jump operator
        # s- - i lam sx pumps it at rate lam^2 toward lam^2/(1+2 lam^2)
        for lam in (0.3, 1.0):
            params = FeedbackParams(alpha=0.0, lam=lam)
            decay = 1.0 + 2.0 * lam**2
            for t in (0.0, 0.5, 2.0):
                want = lam**2 * (1.0 - math.exp(-t * decay)) / decay
                state = analytic_state(params, t)
                assert 0.5 * (1.0 - state.bloch.pz) == pytest.approx(want, abs=1e-12)
                assert state.bloch.px == pytest.approx(0.0, abs=1e-15)

    def test_alpha_zero_without_feedback_stays_ground(self):
        params = FeedbackParams(alpha=0.0, lam=0.0)
        for t in (0.0, 1.0, 10.0):
            state = analytic_state(params, t)
            assert state.bloch.pz == pytest.approx(1.0, abs=1e-15)

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
            analytic_state(params, -0.1)
        with pytest.raises(ValueError):
            analytic_state(FeedbackParams(alpha=0.5, lam=0.5, omega=1.0), 1.0)
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
            state = analytic_state(params, float(t))
            assert row == pytest.approx(state.bloch.as_array(), abs=1e-15)
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
            analytic_state(params, 1.0)
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
        traj = integrate(params, t_end=20.0, h=1e-2)
        want = steady_state(params)
        assert abs(traj.bloch[-1, 2] - want.bloch.pz) <= 1e-6
        assert traj.excited_populations()[-1] == pytest.approx(0.25, abs=1e-6)


class TestIntegrator:
    def test_matches_analytic_solution(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        traj = integrate(params, t_end=5.0, h=1e-3)
        exact = density_matrices(analytic_bloch([params], traj.times)[0])
        assert np.abs(traj.matrices() - exact).max() <= 1e-6

    def test_pure_exponential_decay(self):
        # lam = 0, initial excited state: rho11(t) = e^{-t}
        params = FeedbackParams(alpha=math.pi / 2, lam=0.0)
        traj = integrate(params, t_end=3.0, h=1e-3)
        want = np.exp(-traj.times)
        assert np.abs(traj.excited_populations() - want).max() <= 1e-9

    def test_trace_preserved_every_step(self):
        params = FeedbackParams(alpha=1.0, lam=0.7, omega=1.5)
        traj = integrate(params, t_end=2.0, h=1e-3)
        traces = np.einsum("nii->n", traj.matrices()).real
        assert np.abs(traces - 1.0).max() <= 1e-9

    def test_starts_pure_and_stays_positive(self):
        for alpha in (0.0, 0.7, math.pi / 2):
            for lam in (0.0, 0.5, 1.0):
                traj = integrate(FeedbackParams(alpha=alpha, lam=lam), t_end=4.0, h=5e-3)
                assert traj.mixedness_values()[0] <= 1e-12
                norms = np.sqrt((traj.bloch**2).sum(axis=1))
                assert ((norms - 1.0) / 2.0).max() <= 1e-8

    def test_step_validation(self):
        params = FeedbackParams(alpha=0.5, lam=0.5)
        with pytest.raises(StepTooLarge):
            integrate(params, t_end=1.0, h=0.02)
        with pytest.raises(StepTooLarge):
            integrate(params, t_end=1.0, h=0.0)
        with pytest.raises(NegativeTime):
            integrate(params, t_end=0.0)
        with pytest.raises(TooMuchWork):
            integrate(params, t_end=1e12)
        with pytest.raises(TooMuchWork):
            evolve([params], [1.0, 1e12])

    def test_positivity_lost_on_unresolved_step(self):
        # a drive far above the step's stability limit blows the state out
        # of the Bloch ball and must be reported, not silently stored
        with pytest.raises(PositivityLost):
            integrate(FeedbackParams(alpha=0.3, lam=1.0, omega=300.0), t_end=1.0, h=1e-2)

    def test_positivity_lost_on_non_finite_state(self):
        # lam^2 overflows, the generator holds NaN, and the NaN state must
        # be reported rather than stored (NaN > 1 is False)
        params = FeedbackParams(alpha=0.3, lam=1e200)
        with pytest.raises(PositivityLost, match="t = 0.001"):
            integrate(params, t_end=0.01, h=1e-3)
        with pytest.raises(PositivityLost):
            evolve([params], [0.01], h=1e-3)
        # in a stack, the message names the set that left the ball
        stack = [FeedbackParams(alpha=0.3, lam=0.5), params]
        with pytest.raises(PositivityLost, match=r"t = 0\.001 for .*lam=1e\+200"):
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
            traj = integrate(params, t_end=t_end, h=1e-3)
            want = oracle_rk4_matrices(params, t_end, 1e-3)
            assert np.abs(traj.matrices() - want).max() <= 1e-12

    def test_omega_drive_supported_numerically(self):
        # Rabi drive moves population out of the ground state
        params = FeedbackParams(alpha=0.0, lam=0.0, omega=2.0)
        traj = integrate(params, t_end=1.0, h=1e-3)
        assert traj.excited_populations().max() > 0.1

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

    def test_integrate_is_evolve_on_step_grid(self):
        # one propagator and one step rule: the same grid gives the same bits
        for params, t_end, h in (
            (FeedbackParams(alpha=1.2, lam=0.4, omega=0.7), 0.7005, 1e-3),
            (FeedbackParams(alpha=0.9, lam=0.6), 5.0, 1e-3),
            (FeedbackParams(alpha=0.3, lam=1.0, omega=1.5), 0.0537, 2e-3),
        ):
            traj = integrate(params, t_end, h)
            times = step_times(t_end, h)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.bloch, evolve([params], times, h)[0])

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

    def test_trajectory_helpers(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        traj = integrate(params, t_end=0.5, h=1e-3)
        assert traj.excited_populations().tolist() == (0.5 * (1 - traj.bloch[:, 2])).tolist()
        assert traj.excited_populations()[-1] == pytest.approx(
            0.5 * (1.0 - analytic_state(params, 0.5).bloch.pz), abs=1e-9
        )

    def test_trajectory_stores_bloch_array(self):
        params = FeedbackParams(alpha=0.4, lam=0.7)
        traj = integrate(params, t_end=0.05, h=1e-2)
        assert traj.bloch.shape == (len(traj.times), 3)
        assert traj.bloch.dtype == np.float64 and traj.bloch.flags.c_contiguous
        mixedness = 0.5 * (1.0 - (traj.bloch**2).sum(axis=1))
        assert traj.mixedness_values() == pytest.approx(mixedness.clip(0), abs=1e-16)
        dense = np.array([oracle_state(*p) for p in traj.bloch])
        assert np.abs(traj.matrices() - dense).max() <= 1e-15
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), bloch=np.zeros((3, 3)))

    def test_evolve_starts_at_projector(self):
        bloch = evolve([FeedbackParams(alpha=0.7, lam=0.5)], [0.0, 0.1])[0, 0]
        psi = np.array([math.cos(0.7), math.sin(0.7)])
        assert np.abs(density_matrices(bloch) - np.outer(psi, psi)).max() <= 1e-15


def test_feedback_demo_runs():
    demo = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "feedback_demo.py"))
    assert demo["run"]() == 0
