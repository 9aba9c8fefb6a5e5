"""Feedback master equation, closed-form solution and RK4 integrator."""

import math

import numpy as np
import pytest

from conftest import oracle_bloch, oracle_rk4_matrices, oracle_state
from qubitvar.errors import NegativeTime, NonFiniteInput, PositivityLost, StepTooLarge
from qubitvar.feedback import (
    FeedbackParams,
    SIGMA_MINUS,
    Trajectory,
    analytic_bloch,
    analytic_coherence,
    analytic_excited_population,
    analytic_state,
    dissipator,
    evolve_to_times,
    generator,
    initial_state,
    integrate,
    master_rhs,
    steady_state,
    step_times,
)

GROUND_RHO = np.diag([1.0, 0.0]).astype(complex)
EXCITED_RHO = np.diag([0.0, 1.0]).astype(complex)


class TestDissipator:
    def test_ground_state_is_dark_for_decay(self):
        assert np.abs(dissipator(SIGMA_MINUS, GROUND_RHO)).max() == 0.0

    def test_excited_state_decays(self):
        want = GROUND_RHO - EXCITED_RHO
        assert np.allclose(dissipator(SIGMA_MINUS, EXCITED_RHO), want, atol=0)

    def test_zero_operator(self):
        rho = 0.5 * np.eye(2, dtype=complex)
        assert np.abs(dissipator(np.zeros((2, 2), dtype=complex), rho)).max() == 0.0

    def test_always_traceless(self, rng):
        for _ in range(200):
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = rho @ rho.conj().T
            rho /= np.trace(rho)
            assert abs(np.trace(dissipator(op, rho))) <= 1e-12


class TestMasterRhs:
    def test_steady_state_annihilated(self):
        for lam in (0.3, 1 / math.sqrt(2), 1.0):
            params = FeedbackParams(alpha=0.9, lam=lam)
            rhs = master_rhs(steady_state(params).matrix, params)
            assert np.abs(rhs).max() <= 1e-10

    def test_ground_state_fixed_point_of_pure_decay(self):
        params = FeedbackParams(alpha=0.0, lam=0.0)
        assert np.abs(master_rhs(GROUND_RHO, params)).max() == 0.0

    def test_maximally_mixed_pure_decay(self):
        params = FeedbackParams(alpha=0.0, lam=0.0)
        rhs = master_rhs(0.5 * np.eye(2, dtype=complex), params)
        want = 0.5 * (GROUND_RHO - EXCITED_RHO)
        assert np.allclose(rhs, want, atol=1e-15)


class TestGenerator:
    def test_matches_master_rhs_bloch_components(self, rng):
        for _ in range(300):
            p = rng.normal(size=3)
            p *= rng.random() / np.linalg.norm(p)
            params = FeedbackParams(
                alpha=float(rng.uniform(0, math.pi)),
                lam=float(rng.uniform(0, 1)),
                omega=float(rng.uniform(0, 2)),
            )
            gen = generator(params)
            assert gen.dtype == np.float64 and not gen[3].any()
            want = oracle_bloch(master_rhs(oracle_state(*p), params))
            assert np.abs(gen[:3] @ np.append(p, 1.0) - want).max() <= 1e-12


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

    def test_small_lambda_routes_to_limit(self):
        # lam below the threshold must agree with the lam -> 0 limit and
        # connect continuously to lam slightly above it
        params_tiny = FeedbackParams(alpha=0.6, lam=1e-7)
        params_small = FeedbackParams(alpha=0.6, lam=1e-5)
        for t in (0.1, 1.0, 3.0):
            tiny = complex(analytic_coherence(params_tiny, t))
            small = complex(analytic_coherence(params_small, t))
            limit = math.exp(-t / 2) * math.sin(1.2) / 2
            assert tiny == pytest.approx(limit, abs=1e-12)
            assert small == pytest.approx(limit, abs=1e-4)

    def test_rejects_bad_inputs(self):
        params = FeedbackParams(alpha=0.5, lam=0.5)
        with pytest.raises(NegativeTime):
            analytic_state(params, -0.1)
        with pytest.raises(ValueError):
            analytic_state(FeedbackParams(alpha=0.5, lam=0.5, omega=1.0), 1.0)

    def test_analytic_bloch_vectorized_over_t(self):
        params = FeedbackParams(alpha=0.9, lam=0.6)
        ts = np.linspace(0.0, 4.0, 9)
        stacked = analytic_bloch(params, ts)
        assert stacked.shape == (9, 3)
        for t, row in zip(ts, stacked):
            state = analytic_state(params, float(t))
            assert row == pytest.approx(state.bloch.as_array(), abs=1e-15)
        with pytest.raises(NegativeTime):
            analytic_bloch(params, [0.5, -0.1])

    def test_overflowing_decay_rate_rejected(self):
        # lam^2 overflows: the closed form raises a typed error, never OverflowError
        params = FeedbackParams(alpha=0.3, lam=1e200)
        for closed_form in (analytic_state, analytic_excited_population, analytic_coherence):
            with pytest.raises(NonFiniteInput):
                closed_form(params, 1.0)
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
        with pytest.raises(ValueError):
            FeedbackParams(alpha=0.0, gamma_eff=2.0)


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
        final = traj.states[-1]
        want = steady_state(params)
        assert abs(final.bloch.pz - want.bloch.pz) <= 1e-6
        assert 0.5 * (1.0 - final.bloch.pz) == pytest.approx(0.25, abs=1e-6)


class TestIntegrator:
    def test_matches_analytic_solution(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        traj = integrate(params, t_end=5.0, h=1e-3)
        worst = 0.0
        for t, state in zip(traj.times, traj.states):
            exact = analytic_state(params, float(t)).matrix
            worst = max(worst, np.abs(state.matrix - exact).max())
        assert worst <= 1e-6

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
                norms = np.array([math.sqrt(s.bloch.norm_sq()) for s in traj.states])
                assert ((norms - 1.0) / 2.0).max() <= 1e-8

    def test_step_validation(self):
        params = FeedbackParams(alpha=0.5, lam=0.5)
        with pytest.raises(StepTooLarge):
            integrate(params, t_end=1.0, h=0.02)
        with pytest.raises(StepTooLarge):
            integrate(params, t_end=1.0, h=0.0)
        with pytest.raises(NegativeTime):
            integrate(params, t_end=0.0)

    def test_positivity_lost_on_unresolved_step(self):
        # a drive far above the step's stability limit blows the state out
        # of the Bloch ball and must be reported, not silently stored
        with pytest.raises(PositivityLost):
            integrate(FeedbackParams(alpha=0.3, lam=1.0, omega=300.0), t_end=1.0, h=1e-2)

    def test_positivity_lost_on_non_finite_state(self):
        # lam^2 overflows, the generator holds NaN, and the NaN state must
        # be reported rather than stored (NaN > 1 is False)
        params = FeedbackParams(alpha=0.3, lam=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PositivityLost, match="t = 0.001"):
                integrate(params, t_end=0.01, h=1e-3)
            with pytest.raises(PositivityLost):
                evolve_to_times(params, [0.01], h=1e-3)

    def test_non_finite_times_rejected(self):
        params = FeedbackParams(alpha=0.5, lam=0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(NonFiniteInput):
                step_times(bad, 1e-3)
            with pytest.raises(NonFiniteInput):
                evolve_to_times(params, [0.1, bad], h=1e-3)

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

    def test_evolve_to_times_matches_integrate(self):
        params = FeedbackParams(alpha=0.9, lam=0.6)
        grid = np.array([0.013, 0.4, 1.1, 2.07])
        sampled = evolve_to_times(params, grid, h=1e-3)
        for t, state in zip(sampled.times, sampled.states):
            exact = analytic_state(params, float(t)).matrix
            assert np.abs(state.matrix - exact).max() <= 1e-7

    def test_trajectory_helpers(self):
        params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
        traj = integrate(params, t_end=0.5, h=1e-3)
        state = traj.states[-1]
        assert traj.excited_populations()[-1] == pytest.approx(
            0.5 * (1 - state.bloch.pz), abs=0
        )
        assert traj.coherences()[-1] == pytest.approx(
            0.5 * (state.bloch.px + 1j * state.bloch.py), abs=0
        )

    def test_trajectory_stores_bloch_array(self):
        params = FeedbackParams(alpha=0.4, lam=0.7)
        traj = integrate(params, t_end=0.05, h=1e-2)
        assert traj.bloch.shape == (len(traj.times), 3)
        assert [s.bloch.as_array().tolist() for s in traj.states] == traj.bloch.tolist()
        mixedness = 0.5 * (1.0 - (traj.bloch**2).sum(axis=1))
        assert traj.mixedness_values() == pytest.approx(mixedness.clip(0), abs=1e-16)
        dense = np.array([oracle_state(*p) for p in traj.bloch])
        assert np.abs(traj.matrices() - dense).max() <= 1e-15
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), bloch=np.zeros((3, 3)))

    def test_initial_state_projector(self):
        state = initial_state(0.7)
        psi = np.array([math.cos(0.7), math.sin(0.7)])
        assert np.abs(state.matrix - np.outer(psi, psi)).max() <= 1e-15
