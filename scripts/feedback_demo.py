#!/usr/bin/env python3
"""Feedback-qubit showcase: trajectory, steady state and mixedness meter.

Integrates the driven-damped qubit with feedback on, cross-checks the
closed-form solution, then reads the mixedness off variance data alone.
"""

import math
import sys

import numpy as np

from qubitvar.core import OBS_X, OBS_Z, density_matrices, mixedness_values
from qubitvar.feedback import analytic_bloch, evolve, steady_state, step_times
from qubitvar.relations import mixedness_estimates


def run():
    alpha, lam = math.pi / 4, 1.0
    times = step_times(8.0, 1e-3)
    bloch = evolve(alpha, lam, times, 1e-3)
    exact = analytic_bloch(alpha, lam, times)
    worst = float(np.abs(density_matrices(bloch) - density_matrices(exact)).max())
    print(f"RK4 vs closed form over t in [0, 8]: max deviation {worst:.2e}")

    fixed = steady_state(lam)
    print(
        f"excited population at t=8: {0.5 * (1 - bloch[-1, 2]):.6f} "
        f"(fixed point {0.5 * (1 - fixed[2]):.6f})"
    )

    meter_times = [0.0, 0.5, 2.0, 8.0]
    states = analytic_bloch(alpha, lam, meter_times)
    mixed = mixedness_values(states)
    metered = mixedness_estimates(states, OBS_X, OBS_Z)
    for t, value, estimate in zip(meter_times, mixed.tolist(), metered.tolist()):
        print(f"t={t:4.1f}: mixedness {value:.6f}, variance-metered {estimate:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
