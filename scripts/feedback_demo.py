#!/usr/bin/env python3
"""Feedback-qubit showcase: trajectory, steady state and mixedness meter.

Integrates the driven-damped qubit with feedback on, cross-checks the
closed-form solution, then reads the mixedness off variance data alone.
"""

import math
import sys

import numpy as np

from qubitvar.core import OBS_X, OBS_Z, density_matrices, mixedness
from qubitvar.feedback import (
    FeedbackParams, analytic_bloch, analytic_state, integrate, steady_state
)
from qubitvar.relations import estimate_mixedness


def run():
    params = FeedbackParams(alpha=math.pi / 4, lam=1.0)
    traj = integrate(params, t_end=8.0, h=1e-3)
    exact = density_matrices(analytic_bloch([params], traj.times)[0])
    worst = float(np.abs(traj.matrices() - exact).max())
    print(f"RK4 vs closed form over t in [0, 8]: max deviation {worst:.2e}")

    fixed = steady_state(params)
    print(
        f"excited population at t=8: {traj.excited_populations()[-1]:.6f} "
        f"(fixed point {0.5 * (1 - fixed.bloch.pz):.6f})"
    )

    for t in (0.0, 0.5, 2.0, 8.0):
        state = analytic_state(params, t)
        metered = estimate_mixedness(state, OBS_X, OBS_Z)
        print(
            f"t={t:4.1f}: mixedness {mixedness(state):.6f}, "
            f"variance-metered {metered:.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
