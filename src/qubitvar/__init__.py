"""Variance-based uncertainty relations and mixedness metering for a single qubit.

The variance product of two qubit observables equals the Schrodinger
bound plus a remainder proportional to the state's mixedness
1 - tr(rho^2); inverting that equality turns variance measurements into
a mixedness meter.  The package implements the relation algebra in the
Bloch representation, a feedback-controlled qubit model with closed-form
and RK4 dynamics, tightness sweeps comparing the mixedness-weighted
bound against entropic and variance-sum baselines, and a CLI for
reproducible reports, trajectories and grids.
"""

from .core import (
    OBS_I,
    OBS_X,
    OBS_Y,
    OBS_Z,
    decompose_observable,
    matrix_to_bloch,
    mixedness_general,
    random_density_matrix,
)
from .feedback import analytic_bloch, evolve, steady_state, step_times
from .relations import mixedness_estimates_from_counts, shot_counts
from .tightness import SweepGrid, sweep

__all__ = [
    "OBS_I",
    "OBS_X",
    "OBS_Y",
    "OBS_Z",
    "SweepGrid",
    "analytic_bloch",
    "decompose_observable",
    "evolve",
    "matrix_to_bloch",
    "mixedness_estimates_from_counts",
    "mixedness_general",
    "random_density_matrix",
    "shot_counts",
    "steady_state",
    "step_times",
    "sweep",
]

__version__ = "0.1.0"
