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
    BlochVector,
    OBS_I,
    OBS_X,
    OBS_Y,
    OBS_Z,
    PauliObservable,
    QubitState,
    decompose_observable,
    matrix_to_bloch,
    mixedness,
    mixedness_general,
    random_density_matrix,
)
from .feedback import analytic_bloch, evolve, steady_state, step_times
from .relations import (
    RelationReport,
    compute_report,
    estimate_mixedness,
    estimate_mixedness_from_counts,
    mixedness_estimates_from_counts,
    shot_counts,
    simulate_shots,
)
from .tightness import SweepGrid, sweep

__all__ = [
    "BlochVector",
    "OBS_I",
    "OBS_X",
    "OBS_Y",
    "OBS_Z",
    "PauliObservable",
    "QubitState",
    "RelationReport",
    "SweepGrid",
    "analytic_bloch",
    "compute_report",
    "decompose_observable",
    "estimate_mixedness",
    "estimate_mixedness_from_counts",
    "evolve",
    "matrix_to_bloch",
    "mixedness",
    "mixedness_estimates_from_counts",
    "mixedness_general",
    "random_density_matrix",
    "shot_counts",
    "simulate_shots",
    "steady_state",
    "step_times",
    "sweep",
]

__version__ = "0.1.0"
