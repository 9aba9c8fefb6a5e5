"""Driven-damped qubit with homodyne-mediated feedback.

The model: a two-level atom (levels |0> ground, |1> excited) coupled to a
heavily damped cavity, reduced to an effective decay channel at unit rate,
plus a feedback Hamiltonian F = lam*sx conditioned on the homodyne current.
The master equation is

    drho/dt = -i [Omega*sx + (s+ F + F s-)/2, rho] + D(s- - iF) rho,

with D(O)rho = O rho O^dag - (O^dag O rho + rho O^dag O)/2 and
s- = |0><1|.  For Omega = 0 and a pure initial state
cos(alpha)|0> + sin(alpha)|1> the solution is closed-form; the excited
population rho11 relaxes to lam^2/(1 + 2 lam^2).  A fixed-step RK4
integrator covers the general case and cross-checks the closed form.

master_rhs is the one generator.  It is linear in y = (px, py, pz, 1);
generator() reads the real 4x4 L off it, and each RK4 step is applied
exactly as y <- y + D y, D = T4(hL) - I (T4 the 4th-order Taylor
polynomial).  L's last row is zero, so no renormalisation is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BLOCH_NORM_TOL, IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, BlochVector, QubitState,
    density_matrices, mixedness_values
)
from .errors import NegativeTime, NonFiniteInput, PositivityLost, StepTooLarge

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

MAX_STEP = 1e-2

# Below this the closed-form coherence switches to its lam -> 0 limit
# (the general expression divides by lam).
LAMBDA_LIMIT = 1e-6


@dataclass(frozen=True)
class FeedbackParams:
    """Model parameters, all rates in units of the effective damping rate.

    alpha is the initial superposition angle, lam the feedback strength
    (the model of interest uses lam in [0, 1]), omega the Rabi frequency
    of an optional drive.  gamma_eff is fixed to 1 by the normalization.
    """

    alpha: float
    lam: float = 0.0
    omega: float = 0.0
    gamma_eff: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "lam", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.omega < 0:
            raise ValueError("omega must be >= 0")
        if self.gamma_eff != 1.0:
            raise ValueError("gamma_eff is fixed to 1 (time is measured in 1/gamma)")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Bloch vectors (one (px, py, pz) row per time) from one integration run."""

    times: np.ndarray
    bloch: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.bloch):
            raise ValueError("times and bloch must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @cached_property
    def states(self) -> list[QubitState]:
        """The rows as QubitState objects."""
        return [QubitState(BlochVector(*p)) for p in self.bloch.tolist()]

    def excited_populations(self) -> np.ndarray:
        """rho11(t) = (1 - pz)/2 along the trajectory."""
        return 0.5 * (1.0 - self.bloch[:, 2])

    def coherences(self) -> np.ndarray:
        """rho12(t) = <1|rho|0> = (px + i py)/2 along the trajectory."""
        return 0.5 * (self.bloch[:, 0] + 1j * self.bloch[:, 1])

    def mixedness_values(self) -> np.ndarray:
        return mixedness_values(self.bloch)

    def matrices(self) -> np.ndarray:
        return density_matrices(self.bloch)


def initial_state(alpha: float) -> QubitState:
    """Projector onto cos(alpha)|0> + sin(alpha)|1>."""
    return QubitState(BlochVector(math.sin(2 * alpha), 0.0, math.cos(2 * alpha)))


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D(O)rho = O rho O^dag - (O^dag O rho + rho O^dag O)/2."""
    op_dag = op.conj().T
    op_sq = op_dag @ op
    return op @ rho @ op_dag - 0.5 * (op_sq @ rho + rho @ op_sq)


def master_rhs(rho: np.ndarray, params: FeedbackParams) -> np.ndarray:
    """Right-hand side of the feedback master equation; traceless by construction.

    With lam = 0 this is exactly the undriven-damping generator
    -i[Omega sx, rho] + D(s-) rho.
    """
    fb = params.lam * PAULI_X
    hamiltonian = params.omega * PAULI_X + 0.5 * (SIGMA_PLUS @ fb + fb @ SIGMA_MINUS)
    jump = SIGMA_MINUS - 1j * fb
    jump_sq = jump.conj().T @ jump
    return (
        -1j * (hamiltonian @ rho - rho @ hamiltonian)
        + jump @ rho @ jump.conj().T
        - 0.5 * (jump_sq @ rho + rho @ jump_sq)
    )


def generator(params: FeedbackParams) -> np.ndarray:
    """Real 4x4 L with d/dt (p, 1) = L (p, 1): column k holds the Bloch
    components of master_rhs at sx/2, sy/2, sz/2, I/2; the last row is zero."""
    gen = np.zeros((4, 4))
    for k, basis in enumerate((PAULI_X, PAULI_Y, PAULI_Z, IDENTITY)):
        m = master_rhs(0.5 * basis, params)
        gen[:3, k] = (2.0 * m[1, 0].real, 2.0 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real)
    return gen


# ---------------------------------------------------------------------------
# closed-form solution (omega = 0)
# ---------------------------------------------------------------------------

def _require_analytic(params: FeedbackParams) -> None:
    if params.omega != 0.0:
        raise ValueError("the closed-form solution requires omega = 0")
    if not math.isfinite(2.0 * params.lam * params.lam):
        raise NonFiniteInput(f"lam = {params.lam} overflows the decay rate 1 + 2 lam^2")


def analytic_excited_population(params: FeedbackParams, t) -> np.ndarray | float:
    """rho11(t) for omega = 0; vectorized over t."""
    _require_analytic(params)
    decay = 1.0 + 2.0 * params.lam**2
    expfac = np.exp(-np.asarray(t, dtype=float) * decay)
    return (expfac * (1.0 - decay * math.cos(2 * params.alpha)) + 2.0 * params.lam**2) / (
        2.0 * decay
    )


def analytic_coherence(params: FeedbackParams, t) -> np.ndarray | complex:
    """rho12(t) = <1|rho|0> for omega = 0; vectorized over t.

    The general expression divides by lam; for lam <= 1e-6 the removable
    limit exp(-t/2) sin(2 alpha)/2 is used instead.
    """
    _require_analytic(params)
    t = np.asarray(t, dtype=float)
    envelope = np.exp(-t / 2.0) * math.sin(2 * params.alpha)
    if params.lam <= LAMBDA_LIMIT:
        return envelope / 2.0
    phase = -1j + 1j * np.exp(-2.0 * t * params.lam**2) + params.lam
    return envelope * phase / (2.0 * params.lam)


def analytic_bloch(params: FeedbackParams, t) -> np.ndarray:
    """Exact Bloch vector for omega = 0; vectorized over t, shape t.shape + (3,)."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise NegativeTime(f"t = {t.min()}")
    pop = analytic_excited_population(params, t)
    coh = analytic_coherence(params, t)
    return np.stack([2.0 * coh.real, 2.0 * coh.imag, 1.0 - 2.0 * pop], axis=-1)


def analytic_state(params: FeedbackParams, t: float) -> QubitState:
    """Exact state at time t for omega = 0."""
    return QubitState(BlochVector(*analytic_bloch(params, t).tolist()))


def steady_state(params: FeedbackParams) -> QubitState:
    """Diagonal fixed point with excited population lam^2/(1 + 2 lam^2).

    For lam = 0 the dynamics is pure decay and the ground state |0><0|
    is returned (the lam -> 0 limit of the formula).
    """
    _require_analytic(params)
    population = params.lam**2 / (1.0 + 2.0 * params.lam**2)
    return QubitState(BlochVector(0.0, 0.0, 1.0 - 2.0 * population))


# ---------------------------------------------------------------------------
# fixed-step RK4 integration
# ---------------------------------------------------------------------------

def _check_step(h: float) -> None:
    if not (0.0 < h <= MAX_STEP):
        raise StepTooLarge(f"step must satisfy 0 < h <= {MAX_STEP:g}, got {h}")


def _increment(gen: np.ndarray, h: float) -> np.ndarray:
    """T4(hL) - I by Horner, so one RK4 step is y <- y + D @ y."""
    a = h * gen
    d = np.eye(4)
    for k in (4.0, 3.0, 2.0):
        d = np.eye(4) + (a / k) @ d
    return a @ d


def _trajectory(times: np.ndarray, ys: np.ndarray) -> Trajectory:
    """Trajectory of stacked (px, py, pz, 1) rows; PositivityLost at the first
    row outside the Bloch ball beyond representation tolerance, or not finite."""
    bloch = np.ascontiguousarray(ys[:, :3])
    norm_sq = np.einsum("ij,ij->i", bloch, bloch)
    outside = np.flatnonzero(~(norm_sq <= 1.0 + BLOCH_NORM_TOL))
    if outside.size:
        i = outside[0]
        raise PositivityLost(
            f"min eigenvalue {(1.0 - math.sqrt(norm_sq[i])) / 2.0:.3e} at t = {times[i]:g}"
        )
    return Trajectory(times=times, bloch=bloch)


def step_times(t_end: float, h: float) -> np.ndarray:
    """Uniform step grid 0, h, 2h, ... ending exactly at t_end.

    When t_end is not a multiple of h a shorter final interval is added;
    when it is (up to float noise) the last label is snapped to t_end.
    """
    _check_step(h)
    if not math.isfinite(t_end):
        raise NonFiniteInput(f"t_end must be finite, got {t_end}")
    if t_end <= 0:
        raise NegativeTime(f"t_end must be > 0, got {t_end}")
    n_full = int(math.floor(t_end / h + 1e-9))
    times = [i * h for i in range(n_full + 1)]
    if t_end - n_full * h > 1e-9:
        times.append(t_end)
    else:
        times[-1] = t_end
    return np.array(times)


def integrate(params: FeedbackParams, t_end: float, h: float = 1e-3) -> Trajectory:
    """RK4 trajectory from the pure initial state of angle alpha.

    Stores the state after every step (plus a shorter final step when
    t_end is not a multiple of h).  Raises PositivityLost if a step
    pushed the state out of the Bloch ball beyond representation
    tolerance (an eigenvalue below -1e-6 always does), which signals an
    unresolved step.
    """
    times = step_times(t_end, h)
    gen = generator(params)
    full = _increment(gen, h)
    last = _increment(gen, float(times[-1] - times[-2]))
    ys = [np.append(initial_state(params.alpha).bloch.as_array(), 1.0)]
    for _ in range(len(times) - 2):
        ys.append(ys[-1] + full @ ys[-1])
    ys.append(ys[-1] + last @ ys[-1])
    return _trajectory(times, np.array(ys))


def evolve_to_times(params: FeedbackParams, sample_times, h: float = 1e-3) -> Trajectory:
    """Integrate from t = 0 landing exactly on each requested time.

    Between consecutive sample times the integrator takes full steps of h
    plus one shorter remainder step, so arbitrary grids are hit without
    interpolation.  sample_times must be finite, strictly increasing and
    >= 0.
    """
    _check_step(h)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0:
        raise ValueError("sample_times must be non-empty")
    if not np.isfinite(sample_times).all():
        raise NonFiniteInput("sample_times must be finite")
    if sample_times[0] < 0:
        raise NegativeTime(f"t = {sample_times[0]}")
    if np.any(np.diff(sample_times) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    gen = generator(params)
    increments = {}
    y = np.append(initial_state(params.alpha).bloch.as_array(), 1.0)
    t = 0.0
    ys = []
    for target in sample_times:
        remaining = target - t
        while remaining > 1e-12:
            step = h if remaining >= h else remaining
            d = increments.get(step)
            if d is None:
                d = increments[step] = _increment(gen, step)
            y = y + d @ y
            t += step
            remaining = target - t
        t = target
        ys.append(y)
    return _trajectory(sample_times.copy(), np.array(ys))
