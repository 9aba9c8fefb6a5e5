"""Tightness ratios of the three uncertainty relations and parameter sweeps.

Each ratio divides a relation's left side by its own lower bound, so 1
means saturation.  ti1 uses the mixedness-weighted variance bound, ti2
the entropic bound, ti3 the variance-sum bound.  Points where a bound
vanishes are undefined and carried as None (NaN in arrays), never
raised.  ratios() evaluates all three over a stack of Bloch vectors;
ti1/ti2/ti3 are its n = 1 forms.  Sweeps walk an (alpha, lambda, t)
product grid in row-major order over states of the feedback model,
either from the closed-form solution or the integrator, and evaluate
the whole grid in one ratios() call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OBS_X, OBS_Z, PauliObservable, QubitState, _coeffs, _dot, bloch_array, variances
from .errors import NonFiniteInput, NonPositiveLambda, NonPositiveTime
from .feedback import FeedbackParams, analytic_bloch, evolve_to_times
from .relations import complementarities, eur_values, mixedness_weighted_bounds, sum_relations

# A bound at or below this, in the bound's own units (|a|^2 |b|^2 for ti1,
# |a + b|^2 for ti3), is treated as vanished and the ratio undefined; so
# whether a ratio is defined does not depend on the observables' scale.
BOUND_FLOOR = 1e-12
# ti2 is undefined when the eigenbases coincide (c -> 1, bound -> 0).
C_ONE_TOL = 1e-12
# Ordering-violation tolerance used by sweep sidecars.
ORDERING_TOL = 1e-9


@dataclass(frozen=True)
class TightnessPoint:
    """Tightness values at one (alpha, t, lambda) grid point; None = undefined."""

    alpha: float
    t: float
    lam: float
    ti1: float | None
    ti2: float | None
    ti3: float | None


@dataclass(frozen=True)
class GridAxis:
    """One axis of a sweep grid.

    steps == 1 pins the axis to the single value lo (== hi).  Open
    endpoints are sampled by distributing the requested number of points
    strictly inside the interval.
    """

    lo: float
    hi: float
    steps: int
    include_lo: bool = True
    include_hi: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps == 1:
            if self.lo != self.hi:
                raise ValueError("a pinned axis (steps == 1) needs lo == hi")
        elif not self.lo < self.hi:
            raise ValueError("swept axes need lo < hi")

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.lo])
        extra = (not self.include_lo) + (not self.include_hi)
        pts = np.linspace(self.lo, self.hi, self.steps + extra)
        if not self.include_lo:
            pts = pts[1:]
        if not self.include_hi:
            pts = pts[:-1]
        return pts


@dataclass(frozen=True)
class SweepGrid:
    """Product grid over (alpha, lambda, t) plus the observable pair."""

    alpha_axis: GridAxis
    lambda_axis: GridAxis
    t_axis: GridAxis
    obs_a: PauliObservable = OBS_X
    obs_b: PauliObservable = OBS_Z

    def __post_init__(self):
        if self.t_axis.lo < 0:
            raise ValueError("t axis must start at >= 0")
        if self.lambda_axis.values().min() < 0:
            raise ValueError("lambda axis must be non-negative")


def fig2_grid(steps: int = 50, lam: float = 1.0, t_max: float = 3.0) -> SweepGrid:
    """(alpha, t) grid at fixed lambda: alpha in (0, pi), t in (0, t_max]."""
    return SweepGrid(
        alpha_axis=GridAxis(0.0, math.pi, steps, include_lo=False, include_hi=False),
        lambda_axis=GridAxis(lam, lam, 1),
        t_axis=GridAxis(0.0, t_max, steps, include_lo=False),
    )


def fig3_grid(steps: int = 50, alpha: float = math.pi / 4, t_max: float = 3.0) -> SweepGrid:
    """(lambda, t) grid at fixed alpha: lambda in (0, 1], t in (0, t_max]."""
    return SweepGrid(
        alpha_axis=GridAxis(alpha, alpha, 1),
        lambda_axis=GridAxis(0.0, 1.0, steps, include_lo=False),
        t_axis=GridAxis(0.0, t_max, steps, include_lo=False),
    )


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

def _ratio(lhs: np.ndarray, bound: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """lhs / bound where defined, NaN elsewhere."""
    return np.where(defined, lhs / np.where(defined, bound, 1.0), np.nan)


def _ti1(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Variance product over the mixedness-weighted bound."""
    a_t, b_t = _coeffs(a), _coeffs(b)
    bound = mixedness_weighted_bounds(p, a, b)
    floor = BOUND_FLOOR * _dot(a_t, a_t) * _dot(b_t, b_t)
    return _ratio(variances(p, a) * variances(p, b), bound, bound > floor)


def _ti2(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entropy sum over log2(1/c); undefined where the eigenbases coincide (c = 1)."""
    distinct_bases = complementarities(a, b) < 1.0 - C_ONE_TOL
    return _ratio(*eur_values(p, a, b), distinct_bases)


def _ti3(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Variance sum over var(A+B)/2."""
    lhs, bound = sum_relations(p, a, b)
    ab = _coeffs(a) + _coeffs(b)
    return _ratio(lhs, bound, bound > BOUND_FLOOR * _dot(ab, ab))


def ratios(p, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ti1, ti2, ti3 for each Bloch vector along the last axis of p; NaN = undefined.

    a and b are observable coefficient rows (a1, a2, a3, a4), one pair for
    all states or one per state.  Raises DegenerateSpectrum like ti2.
    """
    p = bloch_array(p)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _ti1(p, a, b), _ti2(p, a, b), _ti3(p, a, b)


def _optional(value: np.ndarray) -> float | None:
    value = float(value)
    return None if math.isnan(value) else value


def ti1(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float | None:
    """Variance product over the mixedness-weighted bound; None if the bound vanishes."""
    return _optional(_ti1(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs))


def ti2(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float | None:
    """Entropy sum over log2(1/c); None when the eigenbases coincide (c = 1)."""
    return _optional(_ti2(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs))


def ti3(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float | None:
    """Variance sum over var(A+B)/2; None if that bound vanishes."""
    return _optional(_ti3(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs))


# ---------------------------------------------------------------------------
# closed-form ti1 along the feedback model (A = sx, B = sz)
# ---------------------------------------------------------------------------

def ti1_analytic_lambda1(alpha: float, t: float) -> float:
    """ti1 at feedback strength 1 as a function of the initial angle and time.

    The published ratio of exp(6t)- and exp(7t)-sized terms, divided
    through by exp(7t) so no exponential grows with t; the denominator's
    cancellation as t -> 0 is carried by expm1 terms.
    """
    if t <= 0:
        raise NonPositiveTime(f"t = {t}")
    cos2a = math.cos(2 * alpha)
    sin2a_sq = math.sin(2 * alpha) ** 2
    w = 3.0 * cos2a - 1.0
    x = math.exp(-3.0 * t)
    num = math.exp(-t) * (1.0 + x * w) ** 2 * sin2a_sq
    den = -9.0 * sin2a_sq * math.expm1(-t) - w * math.expm1(-3.0 * t) * (3.0 * cos2a + 1.0 + x * w)
    return 1.0 + num / den


def ti1_analytic_alpha_pi4(lam: float, t: float) -> float:
    """ti1 for the equal-superposition initial state as a function of (lambda, t).

    With q = 1 - exp(-t), g = 1 + 2 lam^2 and r = (1 - exp(-g t))/g this
    is q (1 - r^2)/(q - r^2): the published ratio with its dominant
    exponential exp(2 g t) divided out.
    """
    if t <= 0:
        raise NonPositiveTime(f"t = {t}")
    if lam <= 0:
        raise NonPositiveLambda(f"lam = {lam}")
    g = 1.0 + 2.0 * lam * lam
    if not math.isfinite(g):
        raise NonFiniteInput(f"lam = {lam} overflows the decay rate 1 + 2 lam^2")
    q = -math.expm1(-t)
    r = -math.expm1(-g * t) / g
    return q * (1.0 - r * r) / (q - r * r)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(grid: SweepGrid, source: str = "analytic", h: float = 1e-3) -> list[TightnessPoint]:
    """Evaluate the three ratios at every grid point, row-major.

    Iteration order is alpha (outer), lambda, t (inner), so output order
    is deterministic regardless of how points are evaluated.  source
    selects the closed-form feedback solution or the RK4 integrator with
    step h; both run at omega = 0.  The Bloch vectors of every (alpha,
    lambda) row are stacked and the ratios computed in one call.
    Undefined ratios become None.
    """
    if source not in ("analytic", "numeric"):
        raise ValueError(f"source must be 'analytic' or 'numeric', got {source!r}")
    ts = grid.t_axis.values()
    rows = [
        FeedbackParams(alpha=alpha, lam=lam)
        for alpha in grid.alpha_axis.values().tolist() for lam in grid.lambda_axis.values().tolist()
    ]
    if source == "analytic":
        bloch = [analytic_bloch(params, ts) for params in rows]
    else:
        bloch = [evolve_to_times(params, ts, h=h).bloch for params in rows]
    values = np.column_stack(ratios(np.concatenate(bloch), grid.obs_a.coeffs, grid.obs_b.coeffs))
    coords = [(params.alpha, t, params.lam) for params in rows for t in ts.tolist()]
    return [
        TightnessPoint(*point, *(None if math.isnan(r) else r for r in ratio_row))
        for point, ratio_row in zip(coords, values.tolist())
    ]


def count_ordering_violations(
    points: list[TightnessPoint], tol: float = ORDERING_TOL
) -> dict[str, int]:
    """Count grid points where ti1 exceeds ti2 or ti3 beyond tol.

    Only points with all three ratios defined participate, matching the
    comparison the sweep sidecar reports.
    """
    defined = [p for p in points if None not in (p.ti1, p.ti2, p.ti3)]
    return {
        "points_all_defined": len(defined),
        "ti1_gt_ti2": sum(p.ti1 > p.ti2 + tol for p in defined),
        "ti1_gt_ti3": sum(p.ti1 > p.ti3 + tol for p in defined),
    }
