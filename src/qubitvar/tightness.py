"""Tightness ratios of the three uncertainty relations and parameter sweeps.

Each ratio divides a relation's left side by its own lower bound, so 1
means saturation.  ti1 uses the mixedness-weighted variance bound, ti2
the entropic bound, ti3 the variance-sum bound.  Points where a bound
vanishes are undefined and carried as NaN, never raised.  ratios()
evaluates all three over a stack of Bloch vectors, one state in Python
floats, by dividing fields of relations.reports.  Sweeps walk an
(alpha, lambda, t) product grid in row-major order over states of the
feedback model, either from the closed-form solution or the
integrator, both called once on the broadcast (alpha, 1) and
(1, lambda) axes, evaluate the whole grid in one ratios() call and fill
one table with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OBS_X, OBS_Z, _observable_row, _result, _where
from .errors import InvalidArgument
from .feedback import analytic_bloch, evolve
from .relations import _reports, _underflows

# A bound at or below this, in the bound's own units (|a|^2 |b|^2 for ti1,
# |a + b|^2 for ti3), is treated as vanished and the ratio undefined; so
# whether a ratio is defined does not depend on the observables' scale.
BOUND_FLOOR = 1e-12
# ti2 is undefined when the eigenbases coincide (c -> 1, bound -> 0).
C_ONE_TOL = 1e-12
# Ordering-violation tolerance used by sweep sidecars.
ORDERING_TOL = 1e-9
# Points one sweep may evaluate: 400 times the 50 x 50 paper grid.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class GridAxis:
    """One axis of a sweep grid.

    steps == 1 pins the axis to the single value lo (== hi).  Open
    endpoints are sampled by distributing the requested number of points
    strictly inside the interval.  The points are built once, at
    construction: an axis of more than MAX_GRID_POINTS steps is refused
    before, and a swept axis whose points, its dropped endpoints among
    them, are not strictly increasing after.
    """

    lo: float
    hi: float
    steps: int
    include_lo: bool = True
    include_hi: bool = True

    def __post_init__(self):
        for name, end in (("lo", self.lo), ("hi", self.hi)):
            if type(end) not in (int, float) and not isinstance(end, (np.integer, np.floating)):
                raise InvalidArgument(f"axis end {name} must be a real number, got {end!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidArgument(f"axis ends must be finite, got [{self.lo}, {self.hi}]")
        if type(self.steps) is not int and not isinstance(self.steps, np.integer):
            raise InvalidArgument(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise InvalidArgument("steps must be >= 1")
        if self.steps > MAX_GRID_POINTS:  # no grid holds it: refused before any array is built
            raise InvalidArgument(f"an axis has at most {MAX_GRID_POINTS} points, "
                                  f"got steps = {self.steps}")
        if self.steps == 1:
            if self.lo != self.hi:
                raise InvalidArgument("a pinned axis (steps == 1) needs lo == hi")
            pts = np.array([self.lo])
        elif not self.lo < self.hi:
            raise InvalidArgument("swept axes need lo < hi")
        else:
            extra = (not self.include_lo) + (not self.include_hi)
            pts = np.linspace(self.lo, self.hi, self.steps + extra)
            if not (pts[1:] > pts[:-1]).all():
                raise InvalidArgument(f"the axis [{self.lo}, {self.hi}] is too narrow for "
                                      f"steps = {self.steps} distinct points")
            pts = pts[(not self.include_lo):len(pts) - (not self.include_hi)]
        pts.flags.writeable = False
        object.__setattr__(self, "_values", pts)

    def values(self) -> np.ndarray:
        """The axis points, one read-only array built once per axis."""
        return self._values


@dataclass(frozen=True)
class SweepGrid:
    """Product grid over (alpha, lambda, t) plus the observable pair, as
    coefficient rows (a1, a2, a3, a4), held as checked tuples of floats."""

    alpha_axis: GridAxis
    lambda_axis: GridAxis
    t_axis: GridAxis
    obs_a: tuple = OBS_X
    obs_b: tuple = OBS_Z

    def __post_init__(self):
        object.__setattr__(self, "obs_a", _observable_row(self.obs_a))
        object.__setattr__(self, "obs_b", _observable_row(self.obs_b))
        points = self.alpha_axis.steps * self.lambda_axis.steps * self.t_axis.steps
        if points > MAX_GRID_POINTS:
            raise InvalidArgument(f"the grid has {points} points, more than {MAX_GRID_POINTS}")
        if self.t_axis.lo < 0:
            raise InvalidArgument("t axis must start at >= 0")
        if self.lambda_axis.values().min() < 0:
            raise InvalidArgument("lambda axis must be non-negative")


def fig2_grid(steps: int = 50, lam: float = 1.0, t_max: float = 3.0,
              obs_a=OBS_X, obs_b=OBS_Z) -> SweepGrid:
    """(alpha, t) grid at fixed lambda: alpha in (0, pi), t in (0, t_max]."""
    return SweepGrid(
        alpha_axis=GridAxis(0.0, math.pi, steps, include_lo=False, include_hi=False),
        lambda_axis=GridAxis(lam, lam, 1),
        t_axis=GridAxis(0.0, t_max, steps, include_lo=False), obs_a=obs_a, obs_b=obs_b,
    )


def fig3_grid(steps: int = 50, alpha: float = math.pi / 4, t_max: float = 3.0,
              obs_a=OBS_X, obs_b=OBS_Z) -> SweepGrid:
    """(lambda, t) grid at fixed alpha: lambda in (0, 1], t in (0, t_max]."""
    return SweepGrid(
        alpha_axis=GridAxis(alpha, alpha, 1),
        lambda_axis=GridAxis(0.0, 1.0, steps, include_lo=False),
        t_axis=GridAxis(0.0, t_max, steps, include_lo=False), obs_a=obs_a, obs_b=obs_b,
    )


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

def _ratio(lhs: np.ndarray, bound: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """lhs / bound where defined, NaN elsewhere."""
    return _result(_where(defined, lhs / _where(defined, bound, 1.0), math.nan))


def ratios(p, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ti1, ti2, ti3 for each Bloch vector along the last axis of p; NaN = undefined.

    a and b are observable coefficient rows (a1, a2, a3, a4), one pair for
    all states or one per state.  Each ratio divides two fields of
    relations.reports.  ti1 is also undefined where |a|^2 |b|^2, the size
    of its bound, underflows (the estimators' pair rule).  Raises
    DegenerateSpectrum when A or B has a degenerate spectrum (ti2 needs
    both eigenbases).
    """
    fields, complementarity, (aa, bb, ss) = _reports(p, a, b)
    eq19, sum_bound = fields["eq19_bound"], fields["sum_bound"]
    distinct_bases = complementarity < 1.0 - C_ONE_TOL
    eq19_defined = _where(_underflows(aa, bb), False, eq19 > BOUND_FLOOR * aa * bb)
    return (
        _ratio(fields["product"], eq19, eq19_defined),
        _ratio(fields["entropy_sum"], fields["entropy_bound"], distinct_bases),
        _ratio(fields["sum_lhs"], sum_bound, sum_bound > BOUND_FLOOR * ss),
    )


# ---------------------------------------------------------------------------
# closed-form ti1 along the feedback model (A = sx, B = sz)
# ---------------------------------------------------------------------------

def ti1_analytic_lambda1(alpha: float, t: float) -> float:
    """ti1 at feedback strength 1 as a function of the initial angle and time.

    The published ratio of exp(6t)- and exp(7t)-sized terms, divided
    through by exp(7t) so no exponential grows with t; the denominator's
    cancellation as t -> 0 is carried by expm1 terms.
    """
    if not (math.isfinite(alpha) and math.isfinite(t)):
        raise InvalidArgument(f"alpha and t must be finite, got {alpha}, {t}")
    if t <= 0:
        raise InvalidArgument(f"t must be > 0, got {t}")
    if not math.isfinite(2 * alpha):
        raise InvalidArgument(f"alpha = {alpha} overflows the angle 2 alpha")
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
    if not (math.isfinite(lam) and math.isfinite(t)):
        raise InvalidArgument(f"lam and t must be finite, got {lam}, {t}")
    if t <= 0:
        raise InvalidArgument(f"t must be > 0, got {t}")
    if lam <= 0:
        raise InvalidArgument(f"lam must be > 0, got {lam}")
    g = 1.0 + 2.0 * lam * lam
    if not math.isfinite(g):
        raise InvalidArgument(f"lam = {lam} overflows the decay rate 1 + 2 lam^2")
    q = -math.expm1(-t)
    r = -math.expm1(-g * t) / g
    return q * (1.0 - r * r) / (q - r * r)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(grid: SweepGrid, source: str = "analytic", h: float = 1e-3) -> np.ndarray:
    """The three ratios at every grid point: a (points, 6) table, one row
    (alpha, lambda, t, ti1, ti2, ti3) per point, the sweep CSV's columns.

    Rows run alpha (outer), lambda, t (inner), so output order is
    deterministic regardless of how points are evaluated.  source
    selects the closed-form feedback solution or the RK4 integrator with
    step h; either takes the (alpha, 1) and (1, lambda) axes broadcast,
    every (alpha, lambda) pair in one call, at omega = 0.  The ratios of
    the whole grid come from one call, and one table is filled in place:
    the coordinates broadcast from the axes, then the ratio columns.
    Undefined ratios are NaN.
    """
    if source not in ("analytic", "numeric"):
        raise InvalidArgument(f"source must be 'analytic' or 'numeric', got {source!r}")
    alphas, lams, ts = (axis.values() for axis in (grid.alpha_axis, grid.lambda_axis, grid.t_axis))
    alpha, lam = alphas[:, None], lams[None, :]
    bloch = analytic_bloch(alpha, lam, ts) if source == "analytic" else evolve(alpha, lam, ts, h)
    cells = np.empty((len(alphas), len(lams), len(ts), 6))
    cells[..., 0], cells[..., 1], cells[..., 2] = alpha[..., None], lam[..., None], ts
    table = cells.reshape(-1, 6)
    # the table is flat, so the ratios take the states flat: the same bits
    # as the (alphas, lams, T, 3) stack without its per-call multi-axis overhead
    table[:, 3], table[:, 4], table[:, 5] = ratios(bloch.reshape(-1, 3), grid.obs_a, grid.obs_b)
    return table


def count_ordering_violations(table: np.ndarray) -> dict[str, int]:
    """Count sweep rows where ti1 exceeds ti2 or ti3 by more than ORDERING_TOL.

    Only rows with all three ratios defined participate, matching the
    comparison the sweep sidecar reports.
    """
    ti1, ti2, ti3 = table[:, 3:].T
    defined = ~np.isnan(ti1 + ti2 + ti3)
    ti1, ti2, ti3 = ti1[defined], ti2[defined], ti3[defined]
    return {
        "points_all_defined": len(ti1),
        "ti1_gt_ti2": int((ti1 > ti2 + ORDERING_TOL).sum()),
        "ti1_gt_ti3": int((ti1 > ti3 + ORDERING_TOL).sum()),
    }
