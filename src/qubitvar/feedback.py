"""Driven-damped qubit with homodyne-mediated feedback.

The model: a two-level atom (levels |0> ground, |1> excited) coupled to a
heavily damped cavity, reduced to an effective decay channel at unit rate,
plus a feedback Hamiltonian F = lam*sx conditioned on the homodyne current.
The master equation is

    drho/dt = -i [Omega*sx + (s+ F + F s-)/2, rho] + D(s- - iF) rho,

with D(O)rho = O rho O^dag - (O^dag O rho + rho O^dag O)/2 and
s- = |0><1|.  For Omega = 0 and a pure initial state
cos(alpha)|0> + sin(alpha)|1> the solution is closed-form; the excited
population rho11 relaxes to lam^2/(1 + 2 lam^2).  analytic_bloch()
evaluates it in real Bloch components over broadcast parameter arrays,
one expression exact for every lam >= 0.  A fixed-step RK4 integrator
covers the general case and cross-checks the closed form.

generator() writes the equation, linear in y = (px, py, pz, 1), as a real
4x4 L in closed form over parameter arrays; verify keeps the dense form as
an oracle.  RK4 on a linear equation with a fixed step h is one constant
map per parameter set: y <- S y with S = T4(hL) = I + D (the 4th-order
Taylor polynomial); L's last row is zero: no renormalisation.

evolve() is the one propagation path and steps a stack of parameter sets
together by one rule: floor(span/h + 1e-9) steps of h between stored
times (the rule step_times lays its grid by), then a remainder step if
more than 1e-12 is left.  The k full steps of an interval are one
product y <- S^k y, S^k built by repeated squaring and kept for the call,
so equal counts cost one build; a single step stays y <- y + D y, so a
run that stores every step takes each step as that sum.  A single run
takes scalar parameters: evolve(alpha, lam, step_times(t_end, h), h).

Every public function broadcasts (alpha, lam, omega) in front of its own
axes and checks them once per call by one rule, _parameters: one accept
test on the whole set (2 alpha + 2 lam^2 + 2 omega finite, lam and omega
>= 0), and only when it fails the per-name checks that name the refusal.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import _outside_ball
from .errors import InvalidArgument, PositivityLost

MAX_STEP = 1e-2
# Steps one trajectory may take: 200 times the default simulate run.
MAX_STEPS = 10**6
# Stored rows evolve checks against the Bloch ball at a time: a run that
# leaves the ball stops within this many intervals, and a run that stores
# every step pays one check per block, not one per step.
_CHECK_BLOCK = 128


def _parameters(alpha, lam, omega=0.0):
    """alpha, lam and omega broadcast to one float shape, refused unless
    finite, lam and omega >= 0, and the angle 2 alpha, the decay rate
    1 + 2 lam^2 and the drive 2 omega finite: one test accepts a set, and
    _refuse names the refusal only when that test fails."""
    values = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, lam, omega)))
    alpha, lam, omega = values
    with np.errstate(over="ignore", invalid="ignore"):
        accepted = (np.isfinite(2.0 * alpha + 2.0 * lam * lam + 2.0 * omega).all()
                    and (lam >= 0).all() and (omega >= 0).all())
    if not accepted:
        _refuse(values)
    return values


def _refuse(values) -> None:
    """InvalidArgument naming the first of the refusals _parameters makes;
    returns when there is none (a finite set whose sum overflows)."""
    for name, value in zip(("alpha", "lam", "omega"), values):
        bad = ~np.isfinite(value)
        if bad.any():
            raise InvalidArgument(f"{name} must be finite, got {value[bad][0]}")
    for name, value in zip(("lam", "omega"), values[1:]):
        if (value < 0).any():
            raise InvalidArgument(f"{name} must be >= 0")
    alpha, lam, omega = values
    with np.errstate(over="ignore"):
        derived = (2.0 * alpha, 2.0 * lam * lam, 2.0 * omega)
    for name, value, term, what in zip(("alpha", "lam", "omega"), values, derived,
                                       ("the angle 2 alpha", "the decay rate 1 + 2 lam^2",
                                        "the drive 2 omega")):
        overflow = ~np.isfinite(term)
        if overflow.any():
            raise InvalidArgument(f"{name} = {value[overflow][0]} overflows {what}")


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def generator(lam, omega=0.0) -> np.ndarray:
    """Real L with d/dt (p, 1) = L (p, 1), shape broadcast(lam, omega) + (4, 4).

    Up to a multiple of I the Hamiltonian is omega sx - (lam/2) sz: it
    rotates (py, pz) at 2 omega and (px, py) at lam.  The jump operator
    s- - i lam sx damps px at 1/2, py at 1/2 + 2 lam^2 and pz at
    1 + 2 lam^2 towards 1; its cross term turns the rotation's (px, py)
    coupling into px -> py at -2 lam alone.  So pz settles at 1/(1 + 2 lam^2).
    """
    return _generator(*_parameters(0.0, lam, omega)[1:])


def _generator(lam: np.ndarray, omega: np.ndarray) -> np.ndarray:
    heat = 2.0 * lam * lam
    gen = np.zeros(lam.shape + (4, 4))
    gen[..., 0, 0] = -0.5
    gen[..., 1, 0] = -2.0 * lam
    gen[..., 1, 1] = -(0.5 + heat)
    gen[..., 1, 2] = -2.0 * omega
    gen[..., 2, 1] = 2.0 * omega
    gen[..., 2, 2] = -(1.0 + heat)
    gen[..., 2, 3] = 1.0
    return gen


# ---------------------------------------------------------------------------
# closed-form solution (omega = 0)
# ---------------------------------------------------------------------------

def analytic_bloch(alpha, lam, t) -> np.ndarray:
    """Exact Bloch vectors for omega = 0, shape broadcast(alpha, lam) + shape(t) + (3,).

    With g = 1 + 2 lam^2 the solution from cos(alpha)|0> + sin(alpha)|1> is

        px = sin(2 alpha) exp(-t/2),
        py = px expm1(-2 lam^2 t) / lam     (exactly 0 where lam t = 0),
        pz = cos(2 alpha) exp(-g t) - expm1(-g t) / g
           = cos(2 alpha) + (cos(2 alpha) - 1/g) expm1(-g t),

    exact for every lam >= 0.  expm1 keeps the small-lam and small-t
    differences to full relative precision, and the second form of pz
    keeps the dark ground state (alpha = 0, lam = 0) at exactly pz = 1.
    """
    alpha, lam, _ = _parameters(alpha, lam)
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise InvalidArgument("t must be finite")
    if (t < 0).any():
        raise InvalidArgument(f"t must be >= 0, got {t.min()}")
    column = (...,) + (None,) * t.ndim
    lam = lam[column]
    sin2a = np.sin(2.0 * alpha)[column]
    cos2a = np.cos(2.0 * alpha)[column]
    heat = 2.0 * lam * lam
    g = 1.0 + heat
    px = np.exp(-t / 2.0) * sin2a
    # -g t may overflow to -inf, whose exponentials are the right limits;
    # where lam t = 0 (the 0/0 at lam = 0 among them) py is an unsigned 0
    with np.errstate(over="ignore", invalid="ignore"):
        py = np.where(lam * t > 0.0, px * np.expm1(-heat * t) / lam, 0.0)
        pz = cos2a + (cos2a - 1.0 / g) * np.expm1(-g * t)
    return np.stack([px, py, pz], axis=-1)


def steady_state(lam) -> np.ndarray:
    """Diagonal fixed point, shape(lam) + (3,): excited population lam^2/(1 + 2 lam^2).

    For lam = 0 the dynamics is pure decay and the ground state pz = 1
    is returned (the lam -> 0 limit of the formula).
    """
    heat = 2.0 * _parameters(0.0, lam)[1] ** 2
    return np.stack(np.broadcast_arrays(0.0, 0.0, 1.0 - heat / (1.0 + heat)), axis=-1)


# ---------------------------------------------------------------------------
# fixed-step RK4 integration
# ---------------------------------------------------------------------------

def _check_steps(t_end: float, h: float) -> None:
    """h within (0, MAX_STEP], and at most MAX_STEPS of it to a finite t_end."""
    if not (0.0 < h <= MAX_STEP):
        raise InvalidArgument(f"step must satisfy 0 < h <= {MAX_STEP:g}, got {h}")
    if _full_steps(float(t_end), h) > MAX_STEPS:
        raise InvalidArgument(f"t = {t_end:g} at step {h:g} needs more than {MAX_STEPS} steps")


def _increment(gen: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """T4(hL) - I by Horner for each h in steps, shape shape(steps) + gen.shape,
    so one RK4 step of h is y <- y + D @ y."""
    eye = np.eye(4)
    a = np.multiply.outer(steps, gen)
    d = eye
    for k in (4.0, 3.0, 2.0):
        d = eye + (a / k) @ d
    return a @ d


def _power(powers: dict, k: int) -> np.ndarray:
    """S^k by repeated squaring from powers, which holds S at 1 and keeps
    every power built, so a count met again costs nothing."""
    if k not in powers:
        half = _power(powers, k // 2)
        powers[k] = half @ half if k % 2 == 0 else half @ half @ powers[1]
    return powers[k]


def _full_steps(span, h: float):
    """Whole steps of h in span, forgiving float noise: the one step rule."""
    return np.floor(span / h + 1e-9)


def step_times(t_end: float, h: float) -> np.ndarray:
    """Uniform step grid 0, h, 2h, ... ending exactly at t_end.

    When t_end is not a multiple of h a shorter final interval is added;
    when it is (up to float noise) the last label is snapped to t_end.
    """
    if not math.isfinite(t_end):
        raise InvalidArgument(f"t_end must be finite, got {t_end}")
    if t_end <= 0:
        raise InvalidArgument(f"t_end must be > 0, got {t_end}")
    _check_steps(t_end, h)
    n_full = int(_full_steps(t_end, h))
    times = [i * h for i in range(n_full + 1)]
    if t_end - n_full * h > 1e-9:
        times.append(t_end)
    else:
        times[-1] = t_end
    return np.array(times)


def evolve(alpha, lam, sample_times, h: float = 1e-3, omega=0.0) -> np.ndarray:
    """Bloch vectors of each parameter set at each sample time,
    shape broadcast(alpha, lam, omega) + (T, 3).

    All sets start from cos(alpha)|0> + sin(alpha)|1> at t = 0 and step
    together, with full steps of h and a shorter remainder step between
    consecutive sample times (finite, strictly increasing, >= 0), so any
    grid is hit without interpolation.  An interval's k > 1 full steps
    are applied as one product with the k-th power of the step map.
    Raises PositivityLost at the earliest stored time at which a state
    lies outside the Bloch ball beyond representation tolerance (an
    eigenvalue below -1e-6 always does), the sign of an unresolved step;
    stored rows are checked every _CHECK_BLOCK intervals, and stepping
    stops at the first block holding such a row.  A step that overflows
    carries states to inf or NaN, so the warnings on the way are silenced,
    and the refusal of a state whose |p|^2 is not finite names the step h
    and the parameter set.
    """
    alpha, lam, omega = _parameters(alpha, lam, omega)
    times = np.array(sample_times, dtype=float)
    if times.ndim != 1:
        raise InvalidArgument(f"sample_times must be 1-D, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise InvalidArgument("sample_times must be finite")
    edges = np.concatenate(([0.0], times))
    spans = edges[1:] - edges[:-1]
    if times.size == 0 or (spans[1:] <= 0).any():
        raise InvalidArgument("sample_times must be non-empty and strictly increasing")
    if times[0] < 0:
        raise InvalidArgument(f"t must be >= 0, got {times[0]}")
    _check_steps(times[-1], h)
    with np.errstate(over="ignore", invalid="ignore"):
        counts = _full_steps(spans, h)
        rests = spans - counts * h
        has_rest = rests > 1e-12
        increments = _increment(_generator(lam, omega), np.concatenate(([h], rests[has_rest])))
        full, rest_increments = increments[0], iter(increments[1:])
        powers = {1: np.eye(4) + full}
        y = np.zeros(alpha.shape + (4, 1))
        y[..., 0, 0] = np.sin(2.0 * alpha)
        y[..., 2, 0] = np.cos(2.0 * alpha)
        y[..., 3, 0] = 1.0
        # each block (..., 3, rows) read component-major: (3, ..., rows)
        components = (alpha.ndim, *range(alpha.ndim), alpha.ndim + 1)
        intervals = zip(counts.astype(int).tolist(), has_rest.tolist())
        blocks = []
        for start in range(0, len(times), _CHECK_BLOCK):
            ys = []
            for count, rest in itertools.islice(intervals, _CHECK_BLOCK):
                if count == 1:
                    y = y + full @ y
                elif count:
                    y = _power(powers, count) @ y
                if rest:
                    y = y + next(rest_increments) @ y
                ys.append(y)
            blocks.append(np.concatenate(ys, axis=-1)[..., :3, :])  # (..., 3, rows)
            norm_sq, outside = _outside_ball(blocks[-1].transpose(components))
            if outside.any():
                break
    if outside.any():
        outside, norm_sq = outside.reshape(-1, len(ys)), norm_sq.reshape(-1, len(ys))
        i = int(np.argmax(outside.any(axis=0)))  # outside is (sets, rows): earliest row
        k = int(np.argmax(outside[:, i]))
        named = tuple(float(v.flat[k]) for v in (alpha, lam, omega))
        at, where = f"at t = {times[start + i]:g}", f" for (alpha, lam, omega) = {named}"
        if not math.isfinite(norm_sq[k, i]):  # the step map overflowed: name what set it
            raise PositivityLost(f"the step h = {h:g} overflows the state {at}{where}")
        eigenvalue = (1.0 - math.sqrt(norm_sq[k, i])) / 2.0
        where = where if alpha.size > 1 else ""
        raise PositivityLost(f"min eigenvalue {eigenvalue:.3e} {at}{where}")
    return np.ascontiguousarray(np.concatenate(blocks, axis=-1).swapaxes(-1, -2))
