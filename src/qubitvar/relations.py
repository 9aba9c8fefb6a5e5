"""Uncertainty relations for a single qubit and the mixedness estimator.

Covers the variance product bounds (Robertson, Schrodinger, and the
mixedness-weighted bound), the variance-product equality whose remainder
is (1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2], the entropic and sum relations
used as comparison baselines, and a finite-shot pathway that feeds
empirical moments into the mixedness formula.

Every relation is an array function over the Bloch closed forms of
core.  reports(p, a, b) is the one relation route: it evaluates every
side and bound of the relations over stacked (state, A, B) rows, and
tightness.ratios divides its fields.  compute_report is its one-row
form; it, estimate_mixedness and the finite-shot pathway are kept for
the per-object callers (the CLI and the meter).  Nothing here is
computed through dense matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PauliObservable, QubitState, _any, _ball_components, _components, _dot, anticommutator_terms,
    commutator_terms, mixedness_values, symmetrized_products, variances, xi_values
)
from .errors import CollinearObservables, DegenerateSpectrum, InvalidArgument

# An observable's two outcomes are distinguishable only if the eigenvalue
# gap 2|a| clears this; below it the spectrum counts as degenerate.
SPECTRUM_GAP_TOL = 1e-9

# Threshold on xi(A,A) xi(B,B) - xi(A,B)^2, in units of |a|^2 |b|^2 (as
# tightness.BOUND_FLOOR), separating genuine collinearity of the Pauli
# parts from rounding; so whether a pair is refused does not depend on
# the observables' units.
COLLINEAR_TOL = 1e-9

# Shots one simulated measurement may take.  Counts and their frequencies
# are computed as floats, which hold every integer only up to 2^53.
MAX_SHOTS = 2**53


@dataclass(frozen=True)
class RelationReport:
    """All bounds, the remainder and the residual for one (state, A, B) triple."""

    varA: float
    varB: float
    product: float
    rur_bound: float
    sur_bound: float
    eq19_bound: float
    remainder: float
    equality_residual: float
    sum_lhs: float
    sum_bound: float
    entropy_sum: float
    entropy_bound: float


# ---------------------------------------------------------------------------
# variance-product bounds and the equality
# ---------------------------------------------------------------------------

def _gram(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The Gram determinant and its scale xi(A,A) xi(B,B) = 16 |a|^2 |b|^2."""
    xi_ab = xi_values(a, b)
    scale = xi_values(a, a) * xi_values(b, b)
    return scale - xi_ab * xi_ab, scale


def gram_determinants(a, b) -> np.ndarray:
    """xi(A,A) xi(B,B) - xi(A,B)^2 = 16 |a x b|^2, zero iff Pauli parts collinear."""
    return _gram(a, b)[0]


def _noncollinear_gram(a, b) -> np.ndarray:
    """The Gram determinant, checked by the one collinearity rule:
    CollinearObservables where it is at most COLLINEAR_TOL |a|^2 |b|^2."""
    det, scale = _gram(a, b)
    collinear = 16.0 * det <= COLLINEAR_TOL * scale
    if _any(collinear):
        raise CollinearObservables(f"gram determinant = {np.extract(collinear, det)[0]:.3e}")
    return det


def equality_remainders(p, a, b) -> np.ndarray:
    """Mixedness-weighted remainder (1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2]."""
    return mixedness_values(p) * gram_determinants(a, b) / 8.0


def _degenerate(norm) -> bool:
    """The one degeneracy rule: some eigenvalue gap 2|a| <= SPECTRUM_GAP_TOL,
    i.e. some A is proportional to I."""
    return _any(2.0 * norm <= SPECTRUM_GAP_TOL)


def _axes(a) -> tuple[np.ndarray, np.ndarray]:
    """Unit Bloch axes (component-major) and |a|.

    DegenerateSpectrum, before any other work, when _degenerate(|a|).
    """
    vec = _components(a)[:3]
    norm = np.sqrt(_dot(vec, vec))
    if _degenerate(norm):
        raise DegenerateSpectrum(
            f"degenerate observable spectrum: eigenvalue gap 2|a| = {2 * np.min(norm):.3e}"
        )
    return vec / norm, norm


def high_outcome_probabilities(p, a) -> np.ndarray:
    """Probability of the a4 + |a| outcome when A is measured."""
    axis, _ = _axes(a)
    overlap = _dot(axis, _ball_components(p))
    return np.minimum(np.maximum(0.5 * (1.0 + overlap), 0.0), 1.0)


def measurement_entropies(p, a) -> np.ndarray:
    """Shannon entropy (bits) of the two-outcome distribution, with 0 log 0 = 0."""
    p_hi = high_outcome_probabilities(p, a)
    total = 0.0
    for prob in (p_hi, 1.0 - p_hi):
        prob = np.where(prob > 0.0, prob, 1.0)  # 1 log 1 = 0 stands in for 0 log 0
        total = total - prob * np.log2(prob)
    return total


def complementarities(a, b) -> np.ndarray:
    """Largest squared eigenvector overlap, (1 + |a_hat . b_hat|)/2 for a qubit."""
    axis_a, _ = _axes(a)
    axis_b, _ = _axes(b)
    return 0.5 * (1.0 + np.abs(_dot(axis_a, axis_b)))


def mixedness_estimates(p, a, b) -> np.ndarray:
    """Mixedness from exact moments of two non-collinear observables.

    8 [varA varB - commutator term - covariance term] divided by the xi
    Gram determinant; equal to the mixedness for every valid input.
    """
    det = _noncollinear_gram(a, b)
    numerator = (
        variances(p, a) * variances(p, b) - commutator_terms(p, a, b)
        - anticommutator_terms(p, a, b)
    )
    return 8.0 * numerator / det


def estimate_mixedness(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float:
    return float(mixedness_estimates(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs))


# ---------------------------------------------------------------------------
# finite-shot estimator
# ---------------------------------------------------------------------------

def symmetrized_product(obs_a: PauliObservable, obs_b: PauliObservable) -> PauliObservable:
    """Observable (AB + BA)/2, Hermitian by construction."""
    return PauliObservable(*symmetrized_products(obs_a.coeffs, obs_b.coeffs).tolist())


def simulate_shots(state: QubitState, obs: PauliObservable, shots: int, seed) -> tuple[int, int]:
    """Counts (high, low) of the a4 + |a| and a4 - |a| outcomes in i.i.d.
    projective measurements; deterministic for a fixed seed."""
    if shots < 1:
        raise InvalidArgument("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise InvalidArgument(f"{shots} shots are more than {MAX_SHOTS}")
    p_hi = float(high_outcome_probabilities(state.bloch.as_array(), obs.coeffs))
    n_hi = int(np.random.default_rng(seed).binomial(shots, p_hi))
    return n_hi, shots - n_hi


def _plug_in(coeffs, counts) -> tuple[float, float, float, float, float]:
    """Plug-in moments of one measured setting with spectrum a4 +- |a|.

    (mean, var, d mean/df, d var/df, Var f) for the empirical frequency f
    of the high outcome.  The variance is exact given f: a two-outcome
    observable's square is determined by its spectrum.  A degenerate
    setting (a = 0) reads its exact moment a4 with zero variance.
    """
    n_hi, n_lo = counts
    shots = n_hi + n_lo
    if n_hi < 0 or n_lo < 0 or shots == 0:
        raise InvalidArgument(f"counts must be non-negative with a positive total, got {counts}")
    a1, a2, a3, a4 = coeffs.tolist()
    norm = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    hi, lo = a4 + norm, a4 - norm
    f = n_hi / shots
    mean = hi * f + lo * (1.0 - f)
    var = hi**2 * f + lo**2 * (1.0 - f) - mean**2
    gap = hi - lo
    return mean, var, gap, (hi**2 - lo**2) - 2.0 * mean * gap, f * (1.0 - f) / shots


def estimate_mixedness_from_counts(
    counts_a: tuple[int, int],
    counts_b: tuple[int, int],
    counts_c: tuple[int, int] | None,
    obs_a: PauliObservable,
    obs_b: PauliObservable,
) -> tuple[float, float]:
    """Mixedness estimate and delta-method standard error from (high, low) counts.

    counts_a and counts_b come from measuring A and B; counts_c from
    C = (AB + BA)/2, whose mean gives the anticommutator moment.  When C
    is proportional to the identity (e.g. A = sx, B = sz) its moment is
    the exact scalar c4 and no shots are needed: pass counts_c = None.

    The commutator moment |<[A,B]>/(2i)|^2 lives on the Bloch axis
    a x b, which none of the three measurements touches, so this pathway
    cannot estimate it; it enters at its minimum-norm value, zero.  The
    estimate is therefore exact (up to shot noise) for states with no
    Bloch component along a x b and an upper bound on the mixedness
    otherwise.  Standard errors come from first-order propagation of the
    binomial outcome-frequency variances.
    """
    det = float(_noncollinear_gram(obs_a.coeffs, obs_b.coeffs))
    mean_a, var_a, dmean_a, dvar_a, varf_a = _plug_in(obs_a.coeffs, counts_a)
    mean_b, var_b, dmean_b, dvar_b, varf_b = _plug_in(obs_b.coeffs, counts_b)
    c = symmetrized_products(obs_a.coeffs, obs_b.coeffs)
    if counts_c is not None:
        mean_c, _, dmean_c, _, varf_c = _plug_in(c, counts_c)
    elif _degenerate(np.sqrt(_dot(c, c))):
        mean_c, dmean_c, varf_c = float(c[3]), 0.0, 0.0  # C = c4 I: its moment is exact
    else:
        raise InvalidArgument("counts_c may be omitted only when (AB+BA)/2 is proportional to I")

    covariance = mean_c - mean_a * mean_b
    estimate = 8.0 * (var_a * var_b - covariance**2) / det
    d_est_a = 8.0 * (dvar_a * var_b + 2.0 * covariance * dmean_a * mean_b) / det
    d_est_b = 8.0 * (dvar_b * var_a + 2.0 * covariance * dmean_b * mean_a) / det
    d_est_c = -16.0 * covariance * dmean_c / det
    se_sq = d_est_a**2 * varf_a + d_est_b**2 * varf_b + d_est_c**2 * varf_c
    return estimate, math.sqrt(se_sq)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def reports(p, a, b) -> dict[str, np.ndarray]:
    """Every side and bound of the relations for stacked (state, A, B) rows,
    keyed and ordered as the RelationReport fields.

    Rows broadcast as in core, and every field has their broadcast
    leading shape.  entropy_bound is 0 where the eigenbases coincide.
    Raises DegenerateSpectrum when A or B has a degenerate spectrum.
    """
    return _reports(p, a, b)[0]


def _reports(p, a, b) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """reports(p, a, b) and the complementarities its entropy bound is read
    from, in the shape of the (A, B) rows."""
    p, a, b = np.asarray(p, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    var_a, var_b = variances(p, a), variances(p, b)
    product = var_a * var_b
    rur = commutator_terms(p, a, b)
    sur = rur + anticommutator_terms(p, a, b)
    remainder = equality_remainders(p, a, b)
    fields = dict(
        varA=var_a, varB=var_b, product=product, rur_bound=rur, sur_bound=sur,
        eq19_bound=rur + remainder, remainder=remainder,
        equality_residual=product - sur - remainder,
        sum_lhs=var_a + var_b, sum_bound=0.5 * variances(p, a + b),
        entropy_sum=measurement_entropies(p, a) + measurement_entropies(p, b),
        entropy_bound=np.log2(1.0 / (complementarity := complementarities(a, b))),
    )
    for key in ("varA", "varB", "entropy_bound"):  # these lack the axes of rows they do not read
        if fields[key].shape != product.shape:
            fields[key] = np.broadcast_to(fields[key], product.shape)
    return fields, complementarity


def compute_report(
    state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable
) -> RelationReport:
    """Every relation for one (state, A, B) triple: the one-row form of reports.

    Requires nondegenerate spectra for the entropic fields; the mixedness
    estimate is not part of the report because it can fail (collinear
    observables) while every bound here is always defined.
    """
    fields = reports(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs)
    return RelationReport(**{k: float(v) for k, v in fields.items()})
