"""Uncertainty relations for a single qubit and the mixedness estimator.

Covers the variance product bounds (Robertson, Schrodinger, and the
mixedness-weighted bound), the variance-product equality whose remainder
is (1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2], the entropic and sum relations
used as comparison baselines, and a finite-shot pathway that feeds
empirical moments into the mixedness formula.

Every relation is an array function over the Bloch closed forms of
core.  The per-object entry points left (compute_report,
estimate_mixedness and the finite-shot pathway) serve the CLI and the
meter, one (state, A, B) triple at a time.  Nothing here is computed
through dense matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PauliObservable, QubitState, _any, _ball_components, _components, _dot, anticommutator_terms,
    commutator_terms, mixedness_values, symmetrized_products, variances, xi_values
)
from .errors import CollinearObservables, DegenerateSpectrum, TooMuchWork

# An observable's two outcomes are distinguishable only if the eigenvalue
# gap 2|a| clears this; below it the spectrum counts as degenerate.
SPECTRUM_GAP_TOL = 1e-9

# Threshold on xi(A,A) xi(B,B) - xi(A,B)^2 separating genuine collinearity
# of the Pauli parts from rounding.
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


@dataclass(frozen=True)
class MeasurementCounts:
    """Two-outcome counts from projective measurements of one observable."""

    observable: PauliObservable
    eigenvalues: tuple[float, float]
    counts: tuple[int, int]
    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.counts[0] + self.counts[1] != self.shots:
            raise ValueError("counts must sum to shots")

    def frequency(self) -> float:
        """Empirical frequency of the first (larger-eigenvalue) outcome."""
        return self.counts[0] / self.shots

    def mean(self) -> float:
        hi, lo = self.eigenvalues
        f = self.frequency()
        return hi * f + lo * (1.0 - f)

    def second_moment(self) -> float:
        # Exact given the frequencies: a two-outcome observable's square is
        # determined by its spectrum.
        hi, lo = self.eigenvalues
        f = self.frequency()
        return hi**2 * f + lo**2 * (1.0 - f)

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2


# ---------------------------------------------------------------------------
# variance-product bounds and the equality
# ---------------------------------------------------------------------------

def gram_determinants(a, b) -> np.ndarray:
    """xi(A,A) xi(B,B) - xi(A,B)^2 = 16 |a x b|^2, zero iff Pauli parts collinear."""
    xi_ab = xi_values(a, b)
    return xi_values(a, a) * xi_values(b, b) - xi_ab * xi_ab


def equality_remainders(p, a, b) -> np.ndarray:
    """Mixedness-weighted remainder (1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2]."""
    return mixedness_values(p) * gram_determinants(a, b) / 8.0


def mixedness_weighted_bounds(p, a, b) -> np.ndarray:
    """Mixedness-weighted lower bound: commutator term plus the remainder."""
    return commutator_terms(p, a, b) + equality_remainders(p, a, b)


def sum_relations(p, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Variance-sum relation: (varA + varB, var(A+B)/2)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return variances(p, a) + variances(p, b), 0.5 * variances(p, a + b)


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
        raise DegenerateSpectrum(f"eigenvalue gap 2|a| = {2 * np.min(norm):.3e}")
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


def eur_values(p, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Entropic relation: (H(A) + H(B), log2(1/c)).

    When the observables share an eigenbasis c = 1 and the bound is zero;
    downstream ratios must treat that point as undefined rather than divide.
    """
    entropy_sum = measurement_entropies(p, a) + measurement_entropies(p, b)
    return entropy_sum, np.log2(1.0 / complementarities(a, b))


def mixedness_estimates(p, a, b) -> np.ndarray:
    """Mixedness from exact moments of two non-collinear observables.

    8 [varA varB - commutator term - covariance term] divided by the xi
    Gram determinant; equal to the mixedness for every valid input.
    """
    det = gram_determinants(a, b)
    if _any(det <= COLLINEAR_TOL):
        raise CollinearObservables(f"gram determinant = {np.min(det):.3e}")
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


def simulate_shots(state: QubitState, obs: PauliObservable, shots: int, seed) -> MeasurementCounts:
    """Draw i.i.d. projective outcomes; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise TooMuchWork(f"{shots} shots are more than {MAX_SHOTS}")
    norm = float(_axes(obs.coeffs)[1])
    p_hi = float(high_outcome_probabilities(state.bloch.as_array(), obs.coeffs))
    n_hi = int(np.random.default_rng(seed).binomial(shots, p_hi))
    return MeasurementCounts(
        observable=obs,
        eigenvalues=(obs.a4 + norm, obs.a4 - norm),
        counts=(n_hi, shots - n_hi),
        shots=shots,
    )


def estimate_mixedness_from_counts(
    counts_a: MeasurementCounts,
    counts_b: MeasurementCounts,
    counts_c: MeasurementCounts | None,
    obs_a: PauliObservable,
    obs_b: PauliObservable,
) -> tuple[float, float]:
    """Mixedness estimate and delta-method standard error from counts.

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
    det = float(gram_determinants(obs_a.coeffs, obs_b.coeffs))
    if det <= COLLINEAR_TOL:
        raise CollinearObservables(f"gram determinant = {det:.3e}")

    if counts_c is not None:
        mean_c = counts_c.mean()
    else:
        obs_c = symmetrized_product(obs_a, obs_b)
        if not _degenerate(np.sqrt(_dot(obs_c.coeffs, obs_c.coeffs))):
            raise ValueError("counts_c may be omitted only when (AB+BA)/2 is proportional to I")
        mean_c = obs_c.a4  # C = c4 I: its moment is exact

    mean_a, var_a = counts_a.mean(), counts_a.variance()
    mean_b, var_b = counts_b.mean(), counts_b.variance()
    covariance = mean_c - mean_a * mean_b
    estimate = 8.0 * (var_a * var_b - covariance**2) / det

    def _freq_sensitivity(counts: MeasurementCounts) -> tuple[float, float, float]:
        # d mean / d f, d var / d f, and Var(f) for the plug-in frequency.
        hi, lo = counts.eigenvalues
        gap = hi - lo
        f = counts.frequency()
        dmean = gap
        dvar = (hi**2 - lo**2) - 2.0 * counts.mean() * gap
        var_f = f * (1.0 - f) / counts.shots
        return dmean, dvar, var_f

    dmean_a, dvar_a, varf_a = _freq_sensitivity(counts_a)
    dmean_b, dvar_b, varf_b = _freq_sensitivity(counts_b)
    d_est_a = 8.0 * (dvar_a * var_b + 2.0 * covariance * dmean_a * mean_b) / det
    d_est_b = 8.0 * (dvar_b * var_a + 2.0 * covariance * dmean_b * mean_a) / det
    se_sq = d_est_a**2 * varf_a + d_est_b**2 * varf_b
    if counts_c is not None:
        dmean_c, _, varf_c = _freq_sensitivity(counts_c)
        d_est_c = -16.0 * covariance * dmean_c / det
        se_sq += d_est_c**2 * varf_c
    return estimate, math.sqrt(se_sq)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def compute_report(
    state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable
) -> RelationReport:
    """Evaluate every relation for one (state, A, B) triple.

    Requires nondegenerate spectra for the entropic fields; the mixedness
    estimate is not part of the report because it can fail (collinear
    observables) while every bound here is always defined.
    """
    p, a, b = state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs
    var_a, var_b = float(variances(p, a)), float(variances(p, b))
    product = var_a * var_b
    rur = float(commutator_terms(p, a, b))
    sur = rur + float(anticommutator_terms(p, a, b))
    remainder = float(equality_remainders(p, a, b))
    sum_lhs, sum_bnd = sum_relations(p, a, b)
    entropy_sum, entropy_bnd = eur_values(p, a, b)
    return RelationReport(
        varA=var_a,
        varB=var_b,
        product=product,
        rur_bound=rur,
        sur_bound=sur,
        eq19_bound=rur + remainder,
        remainder=remainder,
        equality_residual=product - sur - remainder,
        sum_lhs=float(sum_lhs),
        sum_bound=float(sum_bnd),
        entropy_sum=float(entropy_sum),
        entropy_bound=float(entropy_bnd),
    )
