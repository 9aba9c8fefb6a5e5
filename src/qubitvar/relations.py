"""Uncertainty relations for a single qubit and the mixedness estimator.

Covers the variance product bounds (Robertson, Schrodinger, and the
mixedness-weighted bound), the variance-product equality whose remainder
is (1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2], the entropic and sum relations
used as comparison baselines, and a finite-shot pathway that feeds
empirical moments into the mixedness formula.

Every relation is an array function over the Bloch closed forms of
core.  Each closed form is written once, as a private helper on checked
component-major rows or on their projections (a.p, |a|^2, a.b, the
triple product); each public one-quantity function is its input check
plus that helper.  One row runs in Python floats and a stack in
columns, with the same bits.  reports(p, a, b) is the one relation
route: it evaluates every side and bound of the relations over stacked
(state, A, B) rows, checking the state once and normalising each
observable once per call, and builds every field from the shared
projections; tightness.ratios divides its fields.  mixedness_estimates
likewise checks collinearity, then the state, once each.  The
finite-shot pathway is stacked as well: shot_counts draws one row of
(high, low) counts per seed, and mixedness_estimates_from_counts reads
estimates and standard errors off count arrays.  For the per-object
callers (the CLI and the meter), compute_report, estimate_mixedness and
estimate_mixedness_from_counts are one-row calls of these, and
simulate_shots draws one row as shot_counts does.  Nothing here is
computed through dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PauliObservable, QubitState, _anticommutator_term, _any, _ball_components,
    _commutator_term, _components, _dot, _mixedness, _result, _scaled, _sqrt, _symmetrized,
    _unit_interval, _variance, _where, symmetrized_products
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

def _pair(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|a|^2, |b|^2 and a.b of component-major coefficient rows."""
    return _dot(a, a), _dot(b, b), _dot(a, b)


def _gram(aa, bb, ab) -> tuple[np.ndarray, np.ndarray]:
    """The Gram determinant and its scale xi(A,A) xi(B,B) = 16 |a|^2 |b|^2,
    from |a|^2, |b|^2 and a.b (xi(R,S) = 4 r.s)."""
    xi_ab = 4.0 * ab
    scale = (4.0 * aa) * (4.0 * bb)
    return scale - xi_ab * xi_ab, scale


def gram_determinants(a, b) -> np.ndarray:
    """xi(A,A) xi(B,B) - xi(A,B)^2 = 16 |a x b|^2, zero iff Pauli parts collinear."""
    return _result(_gram(*_pair(_components(a), _components(b)))[0])


def _noncollinear_gram(aa, bb, ab) -> np.ndarray:
    """The Gram determinant, checked by the one collinearity rule:
    CollinearObservables where it is at most COLLINEAR_TOL |a|^2 |b|^2."""
    det, scale = _gram(aa, bb, ab)
    collinear = 16.0 * det <= COLLINEAR_TOL * scale
    if _any(collinear):
        raise CollinearObservables(f"gram determinant = {np.extract(collinear, det)[0]:.3e}")
    return det


def _remainder(mixedness, det):
    """(1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2] from the mixedness and the Gram determinant."""
    return mixedness * det / 8.0


def equality_remainders(p, a, b) -> np.ndarray:
    """Mixedness-weighted remainder (1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2]."""
    mixedness = _mixedness(_ball_components(p))
    return _result(_remainder(mixedness, gram_determinants(a, b)))


def _moment_terms(p, a, b, aa, bb, ab) -> tuple[np.ndarray, ...]:
    """varA, varB and the commutator and anticommutator terms of checked
    component-major p, a, b, given _pair(a, b)."""
    ap, bp = _dot(a, p), _dot(b, p)
    return (
        _variance(aa, ap), _variance(bb, bp), _commutator_term(a, b, p),
        _anticommutator_term(ab, ap, bp),
    )


def _gap_closed(norm):
    """The one degeneracy rule, per row: the eigenvalue gap 2|a| is at most
    SPECTRUM_GAP_TOL, i.e. A is proportional to I."""
    return 2.0 * norm <= SPECTRUM_GAP_TOL


def _axes(a) -> tuple[np.ndarray, np.ndarray]:
    """Unit Bloch axes (component-major) and |a|.

    DegenerateSpectrum, before any other work, when some row's gap is closed.
    """
    vec = _components(a)[:3]
    norm = _sqrt(_dot(vec, vec))
    if _any(_gap_closed(norm)):
        raise DegenerateSpectrum(
            f"degenerate observable spectrum: eigenvalue gap 2|a| = {2 * np.min(norm):.3e}"
        )
    return _scaled(vec, norm), norm


def _high_probability(axis, p) -> np.ndarray:
    """Probability of the high outcome along unit axes, for checked component-major p."""
    return _unit_interval(0.5 * (1.0 + _dot(axis, p)))


def _entropy(axis, p) -> np.ndarray:
    """Shannon entropy (bits) of the outcomes along unit axes, with 0 log 0 = 0."""
    p_hi = _high_probability(axis, p)
    total = 0.0
    for prob in (p_hi, 1.0 - p_hi):
        prob = _where(prob > 0.0, prob, 1.0)  # 1 log 1 = 0 stands in for 0 log 0
        total = total - prob * np.log2(prob)
    return total


def _complementarity(axis_a, axis_b) -> np.ndarray:
    """(1 + |a_hat . b_hat|)/2 of unit axes."""
    return 0.5 * (1.0 + abs(_dot(axis_a, axis_b)))


def high_outcome_probabilities(p, a) -> np.ndarray:
    """Probability of the a4 + |a| outcome when A is measured."""
    axis, _ = _axes(a)
    return _result(_high_probability(axis, _ball_components(p)))


def measurement_entropies(p, a) -> np.ndarray:
    """Shannon entropy (bits) of the two-outcome distribution, with 0 log 0 = 0."""
    axis, _ = _axes(a)
    return _result(_entropy(axis, _ball_components(p)))


def complementarities(a, b) -> np.ndarray:
    """Largest squared eigenvector overlap, (1 + |a_hat . b_hat|)/2 for a qubit."""
    axis_a, _ = _axes(a)
    axis_b, _ = _axes(b)
    return _result(_complementarity(axis_a, axis_b))


def mixedness_estimates(p, a, b) -> np.ndarray:
    """Mixedness from exact moments of two non-collinear observables.

    8 [varA varB - commutator term - covariance term] divided by the xi
    Gram determinant; equal to the mixedness for every valid input.
    CollinearObservables is checked before the state.
    """
    a, b = _components(a), _components(b)
    aa, bb, ab = _pair(a, b)
    det = _noncollinear_gram(aa, bb, ab)
    var_a, var_b, rur, anti = _moment_terms(_ball_components(p), a, b, aa, bb, ab)
    return _result(8.0 * (var_a * var_b - rur - anti) / det)


def estimate_mixedness(state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable) -> float:
    return float(mixedness_estimates(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs))


# ---------------------------------------------------------------------------
# finite-shot estimator
# ---------------------------------------------------------------------------

def symmetrized_product(obs_a: PauliObservable, obs_b: PauliObservable) -> PauliObservable:
    """Observable (AB + BA)/2, Hermitian by construction."""
    return PauliObservable(*symmetrized_products(obs_a.coeffs, obs_b.coeffs).tolist())


def _generator(seed) -> np.random.Generator:
    """np.random.default_rng(seed), in the same state.

    An int seed, or a list or tuple of ints, each in [0, 2**32), is its
    own list of uint32 entropy words, so the SeedSequence is built from
    them directly: default_rng coerces each int in Python, most of the
    cost of a generator.  Any other seed goes to default_rng as it is,
    which accepts or refuses it as always.
    """
    words = [seed] if type(seed) is int else seed
    if type(words) in (list, tuple) and all(type(w) is int and 0 <= w < 2**32 for w in words):
        seed = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.default_rng(seed)


def _require_shots(shots: int) -> None:
    """InvalidArgument unless 1 <= shots <= MAX_SHOTS."""
    if shots < 1:
        raise InvalidArgument("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise InvalidArgument(f"{shots} shots are more than {MAX_SHOTS}")


def shot_counts(p, a, shots: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Counts (high, low) of the a4 + |a| and a4 - |a| outcomes in `shots`
    i.i.d. projective measurements, one row per seed.

    Row i is drawn from np.random.default_rng(seeds[i]).  One (state, A)
    row serves every seed; a stack of them has one row per seed.  Their
    outcome probabilities come from one call.  Deterministic for fixed
    seeds.
    """
    _require_shots(shots)
    p_hi = high_outcome_probabilities(p, a)
    if p_hi.shape not in ((), (len(seeds),)):
        raise InvalidArgument(f"(state, A) rows of shape {p_hi.shape} for {len(seeds)} seeds")
    probs = p_hi.tolist() if p_hi.ndim else [float(p_hi)] * len(seeds)
    draws = [_generator(seed).binomial(shots, q) for seed, q in zip(seeds, probs)]
    high = np.array(draws, dtype=np.int64)
    return high, shots - high


def simulate_shots(state: QubitState, obs: PauliObservable, shots: int, seed) -> tuple[int, int]:
    """shot_counts for one (state, A) row and one seed, as ints.

    Kept for the meter, which reads one triple at a time; it draws as
    shot_counts does without building arrays.
    """
    _require_shots(shots)
    p_hi = float(high_outcome_probabilities(state.bloch.as_array(), obs.coeffs))
    n_hi = int(_generator(seed).binomial(shots, p_hi))
    return n_hi, shots - n_hi


def _frequencies(counts):
    """High-outcome frequencies and shot totals of (high, low) counts or count arrays.

    A pair of ints stays in Python ints: up to MAX_SHOTS, n_hi / shots
    has the bits it has on int64.  InvalidArgument, naming the first
    offending row's counts, where a count is negative or a total is zero.
    """
    n_hi, n_lo = counts if type(counts[0]) is type(counts[1]) is int else np.asarray(counts)
    shots = n_hi + n_lo
    bad = (n_hi < 0) | (n_lo < 0) | (shots == 0)
    if _any(bad):
        raise InvalidArgument(
            "counts must be non-negative with a positive total, "
            f"got ({np.extract(bad, n_hi)[0]}, {np.extract(bad, n_lo)[0]})"
        )
    return n_hi / shots, shots


def _moments(norm, offset, f, shots) -> tuple:
    """Plug-in moments of measured settings with spectra offset +- norm.

    (mean, var, d mean/df, d var/df, Var f) for the empirical frequency f
    of the high outcome in `shots` measurements.  The variance is exact
    given f: a two-outcome observable's square is determined by its
    spectrum.  A degenerate setting (norm = 0) reads its exact moment,
    the offset, with zero variance.
    """
    hi, lo = offset + norm, offset - norm
    mean = hi * f + lo * (1.0 - f)
    var = hi * hi * f + lo * lo * (1.0 - f) - mean * mean
    gap = hi - lo
    return mean, var, gap, (hi * hi - lo * lo) - 2.0 * mean * gap, f * (1.0 - f) / shots


def _delta_method(det, setting_a, setting_b, setting_c) -> tuple:
    """Mixedness estimate and its squared standard error from the Gram
    determinant and the _moments of A, B and C."""
    mean_a, var_a, dmean_a, dvar_a, varf_a = setting_a
    mean_b, var_b, dmean_b, dvar_b, varf_b = setting_b
    mean_c, _, dmean_c, _, varf_c = setting_c
    covariance = mean_c - mean_a * mean_b
    estimate = 8.0 * (var_a * var_b - covariance * covariance) / det
    d_est_a = 8.0 * (dvar_a * var_b + 2.0 * covariance * dmean_a * mean_b) / det
    d_est_b = 8.0 * (dvar_b * var_a + 2.0 * covariance * dmean_b * mean_a) / det
    d_est_c = -16.0 * covariance * dmean_c / det
    se_sq = d_est_a * d_est_a * varf_a + d_est_b * d_est_b * varf_b + d_est_c * d_est_c * varf_c
    return estimate, se_sq


_OMITTED_C = "counts_c may be omitted only when (AB+BA)/2 is proportional to I"


def mixedness_estimates_from_counts(
    counts_a, counts_b, counts_c, a, b
) -> tuple[np.ndarray, np.ndarray]:
    """Mixedness estimates and delta-method standard errors from (high, low) counts.

    counts_a and counts_b come from measuring A and B; counts_c from
    C = (AB + BA)/2, whose mean gives the anticommutator moment.  When C
    is proportional to the identity (e.g. A = sx, B = sz) its moment is
    the exact scalar c4 and no shots are needed: pass counts_c = None.
    Each counts argument is a (high, low) pair of counts or of count
    arrays, as shot_counts returns; they broadcast with the A, B rows.

    The commutator moment |<[A,B]>/(2i)|^2 lives on the Bloch axis
    a x b, which none of the three measurements touches, so this pathway
    cannot estimate it; it enters at its minimum-norm value, zero.  The
    estimate is therefore exact (up to shot noise) for states with no
    Bloch component along a x b and an upper bound on the mixedness
    otherwise.  Standard errors come from first-order propagation of the
    binomial outcome-frequency variances.
    """
    a, b = _components(a), _components(b)
    aa, bb, ab = _pair(a, b)
    det = _noncollinear_gram(aa, bb, ab)
    setting_a = _moments(_sqrt(aa), a[3], *_frequencies(counts_a))
    setting_b = _moments(_sqrt(bb), b[3], *_frequencies(counts_b))
    c = _symmetrized(a, b, ab)
    norm_c = _sqrt(_dot(c, c))
    if counts_c is not None:
        setting_c = _moments(norm_c, c[3], *_frequencies(counts_c))
    elif np.all(_gap_closed(norm_c)):
        setting_c = (c[3], 0.0, 0.0, 0.0, 0.0)  # C = c4 I: its moment is exact
    else:
        raise InvalidArgument(_OMITTED_C)
    estimate, se_sq = _delta_method(det, setting_a, setting_b, setting_c)
    return _result(estimate), _result(_sqrt(se_sq))


def estimate_mixedness_from_counts(
    counts_a: tuple[int, int], counts_b: tuple[int, int], counts_c: tuple[int, int] | None,
    obs_a: PauliObservable, obs_b: PauliObservable,
) -> tuple[float, float]:
    """mixedness_estimates_from_counts for one (A, B) pair of objects, as floats."""
    estimate, std_error = mixedness_estimates_from_counts(
        counts_a, counts_b, counts_c, obs_a.coeffs, obs_b.coeffs
    )
    return float(estimate), float(std_error)


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
    fields = _reports(p, a, b)[0]
    product = fields["product"]
    if type(product) is not np.ndarray:  # one row
        return {k: _result(v) for k, v in fields.items()}
    for key in ("varA", "varB", "entropy_bound"):  # these lack the axes of rows they do not read
        if np.shape(fields[key]) != product.shape:
            fields[key] = np.broadcast_to(fields[key], product.shape)
    return fields


def _reports(p, a, b) -> tuple[dict, np.ndarray]:
    """reports(p, a, b), unbroadcast and one row's in Python numbers, and
    the complementarities its entropy bound is read from.

    p is checked against the Bloch ball once, then each observable is
    normalised once (DegenerateSpectrum); every field reads the shared
    projections.
    """
    p, a, b = np.asarray(p, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p_c = _ball_components(p)
    axis_a, _ = _axes(a)
    axis_b, _ = _axes(b)
    a_c, b_c, s_c = _components(a), _components(b), _components(a + b)
    aa, bb, ab = _pair(a_c, b_c)
    var_a, var_b, rur, anti = _moment_terms(p_c, a_c, b_c, aa, bb, ab)
    product = var_a * var_b
    sur = rur + anti
    remainder = _remainder(_mixedness(p_c), _gram(aa, bb, ab)[0])
    complementarity = _complementarity(axis_a, axis_b)
    fields = dict(
        varA=var_a, varB=var_b, product=product, rur_bound=rur, sur_bound=sur,
        eq19_bound=rur + remainder, remainder=remainder,
        equality_residual=product - sur - remainder,
        sum_lhs=var_a + var_b, sum_bound=0.5 * _variance(_dot(s_c, s_c), _dot(s_c, p_c)),
        entropy_sum=_entropy(axis_a, p_c) + _entropy(axis_b, p_c),
        entropy_bound=np.log2(1.0 / complementarity),
    )
    return fields, complementarity


def compute_report(
    state: QubitState, obs_a: PauliObservable, obs_b: PauliObservable
) -> RelationReport:
    """Every relation for one (state, A, B) triple: the one-row form of reports.

    Requires nondegenerate spectra for the entropic fields; the mixedness
    estimate is not part of the report because it can fail (collinear
    observables) while every bound here is always defined.
    """
    fields = _reports(state.bloch.as_array(), obs_a.coeffs, obs_b.coeffs)[0]
    return RelationReport(**{k: float(v) for k, v in fields.items()})
