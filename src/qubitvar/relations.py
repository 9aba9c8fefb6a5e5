"""Uncertainty relations for a single qubit and the mixedness estimator.

Covers the variance product bounds (Robertson, Schrodinger, and the
mixedness-weighted bound), the variance-product equality whose remainder
is (1/8) M [xi(A,A) xi(B,B) - xi(A,B)^2], the entropic and sum relations
used as comparison baselines, and a finite-shot pathway that feeds
empirical moments into the mixedness formula.

Every relation is an array function over the Bloch closed forms of
core.  Each closed form is written once, as a private helper on checked
component-major rows or on their projections (|p|^2, a.p, |a|^2, a.b,
the triple product); gram_determinants and high_outcome_probabilities,
which the samplers and shot_counts call, are an input check plus such a
helper.  One row runs in Python floats and a stack in
columns, with the same bits; a checked row (a core._Row) reaches them
with no numpy conversion.  reports(p, a, b) is the one relation
route: it evaluates every side and bound of the relations over stacked
(state, A, B) rows, checking the state once and normalising each
observable once per call, which forms |a|^2 and |b|^2.  It projects the
state once onto a, b, a x b, a + b and the two unit axes (one _dot each
for a row, one block of three broadcast multiply-adds for a stack, with
the same bits) and builds every field from those projections;
tightness.ratios divides its fields.  mixedness_estimates
likewise checks collinearity, then the state, once each.  The
finite-shot pathway is stacked as well: meter_settings names the
settings, shot_counts draws one row of counts per seed, and
mixedness_estimates_from_counts reads estimates off them.  compute_report,
estimate_mixedness, estimate_mixedness_from_counts, simulate_shots and
symmetrized_product are one-row entry points over checked rows (core's
BlochVector, QubitState and PauliObservable build them), kept for the
benchmark's meter workload (perfbench MeterStream.read_one) until it
reads rows; they pass their rows straight in.  Nothing here is computed
through dense matrices.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .core import (
    _anticommutator_term, _any, _ball_components, _commutator_term, _components, _cross,
    _degenerate, _dot, _mixedness, _observable_row, _result, _scaled, _sqrt, _symmetrized,
    _unit_interval, _variance, _where, symmetrized_products
)
from .errors import CollinearObservables, DegenerateSpectrum, InvalidArgument

# Threshold on xi(A,A) xi(B,B) - xi(A,B)^2, in units of |a|^2 |b|^2 (as
# tightness.BOUND_FLOOR), separating genuine collinearity of the Pauli
# parts from rounding; so whether a pair is refused does not depend on
# the observables' units.
COLLINEAR_TOL = 1e-9

# Shots one simulated measurement may take.  Counts and their frequencies
# are computed as floats, which hold every integer only up to 2^53.
MAX_SHOTS = 2**53


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
    return _result(_gram(*_pair(_components(a, 4), _components(b, 4)))[0])


def _underflows(aa, bb):
    """Where a pair is zero in double precision: |a|^2 |b|^2 below the
    smallest normal float (core._degenerate), so the Gram determinant and
    every quantity of its size have lost digits to underflow."""
    return _degenerate(aa * bb)


def _noncollinear_gram(aa, bb, ab) -> np.ndarray:
    """The Gram determinant, checked by the one collinearity rule:
    CollinearObservables where |a|^2 |b|^2 underflows (_underflows) or the
    determinant is at most COLLINEAR_TOL |a|^2 |b|^2."""
    underflow = _underflows(aa, bb)
    if _any(underflow):
        raise CollinearObservables(
            f"|a|^2 |b|^2 = {np.extract(underflow, aa * bb)[0]:.3e} "
            "underflows the smallest normal float"
        )
    det, scale = _gram(aa, bb, ab)
    collinear = 16.0 * det <= COLLINEAR_TOL * scale
    if _any(collinear):
        raise CollinearObservables(f"gram determinant = {np.extract(collinear, det)[0]:.3e}")
    return det


def _axes(a) -> tuple[np.ndarray, np.ndarray]:
    """Unit Bloch axes and |a|^2 of component-major coefficient rows a.

    DegenerateSpectrum, before any other work, when some row is proportional to
    I: its Pauli part is zero in double precision (core._degenerate), at any units.
    """
    vec = a[:3]
    aa = _dot(vec, vec)
    norm = _sqrt(aa)
    closed = _degenerate(aa)
    if _any(closed):
        raise DegenerateSpectrum(
            "degenerate observable spectrum: "
            f"eigenvalue gap 2|a| = {2 * np.extract(closed, norm)[0]:.3e}"
        )
    return _scaled(vec, norm), aa


def _high_probability(projection) -> np.ndarray:
    """Probability of the high outcome along unit axes, from the state's projections on them."""
    return _unit_interval(0.5 * (1.0 + projection))


def _entropy(projection) -> np.ndarray:
    """Shannon entropy (bits) of the outcomes along unit axes, from the
    state's projections on them, with 0 log 0 = 0."""
    p_hi = _high_probability(projection)
    total = 0.0
    for prob in (p_hi, 1.0 - p_hi):
        prob = _where(prob > 0.0, prob, 1.0)  # 1 log 1 = 0 stands in for 0 log 0
        total = total - prob * np.log2(prob)
    return total


def high_outcome_probabilities(p, a) -> np.ndarray:
    """Probability of the a4 + |a| outcome when A is measured."""
    axis, _ = _axes(_components(a, 4))
    return _result(_high_probability(_dot(axis, _ball_components(p)[0])))


def mixedness_estimates(p, a, b) -> np.ndarray:
    """Mixedness from exact moments of two non-collinear observables.

    8 [varA varB - commutator term - covariance term] divided by the xi
    Gram determinant; equal to the mixedness for every valid input.
    CollinearObservables is checked before the state.
    """
    a, b = _components(a, 4), _components(b, 4)
    aa, bb, ab = _pair(a, b)
    det = _noncollinear_gram(aa, bb, ab)
    p = _ball_components(p)[0]
    ap, bp = _dot(a, p), _dot(b, p)
    excess = _variance(aa, ap) * _variance(bb, bp) - _commutator_term(a, b, p)
    return _result(8.0 * (excess - _anticommutator_term(ab, ap, bp)) / det)


def estimate_mixedness(state, obs_a, obs_b) -> float:
    """mixedness_estimates for one (state, A, B) triple of rows, as a float: a per-object form."""
    return float(mixedness_estimates(state, obs_a, obs_b))


# ---------------------------------------------------------------------------
# finite-shot estimator
# ---------------------------------------------------------------------------

def symmetrized_product(obs_a, obs_b):
    """The checked row of (AB + BA)/2 for two rows: the per-object form of symmetrized_products."""
    return _observable_row(symmetrized_products(obs_a, obs_b).tolist())


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
    """InvalidArgument unless shots is an integer (Python or numpy) in [1, MAX_SHOTS]."""
    if type(shots) is not int and not isinstance(shots, np.integer):
        raise InvalidArgument(f"shots must be an integer, got {shots!r}")
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
    try:
        n_seeds = len(seeds)
    except TypeError:
        raise InvalidArgument(f"seeds must be a sequence, one per row, got {seeds!r}") from None
    p_hi = high_outcome_probabilities(p, a)
    if p_hi.shape not in ((), (n_seeds,)):
        raise InvalidArgument(f"(state, A) rows of shape {p_hi.shape} for {n_seeds} seeds")
    probs = p_hi.tolist() if p_hi.ndim else [float(p_hi)] * n_seeds
    draws = [_generator(seed).binomial(shots, q) for seed, q in zip(seeds, probs)]
    high = np.array(draws, dtype=np.int64)
    return high, shots - high


def simulate_shots(state, obs, shots: int, seed) -> tuple[int, int]:
    """shot_counts for one (state, A) pair of rows and one seed, as ints:
    a per-object form, drawing as shot_counts does without building arrays."""
    _require_shots(shots)
    p_hi = float(high_outcome_probabilities(state, obs))
    n_hi = int(_generator(seed).binomial(shots, p_hi))
    return n_hi, shots - n_hi


def _frequencies(counts):
    """High-outcome frequencies and shot totals of (high, low) counts or count arrays.

    A pair of ints stays in Python ints: up to MAX_SHOTS, n_hi / shots
    has the bits it has on int64.  InvalidArgument where a count is not
    an integer (a bool included), and, naming the first offending row's
    counts, where a count is negative or a total is zero.
    """
    if type(counts[0]) is type(counts[1]) is int:
        n_hi, n_lo = counts
    else:
        # each count on its own: numpy would promote a bool beside an int
        n_hi, n_lo = np.asarray(counts[0]), np.asarray(counts[1])
        for n, given in ((n_hi, counts[0]), (n_lo, counts[1])):
            if n.dtype.kind not in "iu":
                raise InvalidArgument(f"counts must be integers, got {n.dtype} counts")
            # and so would a bool inside a sequence of ints
            if type(given) is not np.ndarray and any(
                isinstance(v, (bool, np.bool_)) for v in np.asarray(given, dtype=object).flat
            ):
                raise InvalidArgument(f"counts must be integers, got a bool in {given!r}")
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


def meter_settings(a, b) -> list:
    """[a, b, c]: the settings whose counts mixedness_estimates_from_counts takes.

    c is C = (AB + BA)/2 as coefficient rows (products of A's and B's, which may
    exceed what an observable accepts), or None when every row of C is proportional
    to I (core._degenerate).
    """
    c = symmetrized_products(a, b)
    vec = _components(c, 4)[:3]
    return [a, b, None if np.all(_degenerate(_dot(vec, vec))) else c]


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
    binomial variance of each outcome frequency.
    """
    a, b = _components(a, 4), _components(b, 4)
    aa, bb, ab = _pair(a, b)
    det = _noncollinear_gram(aa, bb, ab)
    setting_a = _moments(_sqrt(aa), a[3], *_frequencies(counts_a))
    setting_b = _moments(_sqrt(bb), b[3], *_frequencies(counts_b))
    c = _symmetrized(a, b, ab)
    cc = _dot(c, c)
    if counts_c is not None:
        setting_c = _moments(_sqrt(cc), c[3], *_frequencies(counts_c))
    elif np.all(_degenerate(cc)):
        setting_c = (c[3], 0.0, 0.0, 0.0, 0.0)  # C = c4 I: its moment is exact
    else:
        raise InvalidArgument(_OMITTED_C)
    estimate, se_sq = _delta_method(det, setting_a, setting_b, setting_c)
    return _result(estimate), _result(_sqrt(se_sq))


def estimate_mixedness_from_counts(counts_a, counts_b, counts_c, obs_a, obs_b) -> tuple:
    """mixedness_estimates_from_counts for one (A, B) pair of rows, as floats."""
    estimates = mixedness_estimates_from_counts(counts_a, counts_b, counts_c, obs_a, obs_b)
    return float(estimates[0]), float(estimates[1])


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def reports(p, a, b) -> dict[str, np.ndarray]:
    """Every side and bound of the relations for stacked (state, A, B) rows,
    keyed and ordered as the report command's fields.

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


def _projection_block(directions, p) -> np.ndarray:
    """x . p for each component-major direction x, as one (len(directions), ...)
    array: the directions' components broadcast to a common leading shape and
    stacked, then three broadcast multiply-adds.  Each projection has the
    bits _dot gives it, x0*p0 + x1*p1 + x2*p2 rounded term by term.
    """
    components = [c for x in directions for c in x[:3]]
    if len({getattr(x[0], "shape", ()) for x in directions}) > 1:  # a row beside a stack
        components = np.broadcast_arrays(*components)
    block = np.array(components)
    lead = block.shape[1:]
    # p's leading axes beyond the directions' come first, as in a broadcast
    block = block.reshape((len(directions), 3) + (1,) * (np.ndim(p[0]) - len(lead)) + lead)
    return block[:, 0] * p[0] + block[:, 1] * p[1] + block[:, 2] * p[2]


def _reports(p, a, b) -> tuple[dict, np.ndarray, tuple]:
    """reports(p, a, b), unbroadcast and one row's in Python numbers, the
    complementarity its entropy bound is read from, and the scales
    |a|^2, |b|^2 and |a + b|^2 of the rows.

    p is checked against the Bloch ball once, which forms |p|^2 for the
    mixedness; then each observable is normalised once (DegenerateSpectrum),
    which forms |a|^2 and |b|^2.
    p is projected once onto a, b, a x b, a + b and the two unit axes,
    one _dot each for one row in Python floats and one _projection_block
    otherwise, and every field reads those projections; a stack's two
    entropies come from one (2, ...) block.
    """
    p_c, pp = _ball_components(p)
    a_c, b_c = _components(a, 4), _components(b, 4)
    axis_a, aa = _axes(a_c)
    axis_b, bb = _axes(b_c)
    s_c = [x + y for x, y in zip(a_c, b_c)]  # component by component: the bits of a whole-row add
    ab, ss, cross = _dot(a_c, b_c), _dot(s_c, s_c), _cross(a_c, b_c)
    if type(p_c) is type(a_c) is type(b_c) is list:  # one row
        ap, bp, triple, sp = (_dot(a_c, p_c), _dot(b_c, p_c), _dot(cross, p_c),
                              _dot(s_c, p_c))
        entropies = _entropy(_dot(axis_a, p_c)), _entropy(_dot(axis_b, p_c))
    else:
        projections = _projection_block((a_c, b_c, cross, s_c, axis_a, axis_b), p_c)
        ap, bp, triple, sp = projections[:4]
        entropies = _entropy(projections[4:])
    var_a, var_b = _variance(aa, ap), _variance(bb, bp)
    rur = triple * triple
    product = var_a * var_b
    sur = rur + _anticommutator_term(ab, ap, bp)
    remainder = _mixedness(pp) * _gram(aa, bb, ab)[0] / 8.0  # (1/8) M G
    # the largest squared overlap of A's and B's eigenvectors
    complementarity = 0.5 * (1.0 + abs(_dot(axis_a, axis_b)))
    fields = dict(
        varA=var_a, varB=var_b, product=product, rur_bound=rur, sur_bound=sur,
        eq19_bound=rur + remainder, remainder=remainder,
        equality_residual=product - sur - remainder,
        sum_lhs=var_a + var_b, sum_bound=0.5 * _variance(ss, sp),
        entropy_sum=entropies[0] + entropies[1],
        entropy_bound=np.log2(1.0 / complementarity),
    )
    return fields, complementarity, (aa, bb, ss)


def compute_report(state, obs_a, obs_b) -> SimpleNamespace:
    """Every relation for one (state, A, B) triple of rows: the one-row form of
    reports, its fields as float attributes.

    Requires nondegenerate spectra for the entropic fields; the mixedness
    estimate is not part of the report because it can fail (collinear
    observables) while every bound here is always defined.
    """
    return SimpleNamespace(**{k: float(v) for k, v in _reports(state, obs_a, obs_b)[0].items()})
