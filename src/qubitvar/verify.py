"""Named invariant checks behind the `verify` CLI command.

CHECKS is the one registry of the library's invariants: each entry is a
seeded, sample-count-configurable check returning its worst observed
residual, and the test suite runs every entry at its default sample
count with seed 0.  Every check evaluates package code, through the
array route wherever one exists; none checks the dense oracle alone.
Oracles are built from stacked dense 2x2 matrices, independent of the
Bloch closed forms the library computes with, and several checks also
push a slice of the samples through the public per-object operations,
so both the math and the API surface are exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import feedback, relations, tightness
from .core import (
    BlochVector, GeneralState, IDENTITY, OBS_X, OBS_Z, PAULI_X, PAULI_Y, PAULI_Z,
    PauliObservable, QubitState, anticommutator_term, anticommutator_terms, bloch_to_matrix,
    commutator_term, commutator_terms, decompose_observable, density_matrices, matrix_to_bloch,
    mixedness_general, mixedness_values, random_bloch_vectors, variance, variances, xi,
    xi_values
)

_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z, IDENTITY])


@dataclass
class CheckResult:
    name: str
    samples: int
    worst: float
    threshold: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status} {self.name}: samples={self.samples} "
            f"worst={self.worst:.3e} threshold={self.threshold:.3e}"
        )
        if self.note:
            out += f" ({self.note})"
        return out


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _batch_obs(coeffs: np.ndarray) -> np.ndarray:
    return np.einsum("nk,kij->nij", coeffs, _PAULIS)


def _btr(mats: np.ndarray) -> np.ndarray:
    return np.einsum("nii->n", mats).real


def _batch_terms(rho: np.ndarray, a_mat: np.ndarray, b_mat: np.ndarray) -> dict[str, np.ndarray]:
    """All equality ingredients from stacked matrices (oracle route)."""
    mean_a = _btr(rho @ a_mat)
    mean_b = _btr(rho @ b_mat)
    var_a = _btr(rho @ (a_mat @ a_mat)) - mean_a**2
    var_b = _btr(rho @ (b_mat @ b_mat)) - mean_b**2
    comm = np.abs(np.einsum("nii->n", rho @ (a_mat @ b_mat - b_mat @ a_mat))) ** 2 / 4.0
    anti = (_btr(rho @ (a_mat @ b_mat + b_mat @ a_mat)) / 2.0 - mean_a * mean_b) ** 2
    tr_a, tr_b = _btr(a_mat), _btr(b_mat)
    xi_aa = 2.0 * _btr(a_mat @ a_mat) - tr_a**2
    xi_bb = 2.0 * _btr(b_mat @ b_mat) - tr_b**2
    xi_ab = 2.0 * _btr(a_mat @ b_mat) - tr_a * tr_b
    mixed = 1.0 - _btr(rho @ rho)
    return {
        "var_a": var_a,
        "var_b": var_b,
        "comm": comm,
        "anti": anti,
        "gram": xi_aa * xi_bb - xi_ab**2,
        "mixedness": mixed,
    }


def _sample_triples(rng, n: int, span: float = 5.0, kind: str = "mixed"):
    p = random_bloch_vectors(rng, n, kind)
    a = rng.uniform(-span, span, size=(n, 4))
    b = rng.uniform(-span, span, size=(n, 4))
    return p, a, b


# ---------------------------------------------------------------------------
# qubit_core invariants
# ---------------------------------------------------------------------------

def check_bloch_matrix_roundtrip(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 1)
    vectors = random_bloch_vectors(rng, samples, "mixed")
    worst = 0.0
    for p in vectors:
        state = bloch_to_matrix(p)
        back = matrix_to_bloch(state.matrix)
        worst = max(worst, np.abs(back.as_array() - p).max())
    return CheckResult("bloch_matrix_roundtrip", samples, worst, 1e-12, worst <= 1e-12)


def check_observable_roundtrip(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(samples):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        herm = (g + g.conj().T) * 2.5
        back = decompose_observable(herm).matrix
        worst = max(worst, np.abs(back - herm).max())
    return CheckResult("observable_decompose_roundtrip", samples, worst, 1e-12, worst <= 1e-12)


def check_variance_shift_invariance(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 3)
    p, a, _ = _sample_triples(rng, samples)
    shifted = a + np.outer(rng.uniform(-10, 10, size=samples), [0.0, 0.0, 0.0, 1.0])
    worst = float(np.abs(variances(p, shifted) - variances(p, a)).max())
    return CheckResult("variance_shift_invariance", samples, worst, 1e-12, worst <= 1e-12)


def check_mixedness_definition(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 4)
    vectors = random_bloch_vectors(rng, samples, "mixed")
    rho = density_matrices(vectors)
    worst = float(np.abs(mixedness_values(vectors) - (1.0 - _btr(rho @ rho))).max())
    return CheckResult("mixedness_trace_definition", samples, worst, 1e-12, worst <= 1e-12)


def check_closed_forms(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 5)
    # span 2 keeps the squared terms at O(10), where a 1e-12 absolute
    # agreement floor is above double-precision noise
    p, a, b = _sample_triples(rng, samples, span=2.0)
    oracle = _batch_terms(density_matrices(p), _batch_obs(a), _batch_obs(b))
    worst = max(
        float(np.abs(variances(p, a) - oracle["var_a"]).max()),
        float(np.abs(commutator_terms(p, a, b) - oracle["comm"]).max()),
        float(np.abs(anticommutator_terms(p, a, b) - oracle["anti"]).max()),
    )
    for i in range(min(samples, 2000)):
        state = QubitState(BlochVector(*map(float, p[i])))
        oa, ob = PauliObservable(*map(float, a[i])), PauliObservable(*map(float, b[i]))
        worst = max(
            worst,
            abs(variance(state, oa) - oracle["var_a"][i]),
            abs(commutator_term(state, oa, ob) - oracle["comm"][i]),
            abs(anticommutator_term(state, oa, ob) - oracle["anti"][i]),
        )
    return CheckResult("bloch_closed_forms_vs_matrices", samples, worst, 1e-12, worst <= 1e-12)


def check_trace_identities(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 6)
    _, a, b = _sample_triples(rng, samples)
    am, bm = _batch_obs(a), _batch_obs(b)
    dense_xi = 2.0 * _btr(am @ bm) - _btr(am) * _btr(bm)
    worst = max(
        float(np.abs(_btr(am @ am) - 2.0 * (a * a).sum(axis=1)).max()),
        float(np.abs(_btr(bm @ bm) - 2.0 * (b * b).sum(axis=1)).max()),
        float(np.abs(_btr(am) - 2.0 * a[:, 3]).max()),
        float(np.abs(_btr(bm) - 2.0 * b[:, 3]).max()),
        float(np.abs(_btr(am @ bm) - 2.0 * (a * b).sum(axis=1)).max()),
        float(np.abs(xi_values(a, b) - dense_xi).max()),
    )
    for i in range(min(samples, 2000)):
        oa, ob = PauliObservable(*map(float, a[i])), PauliObservable(*map(float, b[i]))
        worst = max(worst, abs(xi(oa, ob) - dense_xi[i]))
    return CheckResult("observable_trace_identities", samples, worst, 1e-12, worst <= 1e-12)


def check_mixedness_convexity(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 7)
    worst = -np.inf
    for dim in (2, 3, 4):
        g = rng.normal(size=(samples, 2, dim, dim)) + 1j * rng.normal(
            size=(samples, 2, dim, dim)
        )
        rho = np.einsum("nsij,nskj->nsik", g, g.conj())
        rho /= np.einsum("nsii->ns", rho).real[..., None, None]
        weight = rng.random(samples)
        mix = 1.0 - np.einsum("nsij,nsji->ns", rho, rho).real
        combo = weight[:, None, None] * rho[:, 0] + (1 - weight)[:, None, None] * rho[:, 1]
        mix_combo = 1.0 - np.einsum("nij,nji->n", combo, combo).real
        violation = (weight * mix[:, 0] + (1 - weight) * mix[:, 1]) - mix_combo
        worst = max(worst, float(violation.max()))
    # exercise the public ops on a small slice
    for k in range(min(samples, 50)):
        sa = GeneralState(_ginibre(rng, 3))
        sb = GeneralState(_ginibre(rng, 3))
        w = rng.random()
        combo = GeneralState(w * sa.matrix + (1 - w) * sb.matrix)
        violation = w * mixedness_general(sa) + (1 - w) * mixedness_general(sb) - mixedness_general(combo)
        worst = max(worst, violation)
    return CheckResult("mixedness_convexity", samples, worst, 1e-12, worst <= 1e-12)


def _ginibre(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def check_xi_gram_nonnegative(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 8)
    _, a, b = _sample_triples(rng, samples)
    worst = float((-relations.gram_determinants(a, b)).max())
    return CheckResult("xi_gram_nonnegative", samples, worst, 1e-12, worst <= 1e-12)


# ---------------------------------------------------------------------------
# relations invariants
# ---------------------------------------------------------------------------

def check_equality_residual(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 9)
    p, a, b = _sample_triples(rng, samples)
    terms = _batch_terms(density_matrices(p), _batch_obs(a), _batch_obs(b))
    residual = (
        terms["var_a"] * terms["var_b"]
        - terms["comm"]
        - terms["anti"]
        - terms["mixedness"] * terms["gram"] / 8.0
    )
    array_residual = (
        variances(p, a) * variances(p, b) - commutator_terms(p, a, b)
        - anticommutator_terms(p, a, b) - relations.equality_remainders(p, a, b)
    )
    worst = float(max(np.abs(residual).max(), np.abs(array_residual).max()))
    for i in range(min(samples, 2000)):
        state = QubitState(BlochVector(*map(float, p[i])))
        res = relations.check_equality(
            state, PauliObservable(*map(float, a[i])), PauliObservable(*map(float, b[i]))
        )
        worst = max(worst, abs(res))
    return CheckResult("equality_residual", samples, worst, 1e-10, worst <= 1e-10)


def check_bound_chain(samples: int, seed: int) -> CheckResult:
    """product >= SUR >= RUR, and the mixedness-weighted bound <= product."""
    rng = _rng(seed, 10)
    p, a, b = _sample_triples(rng, samples)
    product = variances(p, a) * variances(p, b)
    rur = commutator_terms(p, a, b)
    sur = rur + anticommutator_terms(p, a, b)
    eq19 = relations.mixedness_weighted_bounds(p, a, b)
    worst = float(max((sur - product).max(), (rur - sur).max(), (eq19 - product).max()))
    return CheckResult("bound_chain_product_sur_rur", samples, worst, 1e-10, worst <= 1e-10)


def check_remainder_sign(samples: int, seed: int) -> CheckResult:
    """Mixed-state remainder >= 0; pure-state remainder zero relative to G/8.

    A pure state's remainder is M G / 8 with M = (1 - |p|^2)/2 rounded at
    ~1e-16, and the Gram determinant G = 16 |a x b|^2 reaches ~1e4 here,
    so the pure part is measured in units of G/8.
    """
    rng = _rng(seed, 11)
    p, a, b = _sample_triples(rng, samples)
    pure = random_bloch_vectors(rng, samples, "pure")
    scale = 2.0 * (np.cross(a[:, :3], b[:, :3]) ** 2).sum(axis=1)  # G/8
    worst = float(max(
        (-relations.equality_remainders(p, a, b)).max(),
        (np.abs(relations.equality_remainders(pure, a, b)) / scale).max(),
    ))
    return CheckResult("remainder_nonnegative_pure_zero", samples, worst, 1e-12, worst <= 1e-12)


def check_pure_sur_saturation(samples: int, seed: int) -> CheckResult:
    p, a, b = _sample_triples(_rng(seed, 12), samples, kind="pure")
    sur = commutator_terms(p, a, b) + anticommutator_terms(p, a, b)
    worst = float(np.abs(variances(p, a) * variances(p, b) - sur).max())
    return CheckResult("pure_state_sur_saturation", samples, worst, 1e-10, worst <= 1e-10)


def check_estimator_pair_independence(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 13)
    p = random_bloch_vectors(rng, samples, "mixed")
    first = relations.mixedness_estimates(p, *_noncollinear_pairs(rng, samples))
    second = relations.mixedness_estimates(p, *_noncollinear_pairs(rng, samples))
    worst = float(max(np.abs(first - second).max(), np.abs(first - mixedness_values(p)).max()))
    return CheckResult("estimator_pair_independence", samples, worst, 1e-10, worst <= 1e-10)


def _noncollinear_pairs(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n coefficient pairs uniform on [-2, 2]^4, redrawn until the Gram determinant exceeds 1."""
    pairs = rng.uniform(-2, 2, size=(n, 2, 4))
    redraw = relations.gram_determinants(pairs[:, 0], pairs[:, 1]) <= 1.0
    while redraw.any():
        pairs[redraw] = rng.uniform(-2, 2, size=(int(redraw.sum()), 2, 4))
        redraw = relations.gram_determinants(pairs[:, 0], pairs[:, 1]) <= 1.0
    return pairs[:, 0], pairs[:, 1]


def check_estimator_shot_scaling(samples: int, seed: int) -> CheckResult:
    seeds = max(5, min(samples, 50))
    # generic in-plane state: at the maximally mixed point the first-order
    # delta-method term vanishes and the error scales as 1/shots instead
    state = QubitState(BlochVector(0.3, 0.0, 0.5))
    ses = {}
    for shots in (10_000, 1_000_000):
        values = []
        for k in range(seeds):
            counts_a = relations.simulate_shots(state, OBS_X, shots, [seed, 14, shots, k, 0])
            counts_b = relations.simulate_shots(state, OBS_Z, shots, [seed, 14, shots, k, 1])
            _, se = relations.estimate_mixedness_from_counts(counts_a, counts_b, None, OBS_X, OBS_Z)
            values.append(se)
        ses[shots] = float(np.mean(values))
    ratio = ses[10_000] / ses[1_000_000]
    passed = 5.0 <= ratio <= 20.0
    return CheckResult(
        "estimator_shot_error_scaling",
        seeds,
        ratio,
        20.0,
        passed,
        note="mean SE ratio across shots 1e4/1e6, sqrt scaling predicts 10",
    )


def check_eur_sigma_xz(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 15)
    p = random_bloch_vectors(rng, samples, "mixed")
    entropy_sum, bound = relations.eur_values(p, OBS_X.coeffs, OBS_Z.coeffs)
    worst = float((bound - entropy_sum).max())
    return CheckResult("eur_sigma_x_sigma_z", samples, worst, 1e-10, worst <= 1e-10)


def check_sum_relation(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 16)
    p, a, b = _sample_triples(rng, samples)
    lhs, bound = relations.sum_relations(p, a, b)
    worst = float((bound - lhs).max())
    return CheckResult("sum_relation_holds", samples, worst, 1e-10, worst <= 1e-10)


# ---------------------------------------------------------------------------
# feedback invariants
# ---------------------------------------------------------------------------

def check_master_rhs_traceless(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 17)
    p = random_bloch_vectors(rng, samples, "mixed")
    worst = 0.0
    for i in range(samples):
        params = feedback.FeedbackParams(
            alpha=float(rng.uniform(0, math.pi)),
            lam=float(rng.uniform(0, 1)),
            omega=float(rng.uniform(0, 2)),
        )
        rho = QubitState(BlochVector(*map(float, p[i]))).matrix
        worst = max(worst, abs(np.trace(feedback.master_rhs(rho, params))))
    return CheckResult("master_rhs_traceless", samples, worst, 1e-12, worst <= 1e-12)


def check_analytic_satisfies_master(samples: int, seed: int) -> CheckResult:
    per_axis = max(3, min(12, int(round(samples ** (1.0 / 3.0)))))
    delta = 1e-6
    worst = 0.0
    count = 0
    for alpha in np.linspace(0.0, math.pi, per_axis):
        for lam in np.linspace(0.1, 1.0, per_axis):
            params = feedback.FeedbackParams(alpha=float(alpha), lam=float(lam))
            for t in np.linspace(delta, 5.0, per_axis):
                plus = feedback.analytic_state(params, float(t + delta)).matrix
                minus = feedback.analytic_state(params, float(t - delta)).matrix
                derivative = (plus - minus) / (2 * delta)
                rhs = feedback.master_rhs(feedback.analytic_state(params, float(t)).matrix, params)
                worst = max(worst, float(np.abs(derivative - rhs).max()))
                count += 1
    return CheckResult("analytic_solution_satisfies_master", count, worst, 1e-5, worst <= 1e-5)


def check_lambda0_reduction(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 19)
    p = random_bloch_vectors(rng, samples, "mixed")
    worst = 0.0
    for i in range(samples):
        omega = float(rng.uniform(0, 2))
        rho = QubitState(BlochVector(*map(float, p[i]))).matrix
        with_feedback = feedback.master_rhs(
            rho, feedback.FeedbackParams(alpha=0.0, lam=0.0, omega=omega)
        )
        bare = -1j * omega * (PAULI_X @ rho - rho @ PAULI_X) + feedback.dissipator(
            feedback.SIGMA_MINUS, rho
        )
        worst = max(worst, float(np.abs(with_feedback - bare).max()))
    return CheckResult("lambda0_reduces_to_bare_decay", samples, worst, 1e-12, worst <= 1e-12)


def _grid_deviation(h: float, pairs) -> float:
    worst = 0.0
    for alpha, lam in pairs:
        params = feedback.FeedbackParams(alpha=alpha, lam=lam)
        traj = feedback.integrate(params, t_end=2.0, h=h)
        exact = density_matrices(feedback.analytic_bloch(params, traj.times))
        worst = max(worst, float(np.abs(traj.matrices() - exact).max()))
    return worst


def check_rk4_order(samples: int, seed: int) -> CheckResult:
    pairs = [(math.pi / 4, 1.0), (1.1, 0.5)]
    dev_h = _grid_deviation(1e-3, pairs)
    dev_half = _grid_deviation(5e-4, pairs)
    ratio = dev_h / dev_half
    passed = 8.0 <= ratio <= 32.0
    return CheckResult(
        "rk4_convergence_order",
        len(pairs),
        ratio,
        32.0,
        passed,
        note=f"deviation {dev_h:.2e} -> {dev_half:.2e} on halving h",
    )


def check_trajectory_positivity(samples: int, seed: int) -> CheckResult:
    worst = -np.inf
    runs = 0
    for alpha in np.linspace(0.0, math.pi / 2, 3):
        for lam in (0.2, 0.6, 1.0):
            traj = feedback.integrate(
                feedback.FeedbackParams(alpha=float(alpha), lam=lam), t_end=5.0, h=5e-3
            )
            norms = np.sqrt((traj.bloch**2).sum(axis=1))
            worst = max(worst, float(((norms - 1.0) / 2.0).max()))
            runs += 1
    return CheckResult(
        "trajectory_positivity", runs, worst, 1e-8, worst <= 1e-8,
        note="worst -lambda_min along integrated trajectories",
    )


def check_trajectory_starts_pure(samples: int, seed: int) -> CheckResult:
    worst = 0.0
    runs = 0
    for alpha in np.linspace(0.0, math.pi, 5):
        for lam in (0.0, 0.5, 1.0):
            traj = feedback.integrate(
                feedback.FeedbackParams(alpha=float(alpha), lam=lam), t_end=0.05, h=5e-3
            )
            worst = max(worst, float(traj.mixedness_values()[0]))
            runs += 1
    return CheckResult("trajectory_starts_pure", runs, worst, 1e-12, worst <= 1e-12)


# ---------------------------------------------------------------------------
# tightness invariants
# ---------------------------------------------------------------------------

def check_ti1_identity(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 23)
    p, a, b = _sample_triples(rng, samples)
    value = tightness.ratios(p, a, b)[0]
    defined = ~np.isnan(value)
    bound = relations.mixedness_weighted_bounds(p, a, b)
    identity = 1.0 + anticommutator_terms(p, a, b) / bound
    worst = float(np.abs(value - identity)[defined].max(initial=0.0))
    return CheckResult("ti1_equality_identity", int(defined.sum()), worst, 1e-10, worst <= 1e-10)


def check_ti_at_least_one(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 24)
    p = random_bloch_vectors(rng, samples, "mixed")
    values = np.stack(tightness.ratios(p, *_noncollinear_pairs(rng, samples)))
    worst = float(np.nanmax(1.0 - values))
    return CheckResult("tightness_ratios_at_least_one", samples, worst, 1e-9, worst <= 1e-9)


def check_closed_form_ti1_vs_pipeline(samples: int, seed: int) -> CheckResult:
    steps = max(5, min(50, int(round(math.sqrt(samples)))))
    alphas = np.linspace(0.0, math.pi, steps + 2)[1:-1].tolist()
    lams = np.linspace(0.0, 1.0, steps + 1)[1:].tolist()
    ts = np.linspace(0.0, 3.0, steps + 1)[1:]

    def deviation(alpha: float, lam: float, closed_form) -> float:
        bloch = feedback.analytic_bloch(feedback.FeedbackParams(alpha=alpha, lam=lam), ts)
        pipeline = tightness.ratios(bloch, OBS_X.coeffs, OBS_Z.coeffs)[0]
        return float(np.abs(pipeline - [closed_form(t) for t in ts.tolist()]).max())

    worst = max(
        [deviation(a, 1.0, partial(tightness.ti1_analytic_lambda1, a)) for a in alphas]
        + [deviation(math.pi / 4, m, partial(tightness.ti1_analytic_alpha_pi4, m)) for m in lams]
        + [abs(tightness.ti1_analytic_lambda1(math.pi / 4, 1.0)
               - tightness.ti1_analytic_alpha_pi4(1.0, 1.0))]
    )
    return CheckResult(
        "closed_form_ti1_vs_pipeline", 2 * steps * steps, worst, 1e-9, worst <= 1e-9
    )


def check_ti1_scale_shift_invariance(samples: int, seed: int) -> CheckResult:
    rng = _rng(seed, 26)
    p = random_bloch_vectors(rng, samples, "mixed")
    a, b = _noncollinear_pairs(rng, samples)
    scale = rng.uniform(0.2, 3.0, size=samples) * rng.choice([-1.0, 1.0], size=samples)
    shift = np.outer(rng.uniform(-5.0, 5.0, size=samples), [0.0, 0.0, 0.0, 1.0])
    base = tightness.ratios(p, a, b)[0]
    defined = ~np.isnan(base)
    # relative to the ratio's size: ti1 is unbounded near vanishing
    # bounds and a flat absolute floor would sit below float noise
    worst = 0.0
    for moved_a in (scale[:, None] * a, a + shift):
        change = np.abs(tightness.ratios(p, moved_a, b)[0] - base) / np.maximum(1.0, base)
        worst = max(worst, float(change[defined].max(initial=0.0)))
    used = int(defined.sum())
    return CheckResult("ti1_scale_shift_invariance", used, worst, 1e-10, worst <= 1e-10)


# ---------------------------------------------------------------------------
# cli/output invariants
# ---------------------------------------------------------------------------

def check_serialization_determinism(samples: int, seed: int) -> CheckResult:
    from .serialize import sweep_csv, sweep_sidecar_json

    grid = tightness.fig2_grid(steps=6)
    outputs = []
    for _ in range(2):
        points = tightness.sweep(grid, source="analytic")
        violations = tightness.count_ordering_violations(points)
        outputs.append(sweep_csv(points) + sweep_sidecar_json(grid, "analytic", seed, violations))
    passed = outputs[0] == outputs[1]
    return CheckResult(
        "serialization_determinism", 2, 0.0 if passed else 1.0, 0.0, passed,
        note="repeated sweep serializations are byte-identical",
    )


# name -> (function, default sample count)
CHECKS = [
    (check_bloch_matrix_roundtrip, 10_000),
    (check_observable_roundtrip, 10_000),
    (check_variance_shift_invariance, 10_000),
    (check_mixedness_definition, 10_000),
    (check_closed_forms, 10_000),
    (check_trace_identities, 10_000),
    (check_mixedness_convexity, 10_000),
    (check_xi_gram_nonnegative, 10_000),
    (check_equality_residual, 100_000),
    (check_bound_chain, 10_000),
    (check_remainder_sign, 10_000),
    (check_pure_sur_saturation, 10_000),
    (check_estimator_pair_independence, 10_000),
    (check_estimator_shot_scaling, 20),
    (check_eur_sigma_xz, 10_000),
    (check_sum_relation, 100_000),
    (check_master_rhs_traceless, 10_000),
    (check_analytic_satisfies_master, 1_000),
    (check_lambda0_reduction, 10_000),
    (check_rk4_order, 2),
    (check_trajectory_positivity, 9),
    (check_trajectory_starts_pure, 15),
    (check_ti1_identity, 10_000),
    (check_ti_at_least_one, 10_000),
    (check_closed_form_ti1_vs_pipeline, 2_500),
    (check_ti1_scale_shift_invariance, 10_000),
    (check_serialization_determinism, 2),
]


def run_all(samples: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every registered invariant check.

    samples, when given, replaces each check's default sample count
    (grid-style checks derive their grid size from it).
    """
    results = []
    for fn, default in CHECKS:
        n = default if samples is None else max(2, samples)
        results.append(fn(n, seed))
    return results
