"""Named invariant checks behind the `verify` CLI command.

CHECKS is the one registry of the library's invariants: each entry is a
seeded, sample-count-configurable check returning its worst observed
residual, registered by the @_check line above its body, and the test
suite runs every entry at its default sample count with seed 0.  Every
check evaluates package code through its array functions, all samples
in one call wherever the function takes a stack; none checks the dense
oracle alone.  The relation checks read the fields of relations.reports,
the route the report and sweep commands run.  Oracles (moment traces,
eigenvectors, and master_rhs for the feedback model) are built from
stacked dense 2x2 matrices, independent of the Bloch closed forms the
library computes with.  The moment oracle, _batch_terms, writes every
product and trace by the definition of the matrix product on the four
(n,) entry arrays of each stack, since numpy's batched @ is slow on 2x2
blocks.  The entropic fields' oracle, _batch_entropies, reads outcome
probabilities and eigenbasis overlaps off the eigenvectors that
np.linalg.eigh gives for the dense A and B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import feedback, relations, tightness
from .core import (
    _PAULI_BASIS, OBS_X, OBS_Z, PAULI_X, decompose_observable, density_matrices,
    matrix_to_bloch, mixedness_general, mixedness_values, random_bloch_vectors, xi_values
)
from .errors import InvalidArgument


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
    return np.einsum("nk,kij->nij", coeffs, _PAULI_BASIS)


def _btr(mats: np.ndarray) -> np.ndarray:
    return np.einsum("nii->n", mats).real


def _entries(mats: np.ndarray) -> np.ndarray:
    """The entries m00, m01, m10, m11 of an (n, 2, 2) stack, as the rows of a (4, n) array."""
    return np.ascontiguousarray(mats.reshape(-1, 4).T)


def _mul(x, y) -> tuple:
    """Entries of the products x y, for 2x2 matrices given by their entries."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _tr(x, y) -> np.ndarray:
    """tr(x y) for 2x2 matrices given by their entries, without forming x y."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return x00 * y00 + x01 * y10 + x10 * y01 + x11 * y11


def _batch_terms(rho: np.ndarray, a_mat: np.ndarray, b_mat: np.ndarray) -> dict[str, np.ndarray]:
    """All equality ingredients from stacked matrices (oracle route), every
    product and trace written entry by entry."""
    rho, a_mat, b_mat = _entries(rho), _entries(a_mat), _entries(b_mat)
    ab, ba = _mul(a_mat, b_mat), _mul(b_mat, a_mat)
    mean_a = _tr(rho, a_mat).real
    mean_b = _tr(rho, b_mat).real
    var_a = _tr(rho, _mul(a_mat, a_mat)).real - mean_a**2
    var_b = _tr(rho, _mul(b_mat, b_mat)).real - mean_b**2
    comm = np.abs(_tr(rho, [x - y for x, y in zip(ab, ba)])) ** 2 / 4.0
    anti = (_tr(rho, [x + y for x, y in zip(ab, ba)]).real / 2.0 - mean_a * mean_b) ** 2
    tr_a, tr_b = (a_mat[0] + a_mat[3]).real, (b_mat[0] + b_mat[3]).real
    xi_aa = 2.0 * _tr(a_mat, a_mat).real - tr_a**2
    xi_bb = 2.0 * _tr(b_mat, b_mat).real - tr_b**2
    xi_ab = 2.0 * _tr(a_mat, b_mat).real - tr_a * tr_b
    mixed = 1.0 - _tr(rho, rho).real
    return {
        "var_a": var_a,
        "var_b": var_b,
        "comm": comm,
        "anti": anti,
        "gram": xi_aa * xi_bb - xi_ab**2,
        "mixedness": mixed,
    }


def _batch_entropies(rho: np.ndarray, a_mat: np.ndarray, b_mat: np.ndarray) -> tuple:
    """H(A) + H(B) in bits, and log2 of 1 / max |<a_j|b_k>|^2, from the
    eigenvectors np.linalg.eigh gives for stacked dense A and B (oracle route)."""
    vecs = np.linalg.eigh(np.stack([a_mat, b_mat]))[1]
    # outcome probabilities <v_k| rho |v_k>, with 0 log 0 = 0
    probs = np.clip(np.einsum("snik,nij,snjk->snk", vecs.conj(), rho, vecs).real, 0.0, 1.0)
    entropy_sum = -(probs * np.log2(np.where(probs > 0.0, probs, 1.0))).sum(axis=(0, 2))
    overlaps = np.abs(np.einsum("nik,nij->nkj", vecs[0].conj(), vecs[1])) ** 2
    return entropy_sum, -np.log2(overlaps.max(axis=(1, 2)))


_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


def _dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D(O)rho = O rho O^dag - (O^dag O rho + rho O^dag O)/2 over (..., 2, 2) stacks."""
    op_dag = np.swapaxes(op.conj(), -1, -2)
    return op @ rho @ op_dag - 0.5 * (op_dag @ op @ rho + rho @ (op_dag @ op))


def master_rhs(rho: np.ndarray, lam, omega) -> np.ndarray:
    """-i[omega sx + (s+ F + F s-)/2, rho] + D(s- - iF) rho with F = lam sx (oracle
    route), over (..., 2, 2) stacks of rho with lam and omega broadcast."""
    fb = np.asarray(lam, dtype=float)[..., None, None] * PAULI_X
    drive = np.asarray(omega, dtype=float)[..., None, None] * PAULI_X
    ham = drive + 0.5 * (_SIGMA_MINUS.T @ fb + fb @ _SIGMA_MINUS)
    return -1j * (ham @ rho - rho @ ham) + _dissipator(_SIGMA_MINUS - 1j * fb, rho)


def _flow(p: np.ndarray, lam, omega=0.0) -> np.ndarray:
    """L (p, 1) with L = feedback.generator(lam, omega): dp/dt, then 0."""
    y = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
    return np.einsum("...ij,...j->...i", feedback.generator(lam, omega), y)


def _sample_triples(rng, n: int, span: float = 5.0, kind: str = "mixed"):
    p = random_bloch_vectors(rng, n, kind)
    a = rng.uniform(-span, span, size=(n, 4))
    b = rng.uniform(-span, span, size=(n, 4))
    return p, a, b


# (check, default sample count) in definition order, filled by _check
CHECKS: list = []


def _check(name: str, default: int, threshold: float, low: float = -math.inf, note: str = ""):
    """Register fn(samples, seed) as the check `name`, run at `default` samples unless
    overridden and passing when low <= worst <= threshold.  fn returns its worst value,
    or (worst, samples used[, note]) when the count it ran or its note is computed."""
    def register(fn):
        @functools.wraps(fn)
        def check(samples: int, seed: int) -> CheckResult:
            out = fn(samples, seed)
            worst, used, *computed = out if isinstance(out, tuple) else (out, samples)
            text = computed[0] if computed else note
            # a NaN worst fails: every comparison with NaN is False
            return CheckResult(name, used, worst, threshold, low <= worst <= threshold, text)
        CHECKS.append((check, default))
        return check
    return register


# ---------------------------------------------------------------------------
# qubit_core invariants
# ---------------------------------------------------------------------------

@_check("bloch_matrix_roundtrip", 10_000, 1e-12)
def check_bloch_matrix_roundtrip(samples: int, seed: int) -> float:
    rng = _rng(seed, 1)
    vectors = random_bloch_vectors(rng, samples, "mixed")
    return float(np.abs(matrix_to_bloch(density_matrices(vectors)) - vectors).max())


@_check("observable_decompose_roundtrip", 10_000, 1e-12)
def check_observable_roundtrip(samples: int, seed: int) -> float:
    # one (2, 2) real and one (2, 2) imaginary draw per sample, in draw order
    parts = _rng(seed, 2).normal(size=(samples, 2, 2, 2))
    g = parts[:, 0] + 1j * parts[:, 1]
    herm = (g + np.swapaxes(g.conj(), 1, 2)) * 2.5
    return float(np.abs(_batch_obs(decompose_observable(herm)) - herm).max())


@_check("variance_shift_invariance", 10_000, 1e-12)
def check_variance_shift_invariance(samples: int, seed: int) -> float:
    rng = _rng(seed, 3)
    p, a, b = _sample_triples(rng, samples)
    shifted = a + np.outer(rng.uniform(-10, 10, size=samples), [0.0, 0.0, 0.0, 1.0])
    return float(np.abs(relations.reports(p, shifted, b)["varA"]
                        - relations.reports(p, a, b)["varA"]).max())


@_check("mixedness_trace_definition", 10_000, 1e-12)
def check_mixedness_definition(samples: int, seed: int) -> float:
    rng = _rng(seed, 4)
    vectors = random_bloch_vectors(rng, samples, "mixed")
    rho = density_matrices(vectors)
    return float(np.abs(mixedness_values(vectors) - (1.0 - _btr(rho @ rho))).max())


@_check("bloch_closed_forms_vs_matrices", 10_000, 1e-12)
def check_closed_forms(samples: int, seed: int) -> float:
    rng = _rng(seed, 5)
    # span 2 keeps the squared terms at O(10), where a 1e-12 absolute
    # agreement floor is above double-precision noise
    p, a, b = _sample_triples(rng, samples, span=2.0)
    rho, a_mat, b_mat = density_matrices(p), _batch_obs(a), _batch_obs(b)
    oracle = _batch_terms(rho, a_mat, b_mat)
    entropy_sum, entropy_bound = _batch_entropies(rho, a_mat, b_mat)
    fields = relations.reports(p, a, b)
    return max(
        float(np.abs(fields["varA"] - oracle["var_a"]).max()),
        float(np.abs(fields["varB"] - oracle["var_b"]).max()),
        float(np.abs(fields["rur_bound"] - oracle["comm"]).max()),
        float(np.abs(fields["sur_bound"] - fields["rur_bound"] - oracle["anti"]).max()),
        float(np.abs(fields["entropy_sum"] - entropy_sum).max()),
        float(np.abs(fields["entropy_bound"] - entropy_bound).max()),
    )


@_check("observable_trace_identities", 10_000, 1e-12)
def check_trace_identities(samples: int, seed: int) -> float:
    rng = _rng(seed, 6)
    _, a, b = _sample_triples(rng, samples)
    am, bm = _batch_obs(a), _batch_obs(b)
    dense_xi = 2.0 * _btr(am @ bm) - _btr(am) * _btr(bm)
    return max(
        float(np.abs(_btr(am @ am) - 2.0 * (a * a).sum(axis=1)).max()),
        float(np.abs(_btr(bm @ bm) - 2.0 * (b * b).sum(axis=1)).max()),
        float(np.abs(_btr(am) - 2.0 * a[:, 3]).max()),
        float(np.abs(_btr(bm) - 2.0 * b[:, 3]).max()),
        float(np.abs(_btr(am @ bm) - 2.0 * (a * b).sum(axis=1)).max()),
        float(np.abs(xi_values(a, b) - dense_xi).max()),
    )


@_check("mixedness_convexity", 10_000, 1e-12)
def check_mixedness_convexity(samples: int, seed: int) -> float:
    rng = _rng(seed, 7)
    worst = -np.inf
    for dim in (2, 3, 4):
        g = rng.normal(size=(samples, 2, dim, dim)) + 1j * rng.normal(
            size=(samples, 2, dim, dim)
        )
        rho = np.einsum("nsij,nskj->nsik", g, g.conj())
        rho /= np.einsum("nsii->ns", rho).real[..., None, None]
        weight = rng.random(samples)
        combo = weight[:, None, None] * rho[:, 0] + (1 - weight)[:, None, None] * rho[:, 1]
        mix_a, mix_b, mix_combo = mixedness_general(np.stack([rho[:, 0], rho[:, 1], combo]))
        violation = (weight * mix_a + (1 - weight) * mix_b) - mix_combo
        worst = max(worst, float(violation.max()))
    return worst


@_check("xi_gram_nonnegative", 10_000, 1e-12)
def check_xi_gram_nonnegative(samples: int, seed: int) -> float:
    rng = _rng(seed, 8)
    _, a, b = _sample_triples(rng, samples)
    return float((-relations.gram_determinants(a, b)).max())


# ---------------------------------------------------------------------------
# relations invariants
# ---------------------------------------------------------------------------

@_check("equality_residual", 100_000, 1e-10)
def check_equality_residual(samples: int, seed: int) -> float:
    rng = _rng(seed, 9)
    p, a, b = _sample_triples(rng, samples)
    terms = _batch_terms(density_matrices(p), _batch_obs(a), _batch_obs(b))
    residual = (
        terms["var_a"] * terms["var_b"]
        - terms["comm"]
        - terms["anti"]
        - terms["mixedness"] * terms["gram"] / 8.0
    )
    array_residual = relations.reports(p, a, b)["equality_residual"]
    return float(max(np.abs(residual).max(), np.abs(array_residual).max()))


@_check("bound_chain_product_sur_rur", 10_000, 1e-10)
def check_bound_chain(samples: int, seed: int) -> float:
    """product >= SUR >= RUR, and the mixedness-weighted bound <= product."""
    rng = _rng(seed, 10)
    p, a, b = _sample_triples(rng, samples)
    fields = relations.reports(p, a, b)
    product, rur, sur = fields["product"], fields["rur_bound"], fields["sur_bound"]
    return float(max((sur - product).max(), (rur - sur).max(),
                     (fields["eq19_bound"] - product).max()))


@_check("remainder_nonnegative_pure_zero", 10_000, 1e-12)
def check_remainder_sign(samples: int, seed: int) -> float:
    """Mixed-state remainder >= 0; pure-state remainder zero relative to G/8.

    A pure state's remainder is M G / 8 with M = (1 - |p|^2)/2 rounded at
    ~1e-16, and the Gram determinant G = 16 |a x b|^2 reaches ~1e4 here,
    so the pure part is measured in units of G/8.
    """
    rng = _rng(seed, 11)
    p, a, b = _sample_triples(rng, samples)
    pure = random_bloch_vectors(rng, samples, "pure")
    scale = 2.0 * (np.cross(a[:, :3], b[:, :3]) ** 2).sum(axis=1)  # G/8
    remainder = relations.reports(np.stack([p, pure]), a, b)["remainder"]
    return float(max((-remainder[0]).max(), (np.abs(remainder[1]) / scale).max()))


@_check("pure_state_sur_saturation", 10_000, 1e-10)
def check_pure_sur_saturation(samples: int, seed: int) -> float:
    p, a, b = _sample_triples(_rng(seed, 12), samples, kind="pure")
    fields = relations.reports(p, a, b)
    return float(np.abs(fields["product"] - fields["sur_bound"]).max())


@_check("estimator_pair_independence", 10_000, 1e-10)
def check_estimator_pair_independence(samples: int, seed: int) -> float:
    rng = _rng(seed, 13)
    p = random_bloch_vectors(rng, samples, "mixed")
    first = relations.mixedness_estimates(p, *_noncollinear_pairs(rng, samples))
    second = relations.mixedness_estimates(p, *_noncollinear_pairs(rng, samples))
    return float(max(np.abs(first - second).max(), np.abs(first - mixedness_values(p)).max()))


def _noncollinear_pairs(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n coefficient pairs uniform on [-2, 2]^4, redrawn until the Gram determinant exceeds 1."""
    pairs = rng.uniform(-2, 2, size=(n, 2, 4))
    redraw = relations.gram_determinants(pairs[:, 0], pairs[:, 1]) <= 1.0
    while redraw.any():
        pairs[redraw] = rng.uniform(-2, 2, size=(int(redraw.sum()), 2, 4))
        redraw = relations.gram_determinants(pairs[:, 0], pairs[:, 1]) <= 1.0
    return pairs[:, 0], pairs[:, 1]


@_check("estimator_shot_error_scaling", 20, 20.0, low=5.0,
        note="mean SE ratio across shots 1e4/1e6, sqrt scaling predicts 10")
def check_estimator_shot_scaling(samples: int, seed: int) -> tuple:
    seeds = max(5, min(samples, 50))
    # generic in-plane state: at the maximally mixed point the first-order
    # delta-method term vanishes and the error scales as 1/shots instead
    p = np.array([0.3, 0.0, 0.5])
    ses = {}
    for shots in (10_000, 1_000_000):
        counts = [None if rows is None else relations.shot_counts(
            p, rows, shots, [[seed, 14, shots, k, j] for k in range(seeds)])
            for j, rows in enumerate(relations.meter_settings(OBS_X, OBS_Z))]
        _, se = relations.mixedness_estimates_from_counts(*counts, OBS_X, OBS_Z)
        ses[shots] = float(np.mean(se))
    return ses[10_000] / ses[1_000_000], seeds


@_check("eur_sigma_x_sigma_z", 10_000, 1e-10)
def check_eur_sigma_xz(samples: int, seed: int) -> float:
    rng = _rng(seed, 15)
    p = random_bloch_vectors(rng, samples, "mixed")
    fields = relations.reports(p, OBS_X, OBS_Z)
    return float((fields["entropy_bound"] - fields["entropy_sum"]).max())


@_check("sum_relation_holds", 100_000, 1e-10)
def check_sum_relation(samples: int, seed: int) -> float:
    rng = _rng(seed, 16)
    p, a, b = _sample_triples(rng, samples)
    fields = relations.reports(p, a, b)
    return float((fields["sum_bound"] - fields["sum_lhs"]).max())


# ---------------------------------------------------------------------------
# feedback invariants
# ---------------------------------------------------------------------------

@_check("master_rhs_traceless", 10_000, 1e-12)
def check_master_rhs_traceless(samples: int, seed: int) -> float:
    """The dense master equation is traceless and is feedback.generator's flow."""
    rng = _rng(seed, 17)
    p = random_bloch_vectors(rng, samples, "mixed")
    draws = rng.uniform([0.0, 0.0, 0.0], [math.pi, 1.0, 2.0], size=(samples, 3))
    lam, omega = draws[:, 1], draws[:, 2]
    rhs = master_rhs(density_matrices(p), lam, omega)
    return float(max(
        np.abs(np.einsum("nii->n", rhs)).max(),
        np.abs(rhs - 0.5 * _batch_obs(_flow(p, lam, omega))).max(),
    ))


@_check("analytic_solution_satisfies_master", 1_000, 1e-5)
def check_analytic_satisfies_master(samples: int, seed: int) -> tuple:
    per_axis = max(3, min(12, int(round(samples ** (1.0 / 3.0)))))
    delta = 1e-6
    ts = np.linspace(delta, 5.0, per_axis)
    alphas = np.repeat(np.linspace(0.0, math.pi, per_axis), per_axis)
    lams = np.tile(np.linspace(0.1, 1.0, per_axis), per_axis)
    plus, minus, now = (
        feedback.analytic_bloch(alphas, lams, t) for t in (ts + delta, ts - delta, ts)
    )
    derivative = (plus - minus) / (2 * delta)
    flow = _flow(now, lams[:, None])[..., :3]
    return float(np.abs(derivative - flow).max()), per_axis**3


@_check("lambda0_reduces_to_bare_decay", 10_000, 1e-12)
def check_lambda0_reduction(samples: int, seed: int) -> float:
    rng = _rng(seed, 19)
    p = random_bloch_vectors(rng, samples, "mixed")
    rho = density_matrices(p)
    omega = rng.uniform(0.0, 2.0, size=samples)
    bare = -1j * omega[:, None, None] * (PAULI_X @ rho - rho @ PAULI_X)
    bare += _dissipator(_SIGMA_MINUS, rho)
    return float(np.abs(0.5 * _batch_obs(_flow(p, 0.0, omega)) - bare).max())


def _grid_deviation(h: float, alphas, lams) -> float:
    times = feedback.step_times(2.0, h)
    exact = feedback.analytic_bloch(alphas, lams, times)
    bloch = feedback.evolve(alphas, lams, times, h)
    return float(np.abs(density_matrices(bloch) - density_matrices(exact)).max())


@_check("rk4_convergence_order", 2, 32.0, low=8.0)
def check_rk4_order(samples: int, seed: int) -> tuple:
    alphas, lams = [math.pi / 4, 1.1], [1.0, 0.5]
    dev_h = _grid_deviation(1e-3, alphas, lams)
    dev_half = _grid_deviation(5e-4, alphas, lams)
    return dev_h / dev_half, len(alphas), f"deviation {dev_h:.2e} -> {dev_half:.2e} on halving h"


def _trajectories(alphas, lams, t_end: float) -> np.ndarray:
    """Bloch vectors on the step grid to t_end at h = 5e-3, one row per (alpha, lam)."""
    alpha, lam = np.repeat(alphas, len(lams)), np.tile(lams, len(alphas))
    return feedback.evolve(alpha, lam, feedback.step_times(t_end, 5e-3), 5e-3)


@_check("trajectory_positivity", 9, 1e-8,
        note="worst -lambda_min along integrated trajectories")
def check_trajectory_positivity(samples: int, seed: int) -> tuple:
    bloch = _trajectories(np.linspace(0.0, math.pi / 2, 3), (0.2, 0.6, 1.0), 5.0)
    norms = np.sqrt((bloch**2).sum(axis=-1))
    return float(((norms - 1.0) / 2.0).max()), len(bloch)


@_check("trajectory_starts_pure", 15, 1e-12)
def check_trajectory_starts_pure(samples: int, seed: int) -> tuple:
    bloch = _trajectories(np.linspace(0.0, math.pi, 5), (0.0, 0.5, 1.0), 0.05)
    return float(mixedness_values(bloch[:, 0]).max()), len(bloch)


# ---------------------------------------------------------------------------
# tightness invariants
# ---------------------------------------------------------------------------

@_check("ti1_equality_identity", 10_000, 1e-10)
def check_ti1_identity(samples: int, seed: int) -> tuple:
    rng = _rng(seed, 23)
    p, a, b = _sample_triples(rng, samples)
    value = tightness.ratios(p, a, b)[0]
    defined = ~np.isnan(value)
    fields = relations.reports(p, a, b)
    identity = 1.0 + (fields["sur_bound"] - fields["rur_bound"]) / fields["eq19_bound"]
    return float(np.abs(value - identity)[defined].max(initial=0.0)), int(defined.sum())


@_check("tightness_ratios_at_least_one", 10_000, 1e-9)
def check_ti_at_least_one(samples: int, seed: int) -> float:
    rng = _rng(seed, 24)
    p = random_bloch_vectors(rng, samples, "mixed")
    values = np.stack(tightness.ratios(p, *_noncollinear_pairs(rng, samples)))
    return float(np.nanmax(1.0 - values))


@_check("closed_form_ti1_vs_pipeline", 2_500, 1e-9)
def check_closed_form_ti1_vs_pipeline(samples: int, seed: int) -> tuple:
    steps = max(5, min(50, int(round(math.sqrt(samples)))))
    alphas = np.linspace(0.0, math.pi, steps + 2)[1:-1].tolist()
    lams = np.linspace(0.0, 1.0, steps + 1)[1:].tolist()
    ts = np.linspace(0.0, 3.0, steps + 1)[1:]

    def deviation(alpha, lam, closed: list[list[float]]) -> float:
        """Pipeline ti1 on the broadcast (alpha, lam) rows times ts against closed."""
        bloch = feedback.analytic_bloch(alpha, lam, ts)
        pipeline = tightness.ratios(bloch, OBS_X, OBS_Z)[0]
        return float(np.abs(pipeline - closed).max())

    worst = max(
        deviation(alphas, 1.0,
                  [[tightness.ti1_analytic_lambda1(a, t) for t in ts.tolist()] for a in alphas]),
        deviation(math.pi / 4, lams,
                  [[tightness.ti1_analytic_alpha_pi4(m, t) for t in ts.tolist()] for m in lams]),
        abs(tightness.ti1_analytic_lambda1(math.pi / 4, 1.0)
            - tightness.ti1_analytic_alpha_pi4(1.0, 1.0)),
    )
    return worst, 2 * steps * steps


@_check("ti1_scale_shift_invariance", 10_000, 1e-10)
def check_ti1_scale_shift_invariance(samples: int, seed: int) -> tuple:
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
    return worst, int(defined.sum())


# ---------------------------------------------------------------------------
# cli/output invariants
# ---------------------------------------------------------------------------

@_check("serialization_determinism", 2, 0.0,
        note="repeated sweep serializations are byte-identical")
def check_serialization_determinism(samples: int, seed: int) -> tuple:
    from .serialize import sweep_csv, sweep_sidecar_json

    grid = tightness.fig2_grid(steps=6)
    outputs = []
    for _ in range(2):
        table = tightness.sweep(grid, source="analytic")
        violations = tightness.count_ordering_violations(table)
        outputs.append(sweep_csv(grid, table)
                       + sweep_sidecar_json(grid, "analytic", seed, violations))
    return (0.0 if outputs[0] == outputs[1] else 1.0), 2


# Samples per check run_all accepts: ten times the largest default count.
MAX_SAMPLES = 10**6


def run_all(samples: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every registered invariant check.

    samples, when given, replaces each check's default sample count
    (grid-style checks derive their grid size from it).  Outside
    [2, MAX_SAMPLES] it raises InvalidArgument before any check draws.
    """
    if samples is not None and samples < 2:
        raise InvalidArgument(f"samples per check must be >= 2, got {samples}")
    if samples is not None and samples > MAX_SAMPLES:
        raise InvalidArgument(f"{samples} samples per check are more than {MAX_SAMPLES}")
    return [fn(default if samples is None else samples, seed) for fn, default in CHECKS]
