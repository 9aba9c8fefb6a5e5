"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one line `criterion NN (<name>): PASS <details>` (visible
with `pytest -s`); the test name itself carries the pass/fail signal in
plain `pytest -v` output.  Oracle computations here are self-contained
(stacked literal Pauli matrices), independent of the package's own
closed forms.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import cli_outputs
from qubitvar.core import (
    BlochVector,
    OBS_X,
    OBS_Z,
    PauliObservable,
    QubitState,
    anticommutator_terms,
    commutator_terms,
    mixedness_general,
    mixedness_values,
    random_bloch_vectors,
    random_density_matrix,
    variances,
)
from qubitvar.errors import CollinearObservables
from qubitvar.feedback import (
    analytic_bloch,
    evolve,
    steady_state,
    step_times,
)
from qubitvar.relations import (
    estimate_mixedness,
    estimate_mixedness_from_counts,
    gram_determinants,
    mixedness_estimates,
    reports,
    simulate_shots,
)
from qubitvar.tightness import (
    count_ordering_violations,
    fig2_grid,
    fig3_grid,
    ratios,
    sweep,
    ti1_analytic_alpha_pi4,
    ti1_analytic_lambda1,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)
PAULIS = np.stack([SX, SY, SZ, ID])


def report(number, name, detail):
    print(f"criterion {number:02d} ({name}): PASS {detail}", flush=True)


def batch_residuals(p, a, b):
    """Both sides of the equality from stacked dense matrices."""
    rho = 0.5 * (ID[None] + np.einsum("nk,kij->nij", p, PAULIS[:3]))
    a_mat = np.einsum("nk,kij->nij", a, PAULIS)
    b_mat = np.einsum("nk,kij->nij", b, PAULIS)

    def tr(m):
        return np.einsum("nii->n", m).real

    mean_a, mean_b = tr(rho @ a_mat), tr(rho @ b_mat)
    var_a = tr(rho @ (a_mat @ a_mat)) - mean_a**2
    var_b = tr(rho @ (b_mat @ b_mat)) - mean_b**2
    comm = np.abs(np.einsum("nii->n", rho @ (a_mat @ b_mat - b_mat @ a_mat))) ** 2 / 4.0
    anti = (tr(rho @ (a_mat @ b_mat + b_mat @ a_mat)) / 2.0 - mean_a * mean_b) ** 2
    tr_a, tr_b = tr(a_mat), tr(b_mat)
    gram = (
        (2 * tr(a_mat @ a_mat) - tr_a**2) * (2 * tr(b_mat @ b_mat) - tr_b**2)
        - (2 * tr(a_mat @ b_mat) - tr_a * tr_b) ** 2
    )
    remainder = (1.0 - tr(rho @ rho)) * gram / 8.0
    return var_a * var_b - comm - anti - remainder


def test_criterion_01_equality_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    n = 100_000
    p = random_bloch_vectors(rng, n, "mixed")
    a = rng.uniform(-5, 5, size=(n, 4))
    b = rng.uniform(-5, 5, size=(n, 4))
    worst = float(np.abs(batch_residuals(p, a, b)).max())
    # push a slice through the package's relation route as well
    residual = reports(p[:10_000], a[:10_000], b[:10_000])["equality_residual"]
    worst = max(worst, float(np.abs(residual).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    report(1, "equality reproduction", f"max residual {worst:.2e} over 1e5 triples in {elapsed:.1f}s")


def test_criterion_02_pure_state_degenerates_to_sur():
    rng = np.random.default_rng(20240502)
    p = random_bloch_vectors(rng, 10_000, "pure")
    a = rng.uniform(-5, 5, size=(10_000, 4))
    b = rng.uniform(-5, 5, size=(10_000, 4))
    product = variances(p, a) * variances(p, b)
    sur = commutator_terms(p, a, b) + anticommutator_terms(p, a, b)
    worst = float(np.abs(product - sur).max())
    assert worst < 1e-10
    report(2, "pure states saturate SUR", f"max |product - sur| {worst:.2e} over 1e4 pure states")


def test_criterion_03_estimator_exactness():
    rng = np.random.default_rng(20240503)
    p = random_bloch_vectors(rng, 10_000, "mixed")
    estimates = mixedness_estimates(p, OBS_X.coeffs, OBS_Z.coeffs)
    worst = float(np.abs(estimates - mixedness_values(p)).max())
    pairs = []
    while len(pairs) < 10:
        a, b = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        if gram_determinants(a, b) > 1.0:
            pairs.append((a, b))
    extra = random_bloch_vectors(rng, 1000, "mixed")
    # every pair against every extra state: 10 x 1000 rows, one call
    rows = np.repeat(np.array(pairs), len(extra), axis=0)
    states = np.tile(extra, (len(pairs), 1))
    estimates = mixedness_estimates(states, rows[:, 0], rows[:, 1])
    worst = max(worst, float(np.abs(estimates - mixedness_values(states)).max()))
    assert worst < 1e-10
    parallels = (OBS_X, PauliObservable(2.0, 0.0, 0.0, 0.0), PauliObservable(-0.5, 0.0, 0.0, 1.0))
    for parallel in parallels:
        with pytest.raises(CollinearObservables):
            estimate_mixedness(QubitState(BlochVector(0.1, 0.2, 0.3)), OBS_X, parallel)
    report(3, "estimator exactness", f"max |estimate - mixedness| {worst:.2e}; collinear pairs raise")


def test_criterion_04_shot_based_estimator():
    state = QubitState(BlochVector(0.0, 0.0, 0.0))
    inside = 0
    seeds = 100
    for k in range(seeds):
        counts_a = simulate_shots(state, OBS_X, 10**6, seed=[20240504, k, 0])
        counts_b = simulate_shots(state, OBS_Z, 10**6, seed=[20240504, k, 1])
        estimate, std_error = estimate_mixedness_from_counts(
            counts_a, counts_b, None, OBS_X, OBS_Z
        )
        if std_error > 0 and abs((estimate - 0.5) / std_error) < 3:
            inside += 1
    fraction = inside / seeds
    assert fraction >= 0.95
    report(4, "shot-based estimator", f"|z| < 3 for {fraction:.0%} of {seeds} seeds at 1e6 shots")


def _density_matrix_triples(rng, dim, count):
    """count (rho_a, rho_b, weight) triples as stacks, drawn as
    random_density_matrix(rng, dim) twice, then rng.random(), per triple.

    One rng.normal call per triple draws both Ginibre matrices' real and
    imaginary parts in that order; G G^dag / tr is built for the stack.
    """
    normals, weights = zip(*((rng.normal(size=4 * dim * dim), rng.random()) for _ in range(count)))
    parts = np.array(normals).reshape(count, 2, 2, dim, dim)
    g = parts[:, :, 0] + 1j * parts[:, :, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    rho = 0.5 * (m + m.conj().swapaxes(-1, -2))
    return rho[:, 0], rho[:, 1], np.array(weights)


def test_density_matrix_triples_are_per_object_draws():
    stacked, per_object = np.random.default_rng(20240505), np.random.default_rng(20240505)
    for dim in (2, 3, 4):
        rho_a, rho_b, weight = _density_matrix_triples(stacked, dim, 500)
        for i in range(500):
            assert np.array_equal(rho_a[i], random_density_matrix(per_object, dim))
            assert np.array_equal(rho_b[i], random_density_matrix(per_object, dim))
            assert weight[i] == per_object.random()


def test_criterion_05_mixedness_convexity():
    rng = np.random.default_rng(20240505)
    violations = 0
    worst = -np.inf
    for dim in (2, 3, 4):
        # draws in the order a, b, weight per triple; one stack call per role
        rho_a, rho_b, weight = _density_matrix_triples(rng, dim, 10_000)
        combo = weight[:, None, None] * rho_a + (1 - weight)[:, None, None] * rho_b
        gap = (
            weight * mixedness_general(rho_a)
            + (1 - weight) * mixedness_general(rho_b)
            - mixedness_general(combo)
        )
        worst = max(worst, float(gap.max()))
        violations += int((gap > 1e-12).sum())
    assert violations == 0
    report(5, "mixedness convexity", f"0 violations in 3x1e4 triples (worst gap {worst:.2e})")


def _grid_max_deviation(h):
    alpha = np.repeat(np.linspace(0.0, math.pi / 2, 5), 5)
    lam = np.tile(np.linspace(0.2, 1.0, 5), 5)
    times = step_times(5.0, h)
    diff = evolve(alpha, lam, times, h) - analytic_bloch(alpha, lam, times)
    # rho11 = (1 - pz)/2 and rho12 = (px + i py)/2
    coherence = np.hypot(diff[..., 0], diff[..., 1])
    return 0.5 * max(float(np.abs(diff[..., 2]).max()), float(coherence.max()))


def test_criterion_06_analytic_vs_numeric_dynamics():
    dev_full = _grid_max_deviation(1e-3)
    assert dev_full <= 1e-6
    dev_half = _grid_max_deviation(5e-4)
    ratio = dev_full / dev_half
    assert 8.0 <= ratio <= 32.0
    report(
        6,
        "analytic vs numeric dynamics",
        f"max deviation {dev_full:.2e} at h=1e-3; halving ratio {ratio:.1f}",
    )


def test_criterion_07_steady_state():
    for lam, want in ((1.0, 1 / 3), (1 / math.sqrt(2), 0.25)):
        analytic_pop = 0.5 * (1.0 - analytic_bloch(math.pi / 4, lam, 20.0)[2])
        fixed_point_pop = 0.5 * (1.0 - steady_state(lam)[2])
        numeric_pop = 0.5 * (1.0 - evolve(math.pi / 4, lam, step_times(20.0, 1e-2), 1e-2)[-1, 2])
        assert abs(analytic_pop - want) < 1e-6
        assert abs(fixed_point_pop - want) < 1e-12
        assert abs(numeric_pop - want) < 1e-6
    report(7, "steady state", "rho11 -> 1/3 at lam=1 and 1/4 at lam=1/sqrt(2), within 1e-6")


def test_criterion_08_closed_form_ti1_cross_validation():
    ts = np.linspace(0.0, 3.0, 51)[1:]
    alphas = np.linspace(0.0, math.pi, 52)[1:-1].tolist()
    lams = np.linspace(0.0, 1.0, 51)[1:].tolist()

    def pipeline(alpha, lam):
        values = ratios(analytic_bloch(alpha, lam, ts), OBS_X.coeffs, OBS_Z.coeffs)[0]
        assert np.isfinite(values).all(), "undefined ti1 on the grid"
        return values

    closed_a = [[ti1_analytic_lambda1(alpha, t) for t in ts.tolist()] for alpha in alphas]
    pipeline_a = pipeline(alphas, 1.0)
    worst_a = float(np.abs(pipeline_a - closed_a).max())
    closed_b = [[ti1_analytic_alpha_pi4(lam, t) for t in ts.tolist()] for lam in lams]
    pipeline_b = pipeline(math.pi / 4, lams)
    worst_b = float(np.abs(pipeline_b - closed_b).max())
    cross = abs(ti1_analytic_lambda1(math.pi / 4, 1.0) - ti1_analytic_alpha_pi4(1.0, 1.0))
    assert worst_a <= 1e-9
    assert worst_b <= 1e-9
    assert cross <= 1e-9
    report(
        8,
        "closed-form ti1 cross-validation",
        f"formula-vs-pipeline max {max(worst_a, worst_b):.2e} on 50x50 grids; "
        f"shared-point gap {cross:.2e}",
    )


def test_criterion_09_fig2_violations_measured_and_reported():
    """The tighter-than-both claim is measured and reported, never hidden.

    The claim fails near t -> 0+ at generic angles: there the
    mixedness-weighted bound vanishes while the entropic bound stays at
    1 bit, so ti1 diverges.  The closed-form ti1 expression itself gives
    e.g. ti1 = 2.61 at (alpha = 0.37, t = 0.06) where the entropy ratio
    is 1.30.  The sweep sidecar therefore reports nonzero counts; this
    test verifies the counting machinery against an independent recount
    and surfaces the numbers.
    """
    table = sweep(fig2_grid(steps=50), source="analytic")
    counts = count_ordering_violations(table)
    recount_ti2 = recount_ti3 = defined = 0
    for _, _, _, ti1, ti2, ti3 in table.tolist():
        if math.isnan(ti1) or math.isnan(ti2) or math.isnan(ti3):
            continue
        defined += 1
        if ti1 > ti2 + 1e-9:
            recount_ti2 += 1
        if ti1 > ti3 + 1e-9:
            recount_ti3 += 1
    assert counts["ti1_gt_ti2"] == recount_ti2
    assert counts["ti1_gt_ti3"] == recount_ti3
    assert counts["points_all_defined"] == defined
    # the spot value quoted above, straight from the closed form
    assert ti1_analytic_lambda1(0.37, 0.06) > 2.5
    # NaN compares False, so only rows with ti1 and ti2 defined are picked
    violating_times = table[table[:, 3] > table[:, 4] + 1e-9, 2]
    assert (violating_times <= 0.5).all(), "violations confined to early times"
    report(
        9,
        "tighter-than-both claim measured",
        f"violations on the 50x50 grid: ti1>ti2 at {counts['ti1_gt_ti2']}, "
        f"ti1>ti3 at {counts['ti1_gt_ti3']} of {defined} points "
        "(claimed 0; real excess near t->0, reported in the sweep sidecar)",
    )


def test_criterion_10_fig3_tightness_level():
    ti1 = sweep(fig3_grid(steps=50), source="analytic")[:, 3]
    assert len(ti1) == 2500
    assert not np.isnan(ti1).any()
    floor = float(ti1.min())
    assert floor >= 1.0 - 1e-9
    lams = np.linspace(0.0, 1.0, 51)[1:].tolist()
    values = ratios(analytic_bloch(math.pi / 4, lams, 1e-6), OBS_X.coeffs, OBS_Z.coeffs)[0]
    assert np.isfinite(values).all(), "undefined ti1 at t = 1e-6"
    closed = [ti1_analytic_alpha_pi4(lam, 1e-6) for lam in lams]
    worst_limit = float(np.abs(np.append(values, closed) - 1.0).max())
    assert worst_limit < 1e-3
    report(
        10,
        "fig3 tightness level",
        f"ti1 >= 1 everywhere (floor {floor:.6f}); |ti1(1e-6) - 1| <= {worst_limit:.1e}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    stdout_commands = [
        ["report", "--bloch", "0.3,0.1,-0.2", "--seed", "5"],
        ["estimate", "--bloch", "0.2,0,0.4", "--shots", "50000", "--seed", "11"],
        ["simulate", "--alpha", "0.6", "--lambda", "0.9", "--t-end", "0.05",
         "--step", "0.005", "--source", "both"],
    ]
    out_files = [tmp_path / name for name in ("first.csv", "second.csv")]
    sweeps = [
        ["sweep", "--fig2", "--steps", "8", "--seed", "2", "--output", str(out_file)]
        for out_file in out_files
    ]
    # all eight processes at once: each stdout command twice, then the sweeps
    outputs = cli_outputs(*(args for args in stdout_commands for _ in range(2)), *sweeps)
    for k, args in enumerate(stdout_commands):
        assert outputs[2 * k] == outputs[2 * k + 1], args
    blobs = [
        (out_file.read_bytes(), out_file.with_suffix(".meta.json").read_bytes())
        for out_file in out_files
    ]
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0][1].decode())
    assert "violations" in payload
    report(11, "CLI determinism", "report/estimate/simulate/sweep byte-identical on repeat runs")
