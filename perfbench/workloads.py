"""The four benchmark workloads: seeded inputs, one unit of work, output checks.

Each workload is closed-loop with a single caller.  A *unit* is one
repeatable piece of work with identical inputs every time it runs, so
counts gathered per unit repeat exactly:

- fig3_numeric:  one ``qubitvar sweep --fig3 --source numeric`` (3 x 3 grid, 200 RK4 steps per lambda)
- fig2_analytic: one ``qubitvar sweep --fig2`` with the closed-form source (12 x 12 grid)
- meter_stream:  one pass of 100 (state, A, B) triples through the library API
- verify_checks: every ``verify.CHECKS`` entry but LONG_CHECKS, at 30 samples

A *call* is one call the benchmark makes into the program and times:
one ``cli.main`` for the sweeps, one triple for the meter, one registry
check for verify.  Calls last milliseconds and a run repeats each one
hundreds of times, so the fastest repetition of every call reliably
falls in a quiet moment of the host.

An *item* is one operation whose output is checked: a grid point, a
triple, or a verify check.  ``check`` returns how many items failed.

Inputs come only from the seed.  The program receives generated values,
never the seed itself, except for verify, whose only input is its seed.
"""

from __future__ import annotations

import json
import math
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Tolerances fixed by the acceptance suite (criterion 7) and the estimator.
TI1_CLOSED_FORM_TOL = 1e-9
RATIO_FLOOR = 1.0 - 1e-9
EXACT_MOMENT_TOL = 1e-10

# Full-size and smoke-size parameters.  Smoke sizes only serve the
# benchmark's self-test; run.py uses full size unless given --smoke.
SIZES = {
    "full": {"fig2_steps": 12, "fig3_steps": 3, "rk4_steps_per_path": 200,
             "triples": 100, "verify_samples": 30},
    "smoke": {"fig2_steps": 8, "fig3_steps": 2, "rk4_steps_per_path": 100,
              "triples": 40, "verify_samples": 10},
}

SHOTS = 10_000


def cli_float(flag: str, value: float) -> str:
    """One CLI option as a single token; '=' keeps negative values from parsing as flags."""
    return f"{flag}={float(value)!r}"


def cli_obs(flag: str, coeffs) -> str:
    return f"{flag}=" + ",".join(repr(float(c)) for c in coeffs)


def _observable_pair(rng: random.Random):
    """sx and sz up to a random non-zero scale and a shift (ti1 is invariant under both)."""
    def scale():
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)

    obs_a = (scale(), 0.0, 0.0, rng.uniform(-1.0, 1.0))
    obs_b = (0.0, 0.0, scale(), rng.uniform(-1.0, 1.0))
    return obs_a, obs_b


class Workload:
    name = ""
    items_name = ""
    entry_module = "qubitvar.cli"  # what set-up imports in a fresh interpreter

    def __init__(self, seed: int, size: str, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size = SIZES[size]

    def run_unit(self, qubitvar, call_times: list) -> object:
        """Run one unit; append each program call's duration to call_times."""
        raise NotImplementedError

    def check(self, qubitvar, output) -> tuple[int, int]:
        """(items attempted, items failed) for one unit's output."""
        raise NotImplementedError


def _main(qubitvar, argv: list) -> int:
    try:
        return qubitvar.cli.main(argv)
    except Exception:  # a crash counts like a non-zero exit
        traceback.print_exc()
        return 1


def _timed(fn, call_times: list):
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            call_times.append(perf_counter() - start)
    return timed


class _Sweep(Workload):
    items_name = "grid points"
    fig = ""
    t_end_range = (2.5, 3.5)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.steps = self.size[f"{self.fig}_steps"]
        self.t_end = self.rng.uniform(*self.t_end_range)
        self.obs_a, self.obs_b = _observable_pair(self.rng)
        self.csv = workdir / f"{self.name}.csv"

    def argv(self) -> list:
        return [
            "sweep", f"--{self.fig}", "--steps", str(self.steps),
            cli_float("--t-end", self.t_end),
            cli_obs("--obs-a", self.obs_a), cli_obs("--obs-b", self.obs_b),
            "--output", str(self.csv),
        ]

    def run_unit(self, qubitvar, call_times):
        self.csv.unlink(missing_ok=True)
        code = _timed(_main, call_times)(qubitvar, self.argv())
        return code, self.csv.read_text() if code == 0 else ""

    def closed_form(self, qubitvar, alpha: float, lam: float, t: float) -> float:
        raise NotImplementedError

    def check(self, qubitvar, output):
        code, text = output
        return check_sweep_csv(text, self.steps**2, code,
                               lambda a, lam, t: self.closed_form(qubitvar, a, lam, t))


def check_sweep_csv(text: str, expected_rows: int, exit_code: int, closed_form) -> tuple[int, int]:
    """Check a sweep CSV: row count, ti1 against the closed form, every ratio >= 1.

    A non-zero exit or a wrong row count fails every expected point.
    """
    rows = text.splitlines()[1:]
    if exit_code != 0 or len(rows) != expected_rows:
        return expected_rows, expected_rows
    failed = 0
    for row in rows:
        try:
            alpha, lam, t, *ratios = row.split(",")
            values = [float(r) for r in ratios if r != ""]
            ok = ratios[0] != "" and all(v >= RATIO_FLOOR for v in values)
            if ok:
                reference = closed_form(float(alpha), float(lam), float(t))
                ok = abs(float(ratios[0]) - reference) <= TI1_CLOSED_FORM_TOL
        except ValueError:
            ok = False
        failed += not ok
    return expected_rows, failed


class Fig2Analytic(_Sweep):
    name = "fig2_analytic"
    fig = "fig2"

    def closed_form(self, qubitvar, alpha, lam, t):
        return qubitvar.tightness.ti1_analytic_lambda1(alpha, t)


class Fig3Numeric(_Sweep):
    name = "fig3_numeric"
    fig = "fig3"
    # a short time axis keeps one call short at h of about 1e-3
    t_end_range = (0.18, 0.24)

    def argv(self):
        # the step divides t_end exactly, so every lambda path takes the
        # same number of RK4 steps whatever t_end the seed picked
        h = self.t_end / self.size["rk4_steps_per_path"]
        return super().argv() + ["--source", "numeric", cli_float("--step", h)]

    def closed_form(self, qubitvar, alpha, lam, t):
        return qubitvar.tightness.ti1_analytic_alpha_pi4(lam, t)


class MeterStream(Workload):
    """The mixedness meter in per-reading use, one triple at a time."""

    name = "meter_stream"
    items_name = "triples"
    entry_module = "qubitvar"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.shot_seed = self.rng.randrange(2**32)
        self.triples = [self._triple() for _ in range(self.size["triples"])]

    def _triple(self):
        rng = self.rng
        while True:
            # a state strictly inside the Bloch ball
            direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(c * c for c in direction))
            radius = 0.98 * rng.random() ** (1.0 / 3.0)
            bloch = tuple(radius * c / norm for c in direction)
            obs_a = tuple(rng.uniform(-2.0, 2.0) for _ in range(4))
            obs_b = tuple(rng.uniform(-2.0, 2.0) for _ in range(4))
            # clear margins: non-degenerate spectra, non-collinear pair,
            # and (AB + BA)/2 not proportional to I, so every call succeeds
            va, vb = obs_a[:3], obs_b[:3]
            cross = (va[1] * vb[2] - va[2] * vb[1], va[2] * vb[0] - va[0] * vb[2],
                     va[0] * vb[1] - va[1] * vb[0])
            sym = [obs_a[3] * y + obs_b[3] * x for x, y in zip(va, vb)]
            if (min(_norm(va), _norm(vb), _norm(sym)) > 0.2
                    and 16.0 * _norm(cross) ** 2 > 1.0):
                return bloch, obs_a, obs_b

    def read_one(self, qubitvar, index: int, bloch, a, b) -> dict:
        """One meter reading: report, exact estimate, shot estimate, JSON."""
        core, relations = qubitvar.core, qubitvar.relations
        state = core.QubitState(core.BlochVector(*bloch))
        obs_a = core.PauliObservable(*a)
        obs_b = core.PauliObservable(*b)
        report = relations.compute_report(state, obs_a, obs_b)
        estimate = relations.estimate_mixedness(state, obs_a, obs_b)
        obs_c = relations.symmetrized_product(obs_a, obs_b)
        counts = [
            relations.simulate_shots(state, obs, SHOTS, [self.shot_seed, index, k])
            for k, obs in enumerate((obs_a, obs_b, obs_c))
        ]
        shot_estimate, std_error = relations.estimate_mixedness_from_counts(
            *counts, obs_a, obs_b
        )
        fields = {
            "varA": report.varA,
            "varB": report.varB,
            "product": report.product,
            "rur_bound": report.rur_bound,
            "sur_bound": report.sur_bound,
            "eq19_bound": report.eq19_bound,
            "remainder": report.remainder,
            "equality_residual": report.equality_residual,
            "sum_lhs": report.sum_lhs,
            "sum_bound": report.sum_bound,
            "entropy_sum": report.entropy_sum,
            "entropy_bound": report.entropy_bound,
            "mixedness": core.mixedness(state),
            "mixedness_estimate": estimate,
            "shot_estimate": shot_estimate,
            "shot_std_error": std_error,
        }
        return {"fields": fields, "json": qubitvar.serialize.report_json(fields)}

    def run_unit(self, qubitvar, call_times):
        passed = []
        for index, (bloch, a, b) in enumerate(self.triples):
            start = perf_counter()
            try:
                reading = self.read_one(qubitvar, index, bloch, a, b)
            except Exception as exc:  # a failed reading is counted, not fatal
                reading = exc
            call_times.append(perf_counter() - start)
            passed.append(check_reading(reading))
        return passed

    def check(self, qubitvar, output):
        return len(output), output.count(False)


def check_reading(reading) -> bool:
    """Exact-moment path within 1e-10; shot path only required to be finite."""
    if isinstance(reading, Exception):
        return False
    f = reading["fields"]
    return (
        abs(f["mixedness_estimate"] - f["mixedness"]) <= EXACT_MOMENT_TOL
        and abs(f["equality_residual"]) <= EXACT_MOMENT_TOL
        and math.isfinite(f["shot_estimate"])
        and math.isfinite(f["shot_std_error"])
        and json.loads(reading["json"]) == f
    )


def _norm(v) -> float:
    return math.sqrt(sum(c * c for c in v))


# Registry checks that run for seconds at any sample count (fixed
# integrator grids).  A run holds too few repetitions of them for a
# steady figure, so the workload leaves them out; fig3_numeric times the
# same RK4 integrator in short calls.
LONG_CHECKS = ("check_rk4_order", "check_trajectory_positivity")


class VerifyChecks(Workload):
    """verify's registry checks, each one call through the public ``verify.CHECKS``."""

    name = "verify_checks"
    items_name = "checks"
    entry_module = "qubitvar.verify"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.verify_seed = self.rng.randrange(2**31)

    def run_unit(self, qubitvar, call_times):
        samples = self.size["verify_samples"]
        results = []
        for fn, _ in qubitvar.verify.CHECKS:
            if fn.__name__ in LONG_CHECKS:
                continue
            start = perf_counter()
            try:
                results.append(fn(samples, self.verify_seed))
            except Exception as exc:  # a crashing check is counted, not fatal
                results.append(exc)
            call_times.append(perf_counter() - start)
        return results

    def check(self, qubitvar, output):
        failures = [r for r in output if isinstance(r, Exception) or not r.passed]
        sys.stderr.writelines(
            f"verify seed {self.verify_seed}: "
            f"{repr(r) if isinstance(r, Exception) else r.line()}\n"
            for r in failures
        )
        return len(output), len(failures)


WORKLOADS = {w.name: w for w in (Fig3Numeric, Fig2Analytic, MeterStream, VerifyChecks)}
