"""qubitvar benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness measures set-up time
(fresh interpreters importing the workload's entry module), then imports
qubitvar from the checkout's ``src`` with single-threaded BLAS and
repeats the workload's unit in this process until the time is spent.
Every output is checked, and each metric is printed by name and unit.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  Traced runs alternate an untraced and a traced unit, so the
tracing overhead is measured on identical work.  Exits non-zero without
a result when the checkout has no qubitvar source.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
WORKDIR = ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def measure_setup(root: Path, module: str, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing `module` (and so numpy)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: subprocess polls in 50 ms steps when given one
        code = subprocess.Popen([sys.executable, "-c", f"import {module}"],
                                cwd=root, env=env).wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"import {module} exited with {code}")
    return times


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced unit; layers the unit never called read 0."""
    stats = tracer.stats()
    counters = tracer.counters

    def calls(*labels):
        return sum(stats.get(label, (0, 0.0, 0.0))[0] for label in labels)

    def total(*labels):
        return sum(stats.get(label, (0, 0.0, 0.0))[1] for label in labels)

    def self_s(*labels):
        return sum(stats.get(label, (0, 0.0, 0.0))[2] for label in labels)

    def per_call_us(label):
        n = calls(label)
        return 1e6 * total(label) / n if n else 0.0

    def layer(name):
        return [label for label in stats if label.split(".", 1)[0] == name]

    integrators = ("feedback.integrate", "feedback.evolve_to_times")
    steps = counters["rk4_steps"]
    shot_calls = calls("relations.estimate_mixedness_from_counts")
    out = {
        "cli.build_parser_us": per_call_us("cli.build_parser"),
        "cli.main_self_s": self_s(*layer("cli")),
        "core.calls": calls(*layer("core")),
        "core.self_s": self_s(*layer("core")),
        "core.variance_us": per_call_us("core.variance"),
        "relations.calls": calls(*layer("relations")),
        "relations.self_s": self_s(*layer("relations")),
        "relations.compute_report_us": per_call_us("relations.compute_report"),
        "relations.estimate_mixedness_us": per_call_us("relations.estimate_mixedness"),
        "relations.shot_estimate_us": (
            1e6 * total("relations.simulate_shots", "relations.estimate_mixedness_from_counts")
            / shot_calls if shot_calls else 0.0
        ),
        "feedback.calls": calls(*layer("feedback")),
        "feedback.self_s": self_s(*layer("feedback")),
        "feedback.rk4_steps": steps,
        "feedback.step_us": 1e6 * self_s(*integrators) / steps if steps else 0.0,
        "feedback.analytic_state_calls": calls("feedback.analytic_state"),
        "feedback.analytic_state_us": per_call_us("feedback.analytic_state"),
        "tightness.ratio_calls": calls("tightness.ti1", "tightness.ti2", "tightness.ti3"),
        "tightness.self_s": self_s(*layer("tightness")),
        "tightness.point_us": sum(per_call_us(f"tightness.ti{k}") for k in (1, 2, 3)),
        "tightness.points": counters["points"],
        "tightness.ti1_undefined": counters["ti1_undefined"],
        "tightness.ti2_undefined": counters["ti2_undefined"],
        "tightness.ti3_undefined": counters["ti3_undefined"],
        "serialize.self_s": self_s(*layer("serialize")),
        "serialize.bytes": counters["bytes"],
        "verify.self_s": self_s(*layer("verify")),
    }
    for name, seconds in tracer.check_seconds.items():
        out[f"verify.{name}_s"] = seconds
    return out


def run_units(qubitvar, workload, seconds: float, tracer: Tracer | None) -> dict:
    """Repeat the workload's unit until `seconds` are spent; at least one unit.

    Another unit starts only if it is expected to end in time.  With a
    tracer, every untraced unit is followed by a traced one.
    """
    unit_walls, traced_walls, call_times, layers = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        call_times.append([])
        output = workload.run_unit(qubitvar, call_times[-1])
        unit_walls.append(time.perf_counter() - round_start)
        n, bad = workload.check(qubitvar, output)
        attempted, failed = attempted + n, failed + bad
        if tracer is not None:
            tracer.install()
            try:
                begin = time.perf_counter()
                output = workload.run_unit(qubitvar, [])
                traced_walls.append(time.perf_counter() - begin)
            finally:
                tracer.uninstall()
            n, bad = workload.check(qubitvar, output)
            attempted, failed = attempted + n, failed + bad
            layers.append(layer_metrics(tracer))
            tracer.reset()
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    return {"unit_walls": unit_walls, "traced_walls": traced_walls,
            "call_times": call_times, "layers": layers,
            "attempted": attempted, "failed": failed}


def end_to_end(raw: dict, items_per_unit: int, setup: list[float], rss_mb: float) -> dict:
    """Each timing sums, over the unit's calls, every call's fastest repetition.

    Every unit repeats the same calls on the same inputs, so a slower
    repetition differs only by interference from the host; the minimum
    is the program's own time.  Set-up is the median of fresh starts.
    """
    fastest = [min(reps) for reps in zip(*raw["call_times"])]
    wall = sum(fastest)
    calls_us = [1e6 * t for t in fastest]
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (items_per_unit / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "call_p50_us": (percentile(calls_us, 50), "us"),
        "call_p90_us": (percentile(calls_us, 90), "us"),
    }


def per_layer(raw: dict, declared: list[dict]) -> dict:
    """Layer metrics of the fastest traced unit, so its layer times add up consistently.

    Only the verify checks may be absent, and then all of them: the
    workload never called verify.  Any other missing or undeclared name
    is an error.
    """
    fastest = min(range(len(raw["traced_walls"])), key=raw["traced_walls"].__getitem__)
    measured = dict(raw["layers"][fastest])
    measured["trace.overhead_frac"] = min(raw["traced_walls"]) / min(raw["unit_walls"]) - 1.0
    names = [m["name"] for m in declared]
    if not any(name.startswith("verify.") and name != "verify.self_s" for name in measured):
        for name in names:
            if name.startswith("verify.") and name != "verify.self_s":
                measured[name] = 0.0
    mismatch = set(names) ^ set(measured)
    if mismatch:
        raise ValueError(f"per-layer metrics declared but not measured, or measured "
                         f"but not declared: {sorted(mismatch)}")
    return {m["name"]: (measured[m["name"]], m["unit"]) for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "qubitvar" / "__init__.py").is_file() or not spec_file.is_file():
        sys.stderr.write("perfbench: run from a checkout holding src/qubitvar and BENCHMARK.json\n")
        return 2
    spec = json.loads(spec_file.read_text())
    workload_cls = WORKLOADS[args.workload]

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # set-up is timed in fresh interpreters, before this one loads numpy
    setup = ([] if args.trace else
             measure_setup(root, workload_cls.entry_module, 2 if args.smoke else SETUP_REPEATS))

    sys.path.insert(0, str(root / "src"))
    import qubitvar
    import qubitvar.cli  # noqa: F401  (the layer modules, bound as attributes)
    import qubitvar.verify  # noqa: F401

    if not Path(qubitvar.__file__).resolve().is_relative_to((root / "src").resolve()):
        sys.stderr.write(f"perfbench: imported {qubitvar.__file__}, not this checkout\n")
        return 1

    (root / WORKDIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / WORKDIR) as workdir:
        workload = workload_cls(args.seed, "smoke" if args.smoke else "full", Path(workdir))
        tracer = Tracer(qubitvar) if args.trace else None
        raw = run_units(qubitvar, workload, args.seconds, tracer)
    try:
        (root / WORKDIR).rmdir()
    except OSError:
        pass  # another run is still using it
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = len(raw["unit_walls"]) + len(raw["traced_walls"])
    attempted, failed = raw["attempted"], raw["failed"]

    if args.trace:
        try:
            metrics = per_layer(raw, spec["per_layer"])
        except ValueError as exc:
            sys.stderr.write(f"perfbench: {exc}\n")
            return 1
    else:
        metrics = end_to_end(raw, attempted // units, setup, rss_mb)
        missing = {m["name"] for m in spec["end_to_end"]} - set(metrics)
        if missing:
            sys.stderr.write(f"perfbench: no value for {sorted(missing)}\n")
            return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(raw['unit_walls'])} untraced and {len(raw['traced_walls'])} traced units, "
          f"{attempted // units} {workload_cls.items_name} per unit")
    print(f"  fail_frac = {failed / attempted!r} ({failed} of {attempted} items failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
