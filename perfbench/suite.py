"""Run every workload over two sets of seeds and check that the figures are steady.

    python3 perfbench/suite.py [--runs 10] [--trace] [--out perfbench/baseline.json]

Two sets of --runs runs each, on distinct seeds: the first set uses
seeds 1 .. runs, the second the next --runs seeds.
Within a set, workloads are interleaved: run i visits every workload
once, in an order rotated by i, so a slow spell of the host spreads over
all workloads instead of landing on one.  For each set, workload and
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound, and then how far the
second set's median is worse than the first's.  --trace adds one traced
run per workload.  --out also records the host: Python and numpy
versions, CPU count and model, and the load average at the start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETS = 2


def host_metadata() -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    cpu_model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        print(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}", flush=True)
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values), "values": values}


def run_set(spec: dict, names: list[str], seeds: list[int]) -> dict:
    results = {name: [] for name in names}
    for i, seed in enumerate(seeds):
        order = names[i % len(names):] + names[:i % len(names)]
        for name in order:
            result = run_once(spec, name, seed, 0)
            results[name].append(result)
            print(f"run {i + 1}/{len(seeds)} {name} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    summary = {}
    for name in names:
        runs = results[name]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary[name] = {
            "seeds": seeds, "fail_frac": failed / attempted, "attempted": attempted,
            "metrics": {m["name"]: dict(summarise([r["metrics"][m["name"]]["value"]
                                                   for r in runs]), unit=m["unit"])
                        for m in spec["end_to_end"]},
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    meta = host_metadata()
    print(f"host: {json.dumps(meta)}", flush=True)

    sets = []
    for k in range(SETS):
        first = 1 + k * args.runs
        sets.append(run_set(spec, names, list(range(first, first + args.runs))))

    worst_spread = worst_shift = 0.0
    for k, summary in enumerate(sets):
        print(f"\nset {k + 1}")
        for name in names:
            s = summary[name]
            print(f"{name}: fail_frac = {s['fail_frac']} (of {s['attempted']})")
            for m in spec["end_to_end"]:
                v = s["metrics"][m["name"]]
                flag = "" if v["spread"] < m["bound"] / 3 else "  <-- spread above bound/3"
                worst_spread = max(worst_spread, v["spread"] / m["bound"])
                print(f"  {m['name']:<12} median {v['median']:<12.6g} q1 {v['q1']:<12.6g} "
                      f"q3 {v['q3']:<12.6g} spread {v['spread']:.4f} (bound {m['bound']}) "
                      f"{m['unit']}{flag}")
    print("\nsecond set's median against the first's (positive = worse)")
    for name in names:
        for m in spec["end_to_end"]:
            a, b = (summary[name]["metrics"][m["name"]]["median"] for summary in sets)
            shift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            worst_shift = max(worst_shift, shift / m["bound"])
            flag = "" if shift <= m["bound"] else "  <-- worse by more than the bound"
            print(f"  {name:<14} {m['name']:<12} {shift:+.4f} (bound {m['bound']}){flag}")

    traced = {}
    if args.trace:
        for name in names:
            result = run_once(spec, name, 1, 1)
            traced[name] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"\n{name} traced:")
            for k, v in result["metrics"].items():
                print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(f"\nlargest spread as a share of its bound: {worst_spread:.3f}")
    print(f"largest median shift as a share of its bound: {worst_shift:.3f}")
    if args.out:
        meta["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        Path(args.out).write_text(json.dumps(
            {"host": meta, "runs_per_set": args.runs, "run_seconds": spec["run_seconds"],
             "sets": sets, "traced": traced}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
