"""Smoke-size self-test of the benchmark itself.

    python3 perfbench/selftest.py        (from the root of a checkout, about a minute)

Checks that every metric BENCHMARK.json names appears with its unit,
that a perturbed ti1 cell counts as a failure, that a traced run with a
missing or undeclared per-layer metric is refused, that two traced runs
with the same seed give identical counts, and that the benchmark
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import WORKDIR, per_layer  # noqa: E402
from workloads import WORKLOADS, Fig2Analytic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    metrics = result["metrics"]
    for m in declared:
        assert m["name"] in metrics, f"{label}: {m['name']} missing"
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry['unit']}"
        assert math.isfinite(entry["value"]), f"{label}: {m['name']} = {entry['value']}"


def test_metrics_and_counts() -> None:
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for workload in WORKLOADS:
        untraced = result_of(run(workload, 7, 0))
        check_metrics(untraced, SPEC["end_to_end"], workload)
        for m in SPEC["end_to_end"]:
            assert untraced["metrics"][m["name"]]["value"] > 0, (workload, m["name"])
        first, second = (result_of(run(workload, 7, 1)) for _ in range(2))
        check_metrics(first, SPEC["per_layer"], workload)
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between runs: {a} != {b}"
        if workload == "verify_checks":
            for m in SPEC["per_layer"]:
                if m["name"].startswith("verify."):
                    assert first["metrics"][m["name"]]["value"] > 0, m["name"]
        print(f"ok {workload}: metrics present with units, traced counts repeat")


def test_perturbed_cell_fails() -> None:
    import qubitvar
    import qubitvar.cli  # noqa: F401

    (ROOT / WORKDIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / WORKDIR) as tmp:
        workload = Fig2Analytic(3, "smoke", Path(tmp))
        code, text = workload.run_unit(qubitvar, [])
        attempted, failed = workload.check(qubitvar, (code, text))
        assert (attempted, failed) == (64, 0), (attempted, failed)
        lines = text.splitlines()
        cells = lines[5].split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)
        lines[5] = ",".join(cells)
        perturbed = "\n".join(lines) + "\n"
        assert workload.check(qubitvar, (code, perturbed)) == (64, 1)
        assert workload.check(qubitvar, (code, "\n".join(lines[:-1]))) == (64, 64)
    print("ok perturbed ti1 cell and a missing row count as failures")


def test_per_layer_names_must_match() -> None:
    """Verify checks may be absent all together (never called), not one by one."""
    declared = SPEC["per_layer"]
    checks = [m["name"] for m in declared
              if m["name"].startswith("verify.") and m["name"] != "verify.self_s"]
    others = {m["name"]: 0.0 for m in declared
              if m["name"] not in checks and m["name"] != "trace.overhead_frac"}
    raw = {"traced_walls": [1.0], "unit_walls": [1.0]}
    per_layer(dict(raw, layers=[others]), declared)
    per_layer(dict(raw, layers=[dict(others, **dict.fromkeys(checks, 1.0))]), declared)
    for layers in (dict(others, **dict.fromkeys(checks[1:], 1.0)),
                   dict(others, **dict.fromkeys(checks, 1.0), **{"verify.extra_s": 1.0})):
        try:
            per_layer(dict(raw, layers=[layers]), declared)
        except ValueError:
            continue
        raise AssertionError("a missing or undeclared verify check was accepted")
    print("ok per-layer names must match the declared metrics")


def test_refuses_without_source() -> None:
    (ROOT / WORKDIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / WORKDIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", "meter_stream", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and proc.stdout.strip() == "", proc
    print("ok refuses to run without the program's source")


if __name__ == "__main__":
    test_perturbed_cell_fails()
    test_per_layer_names_must_match()
    test_refuses_without_source()
    test_metrics_and_counts()
    try:
        (ROOT / WORKDIR).rmdir()
    except OSError:
        pass
    print("selftest passed")
