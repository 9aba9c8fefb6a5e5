#!/usr/bin/env python3
"""Write the outputs of a fixed list of commands to OUTDIR.

Usage: python scripts/snapshot_outputs.py OUTDIR

Each command runs in a fresh interpreter against the src/ tree next to
this script.  For a command NAME the snapshot holds NAME.stdout,
NAME.stderr and NAME.exit; a sweep also leaves NAME.csv and its sidecar
NAME.meta.json.  Two checkouts are equivalent on this list when
`diff -r` of their snapshots is empty.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWEEPS = {
    "sweep_fig2": ["--fig2"],
    "sweep_fig3": ["--fig3"],
    "sweep_fig3_numeric": ["--fig3", "--source", "numeric"],
    "sweep_fig2_numeric_short": ["--fig2", "--steps", "8", "--source", "numeric",
                                 "--t-end", "2.37"],
    "sweep_fig2_obs": ["--fig2", "--steps", "6", "--obs-a", "1,0,1,0", "--obs-b", "1,0,1,0.5"],
}

COMMANDS = {
    "simulate_analytic": ["simulate", "--source", "analytic"],
    "simulate_numeric": ["simulate", "--source", "numeric"],
    "simulate_both": ["simulate", "--source", "both"],
    "simulate_driven": ["simulate", "--source", "numeric", "--omega", "0.7", "--t-end", "0.7005"],
    "report": ["report", "--bloch", "0.3,0.1,-0.2"],
    # a general pair; negative first values after a space
    "report_general": ["report", "--bloch", "-0.2,0.1,0.4", "--obs-a", "1,0,0.3,0.5",
                       "--obs-b", "-0.2,0.7,1.1,-0.4"],
    # collinear observables: no mixedness estimate, entropy bound 0
    "report_collinear": ["report", "--bloch", "0.6,0,0", "--obs-b", "2,0,0,1"],
    "estimate": ["estimate", "--bloch", "0.2,0,0.4", "--shots", "50000", "--seed", "11"],
    # a general pair, so (AB + BA)/2 is measured too
    "estimate_general": ["estimate", "--bloch", "0.2,0.1,0.4", "--obs-a", "1,0,0.3,0.5",
                         "--obs-b=-0.2,0.7,1.1,-0.4", "--shots", "50000", "--seed", "4"],
    # the same with the negative first value after a space
    "estimate_general_spaced": ["estimate", "--bloch", "0.2,0.1,0.4", "--obs-a", "1,0,0.3,0.5",
                                "--obs-b", "-0.2,0.7,1.1,-0.4", "--shots", "50000",
                                "--seed", "4"],
    "estimate_pure": ["estimate", "--bloch", "0,0,1", "--shots", "10"],
    # collinear observables: exit 1
    "estimate_collinear": ["estimate", "--bloch", "0,0,0", "--obs-b", "2,0,0,1"],
    "verify": ["verify"],
    "verify_smoke": ["verify", "--samples", "5", "--seed", "3"],
    # refused inputs: exit 2 with one error line
    "error_negative_lambda": ["simulate", "--lambda", "-1"],
    "error_nan_alpha": ["simulate", "--alpha", "nan"],
    "error_negative_omega_numeric": ["simulate", "--omega", "-1", "--source", "numeric"],
    "error_inf_alpha_numeric": ["simulate", "--alpha", "inf", "--source", "numeric"],
    "error_negative_omega": ["simulate", "--omega", "-1"],
    "error_lambda_overflow_numeric": ["simulate", "--lambda", "1e200", "--source", "numeric"],
    "error_positivity_sweep": ["sweep", "--fig2", "--lambda", "100", "--source", "numeric",
                               "--steps", "4", "--output", "{out}/error_positivity_sweep.csv"],
    "error_degenerate_report": ["report", "--bloch", "0,0,0", "--obs-a", "0,0,0,1"],
    "error_degenerate_estimate": ["estimate", "--bloch", "0,0,0", "--obs-a", "0,0,0,1"],
    "error_degenerate_sweep": ["sweep", "--fig2", "--obs-a", "0,0,0,1",
                               "--output", "{out}/error_degenerate_sweep.csv"],
    "error_zero_shots": ["estimate", "--bloch", "0,0,0", "--shots", "0"],
    "error_verify_one_sample": ["verify", "--samples", "1"],
}


def run(outdir: Path, name: str, argv: list) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *argv], capture_output=True, env=env, cwd=ROOT)
    (outdir / f"{name}.stdout").write_bytes(done.stdout)
    (outdir / f"{name}.stderr").write_bytes(done.stderr)
    (outdir / f"{name}.exit").write_text(f"{done.returncode}\n")


def main(argv: list) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    for name, flags in SWEEPS.items():
        csv = str(outdir / f"{name}.csv")
        run(outdir, name, ["-m", "qubitvar", "sweep", *flags, "--output", csv])
    for name, args in COMMANDS.items():
        run(outdir, name, ["-m", "qubitvar"] + [a.format(out=outdir) for a in args])
    run(outdir, "feedback_demo", [str(ROOT / "scripts" / "feedback_demo.py")])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
