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
    # a sidecar holding -0.0, 1e-07, 1e+75, 1e-08 and 0.30000000000000004
    "sweep_sidecar_edge_values": ["--fig2", "--steps", "2", "--t-end", "1e-8",
                                  "--lambda", "0.30000000000000004",
                                  "--obs-a=1e-7,0,0,-0.0", "--obs-b=0,0,1e75,1e75"],
    # sx in units of 1e-10: the same ti1 and ti2 as at unit scale
    "sweep_fig2_nano_obs": ["--fig2", "--steps", "4", "--obs-a", "1e-10,0,0,0"],
    # a pinned alpha of -0.0: the signed coordinate on every row
    "sweep_fig3_negative_zero_alpha": ["--fig3", "--alpha=-0.0", "--steps", "3"],
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
    # sx and sz in milli-units: the same estimate as at unit scale
    "report_milli_units": ["report", "--bloch", "0.3,0.1,-0.2", "--obs-a", "0.001,0,0,0",
                           "--obs-b", "0,0,0.001,0"],
    # sx in units of 1e-10: the same entropic fields and estimate as at unit scale
    "report_nano_units": ["report", "--bloch", "0.3,0.1,-0.2", "--obs-a", "1e-10,0,0,0"],
    # sx and sz in units of 1e-80: |a|^2 |b|^2 underflows, so no estimate
    "report_underflow_pair": ["report", "--bloch", "0.3,0.1,-0.2", "--obs-a", "1e-80,0,0,0",
                              "--obs-b", "0,0,1e-80,0"],
    # a state at the edge of the ball's tolerance: varA clamps to 0 at any scale
    "report_ball_edge_large_obs": ["report", "--bloch", "1.0000000000004,0,0",
                                   "--obs-a", "100,0,0,0"],
    "estimate": ["estimate", "--bloch", "0.2,0,0.4", "--shots", "50000", "--seed", "11"],
    # a general pair, so (AB + BA)/2 is measured too
    "estimate_general": ["estimate", "--bloch", "0.2,0.1,0.4", "--obs-a", "1,0,0.3,0.5",
                         "--obs-b=-0.2,0.7,1.1,-0.4", "--shots", "50000", "--seed", "4"],
    # the same with the negative first value after a space
    "estimate_general_spaced": ["estimate", "--bloch", "0.2,0.1,0.4", "--obs-a", "1,0,0.3,0.5",
                                "--obs-b", "-0.2,0.7,1.1,-0.4", "--shots", "50000",
                                "--seed", "4"],
    "estimate_pure": ["estimate", "--bloch", "0,0,1", "--shots", "10"],
    # coefficients whose (AB + BA)/2 is beyond what an observable accepts
    "estimate_large_coefficients": ["estimate", "--bloch", "0.2,0.1,0.3",
                                    "--obs-a", "1e50,0,0,1e50", "--obs-b", "0,0,1e50,1e50",
                                    "--shots", "1000"],
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
    "error_alpha_overflow": ["simulate", "--alpha", "1e308", "--source", "numeric"],
    "error_omega_overflow_numeric": ["simulate", "--source", "numeric", "--omega", "1e308",
                                     "--t-end", "0.01"],
    # 2 omega is finite, but the RK4 step map overflows
    "error_omega_step_overflow": ["simulate", "--source", "numeric", "--omega", "1e200",
                                  "--t-end", "0.01"],
    "error_alpha_overflow_sweep": ["sweep", "--fig3", "--alpha", "1e308",
                                   "--output", "{out}/error_alpha_overflow_sweep.csv"],
    "error_positivity_sweep": ["sweep", "--fig2", "--lambda", "100", "--source", "numeric",
                               "--steps", "4", "--output", "{out}/error_positivity_sweep.csv"],
    "error_degenerate_report": ["report", "--bloch", "0,0,0", "--obs-a", "0,0,0,1"],
    "error_degenerate_estimate": ["estimate", "--bloch", "0,0,0", "--obs-a", "0,0,0,1"],
    "error_degenerate_sweep": ["sweep", "--fig2", "--obs-a", "0,0,0,1",
                               "--output", "{out}/error_degenerate_sweep.csv"],
    # a t axis too narrow for 3 distinct points: refused alike by both sources
    "error_sweep_narrow_t_axis": ["sweep", "--fig2", "--t-end", "5e-324", "--steps", "3",
                                  "--output", "{out}/error_sweep_narrow_t_axis.csv"],
    "error_sweep_narrow_t_axis_numeric": ["sweep", "--fig2", "--t-end", "5e-324", "--steps", "3",
                                          "--source", "numeric", "--output",
                                          "{out}/error_sweep_narrow_t_axis_numeric.csv"],
    "error_zero_shots": ["estimate", "--bloch", "0,0,0", "--shots", "0"],
    # refused vector flags: a wrong count, a non-number, a non-finite value,
    # a state outside the ball, a coefficient above COEFF_MAX
    "error_flag_count_report": ["report", "--bloch", "1,2"],
    "error_flag_count_estimate": ["estimate", "--bloch", "1,2"],
    "error_flag_count_sweep": ["sweep", "--fig2", "--obs-a", "1,2",
                               "--output", "{out}/error_flag_count_sweep.csv"],
    "error_flag_number_report": ["report", "--bloch", "x,0,0"],
    "error_flag_number_estimate": ["estimate", "--bloch", "0,0,0", "--obs-b", "0,x,1,0"],
    "error_flag_number_sweep": ["sweep", "--fig3", "--obs-b", "x,0,1,0",
                                "--output", "{out}/error_flag_number_sweep.csv"],
    "error_flag_nan_report": ["report", "--bloch", "nan,0,0"],
    "error_flag_nan_estimate": ["estimate", "--bloch", "0,0,0", "--obs-a", "nan,0,0,0"],
    "error_flag_inf_sweep": ["sweep", "--fig2", "--obs-a", "inf,0,0,0",
                             "--output", "{out}/error_flag_inf_sweep.csv"],
    "error_flag_ball_report": ["report", "--bloch", "2,0,0"],
    "error_flag_ball_estimate": ["estimate", "--bloch", "0,2,0"],
    "error_flag_coeff_report": ["report", "--bloch", "0,0,0", "--obs-a", "1e77,0,0,0"],
    "error_flag_coeff_estimate": ["estimate", "--bloch", "0,0,0", "--obs-b", "0,0,1e77,0"],
    "error_flag_coeff_sweep": ["sweep", "--fig2", "--obs-b", "0,0,1,-1e77",
                               "--output", "{out}/error_flag_coeff_sweep.csv"],
    "error_verify_one_sample": ["verify", "--samples", "1"],
    # an --output path in a missing directory, relative to the checkout root
    "error_output_missing_dir": ["report", "--bloch", "0,0,0",
                                 "--output", "no-such-dir/report.json"],
    # argparse's own routes: usage errors exit 2 with the usage on stderr, help exits 0
    "usage_no_command": [],
    "usage_unknown_command": ["bogus"],
    "usage_extra_argument": ["report", "--bloch", "0,0,0", "extra"],
    "usage_missing_flag": ["report"],
    "usage_help_sweep": ["sweep", "--help"],
    "usage_dash_dash": ["--", "report", "--bloch", "0,0,0"],
}


def run(outdir: Path, name: str, argv: list) -> None:
    # argparse wraps usage and help at COLUMNS, so it is pinned
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
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
