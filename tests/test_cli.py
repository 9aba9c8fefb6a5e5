"""CLI contract: flags, exact headers, exit codes, reproducible bytes."""

import json
import subprocess
import sys

import pytest

from conftest import CLI_ENV
from qubitvar import verify
from qubitvar.cli import main

REPORT_KEYS = [
    "varA",
    "varB",
    "product",
    "rur_bound",
    "sur_bound",
    "eq19_bound",
    "remainder",
    "equality_residual",
    "sum_lhs",
    "sum_bound",
    "entropy_sum",
    "entropy_bound",
    "mixedness",
    "mixedness_estimate",
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_maximally_mixed_defaults(self, capsys):
        code, out, _ = run_cli(["report", "--bloch", "0,0,0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == REPORT_KEYS
        assert payload["mixedness"] == 0.5
        assert payload["product"] == 1.0
        assert payload["eq19_bound"] == 1.0
        assert payload["mixedness_estimate"] == 0.5

    def test_pure_state(self, capsys):
        code, out, _ = run_cli(["report", "--bloch", "0,0,1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["mixedness"] == 0.0
        assert payload["equality_residual"] == 0.0

    def test_collinear_pair_null_estimate(self, capsys):
        code, out, _ = run_cli(
            ["report", "--bloch", "0.2,0,0", "--obs-a", "1,0,0,0", "--obs-b", "2,0,0,1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mixedness_estimate"] is None
        assert payload["reason"] == "collinear"

    def test_invalid_bloch_is_config_error(self, capsys):
        code, _, err = run_cli(["report", "--bloch", "1,1,1"], capsys)
        assert code == 2
        assert "bloch" in err.lower()

    def test_malformed_vector_is_config_error(self, capsys):
        code, _, _ = run_cli(["report", "--bloch", "1,2"], capsys)
        assert code == 2

    def test_degenerate_observable_is_config_error(self, capsys):
        code, _, _ = run_cli(
            ["report", "--bloch", "0,0,0", "--obs-a", "0,0,0,1"], capsys
        )
        assert code == 2

    def test_non_finite_bloch_is_config_error(self, capsys):
        code, out, err = run_cli(["report", "--bloch", "nan,0,0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --bloch")

    def test_non_finite_observable_is_config_error(self, capsys):
        code, out, err = run_cli(["report", "--bloch", "0,0,0", "--obs-a", "nan,0,0,0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --obs-a")

    def test_overflowing_moments_are_config_error(self, capsys, tmp_path):
        # finite coefficients whose moments would overflow are rejected
        # before any arithmetic: the error line alone, no warning before it
        out_file = tmp_path / "x.csv"
        for args in (
            ["report", "--bloch", "0.5,0,0", "--obs-a", "1e200,0,0,0"],
            ["sweep", "--fig2", "--steps", "4", "--obs-a", "1e200,0,0,0",
             "--output", str(out_file)],
        ):
            code, out, err = run_cli(args, capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: --obs-a") and err.count("\n") == 1
            assert not out_file.exists()


class TestSimulate:
    def test_header_exact(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--alpha", "0.3", "--t-end", "0.01", "--step", "0.005"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "t,rho11,re_rho12,im_rho12,mixedness"

    def test_both_header_exact(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--alpha", "0.3", "--lambda", "1", "--t-end", "0.01",
                "--step", "0.005", "--source", "both",
            ],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "t,rho11,re_rho12,im_rho12,mixedness,rho11_numeric,max_abs_dev"

    def test_dark_ground_state_with_default_lambda(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--alpha", "0", "--t-end", "0.02", "--step", "0.005"], capsys
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert all(row.split(",")[1] == "0.0" for row in rows)

    def test_both_deviation_small(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--alpha", "0.7854", "--lambda", "1", "--t-end", "1.0",
                "--source", "both",
            ],
            capsys,
        )
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert float(last[-1]) <= 1e-6

    def test_steady_state_long_run(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--lambda", "1", "--t-end", "20", "--step", "0.01"], capsys
        )
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert abs(float(last[1]) - 1 / 3) < 1e-6

    def test_analytic_with_drive_is_config_error(self, capsys):
        code, _, err = run_cli(["simulate", "--omega", "0.5"], capsys)
        assert code == 2
        assert "omega" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lambda", "1e200", "--source", "numeric", "--t-end", "0.01"],
            # a step far too large for the drive: the state leaves the ball
            ["--source", "numeric", "--omega", "300", "--lambda", "1", "--step", "1e-2",
             "--t-end", "10"],
            ["--t-end", "inf"],
            ["--t-end", "nan"],
            ["--lambda", "-1"],
            ["--alpha", "nan"],
            # more steps than the integrator takes: refused before the first
            ["--source", "numeric", "--t-end", "1e12"],
            ["--omega", "-1", "--source", "numeric"],
            ["--alpha", "inf", "--source", "numeric"],
        ],
    )
    def test_out_of_domain_input_exits_two(self, flags, capsys):
        code, out, err = run_cli(["simulate", *flags], capsys)
        assert code == 2
        assert out == ""
        # the error line alone: no floating-point warning printed before it
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("source", ["analytic", "both", "numeric"])
    def test_overflowing_lambda_exits_two(self, source, capsys):
        # lam^2 overflows the decay rate: refused by name before any step
        code, out, err = run_cli(["simulate", "--lambda", "1e200", "--source", source], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: lam = 1e+200 overflows the decay rate 1 + 2 lam^2\n"

    def test_numeric_with_drive_works(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--alpha", "0", "--omega", "1.0", "--t-end", "0.01",
                "--step", "0.005", "--source", "numeric",
            ],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 4


class TestSweep:
    def test_fig2_file_and_sidecar(self, tmp_path, capsys):
        out_file = tmp_path / "fig2.csv"
        code, _, _ = run_cli(
            ["sweep", "--fig2", "--steps", "5", "--output", str(out_file)], capsys
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "alpha,lambda,t,ti1,ti2,ti3"
        assert len(lines) == 26
        sidecar = json.loads((tmp_path / "fig2.meta.json").read_text())
        assert sidecar["source"] == "analytic"
        assert sidecar["seed"] == 0
        assert set(sidecar["violations"]) == {
            "points_all_defined", "ti1_gt_ti2", "ti1_gt_ti3",
        }

    def test_fig3_all_defined(self, tmp_path, capsys):
        out_file = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            ["sweep", "--fig3", "--steps", "4", "--output", str(out_file)], capsys
        )
        assert code == 0
        for line in out_file.read_text().splitlines()[1:]:
            ti1_cell = line.split(",")[3]
            assert ti1_cell != ""
            assert float(ti1_cell) >= 1.0 - 1e-9

    def test_minimal_grid_stable_order(self, tmp_path, capsys):
        out_file = tmp_path / "tiny.csv"
        code, _, _ = run_cli(
            ["sweep", "--fig2", "--steps", "2", "--output", str(out_file)], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        assert len(rows) == 4
        alphas = [float(r[0]) for r in rows]
        assert alphas == sorted(alphas)

    def test_requires_exactly_one_preset(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["sweep", "--output", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        code, _, _ = run_cli(
            ["sweep", "--fig2", "--fig3", "--output", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2

    def test_requires_output(self, capsys):
        code, _, _ = run_cli(["sweep", "--fig2"], capsys)
        assert code == 2

    def test_undefined_ratio_serializes_as_empty_cell(self, tmp_path, capsys):
        out_file = tmp_path / "undef.csv"
        code, _, _ = run_cli(
            ["sweep", "--fig2", "--steps", "2", "--obs-a", "0,0,1,0",
             "--obs-b", "0,0,1,1", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        for line in out_file.read_text().splitlines()[1:]:
            cells = line.split(",")
            # shared Bloch axis: variance-product and entropic bounds vanish
            assert cells[3] == ""
            assert cells[4] == ""
            assert cells[5] != ""

    def test_overflowing_lambda_exits_two(self, tmp_path, capsys):
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["sweep", "--fig2", "--lambda", "1e200", "--output", str(out_file)], capsys
        )
        assert code == 2
        assert err.startswith("error: ")
        assert not out_file.exists()

    def test_invalid_ranges(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        for bad in (
            ["--steps", "1"], ["--t-end", "-1"], ["--t-end", "inf"],
            # work caps, checked before any array is built or step taken
            ["--steps", "100000000000"], ["--source", "numeric", "--t-end", "1e12"],
        ):
            code, _, err = run_cli(["sweep", "--fig2", *bad, "--output", str(out_file)], capsys)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert not out_file.exists()


class TestEstimate:
    def test_fields_and_sanity(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--bloch", "0,0,0", "--shots", "1000000"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == [
            "shots", "estimate", "std_error", "true_mixedness", "z_score",
        ]
        assert payload["true_mixedness"] == 0.5
        assert abs(payload["z_score"]) < 5

    def test_pure_state_small_shots(self, capsys):
        code, out, _ = run_cli(["estimate", "--bloch", "0,0,1", "--shots", "10"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["true_mixedness"] == 0.0
        assert abs(payload["estimate"]) < 0.5

    def test_collinear_exits_one(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--bloch", "0,0,0", "--obs-b", "2,0,0,1"], capsys
        )
        assert code == 1
        assert "collinear" in err

    def test_bad_shots_config_error(self, capsys):
        code, _, _ = run_cli(["estimate", "--bloch", "0,0,0", "--shots", "0"], capsys)
        assert code == 2

    def test_too_many_shots_exits_two(self, capsys):
        # beyond numpy's binomial, which would raise OverflowError
        code, out, err = run_cli(
            ["estimate", "--bloch", "0,0,0", "--shots", "100000000000000000000000"], capsys
        )
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and err.startswith("error:")


class TestVerifyCommand:
    def test_smoke_mode_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--samples", "10"], capsys)
        count = len(verify.CHECKS)
        assert code == 0
        assert f"invariant checks: {count}" in out
        assert f"{count}/{count} checks passed" in out
        assert out.count("PASS") == count

    def test_too_many_samples_exits_two(self, capsys, monkeypatch):
        def must_not_run(samples, seed):
            raise AssertionError("a check ran above the sample cap")

        monkeypatch.setattr(verify, "CHECKS", [(must_not_run, 1)])
        samples = str(verify.MAX_SAMPLES + 1)
        code, out, err = run_cli(["verify", "--samples", samples], capsys)
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and err.startswith("error:")


class TestExitCodes:
    def test_unknown_flag_exits_two(self, capsys):
        assert main(["report", "--no-such-flag"]) == 2

    def test_wrong_format_exits_two(self, capsys):
        assert main(["report", "--bloch", "0,0,0", "--format", "csv"]) == 2
        assert main(["simulate", "--format", "json"]) == 2
        assert main(["estimate", "--bloch", "0,0,0", "--format", "csv"]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--bloch", "0.1,0,0", "--shots", "10", "--seed", "-3"],
            ["verify", "--seed", "-1"],
            ["verify", "--samples", "-5"],
            ["verify", "--samples", "1"],
            ["sweep", "--fig2", "--steps", "2", "--seed", "-3"],
        ],
    )
    def test_out_of_domain_integer_flag_exits_two(self, args, capsys, monkeypatch, tmp_path):
        # refused before any work: no check runs and no file is written
        def must_not_run(samples, seed):
            raise AssertionError("a check ran for a refused flag")

        monkeypatch.setattr(verify, "CHECKS", [(must_not_run, 2)])
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(args + ["--output", str(out_file)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()


class TestDeterminism:
    """Fixed seed + fixed flags must give byte-identical output."""

    def run_bytes(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "qubitvar", *args],
            capture_output=True,
            check=False,
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b""
        return proc.stdout

    def test_report_bytes_stable(self):
        args = ["report", "--bloch", "0.3,0.1,-0.2"]
        assert self.run_bytes(args) == self.run_bytes(args)

    def test_estimate_bytes_stable(self):
        args = ["estimate", "--bloch", "0.2,0,0.4", "--shots", "20000", "--seed", "7"]
        assert self.run_bytes(args) == self.run_bytes(args)

    def test_simulate_bytes_stable(self):
        args = ["simulate", "--alpha", "0.6", "--lambda", "0.8", "--t-end", "0.05",
                "--step", "0.005", "--source", "both"]
        assert self.run_bytes(args) == self.run_bytes(args)

    def test_sweep_files_stable(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "qubitvar", "sweep", "--fig3",
                    "--steps", "6", "--seed", "3", "--output", str(out_file),
                ],
                capture_output=True,
                check=False,
                env=CLI_ENV,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            assert proc.stderr == b""
            sidecar = out_file.with_suffix(".meta.json")
            blobs.append((out_file.read_bytes(), sidecar.read_bytes()))
        assert blobs[0] == blobs[1]
