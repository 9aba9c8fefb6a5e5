"""CLI contract: flags, exact headers, exit codes, reproducible bytes."""

import json
import subprocess
import sys
import warnings

import pytest

from conftest import CLI_ENV
from qubitvar import cli, verify
from qubitvar.cli import build_parser, main

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

    def test_degenerate_observable_is_config_error(self, capsys, tmp_path):
        # every command names a degenerate spectrum with the same line
        out_file = tmp_path / "x.csv"
        for command in (["report", "--bloch", "0,0,0"], ["estimate", "--bloch", "0,0,0"],
                        ["sweep", "--fig2", "--steps", "4"]):
            code, out, err = run_cli(
                command + ["--obs-a", "0,0,0,1", "--output", str(out_file)], capsys
            )
            assert code == 2 and out == ""
            assert err == "error: degenerate observable spectrum: eigenvalue gap 2|a| = 0.000e+00\n"
            assert not out_file.exists()

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


class TestNegativeVectorValues:
    """A vector option takes a value whose first number is negative with or without '='."""

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            (["report"], "--bloch", "-0.2,0.1,0.4"),
            (["report", "--bloch", "0.2,0.1,0.4"], "--obs-a", "-1,0,0.3,0.5"),
            (["estimate", "--bloch", "0.2,0.1,0.4", "--obs-a", "1,0,0.3,0.5",
              "--shots", "50000", "--seed", "4"], "--obs-b", "-0.2,0.7,1.1,-0.4"),
            (["report", "--bloch", "0,0,0"], "--obs-b", "-.5,0,1,0"),
            (["report"], "--blo", "-0.2,0.1,0.4"),  # an abbreviated option
        ],
    )
    def test_spaced_value_matches_joined(self, command, flag, value, capsys):
        joined = run_cli(command + [f"{flag}={value}"], capsys)
        spaced = run_cli(command + [flag, value], capsys)
        assert joined[0] == 0
        assert spaced == joined

    @pytest.mark.parametrize("value", ["-inf,0,0", "-nan,0,0"])
    def test_spaced_non_finite_value_gets_its_domain_error(self, value, capsys):
        joined = run_cli(["report", f"--bloch={value}"], capsys)
        spaced = run_cli(["report", "--bloch", value], capsys)
        assert joined[0] == 2 and joined[2].startswith("error: --bloch: components must be finite")
        assert spaced == joined

    def test_following_flag_is_not_a_value(self, capsys):
        code, out, err = run_cli(["estimate", "--bloch", "0,0,0", "--obs-b", "--seed", "3"], capsys)
        assert code == 2 and out == ""
        assert err.endswith("error: argument --obs-b: expected one argument\n")


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
        # lam^2 overflows the decay rate, or 2 alpha the angle: refused by
        # name before any step, with no floating-point warning
        for flags, message in (
            (["--lambda", "1e200"], "lam = 1e+200 overflows the decay rate 1 + 2 lam^2"),
            (["--alpha", "1e308"], "alpha = 1e+308 overflows the angle 2 alpha"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(["simulate", *flags, "--source", source], capsys)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"

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
        # the pinned lambda of --fig2 or alpha of --fig3 overflows
        out_file = tmp_path / "x.csv"
        for flags, message in (
            (["--fig2", "--lambda", "1e200"], "lam = 1e+200 overflows"),
            (["--fig3", "--alpha", "1e308"], "alpha = 1e+308 overflows the angle 2 alpha"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run_cli(["sweep", *flags, "--output", str(out_file)], capsys)
            assert code == 2
            assert err.startswith(f"error: {message}") and err.count("\n") == 1
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


class TestOneProcess:
    """main may be called repeatedly in one process; no call changes the next."""

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        assert main(["report", "--bloch", "0,0,0"]) == 0

        def must_not_run():
            raise AssertionError("main built its parser again")

        monkeypatch.setattr(cli, "build_parser", must_not_run)
        assert main(["report", "--bloch", "0,0,0"]) == 0

    def test_command_is_looked_up_per_call(self, capsys, monkeypatch):
        assert main(["report", "--bloch", "0,0,0"]) == 0
        monkeypatch.setattr(cli, "cmd_report", lambda args: 7)
        assert main(["report", "--bloch", "0,0,0"]) == 7

    def test_import_leaves_verify_unloaded(self):
        code = "import sys, qubitvar.cli; sys.exit('qubitvar.verify' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=CLI_ENV).returncode == 0

    def test_defaults_are_not_carried_over(self, tmp_path, capsys):
        out_file = tmp_path / "x.csv"
        sidecar = tmp_path / "x.meta.json"
        base = ["sweep", "--fig2", "--steps", "2", "--output", str(out_file)]
        assert run_cli(base + ["--lambda", "0.5"], capsys)[0] == 0
        assert json.loads(sidecar.read_text())["grid"]["lambda"]["lo"] == 0.5
        assert run_cli(base, capsys)[0] == 0
        assert json.loads(sidecar.read_text())["grid"]["lambda"]["lo"] == 1.0

    def test_numeric_sweep_repeats_its_bytes(self, tmp_path, capsys):
        # a numeric sweep run again after a sweep on another grid, whose
        # intervals take other step counts, writes the same CSV and sidecar
        out_file = tmp_path / "x.csv"
        numeric = ["sweep", "--fig3", "--source", "numeric", "--steps", "6", "--t-end", "0.5",
                   "--output", str(out_file)]
        other = ["sweep", "--fig2", "--source", "numeric", "--steps", "5", "--t-end", "0.7",
                 "--output", str(out_file)]
        runs = []
        for args in (numeric, other, numeric):
            assert run_cli(args, capsys)[0] == 0
            runs.append(_files(out_file))
        assert runs[0] == runs[2] and runs[0] != runs[1]

    def test_help_twice_is_identical(self, capsys):
        for args in (["--help"], ["sweep", "--help"]):
            first = run_cli(args, capsys)
            assert first[0] == 0 and first[1]
            assert run_cli(args, capsys) == first

    def test_sequence_matches_fresh_processes(self, tmp_path, capsys):
        sequence = [
            ["report", "--bloch", "0.3,0.1,-0.2"],
            ["report", "--no-such-flag"],  # a usage error, then a valid call
            ["simulate", "--source", "both"],
            ["sweep", "--fig3", "--source", "numeric", "--steps", "4", "--output", "{out}"],
            ["estimate", "--bloch", "0.2,0,0.4", "--shots", "20000", "--seed", "7"],
            ["estimate", "--bloch", "0,0,0", "--shots", "0"],  # a refused input
        ]
        in_process, fresh = [], []
        for args in sequence:
            out_file = tmp_path / "in_process.csv"
            result = run_cli([a.format(out=out_file) for a in args], capsys)
            in_process.append((*result, *_files(out_file)))
            out_file = tmp_path / "fresh.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "qubitvar", *(a.format(out=out_file) for a in args)],
                capture_output=True, text=True, env=CLI_ENV,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr, *_files(out_file)))
        assert [r[0] for r in in_process] == [0, 2, 0, 0, 0, 2]
        assert in_process == fresh


def _files(out_file):
    """A sweep's CSV and sidecar bytes, removed once read; None for a missing file."""
    blobs = []
    for path in (out_file, out_file.with_suffix(".meta.json")):
        blobs.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return blobs


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
