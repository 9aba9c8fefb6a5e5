"""CLI contract: flags, exact headers, exit codes, reproducible bytes."""

import argparse
import dataclasses
import json
import math
import os
import random
import re
import runpy
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import CLI_ENV, cli_processes
from qubitvar import cli, serialize, verify
from qubitvar.cli import build_parser, main
from qubitvar.tightness import GridAxis, SweepGrid, fig2_grid, sweep

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

    def test_underflowing_pair_null_estimate(self, capsys):
        # |a|^2 |b|^2 = 1e-320 is subnormal: no estimate, as for a collinear pair
        pair = ["--obs-a", "1e-80,0,0,0", "--obs-b", "0,0,1e-80,0"]
        code, out, _ = run_cli(["report", "--bloch", "0.3,0.1,-0.2"] + pair, capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["mixedness_estimate"], payload["reason"]) == (None, "collinear")
        code, out, err = run_cli(["estimate", "--bloch", "0.3,0.1,-0.2"] + pair, capsys)
        assert (code, out) == (1, "")
        assert err == "collinear observables: |a|^2 |b|^2 = 1.000e-320 underflows " \
            "the smallest normal float\n"

    def test_nano_units_report_as_unit_scale(self, capsys):
        # A = 1e-10 sx has sx's eigenbasis, so its entropic fields and the estimate are sx's
        payloads = []
        for obs_a in ("1,0,0,0", "1e-10,0,0,0"):
            code, out, _ = run_cli(["report", "--bloch", "0.3,0.1,-0.2", "--obs-a", obs_a], capsys)
            assert code == 0
            payloads.append(json.loads(out))
        for key, value in (("entropy_sum", 1.9050186498301596), ("entropy_bound", 1.0),
                           ("mixedness_estimate", 0.43)):
            assert payloads[0][key] == payloads[1][key] == value

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

    @pytest.mark.parametrize("flags", [["--omega", "1e200"], ["--omega", "1e50"],
                                       ["--omega", "1e76", "--lambda", "5e-324"]])
    def test_overflowing_step_names_step_and_parameters(self, flags, capsys):
        # 2 omega is finite but the RK4 step map overflows: the refusal names
        # h and the parameter set, not a non-finite eigenvalue
        code, out, err = run_cli(["simulate", "--source", "numeric", "--t-end", "0.01",
                                  *flags], capsys)
        omega, lam = float(flags[1]), float(flags[3]) if len(flags) > 2 else 0.0
        assert code == 2 and out == ""
        assert err == (f"error: the step h = 0.001 overflows the state at t = 0.001 for "
                       f"(alpha, lam, omega) = {(math.pi / 4, lam, omega)}\n")

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

    def test_fig2_in_nano_units(self, tmp_path, capsys):
        # ti1 and ti2 do not depend on the units of A
        columns = []
        for units, obs_a in (("unit", "1,0,0,0"), ("nano", "1e-10,0,0,0")):
            out_file = tmp_path / f"fig2_{units}.csv"
            code, _, _ = run_cli(["sweep", "--fig2", "--steps", "4", "--obs-a", obs_a,
                                  "--output", str(out_file)], capsys)
            assert code == 0
            assert out_file.with_suffix(".meta.json").exists()
            rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
            columns.append([[float(cell) for cell in row[3:5]] for row in rows])
        np.testing.assert_allclose(columns[1], columns[0], rtol=1e-9)

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


    @pytest.mark.parametrize("source", ["analytic", "numeric"])
    def test_narrow_t_axis_refused_by_both_sources(self, source, tmp_path, capsys):
        # [0, 5e-324] holds no 3 distinct points past its excluded 0: both
        # sources refuse the axis by its ends and steps, before any state
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(["sweep", "--fig2", "--t-end", "5e-324", "--steps", "3",
                                  "--source", source, "--output", str(out_file)], capsys)
        assert code == 2 and out == ""
        assert err == "error: the axis [0.0, 5e-324] is too narrow for steps = 3 distinct points\n"
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

    def test_large_coefficients(self, capsys):
        # (AB + BA)/2 has coefficients near 1e100, beyond what an observable
        # accepts; it is measured as a coefficient row
        code, out, err = run_cli(
            ["estimate", "--bloch", "0.2,0.1,0.3", "--obs-a", "1e50,0,0,1e50",
             "--obs-b", "0,0,1e50,1e50", "--shots", "1000"], capsys
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert math.isfinite(payload["estimate"]) and math.isfinite(payload["std_error"])
        assert payload["true_mixedness"] == pytest.approx(0.43, abs=1e-15)


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

    @pytest.mark.parametrize("command", [
        ["report"], ["estimate"], ["sweep", "--fig2", "--output", "{out}"],
    ], ids=["report", "estimate", "sweep"])
    @pytest.mark.parametrize("flags, message", [
        (["--obs-a", "1,2"], "--obs-a needs 4 comma-separated numbers, got '1,2'"),
        (["--obs-b", "0,x,1,0"], "--obs-b: could not convert string to float: 'x'"),
        (["--obs-a", "nan,0,0,0"], "--obs-a: components must be finite, got (nan, 0.0, 0.0, 0.0)"),
        (["--obs-b", "0,0,1,-1e77"], "--obs-b: coefficients above 1.16e+76 overflow the moments"),
    ], ids=["count", "number", "finite", "coefficient"])
    def test_observable_flag_refusals(self, command, flags, message, capsys, tmp_path):
        # each vector flag is parsed by its one row check and refused with one line
        out_file = tmp_path / "x.csv"
        args = [a.format(out=out_file) for a in command] + flags
        if command[0] != "sweep":
            args += ["--bloch", "0,0,0"]
        assert run_cli(args, capsys) == (2, "", f"error: {message}\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("command", [["report"], ["estimate"]])
    @pytest.mark.parametrize("value, message", [
        ("1,2", "--bloch needs 3 comma-separated numbers, got '1,2'"),
        ("x,0,0", "--bloch: could not convert string to float: 'x'"),
        ("nan,0,0", "--bloch: components must be finite, got (nan, 0.0, 0.0)"),
        ("2,0,0", "--bloch: |p|^2 = 4 exceeds 1 + 1e-12"),
    ], ids=["count", "number", "finite", "ball"])
    def test_state_flag_refusals(self, command, value, message, capsys):
        assert run_cli(command + ["--bloch", value], capsys) == (2, "", f"error: {message}\n")


# Values the CLI contract must hold at: the float format's edges beside in-domain numbers.
EDGE_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 1e76, -1e76, -0.0]
NON_FINITE = re.compile(r"(?i)\b-?(nan|inf|infinity)\b")


def contract_argv(rng, out_file):
    """One seeded argv for cli.main: a command whose flags take in-domain values
    or, each with probability 0.1, a float edge.  Every flag is written as
    --FLAG=VALUE, so argparse parses every argv and only the program refuses."""
    def value(*plain):
        return repr(rng.choice(EDGE_VALUES) if rng.random() < 0.1 else rng.choice(plain))

    def row(flag, n, *plain):
        return f"--{flag}=" + ",".join(value(*plain) for _ in range(n))

    def observables():
        return [row(flag, 4, 0.0, 1.0, -0.5, 2.0, 1e-10) for flag in ("obs-a", "obs-b")
                if rng.random() < 0.5]

    command = rng.choice(["report", "estimate", "simulate", "sweep"])
    if command in ("report", "estimate"):
        argv = [command, row("bloch", 3, 0.0, 0.1, -0.3, 0.5), *observables()]
        if command == "estimate":
            argv += [f"--shots={rng.choice([1, 10, 1000, 0])}",
                     f"--seed={rng.choice([0, 7, 11, -1])}"]
        return argv
    source = rng.choice(["analytic", "numeric"] + ["both"] * (command == "simulate"))
    argv = [command, f"--source={source}", "--t-end=" + value(0.01, 0.05),
            "--step=" + value(1e-3, 1e-2), "--lambda=" + value(0.0, 0.5, 3.0),
            "--alpha=" + value(0.0, 0.7, -2.0)]
    if command == "simulate":
        return argv + ["--omega=" + value(0.7, 5.0)] * (source == "numeric")
    return argv + [rng.choice(["--fig2", "--fig3"]), f"--steps={rng.choice([2, 3, 4, 1])}",
                   *observables(), f"--output={out_file}"]


class TestContractProperty:
    def test_seeded_argvs_keep_the_contract(self, tmp_path, capsys):
        # every argv exits 0, 1 or 2; an exit 2 writes one error line and no
        # output; no exit-0 stdout, CSV or sidecar holds a non-finite number
        out_file = tmp_path / "x.csv"
        sidecar = out_file.with_suffix(".meta.json")
        rng = random.Random(33)
        argvs = [contract_argv(rng, out_file) for _ in range(300)]
        argvs.append(["simulate", "--source=numeric", "--omega=1e308", "--t-end=0.01"])
        exits = []
        for argv in argvs:
            for path in (out_file, sidecar):
                path.unlink(missing_ok=True)
            code, out, err = run_cli(argv, capsys)
            exits.append(code)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
                assert not out_file.exists() and not sidecar.exists(), argv
            elif code == 0:
                written = [out] + [path.read_text() for path in (out_file, sidecar)
                                   if argv[0] == "sweep"]
                assert err == "" and not any(map(NON_FINITE.search, written)), argv
        # the seeded argvs reach each exit
        assert {0, 1, 2} <= set(exits)


class TestOutputFiles:
    """--output files are rewritten in place and cut to the new length."""

    @pytest.mark.parametrize("args", [
        ["verify", "--samples", "2"],
        ["report", "--bloch", "0.3,0.1,-0.2"],
        ["simulate", "--source", "both", "--t-end", "0.2", "--step", "0.01"],
        ["sweep", "--fig2", "--steps", "4"],
        ["sweep", "--fig3", "--source", "numeric", "--steps", "4", "--t-end", "0.5"],
        ["estimate", "--bloch", "0.2,0,0.4", "--shots", "2000", "--seed", "7"],
    ])
    def test_rerun_matches_fresh_path(self, args, tmp_path, capsys):
        rerun, fresh = tmp_path / "rerun.csv", tmp_path / "fresh.csv"
        for out_file in (rerun, rerun, fresh):
            assert run_cli(args + ["--output", str(out_file)], capsys)[0] == 0
        assert _files(rerun) == _files(fresh)

    def test_shorter_rerun_leaves_no_stale_tail(self, tmp_path, capsys):
        rerun, fresh = tmp_path / "rerun.csv", tmp_path / "fresh.csv"
        base = ["sweep", "--fig2", "--output"]
        assert run_cli(base + [str(rerun), "--steps", "12"], capsys)[0] == 0
        longer = rerun.stat().st_size
        assert run_cli(base + [str(rerun), "--steps", "3"], capsys)[0] == 0
        assert run_cli(base + [str(fresh), "--steps", "3"], capsys)[0] == 0
        assert longer > fresh.stat().st_size
        assert _files(rerun) == _files(fresh)

    def test_existing_mode_and_hard_link_are_kept(self, tmp_path, capsys):
        out_file, link = tmp_path / "x.json", tmp_path / "link.json"
        output = ["--output", str(out_file)]
        # a collinear pair's report is the longer one: it adds a reason
        collinear = ["report", "--bloch", "0.2,0,0", "--obs-b", "2,0,0,1"]
        assert run_cli(collinear + output, capsys)[0] == 0
        out_file.chmod(0o600)
        os.link(out_file, link)
        assert run_cli(["report", "--bloch", "0,0,0"] + output, capsys)[0] == 0
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o600
        assert link.read_bytes() == out_file.read_bytes()
        assert json.loads(out_file.read_text())["mixedness"] == 0.5

    def test_new_file_mode_matches_write_text(self, tmp_path, capsys):
        out_file, reference = tmp_path / "x.json", tmp_path / "reference.json"
        assert run_cli(["report", "--bloch", "0,0,0", "--output", str(out_file)], capsys)[0] == 0
        reference.write_text("")
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o666 & ~umask
        assert out_file.stat().st_mode == reference.stat().st_mode

    def test_symlink_target_is_written(self, tmp_path, capsys):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 5000)
        link.symlink_to(target)
        args = ["report", "--bloch", "0.3,0.1,-0.2"]
        assert run_cli(args + ["--output", str(link)], capsys)[0] == 0
        assert link.is_symlink() and link.readlink() == target
        assert run_cli(args, capsys)[1].encode() == target.read_bytes()

    def test_fifo_is_written_not_truncated(self, tmp_path, capsys):
        # a FIFO, like a device, is written but not truncated (truncate()
        # raises on it); a reader thread receives the whole report
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        args = ["report", "--bloch", "0.3,0.1,-0.2"]
        assert run_cli(args + ["--output", str(fifo)], capsys)[0] == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [run_cli(args, capsys)[1].encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_mebibyte_through_a_fifo_arrives_whole(self, tmp_path):
        # the pipe holds far less than the text: every byte must be written
        fifo = tmp_path / "big.fifo"
        os.mkfifo(fifo)
        text = "".join(f"{i:07d}\n" for i in range(2**17))
        assert len(text.encode()) == 2**20
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        cli._write((fifo, text))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [text.encode()]

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        # a descriptor may take fewer bytes than offered; _write offers the rest
        out_file = tmp_path / "x.csv"
        out_file.write_text("y" * 9000)
        write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(len(data))
            return write(fd, bytes(data[:1000]))

        text = "".join(f"{i:04d}," for i in range(1000))
        with monkeypatch.context() as patch:
            patch.setattr(cli.os, "write", short_write)
            cli._write((out_file, text))
        assert sizes == list(range(5000, 0, -1000))
        assert out_file.read_text() == text

    @staticmethod
    def assert_refused(args, out_file, capsys):
        code, out, err = run_cli(args + ["--output", str(out_file)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {str(out_file)!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["report", "--bloch", "0,0,0"],
        ["sweep", "--fig2", "--steps", "3"],
    ])
    def test_missing_directory_exits_two(self, args, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        self.assert_refused(args, missing / "out.csv", capsys)
        assert not missing.exists()

    @pytest.mark.parametrize("args", [
        ["simulate"],
        ["sweep", "--fig2", "--steps", "3"],
    ])
    def test_directory_as_output_exits_two(self, args, tmp_path, capsys):
        directory = tmp_path / "out.csv"
        directory.mkdir()
        self.assert_refused(args, directory, capsys)
        # the sweep's sidecar would sit beside the directory: none is written
        assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]
        assert not any(directory.iterdir())

    @pytest.mark.parametrize("existing", [False, True])
    def test_unwritable_sidecar_leaves_the_csv_as_it_was(self, existing, tmp_path, capsys):
        # both sweep files or neither: a directory at the sidecar's path
        # refuses the sweep before its CSV is written
        out_file, sidecar = tmp_path / "x.csv", tmp_path / "x.meta.json"
        sidecar.mkdir()
        if existing:
            out_file.write_text("old,bytes\n")
        args = ["sweep", "--fig2", "--steps", "3", "--output", str(out_file)]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {str(sidecar)!r}: ") and err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["x.csv", "x.meta.json"][not existing:]
        if existing:
            assert out_file.read_text() == "old,bytes\n"
        assert not any(sidecar.iterdir())


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
        # the fresh processes start together, each with its own output path,
        # and run while this process runs the sequence
        fresh_files = [tmp_path / f"fresh{i}.csv" for i in range(len(sequence))]
        procs = cli_processes(
            *([a.format(out=out_file) for a in args] for args, out_file in zip(sequence, fresh_files))
        )
        in_process = []
        out_file = tmp_path / "in_process.csv"
        for args in sequence:
            result = run_cli([a.format(out=out_file) for a in args], capsys)
            in_process.append((*result, *_files(out_file)))
        outputs = [proc.communicate() for proc in procs]  # every process ends before a check
        fresh = [
            (proc.returncode, stdout.decode(), stderr.decode(), *_files(out_file))
            for proc, (stdout, stderr), out_file in zip(procs, outputs, fresh_files)
        ]
        assert [r[0] for r in in_process] == [0, 2, 0, 0, 0, 2]
        assert in_process == fresh


class TestSingleParse:
    """A command's tokens are parsed once, by its own parser; every other
    argv is parsed as the top-level parser alone parses it."""

    def test_a_known_command_is_parsed_once(self, capsys, monkeypatch):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert main(["report", "--bloch", "0,0,0"]) == 0
        assert calls == ["qubitvar report"]

    def test_command_parsers_are_built_once(self, capsys, monkeypatch):
        assert main(["report", "--bloch", "0,0,0"]) == 0

        def must_not_run():
            raise AssertionError("main built its parsers again")

        monkeypatch.setattr(cli, "_build", must_not_run)
        assert main(["report", "--bloch", "0,0,0"]) == 0
        assert main(["bogus"]) == 2

    @pytest.mark.parametrize("args", [
        [], ["bogus"], ["--help"], ["-h", "sweep"], ["--", "report", "--bloch", "0,0,0"],
        ["report", "--bloch", "0,0,0", "extra"], ["sweep", "--fig2", "--st", "3"],
    ], ids=["no_tokens", "unknown", "help", "option_first", "dash_dash", "extra", "ambiguous"])
    def test_usage_matches_the_top_level_parser(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(args)
        expected = (int(exc.value.code or 0), *capsys.readouterr())
        assert run_cli(args, capsys) == expected


def _files(out_file):
    """A sweep's CSV and sidecar bytes, removed once read; None for a missing file."""
    blobs = []
    for path in (out_file, out_file.with_suffix(".meta.json")):
        blobs.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return blobs


def indented_json(fields):
    """The Python encoder's indented form that report_json reproduces."""
    return json.dumps(fields, indent=2, allow_nan=False) + "\n"


class TestReportJson:
    """report_json writes the bytes of json.dumps(fields, indent=2) for flat objects."""

    def report_fields(self, capsys):
        assert main(["report", "--bloch", "0.3,0.1,-0.2", "--obs-a", "0.4,-1.3,0.2,0.7"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_report_bytes(self, capsys):
        report = self.report_fields(capsys)
        collinear = {**report, "mixedness_estimate": None, "reason": "collinear"}
        for fields in (report, collinear):
            assert serialize.report_json(fields) == indented_json(fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"shots": 20000, "estimate": 0.2999, "std_error": 0.0041,
             "true_mixedness": 0.3, "z_score": None},
            {"shots": 7, "estimate": 0.5, "std_error": 0.0, "true_mixedness": 0.5,
             "z_score": 0.0},
            {},
            {"smallest": 5e-324, "large": 1e308, "negative_zero": -0.0},
        ],
        ids=["estimate_null_z", "estimate_int_shots", "empty", "extreme_floats"],
    )
    def test_bytes_match_indented_dumps(self, fields):
        assert serialize.report_json(fields) == indented_json(fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, value, capsys, monkeypatch):
        with pytest.raises(ValueError):
            serialize.report_json({"varA": 0.1, "mixedness": value})
        monkeypatch.setattr(cli, "mixedness_values", lambda p: value)
        code, out, err = run_cli(["report", "--bloch", "0.3,0.1,-0.2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: result is not finite")


# the sweeps whose outputs scripts/snapshot_outputs.py records
SNAPSHOT_SWEEPS = runpy.run_path(
    str(Path(__file__).parents[1] / "scripts" / "snapshot_outputs.py")
)["SWEEPS"]


def sidecar_payload(grid, source, seed, violations):
    """The sidecar object, field by field: each axis, both coefficient rows,
    the source, the seed and the violation counts."""
    axes = {"alpha": grid.alpha_axis, "lambda": grid.lambda_axis, "t": grid.t_axis}
    return {
        "grid": {
            **{name: dataclasses.asdict(axis) for name, axis in axes.items()},
            "obs_a": list(grid.obs_a),
            "obs_b": list(grid.obs_b),
        },
        "source": source,
        "seed": seed,
        "violations": violations,
    }


class TestSidecarJson:
    """sweep_sidecar_json writes the bytes of json.dumps(payload, indent=2) + "\\n"."""

    @pytest.mark.parametrize("flags", list(SNAPSHOT_SWEEPS.values()), ids=list(SNAPSHOT_SWEEPS))
    def test_snapshot_sweeps(self, flags, tmp_path, monkeypatch):
        calls = []
        writer = serialize.sweep_sidecar_json
        monkeypatch.setattr(serialize, "sweep_sidecar_json",
                            lambda *args: calls.append(args) or writer(*args))
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep", *flags, "--output", str(out_file)]) == 0
        (args,) = calls
        sidecar = out_file.with_suffix(".meta.json").read_text()
        assert sidecar == indented_json(sidecar_payload(*args))

    def test_extreme_axis_ends(self):
        grid = SweepGrid(
            alpha_axis=GridAxis(-0.0, 0.0, 1),
            lambda_axis=GridAxis(5e-324, 1e308, 3, include_lo=False),
            t_axis=GridAxis(0.0, 2.2250738585072014e-308, 2),
            obs_a=(-0.0, 5e-324, 1.0, 1e70),
        )
        violations = {"points_all_defined": 0, "ti1_gt_ti2": 0, "ti1_gt_ti3": 0}
        for source, seed in (("analytic", 0), ("numeric", 2**64)):
            text = serialize.sweep_sidecar_json(grid, source, seed, violations)
            assert text == indented_json(sidecar_payload(grid, source, seed, violations))
        assert '"lo": -0.0' in text and '"hi": 1e+308' in text and "5e-324" in text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError):
            serialize.sweep_sidecar_json(fig2_grid(4), "analytic", value, {})
        with pytest.raises(ValueError):
            serialize.sweep_sidecar_json(fig2_grid(4), "analytic", 0, {"ti1_gt_ti2": value})


def per_cell_csv(table):
    """The per-cell rule that sweep_csv reproduces: repr of each cell, empty for NaN."""
    lines = [serialize.SWEEP_HEADER]
    lines += [",".join("" if v != v else repr(v) for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


nan, inf = math.nan, math.inf


class TestSweepCsv:
    """sweep_csv writes the coordinates from the grid's axes, formats each
    axis value once, and writes the per-cell rule's bytes."""

    def test_paper_size_fig2(self):
        grid = fig2_grid()
        table = sweep(grid)
        assert serialize.sweep_csv(grid, table) == per_cell_csv(table)

    @pytest.mark.parametrize(
        "grid, cells",
        [
            (SweepGrid(GridAxis(-0.0, -0.0, 1), GridAxis(0.0, 0.0, 1), GridAxis(-0.0, 1.0, 3)),
             [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]]),
            (fig2_grid(3), [[nan, 0.5, nan], [1.5, nan, 2.0], [-nan, nan, 2.0]]),
            (fig2_grid(2), [[inf, -inf, nan], [1.0, inf, -inf]]),
            (SweepGrid(GridAxis(5e-324, 5e-324, 1), GridAxis(5e-324, 5e-324, 1),
                       GridAxis(0.0, 5e-324, 2)),
             [[5e-324, -5e-324, 1e308], [5e-324, 5e-324, -1e308]]),
        ],
        ids=["signed_zeros", "nan_everywhere", "infinities", "subnormal"],
    )
    def test_bytes_match_per_cell_rule(self, grid, cells):
        table = sweep(grid)
        table[:, 3:] = np.resize(cells, (len(table), 3))
        assert serialize.sweep_csv(grid, table) == per_cell_csv(table)

    def test_non_contiguous_slice(self):
        grid = fig2_grid(6)
        table = np.repeat(sweep(grid), 2, axis=1)[:, ::2]
        assert table.shape == (36, 6) and not table.flags.c_contiguous
        assert serialize.sweep_csv(grid, table) == per_cell_csv(table)

    def test_empty_table(self):
        # a table of another shape than the grid's (points, 6) is refused,
        # the empty one among them, naming both shapes
        grid = fig2_grid(6)
        table = sweep(grid)
        for other in (np.empty((0, 6)), table[:-1], table[:, :5], table.T):
            with pytest.raises(ValueError, match=re.escape(f"(36, 6), got {other.shape}")):
                serialize.sweep_csv(grid, other)

    def test_coordinates_formatted_once_per_distinct_value(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(serialize, "repr", counting, raising=False)
        grid = fig2_grid(12)
        table = sweep(grid)
        text = serialize.sweep_csv(grid, table)
        monkeypatch.undo()
        assert text == per_cell_csv(table)
        # 12 alphas, one lambda and 12 times, then every ratio cell
        assert len(calls) == 12 + 1 + 12 + 3 * 144

    def test_no_state_between_calls(self):
        # the grids differ only in a pinned alpha of 0.0 against -0.0; either
        # order of calls gives each grid's own bytes
        first, second = (SweepGrid(GridAxis(zero, zero, 1), GridAxis(0.5, 1.0, 2),
                                   GridAxis(0.0, 1.0, 2, include_lo=False))
                         for zero in (0.0, -0.0))
        tables = sweep(first), sweep(second)
        texts = [serialize.sweep_csv(first, tables[0]), serialize.sweep_csv(second, tables[1])]
        assert texts == [*map(per_cell_csv, tables)] and texts[0] != texts[1]
        assert [serialize.sweep_csv(second, tables[1]),
                serialize.sweep_csv(first, tables[0])] == texts[::-1]

