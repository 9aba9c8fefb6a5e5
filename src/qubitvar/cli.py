"""Command-line front end.

Subcommands: verify (invariant suites), report (all relations for one
state/observable triple), simulate (feedback trajectories), sweep
(tightness grids with a JSON sidecar), estimate (shot-based mixedness).
Every command is reproducible by default: the seed defaults to 0 and a
fixed seed plus fixed flags yields byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import feedback, relations, serialize, tightness
from .core import (
    BlochVector, PauliObservable, QubitState, mixedness, mixedness_values
)
from .errors import CollinearObservables, DegenerateSpectrum, InvalidArgument, QubitVarError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2  # every QubitVarError: invalid flags, refused inputs, unmet preconditions


def _parse(text: str, cls, flag: str):
    """cls built from comma-separated numbers; malformed or invalid values name the flag."""
    parts = text.split(",")
    count = len(dataclasses.fields(cls))
    if len(parts) != count:
        raise InvalidArgument(f"{flag} needs {count} comma-separated numbers, got {text!r}")
    try:
        return cls(*map(float, parts))
    except (ValueError, QubitVarError) as exc:
        raise InvalidArgument(f"{flag}: {exc}") from exc


def _report_json(fields: dict) -> str:
    try:
        return serialize.report_json(fields)
    except ValueError as exc:  # a moment overflowed for huge coefficients
        raise InvalidArgument(f"result is not finite: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--output", default=None, help="output file (default stdout)")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from . import verify  # the check registry, loaded for this command alone

    results = verify.run_all(samples=args.samples, seed=args.seed)
    lines = [f"invariant checks: {len(results)}"]
    lines += [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if not failed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    state = QubitState(_parse(args.bloch, BlochVector, "--bloch"))
    obs_a = _parse(args.obs_a, PauliObservable, "--obs-a")
    obs_b = _parse(args.obs_b, PauliObservable, "--obs-b")
    report = relations.compute_report(state, obs_a, obs_b)
    fields = {**dataclasses.asdict(report), "mixedness": mixedness(state)}
    try:
        fields["mixedness_estimate"] = relations.estimate_mixedness(state, obs_a, obs_b)
    except CollinearObservables:
        fields["mixedness_estimate"] = None
        fields["reason"] = "collinear"
    _emit(_report_json(fields), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _columns(times: np.ndarray, bloch: np.ndarray) -> list[np.ndarray]:
    """t, rho11, re rho12, im rho12 and mixedness for stacked Bloch vectors."""
    return [times, 0.5 * (1.0 - bloch[:, 2]), 0.5 * bloch[:, 0], 0.5 * bloch[:, 1],
            mixedness_values(bloch)]


def cmd_simulate(args) -> int:
    if args.source in ("analytic", "both") and args.omega != 0.0:
        raise InvalidArgument("the analytic source requires omega = 0")
    times = feedback.step_times(args.t_end, args.step)

    if args.source == "numeric":
        bloch = feedback.evolve(args.alpha, args.lam, times, args.step, args.omega)
        columns = _columns(times, bloch)
    else:
        exact = feedback.analytic_bloch(args.alpha, args.lam, times)
        columns = _columns(times, exact)
        if args.source == "both":
            numeric = feedback.evolve(args.alpha, args.lam, times, args.step)
            # the density-matrix gap (d . sigma)/2 has entries +-dz/2 and (dx -+ i dy)/2
            d = exact - numeric
            dev = 0.5 * np.maximum(np.abs(d[:, 2]), np.hypot(d[:, 0], d[:, 1]))
            columns += [0.5 * (1.0 - numeric[:, 2]), dev]
    _emit(serialize.simulate_csv(columns), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    if args.fig2 == args.fig3:
        raise InvalidArgument("choose exactly one of --fig2 / --fig3")
    if args.steps < 2:
        raise InvalidArgument("--steps must be >= 2")
    if args.t_end <= 0:
        raise InvalidArgument("--t-end must be > 0")
    if args.output is None:
        raise InvalidArgument("sweep writes a CSV plus a JSON sidecar; --output is required")
    if args.fig2:
        grid = tightness.fig2_grid(steps=args.steps, lam=args.lam, t_max=args.t_end)
    else:
        grid = tightness.fig3_grid(steps=args.steps, alpha=args.alpha, t_max=args.t_end)
    grid = dataclasses.replace(
        grid,
        obs_a=_parse(args.obs_a, PauliObservable, "--obs-a"),
        obs_b=_parse(args.obs_b, PauliObservable, "--obs-b"),
    )
    points = tightness.sweep(grid, source=args.source, h=args.step)
    violations = tightness.count_ordering_violations(points)
    _emit(serialize.sweep_csv(points), args.output)
    sidecar = Path(args.output).with_suffix(".meta.json")
    sidecar.write_text(serialize.sweep_sidecar_json(grid, args.source, args.seed, violations))
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    state = QubitState(_parse(args.bloch, BlochVector, "--bloch"))
    obs_a = _parse(args.obs_a, PauliObservable, "--obs-a")
    obs_b = _parse(args.obs_b, PauliObservable, "--obs-b")
    if args.shots < 1:
        raise InvalidArgument("--shots must be >= 1")
    try:
        # derived seeds: one measurement task index per observable
        counts_a = relations.simulate_shots(state, obs_a, args.shots, [args.seed, 0])
        counts_b = relations.simulate_shots(state, obs_b, args.shots, [args.seed, 1])
        obs_c = relations.symmetrized_product(obs_a, obs_b)
        try:
            counts_c = relations.simulate_shots(state, obs_c, args.shots, [args.seed, 2])
        except DegenerateSpectrum:  # C is proportional to I: its moment needs no shots
            counts_c = None
        estimate, std_error = relations.estimate_mixedness_from_counts(
            counts_a, counts_b, counts_c, obs_a, obs_b
        )
    except CollinearObservables as exc:
        sys.stderr.write(f"collinear observables: {exc}\n")
        return EXIT_FAILURE
    true_mixedness = mixedness(state)
    difference = estimate - true_mixedness
    if std_error > 0.0:
        z_score = difference / std_error
    else:
        z_score = 0.0 if difference == 0.0 else None
    fields = {
        "shots": args.shots,
        "estimate": estimate,
        "std_error": std_error,
        "true_mixedness": true_mixedness,
        "z_score": z_score,
    }
    _emit(_report_json(fields), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitvar",
        description="Variance-based uncertainty relations, mixedness metering "
        "and feedback-qubit simulation (angles in radians, time in 1/gamma).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every library invariant check")
    p.add_argument("--samples", type=int, default=None,
                   help="override per-check sample counts (smoke mode)")
    _add_common(p)

    p = sub.add_parser("report", help="all uncertainty relations for one triple")
    p.add_argument("--bloch", required=True, help="state Bloch vector px,py,pz")
    p.add_argument("--obs-a", default="1,0,0,0", help="A coefficients a1,a2,a3,a4")
    p.add_argument("--obs-b", default="0,0,1,0", help="B coefficients b1,b2,b3,b4")
    _add_common(p)

    p = sub.add_parser("simulate", help="feedback-model trajectory CSV")
    p.add_argument("--alpha", type=float, default=math.pi / 4,
                   help="initial superposition angle (radians)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="feedback strength")
    p.add_argument("--omega", type=float, default=0.0, help="Rabi drive (numeric only)")
    p.add_argument("--t-end", type=float, default=5.0, help="final time")
    p.add_argument("--step", type=float, default=1e-3, help="integrator step")
    p.add_argument("--source", choices=("analytic", "numeric", "both"),
                   default="analytic")
    _add_common(p)

    p = sub.add_parser("sweep", help="tightness grid CSV plus JSON sidecar")
    p.add_argument("--fig2", action="store_true",
                   help="(alpha, t) grid at fixed lambda")
    p.add_argument("--fig3", action="store_true",
                   help="(lambda, t) grid at fixed alpha")
    p.add_argument("--steps", type=int, default=50, help="points per swept axis")
    p.add_argument("--t-end", type=float, default=3.0, help="upper end of the t axis")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="pinned lambda for --fig2")
    p.add_argument("--alpha", type=float, default=math.pi / 4,
                   help="pinned alpha for --fig3")
    p.add_argument("--source", choices=("analytic", "numeric"), default="analytic")
    p.add_argument("--step", type=float, default=1e-3,
                   help="integrator step for --source numeric")
    p.add_argument("--obs-a", default="1,0,0,0", help="A coefficients")
    p.add_argument("--obs-b", default="0,0,1,0", help="B coefficients")
    _add_common(p)

    p = sub.add_parser("estimate", help="shot-based mixedness estimate JSON")
    p.add_argument("--bloch", required=True, help="state Bloch vector px,py,pz")
    p.add_argument("--obs-a", default="1,0,0,0", help="A coefficients")
    p.add_argument("--obs-b", default="0,0,1,0", help="B coefficients")
    p.add_argument("--shots", type=int, default=1_000_000,
                   help="shots per measured observable")
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use: parsing leaves it unchanged."""
    return build_parser()


def _negative_list(token: str) -> bool:
    """True for a comma-separated list whose first entry is a negative number."""
    first, comma, _ = token.partition(",")
    if not (comma and first.startswith("-")):
        return False
    try:
        float(first)
    except ValueError:
        return False
    return True


def _join_negative_lists(argv: list[str]) -> list[str]:
    """Write `--OPTION VALUE` as `--OPTION=VALUE` when VALUE is a negative-first list.

    argparse reads a value starting with '-' as a flag unless it is a single
    number, so `--obs-b -0.2,0.7,1.1,-0.4` would otherwise lack its argument.
    Only the vector options take lists; any other option refuses the joined
    value as it refuses the '=' spelling.
    """
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        if option.startswith("--") and len(option) > 2 and "=" not in option \
                and _negative_list(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_negative_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.seed < 0:
            raise InvalidArgument(f"--seed must be >= 0, got {args.seed}")
        # looked up per call, so a rebound cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except QubitVarError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
