"""Command-line front end.

Subcommands: verify (invariant suites), report (all relations for one
state/observable triple), simulate (feedback trajectories), sweep
(tightness grids with a JSON sidecar), estimate (shot-based mixedness).
Every command is reproducible by default: the seed defaults to 0 and a
fixed seed plus fixed flags yields byte-identical output.

--output files (and the sweep sidecar) are written as bytes, the UTF-8
encoding of their text, to the raw file descriptor, with no text-mode file
object between.  They are rewritten in place and then cut to the new
length, never truncated to zero first. ext4 flushes a file that
was truncated to zero and rewritten: overwriting 700 bytes with O_TRUNC
measured 48-70 us there, against 7-12 us on tmpfs and about 10 us in place
on ext4. An interrupted rewrite can leave the new text followed by the old
file's tail, where truncation would have left a short file.  A sweep opens
both of its files before it writes either, so it writes both or neither.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import feedback, relations, serialize, tightness
from .core import _observable_row, _state_row, mixedness_values
from .errors import CollinearObservables, InvalidArgument, QubitVarError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2  # every QubitVarError: invalid flags, refused inputs, unmet preconditions


def _parse(text: str, check, count: int, flag: str):
    """check(row) of count comma-separated numbers; malformed or invalid values name the flag."""
    parts = text.split(",")
    if len(parts) != count:
        raise InvalidArgument(f"{flag} needs {count} comma-separated numbers, got {text!r}")
    try:
        return check([float(part) for part in parts])
    except ValueError as exc:  # float() and every row refusal
        raise InvalidArgument(f"{flag}: {exc}") from exc


def _report_json(fields: dict) -> str:
    try:
        return serialize.report_json(fields)
    except ValueError as exc:  # a moment overflowed for huge coefficients
        raise InvalidArgument(f"result is not finite: {exc}") from exc


def _write(*outputs: tuple) -> None:
    """Path(path).write_text(text) for each (path, text), all or none.

    Every path is opened before any is written.  Each text is encoded
    once and its bytes written to the raw descriptor, looping on short
    writes.  An existing file is rewritten in place and cut to the new
    length once written, so it is never cut to zero bytes; mode, symlinks
    and hard links are kept, and devices and pipes are written but not
    truncated.  A path that cannot be opened or written is refused as
    InvalidArgument, after the files this call created are removed; when
    an open fails, nothing was written.
    """
    created = []
    try:
        with contextlib.ExitStack() as stack:
            fds = []
            for path, _ in outputs:
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    created.append(path)
                except FileExistsError:  # rewritten in place: no O_TRUNC
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                stack.callback(os.close, fd)
                fds.append(fd)
            for fd, (path, text) in zip(fds, outputs):
                data = text.encode()
                unwritten = memoryview(data)
                while unwritten:
                    unwritten = unwritten[os.write(fd, unwritten):]
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, len(data))
    except OSError as exc:
        for new in created:
            with contextlib.suppress(OSError):
                os.unlink(new)
        raise InvalidArgument(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write((output, text))


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
    p = _parse(args.bloch, _state_row, 3, "--bloch")
    a = _parse(args.obs_a, _observable_row, 4, "--obs-a")
    b = _parse(args.obs_b, _observable_row, 4, "--obs-b")
    fields = {k: float(v) for k, v in relations.reports(p, a, b).items()}
    fields["mixedness"] = float(mixedness_values(p))
    try:
        fields["mixedness_estimate"] = float(relations.mixedness_estimates(p, a, b))
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
    rows = (_parse(args.obs_a, _observable_row, 4, "--obs-a"),
            _parse(args.obs_b, _observable_row, 4, "--obs-b"))
    if args.fig2:
        grid = tightness.fig2_grid(args.steps, args.lam, args.t_end, *rows)
    else:
        grid = tightness.fig3_grid(args.steps, args.alpha, args.t_end, *rows)
    points = tightness.sweep(grid, source=args.source, h=args.step)
    violations = tightness.count_ordering_violations(points)
    _write(
        (args.output, serialize.sweep_csv(grid, points)),
        (Path(args.output).with_suffix(".meta.json"),
         serialize.sweep_sidecar_json(grid, args.source, args.seed, violations)),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    p = _parse(args.bloch, _state_row, 3, "--bloch")
    a = _parse(args.obs_a, _observable_row, 4, "--obs-a")
    b = _parse(args.obs_b, _observable_row, 4, "--obs-b")
    if args.shots < 1:
        raise InvalidArgument("--shots must be >= 1")
    try:
        # derived seeds: one measurement task index per setting
        counts = [None if rows is None
                  else relations.shot_counts(p, rows, args.shots, [[args.seed, k]])
                  for k, rows in enumerate(relations.meter_settings(a, b))]
        estimates, std_errors = relations.mixedness_estimates_from_counts(*counts, a, b)
    except CollinearObservables as exc:
        sys.stderr.write(f"collinear observables: {exc}\n")
        return EXIT_FAILURE
    estimate, std_error = float(estimates[0]), float(std_errors[0])
    true_mixedness = float(mixedness_values(p))
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
    """A new top-level parser."""
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A new top-level parser and its command parsers by name, the choices
    of its add_subparsers action."""
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

    return parser, sub.choices


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The process's parser and its command parsers, built on first use:
    parsing leaves them unchanged."""
    return _build()


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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), parsing each token once.

    The top-level parser hands every token after a command's name to that
    command's parser, which parses them again; so when argv starts with a
    command's name, its parser parses the rest directly, and leftover
    tokens meet the top-level parser's own error.  Every other argv (none,
    an unknown command, an option or '--' first) takes the top-level route.
    """
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(_join_negative_lists(sys.argv[1:] if argv is None else argv))
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
