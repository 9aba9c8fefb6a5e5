"""Deterministic text builders for CLI output files.

Floats are rendered with repr (shortest round-trip form) so identical
inputs always produce byte-identical files; undefined values become
empty CSV cells or JSON nulls.  repr is nearly all of a sweep CSV's
cost, so the sweep writer formats each distinct coordinate value once;
its bytes are still repr of each cell, empty for NaN.
"""

from __future__ import annotations

import json

import numpy as np

from .tightness import SweepGrid

SWEEP_HEADER = "alpha,lambda,t,ti1,ti2,ti3"
SIMULATE_HEADER = "t,rho11,re_rho12,im_rho12,mixedness"
SIMULATE_HEADER_BOTH = SIMULATE_HEADER + ",rho11_numeric,max_abs_dev"


def _reprs_by_bits(column: np.ndarray):
    """repr of each value of a float column, each distinct 64-bit pattern
    formatted once; keying on the bits keeps 0.0 and -0.0 apart."""
    bits = column.view(np.int64).tolist()
    first = dict(zip(bits, column.tolist()))  # one value per distinct pattern
    text = dict(zip(first, map(repr, first.values())))
    return map(text.__getitem__, bits)


def sweep_csv(table: np.ndarray) -> str:
    """A sweep table's rows under SWEEP_HEADER: repr of each cell, NaN
    (undefined) cells empty.

    The coordinate columns (alpha, lambda, t) repeat a few values over
    the grid, so each of their distinct values is formatted once; the
    ratio columns are nearly all distinct and are formatted cell by cell.
    """
    coords, values = table[:, :3].T, table[:, 3:].T.tolist()
    columns = [*map(_reprs_by_bits, coords), *(map(repr, column) for column in values)]
    text = "\n".join([SWEEP_HEADER, *map(",".join, zip(*columns))]) + "\n"
    # repr writes every NaN as "nan", which no other float's repr and not
    # the header contain, so this empties exactly the NaN cells
    return text.replace("nan", "")


def sweep_sidecar_json(
    grid: SweepGrid, source: str, seed: int, violations: dict[str, int]
) -> str:
    """The sweep's grid, source, seed and violation counts, as
    json.dumps(indent=2) writes them, with a trailing newline.  A
    non-finite number raises ValueError."""
    def axis(a):
        return {"lo": a.lo, "hi": a.hi, "steps": a.steps,
                "include_lo": a.include_lo, "include_hi": a.include_hi}

    payload = {
        "grid": {
            "alpha": axis(grid.alpha_axis),
            "lambda": axis(grid.lambda_axis),
            "t": axis(grid.t_axis),
            "obs_a": list(grid.obs_a),
            "obs_b": list(grid.obs_b),
        },
        "source": source,
        "seed": seed,
        "violations": violations,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def simulate_csv(columns: list[np.ndarray]) -> str:
    """Rows of the column arrays; seven columns add rho11_numeric and max_abs_dev."""
    lines = [SIMULATE_HEADER_BOTH if len(columns) == 7 else SIMULATE_HEADER]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def report_json(fields: dict) -> str:
    """A flat object (values are numbers, strings or None) as standard JSON,
    one field a line: the bytes of json.dumps(fields, indent=2) + "\\n".

    Serialises flat objects only; a nested value would not be indented.
    A NaN or infinite field raises ValueError.
    """
    if not fields:
        return "{}\n"
    # without indent, json takes its C encoder; these separators lay the
    # fields out as indent=2 does for a flat object
    body = json.dumps(fields, separators=(",\n  ", ": "), allow_nan=False)
    return "{\n  " + body[1:-1] + "\n}\n"
