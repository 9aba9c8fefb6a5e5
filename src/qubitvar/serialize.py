"""Deterministic text builders for CLI output files.

Floats are rendered with repr (shortest round-trip form) so identical
inputs always produce byte-identical files; undefined values become
empty CSV cells or JSON nulls.  repr is nearly all of a sweep CSV's
cost, so the sweep writer takes its coordinates from the grid's axes and
formats each axis value once; its bytes are still repr of each cell,
empty for NaN.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .tightness import SweepGrid

SWEEP_HEADER = "alpha,lambda,t,ti1,ti2,ti3"
SIMULATE_HEADER = "t,rho11,re_rho12,im_rho12,mixedness"
SIMULATE_HEADER_BOTH = SIMULATE_HEADER + ",rho11_numeric,max_abs_dev"


def sweep_csv(grid: SweepGrid, table: np.ndarray) -> str:
    """grid's sweep table, tightness.sweep(grid), under SWEEP_HEADER: repr
    of each cell, NaN (undefined) cells empty.  The coordinates come from
    the grid's axes, each value formatted once, in the table's row-major
    order; a table whose shape is not (points, 6) raises ValueError."""
    values = [axis.values().tolist() for axis in (grid.alpha_axis, grid.lambda_axis, grid.t_axis)]
    shape = (len(values[0]) * len(values[1]) * len(values[2]), 6)
    if table.shape != shape:
        raise ValueError(f"the grid's table has shape {shape}, got {table.shape}")
    coords = itertools.product(*(map(repr, axis) for axis in values))  # reads each axis once
    columns = [map(",".join, coords), *(map(repr, column) for column in table[:, 3:].T.tolist())]
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
