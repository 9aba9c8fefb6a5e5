"""Deterministic text builders for CLI output files.

Floats are rendered with repr (shortest round-trip form) so identical
inputs always produce byte-identical files; undefined values become
empty CSV cells or JSON nulls.
"""

from __future__ import annotations

import json

import numpy as np

from .tightness import SweepGrid

SWEEP_HEADER = "alpha,lambda,t,ti1,ti2,ti3"
SIMULATE_HEADER = "t,rho11,re_rho12,im_rho12,mixedness"
SIMULATE_HEADER_BOTH = SIMULATE_HEADER + ",rho11_numeric,max_abs_dev"


def sweep_csv(table: np.ndarray) -> str:
    """A sweep table's rows under SWEEP_HEADER; NaN (undefined) cells stay empty."""
    lines = [SWEEP_HEADER]
    lines += [",".join("" if v != v else repr(v) for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def sweep_sidecar_json(
    grid: SweepGrid, source: str, seed: int, violations: dict[str, int]
) -> str:
    def axis(a):
        return {"lo": a.lo, "hi": a.hi, "steps": a.steps,
                "include_lo": a.include_lo, "include_hi": a.include_hi}

    payload = {
        "grid": {
            "alpha": axis(grid.alpha_axis),
            "lambda": axis(grid.lambda_axis),
            "t": axis(grid.t_axis),
            "obs_a": [grid.obs_a.a1, grid.obs_a.a2, grid.obs_a.a3, grid.obs_a.a4],
            "obs_b": [grid.obs_b.a1, grid.obs_b.a2, grid.obs_b.a3, grid.obs_b.a4],
        },
        "source": source,
        "seed": seed,
        "violations": violations,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def simulate_csv(rows: list[tuple], include_numeric: bool) -> str:
    lines = [SIMULATE_HEADER_BOTH if include_numeric else SIMULATE_HEADER]
    for row in rows:
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def report_json(fields: dict) -> str:
    """Standard JSON only: a NaN or infinite field raises ValueError."""
    return json.dumps(fields, indent=2, allow_nan=False) + "\n"
