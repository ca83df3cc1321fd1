"""Record the program's param_sweep outputs as the workload's reference.

    python3 perfbench/record_refs.py        # from the root of a checkout

The param_sweep workload sweeps the fixed models under models/, so its
expected values are recorded once from a trusted commit and stored in
refs/param_sweep.json: every (model, cause, variant, sign) the workload uses,
at every p on the 0.02 and 0.05 grids and every d on the 0:1:0.25 axis.
Re-record only when the models themselves change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads as wl  # noqa: E402
from vce.cli import main  # noqa: E402


def record() -> dict:
    p_grid = sorted(set(wl.grid_points(0.0, 1.0, 0.02)) | set(wl.grid_points(0.0, 1.0, 0.05)))
    d_grid = wl.grid_points(0.0, 1.0, 0.25)
    values = {}
    for path, cause, outcome in wl.SWEEP_COMBOS:
        for variant, sign in wl.SWEEP_VS:
            buf = io.StringIO()
            argv = ["sweep", path, "--cause", cause, "--outcome", outcome,
                    "--axis", "p=0:1:0.01", "--axis", wl.D_AXIS,
                    "--variant", variant, "--sign", sign]
            with contextlib.redirect_stdout(buf):
                if main(argv) != 0:
                    raise SystemExit(f"sweep failed: {argv}")
            rows = [line.split(",") for line in buf.getvalue().split()[1:]]
            table = {(float(p), float(d)): float(v) for p, d, v in rows}
            values[wl.sweep_key(path, cause, variant, sign)] = [
                [table[(p, d)] for d in d_grid] for p in p_grid
            ]
    return {"p": p_grid, "d": d_grid, "values": values}


if __name__ == "__main__":
    os.makedirs(os.path.dirname(wl.REFS), exist_ok=True)
    with open(wl.REFS, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {os.path.relpath(wl.REFS)}")
