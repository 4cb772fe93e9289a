"""Regenerate reference.json, the values the benchmark checks results against.

Each workload is checked against the route it does not time: gf_closed_form
points against qbd, qbd_ladder and sim_validate points against gf (extended
precision where needed; c = 400 takes a few minutes), and crossover_finder's
gf bisection against the same bisection on qbd.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mmcsetup import gf, measures, qbd, sweeps  # noqa: E402

import workloads as w  # noqa: E402


def _report(solve, point) -> dict:
    p = w.queue(*point)
    return measures.full_report(solve(p).distribution(), p, w.COSTS).to_dict()


def main() -> int:
    points, crossover = {}, {}
    for tiny in (True, False):
        for pt in w.GF_POINTS[tiny]:
            points[w.point_key(*pt)] = _report(lambda p: qbd.solve(p, with_g=False), pt)
        for pt in w.QBD_POINTS[tiny] + w.SIM_POINTS[tiny] + [w.SETUP_POINT]:
            points[w.point_key(*pt)] = _report(gf.solve, pt)
            print("reference", w.point_key(*pt), flush=True)
        c = w.CROSSOVER_C[tiny]
        for rho in w.SWEEP_RHOS[tiny]:
            res = sweeps.crossover_finder(w.queue(rho, 1.0, c), w.COSTS, method="qbd")
            crossover[w.crossover_key(rho, c)] = res.alpha_cross
    out = {
        "note": "gf_closed_form points from qbd; qbd_ladder, sim and setup points "
        "from gf; crossover alphas from the qbd bisection",
        "points": points,
        "crossover": crossover,
    }
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
