"""The benchmark's four workloads as fixed lists of operations.

An operation is one parameter point taken through its workload's whole
pipeline, or one run_sweep / crossover_finder / simulate call.  ``run`` is
the timed part and calls the library only through module attributes
(``gf.solve``, not an imported name), so the traced run can wrap them;
``check`` is the untimed correctness oracle.

The parameter points and their order never depend on the seed; it sets
only sim_validate's two simulator seeds, so the same seed always gives the
same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from mmcsetup import gf, measures, qbd, sim, sweeps
from mmcsetup.model import CostParams, QueueParams

REFERENCE_PATH = Path(__file__).with_name("reference.json")

COSTS = CostParams()
MU = 1.0

# The sizes are set so one pass over a workload takes 3-6 s on a 2-CPU box
# and a 20 s run repeats it three to six times: medians over passes keep
# the figures steady on a shared machine.
#
# (rho, alpha, c).  alpha = 0.1 at rho = 0.8 makes the decomposition walk
# ~500 lazily extended mpmath tail levels; alpha = 50 stays on float64.
GF_POINTS = {
    False: [(0.5, 0.7, 20), (0.5, 0.7, 30), (0.5, 0.7, 40), (0.8, 0.1, 20), (0.5, 50.0, 20)],
    True: [(0.5, 0.7, 5), (0.8, 0.05, 4), (0.5, 50.0, 4)],
}
# c = 32 takes the mpmath G-level rerun (c <= 64); c >= 100 do not
QBD_POINTS = {
    False: [(0.5, 0.7, c) for c in (32, 100, 200, 400)],
    True: [(0.5, 0.7, c) for c in (4, 6)],
}
# qbd.residuals runs in longdouble: 0.8 s at c = 100, 7 s at c = 200
RESIDUALS_MAX_C = {False: 100, True: 6}
SWEEP_RHOS = {False: (0.5, 0.8), True: (0.5,)}
SWEEP_CASES = {
    False: ((10, ("gf", "qbd", "ctmc")), (20, ("gf", "qbd"))),
    True: ((4, ("gf", "qbd", "ctmc")),),
}
SWEEP_LOG_POINTS = {False: 8, True: 4}
CROSSOVER_C = {False: 10, True: 4}
# (rho, alpha, c); c = 10, alpha = 0.1 is the acceptance-criterion-7 point
SIM_POINTS = {False: [(0.5, 0.1, 10), (0.5, 0.7, 50)], True: [(0.5, 0.7, 4)]}
SIM_EVENTS = {False: 500_000, True: 20_000}
# the point every setup_s process solves through the command line
SETUP_POINT = (0.8, 0.5, 10)  # --lambda 8 --mu 1 --alpha 0.5 --c 10
SETUP_ARGV = ["solve", "--lambda", "8", "--mu", "1", "--alpha", "0.5", "--c", "10"]

WORKLOADS = ("gf_closed_form", "qbd_ladder", "figure_sweep", "sim_validate")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def queue(rho: float, alpha: float, c: int) -> QueueParams:
    return QueueParams(lam=rho * c * MU, mu=MU, c=c, alpha=alpha)


def point_key(rho: float, alpha: float, c: int) -> str:
    return f"rho={rho!r} alpha={alpha!r} c={c}"


def crossover_key(rho: float, c: int) -> str:
    return f"rho={rho!r} c={c}"


def sweep_grid(rho: float, n_log: int) -> tuple:
    """Log grid over alpha in [0.01, 100] plus the confluent alpha = mu(1 - rho),
    where the closed form's poles coincide."""
    return tuple(sorted({float(a) for a in np.logspace(-2, 2, n_log)} | {MU * (1.0 - rho)}))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def report_from_ref(ref: dict) -> measures.PerformanceReport:
    return measures.PerformanceReport(
        **{**ref, "phase_marginal": np.asarray(ref["phase_marginal"])}
    )


def _gf_op(point, ref) -> Op:
    p = queue(*point)

    def run():
        dist = gf.solve(p).distribution()
        rep = measures.full_report(dist, p, COSTS)
        return dist, rep, measures.decomposition(dist, p)

    def check(out):
        return oracle.check_point(p, *out, ref)

    return Op("gf " + point_key(*point), run, check)


def _qbd_op(point, ref, residuals_max_c) -> Op:
    p = queue(*point)

    def run():
        sol = qbd.solve(p, with_g=True)
        dist = sol.distribution()
        rep = measures.full_report(dist, p, COSTS)
        dec = measures.decomposition(dist, p)
        res = qbd.residuals(sol) if p.c <= residuals_max_c else None
        return sol, dist, rep, dec, res

    def check(out):
        sol, dist, rep, dec, res = out
        return oracle.check_point(p, dist, rep, dec, ref) | oracle.check_qbd(sol, res)

    return Op("qbd " + point_key(*point), run, check)


def _sweep_op(rho, c, methods, n_log) -> Op:
    spec = sweeps.SweepSpec(
        var="alpha", grid=sweep_grid(rho, n_log), params=queue(rho, 1.0, c),
        costs=COSTS, methods=methods,
    )
    return Op(
        f"run_sweep rho={rho!r} c={c} methods={','.join(methods)}",
        lambda: sweeps.run_sweep(spec),
        oracle.check_sweep,
    )


def _crossover_op(rho, c, ref_alpha) -> Op:
    p = queue(rho, 1.0, c)
    return Op(
        f"crossover_finder rho={rho!r} c={c}",
        lambda: sweeps.crossover_finder(p, COSTS),
        lambda out: oracle.check_crossover(out, ref_alpha),
    )


def _sim_op(point, seed, n_events, ref) -> Op:
    cfg = sim.SimConfig(params=queue(*point), n_events=n_events, seed=seed)
    analytic = report_from_ref(ref)
    return Op(
        # both simulator seeds share one name: they are samples of one point
        f"simulate {point_key(*point)}",
        lambda: sim.validate_against(analytic, sim.simulate(cfg)),
        oracle.check_validation,
    )


def build(workload: str, seed: int, tiny: bool = False) -> list:
    """The operation list of one workload; ``tiny`` shrinks every size."""
    ref = load_reference()
    points = ref["points"]
    if workload == "gf_closed_form":
        ops = [_gf_op(pt, points[point_key(*pt)]) for pt in GF_POINTS[tiny]]
    elif workload == "qbd_ladder":
        ops = [_qbd_op(pt, points[point_key(*pt)], RESIDUALS_MAX_C[tiny])
               for pt in QBD_POINTS[tiny]]
    elif workload == "figure_sweep":
        c_x = CROSSOVER_C[tiny]
        ops = [
            _sweep_op(rho, c, methods, SWEEP_LOG_POINTS[tiny])
            for rho in SWEEP_RHOS[tiny]
            for c, methods in SWEEP_CASES[tiny]
        ] + [
            _crossover_op(rho, c_x, ref["crossover"][crossover_key(rho, c_x)])
            for rho in SWEEP_RHOS[tiny]
        ]
    elif workload == "sim_validate":
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(2)]
        ops = [
            _sim_op(pt, s, SIM_EVENTS[tiny], points[point_key(*pt)])
            for pt in SIM_POINTS[tiny]
            for s in seeds
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops
