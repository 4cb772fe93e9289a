"""Parameter sweeps over alpha, rho, c, or the setup/active cost ratio.

Each grid point is solved independently and emitted as one CSV row with the
full performance report plus always-on baseline columns, so the output feeds
plotting scripts and golden-file diffs directly.  Per-point solver failures
land in an ``error`` column and the sweep keeps going.  Output is
deterministic: fixed column order, points in grid order, floats via repr.
"""

from dataclasses import dataclass, replace
import csv
import io
import math

import numpy as np

from . import ctmc, gf, mmc, qbd
from .errors import (
    InternalInconsistencyError,
    InvalidConfigError,
    NoCrossingError,
    QueueModelError,
)
from .measures import PerformanceReport, full_report
from .model import CostParams, QueueParams, _real, params_to_dict
from .sim import SimConfig, simulate

__all__ = [
    "SweepSpec",
    "CrossoverResult",
    "run_sweep",
    "csv_text",
    "crossover_finder",
    "report_gap",
    "solve_distribution",
]

SWEPT_VARS = ("alpha", "rho", "c", "ratio")
ANALYTIC_METHODS = ("gf", "qbd", "ctmc")
METHODS = ANALYTIC_METHODS + ("sim",)

# gf and qbd agreeing worse than this gets the row flagged
METHOD_GAP_LIMIT = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: vary `var` over `grid`, hold everything else fixed.

    var "rho" and "c" rescale lambda so the traffic intensity stays the
    meaningful knob; "ratio" sweeps c_setup / c_active with the queue fixed.
    """

    var: str
    grid: tuple
    params: QueueParams
    costs: CostParams = CostParams()
    methods: tuple = ("gf",)
    seed: int = 0
    sim_events: int = 200_000

    def __post_init__(self) -> None:
        validate_spec(self)


def _point(spec: SweepSpec, x) -> tuple[QueueParams, CostParams]:
    p = spec.params
    if spec.var == "alpha":
        return replace(p, alpha=float(x)), spec.costs
    if spec.var == "rho":
        return replace(p, lam=float(x) * p.c * p.mu), spec.costs
    if spec.var == "c":
        c = int(x)
        return replace(p, c=c, lam=p.rho * c * p.mu), spec.costs
    return p, replace(spec.costs, c_setup=float(x) * spec.costs.c_active)


def validate_spec(spec: SweepSpec) -> None:
    if spec.var not in SWEPT_VARS:
        raise InvalidConfigError(f"unknown sweep variable {spec.var!r}")
    if not isinstance(spec.params, QueueParams):
        raise InvalidConfigError(f"params must be a QueueParams, got {spec.params!r}")
    if not isinstance(spec.costs, CostParams):
        raise InvalidConfigError(f"costs must be a CostParams, got {spec.costs!r}")
    if len(spec.grid) == 0:
        raise InvalidConfigError("empty sweep grid")
    if not all(_real(x) for x in spec.grid):
        raise InvalidConfigError(f"sweep grid must hold numbers, got {spec.grid!r}")
    g = np.asarray(spec.grid, dtype=float)
    if not np.all(np.diff(g) > 0):
        raise InvalidConfigError("sweep grid must be strictly increasing")
    if spec.var == "c" and any(not x.is_integer() or x < 1 for x in g):
        raise InvalidConfigError("c grid must be positive integers")
    if spec.var == "ratio" and g[0] < 0:
        raise InvalidConfigError("cost ratio must be nonnegative")
    bad = [m for m in spec.methods if m not in METHODS]
    if bad or not spec.methods:
        raise InvalidConfigError(f"methods must be a nonempty subset of {METHODS}")
    for x in spec.grid:
        _point(spec, x)  # building a point checks it, so unstable ones fail here
    if "sim" in spec.methods:
        # the rows' simulator settings differ only in the queue, which the
        # loop above has checked
        _sim_config(spec, spec.params)


def _sim_config(spec: SweepSpec, params: QueueParams) -> SimConfig:
    return SimConfig(params=params, n_events=spec.sim_events, seed=spec.seed)


def solve_distribution(params: QueueParams, method: str):
    """Joint stationary distribution by the requested method."""
    if method == "gf":
        return gf.solve(params).distribution()
    if method == "qbd":
        return qbd.solve(params, with_g=False).distribution()
    if method == "ctmc":
        return ctmc.solve_adaptive(params)
    raise InvalidConfigError(f"unknown method {method!r}")


_PARAM_COLS = ["index", "var", "value", "lambda", "mu", "alpha", "c", "rho"]
_BASE_COLS = ["onidle_e_jobs", "onidle_e_busy", "method_gap", "error"]
_SIM_COLS = ["sim_e_jobs", "sim_hw_jobs"]


def sweep_columns(spec: SweepSpec) -> list[str]:
    cols = _PARAM_COLS + ["method"] + PerformanceReport.csv_header() + _BASE_COLS
    if "sim" in spec.methods:
        cols += _SIM_COLS
    return cols


def report_gap(reports: list[PerformanceReport]) -> float:
    """Largest spread of any scalar report field across the reports."""
    if len(reports) < 2:
        return 0.0
    names = PerformanceReport.csv_header()
    arr = np.array([[float(getattr(r, k)) for k in names] for r in reports])
    return float(np.max(arr.max(axis=0) - arr.min(axis=0)))


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate every grid point.

    Returns the rows as dicts keyed by `sweep_columns(spec)`; csv_text
    writes them.
    """
    analytic = [m for m in spec.methods if m != "sim"]
    rows = []
    for idx, x in enumerate(spec.grid):
        p, costs = _point(spec, x)
        row = {
            "index": idx,
            "var": spec.var,
            "value": x,
            **params_to_dict(p),
            "method": analytic[0] if analytic else "sim",
            "error": "",
        }
        try:
            dists = [solve_distribution(p, m) for m in analytic]
            reports = [full_report(d, p, costs) for d in dists]
            gap = report_gap(reports)
            if reports:
                rep = reports[0]
                for name in PerformanceReport.csv_header():
                    row[name] = getattr(rep, name)
            row["method_gap"] = gap
            if not gap <= METHOD_GAP_LIMIT:  # nan disagrees too
                row["error"] = "MethodDisagreement"
            base = mmc.mmc_baseline(p)
            row["onidle_e_jobs"] = base["e_jobs"]
            row["onidle_e_busy"] = base["e_busy"]
            if "sim" in spec.methods:
                est = simulate(_sim_config(spec, p))
                row["sim_e_jobs"] = est.e_jobs
                row["sim_hw_jobs"] = est.hw_jobs
        except QueueModelError as exc:
            row["error"] = exc.tag
        rows.append(row)
    return rows


def csv_text(spec: SweepSpec, rows: list[dict]) -> str:
    """The sweep as CSV text: three comment lines, the header, then one
    line per row."""
    buf = io.StringIO()
    cols = sweep_columns(spec)
    p, k = spec.params, spec.costs
    buf.write(f"# sweep var={spec.var} methods={','.join(spec.methods)}\n")
    buf.write(
        f"# fixed: lambda={p.lam} mu={p.mu} alpha={p.alpha} c={p.c} | costs: active={k.c_active} "
        f"setup={k.c_setup} idle={k.c_idle} switch={k.c_switch} | seed={spec.seed}\n"
    )
    buf.write("# columns: " + " ".join(cols) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_cell(row.get(col, "")) for col in cols])
    return buf.getvalue()


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


@dataclass(frozen=True)
class CrossoverResult:
    alpha_cross: float
    gap_at_root: float
    cost_onidle: float
    iterations: int
    lo: float
    hi: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def crossover_finder(
    params: QueueParams,
    costs: CostParams = CostParams(),
    lo: float = 1e-4,
    hi: float = 1e3,
    rel_tol: float = 1e-6,
    method: str = "gf",
) -> CrossoverResult:
    """The setup rate where the on-off cost meets the always-on cost.

    The on-off power cost is nonincreasing in alpha, so the sign change is
    unique when it exists; same sign at both ends raises NoCrossing, and a
    non-finite gap anywhere raises InternalInconsistency.  The bracket must
    satisfy 0 < lo < hi and rel_tol must be > 0, all three numbers
    (InvalidConfig otherwise, before any solve).  ITP on ln(alpha)
    (`_log_root`) shrinks [lo, hi] to [a, b] with b - a <= rel_tol *
    (a + b) / 2 and returns its midpoint.
    Each of its `iterations`, both ends and gap_at_root is one solve by
    `method`: 7-8 steps at the default bracket, where linear bisection on
    alpha took 30-37.
    """
    if not (_real(lo) and _real(hi) and 0 < lo < hi):  # nan fails too
        raise InvalidConfigError(
            f"crossover bracket needs 0 < lo < hi, got lo={lo!r}, hi={hi!r}"
        )
    if not (_real(rel_tol) and rel_tol > 0):  # nan fails too
        raise InvalidConfigError(f"crossover rel_tol must be > 0, got {rel_tol!r}")
    baseline = mmc.onidle_cost(params, costs)

    def gap(a: float) -> float:
        p = replace(params, alpha=a)
        g = full_report(solve_distribution(p, method), p, costs).cost_onoff - baseline
        if not math.isfinite(g):
            raise InternalInconsistencyError(f"cost gap at alpha={a!r} is {g!r}")
        return g

    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return CrossoverResult(lo, 0.0, baseline, 0, lo, hi)
    if g_hi == 0.0:
        return CrossoverResult(hi, 0.0, baseline, 0, lo, hi)
    if (g_lo > 0) == (g_hi > 0):
        raise NoCrossingError(
            f"cost gap has the same sign at alpha={lo:g} ({g_lo:.3g}) "
            f"and alpha={hi:g} ({g_hi:.3g})"
        )
    a, b, it = _log_root(gap, lo, hi, g_lo, g_hi, rel_tol)
    root = 0.5 * (a + b)
    return CrossoverResult(root, gap(root), baseline, it, lo, hi)


def _log_root(f, a: float, b: float, fa: float, fb: float, rel_tol: float):
    """Shrink the bracket 0 < a < b, where fa = f(a) and fb = f(b) differ in
    sign, until b - a <= rel_tol * (a + b) / 2; returns (a, b, steps).

    Each step is ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) on
    x = ln(alpha): the regula falsi point, moved k1 * w**2 toward the
    midpoint and kept within r of it.  The alpha rule holds exactly when the
    log-width w is <= 2 * half, so bisection needs n_max - 1 steps; r
    shrinks so that w <= 2 * eps after n_max steps, with eps a little below
    half so that rounding in the alpha rule cannot cost a step.
    """
    steps = 0
    if b - a <= rel_tol * 0.5 * (a + b):  # always so for rel_tol >= 2
        return a, b, steps
    xa, xb = math.log(a), math.log(b)
    half = math.atanh(0.5 * rel_tol)
    n_max = math.ceil(math.log2((xb - xa) / (2 * half))) + 1
    eps = 0.99 * half
    k1 = 0.2 / (xb - xa)
    while b - a > rel_tol * 0.5 * (a + b):
        w, mid = xb - xa, 0.5 * (xa + xb)
        xf = xa + w * fa / (fa - fb)
        sigma = math.copysign(1.0, mid - xf)
        delta = k1 * w * w
        xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
        r = max(eps * 2.0 ** (n_max - steps) - 0.5 * w, 0.0)  # 0 means bisect
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        alpha = math.exp(x)
        fx = f(alpha)
        steps += 1
        if fx == 0.0:
            return alpha, alpha, steps
        if (fx > 0) == (fa > 0):
            xa, a, fa = x, alpha, fx
        else:
            xb, b, fb = x, alpha, fx
    return a, b, steps
