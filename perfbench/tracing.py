"""Spans and counters for the traced benchmark run.

``instrument`` wraps the public functions of each mmcsetup module from the
outside, at module and at class level; nothing under src/ knows about it.
A span is (id, parent id, name, start, end).  Spans live in memory and are
written out once the run ends.  Observers read counts from the values the
wrapped functions return, at the boundary where the work happened.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import oracle


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent id or None, name, start, end]
        self.stack: list = []
        self.recording = False
        self.counts: Counter = Counter()
        self.extremes: dict = {}

    def high(self, key: str, value: float) -> None:
        self.extremes[key] = max(self.extremes.get(key, value), value)

    def low(self, key: str, value: float) -> None:
        self.extremes[key] = min(self.extremes.get(key, value), value)

    def wrap(self, fn, name: str, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer.stack[-1] if tracer.stack else None,
                    name, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(tracer, out)
            return out

        return traced


# ---------------------------------------------------------------------------
# observers: counts taken from return values


def _gf_solve(t: Tracer, sol) -> None:
    digits = sol.info.get("precision_digits")
    t.counts["gf.extended"] += digits is not None
    t.high("gf.precision_digits_max", digits or 0)


def _qbd_solve(t: Tracer, sol) -> None:
    t.high("qbd.boundary_certificate_max", sol.info["boundary_certificate"])
    t.low("qbd.min_prob", min(float(v.min()) for v in sol.levels))
    if sol.glevels is not None:
        t.high("qbd.glevel_rows_max", oracle.glevel_rows_defect(sol))


def _ctmc_adaptive(t: Tracer, dist) -> None:
    c, j_max = dist.params.c, dist.info["j_max"]
    # states (i, j) with i <= min(j, c), j <= j_max
    states = (min(j_max, c) + 1) * (min(j_max, c) + 2) // 2 + max(j_max - c, 0) * (c + 1)
    t.high("ctmc.states_max", states)


def _decomposition(t: Tracer, dec) -> None:
    t.counts["measures.decomposition.support"] += dec.support


def _run_sweep(t: Tracer, rows) -> None:
    t.counts["sweeps.error_rows"] += sum(1 for r in rows if r["error"])
    for r in rows:
        if "method_gap" in r:
            t.high("sweeps.method_gap_max", r["method_gap"])


def _crossover(t: Tracer, res) -> None:
    t.counts["sweeps.crossover.iterations"] += res.iterations


def _simulate(t: Tracer, est) -> None:
    t.counts["sim.events"] += est.n_events
    t.high("sim.hw_jobs_rel", est.hw_jobs / est.e_jobs)


def _validate(t: Tracer, rep) -> None:
    t.counts["sim.validate_fail_rows"] += sum(1 for r in rep.rows if not r["ok"])


# (module, attribute path, observer); the span name is "module.path"
TARGETS = (
    ("gf", "solve", _gf_solve),
    ("gf", "quadratic_roots", None),
    ("distribution", "PoleTail.level", None),
    ("distribution", "PoleTail.row_tail", None),
    ("measures", "full_report", None),
    ("measures", "decomposition", _decomposition),
    ("qbd", "solve", _qbd_solve),
    ("qbd", "rate_matrix", None),
    ("qbd", "level_rate_matrices", None),
    ("qbd", "g_matrix", None),
    ("qbd", "g_levels", None),
    ("qbd", "residuals", None),
    ("ctmc", "solve_adaptive", _ctmc_adaptive),
    ("ctmc", "solve_truncated", None),
    ("mmc", "mmc_baseline", None),
    ("sweeps", "run_sweep", _run_sweep),
    ("sweeps", "crossover_finder", _crossover),
    ("sweeps", "solve_distribution", None),
    ("sim", "simulate", _simulate),
    ("sim", "validate_against", _validate),
)


@contextmanager
def instrument(tracer: Tracer):
    """Replace every target with its traced wrapper, wherever it is bound.

    A module-level function is also rebound in every mmcsetup module that
    imported it by name (qbd's ``quadratic_roots``, sweeps' ``full_report``),
    so calls between modules are traced too.  Everything is restored on exit.
    """
    import mmcsetup  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items() if n == "mmcsetup" or n.startswith("mmcsetup.")]
    undo = []
    for mod_name, path, observe in TARGETS:
        mod = sys.modules[f"mmcsetup.{mod_name}"]
        name = f"{mod_name}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(orig, name, observe))
            undo.append((cls, attr, orig))
            continue
        orig = getattr(mod, path)
        wrapped = tracer.wrap(orig, name, observe)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))
    try:
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)


# ---------------------------------------------------------------------------
# per-layer metrics

# spans whose busy and self times are reported
BUSY = (
    "gf.solve",
    "gf.quadratic_roots",
    "distribution.PoleTail.level",
    "distribution.PoleTail.row_tail",
    "measures.full_report",
    "measures.decomposition",
    "qbd.solve",
    "qbd.rate_matrix",
    "qbd.level_rate_matrices",
    "qbd.g_matrix",
    "qbd.g_levels",
    "qbd.residuals",
    "ctmc.solve_adaptive",
    "mmc.mmc_baseline",
    "sweeps.run_sweep",
    "sweeps.crossover_finder",
    "sim.simulate",
)
LAYERS = ("gf", "distribution", "measures", "qbd", "ctmc", "mmc", "sweeps", "sim")

# name -> unit, in report order
PER_LAYER = {
    **{f"{n}.{kind}": "s" for n in BUSY for kind in ("busy_s", "self_s")},
    "gf.solve.calls": "count",
    "gf.extended_frac": "1",
    "gf.precision_digits_max": "digits",
    "gf.degenerate.count": "count",
    "distribution.PoleTail.level.calls": "count",
    "measures.decomposition.support": "count",
    "qbd.glevel_rows_max": "1",
    "qbd.boundary_certificate_max": "1",
    "qbd.min_prob": "1",
    "ctmc.solve_truncated.calls": "count",
    "ctmc.useful_ratio": "1",
    "ctmc.states_max": "count",
    "sweeps.crossover.iterations": "count",
    "sweeps.solve_distribution.calls": "count",
    "sweeps.error_rows": "count",
    "sweeps.method_gap_max": "1",
    "sim.events_per_s": "1/s",
    "sim.hw_jobs_rel": "1",
    "sim.validate_fail_rows": "count",
    "cli.import_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_coverage": "1",
}

# counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "gf.extended_frac",
    "gf.precision_digits_max",
    "ctmc.solve_truncated.calls",
    "sweeps.crossover.iterations",
    "measures.decomposition.support",
    "sweeps.error_rows",
)


def span_times(spans: list) -> tuple[Counter, Counter, Counter]:
    """Busy time, self time and call count per span name.

    Self time is a span's duration minus the time its child spans cover;
    one thread runs the spans, so children never overlap each other.
    """
    busy, self_s, calls = Counter(), Counter(), Counter()
    child = Counter()
    for sid, parent, name, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    for sid, parent, name, start, end in spans:
        busy[name] += end - start
        self_s[name] += end - start - child[sid]
        calls[name] += 1
    return busy, self_s, calls


def layer_metrics(tracer: Tracer, scale: float, traced_wall: float,
                  untraced_wall: float, traced_raw_wall: float, import_s: float) -> dict:
    """Every PER_LAYER metric as a plain number (0 where a layer did not run).

    Span times are multiplied by ``scale``, the run's machine-speed factor;
    the given walls and import time are scaled already, except
    ``traced_raw_wall``, against which the raw span times are compared.
    """
    busy, self_s, calls = span_times(tracer.spans)
    coverage = sum(self_s.values()) / traced_raw_wall if traced_raw_wall else 0.0
    for table in (busy, self_s):
        for name in table:
            table[name] *= scale
    counts, ext = tracer.counts, tracer.extremes
    gf_solved = calls["gf.solve"] - counts["gf.solve!DegeneratePolesError"]
    out = {}
    for n in BUSY:
        out[f"{n}.busy_s"] = busy[n]
        out[f"{n}.self_s"] = self_s[n]
    out.update({
        "gf.solve.calls": calls["gf.solve"],
        "gf.extended_frac": counts["gf.extended"] / gf_solved if gf_solved else 0.0,
        "gf.precision_digits_max": ext.get("gf.precision_digits_max", 0),
        "gf.degenerate.count": counts["gf.solve!DegeneratePolesError"],
        "distribution.PoleTail.level.calls": calls["distribution.PoleTail.level"],
        "measures.decomposition.support": counts["measures.decomposition.support"],
        "qbd.glevel_rows_max": ext.get("qbd.glevel_rows_max", 0.0),
        "qbd.boundary_certificate_max": ext.get("qbd.boundary_certificate_max", 0.0),
        "qbd.min_prob": ext.get("qbd.min_prob", 0.0),
        "ctmc.solve_truncated.calls": calls["ctmc.solve_truncated"],
        "ctmc.useful_ratio": (calls["ctmc.solve_adaptive"] / calls["ctmc.solve_truncated"]
                              if calls["ctmc.solve_truncated"] else 0.0),
        "ctmc.states_max": ext.get("ctmc.states_max", 0),
        "sweeps.crossover.iterations": counts["sweeps.crossover.iterations"],
        "sweeps.solve_distribution.calls": calls["sweeps.solve_distribution"],
        "sweeps.error_rows": counts["sweeps.error_rows"],
        "sweeps.method_gap_max": ext.get("sweeps.method_gap_max", 0.0),
        "sim.events_per_s": (counts["sim.events"] / busy["sim.simulate"]
                             if busy["sim.simulate"] else 0.0),
        "sim.hw_jobs_rel": ext.get("sim.hw_jobs_rel", 0.0),
        "sim.validate_fail_rows": counts["sim.validate_fail_rows"],
        "cli.import_s": import_s,
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for n, v in self_s.items() if n.split(".", 1)[0] == layer
        )
    out.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_coverage": coverage,
    })
    return {k: out[k] for k in PER_LAYER}
