"""Command line front end.

Subcommands:

  solve      stationary solve at one parameter point, JSON out
  sweep      grid sweep to CSV (see sweeps module for the column layout)
  crossover  setup rate where the on-off cost meets the always-on cost
  simulate   discrete-event run with batch-means confidence intervals
  validate   analytic solve vs simulation, 3-half-width comparison

Queue parameters come from flags (--lambda or --rho, --mu, --alpha, --c)
or a ``key = value`` config file; flags override the file.  Any model or
solver error prints a one-line JSON object {"error": tag, "message": ...}
and exits with status 2.  `validate` exits 1 when a metric is flagged.
"""

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import InvalidConfigError, QueueModelError
from .measures import full_report
from .model import (
    COST_KEYS,
    PARAM_KEYS,
    CostParams,
    QueueParams,
    params_to_dict,
    read_config,
    resolve_params,
)
from .sim import SimConfig, simulate, validate_against
from .sweeps import (
    ANALYTIC_METHODS,
    SWEPT_VARS,
    SweepSpec,
    crossover_finder,
    csv_text,
    report_gap,
    run_sweep,
    solve_distribution,
)

__all__ = ["main", "entry"]

CONFIG_KEYS = PARAM_KEYS | COST_KEYS.keys()


def _add_model_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--lambda", dest="lambda", type=float, help="arrival rate")
    ap.add_argument("--rho", type=float, help="traffic intensity (alternative to --lambda)")
    ap.add_argument("--mu", type=float, help="service rate (default 1)")
    ap.add_argument("--alpha", type=float, help="setup rate")
    ap.add_argument("--c", type=int, help="number of servers")
    ap.add_argument("--ca", type=float, help="cost per active server (default 1)")
    ap.add_argument("--cs", type=float, help="cost per server in setup (default 1)")
    ap.add_argument("--ci", type=float, help="cost per idle-on server (default 0.6)")
    ap.add_argument("--csw", type=float, help="cost per off-to-on switch (default 0)")
    ap.add_argument("--config", help="key = value parameter file; flags override it")


def _add_sim_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--events", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batches", type=int, default=20)
    ap.add_argument("--warmup", type=float, default=0.1)


def _build_params(args, need_alpha: bool = True) -> tuple[QueueParams, CostParams]:
    """Flags layered over the config file, checked and merged by resolve_params."""
    flags = {k: v for k, v in vars(args).items() if v is not None and k in CONFIG_KEYS}
    raw = read_config(args.config) if args.config else {}
    return resolve_params(raw, flags, need_alpha=need_alpha)


def _sim_config(args, params: QueueParams) -> SimConfig:
    """The simulator run the flags ask for; only `simulate` has the trace flags."""
    return SimConfig(
        params=params,
        n_events=args.events,
        warmup_fraction=args.warmup,
        seed=args.seed,
        n_batches=args.batches,
        trace_limit=getattr(args, "trace_limit", 0),
        trace_path=getattr(args, "trace", None),
    )


def _methods(text: str) -> tuple:
    """A comma list of methods; 'all' stands for every analytic one."""
    return ANALYTIC_METHODS if text == "all" else tuple(text.split(","))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_solve(args) -> int:
    params, costs = _build_params(args)
    methods = _methods(args.method)
    dists = {m: solve_distribution(params, m) for m in methods}
    reports = {m: full_report(d, params, costs) for m, d in dists.items()}
    payload = {
        "params": params_to_dict(params),
        "costs": asdict(costs),
        "method": args.method,
        "report": reports[methods[0]].to_dict(),
    }
    if args.method == "all":
        payload["methods"] = list(methods)
        payload["method_max_gap"] = report_gap(list(reports.values()))
        payload["e_jobs_by_method"] = {m: r.e_jobs for m, r in reports.items()}
        payload["info_by_method"] = {m: d.info for m, d in dists.items()}
    solution = dists[methods[0]].to_dict()
    if args.out:
        paths = {"report": args.out + ".report.json", "solution": args.out + ".solution.json"}
        _emit(payload, paths["report"])
        _emit(solution, paths["solution"])
        print(json.dumps(paths))
    else:
        _emit({**payload, "solution": solution}, None)
    return 0


def _parse_grid(text: str) -> tuple:
    """Comma list '0.1,1,10', or 'log:lo:hi:n' / 'lin:lo:hi:n'."""
    kind = text[:4]
    try:
        if kind not in ("log:", "lin:"):
            return tuple(float(v) for v in text.split(","))
        lo, hi, n = text[4:].split(":")  # a wrong piece count is a ValueError
        lo, hi, n = float(lo), float(hi), int(n)
        if kind == "log:":
            if not (lo > 0 and hi > 0):
                raise InvalidConfigError(f"log grid bounds must be > 0, got {lo!r}:{hi!r}")
            vals = np.logspace(np.log10(lo), np.log10(hi), n)
        else:
            vals = np.linspace(lo, hi, n)
    except ValueError:
        raise InvalidConfigError(
            f"bad grid {text!r}, want a comma list, log:lo:hi:n or lin:lo:hi:n"
        ) from None
    return tuple(float(v) for v in vals)


def _cmd_sweep(args) -> int:
    params, costs = _build_params(args, need_alpha=(args.var != "alpha"))
    spec = SweepSpec(
        var=args.var,
        grid=_parse_grid(args.grid),
        params=params,
        costs=costs,
        methods=_methods(args.method),
        seed=args.seed,
        sim_events=args.events,
    )
    rows = run_sweep(spec)
    text = csv_text(spec, rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        n_err = sum(1 for r in rows if r["error"])
        print(json.dumps({"csv": args.out, "points": len(rows), "errors": n_err}))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_crossover(args) -> int:
    params, costs = _build_params(args, need_alpha=False)
    res = crossover_finder(params, costs, lo=args.lo, hi=args.hi, rel_tol=args.rel_tol)
    _emit({"params": params_to_dict(params), "costs": asdict(costs), **res.to_dict()}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    params, _ = _build_params(args)
    est = simulate(_sim_config(args, params))
    _emit({"params": params_to_dict(params), **est.to_dict()}, args.out)
    return 0


def _cmd_validate(args) -> int:
    params, costs = _build_params(args)
    dist = solve_distribution(params, args.method)
    report = full_report(dist, params, costs)
    ver = validate_against(report, simulate(_sim_config(args, params)))
    payload = {
        "params": params_to_dict(params),
        "method": args.method,
        **ver.to_dict(),
    }
    _emit(payload, args.out)
    return 0 if ver.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mmcsetup",
        description="Exact and simulated analysis of the multiserver queue "
        "with exponential server setup times (on-off policy).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one parameter point")
    _add_model_flags(p_solve)
    p_solve.add_argument("--method", default="gf", choices=[*ANALYTIC_METHODS, "all"])
    p_solve.add_argument("--out", help="path prefix: writes <out>.report.json and <out>.solution.json")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="grid sweep, CSV output")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--var", required=True, choices=SWEPT_VARS)
    p_sweep.add_argument("--grid", required=True,
                         help="comma list, or log:lo:hi:n, or lin:lo:hi:n")
    p_sweep.add_argument("--method", default="gf",
                         help="comma list of gf,qbd,ctmc,sim or 'all'")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--events", type=int, default=200_000,
                         help="events per point when sim is among the methods")
    p_sweep.add_argument("--out", help="CSV path (stdout when omitted)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cross = sub.add_parser("crossover",
                             help="alpha where on-off cost equals always-on cost")
    _add_model_flags(p_cross)
    p_cross.add_argument("--lo", type=float, default=1e-4,
                         help="lower end of the alpha bracket; needs 0 < lo < hi (default 1e-4)")
    p_cross.add_argument("--hi", type=float, default=1e3,
                         help="upper end of the alpha bracket; the costs must cross "
                              "between lo and hi (default 1e3)")
    p_cross.add_argument("--rel-tol", type=float, default=1e-6,
                         help="> 0; stop once the bracket [a, b] has b - a <= "
                              "rel_tol * (a + b) / 2, and report its midpoint (default 1e-6)")
    p_cross.add_argument("--out")
    p_cross.set_defaults(func=_cmd_crossover)

    p_sim = sub.add_parser("simulate", help="discrete-event simulation")
    _add_model_flags(p_sim)
    _add_sim_flags(p_sim)
    p_sim.add_argument("--trace", help="event-trace CSV path (debugging)")
    p_sim.add_argument("--trace-limit", type=int, default=0,
                       help="events to trace into --trace; give the two together")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate", help="analytic vs simulation comparison")
    _add_model_flags(p_val)
    p_val.add_argument("--method", default="gf", choices=ANALYTIC_METHODS)
    _add_sim_flags(p_val)
    p_val.add_argument("--out")
    p_val.set_defaults(func=_cmd_validate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QueueModelError as exc:
        print(json.dumps({"error": exc.tag, "message": str(exc)}))
        return 2


def entry() -> None:
    sys.exit(main())
