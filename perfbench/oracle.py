"""Correctness oracle for the benchmark operations.

Every check runs after an operation has returned, outside its timed
interval and with tracing paused.  A check returns the tests the output
failed as {name: magnitude}; an empty dict means the operation passed.  A
name says which test failed and where (``residuals:boundary``,
``sweep_error:alpha=0.5:DegeneratePoles``, ``validate:pi_3``); the
magnitude is how bad the failure is, in the units of its test (a residual,
a row-sum gap, the size of a negative probability), or None for a failure
that has no size.  The names and magnitudes are the vocabulary of
``known_failures.json``.
"""

from __future__ import annotations

import numpy as np

REPORT_REL_TOL = 1e-9  # report fields against the other solver's values
MASS_TOL = 1e-12  # |total mass - 1|
ACTIVE_TOL = 1e-9  # |E[active] - lam/mu|
GLEVEL_TOL = 1e-11  # |row sum - 1| of every boundary G^(n)
RESIDUAL_TOL = 1e-10  # every entry of qbd.residuals
TV_TOL = 1e-10  # decomposition total-variation gap
CROSSOVER_REL_TOL = 1e-5  # two bisections to rel_tol 1e-6 each

REPORT_SCALARS = (
    "e_active",
    "e_setup",
    "switching_rate",
    "e_jobs",
    "cost_onoff",
    "cost_onidle",
    "total_cost_onoff",
)


def report_gap(rep, ref: dict) -> float:
    """Largest deviation from the reference, relative: scalars to their own
    size, the phase marginal to its largest entry (single phases can carry
    1e-20 of mass, which no solver resolves relatively)."""
    gaps = []
    for k in REPORT_SCALARS:
        a, b = float(getattr(rep, k)), ref[k]
        gaps.append(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0)
    got = np.asarray(rep.phase_marginal, dtype=float)
    want = np.asarray(ref["phase_marginal"])
    if got.shape != want.shape:
        return float("inf")
    gaps.append(float(np.abs(got - want).max() / np.abs(want).max()))
    return float(np.max(gaps))  # np.max, unlike max, propagates a NaN


def report_matches(rep, ref: dict) -> bool:
    return report_gap(rep, ref) <= REPORT_REL_TOL


def min_probability(dist, n_tail_levels: int) -> float:
    """Smallest stationary probability over the boundary, the first tail
    levels and the row tail masses."""
    c = dist.params.c
    lows = [float(dist.boundary[i, j]) for j in range(c) for i in range(j + 1)]
    lows.append(float(np.min(dist.tail.sum0())))
    for m in range(n_tail_levels):
        lows.append(float(np.min(dist.tail.level(m))))
    return min(lows)


def check_point(params, dist, rep, dec, ref: dict) -> dict:
    """Checks shared by every analytic parameter point."""
    gaps = {
        "report_vs_reference": (report_gap(rep, ref), REPORT_REL_TOL),
        "negative_prob": (-min_probability(dist, dec.support + 1), 0.0),
        "total_mass": (abs(dist.total_mass() - 1.0), MASS_TOL),
        "e_active": (abs(rep.e_active - params.lam / params.mu), ACTIVE_TOL),
        "tv_gap": (dec.tv_gap, TV_TOL),
    }
    # `not <=` also fails a NaN
    return {k: float(v) for k, (v, tol) in gaps.items() if not v <= tol}


def glevel_rows_defect(sol) -> float:
    """Worst |row sum - 1| over the boundary first-passage matrices."""
    return max(
        float(np.abs(g.sum(axis=1) - 1.0).max()) for g in sol.glevels[1:]
    )


def check_qbd(sol, residuals: dict | None) -> dict:
    """qbd-only checks: g-level row sums and, where computed, every residual
    entry by its key."""
    failed = {}
    defect = glevel_rows_defect(sol)
    if not defect <= GLEVEL_TOL:
        failed["glevel_rows"] = defect
    for key, value in (residuals or {}).items():
        if not value <= RESIDUAL_TOL:
            failed[f"residuals:{key}"] = float(value)
    return failed


def check_sweep(rows: list[dict]) -> dict:
    """One failure per row with an error, named by its alpha and error tag."""
    return {f"sweep_error:alpha={r['alpha']!r}:{r['error']}": None for r in rows if r["error"]}


def check_crossover(result, ref_alpha: float) -> dict:
    gap = abs(result.alpha_cross - ref_alpha) / ref_alpha
    return {} if gap <= CROSSOVER_REL_TOL else {"crossover_vs_reference": gap}


def check_validation(report) -> dict:
    """One failure per rejected row, named by its metric and sized by its gap
    in half-widths (inf where the half-width is 0, as for a phase the
    simulator never entered)."""
    failed = {}
    for r in report.rows:
        if not r["ok"]:
            gap = abs(r["analytic"] - r["simulated"])
            failed[f"validate:{r['metric']}"] = gap / r["halfwidth"] if r["halfwidth"] else float("inf")
    return failed
