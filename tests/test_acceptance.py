"""End-to-end acceptance checks, one test per criterion.

Each test records a single PASS/FAIL line (echoed in the terminal summary)
before asserting, so a red run still reports every criterion's outcome.
This file sorts first, which keeps the criterion-1 timing honest: the
shared solution caches are still cold when it starts.
"""

import itertools
import math
import time

import numpy as np
from mpmath import mp

from conftest import (
    GRID_ALPHA,
    GRID_C,
    GRID_RHO,
    gf_solution,
    grid_points,
    is_confluent,
    oracle_distribution,
    qbd_solution,
    record_criterion,
)
from mmcsetup import gf, measures, mmc, qbd, sim, sweeps
from mmcsetup.model import CostParams, QueueParams

POWER_COSTS = CostParams(c_active=1.0, c_setup=1.0, c_idle=0.6)


def test_criterion_1_method_equivalence():
    t0 = time.perf_counter()
    gap_gq = gap_go = gap_qo = 0.0
    n_confluent = 0
    for p in grid_points():
        dq = qbd_solution(p).distribution()
        do = oracle_distribution(p)
        dg = gf_solution(p).distribution()
        # alpha = mu (1 - rho): all outer roots coincide; every route
        # covers these points too
        n_confluent += is_confluent(p)
        for j in range(p.c + 51):
            vq, vo, vg = dq.level(j), do.level(j), dg.level(j)
            gap_qo = max(gap_qo, float(np.max(np.abs(vq - vo))))
            gap_gq = max(gap_gq, float(np.max(np.abs(vg - vq))))
            gap_go = max(gap_go, float(np.max(np.abs(vg - vo))))
    elapsed = time.perf_counter() - t0
    ok = gap_gq < 1e-10 and gap_go < 1e-8 and gap_qo < 1e-8 and elapsed < 60.0
    record_criterion(
        1,
        ok,
        f"gf-qbd {gap_gq:.1e} (tol 1e-10), gf-oracle {gap_go:.1e}, "
        f"qbd-oracle {gap_qo:.1e} (tol 1e-8), grid {elapsed:.1f}s (< 60s); "
        f"{n_confluent} confluent points included",
    )
    assert gap_gq < 1e-10
    assert gap_go < 1e-8
    assert gap_qo < 1e-8
    assert elapsed < 60.0
    assert n_confluent == 6


def test_criterion_2_residual_certificates():
    worst: dict[str, float] = {}
    for p in grid_points():
        res = qbd.residuals(qbd_solution(p))
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    checks = {
        "quad_R": 1e-12,
        "quad_G": 1e-12,
        "g_rows": 1e-10,
        "g_diag": 1e-12,
        "r_diag": 1e-12,
        "r_from_g": 1e-12,
    }
    bad = {k: worst[k] for k, tol in checks.items() if worst[k] >= tol}
    record_criterion(
        2,
        not bad,
        "worst over grid: "
        + ", ".join(f"{k} {worst[k]:.1e}" for k in checks)
        + (f"; EXCEEDED {bad}" if bad else "; all within tolerance"),
    )
    assert not bad, bad


def test_criterion_3_decomposition():
    worst = 0.0
    for p in grid_points():
        rep = measures.decomposition(gf_solution(p).distribution(), p)
        worst = max(worst, rep.tv_gap)
    record_criterion(3, worst < 1e-10, f"worst TV gap {worst:.1e} (tol 1e-10)")
    assert worst < 1e-10


def _falling(x: int, m: int) -> float:
    out = 1.0
    for t in range(m):
        out *= x - t
    return out


def _recursion_moments(sol, n_max):
    """The paper's factorial-moment recursions, in mpmath at the solution's
    own precision: hat[i, n], the tail part of row i's n-th factorial
    moment at z = 1, follows from row i - 1 and lower orders.  Their only
    tail input is each row's mass beyond c, order 0 of the tail part."""
    p = sol.params
    c, lam, mu, alpha = p.c, mp.mpf(p.lam), mp.mpf(p.mu), mp.mpf(p.alpha)
    pi = sol.boundary
    head = np.array(
        [
            [mp.fsum(pi[i, j] * _falling(j - i, n) for j in range(i, c)) for n in range(n_max + 1)]
            for i in range(c + 1)
        ],
        dtype=object,
    )
    top = n_max + 1  # interior rows carry one extra order for row c
    hat = np.full((c + 1, top + 1), mp.mpf(0), dtype=object)
    hat[:c, 0] = sol.moments_full[:c, 0] - head[:c, 0]
    for n in range(1, top + 1):
        hat[0, n] = (n * lam * hat[0, n - 1] + lam * pi[0, c - 1] * _falling(c, n)) / (c * alpha)
    for i in range(1, c):
        for n in range(1, top + 1):
            term2 = hat[i, n - 2] if n >= 2 else 0
            hat[i, n] = (
                (c - i + 1) * alpha * hat[i - 1, n]
                + n * (lam - i * mu - (c - i) * alpha) * hat[i, n - 1]
                + n * (n - 1) * lam * term2
                + lam * pi[i, c - 1] * _falling(c - i + 1, n)
                - i * mu * pi[i, c] * _falling(c - i, n)
            ) / ((c - i) * alpha)
    for n in range(n_max + 1):
        prev = hat[c, n - 1] if n >= 1 else 0
        hat[c, n] = (alpha * hat[c - 1, n + 1] + (n + 1) * n * lam * prev) / (
            (n + 1) * (c * mu - lam)
        )
    return head + hat[:, : n_max + 1]


def test_criterion_4_factorial_moments():
    # both sides at 80 digits: the recursion amplifies the roundoff of its
    # inputs far past 1e-8 when fed a float64 solution
    worst = 0.0
    n_checked = 0
    for p in grid_points():
        sol = gf.solve(p, dps=80)
        with mp.workdps(80):
            rec = _recursion_moments(sol, 4)
        for i in range(p.c + 1):
            if p.c == 1 and 0 < i < p.c:
                continue  # vacuous interior rows at c=1
            for n in range(1, 5):
                # direct differentiation of the Newton-form closed form
                a, b = rec[i, n], sol.moments_full[i, n]
                scale = max(abs(a), abs(b))
                if scale < 1e-250:
                    continue
                worst = max(worst, float(abs(a - b) / scale))
                n_checked += 1
    record_criterion(
        4,
        worst < 1e-8,
        f"recursions vs direct differentiation: worst rel {worst:.1e} "
        f"over {n_checked} moments, n <= 4 (tol 1e-8), "
        "confluent points included",
    )
    assert worst < 1e-8


def test_criterion_5_instant_setup_limit():
    worst_tv = worst_ea = worst_es = worst_cost = 0.0
    for c, rho in itertools.product(GRID_C, GRID_RHO):
        p = QueueParams(lam=rho * c, mu=1.0, alpha=1e6, c=c)
        d = gf.solve(p).distribution()
        rep = measures.full_report(d, p, CostParams(c_active=1.0))
        jtop = c + max(60, int(math.ceil(math.log(1e-16) / math.log(rho))))
        pj = np.array([d.level(j).sum() for j in range(jtop)])
        qj = mmc.distribution(p, jtop - 1)
        tv = 0.5 * (np.abs(pj - qj).sum() + (1.0 - pj.sum()) + (1.0 - qj.sum()))
        worst_tv = max(worst_tv, float(tv))
        worst_ea = max(worst_ea, abs(rep.e_active - c * rho))
        worst_es = max(worst_es, rep.e_setup)
        worst_cost = max(worst_cost, abs(rep.cost_onoff - c * rho))
    ok = max(worst_tv, worst_ea, worst_es, worst_cost) < 1e-3
    record_criterion(
        5,
        ok,
        f"alpha=1e6 vs always-on M/M/c: TV {worst_tv:.1e}, |E[A]-c rho| "
        f"{worst_ea:.1e}, E[S] {worst_es:.1e}, |cost - c rho C_a| "
        f"{worst_cost:.1e} (all tol 1e-3)",
    )
    assert worst_tv < 1e-3
    assert worst_ea < 1e-3
    assert worst_es < 1e-3
    assert worst_cost < 1e-3


def _qbd_report(p, costs):
    d = qbd.solve(p, with_g=False).distribution()
    return measures.full_report(d, p, costs)


def test_criterion_6_figure_shapes():
    times = {}
    problems = []
    agrid = np.geomspace(1e-3, 1e3, 19)

    # (a) on-off power cost nonincreasing in alpha, one always-on crossover
    t0 = time.perf_counter()
    for c, rho in itertools.product((20, 30), (0.3, 0.5, 0.7)):
        base = mmc.onidle_cost(
            QueueParams(lam=rho * c, mu=1.0, alpha=1.0, c=c), POWER_COSTS
        )
        v = np.array(
            [
                _qbd_report(
                    QueueParams(lam=rho * c, mu=1.0, alpha=float(a), c=c),
                    POWER_COSTS,
                ).cost_onoff
                for a in agrid
            ]
        )
        if not np.all(np.diff(v) <= 1e-9 * v[:-1]):
            problems.append(f"a: cost not nonincreasing at c={c} rho={rho}")
        if int(np.sum(np.diff(np.sign(v - base)) != 0)) != 1:
            problems.append(f"a: crossover not unique at c={c} rho={rho}")
        sweeps.crossover_finder(
            QueueParams(lam=rho * c, mu=1.0, alpha=1.0, c=c),
            POWER_COSTS,
            method="qbd",
        )  # raises NoCrossing if the sign change is missing
    times["a"] = time.perf_counter() - t0

    # (b) with a switching price the total cost turns back up: two crossings
    t0 = time.perf_counter()
    cp = CostParams(c_active=1.0, c_setup=1.0, c_idle=0.6, c_switch=1.0)
    base = mmc.onidle_cost(QueueParams(lam=10.0, mu=1.0, alpha=1.0, c=20), cp)
    tot = np.array(
        [
            _qbd_report(
                QueueParams(lam=10.0, mu=1.0, alpha=float(a), c=20), cp
            ).total_cost_onoff
            for a in agrid
        ]
    )
    k = int(np.argmin(tot))
    if not 0 < k < len(tot) - 1:
        problems.append("b: total cost is monotone in alpha")
    crossings = np.flatnonzero(np.diff(np.sign(tot - base)) != 0)
    if len(crossings) != 2:
        problems.append(f"b: {len(crossings)} crossings, expected 2")
    elif not agrid[crossings[0]] < agrid[k] <= agrid[crossings[1] + 1]:
        problems.append("b: minimum not between the two crossings")
    times["b"] = time.perf_counter() - t0

    # (c) E[L] decreasing in alpha, converging to the always-on value
    t0 = time.perf_counter()
    el = np.array(
        [
            _qbd_report(
                QueueParams(lam=5.0, mu=1.0, alpha=float(a), c=10), POWER_COSTS
            ).e_jobs
            for a in agrid
        ]
    )
    p_inf = QueueParams(lam=5.0, mu=1.0, alpha=1e6, c=10)
    if not np.all(np.diff(el) < 0):
        problems.append("c: E[L] not decreasing in alpha")
    if abs(_qbd_report(p_inf, POWER_COSTS).e_jobs - mmc.mean_jobs(p_inf)) > 1e-3:
        problems.append("c: E[L] does not reach the always-on value")
    times["c"] = time.perf_counter() - t0

    # (d) switching rate in rho rises to a peak, then falls
    t0 = time.perf_counter()
    for c in (40, 50):
        rr = np.linspace(0.05, 0.95, 19)
        sw = np.array(
            [
                _qbd_report(
                    QueueParams(lam=float(r) * c, mu=1.0, alpha=1.0, c=c),
                    POWER_COSTS,
                ).switching_rate
                for r in rr
            ]
        )
        k = int(np.argmax(sw))
        if not (0 < k < len(sw) - 1 and np.all(np.diff(sw[: k + 1]) > 0)
                and np.all(np.diff(sw[k:]) < 0)):
            problems.append(f"d: switching rate not single-peaked at c={c}")
    times["d"] = time.perf_counter() - t0

    # (e) crossover setup rate increases with load
    t0 = time.perf_counter()
    for c in (20, 30):
        roots = [
            sweeps.crossover_finder(
                QueueParams(lam=r * c, mu=1.0, alpha=1.0, c=c),
                POWER_COSTS,
                method="qbd",
            ).alpha_cross
            for r in (0.3, 0.5, 0.7)
        ]
        if not roots[0] < roots[1] < roots[2]:
            problems.append(f"e: crossover alpha not increasing in rho at c={c}")
    times["e"] = time.perf_counter() - t0

    slow = {k: v for k, v in times.items() if v >= 30.0}
    if slow:
        problems.append(f"blocks over 30s: {slow}")
    record_criterion(
        6,
        not problems,
        ("; ".join(problems) if problems else "shapes a-e all hold")
        + "; block times "
        + " ".join(f"{k}={v:.1f}s" for k, v in times.items())
        + " (each < 30s)",
    )
    assert not problems, problems


def test_criterion_7_simulation_consistency():
    p = QueueParams(lam=5.0, mu=1.0, alpha=0.1, c=10)
    rep = measures.full_report(gf_solution(p).distribution(), p)
    est = sim.simulate(sim.SimConfig(params=p, n_events=1_000_000, seed=0))
    ver = sim.validate_against(rep, est)
    worst = max(
        abs(r["analytic"] - r["simulated"]) / r["halfwidth"]
        for r in ver.rows
        if r["halfwidth"] > 0
    )
    record_criterion(
        7,
        ver.passed,
        f"c=10 rho=0.5 alpha=0.1, 1e6 events: {len(ver.rows)} metrics, "
        f"worst |gap| = {worst:.2f} half-widths (limit 3)",
    )
    assert ver.passed, [r for r in ver.rows if not r["ok"]]


def _best_of(f, n=2):
    out = math.inf
    for _ in range(n):
        t0 = time.perf_counter()
        f()
        out = min(out, time.perf_counter() - t0)
    return out


def test_criterion_8_complexity_envelopes():
    def gf_point(c):
        return QueueParams(lam=0.5 * c, mu=1.0, alpha=0.7, c=c)

    t_gf = {c: _best_of(lambda: gf.solve(gf_point(c))) for c in (200, 400)}
    ratio_gf = t_gf[400] / t_gf[200]

    t_qbd = {}
    for c in (100, 200):
        p = gf_point(c)
        r_hom = qbd.rate_matrix(p)
        if c == 100:
            # untimed: the first BLAS calls in a process start OpenBLAS's
            # threads, which would inflate the c = 100 time
            qbd.level_rate_matrices(p, r_hom)
        t_qbd[c] = _best_of(lambda: qbd.level_rate_matrices(p, r_hom))
    ratio_qbd = t_qbd[200] / t_qbd[100]

    ok = ratio_gf <= 6.0 and ratio_qbd <= 10.0
    record_criterion(
        8,
        ok,
        f"gf c=400/c=200: {t_gf[400]:.2f}s/{t_gf[200]:.2f}s = {ratio_gf:.1f}x "
        f"(limit 6x); qbd level-R c=200/c=100: {t_qbd[200] * 1e3:.1f}ms/"
        f"{t_qbd[100] * 1e3:.1f}ms = {ratio_qbd:.1f}x (limit 10x)",
    )
    assert ratio_gf <= 6.0
    assert ratio_qbd <= 10.0
