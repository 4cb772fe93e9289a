"""Property tests for the matrix-analytic solver over c, load and setup rate.

Examples are derandomized so the suite stays deterministic; the explicit
examples are a point where a subtractive boundary sweep returns negative
probabilities and G-level rows off by 1, and a slow-setup point where
subtractive pivots in R lose digits.  Every draw is also compared with
the generating-function solver, state by state.  A second test draws small
systems, plus two heavy-load examples at c = 50, on which all three routes,
the truncated-chain oracle included, must agree.  A third runs gf and qbd
at heavy load beyond the draws, rho up to 0.999999.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmcsetup import gf, qbd, sweeps
from mmcsetup.measures import full_report
from mmcsetup.model import CostParams, QueueParams

MU = 1.0


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    rho=st.floats(0.05, 0.95),
    alpha=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    c=st.integers(1, 400),
    confluent=st.booleans(),
)
@example(rho=0.5, alpha=0.7, c=100, confluent=False)
@example(rho=0.95, alpha=1e-4, c=200, confluent=False)  # slow setup
def test_qbd_solution_properties(rho, alpha, c, confluent):
    if confluent:
        alpha = MU * (1.0 - rho)
    p = QueueParams(lam=rho * c * MU, mu=MU, alpha=alpha, c=c)
    sol = qbd.solve(p)
    dist = sol.distribution()

    # the tail pi_c R^k is nonnegative when pi_c and R are
    assert min(float(v.min()) for v in sol.levels) >= 0.0
    assert float(sol.R.min()) >= 0.0
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert full_report(dist, p).e_active == pytest.approx(p.lam / p.mu, rel=1e-12)
    # np.max, unlike max(), keeps a nan from any level
    glevel_rows = np.max([np.abs(g.sum(axis=1) - 1.0).max() for g in sol.glevels[1:]])
    assert glevel_rows <= 1e-12

    # gf at every draw, the confluent line included; states below 1e-290
    # underflow in both solvers and are skipped
    ref = gf.solve(p).distribution()
    pairs = [(dist.level(j), ref.level(j)) for j in range(c + 11)]
    pairs += [(dist.tail.sum0(), ref.tail.sum0()), (dist.tail.sum1(), ref.tail.sum1())]
    assert relative_gap(pairs) <= 1e-10


def relative_gap(pairs) -> float:
    """Largest relative difference, entry by entry, over every pair of
    arrays, on entries above 1e-290 (np.max keeps a nan)."""
    gaps = []
    for a, b in pairs:
        scale = np.maximum(a, b)
        keep = scale > 1e-290
        gaps.append(np.max(np.abs(a - b)[keep] / scale[keep], initial=0.0))
    return float(np.max(gaps))


# Heavy load, past the draws' rho <= 0.95, from very slow to very fast
# setups; c = 400 takes about 1 s a point, so only two points run there
HEAVY_POINTS = [
    (rho, alpha, c)
    for rho in (0.99, 0.9999, 0.999999)
    for alpha in (1e-8, 1e-3, 1.0, 1e4)
    for c in (1, 20)
] + [(0.999999, 1e-3, 400), (0.9999, 1e4, 400)]


@pytest.mark.parametrize("rho, alpha, c", HEAVY_POINTS)
def test_gf_and_qbd_agree_at_heavy_load(rho, alpha, c):
    p = QueueParams(lam=rho * c * MU, mu=MU, alpha=alpha, c=c)
    g, q = gf.solve(p), qbd.solve(p)  # each raises if a certificate fails
    assert max(g.info["job_flow_gap"], g.info["seam_cut_gap"]) <= gf.BALANCE_TOL
    assert q.info["boundary_certificate"] <= 1e-12
    a, b = g.distribution(), q.distribution()
    levels = [*range(c), c, c + 5, c + 50]  # the boundary and three tail levels
    assert relative_gap([(a.level(j), b.level(j)) for j in levels]) <= 1e-10


# alpha stops at 1e-2: the oracle's state count grows like 1 / alpha
@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    rho=st.floats(0.05, 0.95),
    alpha=st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
    c=st.integers(1, 80),
    confluent=st.booleans(),
)
@example(rho=0.95, alpha=0.01, c=8, confluent=False)  # slow setup, heavy load: a long chain
@example(rho=0.95, alpha=1.0, c=50, confluent=False)  # heavy load, oracle grounded at (48, 48)
@example(rho=0.8, alpha=0.1, c=50, confluent=False)
def test_three_routes_agree(rho, alpha, c, confluent):
    if confluent:
        alpha = MU * (1.0 - rho)
    p = QueueParams(lam=rho * c * MU, mu=MU, alpha=alpha, c=c)
    dists = [sweeps.solve_distribution(p, m) for m in sweeps.ANALYTIC_METHODS]

    # criterion 1's per-state bound on levels 0..c+50, for every pair
    for j in range(c + 51):
        levels = np.array([d.level(j) for d in dists])
        assert float(np.max(levels.max(axis=0) - levels.min(axis=0))) < 1e-8

    # the gap a sweep row is flagged at, over every report field
    reports = [full_report(d, p, CostParams()) for d in dists]
    assert sweeps.report_gap(reports) <= sweeps.METHOD_GAP_LIMIT
