"""Property tests for the matrix-analytic solver over c, load and setup rate.

Examples are derandomized so the suite stays deterministic; the explicit
example is a point where a subtractive boundary sweep returns negative
probabilities and G-level rows off by 1.  Every draw is also compared with
the generating-function solver, state by state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmcsetup import gf, qbd
from mmcsetup.measures import performance
from mmcsetup.model import QueueParams

MU = 1.0


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    rho=st.floats(0.05, 0.95),
    alpha=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    c=st.integers(1, 400),
    confluent=st.booleans(),
)
@example(rho=0.5, alpha=0.7, c=100, confluent=False)
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
    assert performance(dist, p).e_active == pytest.approx(p.lam / p.mu, rel=1e-12)
    glevel_rows = max(
        float(np.abs(g.sum(axis=1) - 1.0).max()) for g in sol.glevels[1:]
    )
    assert glevel_rows <= 1e-12

    # gf at every draw, the confluent line included; states below 1e-290
    # underflow in both solvers and are skipped
    ref = gf.solve(p).distribution()
    pairs = [(dist.level(j), ref.level(j)) for j in range(c + 11)]
    pairs += [(dist.tail.sum0(), ref.tail.sum0()), (dist.tail.sum1(), ref.tail.sum1())]
    worst = 0.0
    for a, b in pairs:
        scale = np.maximum(a, b)
        keep = scale > 1e-290
        worst = max(worst, float(np.max(np.abs(a - b)[keep] / scale[keep], initial=0.0)))
    assert worst <= 1e-10
