import math

import numpy as np
import pytest

from conftest import (
    gf_mean_jobs,
    gf_solution,
    job_marginal,
    oracle_distribution,
    qbd_solution,
    run_fresh,
)
from mmcsetup import gf, measures, mmc
from mmcsetup.distribution import PoleTail
from mmcsetup.errors import InternalInconsistencyError, InvalidConfigError
from mmcsetup.model import QueueParams

P112 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
SQRT5 = math.sqrt(5.0)


def test_root_closed_forms():
    r = gf.quadratic_roots(P112)
    assert r.z[1] == pytest.approx((3.0 - SQRT5) / 2.0, abs=1e-14)
    assert r.zhat[1] == pytest.approx((3.0 + SQRT5) / 2.0, abs=1e-14)
    assert r.zhat[0] == pytest.approx(3.0, abs=1e-14)  # (lambda + c alpha)/lambda
    assert r.zhat[2] == pytest.approx(2.0, abs=1e-14)  # c mu / lambda
    assert r.z[0] == 0.0
    assert r.z[2] == 1.0


def test_root_product_identity():
    # z_i zhat_i = i mu / lambda for every phase
    p = QueueParams(lam=1.7, mu=0.9, alpha=0.23, c=7)
    r = gf.quadratic_roots(p)
    for i in range(8):
        assert r.z[i] * r.zhat[i] == pytest.approx(i * p.mu / p.lam, rel=1e-13)


def test_root_residuals():
    p = QueueParams(lam=6.0, mu=1.0, alpha=0.1, c=20)
    r = gf.quadratic_roots(p)
    lam, mu, alpha, c = 6.0, 1.0, 0.1, 20
    for i in range(21):
        s = lam + i * mu + (c - i) * alpha
        for root in (np.longdouble(r.z[i]), np.longdouble(r.zhat[i])):
            res = abs(s * root - lam * root * root - i * mu)
            assert res < 1e-12


def test_root_ordering_and_brackets():
    p = QueueParams(lam=2.6, mu=1.0, alpha=0.4, c=4)
    r = gf.quadratic_roots(p)
    assert np.all(r.z[:-1] >= 0) and np.all(r.z <= 1.0)
    assert np.all(r.zhat > 1.0)


def test_confluent_point_solves():
    # alpha = mu (1 - rho) collapses every outer root onto 1/rho; the Newton
    # form needs no separation, so gf solves the point like any other
    p = QueueParams(lam=1.0, mu=1.0, alpha=0.5, c=2)
    r = gf.quadratic_roots(p)
    assert r.zhat[0] == pytest.approx(2.0, rel=1e-12)
    assert r.zhat[1] == pytest.approx(2.0, rel=1e-12)
    assert r.zhat[2] == pytest.approx(2.0, rel=1e-12)
    d = gf.solve(p).distribution()
    o = oracle_distribution(p)
    for j in range(40):
        np.testing.assert_allclose(d.level(j), o.level(j), rtol=1e-10, atol=0.0)


def test_row_zero_ratios():
    sol3 = gf_solution(QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=3))
    b = sol3.boundary
    assert b[0, 1] / b[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert b[0, 2] / b[0, 0] == pytest.approx(1.0 / 6.0, rel=1e-12)

    sol2 = gf_solution(P112)
    d2 = sol2.distribution()
    # past the boundary the row-0 ratio is lambda/(lambda + c alpha) = 1/3
    assert d2.prob(0, 2) / d2.prob(0, 0) == pytest.approx(0.5 / 3.0, rel=1e-12)


def test_boundary_contraction_coefficients():
    # the backward-recursion multipliers satisfy 0 < b_j < lambda/mu,
    # replayed here from the public roots
    for p in (
        QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=5),
        QueueParams(lam=4.5, mu=1.0, alpha=0.05, c=5),
        QueueParams(lam=0.9, mu=2.0, alpha=3.0, c=4),
    ):
        r = gf.quadratic_roots(p)
        lam, mu, alpha, c = p.lam, p.mu, p.alpha, p.c
        for i in range(1, c):
            b = np.zeros(c + 1)
            b[c] = 1.0 / r.zhat[i]
            for j in range(c - 1, i, -1):
                d = lam + i * mu + (j - i) * alpha - i * mu * b[j + 1]
                b[j] = lam / d
            assert np.all(b[i + 1 : c + 1] > 0)
            assert np.all(b[i + 1 : c + 1] < lam / mu + 1e-15)


def test_b_coefficient_closed_value():
    # c=2, row i=1: the single multiplier is 1/zhat_1 = lambda z_1 / mu here
    r = gf.quadratic_roots(P112)
    assert 1.0 / r.zhat[1] == pytest.approx((3.0 - SQRT5) / 2.0, abs=1e-14)


def test_boundary_row_matches_oracle_relative():
    p = QueueParams(lam=1.0, mu=1.0, alpha=0.5, c=5)
    d = gf_solution(p).distribution()
    o = oracle_distribution(p)
    for j in range(2, 40):
        ref = o.prob(2, j)
        assert d.prob(2, j) == pytest.approx(ref, rel=1e-10)


def test_cut_balance_row_zero():
    # setup flow out of row 0 balances service flow into it: for c=1,
    # mu pi_{1,1} = alpha sum_{j>=1} pi_{0,j} = lambda pi_{0,0}
    p = QueueParams(lam=0.5, mu=1.0, alpha=0.8, c=1)
    d = gf_solution(p).distribution()
    lhs = p.mu * d.prob(1, 1)
    assert lhs == pytest.approx(p.lam * d.prob(0, 0), rel=1e-12)
    row0 = sum(d.prob(0, j) for j in range(1, 200)) + d.tail.row_tail(0, 200)
    assert p.alpha * row0 == pytest.approx(lhs, rel=1e-10)


def test_level_one_balance_vs_oracle():
    d = gf_solution(P112).distribution()
    o = oracle_distribution(P112)
    assert d.prob(1, 1) / d.prob(0, 0) == pytest.approx(
        o.prob(1, 1) / o.prob(0, 0), abs=1e-10
    )
    # lambda pi_00 = mu pi_11 flow balance makes the ratio exactly 1 here
    assert d.prob(1, 1) / d.prob(0, 0) == pytest.approx(1.0, abs=1e-12)


def test_tail_coefficient_structure():
    sol = gf_solution(P112)
    # the Newton coefficients and nodes are nonnegative, no signed mixture
    assert np.all(sol.tail.coeffs >= 0) and np.all(sol.tail.nodes >= 0)
    assert np.all(sol.tail.gaps > 0)
    # and every tail level is a positive probability vector
    d = sol.distribution()
    for m in range(50):
        lvl = d.tail.level(m)
        assert np.all(lvl > 0)


def test_tail_matches_oracle():
    d = gf_solution(P112).distribution()
    o = oracle_distribution(P112)
    for j in range(2, 31):
        assert d.prob(1, j) == pytest.approx(o.prob(1, j), abs=1e-10)


def test_joint_pmf_total_variation_vs_oracle():
    d = gf_solution(P112).distribution()
    o = oracle_distribution(P112)
    tv = 0.5 * sum(
        abs(d.prob(i, j) - o.prob(i, j))
        for j in range(61)
        for i in range(min(j, 2) + 1)
    )
    assert tv < 1e-10


def test_normalization():
    for p in (P112, QueueParams(lam=9.0, mu=1.0, alpha=0.2, c=10)):
        sol = gf_solution(p)
        assert sol.moments_full[:, 0].sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.distribution().total_mass() == pytest.approx(1.0, abs=1e-12)


def test_mean_jobs_frozen_reference():
    # truncated-chain oracle value, solved at tol 1e-13
    assert gf_mean_jobs(gf_solution(P112)) == pytest.approx(
        2.0913719988157773, abs=1e-9
    )


def test_first_moment_row1_frozen_reference():
    # oracle: sum_j (j-1) pi_{1,j} at (1,1,1,2)
    sol = gf_solution(P112)
    assert sol.moments_full[1, 1] == pytest.approx(0.3198019958552246, rel=1e-8)


def test_moments_match_oracle_sums():
    # full factorial moments against direct oracle sums of (j-i)(j-i-1)...
    def falling(x, n):
        out = 1.0
        for t in range(n):
            out *= x - t
        return out

    for p in (P112, QueueParams(lam=2.1, mu=1.0, alpha=0.7, c=3)):
        sol = gf_solution(p)
        o = oracle_distribution(p)
        j_hi = o.info["j_max"]
        for i in range(p.c + 1):
            for n in (1, 2):
                direct = sum(
                    o.prob(i, j) * falling(j - i, n) for j in range(i, j_hi + 1)
                )
                assert sol.moments_full[i, n] == pytest.approx(direct, rel=1e-8)


def test_zeroth_moments_are_phase_marginals():
    p = QueueParams(lam=3.5, mu=1.0, alpha=0.35, c=5)
    sol = gf_solution(p)
    marg = sol.distribution().phase_marginals()
    assert np.max(np.abs(sol.moments_full[:, 0] - marg)) < 1e-12


def test_setup_free_limit_matches_erlang():
    p = QueueParams(lam=2.5, mu=1.0, alpha=1e6, c=5)
    d = gf_solution(p).distribution()
    got = job_marginal(d, 200)
    want = mmc.distribution(p, 200)
    assert 0.5 * np.abs(got - want).sum() < 1e-4


def test_adaptive_precision_reports_certificate():
    # one float64 pass, certified by its two flow-balance gaps
    p = QueueParams(lam=18.0, mu=1.0, alpha=0.01, c=20)
    sol = gf_solution(p)
    assert sol.info["precision_digits"] is None
    assert sol.info["job_flow_gap"] <= 1e-12
    assert sol.info["seam_cut_gap"] <= 1e-12
    assert sol.distribution().total_mass() == pytest.approx(1.0, abs=1e-10)


def test_broken_pass_fails_its_balance_gaps(monkeypatch):
    # outer roots off by 1e-9 relative break the balance the pass certifies
    roots = gf._roots

    def skewed(params, one):
        z, zhat, zhat_gap, z_gap = roots(params, one)
        skew = zhat * (1e-9 * one)
        return z, zhat + skew, zhat_gap + skew, z_gap

    monkeypatch.setattr(gf, "_roots", skewed)
    with pytest.raises(InternalInconsistencyError):
        gf.solve(QueueParams(lam=8.0, mu=1.0, alpha=0.5, c=10))


@pytest.mark.parametrize("dps", [0, -3, 2.5, True])
def test_solve_refuses_a_dps_that_is_not_a_positive_int(monkeypatch, dps):
    # such a dps once ran a pass at that precision and raised
    # InternalInconsistency, which stands for a bug rather than bad input
    def no_pass(*args):
        raise AssertionError("a pass ran before dps was checked")

    monkeypatch.setattr(gf, "_solve", no_pass)
    with pytest.raises(InvalidConfigError, match=f"dps must be a positive int, got {dps!r}"):
        gf.solve(P112, dps=dps)


def test_float64_and_pinned_precision_passes_agree():
    # the one pipeline run in float64 and in mpmath at a pinned 40 digits
    # must give the same closed form
    p = QueueParams(lam=10.0, mu=1.0, alpha=50.0, c=20)
    fast, slow = gf.solve(p), gf.solve(p, dps=40)
    assert fast.info["precision_digits"] is None
    assert slow.info["precision_digits"] == 40
    for name in ("boundary", "moments_full"):
        np.testing.assert_allclose(
            getattr(fast, name),
            getattr(slow, name).astype(float),
            rtol=1e-12,
            atol=0.0,
            err_msg=name,
        )
    tail, ref = slow.distribution().tail, fast.distribution().tail
    for m in range(131):
        np.testing.assert_allclose(tail.level(m), ref.level(m), rtol=1e-12, atol=0.0)


def _count_moment_calls(monkeypatch) -> list:
    calls = []
    head, tail = gf._head_moments, PoleTail.factorial_moments
    monkeypatch.setattr(gf, "_head_moments", lambda *a: calls.append("head") or head(*a))
    monkeypatch.setattr(
        PoleTail, "factorial_moments", lambda *a: calls.append("tail") or tail(*a)
    )
    return calls


def test_solve_and_its_measures_form_no_moments(monkeypatch):
    # the certificates need only the row masses; no consumer of the
    # distribution reads the factorial moments
    calls = _count_moment_calls(monkeypatch)
    p = QueueParams(lam=10.0, mu=1.0, alpha=0.7, c=20)
    dist = gf.solve(p).distribution()
    measures.full_report(dist, p)
    measures.decomposition(dist, p)
    assert calls == []


@pytest.mark.parametrize(
    "read", [lambda s: s.moments_full, gf_mean_jobs], ids=["direct", "mean_jobs"]
)
def test_moments_are_formed_once_on_first_read(monkeypatch, read):
    calls = _count_moment_calls(monkeypatch)
    sol = gf.solve(QueueParams(lam=2.0, mu=1.0, alpha=0.7, c=4))
    assert calls == []
    read(sol)
    assert calls == ["head", "tail"]
    first = sol.moments_full
    read(sol)
    assert calls == ["head", "tail"]
    assert sol.moments_full is first


@pytest.mark.parametrize(
    "rho, alpha, c",
    [(0.5, 0.7, 20), (0.8, 0.1, 20), (0.5, 0.5, 10), (0.3, 1e-8, 60), (0.5, 0.7, 1)],
    ids=["moderate", "below", "confluent", "slow", "c1"],
)
def test_lazy_moments_equal_the_eager_expression(rho, alpha, c):
    p = QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)
    sol = gf.solve(p)
    t = sol.tail
    eager = gf._head_moments(sol.boundary, gf.N_MOMENTS) + PoleTail(
        t.coeffs, t.nodes, t.gaps
    ).factorial_moments(gf.N_MOMENTS)
    assert np.array_equal(sol.moments_full, eager)


def test_moments_read_late_keep_the_pass_precision():
    # read after solve has left its 40-digit context, the moments are still
    # formed at 40 digits, not at mpmath's default 15
    import mpmath as mp

    p = QueueParams(lam=5.0, mu=1.0, alpha=0.7, c=10)
    got = gf.solve(p, dps=40).moments_full
    with mp.workdps(60):
        want = gf.solve(p, dps=60).moments_full
        worst = max(abs(a - b) / abs(b) for a, b in zip(got.ravel(), want.ravel()) if b)
        assert all(a == 0 for a, b in zip(got.ravel(), want.ravel()) if not b)
    assert worst < 1e-35


@pytest.mark.parametrize(
    "p",
    [
        QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2),
        QueueParams(lam=2.0, mu=1.0, alpha=0.7, c=4),
        QueueParams(lam=1.0, mu=1.0, alpha=0.5, c=2),  # confluent
        QueueParams(lam=2.0, mu=1.0, alpha=0.2, c=4),  # below the line
    ],
    ids=["c2", "c4", "confluent", "below"],
)
def test_boundary_column_c_is_first_tail_level(p):
    sol = gf.solve(p)
    np.testing.assert_allclose(
        sol.boundary[:, p.c], sol.distribution().tail.level(0), rtol=1e-14, atol=0.0
    )


@pytest.mark.parametrize(
    "rho, alpha, c, tol",
    [
        (0.5, 0.7, 100, 1e-13),
        (0.5, 0.7, 200, 1e-13),
        (0.5, 0.7, 400, 1e-13),
        (0.5, 0.5, 20, 1e-13),  # confluent
        (0.3, 1e-3, 300, 1e-13),
        (0.95, 1e-3, 100, 1e-13),  # slow setup
        (0.95, 1e-3, 398, 1e-13),
        (0.5, 1e-5, 40, 1e-13),
        (0.3, 1e-8, 60, 1e-13),
        (0.999, 1e-8, 100, 1e-13),
        (0.999, 1e-8, 5, 1e-13),
    ],
)
def test_agrees_with_qbd_per_state(rho, alpha, c, tol):
    # every state of levels 0..c+60, the tail sums and row tails, relative
    p = QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)
    dg, dq = gf.solve(p).distribution(), qbd_solution(p).distribution()
    pairs = [(dg.level(j), dq.level(j)) for j in range(c + 61)]
    pairs += [(dg.tail.sum0(), dq.tail.sum0()), (dg.tail.sum1(), dq.tail.sum1())]
    for m in (0, 10):
        pairs.append(
            tuple(d.tail.rows(range(c + 1), m + 1)[1][m] for d in (dg, dq))
        )
    worst = 0.0
    for a, b in pairs:
        scale = np.maximum(a, b)
        keep = scale > 1e-290  # below this both solvers underflow
        worst = max(worst, float(np.max(np.abs(a - b)[keep] / scale[keep], initial=0.0)))
    assert worst <= tol


@pytest.mark.parametrize(
    "rho, alpha, c",
    [
        (0.95, 1e-3, 100),
        (0.5, 1e-5, 40),
        (0.95, 1e-4, 60),
        (0.3, 1e-8, 60),
        (0.999, 1e-8, 100),
        (0.999, 1e-8, 5),
    ],
)
def test_tail_sums_match_30_digits(rho, alpha, c):
    # slow setup: both routes' sum0 and sum1 against a 30-digit gf solve
    # (its tail coefficients are rounded once, then summed in nonnegative
    # terms).  Taking the diagonal of I - R as 1 - 1/zhat_i, a subtraction
    # next to 1, costs qbd's sums 2.4e-13 .. 1.3e-11 here
    p = QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)
    ref = gf.solve(p, dps=30).distribution().tail
    for d in (gf.solve(p).distribution(), qbd_solution(p).distribution()):
        for got, want in ((d.tail.sum0(), ref.sum0()), (d.tail.sum1(), ref.sum1())):
            keep = want > 1e-290
            gap = np.abs(got - want)[keep] / want[keep]
            assert np.max(gap) <= 1e-13, d.source


def test_default_path_loads_no_mpmath():
    # a fresh interpreter: gf.solve, the measures, a gf crossover and the
    # CLI's solve and crossover run in float64 only, and load no scipy either
    # (only qbd and ctmc import scipy.linalg, when they run)
    run_fresh(
        "-c",
        "import sys\n"
        "import mmcsetup, mmcsetup.cli\n"
        "from mmcsetup import cli, gf, measures, sweeps\n"
        "from mmcsetup.model import QueueParams\n"
        "p = QueueParams(lam=8.0, mu=1.0, alpha=0.5, c=10)\n"
        "d = gf.solve(p).distribution()\n"
        "measures.full_report(d, p)\n"
        "measures.decomposition(d, p)\n"
        "sweeps.crossover_finder(p)\n"
        "cli.main(['solve', '--lambda', '8', '--mu', '1', '--alpha', '0.5', '--c', '10'])\n"
        "cli.main(['crossover', '--rho', '0.5', '--c', '4'])\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )


def test_simulator_path_loads_no_scipy():
    # a fresh interpreter: the simulator's t quantile and mmc.distribution
    # use math alone, so simulating and validating against gf need numpy only
    run_fresh(
        "-c",
        "import sys\n"
        "from mmcsetup import cli, gf, measures, mmc, sim\n"
        "from mmcsetup.model import QueueParams\n"
        "p = QueueParams(lam=8.0, mu=1.0, alpha=0.5, c=10)\n"
        "est = sim.simulate(sim.SimConfig(p, n_events=20_000))\n"
        "sim.validate_against(measures.full_report(gf.solve(p).distribution(), p), est)\n"
        "mmc.distribution(p, 30)\n"
        "flags = ['--lambda', '8', '--mu', '1', '--alpha', '0.5', '--c', '10', '--events', '20000']\n"
        "cli.main(['simulate', *flags])\n"
        "cli.main(['validate', '--method', 'gf', *flags])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )


def test_deferred_scipy_imports_resolve():
    # a fresh interpreter, so each route has to import its scipy parts itself;
    # none of them needs scipy.sparse (ctmc writes its band from a transition
    # list) or scipy.special
    run_fresh(
        "-c",
        "import sys\n"
        "from mmcsetup import ctmc, mmc, qbd, sim\n"
        "from mmcsetup.model import QueueParams\n"
        "p = QueueParams(lam=8.0, mu=1.0, alpha=0.5, c=10)\n"
        "sol = qbd.solve(p)\n"
        "sol.distribution().tail.sum0()\n"
        "qbd.residuals(sol)\n"
        "ctmc.solve_adaptive(p)\n"
        "sim.simulate(sim.SimConfig(p, n_events=20_000))\n"
        "mmc.distribution(p, 30)\n"
        "loaded = [m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.special'))]\n"
        "assert not loaded, loaded\n"
    )


def test_import_loads_every_submodule():
    # perfbench/tracing.py's instrument() runs `import mmcsetup` and then reads
    # sys.modules["mmcsetup.<name>"] for each traced module, so the package
    # must keep importing its submodules eagerly (no PEP 562 lazy attributes)
    run_fresh(
        "-c",
        "import sys\n"
        "import mmcsetup\n"
        "names = ('ctmc', 'gf', 'measures', 'mmc', 'qbd', 'sim', 'sweeps', 'distribution')\n"
        "missing = [n for n in names if f'mmcsetup.{n}' not in sys.modules]\n"
        "assert not missing, missing\n"
    )
