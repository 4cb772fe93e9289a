import json
from dataclasses import fields

import numpy as np
import pytest

from conftest import gf_solution, oracle_distribution, qbd_solution
from mmcsetup import gf, measures, mmc
from mmcsetup.distribution import ExplicitTail, JointDistribution
from mmcsetup.errors import (
    DegenerateConditionError,
    InternalInconsistencyError,
    InvalidConfigError,
    TruncationInsufficientError,
)
from mmcsetup.model import CostParams, QueueParams

P112 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)


def test_active_servers_is_littles_law():
    # E[A] = lambda/mu regardless of the setup rate
    for p in (P112, QueueParams(lam=4.2, mu=1.4, alpha=0.05, c=6)):
        rep = measures.full_report(gf_solution(p).distribution(), p)
        assert rep.e_active == pytest.approx(p.lam / p.mu, rel=1e-10)


def test_mean_jobs_matches_oracle_sum():
    o = oracle_distribution(P112)
    direct = sum(j * o.prob(i, j) for j in range(300) for i in range(min(j, 2) + 1))
    rep = measures.full_report(gf_solution(P112).distribution(), P112)
    assert rep.e_jobs == pytest.approx(direct, abs=1e-9)


def test_switching_rate_two_sided_identity():
    # alpha E[S] vs the service-side count at (1,1,1,3): the full_report
    # call itself certifies the identity to 1e-10 and would raise otherwise
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=3)
    for d in (gf_solution(p).distribution(), qbd_solution(p).distribution()):
        rep = measures.full_report(d, p)
        assert rep.switching_rate == pytest.approx(p.alpha * rep.e_setup, rel=1e-10)


def test_switching_rate_light_traffic():
    # rho -> 0: every arrival triggers one off->on->off cycle, so the
    # switching rate approaches lambda (oracle at rho = 0.01)
    p = QueueParams(lam=0.02, mu=1.0, alpha=1.0, c=2)
    rep = measures.full_report(oracle_distribution(p), p)
    assert rep.switching_rate == pytest.approx(p.lam, rel=0.05)


def test_switching_rate_increases_with_c():
    # setup-free regime: more servers switch more often at equal rho
    rates = []
    for c in (40, 50):
        p = QueueParams(lam=0.5 * c, mu=1.0, alpha=1e6, c=c)
        rep = measures.full_report(qbd_solution(p).distribution(), p)
        rates.append(rep.switching_rate)
    assert rates[1] > rates[0]


def test_server_accounting():
    # E[A] + E[S] + E[off] = c with E[off] counted per state
    p = QueueParams(lam=2.8, mu=1.0, alpha=0.25, c=4)
    d = gf_solution(p).distribution()
    rep = measures.full_report(d, p)
    e_off = 0.0
    for j in range(2000):
        lvl = d.level(j)
        for i in range(len(lvl)):
            e_off += (4 - i - min(j - i, 4 - i)) * lvl[i]
    assert rep.e_active + rep.e_setup + e_off == pytest.approx(4.0, abs=1e-8)


def test_costs_fields():
    p = QueueParams(lam=10.0, mu=1.0, alpha=1.0, c=20)
    cp = CostParams(c_active=1.0, c_setup=1.0, c_idle=0.6, c_switch=0.0)
    rep = measures.full_report(gf_solution(p).distribution(), p, cp)
    assert rep.cost_onidle == pytest.approx(16.0, abs=1e-12)
    assert rep.cost_onoff == pytest.approx(rep.e_active + rep.e_setup, rel=1e-12)
    # zero switching price: total equals the time-average cost
    assert rep.total_cost_onoff == rep.cost_onoff


def test_costs_with_switching_price():
    p = QueueParams(lam=10.0, mu=1.0, alpha=1.0, c=20)
    cp = CostParams(c_switch=2.0)
    rep = measures.full_report(gf_solution(p).distribution(), p, cp)
    assert rep.total_cost_onoff == pytest.approx(
        rep.cost_onoff + 2.0 * rep.switching_rate, rel=1e-12
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, pytest.param(10**400, id="int-past-float")])
def test_costs_refuse_a_bad_weight(bad):
    # full_report(d, p, CostParams(c_idle=nan)) once returned cost_onidle nan,
    # and an int no float can hold was accepted, then raised OverflowError
    p = QueueParams(lam=2.0, mu=1.0, alpha=1.0, c=4)
    d = gf_solution(p).distribution()
    with pytest.raises(InvalidConfigError, match="c_idle"):
        measures.full_report(d, p, CostParams(c_idle=bad))


@pytest.mark.parametrize("measure", [measures.full_report, measures.decomposition])
@pytest.mark.parametrize("lam, c", [(6.0, 10), (5.0, 12)])
def test_measures_refuse_params_not_the_distributions(measure, lam, c):
    # with lam 6 full_report once priced cost_onidle at 8.4 (8.0 is right)
    # and decomposition read tv_gap 0.069 (1.1e-16); with c 12 it raised a
    # bare IndexError
    d = gf_solution(QueueParams(lam=5.0, mu=1.0, alpha=0.7, c=10)).distribution()
    other = QueueParams(lam=lam, mu=1.0, alpha=0.7, c=c)
    with pytest.raises(InvalidConfigError) as exc:
        measure(d, other)
    assert repr(other) in str(exc.value) and repr(d.params) in str(exc.value)


@pytest.mark.parametrize("where", ["boundary", "tail corner"])
def test_report_refuses_a_nan_in_the_switching_balance(where):
    # a nan on the mu side once passed the balance check as "not > tol"
    d = oracle_distribution(P112)
    boundary, levels = d.boundary.copy(), d.tail.levels.copy()
    if where == "boundary":
        boundary[1, 1] = np.nan  # pi_{1,1}, a diagonal state
    else:
        levels[0, P112.c] = np.nan  # pi_{c,c}
    bad = JointDistribution(P112, boundary, ExplicitTail(levels), "oracle")
    with pytest.raises(InternalInconsistencyError, match="switching balance"):
        measures.full_report(bad, P112)


def test_setup_free_limits():
    p = QueueParams(lam=2.5, mu=1.0, alpha=1e6, c=5)
    rep = measures.full_report(gf_solution(p).distribution(), p, CostParams())
    assert rep.e_active == pytest.approx(2.5, abs=1e-3)
    assert rep.e_setup < 1e-3
    assert rep.cost_onoff == pytest.approx(2.5, abs=1e-3)


def test_report_serialization():
    # every field, priced at the CostParams() defaults when none are given
    p = P112
    rep = measures.full_report(gf_solution(p).distribution(), p)
    d = rep.to_dict()
    assert list(d) == [f.name for f in fields(measures.PerformanceReport)]
    assert d["cost_onidle"] == mmc.onidle_cost(p, CostParams())
    assert d["cost_onoff"] == rep.e_active + rep.e_setup
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def test_brute_force_tail_flag_agrees():
    # the tail's closed-form sums against a plain sum over 4000 levels
    p = QueueParams(lam=1.9, mu=1.0, alpha=0.6, c=3)
    d = gf_solution(p).distribution()
    exact = measures.full_report(d, p)
    e_setup = e_jobs = 0.0
    for j in range(4000):
        vec = d.level(j)
        i = np.arange(len(vec))
        e_setup += float((np.minimum(j - i, p.c - i) * vec).sum())
        e_jobs += j * float(vec.sum())
    assert e_jobs == pytest.approx(exact.e_jobs, rel=1e-10)
    assert e_setup == pytest.approx(exact.e_setup, rel=1e-10)


def test_decomposition_small_gap():
    rep = measures.decomposition(gf_solution(P112).distribution(), P112)
    assert rep.tv_gap < 1e-10
    # the residual factor is a probability distribution
    assert rep.dist_res.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(rep.dist_res >= -1e-15)


def test_decomposition_setup_free_limit():
    # alpha huge: queue-at-c distribution collapses to plain geometric
    p = QueueParams(lam=2.5, mu=1.0, alpha=1e6, c=5)
    rep = measures.decomposition(qbd_solution(p).distribution(), p)
    geo = (1 - 0.5) * 0.5 ** np.arange(rep.support + 1)
    assert 0.5 * np.abs(rep.dist_qc - geo).sum() < 1e-3
    assert rep.dist_res[0] == pytest.approx(1.0, abs=1e-3)


def test_decomposition_rejects_vanished_phase():
    # synthetic pmf with zero mass above level c-1: conditioning breaks down
    from mmcsetup.distribution import ExplicitTail, JointDistribution

    p = QueueParams(lam=0.1, mu=1.0, alpha=1.0, c=2)
    boundary = np.zeros((3, 2))
    boundary[0, 0] = 1.0
    dist = JointDistribution(p, boundary, ExplicitTail(np.zeros((1, 3))), "test")
    with pytest.raises(DegenerateConditionError):
        measures.decomposition(dist, p)


def test_decomposition_refuses_a_support_past_its_cap_before_walking_it(monkeypatch):
    # the cap was read only after a doubling, so the a-priori support,
    # 27.6M levels here, was walked unchecked
    p = QueueParams(lam=0.999999 * 2, mu=1.0, alpha=1.0, c=2)
    dist = gf.solve(p).distribution()
    asked = []

    def rows(idx, n):
        asked.append(n)
        raise AssertionError(f"walked {n} levels")

    monkeypatch.setattr(dist.tail, "rows", rows)
    with pytest.raises(
        TruncationInsufficientError,
        match=r"rho 0\.999999 needs a support of 27631009 levels, over the cap of 10000000",
    ):
        measures.decomposition(dist, p)
    assert asked == []


def test_decomposition_across_methods():
    p = QueueParams(lam=3.5, mu=1.0, alpha=2.0, c=5)
    tv = [
        measures.decomposition(d, p).tv_gap
        for d in (gf_solution(p).distribution(), qbd_solution(p).distribution())
    ]
    assert max(tv) < 1e-10
