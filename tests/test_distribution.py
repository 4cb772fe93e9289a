import numpy as np
import pytest

from conftest import gf_solution, oracle_distribution, qbd_solution
from mmcsetup import qbd
from mmcsetup.distribution import GeometricTail
from mmcsetup.model import QueueParams

POINTS = [
    QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2),
    QueueParams(lam=2.1, mu=1.0, alpha=0.4, c=3),
]


def _dists(p):
    return [
        gf_solution(p).distribution(),
        qbd_solution(p).distribution(),
        oracle_distribution(p),
    ]


@pytest.mark.parametrize("p", POINTS)
def test_tail_sum0_is_level_sum(p):
    for d in _dists(p):
        t = d.tail
        direct = sum(t.level(m) for m in range(3000))
        assert np.max(np.abs(t.sum0() - direct)) < 1e-12


@pytest.mark.parametrize("p", POINTS)
def test_tail_sum1_is_weighted_level_sum(p):
    for d in _dists(p):
        t = d.tail
        direct = sum(m * t.level(m) for m in range(3000))
        assert np.max(np.abs(t.sum1() - direct)) < 1e-11


@pytest.mark.parametrize("p", POINTS)
def test_row_tail_consistency(p):
    for d in _dists(p):
        t = d.tail
        for i in (0, p.c):
            for m0 in (0, 5):
                direct = sum(float(t.level(m)[i]) for m in range(m0, 3000))
                assert t.row_tail(i, m0) == pytest.approx(direct, abs=1e-13)


@pytest.mark.parametrize("p", POINTS)
def test_total_mass_and_marginals(p):
    for d in _dists(p):
        assert d.total_mass() == pytest.approx(1.0, abs=1e-11)
        pm = d.phase_marginals()
        assert pm.shape == (p.c + 1,)
        assert pm.sum() == pytest.approx(1.0, abs=1e-11)
        jm = d.job_marginal(400)
        assert jm.sum() == pytest.approx(1.0, abs=1e-9)


def test_level_and_prob_agree():
    p = POINTS[0]
    for d in _dists(p):
        for j in range(0, 10):
            lvl = d.level(j)
            assert lvl.shape == (min(j, p.c) + 1,)
            for i in range(len(lvl)):
                assert lvl[i] == d.prob(i, j)


def test_prob_of_impossible_states_is_zero():
    d = gf_solution(POINTS[0]).distribution()
    assert d.prob(2, 1) == 0.0  # j < i
    assert d.prob(3, 5) == 0.0  # i > c
    assert d.prob(-1, 0) == 0.0


def test_mean_jobs_cross_method():
    p = POINTS[1]
    vals = [d.mean_jobs() for d in _dists(p)]
    assert max(vals) - min(vals) < 1e-9


def test_to_dict_roundtrip_fields():
    d = qbd_solution(POINTS[0]).distribution()
    out = d.to_dict(n_tail_levels=4)
    assert out["source"] == "qbd"
    assert len(out["levels"]) == 2 + 4 + 1
    assert out["params"]["c"] == 2
    assert out["total_mass"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "rho, alpha, c",
    [(0.5, 0.3, 5), (0.5, 0.7, 100), (0.5, 0.7, 400), (0.3, 1e-3, 130), (0.95, 1e3, 150)],
    ids=["c5", "c100", "c400", "slow", "fast"],
)
def test_geometric_tail_inverse_is_nonnegative(rho, alpha, c):
    # (I - R)^{-1} by a triangular inverse against the general LU inverse
    R = qbd.rate_matrix(QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c))
    N = GeometricTail(np.ones(c + 1), R)._N
    ref = np.linalg.inv(np.eye(c + 1) - R)
    assert np.all(N >= 0.0)
    assert np.all(np.abs(N - ref) <= 1e-14 * np.abs(ref))
