import numpy as np
import pytest

from conftest import gf_solution, oracle_distribution, qbd_solution
from mmcsetup import ctmc, distribution, gf, measures, qbd
from mmcsetup.distribution import PoleTail
from mmcsetup.errors import InvalidStateError
from mmcsetup.gf import quadratic_roots
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


def test_negative_level_is_an_invalid_state():
    for d in _dists(POINTS[0]):
        with pytest.raises(InvalidStateError, match="level must be >= 0"):
            d.level(-1)


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
    # (I - R)^{-1} by a triangular inverse against the general LU inverse of
    # the same matrix, whose diagonal 1 - 1/zhat_i is formed from the root
    # gaps; 1 - r_ii by subtraction is off by 6.6e-15 at the slow point
    p = QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)
    R = qbd.rate_matrix(p)
    N = qbd.tail_inverse(p, R)
    gap = quadratic_roots(p).zhat_gap
    a = np.eye(c + 1) - R
    np.fill_diagonal(a, (gap / (1 + gap)).astype(float))
    ref = np.linalg.inv(a)
    assert np.all(N >= 0.0)
    assert np.all(np.abs(N - ref) <= 1e-14 * np.abs(ref))
    # N_ii = zhat_i / (zhat_i - 1) within three roundings
    want = ((1 + gap) / gap).astype(float)
    assert np.all(np.abs(np.diagonal(N) - want) <= 2.0**-51 * want)


def _reference_walk(tail, n):
    """The per-level walk over all rows that PoleTail's row walks replace:
    levels and row-tail masses at m = 0..n-1."""
    B, Y, G = tail.coeffs, tail.nodes, tail.gaps
    levels, tails = [], []
    for _ in range(n):
        levels.append(G[:, 0] * (B[:, 0] * Y[:, 0] + B[:, 1] * G[:, 1]))
        tails.append(B[:, 0] * Y[:, 0] + B[:, 1:].sum(axis=1))
        nxt = B * Y
        nxt[:, :-1] += B[:, 1:] * G[:, 1:]
        B = nxt
    return np.array(levels), np.array(tails)


def _fresh_pole_tail(p):
    t = gf_solution(p).tail
    return PoleTail(t.coeffs, t.nodes, t.gaps)


@pytest.mark.parametrize("c, n", [(5, 300), (40, 200), (200, 400)])
def test_row_walk_matches_per_level_walk(c, n):
    # at c = 200 a block holds 163 levels of two rows, so n crosses blocks
    p = QueueParams(lam=0.8 * c, mu=1.0, alpha=0.1, c=c)
    tail = _fresh_pole_tail(p)
    want_levels, want_tails = _reference_walk(tail, n)
    for idx in ([c - 1, c], [c, 0, c // 2]):
        levels, tails = tail.rows(idx, n)
        assert levels.shape == tails.shape == (n, len(idx))
        assert np.array_equal(levels, want_levels[:, idx])
        assert np.array_equal(tails, want_tails[:, idx])


def test_all_rows_walk_serves_level_and_row_tail():
    p = QueueParams(lam=32.0, mu=1.0, alpha=0.1, c=40)
    tail = _fresh_pole_tail(p)
    n = 100  # the all-rows walk steps 38 levels per block at c = 40
    want_levels, want_tails = _reference_walk(tail, n)
    levels, tails = tail.rows(range(p.c + 1), n)
    assert np.array_equal(levels, want_levels) and np.array_equal(tails, want_tails)
    for m in (0, 37, 38, n - 1):
        assert np.array_equal(tail.level(m), want_levels[m])
        assert tail.row_tail(p.c, m) == want_tails[m, p.c]


def test_row_walk_resumes_where_it_stopped():
    p = QueueParams(lam=16.0, mu=1.0, alpha=0.1, c=20)
    tail = _fresh_pole_tail(p)
    idx = [p.c - 1, p.c]
    first = tail.rows(idx, 37)
    second = tail.rows(idx, 250)
    want_levels, want_tails = _reference_walk(tail, 250)
    assert np.array_equal(second[0], want_levels[:, idx])
    assert np.array_equal(second[1], want_tails[:, idx])
    assert np.array_equal(first[0], second[0][:37])
    assert not second[0].flags.writeable


def test_row_walk_over_mpmath_numbers():
    import mpmath as mp

    p = QueueParams(lam=4.0, mu=1.0, alpha=0.3, c=5)
    t = gf_solution(p).tail
    with mp.workdps(30):
        to_mp = np.vectorize(mp.mpf, otypes=[object])
        tail = PoleTail(to_mp(t.coeffs), to_mp(t.nodes), to_mp(t.gaps))
        want_levels, want_tails = _reference_walk(tail, 40)
        levels, tails = tail.rows([p.c - 1, p.c], 40)
        assert levels.dtype == object
        assert np.array_equal(levels, want_levels[:, [p.c - 1, p.c]])
        assert np.array_equal(tails, want_tails[:, [p.c - 1, p.c]])
        assert np.array_equal(tail.level(39), want_levels[39])


def test_decomposition_steps_only_the_two_rows_it_reads(monkeypatch):
    p = QueueParams(lam=100.0, mu=1.0, alpha=0.7, c=200)
    dist = gf.solve(p).distribution()
    stepped = []
    extend = distribution._RowWalk._extend

    def counted(walk, n):
        stepped.append(len(walk.state))
        return extend(walk, n)

    monkeypatch.setattr(distribution._RowWalk, "_extend", counted)
    measures.decomposition(dist, p)
    assert stepped and set(stepped) == {2}
    assert list(dist.tail._walks) == [(p.c - 1, p.c)]


def test_decomposition_long_support_across_routes():
    p = QueueParams(lam=10.0, mu=1.0, alpha=0.01, c=20)
    dists = (
        gf.solve(p).distribution(),
        qbd.solve(p).distribution(),
        ctmc.solve_adaptive(p),
    )
    for d in dists:
        rep = measures.decomposition(d, p)
        assert rep.support == 2048
        assert rep.tv_gap < 1e-10
        want = np.convolve(rep.dist_onidle, rep.dist_res)[: rep.support + 1]
        assert np.all(np.abs(rep.convolution - want) <= 2e-15 * want)
