import math

import numpy as np
import pytest

from conftest import gf_solution, oracle_distribution, qbd_solution
from mmcsetup import qbd
from mmcsetup.errors import InternalInconsistencyError
from mmcsetup.gf import quadratic_roots
from mmcsetup.model import QueueParams, State, iter_states, transition_rates

P112 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)


def test_block_shapes_and_values():
    blocks = qbd.build_blocks(P112)
    assert np.array_equal(blocks.qm1, np.diag([0.0, 1.0, 2.0]))
    assert np.array_equal(blocks.q1, np.eye(3))
    # q_j = lambda + (c-j) alpha + j mu on the homogeneous diagonal
    assert blocks.q0[0, 0] == -3.0
    assert blocks.q0[2, 2] == -3.0
    assert blocks.q0[0, 1] == 2.0  # (c - i) alpha setups upward


def test_assembled_generator_row_sums():
    gen = qbd.build_blocks(P112).assemble(30)
    assert np.max(np.abs(gen.sum(axis=1))) < 1e-12


def test_assembled_generator_matches_transition_rates():
    # the block assembly and the state-space enumeration must be the same chain
    p = QueueParams(lam=0.8, mu=1.1, alpha=0.6, c=3)
    j_max = 12
    gen = qbd.build_blocks(p).assemble(j_max)
    states = list(iter_states(p, j_max))
    index = {s: k for k, s in enumerate(states)}
    ref = np.zeros_like(gen)
    for s, k in index.items():
        for target, rate in transition_rates(s, p):
            if target.j > j_max:
                continue
            ref[k, index[target]] += rate
            ref[k, k] -= rate
    assert np.max(np.abs(gen - ref)) < 1e-14


def test_rate_matrix_diagonal_examples():
    r = qbd.rate_matrix(P112)
    assert r[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)  # lambda/(lambda+c alpha)
    assert r[2, 2] == pytest.approx(0.5, abs=1e-14)  # lambda/(c mu)
    assert r[1, 1] == pytest.approx(2.0 / (3.0 + math.sqrt(5.0)), abs=1e-14)


def test_rate_matrix_reciprocal_roots():
    p = QueueParams(lam=3.0, mu=1.0, alpha=0.4, c=6)
    r = qbd.rate_matrix(p)
    zh = quadratic_roots(p).zhat
    assert np.max(np.abs(np.diag(r) * zh - 1.0)) < 1e-12


def test_rate_matrix_nonnegative_triangular():
    p = QueueParams(lam=3.0, mu=1.0, alpha=0.4, c=6)
    r = qbd.rate_matrix(p)
    assert np.all(r >= 0)
    assert np.max(np.abs(np.tril(r, -1))) == 0.0


def test_quadratic_residual_R():
    p = QueueParams(lam=3.0, mu=1.0, alpha=0.4, c=6)
    blocks = qbd.build_blocks(p)
    r = qbd.rate_matrix(p)
    res = blocks.q1 + r @ blocks.q0 + r @ r @ blocks.qm1
    assert np.max(np.abs(res)) < 1e-12


def test_g_matrix_values():
    g = qbd.g_matrix(P112)
    assert g[0, 0] == 0.0
    assert g[1, 1] == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-14)
    # only the row-stochastic root of (g-1)(lambda g - c mu) = 0 closes the
    # chain: the bottom-right passage probability is 1
    assert g[2, 2] == 1.0


def test_g_matrix_row_stochastic():
    for p in (P112, QueueParams(lam=4.9, mu=1.0, alpha=0.07, c=7)):
        g = qbd.g_matrix(p)
        assert np.max(np.abs(g.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(g >= 0)


def test_quadratic_residual_G():
    p = QueueParams(lam=4.9, mu=1.0, alpha=0.07, c=7)
    blocks = qbd.build_blocks(p)
    g = qbd.g_matrix(p)
    res = blocks.qm1 + blocks.q0 @ g + blocks.q1 @ g @ g
    assert np.max(np.abs(res)) < 1e-12


def test_r_from_g_identity():
    p = QueueParams(lam=4.9, mu=1.0, alpha=0.07, c=7)
    blocks = qbd.build_blocks(p)
    r1 = qbd.rate_matrix(p)
    r2 = qbd.rate_matrix_from_g(blocks, qbd.g_matrix(p))
    assert np.max(np.abs(r1 - r2)) < 1e-12


P3 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=3)
# where a subtractive boundary sweep breaks down: negative R^(i) entries,
# G-level rows off by 1
P100 = QueueParams(lam=50.0, mu=1.0, alpha=0.7, c=100)


@pytest.mark.parametrize("p", [P3, P100], ids=["c3", "c100"])
def test_level_rate_matrices_structure(p):
    sol = qbd_solution(p)
    for i in range(1, p.c + 1):
        ri = sol.rlevels[i]
        assert ri.shape == (i, i + 1)
        assert np.all(ri >= 0)
        # upper-trapezoidal: phase can only grow moving up a level
        for a in range(i):
            for b in range(a):
                assert ri[a, b] == 0.0


@pytest.mark.parametrize("p, row_tol", [(P3, 1e-10), (P100, 1e-12)], ids=["c3", "c100"])
def test_level_g_matrices(p, row_tol):
    sol = qbd_solution(p)
    for n in range(1, p.c + 1):
        gn = sol.glevels[n]
        assert gn.shape == (n + 1, n)
        assert np.max(np.abs(gn.sum(axis=1) - 1.0)) < row_tol
    # from level 1 the chain reaches level 0 with certainty
    assert np.max(np.abs(sol.glevels[1] - 1.0)) < 1e-12


def test_stationary_matches_oracle():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=3)
    d = qbd_solution(p).distribution()
    o = oracle_distribution(p)
    worst = max(
        abs(d.prob(i, j) - o.prob(i, j))
        for j in range(0, 50)
        for i in range(min(j, 3) + 1)
    )
    assert worst < 1e-10


def test_stationary_matches_gf():
    d = qbd_solution(P112).distribution()
    g = gf_solution(P112).distribution()
    worst = max(
        abs(d.prob(i, j) - g.prob(i, j))
        for j in range(0, 61)
        for i in range(min(j, 2) + 1)
    )
    assert worst < 1e-10
    assert d.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_tail_powers_match_pole_form():
    # pi_c R^k against the partial-fraction tail for k = 1..50
    dq = qbd_solution(P112).distribution()
    dg = gf_solution(P112).distribution()
    for k in range(1, 51):
        assert np.max(np.abs(dq.tail.level(k) - dg.tail.level(k))) < 1e-10


@pytest.mark.parametrize(
    "p", [QueueParams(lam=2.5, mu=1.0, alpha=0.3, c=5), P100], ids=["c5", "c100"]
)
def test_residual_report(p):
    sol = qbd_solution(p)
    res = qbd.residuals(sol)
    assert res["quad_R"] < 1e-12
    assert res["quad_G"] < 1e-12
    assert res["g_rows"] < 1e-10
    assert res["g_diag"] < 1e-12
    assert res["r_diag"] < 1e-12
    assert res["r_from_g"] < 1e-12
    assert res["level_R"] < 1e-12


@pytest.mark.parametrize("c", [3, 8])
def test_level_g_matrices_match_dense_solve(c):
    # G^(n) is read off R^(n); the reference solves
    # (-Q0^(n) - lam*G^(n+1)[:n+1]) X = Qm1^(n) densely, level by level
    p = QueueParams(lam=0.6 * c, mu=1.0, alpha=0.4, c=c)
    sol = qbd_solution(p)
    blocks = qbd.build_blocks(p)
    g_next = sol.G
    for n in range(c, 0, -1):
        m = -blocks.level_q0(n) - p.lam * g_next[: n + 1, :]
        ref = np.linalg.solve(m, blocks.level_qm1(n))
        assert np.max(np.abs(sol.glevels[n] - ref)) <= 1e-12
        g_next = ref


def test_times_qm1_matches_block_product():
    p = QueueParams(lam=1.5, mu=0.7, alpha=0.4, c=4)
    blocks = qbd.build_blocks(p)
    rng = np.random.default_rng(7)
    for n in range(1, p.c + 2):
        qm1 = blocks.level_qm1(n)
        r = rng.random((3, qm1.shape[0]))
        assert np.allclose(blocks.times_qm1(r, n), r @ qm1, rtol=1e-15, atol=0.0)


def test_solve_works_at_confluent_point():
    # repeated outer roots break the closed form but not the recursions
    p = QueueParams(lam=1.0, mu=1.0, alpha=0.5, c=2)
    d = qbd_solution(p).distribution()
    o = oracle_distribution(p)
    worst = max(
        abs(d.prob(i, j) - o.prob(i, j))
        for j in range(0, 40)
        for i in range(min(j, 2) + 1)
    )
    assert worst < 1e-10


def test_boundary_gap_is_checked(monkeypatch):
    # a boundary sweep that breaks the level-0 balance must raise
    sweep = qbd.level_rate_matrices

    def broken(blocks, r_hom):
        out = sweep(blocks, r_hom)
        out[1][0, 1] = np.nan
        return out

    monkeypatch.setattr(qbd, "level_rate_matrices", broken)
    with pytest.raises(InternalInconsistencyError):
        qbd.solve(P112)


def test_boundary_residual_is_relative_gap():
    # the residual report and solve's check share one definition of the
    # level-0 balance gap, |mu*R^(1)[0,1] - lam| / lam
    p = QueueParams(lam=8.0, mu=1.0, alpha=0.5, c=10)
    sol = qbd.solve(p)
    assert 0.0 <= sol.info["boundary_certificate"] <= 1e-12
    sol.rlevels[1][0, 1] *= 1.0 + 1e-9
    assert qbd.residuals(sol)["boundary"] == pytest.approx(1e-9, rel=1e-6)
