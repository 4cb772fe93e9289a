import dataclasses
import math
import pickle
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from conftest import gf_solution, iter_states, oracle_distribution, qbd_solution
from mmcsetup import gf, qbd
from mmcsetup.errors import InternalInconsistencyError
from mmcsetup.gf import quadratic_roots
from mmcsetup.model import QueueParams, State, transition_rates

P112 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)


def rq(rho, alpha, c):
    return QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)


# Dense generator blocks, the reference the solver's block-free products are
# checked against; the within-level block Q0^(n) is the solver's own.


def level_q1(p, n):
    """Arrival block from level n to n+1: [lam*I | 0] while n < c."""
    rows, cols = min(n, p.c) + 1, min(n + 1, p.c) + 1
    out = np.zeros((rows, cols))
    out[:, :rows] = p.lam * np.eye(rows)
    return out


def level_qm1(p, n):
    """Service block from level n to n-1, rectangular while n <= c."""
    if n > p.c:
        return np.diag(np.arange(p.c + 1) * p.mu)
    out = np.zeros((n + 1, n))
    idx = np.arange(1, n)
    out[idx, idx] = idx * p.mu
    # a departure from the all-busy corner (i = j = n) shuts one server
    out[n, n - 1] = n * p.mu
    return out


def homogeneous(p):
    """(Q1, Q0, Qm1), the (c+1)-square blocks from level c on."""
    return level_q1(p, p.c), qbd.level_q0(p, p.c), level_qm1(p, p.c + 1)


def assemble(p, j_max):
    """Dense generator for levels 0..j_max with arrivals cut at the top."""
    sizes = [min(j, p.c) + 1 for j in range(j_max + 1)]
    offs = np.concatenate(([0], np.cumsum(sizes)))
    q = np.zeros((offs[-1], offs[-1]))
    for j in range(j_max + 1):
        a, b = offs[j], offs[j + 1]
        q[a:b, a:b] += qbd.level_q0(p, j)
        if j < j_max:
            q[a:b, b : offs[j + 2]] += level_q1(p, j)
        else:
            q[a:b, a:b] += p.lam * np.eye(sizes[j])
        if j >= 1:
            q[a:b, offs[j - 1] : a] += level_qm1(p, j)
    return q


def test_block_shapes_and_values():
    q1, q0, qm1 = homogeneous(P112)
    assert np.array_equal(qm1, np.diag([0.0, 1.0, 2.0]))
    assert np.array_equal(q1, np.eye(3))
    # q_j = lambda + (c-j) alpha + j mu on the homogeneous diagonal
    assert q0[0, 0] == -3.0
    assert q0[2, 2] == -3.0
    assert q0[0, 1] == 2.0  # (c - i) alpha setups upward


def test_assembled_generator_row_sums():
    gen = assemble(P112, 30)
    assert np.max(np.abs(gen.sum(axis=1))) < 1e-12


def test_assembled_generator_matches_transition_rates():
    # the block assembly and the state-space enumeration must be the same chain
    p = QueueParams(lam=0.8, mu=1.1, alpha=0.6, c=3)
    j_max = 12
    gen = assemble(p, j_max)
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


def reference_roots(p):
    """(z, zhat) of every f_i by the plain quadratic formula in mpmath, at
    the caller's working precision: the subtractions in it cost at most
    about 16 of 40 digits at the points tested."""
    lam, mu, alpha, c = (mpmath.mpf(v) for v in (p.lam, p.mu, p.alpha, p.c))
    z, zhat = [], []
    for i in range(p.c + 1):
        s = lam + i * mu + (c - i) * alpha
        sq = mpmath.sqrt(s * s - 4 * lam * i * mu)
        z.append((s - sq) / (2 * lam))
        zhat.append((s + sq) / (2 * lam))
    return z, zhat


def exact_mpf(v):
    """The long double or float v as an mpmath number, exactly."""
    num, den = v.as_integer_ratio()
    return mpmath.mpf(num) / den


@pytest.mark.parametrize(
    "rho, alpha, c",
    [
        (0.95, 1e-4, 40),
        (0.3, 1e-8, 60),
        (0.999, 1e-8, 100),
        (0.01, 1e-8, 400),
        (0.5, 0.5, 50),  # confluent
        (0.001, 1e5, 400),
    ],
)
def test_root_gaps_match_40_digits(rho, alpha, c):
    # z, zhat and both long-double gaps to 1, per phase, relative; exact
    # zeros (z_0 and 1 - z_c) must come out exactly zero
    p = rq(rho, alpha, c)
    roots = quadratic_roots(p)
    with mpmath.workdps(40):
        z, zhat = reference_roots(p)
        want = {
            "z": z,
            "zhat": zhat,
            "zhat_gap": [v - 1 for v in zhat],
            "z_gap": [1 - v for v in z],
        }
        for name, ref in want.items():
            got = getattr(roots, name)
            for i in range(c + 1):
                err = abs(exact_mpf(got[i]) - ref[i])
                assert err <= 1e-15 * abs(ref[i]), (name, i)


def reference_rate_matrix(p, dps=40):
    """R by the same column recursion in mpmath at dps digits, on the roots
    of `reference_roots`: column k above the diagonal solves, from the
    bottom up,
    r_ik (lam + k mu + (c-k) alpha - k mu (r_ii + r_kk))
        = (c-k+1) alpha r_i,k-1 + k mu sum_{i<j<k} r_ij r_jk,
    with the pivot formed by subtraction (40 digits leave ample room)."""
    with mpmath.workdps(dps):
        one = mpmath.mpf(1)
        _, zhat = reference_roots(p)
        lam, mu, alpha, c = one * p.lam, one * p.mu, one * p.alpha, p.c
        r = [[0 * one] * (c + 1) for _ in range(c + 1)]
        for k in range(c + 1):
            r[k][k] = 1 / zhat[k]
        for k in range(1, c + 1):
            q = lam + k * mu + (c - k) * alpha
            for i in range(k - 1, -1, -1):
                rhs = (c - k + 1) * alpha * r[i][k - 1]
                rhs += k * mu * mpmath.fsum(r[i][j] * r[j][k] for j in range(i + 1, k))
                r[i][k] = rhs / (q - k * mu * (r[i][i] + r[k][k]))
        return r


@pytest.mark.parametrize(
    "p",
    # the first two read 1.1e-12 / 3.2e-13 while the root gaps zhat - 1 and
    # 1 - z were taken by subtraction from long-double roots: each of the c
    # back substitutions added its pivot's error; now 1.5e-15 / 1.2e-15.
    # The fast-setup point at c = 150 reads 2.9e-15, and 1.5e-14 without the
    # split of rate_matrix's longer columns; the moderate one 1.5e-15
    [
        rq(0.95, 1e-4, 40),
        rq(0.5, 1e-5, 40),
        rq(0.5, 0.7, 60),
        rq(0.3, 1e3, 40),
        rq(0.3, 1e3, 150),
        rq(0.5, 0.7, 150),
    ],
    ids=["rho0.95", "rho0.5", "c60", "fast", "fast_c150", "c150"],
)
def test_rate_matrix_matches_40_digits_at_slow_setup(p):
    # entry by entry, relative; the strict lower triangle is exactly zero
    got, ref = qbd.rate_matrix(p), reference_rate_matrix(p)
    worst = 0.0
    for i in range(p.c + 1):
        assert not np.any(got[i, :i]), i
        for k in range(i, p.c + 1):
            worst = max(worst, float(abs(got[i, k] - ref[i][k]) / ref[i][k]))
    assert worst <= 1e-14


# samples of a 40-digit R at c = 400, rounded to float64, written by
# make_rate_matrix_reference.py (about half a minute per point in mpmath)
R_C400 = Path(__file__).parent / "data" / "rate_matrix_c400.npz"


@pytest.mark.parametrize(
    "n",
    # worst relative gaps when stored: 6.2e-15, 6.2e-15, 4.9e-15, 4.9e-15
    range(4),
    ids=["moderate", "fast", "slow_rho0.95", "slow_rho0.3"],
)
def test_rate_matrix_matches_stored_40_digits_at_c400(n):
    # every stored entry, relative; the strict lower triangle is exactly zero
    with np.load(R_C400) as ref:
        rho, alpha, c = ref["points"][n].tolist()
        i, k, want = ref[f"i{n}"], ref[f"k{n}"], ref[f"r{n}"]
    got = qbd.rate_matrix(rq(rho, alpha, int(c)))
    assert not np.any(np.tril(got, -1))
    assert float(np.max(np.abs(got[i, k] - want) / want)) <= 1e-14


def test_quadratic_residual_R():
    p = QueueParams(lam=3.0, mu=1.0, alpha=0.4, c=6)
    q1, q0, qm1 = homogeneous(p)
    r = qbd.rate_matrix(p)
    res = q1 + r @ q0 + r @ r @ qm1
    assert np.max(np.abs(res)) < 1e-12


def test_g_matrix_values():
    g = qbd.g_matrix(P112, qbd.rate_matrix(P112))
    assert g[0, 0] == 0.0
    assert g[1, 1] == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-14)
    # only the row-stochastic root of (g-1)(lambda g - c mu) = 0 closes the
    # chain: the bottom-right passage probability is 1
    assert g[2, 2] == 1.0


def test_g_matrix_row_stochastic():
    for p in (P112, QueueParams(lam=4.9, mu=1.0, alpha=0.07, c=7)):
        g = qbd.g_matrix(p, qbd.rate_matrix(p))
        assert np.max(np.abs(g.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(g >= 0)


def test_quadratic_residual_G():
    p = QueueParams(lam=4.9, mu=1.0, alpha=0.07, c=7)
    q1, q0, qm1 = homogeneous(p)
    g = qbd.g_matrix(p, qbd.rate_matrix(p))
    res = qm1 + q0 @ g + q1 @ g @ g
    assert np.max(np.abs(res)) < 1e-12


def test_r_from_g_identity():
    p = QueueParams(lam=4.9, mu=1.0, alpha=0.07, c=7)
    r1 = qbd.rate_matrix(p)
    r2 = qbd.rate_matrix_from_g(p, qbd.g_matrix(p, r1))
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
    glevels = qbd_solution(p).glevels
    for n in range(1, p.c + 1):
        gn = glevels[n]
        assert gn.shape == (n + 1, n)
        assert np.max(np.abs(gn.sum(axis=1) - 1.0)) < row_tol
    # from level 1 the chain reaches level 0 with certainty
    assert np.max(np.abs(glevels[1] - 1.0)) < 1e-12


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


@pytest.mark.parametrize(
    "p", [rq(0.95, 1e-3, 40), rq(0.3, 1e-3, 60)], ids=["rho95", "rho30"]
)
def test_slow_setup_certificates(p):
    # R's column pivots come from root gaps, not from q_k - k*mu*(r_ii + r_kk),
    # which cancels when alpha is small; G = R*Qm1/lam inherits R's accuracy
    res = qbd.residuals(qbd_solution(p))
    assert res["level_R"] <= 1e-12
    assert res["g_rows"] <= 1e-13
    assert res["r_from_g"] <= 1e-13


@pytest.mark.parametrize("c", [3, 8])
def test_level_g_matrices_match_dense_solve(c):
    # G^(n) is read off R^(n); the reference solves
    # (-Q0^(n) - lam*G^(n+1)[:n+1]) X = Qm1^(n) densely, level by level
    p = QueueParams(lam=0.6 * c, mu=1.0, alpha=0.4, c=c)
    sol = qbd_solution(p)
    glevels = sol.glevels
    g_next = sol.G
    for n in range(c, 0, -1):
        m = -qbd.level_q0(p, n) - p.lam * g_next[: n + 1, :]
        ref = np.linalg.solve(m, level_qm1(p, n))
        assert np.max(np.abs(glevels[n] - ref)) <= 1e-12
        g_next = ref


def test_times_qm1_matches_block_product():
    p = QueueParams(lam=1.5, mu=0.7, alpha=0.4, c=4)
    rng = np.random.default_rng(7)
    for n in range(1, p.c + 2):
        qm1 = level_qm1(p, n)
        r = rng.random((3, qm1.shape[0]))
        assert np.allclose(qbd.times_qm1(p, r, n), r @ qm1, rtol=1e-15, atol=0.0)


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
    # a boundary sweep that breaks the level-0 balance must raise; solve
    # reads r_01 off the packed levels, so the defect goes into R^(1)'s
    # packed slot of r_01
    sweep = qbd.level_rate_matrices

    def broken(params, r_hom):
        out = sweep(params, r_hom)
        out._form.tri(1)[1] = np.nan
        return out

    monkeypatch.setattr(qbd, "level_rate_matrices", broken)
    with pytest.raises(InternalInconsistencyError, match="level-0 balance"):
        qbd.solve(P112)


def test_nan_in_the_sweep_is_a_singular_diagonal():
    # a nan in R reaches level c's row sums, so its diagonal is not a pivot
    p = rq(0.5, 0.7, 8)
    r_hom = qbd.rate_matrix(p)
    r_hom[2, 5] = np.nan
    with pytest.raises(InternalInconsistencyError, match="level 8"):
        qbd.level_rate_matrices(p, r_hom)


@pytest.mark.parametrize("r01", [-1.0, -2.0], ids=["zero", "positive"])
def test_zero_or_positive_pivot_is_a_singular_diagonal(r01):
    # row 0 of level c's A is R's row 0 scaled by the service rates, plus
    # c*alpha on the superdiagonal: planting r_01 = r01 * c*alpha/mu (and
    # zeros past it) makes its pivot -(0 + row sum) = 0 or +c*alpha
    p = rq(0.5, 0.7, 8)
    r_hom = qbd.rate_matrix(p)
    r_hom[0, 1:] = 0.0
    r_hom[0, 1] = r01 * (p.c * p.alpha) / p.mu
    with pytest.raises(InternalInconsistencyError, match="level 8"):
        qbd.level_rate_matrices(p, r_hom)


def test_boundary_residual_is_relative_gap():
    # the residual report and solve's check share one definition of the
    # level-0 balance gap, |mu*R^(1)[0,1] - lam| / lam
    p = QueueParams(lam=8.0, mu=1.0, alpha=0.5, c=10)
    sol = qbd.solve(p)
    assert 0.0 <= sol.info["boundary_certificate"] <= 1e-12
    sol = dataclasses.replace(sol, rlevels=list(sol.rlevels))
    sol.rlevels[1][0, 1] *= 1.0 + 1e-9
    assert qbd.residuals(sol)["boundary"] == pytest.approx(1e-9, rel=1e-6)


def reference_level_rate_matrices(p, r_hom):
    """The sweep qbd.level_rate_matrices replaced, kept as a reference: a
    fresh bracket per level with the dense Q0^(i), inverted whole by one
    LAPACK dtrtri call."""
    out = [None] * (p.c + 1)
    r_next = r_hom
    for i in range(p.c, 0, -1):
        a = qbd.times_qm1(p, r_next, i + 1)
        a += qbd.level_q0(p, i)
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -(p.mu * np.arange(i + 1) + a.sum(axis=1)))
        inv_t, info = dtrtri(a.T, lower=1, overwrite_c=1)
        assert info == 0
        r_next = out[i] = -p.lam * inv_t[:, :i].T
    return out


def sweep_and_reference(p):
    r_hom = qbd.rate_matrix(p)
    return qbd.level_rate_matrices(p, r_hom), reference_level_rate_matrices(p, r_hom)


@pytest.mark.parametrize(
    "p",
    [rq(0.5, 0.7, 65), rq(0.5, 0.7, 130), rq(0.3, 1e-3, 130), rq(0.95, 1e3, 150)],
    ids=["c65", "c130", "slow", "fast"],
)
def test_level_rate_matrices_match_reference(p):
    # 65 splits once into 32 + 33 and 130 twice, into 32 + 33 again
    new, ref = sweep_and_reference(p)
    for i in range(1, p.c + 1):
        # zeros of the reference stay exactly zero
        assert np.all(np.abs(new[i] - ref[i]) <= 1e-13 * np.abs(ref[i])), i
        assert np.all(np.tril(new[i], -1) == 0.0), i


@pytest.mark.parametrize("p", [rq(0.5, 0.7, 63), P112], ids=["c63", "P112"])
def test_level_rate_matrices_leaf_is_bit_identical(p):
    # every level has at most 64 phases: one dtrtri call, same bracket bits
    new, ref = sweep_and_reference(p)
    g_new, g_ref = qbd.g_levels(p, new), qbd.g_levels(p, ref)
    for i in range(1, p.c + 1):
        assert np.array_equal(new[i], ref[i]), i
        assert np.array_equal(g_new[i], g_ref[i]), i


def test_i_minus_r_is_inverted_once(monkeypatch):
    # the normalisation and the tail's sum0, sum1 and rows share one
    # (I - R)^{-1}: count every triangular inverse or solve of I - R
    import scipy.linalg
    import scipy.linalg.lapack

    p = rq(0.5, 0.7, 6)
    off = np.triu(qbd.rate_matrix(p), 1)
    calls = []

    def counted(orig):
        def run(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape == off.shape and any(
                np.array_equal(np.triu(m, 1), -off) for m in (a, a.T)
            ):
                calls.append(orig.__name__)
            return orig(a, *args, **kwargs)

        return run

    for mod, name in (
        (scipy.linalg, "solve_triangular"),
        (scipy.linalg.lapack, "dtrtri"),
        (scipy.linalg.lapack, "dtrtrs"),
    ):
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    dist = qbd.solve(p).distribution()
    dist.tail.sum0(), dist.tail.sum1(), dist.tail.rows([p.c - 1, p.c], 5)
    dist.mean_jobs(), dist.tail.rows([2], 4)
    assert len(calls) == 1, calls


def test_solution_pickles_with_its_lazy_levels():
    sol = qbd.solve(rq(0.5, 0.7, 6))
    back = pickle.loads(pickle.dumps(sol))
    assert len(back.rlevels) == len(back.glevels) == 7
    assert all(np.array_equal(a, b) for a, b in zip(sol.rlevels[1:], back.rlevels[1:]))
    assert all(np.array_equal(a, b) for a, b in zip(sol.glevels[1:], back.glevels[1:]))


@pytest.mark.parametrize("c", [65, 130])
def test_packed_levels_share_one_store(c):
    # R^(1)..R^(c) are slices of one array of (c+1)(c+2)(c+3)/6 - 1 floats,
    # level n taking (n+1)(n+2)/2 of them from n(n+1)(n+2)/6 - 1 on; a
    # pickled solution keeps them so
    sol = qbd.solve(rq(0.5, 0.7, c))
    back = pickle.loads(pickle.dumps(sol))
    for packed in (sol.rlevels._form, back.rlevels._form):
        store = packed.store
        assert store.shape == ((c + 1) * (c + 2) * (c + 3) // 6 - 1,)
        tris = [packed.tri(n) for n in range(1, c + 1)]
        assert all(np.shares_memory(t, store) for t in tris)
        assert not any(np.shares_memory(a, b) for a, b in zip(tris, tris[1:]))
        for n, t in enumerate(tris, 1):
            start = (t.ctypes.data - store.ctypes.data) // store.itemsize
            assert start == n * (n + 1) * (n + 2) // 6 - 1, n
            assert t.size == (n + 1) * (n + 2) // 2, n
    for n in (1, c // 2, c):
        assert np.array_equal(back.rlevels[n], sol.rlevels[n]), n


def test_solve_without_g_builds_no_g_level(monkeypatch):
    # G^(n) is derived from R^(n) when sol.glevels is read, never in solve
    calls = []
    g_levels = qbd.g_levels

    def counted(params, rlevels):
        calls.append(params.c)
        return g_levels(params, rlevels)

    monkeypatch.setattr(qbd, "g_levels", counted)
    p = rq(0.5, 0.7, 8)
    sol = qbd.solve(p, with_g=False)
    assert calls == [] and sol.G is None and sol.glevels is None
    sol = qbd.solve(p, with_g=True)
    assert calls == []
    glevels = sol.glevels
    assert calls == [p.c] and len(glevels) == p.c + 1 and glevels[0] is None


def test_boundary_levels_are_held_packed_and_streamed(monkeypatch):
    # allocation bytes under tracemalloc, no clock: the dense R^(1)..R^(c)
    # take sum i(i+1) 8 bytes (21.7 MB at c = 200); solve keeps them as
    # packed triangles, about half that, and reading every G^(n) holds one
    # level at a time.  Taking the view forms no level and no dense
    # generator block (q1, q0 and qm1 alone are 970 kB at c = 200).
    c = 200
    p = rq(0.5, 0.7, c)
    dense = sum(i * (i + 1) * 8 for i in range(1, c + 1))
    # each G^(n) is one column scaling of R^(n) by times_qm1
    calls = []
    times_qm1 = qbd.times_qm1

    def counted(params, r, n, out=None):
        calls.append(n)
        return times_qm1(params, r, n, out)

    monkeypatch.setattr(qbd, "times_qm1", counted)
    small = qbd.solve(rq(0.5, 0.7, 10))  # scipy's imports, outside the count
    list(small.glevels)
    tracemalloc.start()
    try:
        sol = qbd.solve(p)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        calls.clear()
        levels = sol.glevels[1:]
        formed_by_slice = len(calls)
        view_peak = tracemalloc.get_traced_memory()[1] - base
        rows = [float(np.abs(g.sum(axis=1) - 1.0).max()) for g in levels]
        stream_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert solve_peak <= 0.75 * dense, solve_peak / dense
    assert stream_peak <= 0.25 * dense, stream_peak / dense
    assert view_peak < 50_000, view_peak
    assert formed_by_slice == 0 and calls == list(range(1, c + 1))
    assert len(rows) == c and max(rows) <= 1e-12


@pytest.mark.parametrize("c", [65, 130])
def test_forward_pass_reads_the_packed_levels(monkeypatch, c):
    # solve forms pi_i = pi_(i-1) R^(i) from the packed triangles and reads
    # the level-0 balance check off pi_1: it unpacks (dtpttr) no level
    import scipy.linalg.lapack

    unpacked = []
    dtpttr = scipy.linalg.lapack.dtpttr

    def counted(n, *args, **kwargs):
        unpacked.append(n - 1)
        return dtpttr(n, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dtpttr", counted)
    sol = qbd.solve(rq(0.5, 0.7, c))
    assert unpacked == []
    # each level against the dense product with the level below, both
    # normalised by the same total
    for i in range(1, c + 1):
        want = sol.levels[i - 1] @ sol.rlevels[i]
        assert np.all(np.abs(sol.levels[i] - want) <= 1e-14 * want), i


def reference_forward(packed):
    """The forward pass _Packed.forward replaced, kept as a reference: a list
    of levels, each [pi_(n-1), 0] formed by np.append and multiplied by
    dtpmv on its own array."""
    from scipy.linalg.blas import dtpmv

    pi = [np.ones(1)]
    for n in range(1, packed.c + 1):
        x = np.append(pi[-1], 0.0)
        pi.append(dtpmv(n + 1, packed.tri(n), x, lower=1, overwrite_x=1))
    return pi


@pytest.mark.parametrize(
    "p",
    [rq(0.5, 0.7, 63), P112, rq(0.5, 0.7, 130), rq(0.95, 1e-4, 40)],
    ids=["c63", "P112", "c130", "slow"],
)
def test_flat_forward_matches_reference_bit_for_bit(p):
    packed = qbd.level_rate_matrices(p, qbd.rate_matrix(p))._form
    flat = packed.forward()
    ref = reference_forward(packed)
    assert flat.shape == ((p.c + 1) * (p.c + 2) // 2,)
    for n, want in enumerate(ref):
        got = flat[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2]
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("p", [P112, rq(0.5, 0.7, 20)], ids=["P112", "c20"])
def test_levels_are_views_of_one_array(p):
    # the stationary vectors are one flat array in boundary order; the
    # boundary is scattered from its head and pi_c is its tail
    sol = qbd.solve(p)
    base = sol.levels[0].base
    assert base is not None and base.shape == ((p.c + 1) * (p.c + 2) // 2,)
    assert all(v.base is base for v in sol.levels)
    assert [len(v) for v in sol.levels] == list(range(1, p.c + 2))
    assert not any(np.shares_memory(a, b) for a, b in zip(sol.levels, sol.levels[1:]))
    d = sol.distribution()
    for j in range(p.c):
        assert sol.levels[j].tobytes() == d.boundary[: j + 1, j].tobytes(), j
    assert sol.levels[p.c].tobytes() == d.tail.pi_c.tobytes()
    assert not sol.levels[0].flags.writeable


def test_roots_are_formed_once_per_solve(monkeypatch):
    # R and (I - R)^{-1} both read the root table, and so do the residuals:
    # count every table formed, as test_i_minus_r_is_inverted_once counts
    # inverses
    calls = []
    roots = gf._roots

    def counted(params, one):
        calls.append(params)
        return roots(params, one)

    monkeypatch.setattr(gf, "_roots", counted)
    gf.quadratic_roots.cache_clear()
    p, q = rq(0.5, 0.7, 6), rq(0.5, 0.8, 6)
    sol = qbd.solve(p)
    assert calls == [p]
    qbd.residuals(sol)
    assert calls == [p]
    qbd.solve(q, with_g=False)
    assert calls == [p, q]
    table = gf.quadratic_roots(q)
    assert len(calls) == 2
    # one table is handed to every caller, so none may write to it
    for a in (table.z, table.zhat, table.zhat_gap, table.z_gap):
        assert not a.flags.writeable


def exact_lower_inverse(l):
    """The lower triangle of l^{-1} in rationals, by forward substitution."""
    n = l.shape[0]
    f = [[Fraction(l[i, j]) for j in range(i + 1)] for i in range(n)]
    x = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        x[j][j] = 1 / f[j][j]
        for i in range(j + 1, n):
            x[i][j] = -sum(f[i][k] * x[k][j] for k in range(j, i)) / f[i][i]
    return x


def lower_m_matrix(rng, n):
    # the sweep's sign pattern: a negative diagonal of magnitude 1e-3..1e3
    # that dominates its row's off-diagonals, all >= 0; the strict upper
    # triangle holds values the inverse must not touch
    w = 10.0 ** rng.uniform(-3.0, 3.0, n)
    off = np.tril(rng.random((n, n)), -1) * w[:, None] / n
    x = off - np.diag(w + off.sum(axis=1)) + np.triu(rng.normal(size=(n, n)), 1)
    return np.asfortranarray(x)


@pytest.mark.parametrize("n", [1, 2, 64, 65, 70])
def test_invert_lower_matches_rationals(n):
    x = lower_m_matrix(np.random.default_rng(n), n)
    before = x.copy()
    exact = exact_lower_inverse(x)
    qbd._invert_lower(dtrtri, dtrmm, x)
    upper = np.triu_indices(n, 1)
    assert np.array_equal(x[upper], before[upper])
    for i in range(n):
        for j in range(i + 1):
            # same-signed sums: componentwise within 8 n 2^-53
            assert x[i, j] < 0.0, (i, j)
            err = abs(Fraction(x[i, j]) - exact[i][j])
            assert err <= Fraction(8 * n, 2**53) * abs(exact[i][j]), (i, j)


@pytest.mark.parametrize("n, k", [(2, 1), (70, 50)], ids=["leaf", "block"])
def test_invert_lower_zero_pivot_raises(n, k):
    x = lower_m_matrix(np.random.default_rng(3), n)
    x[k, k] = 0.0
    with pytest.raises(InternalInconsistencyError):
        qbd._invert_lower(dtrtri, dtrmm, x)


def test_invert_lower_nan_reaches_the_corner():
    # 70 splits at 35: a nan in L21 must spread through the dtrmm corner
    x = lower_m_matrix(np.random.default_rng(4), 70)
    x[60, 10] = np.nan
    qbd._invert_lower(dtrtri, dtrmm, x)
    assert np.all(np.isnan(x[60:, :11]))


def reference_residuals(sol):
    """The longdouble evaluation qbd.residuals replaced, kept as a reference:
    each bracket is rounded once in longdouble and multiplied by numpy's
    longdouble matmul."""
    p = sol.params
    L = np.longdouble
    q1, q0, qm1 = (q.astype(L) for q in homogeneous(p))
    r = sol.R.astype(L)

    def infnorm(a) -> float:
        return float(np.abs(a).sum(axis=1).max())

    out = {"quad_R": infnorm(q1 + r @ (q0 + qbd.times_qm1(p, r, p.c + 1)))}
    roots = quadratic_roots(p)
    out["r_diag"] = float(
        np.abs(np.diagonal(sol.R) * roots.zhat.astype(L) - 1.0).max()
    )
    lev = 0.0
    rnext = r
    for i in range(p.c, 0, -1):
        ri = sol.rlevels[i].astype(L)
        a = qbd.level_q0(p, i) + qbd.times_qm1(p, rnext, i + 1)
        lev = max(lev, infnorm(level_q1(p, i - 1) + ri @ a))
        rnext = ri
    out["level_R"] = lev
    out["boundary"] = float(qbd._boundary_gap(p, sol.rlevels[1][0, 1]))
    g = sol.G.astype(L)
    out["quad_G"] = infnorm(qm1 + (q0 + q1 @ g) @ g)
    out["g_rows"] = float(np.abs(g.sum(axis=1) - 1.0).max())
    out["g_diag"] = float(np.abs(np.diagonal(sol.G) - roots.z).max())
    out["r_from_g"] = float(
        np.abs(sol.R - qbd.rate_matrix_from_g(p, sol.G)).max()
    )
    out["glevel_rows"] = max(
        float(np.abs(g.astype(L).sum(axis=1) - 1.0).max()) for g in sol.glevels[1:]
    )
    return out


def roundoff_scales(sol):
    """4 k 2^-64 max_i sum_j (|X||Y|)_ij for each product X Y of a residual:
    the scale of longdouble roundoff in the reference; for glevel_rows, the
    float64 roundoff of residuals' own row sums."""
    p = sol.params
    q0 = qbd.level_q0(p, p.c)

    def scale(x, y):
        rows = (np.abs(x) @ np.abs(y)).sum(axis=1)
        return 4 * y.shape[0] * 2.0**-64 * float(rows.max())

    out = {"quad_R": scale(sol.R, q0 + qbd.times_qm1(p, sol.R, p.c + 1))}
    out["level_R"] = 0.0
    rnext = sol.R
    for i in range(p.c, 0, -1):
        a = qbd.level_q0(p, i) + qbd.times_qm1(p, rnext, i + 1)
        out["level_R"] = max(out["level_R"], scale(sol.rlevels[i], a))
        rnext = sol.rlevels[i]
    out["quad_G"] = scale(q0 + p.lam * sol.G, sol.G)
    # residuals sums a row of G^(n) as the float64 matvec R^(n) v_n / lam,
    # the reference sums the rounded G^(n) entries: rows of nonnegative
    # terms that sum to 1, so they part by about n + 4 float64 roundoffs
    out["glevel_rows"] = (p.c + 4) * 2.0**-53
    return out


@pytest.mark.parametrize(
    "p",
    [
        QueueParams(lam=2.5, mu=1.0, alpha=0.3, c=5),
        P112,
        rq(0.5, 0.7, 32),
        P100,  # rho 0.5, alpha 0.7
        rq(0.3, 1e-3, 60),  # slow setup
        rq(0.7, 0.3, 20),  # the confluent line alpha = mu (1 - rho)
        rq(0.95, 1e3, 40),
    ],
    ids=["c5", "P112", "c32", "c100", "slow", "confluent", "fast"],
)
def test_residuals_match_longdouble_reference(p):
    sol = qbd_solution(p)
    new, ref = qbd.residuals(sol), reference_residuals(sol)
    assert list(new) == list(ref)
    scales = roundoff_scales(sol)
    for key in new:
        if key in scales:
            assert abs(new[key] - ref[key]) <= scales[key], key
        else:
            assert new[key] == ref[key], key


def rational(a):
    return np.vectorize(Fraction, otypes=[object])(a)


def pair_case(rng, x, hi, c=None):
    # lo is the tail of a pair below hi's last bit; c defaults to -(x @ hi),
    # which the product cancels down to roundoff
    lo = hi * 2.0**-53 * rng.uniform(-1.0, 1.0, hi.shape)
    return (-(x @ hi) if c is None else c), x, hi, lo


def product_cases():
    rng = np.random.default_rng(8)
    yield pair_case(rng, rng.normal(size=(3, 4)), rng.normal(size=(4, 5)))
    # inner dimension 401: beta = floor((53 - 9) / 2) = 22
    yield pair_case(rng, rng.random((2, 401)), rng.normal(size=(401, 3)))
    signs = rng.choice([-1.0, 1.0], (4, 30))
    wide = signs * 10.0 ** rng.uniform(-200.0, 200.0, (4, 30))
    yield pair_case(rng, wide, 10.0 ** rng.uniform(-3.0, 3.0, (30, 3)))
    x = rng.normal(size=(3, 6))
    x[1] = 0.0
    x[0, 2] = x[2, 4] = 5e-320
    hi = rng.normal(size=(6, 4))
    hi[3, 1] = -3e-310
    yield pair_case(rng, x, hi)
    yield pair_case(rng, rng.normal(size=(3, 7)), rng.normal(size=(7, 3)), c=np.eye(3))


@pytest.mark.parametrize(
    "case",
    list(product_cases()),
    ids=["small", "k401", "wide_rows", "zero_row_subnormal", "no_cancellation"],
)
def test_exact_product_matches_rationals(case):
    c, x, hi, lo = case
    exact = rational(c) + rational(x) @ (rational(hi) + rational(lo))
    xmax = np.abs(rational(x)).max(axis=1)
    ymax = np.abs(rational(hi) + rational(lo)).max(axis=0)
    # 2^-60 k max|x_i| max|y_j|, plus the rounding of the float64 result
    bound = Fraction(x.shape[1], 2**60) * np.outer(xmax, ymax) + np.abs(exact) / 2**52
    err = np.abs(rational(qbd._exact_product(c, x, hi, lo)) - exact)
    assert np.all(err <= bound)


def test_bracket_pair_is_exact():
    # hi + lo against q0 + r @ Qm1 in rationals, for the homogeneous bracket
    # and each boundary one with its corner column
    p = QueueParams(lam=2.8, mu=1.3, alpha=0.45, c=4)
    sol = qbd.solve(p)
    rates = p.mu * np.arange(p.c + 2)
    _, q0, qm1 = homogeneous(p)
    cases = [(p.c, sol.R, qm1)] + [
        (i, sol.rlevels[i + 1], level_qm1(p, i + 1)) for i in range(1, p.c)
    ]
    for i, r, qm1 in cases:
        # the bracket takes Q0^(i)'s two diagonals; the reference, the dense block
        q0 = qbd.level_q0(p, i)
        hi, lo = qbd._bracket(qbd._q0_bands(p, i), r, rates)
        gap = rational(hi) + rational(lo) - rational(q0) - rational(r) @ rational(qm1)
        scale = np.abs(rational(q0)) + np.abs(rational(r)) @ np.abs(rational(qm1))
        assert np.all(np.abs(gap) <= scale / 2**100)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "where", ["R", "rlevel", "G", "glevel1", "glevel3", "glevel5"]
)
def test_nonfinite_input_gives_no_small_residual(where, bad):
    # callers test `not value <= tol`, so a broken matrix must read nan, inf
    # or large, never as a small finite residual
    sol = qbd.solve(QueueParams(lam=2.5, mu=1.0, alpha=0.3, c=5))
    # R^(n) is formed on access: plant the defect in a dense copy of them
    sol = dataclasses.replace(sol, rlevels=list(sol.rlevels))
    if where == "R":
        key, target = "quad_R", sol.R
    elif where == "rlevel":
        key, target = "level_R", sol.rlevels[3]
    elif where == "G":
        key, target = "quad_G", sol.G
    else:
        # G^(n) is derived from R^(n): a bad R^(1), R^(3) or R^(c) must show
        # in the G-level rows, not only the first level
        key, target = "glevel_rows", sol.rlevels[int(where[-1])]
    target[min(1, target.shape[0] - 1), min(2, target.shape[1] - 1)] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        value = qbd.residuals(sol)[key]
    assert not value <= 1e-10, value
