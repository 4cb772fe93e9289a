import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import oracle_distribution
from mmcsetup import ctmc, gf, mmc
from mmcsetup.errors import (
    InternalInconsistencyError,
    InvalidConfigError,
    TruncationInsufficientError,
)
from mmcsetup.model import QueueParams, State, iter_states, n_setup, transition_rates


def reference_generator(p: QueueParams, j_max: int) -> sp.csc_matrix:
    """Q^T assembled state by state: one transition_rates call and one
    running diagonal sum per state, states in level-major order."""
    states = sorted(iter_states(p, j_max), key=lambda s: (s.j, s.i))
    index = {s: n for n, s in enumerate(states)}
    n = len(index)
    rows, cols, vals = [], [], []
    for s, k in index.items():
        out = 0.0
        for target, rate in transition_rates(s, p):
            if target.j > j_max:
                continue  # reflecting truncation: drop arrivals at the cap
            out += rate
            rows.append(index[target])
            cols.append(k)
            vals.append(rate)
        rows.append(k)
        cols.append(k)
        vals.append(-out)
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))


# (c, rho, alpha): a fast and a slow setup, a confluent point alpha = mu (1 - rho)
ASSEMBLY_POINTS = [(1, 0.5, 1.0), (2, 0.9, 0.01), (5, 0.7, 0.3), (10, 0.5, 0.7)]


@pytest.mark.parametrize("c, rho, alpha", ASSEMBLY_POINTS)
@pytest.mark.parametrize("extra_levels", [5, 200])
def test_generator_matches_per_state_assembly(c, rho, alpha, extra_levels):
    p = QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)
    src, dst, rate, out = ctmc._generator(p, c + extra_levels)
    n, diag = len(out), np.arange(len(out))
    # the transition list as Q^T, assembled the way reference_generator is
    got = sp.csc_matrix(
        (np.concatenate([rate, -out]), (np.concatenate([dst, diag]), np.concatenate([src, diag]))),
        shape=(n, n),
    )
    want = reference_generator(p, c + extra_levels)
    assert got.has_canonical_format and want.has_canonical_format
    assert got.shape == want.shape
    # entry for entry, bit for bit: same pattern, same floats
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_level_dependent_law_is_refused(monkeypatch):
    # a law that changes from level c + 2 on must not be tiled from level c + 1
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=3)

    def drifting(state, params):
        k = 2.0 if state.j >= params.c + 2 else 1.0
        return [(target, k * rate) for target, rate in transition_rates(state, params)]

    monkeypatch.setattr(ctmc, "transition_rates", drifting)
    with pytest.raises(InternalInconsistencyError):
        ctmc.solve_truncated(p, j_max=20)


@pytest.mark.parametrize(
    "fn, kw, tol",
    [
        ("solve_truncated", {"j_max": 12}, math.nan),
        ("solve_adaptive", {}, math.nan),
        ("solve_adaptive", {}, -1.0),
        ("solve_adaptive", {"j_max": 12}, -1.0),
        ("choose_truncation", {}, 0.0),
        ("choose_truncation", {}, math.inf),
    ],
)
def test_bad_tol_is_refused_before_any_solve(monkeypatch, fn, kw, tol):
    # nan once gave an uncertified law (tail mass 3.5e-3) or a bare
    # ValueError, and -1 a misleading TruncationInsufficient
    def no_solve(*args):
        raise AssertionError("solved with a bad tol")

    monkeypatch.setattr(ctmc, "_generator", no_solve)
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    with pytest.raises(InvalidConfigError, match="ctmc tol must be finite and > 0"):
        getattr(ctmc, fn)(p, tol=tol, **kw)


def test_choose_truncation_moderate_load():
    # rho = 0.5 must leave at least 40 levels of headroom past c
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    assert ctmc.choose_truncation(p, tol=1e-12) >= 2 + 40


def test_choose_truncation_heavy_load():
    p5 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    p9 = QueueParams(lam=1.8, mu=1.0, alpha=1.0, c=2)
    j9 = ctmc.choose_truncation(p9, tol=1e-12)
    assert j9 >= 2 + 263  # geometric estimate at rho = 0.9
    assert j9 > 3 * ctmc.choose_truncation(p5, tol=1e-12)


def test_choose_truncation_floor():
    p = QueueParams(lam=2e-6, mu=1.0, alpha=1.0, c=2)
    assert 2 + 5 <= ctmc.choose_truncation(p) <= 2 + 8


def test_marginal_matches_gf_small_system():
    # single server at rho = 0.5 (the closed form exists independently)
    p = QueueParams(lam=0.5, mu=1.0, alpha=1.0, c=1)
    d = ctmc.solve_truncated(p, j_max=400, tol=1e-9)
    g = gf.solve(p).distribution()
    assert d.prob(0, 0) == pytest.approx(g.prob(0, 0), abs=1e-10)


def test_doubling_truncation_is_converged():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    d1 = ctmc.solve_truncated(p, j_max=120, tol=1e-9)
    d2 = ctmc.solve_truncated(p, j_max=240, tol=1e-9)
    worst = max(
        abs(d1.prob(i, j) - d2.prob(i, j)) for j in range(60) for i in range(min(j, 2) + 1)
    )
    assert worst < 1e-12


def test_balance_residual_certificate():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    d = ctmc.solve_truncated(p, j_max=150)
    assert d.info["balance_residual"] < 1e-12


def test_balance_equations_hold():
    # global balance at interior states, rebuilt from transition_rates
    p = QueueParams(lam=1.4, mu=1.0, alpha=0.7, c=3)
    d = oracle_distribution(p)
    for j in range(0, 25):
        for i in range(min(j, 3) + 1):
            s = State(i, j)
            out_rate = sum(r for _, r in transition_rates(s, p)) * d.prob(i, j)
            in_rate = 0.0
            for jj in range(max(0, j - 1), j + 2):
                for ii in range(min(jj, 3) + 1):
                    if (ii, jj) == (i, j):
                        continue
                    for target, rate in transition_rates(State(ii, jj), p):
                        if target == s:
                            in_rate += rate * d.prob(ii, jj)
            assert in_rate == pytest.approx(out_rate, rel=1e-11, abs=1e-16)


# (rho, alpha, c): heavy load at c = 50, fast setup, slow setup.  Grounded
# at (0, 0), the small states of the first three were off by a relative 1.0
# and those of the last by 4.6e-6; grounded at (m, m) they read
# 9.8e-14, 4.6e-14, 8.8e-15 and 2.9e-13.
ACCURACY_POINTS = [(0.95, 1.0, 50), (0.8, 0.1, 50), (0.3, 1000.0, 30), (0.7, 0.01, 30)]


@pytest.mark.parametrize("rho, alpha, c", ACCURACY_POINTS)
def test_small_states_match_gf(rho, alpha, c):
    p = QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)
    d = ctmc.solve_adaptive(p)
    g = gf.solve(p).distribution()
    # relative, state by state, on every state above 1e-100; the oracle
    # holds nothing above its cap, so levels stop there
    worst = 0.0
    for j in range(min(c + 50, d.info["j_max"]) + 1):
        a, b = d.level(j), g.level(j)
        scale = np.maximum(a, b)
        keep = scale > 1e-100
        worst = max(worst, float(np.max(np.abs(a - b)[keep] / scale[keep], initial=0.0)))
    assert worst <= 1e-11


def test_non_generator_raises_instead_of_falling_back():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    src, dst, rate, out = ctmc._generator(p, 20)
    rate[np.flatnonzero(src == 4)[0]] *= 1.5  # column 4 no longer sums to zero
    with pytest.raises(InternalInconsistencyError, match="balance residual"):
        ctmc._solve_stationary(src, dst, rate, out, ctmc._index(2, 1, 1))


def test_info_names_ground_and_clipped_mass():
    p = QueueParams(lam=1.4, mu=1.0, alpha=0.7, c=3)
    tol = 1e-12
    d = ctmc.solve_adaptive(p, tol=tol)
    m = round(p.lam / p.mu)
    assert d.info["ground"] == (m, m)
    assert 0.0 <= d.info["clipped_mass"] <= tol


def test_marginals_sum_to_one():
    p = QueueParams(lam=4.5, mu=1.0, alpha=0.1, c=5)
    d = oracle_distribution(p)
    assert d.phase_marginals().sum() == pytest.approx(1.0, abs=1e-12)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_truncation_insufficient_raises():
    # slow setups at heavy load need far more levels than the cap given
    p = QueueParams(lam=1.8, mu=1.0, alpha=0.01, c=2)
    with pytest.raises(TruncationInsufficientError):
        ctmc.solve_truncated(p, j_max=30, tol=1e-9)


def test_adaptive_recovers_from_low_guess():
    p = QueueParams(lam=1.8, mu=1.0, alpha=0.01, c=2)
    d = ctmc.solve_adaptive(p, tol=1e-10, j_max=16)
    assert d.info["tail_mass"] < 1e-10
    assert d.total_mass() == pytest.approx(1.0, abs=1e-10)


def no_solve(*args, **kwargs):
    pytest.fail("solve_truncated ran past the band cap")


def test_adaptive_checks_band_bytes_before_first_solve(monkeypatch):
    # the first guess is about 17k states at 80 bytes each, far over 100 kB
    p = QueueParams(lam=1.8, mu=1.0, alpha=0.01, c=2)
    j_max = ctmc.choose_truncation(p, 1e-12)
    size = ctmc._band_bytes(p.c, j_max)
    assert size == 80 * ctmc._index(p.c, 0, j_max + 1) > 1_000_000
    monkeypatch.setattr(ctmc, "solve_truncated", no_solve)
    with pytest.raises(TruncationInsufficientError, match=f"{size} byte band.*100000"):
        ctmc.solve_adaptive(p, max_band_bytes=100_000)


def test_adaptive_default_cap_refuses_a_huge_band(monkeypatch):
    # slow setup at c = 400: the first guess has 840,897 states and an 8.1 GB
    # band (1,204 rows), refused before anything is allocated
    p = QueueParams(lam=0.3 * 400, mu=1.0, alpha=0.01, c=400)
    size = ctmc._band_bytes(p.c, ctmc.choose_truncation(p, 1e-12))
    assert size > 8e9
    monkeypatch.setattr(ctmc, "solve_truncated", no_solve)
    with pytest.raises(TruncationInsufficientError, match=f"{size} byte band"):
        ctmc.solve_adaptive(p)


def test_jmax_must_clear_boundary():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    with pytest.raises(InvalidConfigError):
        ctmc.solve_truncated(p, j_max=4)


def test_setup_count_invariant_in_states():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=3)
    d = oracle_distribution(p)
    # any state the oracle assigns mass to satisfies the setup-count rule
    for j in range(0, 10):
        for i in range(min(j, 3) + 1):
            assert 0 <= n_setup(State(i, j), p) <= 3 - i
            assert d.prob(i, j) >= 0
