import math

import numpy as np
import pytest

from mmcsetup import mmc
from mmcsetup.model import CostParams, QueueParams


def test_erlang_b_known():
    # B(1, a) = a / (1 + a)
    assert mmc.erlang_b(1, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # B(2, 1) = (1/2) / (1 + 1 + 1/2)
    assert mmc.erlang_b(2, 1.0) == pytest.approx(0.2, rel=1e-14)


def test_erlang_c_single_server():
    # M/M/1: waiting probability equals rho
    p = QueueParams(lam=0.5, mu=1.0, alpha=1.0, c=1)
    assert mmc.erlang_c(1, p.lam / p.mu) == pytest.approx(0.5, rel=1e-14)


def test_mean_jobs_mm1():
    # c=1, rho=0.5 -> E[L] = rho/(1-rho) = 1
    p = QueueParams(lam=0.5, mu=1.0, alpha=1.0, c=1)
    assert mmc.mean_jobs(p) == pytest.approx(1.0, rel=1e-13)


def test_distribution_matches_direct_sum():
    p = QueueParams(lam=3.0, mu=1.0, alpha=1.0, c=4)
    q = mmc.distribution(p, 200)
    a, rho = 3.0, 0.75
    raw = [a**j / math.factorial(j) if j <= 4 else a**4 / 24.0 * rho ** (j - 4)
           for j in range(201)]
    raw = np.array(raw)
    raw /= raw.sum() + a**4 / 24.0 * rho**197 / (1 - rho)
    assert np.max(np.abs(q - raw)) < 1e-12
    assert q.sum() <= 1.0 + 1e-12
    assert mmc.mean_jobs(p) == pytest.approx(float(np.arange(201) @ q), abs=1e-8)


def test_distribution_large_c_no_overflow():
    p = QueueParams(lam=180.0, mu=1.0, alpha=1.0, c=200)
    q = mmc.distribution(p, 400)
    assert np.all(np.isfinite(q)) and np.all(q >= 0)
    assert q.sum() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("lam, c, j_max", [(720.0, 800, 1600), (900.0, 1000, 2000)])
def test_distribution_large_offered_load(lam, c, j_max):
    # a^k / k! peaks near k = a at about e^a / sqrt(2 pi a), past float64
    from mpmath import mp

    p = QueueParams(lam=lam, mu=1.0, alpha=1.0, c=c)
    with np.errstate(over="raise", invalid="raise"):
        q = mmc.distribution(p, j_max)
    assert np.all(np.isfinite(q)) and np.all(q >= 0)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    with mp.workdps(40):
        a, rho = mp.mpf(lam), mp.mpf(lam) / c
        head = [a**k / mp.factorial(k) for k in range(c + 1)]
        total = mp.fsum(head[:c]) + head[c] / (1 - rho)
        for j in (c // 2, int(lam), c, c + 100, j_max):
            want = (head[j] if j <= c else head[c] * rho ** (j - c)) / total
            assert q[j] == pytest.approx(float(want), rel=5e-12)


def test_onidle_cost_example():
    p = QueueParams(lam=10.0, mu=1.0, alpha=1.0, c=20)
    costs = CostParams(c_active=1.0, c_idle=0.6)
    assert mmc.onidle_cost(p, costs) == pytest.approx(16.0, abs=1e-12)


def test_onidle_cost_all_idle_limit():
    # rho -> 0 with c=2: cost -> 2 c_idle
    p = QueueParams(lam=1e-9, mu=1.0, alpha=1.0, c=2)
    costs = CostParams(c_active=1.0, c_idle=0.6)
    assert mmc.onidle_cost(p, costs) == pytest.approx(1.2, abs=1e-6)
