"""Plain M/M/c quantities, used as the alpha -> infinity limit and as the
always-on (ON-IDLE) cost baseline."""

from __future__ import annotations

import math

import numpy as np

from .model import CostParams, QueueParams


def erlang_b(c: int, a: float) -> float:
    """Erlang-B blocking probability for offered load a = lambda/mu.

    Standard recurrence B_k = a B_{k-1} / (k + a B_{k-1}); numerically
    benign for any c, a > 0.
    """
    b = 1.0
    for k in range(1, c + 1):
        b = a * b / (k + a * b)
    return b


def erlang_c(c: int, a: float) -> float:
    """Probability of waiting (queueing probability) in M/M/c."""
    rho = a / c
    if rho >= 1.0:
        return 1.0
    b = erlang_b(c, a)
    return b / (1.0 - rho * (1.0 - b))


def mean_jobs(params: QueueParams) -> float:
    """Stationary E[number in system] for M/M/c: c rho + C(c,a) rho/(1-rho)."""
    a = params.lam / params.mu
    rho = params.rho
    return a + erlang_c(params.c, a) * rho / (1.0 - rho)


def distribution(params: QueueParams, j_max: int) -> np.ndarray:
    """Marginal P(j jobs) for j = 0..j_max, computed in log space so large
    c and tiny tail probabilities don't overflow or underflow.

    P(j) is proportional to a^j / j! for j <= c and to a^c / c! rho^(j-c)
    past it; every term is exponentiated after the largest one, which sits
    near j = a, is subtracted.
    """
    c = params.c
    a = params.lam / params.mu
    rho = params.rho
    k = np.arange(c + 1)
    log_head = k * np.log(a) - np.array([math.lgamma(n + 1.0) for n in k])  # log a^k/k!
    peak = log_head.max()
    # normalizer: the head below c plus the whole geometric tail from c
    total = np.exp(log_head[:c] - peak).sum() + np.exp(log_head[c] - peak) / (1.0 - rho)
    j = np.arange(j_max + 1)
    logs = np.where(j <= c, log_head[np.minimum(j, c)], log_head[c] + (j - c) * np.log(rho))
    return np.exp(logs - peak) / total


def onidle_cost(params: QueueParams, costs: CostParams) -> float:
    """Mean power cost of keeping all c servers on: busy ones at c_active,
    idle ones at c_idle.  E[busy] = c rho by Little's law."""
    e_busy = params.c * params.rho
    return costs.c_active * e_busy + costs.c_idle * (params.c - e_busy)


def mmc_baseline(params: QueueParams) -> dict:
    """E[jobs] and E[busy] of the always-on M/M/c with the same lambda, mu, c."""
    return {"e_jobs": mean_jobs(params), "e_busy": params.c * params.rho}
