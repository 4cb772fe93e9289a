"""Shared fixtures: the cross-validation grid, memoized solver calls and
the helpers that only tests read.

The acceptance grid is solved by three independent methods; several test
modules reuse those solutions, so they are cached per-process keyed on the
(hashable) parameter dataclass.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

import mmcsetup
from mmcsetup import ctmc, gf, qbd
from mmcsetup.model import QueueParams, State

GRID_C = (1, 2, 3, 5, 10, 20)
GRID_RHO = (0.3, 0.5, 0.7, 0.9)
GRID_ALPHA = (0.01, 0.1, 1.0, 10.0)


def grid_points() -> list[QueueParams]:
    return [
        QueueParams(lam=rho * c, mu=1.0, alpha=alpha, c=c)
        for c in GRID_C
        for rho in GRID_RHO
        for alpha in GRID_ALPHA
    ]


def is_confluent(p: QueueParams) -> bool:
    """All outer roots coincide when alpha = mu (1 - rho), the line where a
    partial-fraction tail would not exist (gf's Newton form does)."""
    return abs(p.alpha - p.mu * (1.0 - p.rho)) < 1e-12 * p.mu


@functools.lru_cache(maxsize=None)
def gf_solution(p: QueueParams):
    return gf.solve(p)


@functools.lru_cache(maxsize=None)
def qbd_solution(p: QueueParams):
    return qbd.solve(p)


@functools.lru_cache(maxsize=None)
def oracle_distribution(p: QueueParams):
    return ctmc.solve_adaptive(p)


@pytest.fixture(scope="session")
def grid():
    return grid_points()


def iter_states(params: QueueParams, j_max: int) -> Iterator[State]:
    """All states with j <= j_max, in (j, i) lexicographic order."""
    for j in range(j_max + 1):
        for i in range(min(j, params.c) + 1):
            yield State(i, j)


def job_marginal(dist, j_max: int) -> np.ndarray:
    """P(j jobs in system) for j = 0..j_max (not renormalized)."""
    out = np.empty(j_max + 1)
    for j in range(j_max + 1):
        out[j] = dist.level(j).sum()
    return out


def gf_mean_jobs(sol) -> float:
    """E[L] = sum_i (i * P_i(1) + P_i'(1)) from a GfSolution's factorial moments."""
    i = np.arange(sol.params.c + 1)
    return float(i @ sol.moments_full[:, 0] + sol.moments_full[:, 1].sum())


# one line per acceptance criterion, echoed after the run so outcomes are
# readable without digging through the dots
acceptance_lines: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    acceptance_lines.append(
        f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def run_fresh(*args: str) -> None:
    """Run the interpreter with args in a fresh process that imports
    mmcsetup from this tree, and expect exit status 0."""
    src = str(Path(mmcsetup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
