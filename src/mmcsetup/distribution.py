"""Joint stationary distribution container shared by every solver.

The state space splits at level c.  Boundary levels j = 0..c-1 are stored
densely.  Levels j >= c are represented by a tail object that knows its own
closed form, so row sums, first moments and tail masses are exact instead
of truncated:

* PoleTail       -- mixture of geometrics 1/zhat_k (generating-function solver)
* GeometricTail  -- matrix-geometric pi_c R^m (QBD solver)
* ExplicitTail   -- finitely many stored levels (truncated-chain oracle)

All three expose level(m), sum0(), sum1() and row_tail(i, m) where m counts
levels past c, so downstream measures never care which solver produced the
distribution.
"""

from __future__ import annotations

from contextlib import nullcontext

import mpmath as mp
import numpy as np

from .errors import InternalInconsistencyError
from .model import QueueParams, params_to_dict


def pole_sums(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k A[i, k] w[k] for every row i of the lower-triangular A, in A's
    number type: one float64 matrix-vector product, or for mpmath numbers a
    once-rounded sum over k <= i per row (at the working precision)."""
    if A.dtype != object:
        return A @ w
    out = np.empty(len(A), dtype=object)
    for i in range(len(A)):
        out[i] = mp.fdot(A[i, : i + 1], w[: i + 1])
    return out


class PoleTail:
    """pi_{i, c+m} = sum_k A[i, k] * zhat_k ** -(m + 1).

    A and zhat are float64 arrays, or object arrays of mpmath numbers
    together with the precision dps they were computed at.  The solver
    hands over the latter when the coefficients are large and alternating
    (clustered poles), because any float64 evaluation of the sum is then
    pure cancellation noise: every level, sum and row tail is evaluated at
    that precision and rounded once, and levels are computed lazily from
    level 0 and cached.
    """

    kind = "pole"

    def __init__(self, A: np.ndarray, zhat: np.ndarray, dps: int | None = None):
        self.A = A.astype(float)
        self.zhat = zhat.astype(float)
        self._inv = 1.0 / self.zhat
        self._mp = None if dps is None else (A, zhat, dps)  # (A_mp, zh_mp, dps)
        self._levels: list[np.ndarray] = []  # extended-precision levels so far
        with self._precision():
            self._pow = 1 / zhat  # zhat^-(m+1) for m = len(self._levels)
            # zhat - 1 > 0 under stability
            self._s0 = pole_sums(A, 1 / (zhat - 1)).astype(float)
            self._s1 = pole_sums(A, 1 / (zhat - 1) ** 2).astype(float)

    def _precision(self):
        return mp.workdps(self._mp[2]) if self._mp is not None else nullcontext()

    def level(self, m: int) -> np.ndarray:
        if self._mp is None:
            return self.A @ (self._inv ** (m + 1))
        with self._precision():
            while len(self._levels) <= m:
                self._levels.append(pole_sums(self._mp[0], self._pow).astype(float))
                self._pow = self._pow / self._mp[1]
        return self._levels[m]

    def sum0(self) -> np.ndarray:
        return self._s0

    def sum1(self) -> np.ndarray:
        return self._s1

    def row_tail(self, i: int, m: int) -> float:
        """sum_{j >= c+m} pi_{i,j}, via sum_k A[i,k] zhat_k^-m / (zhat_k - 1)."""
        if self._mp is None:
            return float(self.A[i] @ (self._inv**m / (self.zhat - 1)))
        A, zhat, _ = self._mp
        with self._precision():
            zhat = zhat[: i + 1]
            return float(mp.fdot(A[i, : i + 1], (1 / zhat) ** m / (zhat - 1)))

    def to_dict(self) -> dict:
        out = {"type": self.kind, "A": self.A.tolist(), "zhat": self.zhat.tolist()}
        if self._mp is not None:
            out["precision_digits"] = self._mp[2]
            out["materialized_levels"] = len(self._levels)
        return out


class GeometricTail:
    """pi_{c+m} = pi_c R^m, with (I - R)^{-1} factored once."""

    kind = "geometric"

    def __init__(self, pi_c: np.ndarray, R: np.ndarray):
        self.pi_c = pi_c
        self.R = R
        n = R.shape[0]
        eye = np.eye(n)
        try:
            self._N = np.linalg.inv(eye - R)  # spectral radius < 1 under stability
        except np.linalg.LinAlgError as exc:
            raise InternalInconsistencyError(f"I - R singular: {exc}") from exc
        self._levels = [pi_c]

    def _level(self, m: int) -> np.ndarray:
        while len(self._levels) <= m:
            self._levels.append(self._levels[-1] @ self.R)
        return self._levels[m]

    def level(self, m: int) -> np.ndarray:
        return self._level(m)

    def sum0(self) -> np.ndarray:
        return self.pi_c @ self._N

    def sum1(self) -> np.ndarray:
        return self.pi_c @ self.R @ self._N @ self._N

    def row_tail(self, i: int, m: int) -> float:
        return float((self._level(m) @ self._N)[i])

    def to_dict(self) -> dict:
        return {"type": self.kind, "pi_c": self.pi_c.tolist(), "R": self.R.tolist()}


class ExplicitTail:
    """Finitely many stored levels; everything past them is zero."""

    kind = "explicit"

    def __init__(self, levels: np.ndarray):
        # shape (M + 1, c + 1); row m is the level-(c + m) probability vector
        self.levels = levels
        self._suffix = np.cumsum(levels[::-1], axis=0)[::-1]

    def level(self, m: int) -> np.ndarray:
        if m >= len(self.levels):
            return np.zeros(self.levels.shape[1])
        return self.levels[m]

    def sum0(self) -> np.ndarray:
        return self.levels.sum(axis=0)

    def sum1(self) -> np.ndarray:
        m = np.arange(len(self.levels))
        return m @ self.levels

    def row_tail(self, i: int, m: int) -> float:
        if m >= len(self.levels):
            return 0.0
        return float(self._suffix[m, i])

    def to_dict(self) -> dict:
        return {"type": self.kind, "n_levels": len(self.levels)}


class JointDistribution:
    """Stationary probabilities pi_{i,j} with an exact tail representation.

    boundary[i, j] holds pi_{i,j} for j = 0..c-1 (entries with i > j are
    structurally zero); the tail object covers j >= c.
    """

    def __init__(
        self,
        params: QueueParams,
        boundary: np.ndarray,
        tail,
        source: str,
        info: dict | None = None,
    ):
        self.params = params
        self.boundary = boundary
        self.tail = tail
        self.source = source
        self.info = info or {}

    def level(self, j: int) -> np.ndarray:
        """Probability vector over phases i at level j (length min(j, c) + 1)."""
        c = self.params.c
        if j < 0:
            raise ValueError(f"level must be >= 0, got {j}")
        if j < c:
            return self.boundary[: j + 1, j]
        return self.tail.level(j - c)

    def prob(self, i: int, j: int) -> float:
        c = self.params.c
        if not (0 <= i <= c) or j < 0:
            return 0.0
        if i > j:
            return 0.0
        return float(self.level(j)[i])

    def phase_marginals(self) -> np.ndarray:
        """P(i servers on), i = 0..c."""
        return self.boundary.sum(axis=1) + self.tail.sum0()

    def job_marginal(self, j_max: int) -> np.ndarray:
        """P(j jobs in system) for j = 0..j_max (not renormalized)."""
        out = np.empty(j_max + 1)
        for j in range(j_max + 1):
            out[j] = self.level(j).sum()
        return out

    def mean_jobs(self) -> float:
        """E[L], exact: boundary part plus c*sum0 + sum1 from the tail."""
        c = self.params.c
        j = np.arange(c)
        head = float(j @ self.boundary.sum(axis=0))
        s0 = self.tail.sum0()
        s1 = self.tail.sum1()
        return head + float(c * s0.sum() + s1.sum())

    def total_mass(self) -> float:
        return float(self.boundary.sum() + self.tail.sum0().sum())

    def to_dict(self, n_tail_levels: int = 10) -> dict:
        levels = {}
        c = self.params.c
        for j in range(c + n_tail_levels + 1):
            levels[str(j)] = self.level(j).tolist()
        return {
            "params": params_to_dict(self.params),
            "source": self.source,
            "total_mass": self.total_mass(),
            "e_jobs": self.mean_jobs(),
            "phase_marginals": self.phase_marginals().tolist(),
            "levels": levels,
            "tail": self.tail.to_dict(),
            "info": self.info,
        }
