"""Joint stationary distribution container shared by every solver.

The state space splits at level c.  Boundary levels j = 0..c-1 are stored
densely.  Levels j >= c are represented by a tail object that knows its own
closed form, so row sums, first moments and tail masses are exact instead
of truncated:

* PoleTail       -- Newton-form mixture of geometrics (generating-function solver)
* GeometricTail  -- matrix-geometric pi_c R^m (QBD solver)
* ExplicitTail   -- finitely many stored levels (truncated-chain oracle)

All three expose level(m), sum0(), sum1() and row_tail(i, m) where m counts
levels past c, and rows(idx, n), the first n levels and row tails of the
phases in idx at once, so downstream measures never care which solver
produced the distribution.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStateError
from .model import QueueParams, params_to_dict


def _mass(B: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Lambda(u) with u = t / (1 - t): phi_0(u) = y_0, phi_l(u) = 1.  B may
    carry leading axes; y0 is the rows' first node."""
    return B[..., 0] * y0 + B[..., 1:].sum(axis=-1)


def _grown(a: np.ndarray, n: int) -> np.ndarray:
    """a with room for n rows along axis 0, its rows copied."""
    out = np.empty((n, *a.shape[1:]), dtype=a.dtype)
    out[: len(a)] = a
    return out


class _RowWalk:
    """Levels and tail masses of a fixed set of PoleTail rows, m = 0, 1, ...

    ``state`` holds those rows' coefficients of g -> Lambda(t^m g) at the
    first level not yet taken.  Extending steps it level by level into a
    block of states, then reads the block's levels and tail masses in bulk,
    by the same elementwise expressions as one level at a time.
    """

    BLOCK = 1 << 16  # state entries per block

    def __init__(self, coeffs: np.ndarray, nodes: np.ndarray, gaps: np.ndarray):
        self.state, self.nodes = coeffs, nodes
        self.y0, self.g0, self.g1, self.g_rest = nodes[:, 0], gaps[:, 0], gaps[:, 1], gaps[:, 1:]
        self.levels = np.empty((0, len(coeffs)), dtype=coeffs.dtype)
        self.tails = np.empty_like(self.levels)
        self.n = 0

    def read(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n > self.n:
            self._extend(n)
        levels, tails = self.levels[:n], self.tails[:n]
        levels.flags.writeable = tails.flags.writeable = False
        return levels, tails

    def _extend(self, n: int) -> None:
        if n > len(self.levels):
            cap = max(n, 2 * len(self.levels))
            self.levels, self.tails = _grown(self.levels, cap), _grown(self.tails, cap)
        Y, y0, g0, g1, g_rest = self.nodes, self.y0, self.g0, self.g1, self.g_rest
        rows, width = self.state.shape
        block = max(1, self.BLOCK // (rows * width))
        while self.n < n:
            k = min(block, n - self.n)
            S = np.empty((k + 1, rows, width), dtype=self.state.dtype)
            S[0] = self.state
            # (t g)[y_0..y_l] = y_l g[y_0..y_l] + g[y_0..y_(l-1)]
            for B, nxt, nxt_head, B_rest in zip(S[:-1], S[1:], S[1:, :, :-1], S[:-1, :, 1:]):
                np.multiply(B, Y, out=nxt)
                nxt_head += B_rest * g_rest
            B = S[:k]
            # level m: Lambda(t^(m+1)) = C_0 y_0 + C_1 in unscaled coefficients
            self.levels[self.n : self.n + k] = g0 * (B[..., 0] * y0 + B[..., 1] * g1)
            self.tails[self.n : self.n + k] = _mass(B, y0)
            self.state = S[k].copy()
            self.n += k


class PoleTail:
    """pi_{i, c+m} = Lambda_i(t^(m+1)), with row i's tail functional in
    scaled Newton form over its ascending node list y = nodes[i]:

        Lambda_i(g) = sum_l coeffs[i, l] (1-y_0) ... (1-y_l) g[y_0, ..., y_l]

    where g[...] is a divided difference and gaps = 1 - nodes, given
    separately so that it keeps full relative accuracy.  Rows are
    zero-padded past their i + 1 nodes (gap 1 there).  Coefficients, nodes
    and gaps are nonnegative and every quantity below is a sum of
    nonnegative terms.  The arrays may hold float64 or mpmath numbers; the
    arithmetic is the same.

    Levels come from the functional g -> Lambda(t^m g), stepped level by
    level over the rows asked for only: ``rows(idx, n)`` costs O(len(idx) c)
    per level.  Each row set keeps its walk, which resumes where its last
    read stopped, so no level of a row set is stepped twice.  ``level(m)``
    and ``row_tail(i, m)`` read the walk over all rows.
    """

    kind = "pole"

    def __init__(self, coeffs: np.ndarray, nodes: np.ndarray, gaps: np.ndarray):
        self.coeffs = coeffs
        self.nodes = nodes
        self.gaps = gaps
        self._all = tuple(range(len(coeffs)))
        self._walks: dict[tuple, _RowWalk] = {}
        self._s0 = _mass(coeffs, nodes[:, 0])
        self._s1 = _mass(self._times_u(coeffs), nodes[:, 0])

    def _times_u(self, B: np.ndarray) -> np.ndarray:
        """Coefficients of g -> Lambda(u g): one backward sweep, here a
        suffix sum because u's pole sits at 1."""
        later = np.zeros_like(B)
        later[:, :-1] = np.cumsum(B[:, :0:-1], axis=1)[:, ::-1]
        return (B * self.nodes + later) / self.gaps

    def rows(self, idx, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(levels, tails), read-only, each of shape (n, len(idx)):
        levels[m, k] = pi_{idx[k], c+m} and tails[m, k] = row_tail(idx[k], m)."""
        return self._walk(tuple(map(int, idx))).read(n)

    def _walk(self, key: tuple) -> _RowWalk:
        walk = self._walks.get(key)
        if walk is None:
            at = slice(None) if key == self._all else list(key)
            walk = self._walks[key] = _RowWalk(self.coeffs[at], self.nodes[at], self.gaps[at])
        return walk

    def level(self, m: int) -> np.ndarray:
        return self._walk(self._all).read(m + 1)[0][m]

    def sum0(self) -> np.ndarray:
        return self._s0

    def sum1(self) -> np.ndarray:
        return self._s1

    def row_tail(self, i: int, m: int) -> float:
        """sum_{j >= c+m} pi_{i,j} = Lambda_i(t^m u)."""
        return float(self._walk(self._all).read(m + 1)[1][m, i])

    def factorial_moments(self, n_max: int) -> np.ndarray:
        """out[i, n] = sum_{m >= 0} pi_{i,c+m} (c - i + m)_n, the tail part of
        row i's n-th factorial moment, n <= n_max.

        With d = c - i, sum_m (d+m)_n t^(m+1) is
        sum_r C(n, r) (d)_r (n-r)! u^(n-r+1), so only Lambda_i(u^p) is
        needed, and those come from repeated kernel products.
        """
        c = len(self.coeffs) - 1
        powers, B = [], self.coeffs
        for _ in range(n_max + 1):  # Lambda(u^p), p = 1..n_max + 1
            powers.append(_mass(B, self.nodes[:, 0]))
            B = self._times_u(B)
        d = c - np.arange(c + 1)
        out = np.zeros((c + 1, n_max + 1), dtype=self.coeffs.dtype)
        for n in range(n_max + 1):
            for r in range(n + 1):
                falling = np.prod([d - t for t in range(r)], axis=0) if r else 1
                weight = math.comb(n, r) * math.factorial(n - r) * falling
                out[:, n] += weight * powers[n - r]
        return out

    def to_dict(self) -> dict:
        n = len(self.coeffs)
        return {
            "type": self.kind,
            "coeffs": [self.coeffs[i, : i + 1].tolist() for i in range(n)],
            "nodes": [self.nodes[i, : i + 1].tolist() for i in range(n)],
        }


class GeometricTail:
    """pi_{c+m} = pi_c R^m for an upper-triangular R, given N = (I - R)^{-1}
    (qbd.tail_inverse), which every tail sum reads."""

    kind = "geometric"

    def __init__(self, pi_c: np.ndarray, R: np.ndarray, N: np.ndarray):
        self.pi_c = pi_c
        self.R = R
        self._N = N
        self._levels = [pi_c]

    def level(self, m: int) -> np.ndarray:
        while len(self._levels) <= m:
            self._levels.append(self._levels[-1] @ self.R)
        return self._levels[m]

    def sum0(self) -> np.ndarray:
        return self.pi_c @ self._N

    def sum1(self) -> np.ndarray:
        return self.pi_c @ self.R @ self._N @ self._N

    def row_tail(self, i: int, m: int) -> float:
        return float(self.level(m) @ self._N[:, i])

    def rows(self, idx, n: int) -> tuple[np.ndarray, np.ndarray]:
        self.level(n - 1)
        levels = np.array(self._levels[:n])
        # a C-ordered copy of the columns: against an F-ordered one the
        # product strayed up to 1.6e-15 from the per-level dots at c = 400
        return levels[:, idx], levels @ np.ascontiguousarray(self._N[:, idx])

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

    def rows(self, idx, n: int) -> tuple[np.ndarray, np.ndarray]:
        k = min(n, len(self.levels))
        levels, tails = np.zeros((2, n, len(idx)))
        levels[:k], tails[:k] = self.levels[:k, idx], self._suffix[:k, idx]
        return levels, tails

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
            raise InvalidStateError(f"level must be >= 0, got {j}")
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
