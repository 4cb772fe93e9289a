"""Joint stationary distribution container shared by every solver.

The state space splits at level c.  Boundary levels j = 0..c-1 are stored
densely.  Levels j >= c are represented by a tail object that knows its own
closed form, so row sums, first moments and tail masses are exact instead
of truncated:

* PoleTail       -- Newton-form mixture of geometrics (generating-function solver)
* GeometricTail  -- matrix-geometric pi_c R^m (QBD solver)
* ExplicitTail   -- finitely many stored levels (truncated-chain oracle)

All three expose level(m), sum0(), sum1() and rows(idx, n), the first n
levels and row tails of the phases in idx at once, where m counts levels
past c, so downstream measures never care which solver produced the
distribution.  All three hold one index contract: an empty idx gives
(n, 0) arrays, and a phase outside 0..c, n < 0 or m < 0 raises
InvalidStateError.  The levels they hand out are read-only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStateError
from .model import QueueParams, params_to_dict


def falling_factorial(p, n: int):
    """p (p-1) ... (p-n+1) for an integer or an integer array p; zero once
    the product crosses zero, 1 at n = 0."""
    out = 1
    for t in range(n):
        out *= p - t
    return out


def _mass(B: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Lambda(u) with u = t / (1 - t): phi_0(u) = y_0, phi_l(u) = 1.  B may
    carry leading axes; y0 is the rows' first node."""
    return B[..., 0] * y0 + B[..., 1:].sum(axis=-1)


def _grown(a: np.ndarray, n: int) -> np.ndarray:
    """a with room for n rows along axis 0, its rows copied."""
    out = np.empty((n, *a.shape[1:]), dtype=a.dtype)
    out[: len(a)] = a
    return out


def _phases(idx, c: int) -> list[int]:
    """idx as a list of ints, each in 0..c, where indexing would wrap or
    read past the end."""
    idx = list(map(int, idx))
    bad = [i for i in idx if not 0 <= i <= c]
    if bad:
        raise InvalidStateError(f"phase must be in 0..c = {c}, got {bad[0]}")
    return idx


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place: a distribution hands out views of it."""
    a.flags.writeable = False
    return a


def _nonnegative(what: str, v: int) -> None:
    if v < 0:
        raise InvalidStateError(f"{what} must be >= 0, got {v}")


class _RowWalk:
    """Levels and tail masses of a fixed set of PoleTail rows, m = 0, 1, ...

    ``state`` holds those rows' coefficients of g -> Lambda(t^m g) at the
    first level not yet taken.  Extending steps it level by level into a
    block of states, each level one flat run of rows x width entries and
    three 1-D ufunc calls, then reads the block's levels and tail masses in
    bulk, by the same elementwise expressions as one level at a time.  A
    step reads entry p + 1 times the gap of p's successor in its own row;
    each row's last slot gets a 0 gap instead, so no row reads the next
    row's first coefficient.  On a 2-CPU Xeon a level of two rows at
    c = 20 takes about 1.2 us, readout included; levels whose coefficients
    sink into the subnormal range cost more.
    """

    BLOCK = 1 << 16  # state entries per block

    def __init__(self, coeffs: np.ndarray, nodes: np.ndarray, gaps: np.ndarray):
        self.state, self.nodes = coeffs, nodes.ravel()
        self.y0, self.g0, self.g1 = nodes[:, 0], gaps[:, 0], gaps[:, 1]
        # gaps[p] carries entry p + 1 into entry p; the 0 is exact over mpmath too
        self.gaps = gaps.ravel()[1:].copy()
        self.gaps[coeffs.shape[1] - 1 :: coeffs.shape[1]] = 0
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
        Y, y0, g0, g1, gaps = self.nodes, self.y0, self.g0, self.g1, self.gaps
        size = self.state.size
        block = max(1, self.BLOCK // size)
        tmp = np.empty(size - 1, dtype=self.state.dtype)
        mul, add = np.multiply, np.add  # local names, out passed positionally: per-level cost
        while self.n < n:
            k = min(block, n - self.n)
            S = np.empty((k + 1, size), dtype=self.state.dtype)
            S[0] = self.state.ravel()
            # (t g)[y_0..y_l] = y_l g[y_0..y_l] + g[y_0..y_(l-1)]
            for B, nxt, B_rest, nxt_head in zip(S[:-1], S[1:], S[:-1, 1:], S[1:, :-1]):
                mul(B, Y, nxt)
                mul(B_rest, gaps, tmp)
                add(nxt_head, tmp, nxt_head)
            B = S[:k].reshape(k, *self.state.shape)
            # level m: Lambda(t^(m+1)) = C_0 y_0 + C_1 in unscaled coefficients
            self.levels[self.n : self.n + k] = g0 * (B[..., 0] * y0 + B[..., 1] * g1)
            self.tails[self.n : self.n + k] = _mass(B, y0)
            self.state = S[k].reshape(self.state.shape).copy()
            self.n += k


class PoleTail:
    """pi_{i, c+m} = Lambda_i(t^(m+1)), with row i's tail functional in
    scaled Newton form over its ascending node list y = nodes[i]:

        Lambda_i(g) = sum_l coeffs[i, l] (1-y_0) ... (1-y_l) g[y_0, ..., y_l]

    where g[...] is a divided difference and gaps = 1 - nodes, given
    separately so that it keeps full relative accuracy.  Rows are
    zero-padded past their i + 1 nodes (gap 1 there).  Coefficients, nodes
    and gaps are nonnegative and finite, and every quantity below is a sum
    of nonnegative terms.  Finite matters to the walk: it multiplies each
    row's first coefficient by the 0 gap of the row above's last slot, so
    an inf or nan there would leak into that row (gf's certificate refuses
    such a solve).  The arrays may hold float64 or mpmath numbers; the
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
        levels[m, k] = pi_{idx[k], c+m} and tails[m, k] =
        sum_{j >= c+m} pi_{idx[k], j}."""
        key = tuple(_phases(idx, len(self.coeffs) - 1))
        _nonnegative("number of levels n", n)
        if not key:
            empty = np.empty((n, 0), dtype=self.coeffs.dtype)
            return empty, empty
        return self._walk(key).read(n)

    def _walk(self, key: tuple) -> _RowWalk:
        walk = self._walks.get(key)
        if walk is None:
            at = slice(None) if key == self._all else list(key)
            walk = self._walks[key] = _RowWalk(self.coeffs[at], self.nodes[at], self.gaps[at])
        return walk

    def level(self, m: int) -> np.ndarray:
        _nonnegative("tail level m", m)
        return self._walk(self._all).read(m + 1)[0][m]

    def sum0(self) -> np.ndarray:
        return self._s0

    def sum1(self) -> np.ndarray:
        return self._s1

    def row_tail(self, i: int, m: int) -> float:
        """sum_{j >= c+m} pi_{i,j} = Lambda_i(t^m u)."""
        _phases([i], len(self.coeffs) - 1)
        _nonnegative("tail level m", m)
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
                weight = math.comb(n, r) * math.factorial(n - r) * falling_factorial(d, r)
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
    (qbd.tail_inverse), which every tail sum reads.

    The levels formed so far are the rows of one array, grown by doubling
    as _RowWalk grows its own, so each level is held once; level(m) is a
    read-only view of row m and rows() reads a slice."""

    kind = "geometric"

    def __init__(self, pi_c: np.ndarray, R: np.ndarray, N: np.ndarray):
        self.pi_c = _frozen(pi_c)
        self.R = R
        self._N = N
        self._levels = pi_c[None].copy()
        self._n = 1  # rows of _levels formed

    def _extend(self, n: int) -> np.ndarray:
        """The first n levels, formed as needed: a read-only view."""
        if n > len(self._levels):
            self._levels = _grown(self._levels[: self._n], max(n, 2 * len(self._levels)))
        levels, R = self._levels, self.R
        for m in range(self._n, n):
            np.matmul(levels[m - 1], R, out=levels[m])
        self._n = max(self._n, n)
        return _frozen(levels[:n])

    def level(self, m: int) -> np.ndarray:
        _nonnegative("tail level m", m)
        return self._extend(m + 1)[m]

    def sum0(self) -> np.ndarray:
        return self.pi_c @ self._N

    def sum1(self) -> np.ndarray:
        return self.pi_c @ self.R @ self._N @ self._N

    def rows(self, idx, n: int) -> tuple[np.ndarray, np.ndarray]:
        idx = _phases(idx, len(self.pi_c) - 1)
        _nonnegative("number of levels n", n)
        levels = self._extend(n)
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
        self.levels = _frozen(levels)
        self._suffix = np.cumsum(levels[::-1], axis=0)[::-1]
        self._s0 = levels.sum(axis=0)
        self._s1 = np.arange(len(levels)) @ levels

    def level(self, m: int) -> np.ndarray:
        _nonnegative("tail level m", m)
        if m >= len(self.levels):
            return _frozen(np.zeros(self.levels.shape[1]))
        return self.levels[m]

    def sum0(self) -> np.ndarray:
        return self._s0

    def sum1(self) -> np.ndarray:
        return self._s1

    def rows(self, idx, n: int) -> tuple[np.ndarray, np.ndarray]:
        idx = _phases(idx, self.levels.shape[1] - 1)
        _nonnegative("number of levels n", n)
        k = min(n, len(self.levels))
        levels, tails = np.zeros((2, n, len(idx)))
        levels[:k], tails[:k] = self.levels[:k, idx], self._suffix[:k, idx]
        return levels, tails

    def to_dict(self) -> dict:
        return {"type": self.kind, "n_levels": len(self.levels)}


class JointDistribution:
    """Stationary probabilities pi_{i,j} with an exact tail representation.

    boundary[i, j] holds pi_{i,j} for j = 0..c-1 (entries with i > j are
    structurally zero); the tail object covers j >= c.  The boundary is
    made read-only here, as each tail makes its levels, so no caller can
    write into a distribution that a solve shares.
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
        self.boundary = _frozen(boundary)
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

    def to_dict(self) -> dict:
        levels = {}
        c = self.params.c
        for j in range(c + 11):  # levels 0..c + 10
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
