"""Matrix-analytic solver: level = job count, phase = running servers.

The chain is a quasi-birth-and-death process that is level-independent from
level c upward and level-dependent below.  The homogeneous rate matrix R is
upper triangular with known diagonal r_{i,i} = 1/zhat_i, and every
off-diagonal entry follows from a recursion whose terms are all nonnegative
and whose denominator is strictly positive under stability.  No iteration,
no cancellation: the construction stays accurate in double precision even
when the zhat_i collide and the partial-fraction solver has to give up.

The first-passage matrix G is built the same way (g_{i,i} = z_i, and
g_{c,c} = 1 because from phase c the level process is a stable M/M/1 whose
descent is certain).  Boundary levels get their own rectangular R^{(i)} and
G^{(n)} via backward sweeps of small triangular solves, subtraction-free
as well: each diagonal comes from the known row sums (see
level_rate_matrices).

Stationary vectors: pi_0 = (1), pi_i = pi_{i-1} R^{(i)} up to level c, then
pi_{c+k} = pi_c R^k with the normalization summed exactly through
(I - R)^{-1}.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .distribution import GeometricTail, JointDistribution
from .errors import InternalInconsistencyError
from .gf import quadratic_roots
from .model import QueueParams, params_to_dict, validate

__all__ = [
    "QbdBlocks",
    "QbdSolution",
    "build_blocks",
    "rate_matrix",
    "level_rate_matrices",
    "g_matrix",
    "g_levels",
    "rate_matrix_from_g",
    "residuals",
    "solve",
]


@dataclass(frozen=True)
class QbdBlocks:
    """Generator blocks: q1/q0/qm1 are the homogeneous (c+1)-square blocks."""

    params: QueueParams
    q1: np.ndarray
    q0: np.ndarray
    qm1: np.ndarray

    def level_q1(self, n: int) -> np.ndarray:
        """Arrival block from level n to n+1: [lam*I | 0] while n < c."""
        p = self.params
        if n >= p.c:
            return self.q1
        out = np.zeros((n + 1, n + 2))
        out[:, : n + 1] = p.lam * np.eye(n + 1)
        return out

    def level_q0(self, n: int) -> np.ndarray:
        """Within-level block at level n (setup completions + diagonal)."""
        p = self.params
        if n >= p.c:
            return self.q0
        i = np.arange(n + 1, dtype=float)
        out = np.zeros((n + 1, n + 1))
        # all c - i off servers are warming only once j - i >= c - i; below
        # level c just j - i of them are
        setup = (n - i) * p.alpha
        out[np.arange(n), np.arange(1, n + 1)] = setup[:n]
        np.fill_diagonal(out, -(p.lam + i * p.mu + setup))
        return out

    def level_qm1(self, n: int) -> np.ndarray:
        """Service block from level n to n-1, rectangular while n <= c."""
        p = self.params
        if n > p.c:
            return self.qm1
        out = np.zeros((n + 1, n))
        idx = np.arange(1, n)
        out[idx, idx] = idx * p.mu
        # a departure from the all-busy corner (i = j = n) shuts one server
        out[n, n - 1] = n * p.mu
        return out

    def assemble(self, j_max: int) -> np.ndarray:
        """Dense generator for levels 0..j_max with arrivals cut at the top."""
        p = self.params
        sizes = [min(j, p.c) + 1 for j in range(j_max + 1)]
        offs = np.concatenate(([0], np.cumsum(sizes)))
        q = np.zeros((offs[-1], offs[-1]))
        for j in range(j_max + 1):
            a, b = offs[j], offs[j + 1]
            q[a:b, a:b] += self.level_q0(j)
            if j < j_max:
                q[a:b, b : offs[j + 2]] += self.level_q1(j)
            else:
                q[a:b, a:b] += p.lam * np.eye(sizes[j])
            if j >= 1:
                q[a:b, offs[j - 1] : a] += self.level_qm1(j)
        return q


def build_blocks(params: QueueParams) -> QbdBlocks:
    validate(params)
    c = params.c
    i = np.arange(c + 1, dtype=float)
    q1 = params.lam * np.eye(c + 1)
    qm1 = np.diag(i * params.mu)
    q0 = np.zeros((c + 1, c + 1))
    setup = (c - i) * params.alpha
    q0[np.arange(c), np.arange(1, c + 1)] = setup[:c]
    np.fill_diagonal(q0, -(params.lam + i * params.mu + setup))
    return QbdBlocks(params, q1, q0, qm1)


def rate_matrix(params: QueueParams) -> np.ndarray:
    """Minimal nonnegative R with lam*I + R*Q0 + R^2*Qm1 = 0.

    Diagonal first (reciprocals of the large quadratic roots), then each
    superdiagonal by increasing offset.  The denominator equals
    lam*zhat_j - j*mu/zhat_i > 0, so every entry is a ratio of nonnegative
    sums: the recursion is unconditionally stable.
    """
    validate(params)
    lam, mu, c, alpha = params.lam, params.mu, params.c, params.alpha
    roots = quadratic_roots(params)
    r = np.diag(1.0 / roots.zhat)
    j = np.arange(c + 1, dtype=float)
    q = lam + j * mu + (c - j) * alpha
    for h in range(1, c + 1):
        for i in range(0, c + 1 - h):
            k = i + h
            num = (c - k + 1) * alpha * r[i, k - 1]
            if h > 1:
                num += k * mu * (r[i, i + 1 : k] @ r[i + 1 : k, k])
            den = q[k] - k * mu * (r[i, i] + r[k, k])
            r[i, k] = num / den
    return r


def g_matrix(params: QueueParams) -> np.ndarray:
    """First-passage matrix G for the homogeneous part, row-stochastic.

    g_{i,j} is the probability that, starting one level up in phase i, the
    first entry to the level below happens in phase j.  Phases only grow
    between departures, so G is upper triangular with g_{0,0} = 0,
    g_{i,i} = z_i, and g_{c,c} = 1.
    """
    validate(params)
    lam, mu, c, alpha = params.lam, params.mu, params.c, params.alpha
    roots = quadratic_roots(params)
    g = np.diag(roots.z)
    j = np.arange(c + 1, dtype=float)
    q = lam + j * mu + (c - j) * alpha
    for h in range(1, c + 1):
        for i in range(0, c + 1 - h):
            k = i + h
            num = (c - i) * alpha * g[i + 1, k]
            if h > 1:
                num += lam * (g[i, i + 1 : k] @ g[i + 1 : k, k])
            # q_i - lam*(z_i + g_kk) = lam*(zhat_i - g_kk) > 0: g_kk <= 1
            den = q[i] - lam * (g[i, i] + g[k, k])
            g[i, k] = num / den
    return g


def level_rate_matrices(blocks: QbdBlocks, r_hom: np.ndarray) -> list:
    """Boundary matrices R^(1)..R^(c), index i of the result holding R^(i).

    Backward sweep: R^(i) solves X*A = -Q1^(i-1) with
    A = Q0^(i) + R^(i+1)*Qm1^(i+1) upper triangular, one triangular solve
    per level.  Index 0 is None (level 0 has no predecessor).

    The rows of A sum to -r*mu, because R^(i+1)*Qm1^(i+1)*e =
    Q1^(i)*G^(i+1)*e = lam*e.  Each diagonal entry is therefore formed as
    -(r*mu + its row's off-diagonal sum), a sum of nonnegative terms
    (Grassmann-Taksar-Heyman), and the triangular solve on this M-matrix
    with a same-signed right-hand side never subtracts either.
    """
    p = blocks.params
    lam, mu, c = p.lam, p.mu, p.c
    out: list = [None] * (c + 1)
    r_next = r_hom
    for i in range(c, 0, -1):
        a = blocks.level_q0(i).copy()
        if i == c:
            a += r_next * (mu * np.arange(c + 1))[None, :]
        else:
            # Qm1^(i+1) is diagonal plus one subdiagonal corner entry
            a += r_next[:, : i + 1] * (mu * np.arange(i + 1))[None, :]
            a[:, i] += r_next[:, i + 1] * (mu * (i + 1))
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -(mu * np.arange(i + 1) + a.sum(axis=1)))
        diag = np.diagonal(a)
        if np.any(np.abs(diag) < 1e-14):
            raise InternalInconsistencyError(
                f"singular diagonal in boundary solve at level {i}"
            )
        rhs = np.zeros((i + 1, i))
        rhs[:i, :] = -lam * np.eye(i)
        x = solve_triangular(a, rhs, trans="T", lower=False).T
        out[i] = x
        r_next = x
    return out


def g_levels(blocks: QbdBlocks, g_hom: np.ndarray) -> list:
    """Boundary matrices G^(1)..G^(c); each is (n+1) x n and row-stochastic.

    G^(n) = M^{-1} Qm1^(n) with M = -Q0^(n) - Q1^(n)*G^(n+1), whose rows
    sum to r*mu because G^(n+1) is row-stochastic.  Each diagonal entry is
    r*mu minus the row's nonpositive off-diagonal sum, so, as in
    level_rate_matrices, the sweep never subtracts.
    """
    p = blocks.params
    c = p.c
    out: list = [None] * (c + 1)
    g_next = g_hom
    for n in range(c, 0, -1):
        m = -blocks.level_q0(n)
        # Q1^(n) * G^(n+1) is lam times the first n+1 rows; the dropped row
        # is the corner one, so m stays exactly upper triangular
        m -= p.lam * g_next[: n + 1, :]
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, p.mu * np.arange(n + 1) - m.sum(axis=1))
        if np.any(np.abs(np.diagonal(m)) < 1e-14):
            raise InternalInconsistencyError(
                f"singular diagonal in passage solve at level {n}"
            )
        gn = solve_triangular(m, blocks.level_qm1(n), lower=False)
        out[n] = gn
        g_next = gn
    return out


def rate_matrix_from_g(blocks: QbdBlocks, g_hom: np.ndarray) -> np.ndarray:
    """Alternate route R = Q1 * (-Q0 - Q1*G)^{-1}, used as a certificate."""
    p = blocks.params
    m = -blocks.q0 - p.lam * g_hom
    return np.linalg.solve(m.T, p.lam * np.eye(p.c + 1)).T


@dataclass(eq=False)
class QbdSolution:
    """Stationary distribution in matrix-geometric form."""

    params: QueueParams
    R: np.ndarray
    rlevels: list
    G: np.ndarray
    glevels: list
    levels: tuple
    info: dict
    _dist: object = field(default=None, repr=False)

    def distribution(self) -> JointDistribution:
        if self._dist is None:
            c = self.params.c
            boundary = np.zeros((c + 1, max(c, 1)))
            for j in range(c):
                boundary[: j + 1, j] = self.levels[j]
            tail = GeometricTail(self.levels[c], self.R)
            self._dist = JointDistribution(
                self.params, boundary[:, :c], tail, "qbd", dict(self.info)
            )
        return self._dist

    def prob(self, i: int, j: int) -> float:
        return self.distribution().prob(i, j)

    def mean_jobs(self) -> float:
        return self.distribution().mean_jobs()

    def to_dict(self) -> dict:
        def mat(a: np.ndarray) -> dict:
            return {
                "rows": int(a.shape[0]),
                "cols": int(a.shape[1]),
                "data": [float(v) for v in a.reshape(-1)],
            }

        return {
            "params": params_to_dict(self.params),
            "R": mat(self.R),
            "G": mat(self.G) if self.G is not None else None,
            "levels": [v.tolist() for v in self.levels],
            "info": dict(self.info),
        }


def residuals(sol: QbdSolution) -> dict:
    """Certificate residuals, evaluated in extended precision.

    Everything here should sit at roundoff for a correct build; the values
    are reported rather than thresholded so callers can pick tolerances.
    """
    p = sol.params
    blocks = build_blocks(p)
    L = np.longdouble
    q1, q0, qm1 = blocks.q1.astype(L), blocks.q0.astype(L), blocks.qm1.astype(L)
    r = sol.R.astype(L)

    def infnorm(a) -> float:
        return float(np.abs(a).sum(axis=1).max())

    out = {"quad_R": infnorm(q1 + r @ q0 + r @ r @ qm1)}

    roots = quadratic_roots(p)
    out["r_diag"] = float(
        np.abs(np.diagonal(sol.R) * roots.zhat.astype(L) - 1.0).max()
    )

    lev = 0.0
    for i in range(p.c, 0, -1):
        ri = sol.rlevels[i].astype(L)
        rnext = (sol.R if i == p.c else sol.rlevels[i + 1]).astype(L)
        e = (
            blocks.level_q1(i - 1).astype(L)
            + ri @ blocks.level_q0(i).astype(L)
            + ri @ rnext @ blocks.level_qm1(i + 1).astype(L)
        )
        lev = max(lev, infnorm(e))
    out["level_R"] = lev
    out["boundary"] = float(abs(-p.lam + p.mu * sol.rlevels[1][0, 1]))

    if sol.G is not None:
        g = sol.G.astype(L)
        out["quad_G"] = infnorm(qm1 + q0 @ g + q1 @ g @ g)
        out["g_rows"] = float(np.abs(g.sum(axis=1) - 1.0).max())
        out["g_diag"] = float(np.abs(np.diagonal(sol.G) - roots.z).max())
        out["r_from_g"] = float(
            np.abs(sol.R - rate_matrix_from_g(blocks, sol.G)).max()
        )
        out["glevel_rows"] = max(
            float(np.abs(sol.glevels[n].sum(axis=1) - 1.0).max())
            for n in range(1, p.c + 1)
        )
    return out


def solve(params: QueueParams, with_g: bool = True) -> QbdSolution:
    """Full matrix-analytic solve.

    with_g=False skips the first-passage matrices when only probabilities
    are needed; R alone determines the stationary vectors.
    """
    validate(params)
    c = params.c
    blocks = build_blocks(params)
    r_hom = rate_matrix(params)
    rlev = level_rate_matrices(blocks, r_hom)

    # level-0 balance lam = mu*R^(1)[0,1]: with diagonals formed from row
    # sums, R^(1) = [lam/a01, lam/mu] by construction, so the gap is a few
    # roundoffs at any c; anything larger (or nan/inf) means the sweep broke
    gap = abs(-params.lam + params.mu * rlev[1][0, 1]) / params.lam
    if not gap <= 1e-12:
        raise InternalInconsistencyError(
            f"level-0 balance gap {gap!r} after the boundary sweep"
        )

    pi = [np.ones(1)]
    for i in range(1, c + 1):
        pi.append(pi[-1] @ rlev[i])
    eye = np.eye(c + 1)
    tail_sums = np.linalg.solve((eye - r_hom).T, pi[c])
    total = sum(float(v.sum()) for v in pi[:c]) + float(tail_sums.sum())
    levels = tuple(v / total for v in pi)

    info = {
        "method": "qbd",
        "spectral_radius": float(np.diagonal(r_hom).max()),
        "boundary_certificate": float(gap),
    }
    g_hom = glev = None
    if with_g:
        g_hom = g_matrix(params)
        glev = g_levels(blocks, g_hom)
    return QbdSolution(params, r_hom, rlev, g_hom, glev, levels, info)
