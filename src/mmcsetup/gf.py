"""Generating-function solver.

Conditioning on the number of on servers i and transforming the tail
j >= c turns the balance equations into a chain of functional equations

    f_i(z) * H_i(z) = (c-i+1) alpha H_{i-1}(z) + boundary terms,

with f_i(z) = (lambda + i mu + (c-i) alpha) z - lambda z^2 - i mu, whose
roots 0 <= z_i < 1 < zhat_i drive everything.  The boundary j < c of each
row follows a second-order linear recursion, a cut (up/down flow) equation
pins its diagonal entry, and its tail is a linear functional Lambda_i with
Lambda_i(t^(n+1)) = pi_{i,c+n}, supported on the nodes x_k = 1/zhat_k,
k <= i (a mixture of geometrics with ratios x_k).  Solving the row-i tail
recursion against a geometric input gives

    Lambda_i(g) = pi_{i,c-1} g(x_i)
                  + ((c-i+1) alpha / (i mu)) Lambda_{i-1}(t g[t, x_i] / (w_i - t))

with w_i = 1/z_i and g[t, x_i] the divided difference.

Numerics: written over the partial fractions (one coefficient per node)
this recursion cancels catastrophically once the nodes cluster, which they
do as c grows and near the confluent line alpha = mu (1 - rho), where they
all coincide.  Written in the Newton (divided-difference) basis over the
sorted nodes (de Boor, "Divided differences", 2005) it does not cancel: the
nodes x_k are monotone in k, so row i's new node goes last (alpha above
the line) or first (below it); inserting a last node multiplies only by
x_i - x_l >= 0, a first node just prepends a coefficient, and every kernel
product Lambda(t f / (w - t)) is one backward sweep of nonnegative terms.
The coefficients are stored against the basis scaled by prod 1/(1 - y_l),
which keeps them at the size of the row's tail mass, and each row is
rescaled by a power of two, so nothing under- or overflows before the
final normalisation.  One float64 pass therefore serves every c and the
confluent line; `solve(params, dps=...)` runs the same pipeline over
mpmath numbers at a pinned precision.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .distribution import JointDistribution, PoleTail, _frozen, falling_factorial
from .errors import InternalInconsistencyError, InvalidConfigError, certify
from .model import QueueParams

# highest factorial moment order computed per row
N_MOMENTS = 4
# largest relative gap accepted in either flow-balance certificate
BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class RootTable:
    """Roots of f_i per phase: z[i] in [0, 1], zhat[i] above 1.

    z[0] = 0 exactly, and zhat[0] = (lambda + c alpha)/lambda and
    zhat[c] = c mu / lambda are the outer roots of the degenerate pairs.  The
    gaps zhat_gap = zhat - 1 and z_gap = 1 - z (0 exactly at i = c) stay
    long doubles from `_roots`' closed form, so each keeps its digits when
    its root is near 1, and 1 + zhat_gap is zhat in long double.
    """

    z: np.ndarray
    zhat: np.ndarray
    zhat_gap: np.ndarray
    z_gap: np.ndarray


def _roots(params: QueueParams, one):
    """(z, zhat, zhat - 1, 1 - z) in the number type of `one`, with no
    subtraction (Higham 2002, section 1.8).  With b = (i mu - lam) +
    (c-i) alpha the gaps are d / (2 lam) and 2 (c-i) alpha / d for
    d = |b| + sqrt(b^2 + 4 lam (c-i) alpha) > 0, the larger being zhat - 1
    when b >= 0, and z = i mu / (lam zhat) (Vieta)."""
    c = params.c
    lam, mu, alpha = one * params.lam, one * params.mu, one * params.alpha
    # arrays lead: an mpmath number on the left would first try, and
    # expensively fail, to convert the whole array
    i = np.arange(c + 1) * one
    setup = (c - i) * alpha
    b = (i * mu - lam) + setup
    d = np.abs(b) + np.sqrt(b * b + setup * (4 * lam))
    big, small = d / (2 * lam), setup * 2 / d
    zhat_gap, z_gap = np.where(b >= 0, [big, small], [small, big])
    zhat = zhat_gap + 1
    return i * mu / (zhat * lam), zhat, zhat_gap, z_gap


@lru_cache(maxsize=1)
def quadratic_roots(params: QueueParams) -> RootTable:
    """All 2(c+1) roots and their gaps to 1, from `_roots` in long double.

    No separation check: coincident outer roots (the confluent line) are
    fine for every caller.  The last table is kept, its arrays read-only,
    so that the steps of one qbd solve (R, (I - R)^{-1}, the residuals)
    share it.
    """
    z, zhat, zhat_gap, z_gap = _roots(params, np.longdouble(1))
    return RootTable(*map(_frozen, (z.astype(float), zhat.astype(float), zhat_gap, z_gap)))


def _node_lists(x: np.ndarray, gaps: np.ndarray, prepend: bool):
    """Row i's ascending node list y (x_0..x_i, or x_i..x_0 when new nodes
    go first) and 1 - y, zero-padded to c + 1 columns (gap 1 there)."""
    c = len(x) - 1
    rows, cols = np.indices((c + 1, c + 1))
    k = np.where(cols <= rows, rows - cols if prepend else cols, -1)
    inside = k >= 0
    return np.where(inside, x[k], 0), np.where(inside, gaps[k], 1)


def _newton_pass(params, x, Y, G, wm1, zg, dx):
    """Boundary and Newton tail coefficients of every row, normalised.

    x: nodes 1/zhat_k; Y, G: each row's node list and 1 - node list
    (`_node_lists`); wm1[i] = w_i - 1 = (1 - z_i)/z_i; zg[i] = zhat_i - 1,
    the root gap; dx[i, l] =
    x_i - x_l >= 0 when new nodes go last, else None.  All arrays hold
    the pass's number type.  Returns pi[i, j] for j <= c, the Newton
    coefficients B[i, l] of row i's tail functional (see PoleTail) and the
    seam-cut gap (certified in `_solve`).
    """
    c = params.c
    xs = x.tolist()
    num = type(xs[0])
    lam, mu, alpha = num(params.lam), num(params.mu), num(params.alpha)
    pi = np.zeros((c + 1, c + 1), dtype=x.dtype)
    B = np.zeros_like(pi)
    s0 = np.zeros(c + 1, dtype=x.dtype)
    exps = [0] * (c + 1)  # row i is stored scaled by 2**-exps[i]
    two = num(2)
    steps = np.arange(1, c + 1)

    def store(i, row, coef, mass):
        # an exact power-of-two rescale keeps every row near 1; the scaled
        # row and coefficients go back as lists, for the next row to read
        e = math.frexp(float(max(max(row), max(coef))))[1]
        scale = two**-e
        pi[i] = row = [v * scale for v in row]
        B[i, : len(coef)] = coef = [v * scale for v in coef]
        s0[i] = mass * scale
        exps[i] = (exps[i - 1] if i else 0) + e
        return row, coef

    row = [num(1)]
    for j in range(1, c):
        row.append(row[-1] * lam / (lam + j * alpha))
    last = row[c - 1]
    row.append(last * xs[0])  # pi_{0,c} = Lambda_0(t)
    Y, G = Y.tolist(), G.tolist()
    if dx is not None:
        dx = dx.tolist()
    coef = [last / G[0][0]]
    below, prev = store(0, row, coef, coef[0] * xs[0])

    for i in range(1, c + 1):
        kappa = (c - i + 1) * alpha / (i * mu)
        y, g = Y[i - 1], G[i - 1]  # the first i entries are row i - 1's
        # Lambda_{i-1}(t f / (w - t)) = sum_l D[l] phi_l(f): one backward
        # sweep; E carries sum_{m > l} B_m prod_{l < k <= m} (1-y_k)/(w-y_k)
        w, wm = wm1[i] + 1, wm1[i]
        D = [None] * i
        E = 0 * w
        for l in range(i - 1, -1, -1):
            wy = wm + g[l]  # w - y_l, a sum of two nonnegative terms
            D[l] = (prev[l] * y[l] + w * E) / wy
            E = (prev[l] + E) * g[l] / wy
        start = kappa * D[0] * g[0]  # kappa Lambda_{i-1}(t / (w - t))
        row = [0 * w] * (c + 1)
        if i < c:
            # backward recursion pi_{i,j} = a_j + b_j pi_{i,j-1}, from
            # a_c = start and b_c = x_i, with b_j = lam / D_j.  The pivot
            # D_j = lam + i mu (1 - b_(j+1)) + (j-i) alpha is carried as
            # e_j = D_j - lam from e_c = lam (zhat_i - 1): every term of
            # e_j = (j-i) alpha + i mu e_(j+1) / (lam + e_(j+1)) is >= 0
            a, b = [None] * (c + 1), [None] * (c + 1)
            a[c], b[c] = start, xs[i]
            e = lam * zg[i]
            for j in range(c - 1, i, -1):
                e = (j - i) * alpha + i * mu * e / (lam + e)
                piv = lam + e
                if not piv > 0:
                    raise InternalInconsistencyError(
                        f"boundary recursion pivot D_{j} = {piv} <= 0 at row {i}"
                    )
                b[j] = lam / piv
                a[j] = (i * mu * a[j + 1] + (j - i + 1) * alpha * below[j]) / piv
            up = num(pi[i - 1, i:c] @ steps[: c - i] + (c - i + 1) * s0[i - 1])
            row[i] = alpha * up / (i * mu)
            for j in range(i + 1, c + 1):
                row[j] = a[j] + b[j] * row[j - 1]
        else:
            row[c] = start  # pi_{c,c-1} = 0: the cut equation
        last = row[c - 1]
        # the new node goes first (one prepended coefficient) or last (a
        # Horner pass over the factors x_i - x_l >= 0)
        yi, gi = Y[i], G[i]
        if dx is None:
            coef = [last / gi[0]] + [kappa * d / gi[0] for d in D]
        else:
            diff = dx[i]
            coef = [last / gi[0]]
            for l in range(1, i + 1):
                coef.append((coef[-1] * diff[l - 1] + kappa * D[l - 1]) / gi[l])
        below, prev = store(i, row, coef, coef[0] * yi[0] + sum(coef[1:]))

    def weighted(values, top):
        # values[i] 2**(exps[i] - top), in two factors so that neither leaves
        # float64's range where the product stays inside it; a zero stays zero
        try:
            return np.array([v and v * two ** ((e - top) // 2) * two ** (e - top - (e - top) // 2)
                             for v, e in zip(values, exps)], dtype=x.dtype)
        except OverflowError:
            raise InternalInconsistencyError("gf row scales span past float64's range") from None

    # the seam cut lambda sum_i pi_{i,c-1} = mu sum_i i pi_{i,c}, weighted
    # relative to its own largest term: at low load the levels near c can
    # lie below the smallest float64 once normalised
    ref = max(e + math.frexp(v)[1] for e, v in zip(exps, pi[:, c].tolist()) if v)
    down = mu * weighted(np.arange(c + 1) * pi[:, c], ref).sum()
    seam_gap = abs(lam * weighted(pi[:, c - 1], ref).sum() / down - 1)
    scale = weighted([1] * (c + 1), max(exps))
    pi *= scale[:, None]
    B *= scale[:, None]
    # columns 0..c-1 of each row plus its tail mass; column c belongs to
    # the tail already
    total = pi[:, :c].sum() + s0 @ scale
    return pi / total, B / total, float(seam_gap)


def _head_moments(pi: np.ndarray, n_max: int) -> np.ndarray:
    """head[i, n] = sum_{i <= j < c} pi_{i,j} (j-i)_n, the boundary part of
    row i's n-th factorial moment (zero in row c)."""
    c = pi.shape[0] - 1
    d = np.subtract.outer(-np.arange(c + 1), -np.arange(c))  # j - i
    return np.stack(
        [(pi[:, :c] * falling_factorial(d, n)).sum(axis=1) for n in range(n_max + 1)], axis=1
    )


@dataclass
class GfSolution:
    """Everything the generating-function method produces for one parameter set.

    boundary[i, j] is pi_{i,j} for j <= c (column c, the first tail level,
    included for convenience); tail is the pass's PoleTail; moments_full[i, n]
    is the n-th factorial moment of the row-i generating function at 1, formed
    on first read and kept.  All three hold the pass's numbers: float64, or
    mpmath numbers when `solve` ran at a pinned precision, in which case the
    moments are formed at the pass's digits.  `distribution()` is float64
    either way.
    """

    params: QueueParams
    boundary: np.ndarray
    tail: PoleTail
    info: dict
    _joint: JointDistribution = field(repr=False)

    @cached_property
    def moments_full(self) -> np.ndarray:
        dps = self.info["precision_digits"]
        if dps is None:
            digits = nullcontext()
        else:
            import mpmath as mp

            digits = mp.workdps(dps)
        with digits:
            return _head_moments(self.boundary, N_MOMENTS) + self.tail.factorial_moments(N_MOMENTS)

    def distribution(self) -> JointDistribution:
        """The distribution the solve built, the same object on every call."""
        return self._joint


def _solve(params: QueueParams, one, dps: int | None) -> GfSolution:
    """One pass in the number type of `one`, certified by its two flow-balance
    gaps, each against BALANCE_TOL; the job flow reads the row masses
    (boundary row sums plus tail masses, order 0 of the factorial moments).
    The higher moments wait for `GfSolution.moments_full`."""
    c = params.c
    z, zh, zh_gap, z_gap = _roots(params, one)
    dtype = float if dps is None else object
    x = 1 / zh
    prepend = bool(zh[0] < zh[c])  # nodes x_k decrease: below the line
    Y, G = _node_lists(x, zh_gap / zh, prepend)
    wm1 = np.concatenate([[0 * one], z_gap[1:] / z[1:]])
    # x_i - x_l >= 0 for l < i above the line; the clamp only absorbs
    # roundoff on it, where all nodes coincide
    dx = None if prepend else np.maximum(np.subtract.outer(x, x), 0).astype(dtype)
    Y, G = Y.astype(dtype), G.astype(dtype)
    gaps = [a.astype(dtype).tolist() for a in (wm1, zh_gap)]
    pi, B, seam_gap = _newton_pass(params, x.astype(dtype), Y, G, *gaps, dx)
    pt = PoleTail(B, Y, G)
    masses = pi[:, :c].sum(axis=1) + pt.sum0()
    # job_flow_gap: |mu E[active] / lambda - 1| (Little's law for the
    # servers, from the phase masses); seam_cut_gap: |lambda sum_i
    # pi_{i,c-1} / (mu sum_i i pi_{i,c}) - 1|, the up- and down-flow across
    # the cut between levels c - 1 and c, from `_newton_pass`
    job_flow = float(abs(params.mu * (np.arange(c + 1) @ masses) / params.lam - 1))
    info = {
        "precision_digits": dps,
        "job_flow_gap": certify("gf job_flow_gap", job_flow, BALANCE_TOL),
        "seam_cut_gap": certify("gf seam_cut_gap", seam_gap, BALANCE_TOL),
    }
    tail = pt if dps is None else PoleTail(*(np.asarray(a, dtype=float) for a in (B, Y, G)))
    joint = JointDistribution(params, pi[:, :c].astype(float), tail, "gf", dict(info))
    return GfSolution(params, pi, pt, info, joint)


def solve(params: QueueParams, dps: int | None = None) -> GfSolution:
    """Solve the queue by the generating-function method, in one float64 pass.

    dps: run the same pass over mpmath numbers at this many digits instead
        (boundary, tail and moments then hold mpmath numbers); anything but
        a positive int raises InvalidConfig before any pass runs.
    """
    if dps is None:
        return _solve(params, np.longdouble(1), None)
    if not isinstance(dps, (int, np.integer)) or isinstance(dps, bool) or dps < 1:
        raise InvalidConfigError(f"dps must be a positive int, got {dps!r}")
    import mpmath as mp

    with mp.workdps(dps):
        return _solve(params, mp.mpf(1), dps)
