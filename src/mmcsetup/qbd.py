"""Matrix-analytic solver: level = job count, phase = running servers.

The chain is a quasi-birth-and-death process, level-independent from level
c upward and level-dependent below.  Every function takes the QueueParams,
and no generator block is formed whole: level_q0 is the within-level block,
times_qm1 multiplies by the service block, and the arrival block is lam*I.

The rate matrix R is upper triangular with diagonal r_{i,i} = 1/zhat_i.
Each column above the diagonal solves one small upper-triangular system in
terms of the columns before it, with positive pivots formed from the root
gaps zhat_i - 1 and 1 - z_k, nonpositive off-diagonals and a nonnegative
right-hand side.  No iteration, no cancellation: R stays accurate at slow
setup and on the line alpha = mu (1 - rho), where the zhat_i collide.  The
first-passage matrix G = R*Qm1/lam is a column scaling of R (see g_matrix).

Boundary levels get their own rectangular R^{(i)} from a backward sweep
that inverts one upper-triangular M-matrix per level in place, by recursive
halving, subtraction-free as well (see level_rate_matrices).  Each R^{(i)}
is held as its packed upper triangle (about 86 MB in all at c = 400,
against 171 MB dense); the boundary G^{(n)} are read off them and never
stored (see g_levels).  QbdSolution.rlevels and QbdSolution.glevels are
lazy sequences (see LevelView) that form one dense level per read.

Stationary vectors: pi_0 = (1), pi_i = pi_{i-1} R^{(i)} up to level c, each
product read off the packed triangle by BLAS dtpmv (solve unpacks only
R^{(1)}, for the level-0 balance check), then pi_{c+k} = pi_c R^k.  One
(I - R)^{-1} per solve, its diagonal formed from
the root gaps (see tail_inverse), sums the tail exactly, both for the
normalisation and for the GeometricTail's sums.

scipy's BLAS and LAPACK handles are imported by the function that uses
them, never inside the sweep or the recursion, so importing mmcsetup (and
the gf route) does not load scipy.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .distribution import GeometricTail, JointDistribution
from .errors import InternalInconsistencyError
from .gf import quadratic_roots
from .model import QueueParams

__all__ = [
    "LevelView",
    "QbdSolution",
    "level_q0",
    "times_qm1",
    "rate_matrix",
    "level_rate_matrices",
    "g_matrix",
    "g_levels",
    "rate_matrix_from_g",
    "tail_inverse",
    "residuals",
    "solve",
]


def level_q0(params: QueueParams, n: int) -> np.ndarray:
    """Within-level generator block Q0^(n): setup completions above the
    diagonal, minus each phase's total outflow on it.  For n >= c this is
    the homogeneous Q0, (c+1)-square."""
    m = min(n, params.c)
    i = np.arange(m + 1, dtype=float)
    out = np.zeros((m + 1, m + 1))
    # below level c only j - i of the c - i off servers are warming; from
    # level c on, all of them are
    setup = (m - i) * params.alpha
    out[np.arange(m), np.arange(1, m + 1)] = setup[:m]
    np.fill_diagonal(out, -(params.lam + i * params.mu + setup))
    return out


def times_qm1(
    params: QueueParams, r: np.ndarray, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """r @ Qm1^(n), the service block from level n to n-1, without forming
    the block: a column scaling by the service rates, plus, below level c,
    the corner column (a departure from the all-busy corner i = j = n shuts
    one server).  out, if given, receives the product."""
    mu = params.mu
    if n > params.c:
        return np.multiply(r, np.arange(params.c + 1) * mu, out=out)
    out = np.multiply(r[:, :n], mu * np.arange(n), out=out)
    out[:, n - 1] += r[:, n] * (n * mu)
    return out


def rate_matrix(params: QueueParams) -> np.ndarray:
    """Minimal nonnegative R with lam*I + R*Q0 + R^2*Qm1 = 0.

    The diagonal holds the reciprocals of the large quadratic roots.  Column
    k above it solves one upper-triangular system in the unknowns r_{i,k},
    i < k, whose matrix diag(q_k - k*mu*(r_ii + r_kk)) - k*mu*triu(R[:k,:k], 1)
    needs only the columns already built.  By f_k(zhat_k) = 0 and Vieta
    (k*mu = lam*zhat_k*z_k) its pivots are
    lam*zhat_k*((zhat_i - 1) + (1 - z_k))/zhat_i, formed in long double from
    the two root gaps without a subtraction (Higham 2002, ch. 1) and rounded
    once.  Its off-diagonals are nonpositive and the right-hand side
    (c-k+1)*alpha*R[:k, k-1] is nonnegative, so back substitution only ever
    adds nonnegative terms.
    """
    from scipy.linalg.lapack import dtrtrs

    lam, mu, c, alpha = params.lam, params.mu, params.c, params.alpha
    roots = quadratic_roots(params)
    r = np.diag(1.0 / roots.zhat)
    zh = 1 + roots.zhat_gap
    # pivots[i, k] for every i < k at once
    gaps = np.add.outer(roots.zhat_gap, roots.z_gap)
    pivots = (gaps * (lam * zh) / zh[:, None]).astype(float)
    work = np.empty(c * c)  # each column's system matrix, reused
    for k in range(1, c + 1):
        flat = work[: k * k]
        m = np.multiply(r[:k, :k], -k * mu, out=flat.reshape(k, k))
        flat[:: k + 1] = pivots[:k, k]
        # LAPACK reads the C-order upper triangle m in place as the transpose
        # of a lower-triangular Fortran array
        rhs = (c - k + 1) * alpha * r[:k, k - 1]
        r[:k, k], info = dtrtrs(m.T, rhs, lower=1, trans=1)
        if info != 0:
            raise InternalInconsistencyError(f"zero pivot {info} in a column solve")
    return r


def g_matrix(params: QueueParams, r_hom: np.ndarray) -> np.ndarray:
    """First-passage matrix G for the homogeneous part, row-stochastic.

    g_{i,j} is the probability that, starting one level up in phase i, the
    first entry to the level below happens in phase j.  Read off R with no
    solve (Latouche & Ramaswami, 1999): Q1 = lam*I, so R = lam*N and
    G = N*Qm1 share N = (-Q0 - R*Qm1)^{-1}, and G = R*Qm1/lam is a column
    scaling of R.  It is upper triangular with g_{0,0} = 0,
    g_{i,i} = z_i (Vieta) and g_{c,c} = 1.
    """
    return times_qm1(params, r_hom, params.c + 1) / params.lam


_LEAF = 64  # largest block _invert_lower hands to LAPACK's dtrtri whole


def _invert_lower(dtrtri, dtrmm, x: np.ndarray) -> None:
    """Invert the lower triangle of the square x in place, by recursion.

    With x = [L11 0; L21 L22] split at k = n//2, the inverse is
    [X11 0; X21 X22] with Xjj = Ljj^{-1} and the corner X21 = -X22*L21*X11,
    two dtrmm products (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Rev.
    46, 2004), so almost all the flops run in level-3 BLAS.  Blocks of at
    most _LEAF go to dtrtri.  The strict upper triangle is left as it was.
    """
    n = x.shape[0]
    if n <= _LEAF:
        inv, info = dtrtri(x, lower=1, overwrite_c=1)
        if info != 0:
            raise InternalInconsistencyError(
                f"triangular inverse failed (info {info})"
            )
        if inv is not x:  # dtrtri worked on a copy of a strided block
            x[...] = inv
        return
    k = n // 2
    _invert_lower(dtrtri, dtrmm, x[:k, :k])
    _invert_lower(dtrtri, dtrmm, x[k:, k:])
    t = dtrmm(1.0, x[:k, :k], x[k:, :k], side=1, lower=1)
    x[k:, :k] = dtrmm(-1.0, x[k:, k:], t, lower=1, overwrite_b=1)


class LevelView(Sequence):
    """Levels 0..c of a boundary family, formed one per access.

    Index 0 is None (level 0 has no predecessor); index n > 0 is form(n), a
    fresh dense array each time it is read.  A slice is a view over the
    same form, so ``for g in sol.glevels[1:]`` holds one level at a time.
    """

    __slots__ = ("_form", "_idx")

    def __init__(self, form, idx: range):
        self._form, self._idx = form, idx

    def __len__(self) -> int:
        return len(self._idx)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return LevelView(self._form, self._idx[k])
        return self._level(self._idx[k])

    def __iter__(self):
        return map(self._level, self._idx)

    def _level(self, n: int):
        return None if n == 0 else self._form(n)


class _Packed:
    """R^(1)..R^(c) as packed triangles: tri[n] holds, row by row, the upper
    triangle of the (n+1)-square whose first n rows are R^(n) (LAPACK's
    column-major lower packing of its transpose, (n+1)(n+2)/2 floats).
    Called with n, it forms the dense R^(n)."""

    __slots__ = ("tri",)

    def __init__(self, tri: list):
        self.tri = tri

    def __call__(self, n: int) -> np.ndarray:
        # imported per read, not bound into the view, so a solution still
        # pickles
        from scipy.linalg.lapack import dtpttr

        a, _ = dtpttr(n + 1, self.tri[n], uplo="L")
        # the Fortran lower triangle read as C order is the upper one; the
        # last row of the unpacked square is dropped
        return a.T[:n]

    def forward(self) -> list:
        """pi_0 = (1) and pi_i = pi_(i-1) R^(i) up to level c, unnormalised.

        pi_i = [pi_(i-1), 0] S_i for the square S_i whose first i rows are
        R^(i): BLAS dtpmv multiplies that column by the packed lower
        triangle S_i^T, so no level is unpacked."""
        from scipy.linalg.blas import dtpmv

        pi = [np.ones(1)]
        for n in range(1, len(self.tri)):
            x = np.append(pi[-1], 0.0)
            pi.append(dtpmv(n + 1, self.tri[n], x, lower=1, overwrite_x=1))
        return pi


def level_rate_matrices(params: QueueParams, r_hom: np.ndarray) -> LevelView:
    """Boundary matrices R^(1)..R^(c), index i of the result holding R^(i).

    Backward sweep: R^(i) solves X*A = -Q1^(i-1) = -lam*[I | 0] with
    A = Q0^(i) + R^(i+1)*Qm1^(i+1) upper triangular, so R^(i) is -lam times
    the first i rows of A^{-1}.  A is built in one reused workspace, its
    setup rates and diagonal written through strided views of it, and
    inverted there by _invert_lower (a recursive blocked inverse, in place);
    -lam*A^{-1} goes to a second reused buffer, whose first i rows are the
    R^(i) the next level reads, and is kept as its packed upper triangle
    ((i+1)(i+2)/2 floats, LAPACK dtrttp), half the dense size.  The result
    unpacks one R^(i) per access (dtpttr; see LevelView); solve's forward
    pass reads the packed triangles themselves (dtpmv) and unpacks none.

    The rows of A sum to -r*mu, because R^(i+1)*Qm1^(i+1)*e =
    Q1^(i)*G^(i+1)*e = lam*e.  Each diagonal entry is therefore formed as
    -(r*mu + its row's off-diagonal sum), a sum of nonnegative terms
    (Grassmann-Taksar-Heyman), and inverting this M-matrix never subtracts
    either: the diagonal blocks of A^{-1} are <= 0 and the off-diagonal
    entries of A >= 0, so each recursive corner -X22*L21*X11 is, entry by
    entry, a sum of same-signed products like every dtrtri entry.
    """
    from scipy.linalg.blas import dtrmm
    from scipy.linalg.lapack import dtrtri, dtrttp

    lam, mu, alpha, c = params.lam, params.mu, params.alpha, params.c
    packed: list = [None] * (c + 1)
    work = np.empty((c + 1) ** 2)
    scaled = np.empty((c + 1) ** 2)
    r_next = r_hom
    for i in range(c, 0, -1):
        n = i + 1
        flat = work[: n * n]
        a = flat.reshape(n, n)
        times_qm1(params, r_next, n, out=a)
        # the setup rates of Q0^(i) go on the superdiagonal; the diagonal is
        # zeroed, then formed from the row sums.  The diagonal is computed
        # out of place: numpy 2.4's in-place np.negative on a view with a
        # stride of 8 elements has returned wrong values.
        flat[1 :: n + 1] += (i - np.arange(i)) * alpha
        flat[:: n + 1] = 0.0
        diag = -(mu * np.arange(n) + a.sum(axis=1))
        if not np.abs(diag).min() >= 1e-14:  # a nan trips it too
            raise InternalInconsistencyError(
                f"singular diagonal in boundary solve at level {i}"
            )
        flat[:: n + 1] = diag
        # the transpose of a C-order upper triangle is a Fortran lower one
        _invert_lower(dtrtri, dtrmm, a.T)
        b = np.multiply(a, -lam, out=scaled[: n * n].reshape(n, n))
        packed[i], _ = dtrttp(b.T, uplo="L")
        r_next = b[:i]
    return LevelView(_Packed(packed), range(c + 1))


def _g_level(params: QueueParams, rlevels: Sequence, n: int) -> np.ndarray:
    gn = np.empty((n + 1, n))
    np.divide(times_qm1(params, rlevels[n], n), params.lam, out=gn[:n])
    gn[n] = 0.0
    gn[n, n - 1] = 1.0
    return gn


def g_levels(params: QueueParams, rlevels: Sequence) -> LevelView:
    """Boundary matrices G^(1)..G^(c); each is (n+1) x n and row-stochastic.

    Read off the boundary rate matrices, with no solve (Latouche &
    Ramaswami, 1999): R^(n) = Q1^(n-1)*N and G^(n) = N*Qm1^(n) share
    N = (-Q0^(n) - R^(n+1)*Qm1^(n+1))^{-1}.  The first n rows of N are
    R^(n)/lam, and its last row is e_n/(n*mu) because the last row of
    -Q0^(n) - R^(n+1)*Qm1^(n+1) is n*mu*e_n (its row sum, which
    level_rate_matrices puts on the diagonal exactly).  So
    G^(n) = [R^(n)*Qm1^(n)/lam ; e_{n-1}], a column scaling of R^(n) plus
    the corner column, and every entry is a sum of nonnegative terms.
    rlevels is any sequence of dense R^(n); each G^(n) is formed from
    rlevels[n] when it is read (see LevelView).
    """
    return LevelView(partial(_g_level, params, rlevels), range(params.c + 1))


def rate_matrix_from_g(params: QueueParams, g_hom: np.ndarray) -> np.ndarray:
    """R = Q1 * (-Q0 - Q1*G)^{-1}, used as a certificate.

    -Q0 - lam*G is upper triangular, so this is one triangular solve.  With
    G = R*Qm1/lam from g_matrix it checks R's fixed-point form
    R = lam*(-Q0 - R*Qm1)^{-1}; it is not an independent route.
    """
    from scipy.linalg import solve_triangular

    lam, c = params.lam, params.c
    m = -level_q0(params, c) - lam * g_hom
    return solve_triangular(m, lam * np.eye(c + 1), check_finite=False)


def tail_inverse(params: QueueParams, r_hom: np.ndarray) -> np.ndarray:
    """(I - R)^{-1}, so that sum_{m >= 0} pi_c R^m = pi_c (I - R)^{-1}.

    I - R is an upper-triangular M-matrix, so LAPACK's triangular inverse
    sums same-signed terms only and the inverse stays nonnegative.  Its
    diagonal 1 - 1/zhat_i is taken as zhat_gap_i / (1 + zhat_gap_i), with no
    subtraction next to 1 to cost the tail sums digits at slow setup.
    """
    from scipy.linalg.lapack import dtrtri

    gap = quadratic_roots(params).zhat_gap
    a = np.eye(params.c + 1) - r_hom
    np.fill_diagonal(a, (gap / (1 + gap)).astype(float))
    inv, info = dtrtri(a, lower=0)
    if info != 0:
        raise InternalInconsistencyError(f"I - R singular (dtrtri info {info})")
    return inv


def _boundary_gap(params: QueueParams, r1: np.ndarray) -> float:
    """Level-0 balance gap |mu*R^(1)[0,1] - lam|, relative to lam."""
    return abs(-params.lam + params.mu * r1[0, 1]) / params.lam


@dataclass(eq=False)
class QbdSolution:
    """Stationary distribution in matrix-geometric form."""

    params: QueueParams
    R: np.ndarray
    tail_inv: np.ndarray  # (I - R)^{-1}, see tail_inverse
    rlevels: Sequence
    G: np.ndarray
    levels: tuple
    info: dict
    _dist: object = field(default=None, repr=False)

    def distribution(self) -> JointDistribution:
        if self._dist is None:
            c = self.params.c
            boundary = np.zeros((c + 1, c))
            for j in range(c):
                boundary[: j + 1, j] = self.levels[j]
            tail = GeometricTail(self.levels[c], self.R, self.tail_inv)
            self._dist = JointDistribution(
                self.params, boundary, tail, "qbd", dict(self.info)
            )
        return self._dist

    @property
    def glevels(self) -> LevelView | None:
        """G^(1)..G^(c), formed from rlevels one per read (g_levels), or
        None without G."""
        if self.G is None:
            return None
        return g_levels(self.params, self.rlevels)


def _split(a):
    """a = hi + lo with halves of at most 26 bits (Veltkamp)."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, b):
    """a*b = p + e exactly, elementwise (Dekker)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ah * bh - p
    e += ah * bl
    e += al * bh
    e += al * bl
    return p, e


def _two_sum(a, b):
    """a + b = s + t exactly, elementwise (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _bracket(q0, r, rates):
    """q0 + r @ Qm1 as an unevaluated pair hi + lo, exact to about 2^-106.

    Qm1 scales column j of r by rates[j]; a column of r beyond q0's (the
    all-busy corner of a boundary Qm1^(n)) folds onto the last one, as in
    times_qm1.
    """
    n = q0.shape[1]
    p, e = _two_product(r, rates[: r.shape[1]])
    if r.shape[1] > n:
        p[:, n - 1], t = _two_sum(p[:, n - 1], p[:, n])
        e[:, n - 1] += e[:, n] + t
        p, e = p[:, :n], e[:, :n]
    hi, t = _two_sum(p, q0)
    return hi, e + t


def _lead(a, axis, beta):
    """a = a0 + (a - a0) exactly, a0 the leading beta bits of each row
    (axis 1) or column (axis 0) of a, relative to its max."""
    top = np.frexp(np.abs(a).max(axis=axis, keepdims=True))[1]
    sigma = np.ldexp(1.0, top + (53 - beta))
    a0 = (a + sigma) - sigma
    return a0, a - a0


def _exact_product(c, x, hi, lo):
    """c + x @ (hi + lo) in float64 BLAS (Ozaki's error-free splitting).

    x0 and y0 keep the leading beta = floor((53 - ceil(log2 k))/2) bits of
    each row of x and column of hi (k inner), so the terms of x0 @ y0 are
    integers below 2^(2 beta) times one power of two: no BLAS order rounds
    them, and c + x0 @ y0 cancels exactly.  The exact remainders sit 2^-beta
    below their row or column max, so the error is about 2^-74 of
    |x| @ max|hi|, plus 2^-52 of the result.
    """
    beta = (53 - (x.shape[1] - 1).bit_length()) // 2
    x0, xr = _lead(x, 1, beta)
    y0, yr = _lead(hi, 0, beta)
    out = c + x0 @ y0
    out += x0 @ (yr + lo) + xr @ hi
    return out


def residuals(sol: QbdSolution) -> dict:
    """Certificate residuals: absolute infinity-norm defects.

    Each bracket (Q0 + R*Qm1, its boundary forms, Q0 + lam*G) is an exact
    float64 pair, multiplied by _exact_product: the identities cancel
    without rounding, and a nan or inf in R, an R^(i) or G gives a nan or
    inf defect.  Everything here should sit at roundoff for a correct build;
    the values are reported rather than thresholded so callers can pick
    tolerances.
    """
    p = sol.params
    L = np.longdouble  # for the O(c) and O(c^2) sums only
    rates = p.mu * np.arange(p.c + 2)
    q0, q1 = level_q0(p, p.c), p.lam * np.eye(p.c + 1)

    def infnorm(a, axis=1) -> float:
        return float(np.abs(a).sum(axis=axis).max())

    # Q0 + R*Qm1 is also the level-c bracket below
    hi, lo = _bracket(q0, sol.R, rates)
    out = {"quad_R": infnorm(_exact_product(q1, sol.R, hi, lo))}

    roots = quadratic_roots(p)
    out["r_diag"] = float(
        np.abs(np.diagonal(sol.R) * roots.zhat.astype(L) - 1.0).max()
    )

    # Q1^(i-1) + R^(i)*(Q0^(i) + R^(i+1)*Qm1^(i+1)), the bracket built from
    # the raw blocks rather than the row-sum diagonal the sweep used; each
    # R^(i) is read once and carried down as the level above
    norms, rows = [], []
    for i in range(p.c, 0, -1):
        if i < p.c:
            hi, lo = _bracket(level_q0(p, i), r_above, rates)
        r_above = sol.rlevels[i]
        # Q1^(i-1) = lam*[I | 0] is a corner of Q1
        prod = _exact_product(q1[:i, : i + 1], r_above, hi, lo)
        norms.append(infnorm(prod))
        if sol.G is not None:
            # G^(n)'s rows but the last (a unit row) sum to R^(n)*v_n/lam,
            # with v_n = Qm1^(n)*e = mu*(0, 1, .., n), so no G^(n) is formed
            rows.append(r_above @ rates[: i + 1] / p.lam - 1.0)
    out["level_R"] = float(np.max(norms))  # unlike max(), keeps a nan
    out["boundary"] = float(_boundary_gap(p, r_above))  # r_above is R^(1)

    if sol.G is not None:
        # Qm1 + (Q0 + lam*G)*G, transposed so the pair is the right factor
        hi, lo = _bracket(q0, sol.G, np.full(p.c + 1, p.lam))
        prod = _exact_product(np.diag(rates[: p.c + 1]), sol.G.T, hi.T, lo.T)
        out["quad_G"] = infnorm(prod, axis=0)
        g = sol.G.astype(L)
        out["g_rows"] = float(np.abs(g.sum(axis=1) - 1.0).max())
        out["g_diag"] = float(np.abs(np.diagonal(sol.G) - roots.z).max())
        out["r_from_g"] = float(
            np.abs(sol.R - rate_matrix_from_g(p, sol.G)).max()
        )
        out["glevel_rows"] = float(np.max(np.abs(np.concatenate(rows))))
    return out


def solve(params: QueueParams, with_g: bool = True) -> QbdSolution:
    """Full matrix-analytic solve.

    with_g=False skips G, and with it glevels, when only probabilities are
    needed; R alone determines the stationary vectors.
    """
    c = params.c
    r_hom = rate_matrix(params)
    rlev = level_rate_matrices(params, r_hom)

    # level-0 balance lam = mu*R^(1)[0,1]: with diagonals formed from row
    # sums, R^(1) = [lam/a01, lam/mu] by construction, so the gap is a few
    # roundoffs at any c; anything larger (or nan/inf) means the sweep broke
    gap = _boundary_gap(params, rlev[1])
    if not gap <= 1e-12:
        raise InternalInconsistencyError(
            f"level-0 balance gap {gap!r} after the boundary sweep"
        )

    pi = rlev._form.forward()  # the sweep's packed levels
    tail_inv = tail_inverse(params, r_hom)
    tail_sum = float((pi[c] @ tail_inv).sum())  # sum_k pi_c R^k
    total = sum(float(v.sum()) for v in pi[:c]) + tail_sum
    levels = tuple(v / total for v in pi)

    info = {
        "method": "qbd",
        "spectral_radius": float(np.diagonal(r_hom).max()),
        "boundary_certificate": float(gap),
    }
    g_hom = g_matrix(params, r_hom) if with_g else None
    return QbdSolution(params, r_hom, tail_inv, rlev, g_hom, levels, info)
