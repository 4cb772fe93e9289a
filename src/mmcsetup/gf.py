"""Generating-function solver.

Conditioning on the number of on servers i and transforming the tail
j >= c turns the balance equations into a chain of functional equations

    f_i(z) * H_i(z) = (c-i+1) alpha H_{i-1}(z) + boundary terms,

with f_i(z) = (lambda + i mu + (c-i) alpha) z - lambda z^2 - i mu, whose
roots 0 <= z_i < 1 < zhat_i drive everything.  The tail of row i is a
mixture of geometrics with ratios 1/zhat_0..1/zhat_i (partial fractions
over the poles zhat_k), the boundary j < c follows a second-order linear
recursion, and cut (up/down flow) equations pin the diagonal entries.

Numerics: the partial-fraction coefficients A[i, k] are enormous and
alternating whenever the poles cluster, which they do as c grows (all
c+1 poles live between min(zhat_0, zhat_c) and max of them) and near the
degenerate surface c*alpha = c*mu - lambda where every pole coincides.
The solver first runs a cheap float64 pass that tracks coefficient
magnitudes in log space; if the predicted cancellation error is not
comfortably below 1e-12 it reruns the same pipeline in mpmath with just
enough digits and hands the exact coefficients to the tail, which then
evaluates its levels at that precision.  Every stage is written once over
the number type: numpy float64 arrays in the probe, object arrays of
mpmath numbers in the extended-precision passes.  Exactly coincident
poles have no partial-fraction form at all and raise DegeneratePolesError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy.special import logsumexp

from .distribution import JointDistribution, PoleTail, pole_sums
from .errors import DegeneratePolesError, InternalInconsistencyError
from .model import QueueParams, validate

# pairwise relative pole gap below which the partial-fraction form is refused
GAP_TOL = 1e-9
# largest coefficient magnitude for which plain float64 keeps errors < ~1e-12
DOUBLE_COEFF_LIMIT = 10.0
# hard precision ceiling; needing more means the poles are effectively degenerate
DPS_CAP = 1200
# recursion-vs-direct moment agreement required to trust a float64 pass
MOMENT_CERT_DOUBLE = 1e-11
# same certificate inside the mp escalation loop
MOMENT_CERT_MP = 1e-12
# highest factorial moment order computed (and cross-checked) per row
N_MOMENTS = 4


@dataclass(frozen=True)
class RootTable:
    """Roots of f_i per phase: z[i] inside (0,1), zhat[i] above 1.

    z[0] = 0 and zhat[0] = (lambda + c alpha)/lambda are the degenerate
    i = 0 pair; z[c] = 1 and zhat[c] = c mu / lambda exactly.
    """

    z: np.ndarray
    zhat: np.ndarray


def quadratic_roots(params: QueueParams) -> RootTable:
    """All 2(c+1) roots, Newton-polished in extended precision.

    No separation check: coincident outer roots are fine for callers that
    only need the root values themselves (diagonals of the matrix-analytic
    R and G, for instance).
    """
    validate(params)
    c = params.c
    L = np.longdouble
    lam, mu, alpha = L(params.lam), L(params.mu), L(params.alpha)
    i = np.arange(c + 1, dtype=np.longdouble)
    s = lam + i * mu + (c - i) * alpha
    disc = s * s - 4.0 * i * lam * mu
    sq = np.sqrt(disc)
    zhat = (s + sq) / (2.0 * lam)  # stable: no subtraction
    z = 2.0 * i * mu / (s + sq)
    for _ in range(3):
        for arr in (z, zhat):
            f = s * arr - lam * arr * arr - i * mu
            fp = s - 2.0 * lam * arr
            step = np.where(fp != 0.0, f / np.where(fp != 0.0, fp, 1.0), 0.0)
            arr -= step
    zhat[0] = (lam + c * alpha) / lam
    z[0] = 0.0
    zhat[c] = c * mu / lam
    z[c] = 1.0
    zf = np.asarray(z, dtype=float)
    zhf = np.asarray(zhat, dtype=float)
    return RootTable(z=zf, zhat=zhf)


def _closest_pair(zhat: np.ndarray) -> tuple[float, DegeneratePolesError]:
    """Smallest relative gap between two outer roots, and the error naming them."""
    order = np.argsort(zhat)
    gaps = np.diff(zhat[order]) / zhat[order][1:]
    k = int(np.argmin(gaps))
    a, b = int(order[k]), int(order[k + 1])
    return float(gaps[k]), DegeneratePolesError(a, b, zhat[a], zhat[b])


def characteristic_roots(params: QueueParams) -> RootTable:
    """Root table for the partial-fraction tail form.

    Raises DegeneratePolesError when two outer roots agree to better than
    GAP_TOL relative, which happens exactly on (and numerically near) the
    surface c alpha = c mu - lambda where the tail closed form degenerates.
    """
    table = quadratic_roots(params)
    gap, degenerate = _closest_pair(table.zhat)
    if gap < GAP_TOL:
        raise degenerate
    return table


def _mp_outer_roots(params: QueueParams) -> np.ndarray:
    """Outer roots zhat_i as mpmath numbers at the working precision."""
    c = params.c
    lam, mu, alpha = mp.mpf(params.lam), mp.mpf(params.mu), mp.mpf(params.alpha)
    zh = np.empty(c + 1, dtype=object)
    for i in range(c + 1):
        s = lam + i * mu + (c - i) * alpha
        zh[i] = (s + mp.sqrt(s * s - 4 * i * lam * mu)) / (2 * lam)
    zh[0] = (lam + c * alpha) / lam
    zh[c] = c * mu / lam
    return zh


def _falling(p: int, n: int) -> float:
    """p (p-1) ... (p-n+1); zero once the product crosses zero, 1 at n = 0."""
    out = 1.0
    for t in range(n):
        out *= p - t
    return out


# ---------------------------------------------------------------------------
# arithmetic shared by the float64 probe and the mpmath passes


def _fsum(x: np.ndarray):
    """Sum of a float64 array, or the once-rounded sum of an mpmath one."""
    return mp.fsum(x) if x.dtype == object else x.sum()


def _fdot(x: np.ndarray, y: np.ndarray):
    """Dot product; once-rounded when x holds mpmath numbers."""
    return mp.fdot(x, y) if x.dtype == object else x @ y


def _log_abs(x) -> float:
    """log|x| as a float; -inf where |x| is zero or not finite."""
    x = abs(x)
    if isinstance(x, mp.mpf):
        return float(mp.log(x)) if x and mp.isfinite(x) else -math.inf
    return math.log(x) if 0.0 < x < math.inf else -math.inf


def _closing_magnitude(value, log_row: np.ndarray) -> float:
    """log|closing coefficient| for the magnitude estimate.

    The float64 closing value is noise-floored at row-max * eps but never
    exceeds the no-cancellation bound, so it is the sharper estimate when it
    is finite; the bound covers overflow (row magnitudes past 1e308).  An
    mpmath closing value is exact.
    """
    log_value = _log_abs(value)
    if log_value > -math.inf or len(log_row) == 0:
        return log_value
    return float(logsumexp(log_row))


def _boundary_pass(params: QueueParams, zh: np.ndarray):
    """The full scheme in the number type of the outer roots zh.

    Returns (pi, A, log10_max_coeff, cc_gap): the boundary pi_{i,j} for
    j <= c, the tail coefficients A[i, k] and two diagnostics.  Alongside the
    coefficients, log|A[i, k]| is tracked in float64 from the root ratios,
    so the probe's magnitude estimate stays order-correct even when its
    float64 values have cancelled into noise; in mpmath it is the measured
    magnitude.  cc_gap is the relative gap between two independent
    computations of pi_{c,c} (cut equation vs tail law), the certificate of
    adequate precision.
    """
    c = params.c
    zero = 0 * zh[0]
    num = type(zero)
    lam, mu, alpha = num(params.lam), num(params.mu), num(params.alpha)
    pi = np.full((c + 1, c + 1), zero)
    A = np.full((c + 1, c + 1), zero)
    s0 = np.full(c + 1, zero)
    logA = np.full((c + 1, c + 1), -np.inf)
    inv = 1 / zh
    den = 1 / (zh - 1)
    steps = np.arange(1, c + 1) * (zero + 1)  # 1..c in the pass's number type

    def grow(i, rate):
        # A[i, k] = rate zhat_k / f_i(zhat_k) * A[i-1, k] for the poles k < i
        z = zh[:i]
        # arrays lead: an mpmath number on the left would first try, and
        # expensively fail, to convert the whole array
        g = z * rate / (z * (lam + i * mu + (c - i) * alpha) - z * lam * z - i * mu)
        A[i, :i] = g * A[i - 1, :i]
        logA[i, :i] = logA[i - 1, :i] + np.log(np.abs(g.astype(float)))

    def close(i, value):
        A[i, i] = value
        logA[i, i] = _closing_magnitude(value, logA[i, :i])

    pi[0, 0] = 1
    for j in range(1, c):
        pi[0, j] = pi[0, j - 1] * lam / (lam + j * alpha)
    close(0, pi[0, c - 1])
    s0[0] = A[0, 0] / (zh[0] - 1)

    for i in range(1, c):
        grow(i, (c - i + 1) * alpha)
        b = np.full(c + 1, zero)
        a = np.full(c + 1, zero)
        b[c] = inv[i]
        a[c] = _fdot(A[i, :i], inv[:i] - inv[i])
        for j in range(c - 1, i, -1):
            D = lam + i * mu + (j - i) * alpha - i * mu * b[j + 1]
            if not D > 0:
                raise InternalInconsistencyError(
                    f"boundary recursion pivot D_{j} = {D} <= 0 at row {i}"
                )
            b[j] = lam / D
            a[j] = (i * mu * a[j + 1] + (j - i + 1) * alpha * pi[i - 1, j]) / D
        up = _fdot(pi[i - 1, i:c], steps[: c - i]) + (c - i + 1) * s0[i - 1]
        pi[i, i] = alpha * up / (i * mu)
        for j in range(i + 1, c + 1):
            pi[i, j] = a[j] + b[j] * pi[i, j - 1]
        close(i, pi[i, c - 1] - _fsum(A[i, :i]))
        s0[i] = _fdot(A[i, : i + 1], den[: i + 1])

    grow(c, alpha)
    close(c, -_fsum(A[c, :c]))
    cut = alpha * s0[c - 1] / (c * mu)
    pi[c, c] = _fdot(A[c], inv)
    s0[c] = _fdot(A[c], den)
    cc_gap = float(abs(cut - pi[c, c]) / max(abs(pi[c, c]), 1e-300))

    # columns i..c-1 of each row plus the tail mass; column c of pi is
    # pi_{i,c}, which already belongs to the tail, hence the subtraction
    total = _fsum(pi.ravel()) - _fsum(pi[:, c]) + _fsum(s0)
    pi /= total
    A /= total
    log_total = _log_abs(total)
    log_max = float(np.nanmax(logA)) - (log_total if log_total > -math.inf else 0.0)
    return pi, A, log_max / math.log(10.0), cc_gap


# ---------------------------------------------------------------------------
# factorial moments


def _head_moments(pi: np.ndarray, n_max: int) -> np.ndarray:
    """head[i, n] = sum_{i <= j < c} pi_{i,j} (j-i)_n, the boundary part of
    row i's n-th factorial moment (zero in row c)."""
    c = pi.shape[0] - 1
    zero = 0 * pi[0, 0]
    head = np.full((c + 1, n_max + 1), zero)
    for n in range(n_max + 1):
        # in pi's number type, so that mpmath converts each weight once
        weights = np.array([_falling(d, n) for d in range(c)]) * (zero + 1)
        for i in range(c):
            head[i, n] = sum(pi[i, i:c] * weights[: c - i])
    return head


def _moments(params: QueueParams, pi: np.ndarray, s0: np.ndarray, head: np.ndarray):
    """Full and hat factorial moments at z = 1 from the recursions."""
    c, n_max = params.c, head.shape[1] - 1
    zero = 0 * pi[0, 0]
    num = type(zero)
    lam, mu, alpha = num(params.lam), num(params.mu), num(params.alpha)
    top = n_max + 1  # interior rows carry one extra order for row c
    hat = np.full((c + 1, top + 1), zero)
    hat[:c, 0] = s0[:c]
    for n in range(1, top + 1):
        hat[0, n] = (
            n * lam * hat[0, n - 1] + lam * pi[0, c - 1] * _falling(c, n)
        ) / (c * alpha)
    for i in range(1, c):
        for n in range(1, top + 1):
            term2 = hat[i, n - 2] if n >= 2 else zero
            hat[i, n] = (
                (c - i + 1) * alpha * hat[i - 1, n]
                + n * (lam - i * mu - (c - i) * alpha) * hat[i, n - 1]
                + n * (n - 1) * lam * term2
                + lam * pi[i, c - 1] * _falling(c - i + 1, n)
                - i * mu * pi[i, c] * _falling(c - i, n)
            ) / ((c - i) * alpha)
    for n in range(0, n_max + 1):
        prev = hat[c, n - 1] if n >= 1 else zero
        hat[c, n] = (alpha * hat[c - 1, n + 1] + (n + 1) * n * lam * prev) / (
            (n + 1) * (c * mu - lam)
        )

    return head + hat[:, : n_max + 1], hat


def _moments_direct(params: QueueParams, A, zh, head: np.ndarray) -> np.ndarray:
    """Full moments by differentiating the closed form.

    Row i's generating function is a boundary polynomial plus
    z^(c-i) * sum_k A[i, k] / (zhat_k - z); the n-th derivative at 1 is a
    plain binomial sum.  The polynomial part is the shared ``head``; the
    tail part is the certificate partner of the recursion's hat moments
    (the two share no error mechanism).
    """
    c, n_max = params.c, head.shape[1] - 1
    one = 0 * zh[0] + 1
    inv_den = [(1 / (zh - 1)) ** p for p in range(n_max + 2)]
    full = head.copy()
    for i in range(c + 1):
        for n in range(n_max + 1):
            # d^n/dz^n z^(c-i) / (zhat_k - z) at z = 1, for every pole k <= i
            deriv = sum(
                inv_den[n - m + 1][: i + 1]
                * (one * (math.comb(n, m) * _falling(c - i, m) * math.factorial(n - m)))
                for m in range(min(n, c - i) + 1)
            )
            full[i, n] += _fdot(A[i, : i + 1], deriv)
    return full


# moments smaller than this are below anything float64 outputs can carry,
# so the certificate treats them as matching zeros
MOMENT_FLOOR = 1e-250


def _moment_gap(rec: np.ndarray, direct: np.ndarray) -> float:
    """Worst relative disagreement between the two moment evaluations of
    order >= 1; a nan or inf moment yields nan, which no tolerance accepts."""
    a, b = rec[:, 1:].astype(float), direct[:, 1:].astype(float)
    scale = np.maximum(np.abs(a), np.abs(b))
    keep = ~(scale < MOMENT_FLOOR)
    return float(np.max(np.abs(a - b)[keep] / scale[keep], initial=0.0))


# ---------------------------------------------------------------------------
# public entry point


@dataclass
class GfSolution:
    """Everything the generating-function method produces for one parameter set.

    boundary[i, j] is pi_{i,j} for j <= c (column c included for convenience);
    A[i, k] are the partial-fraction tail coefficients; moments_full[i, n] is
    the n-th factorial moment of the row-i generating function at 1.
    """

    params: QueueParams
    roots: RootTable
    boundary: np.ndarray
    A: np.ndarray
    moments_full: np.ndarray
    moments_hat: np.ndarray
    info: dict = field(default_factory=dict)
    _tail: PoleTail | None = None

    def mp_tail(self) -> tuple | None:
        """(A_mp, zhat_mp, dps) when extended precision produced the tail."""
        return self._tail._mp if self._tail is not None else None

    def mean_jobs(self) -> float:
        """E[L] = sum_i (i * P_i(1) + P_i'(1)) from the factorial moments."""
        i = np.arange(self.params.c + 1)
        return float(i @ self.moments_full[:, 0] + self.moments_full[:, 1].sum())

    def distribution(self) -> JointDistribution:
        c = self.params.c
        return JointDistribution(
            self.params, self.boundary[:, :c].copy(), self._tail, "gf", dict(self.info)
        )


def solve(params: QueueParams, dps: int | None = None) -> GfSolution:
    """Solve the queue by the generating-function method.

    dps: run one mpmath pass at this precision and report its certificates
        as they are; None starts with the float64 probe and, when that cannot
        certify itself, escalates to just enough digits for ~1e-16 relative
        accuracy.
    """
    validate(params)
    c = params.c
    roots = characteristic_roots(params)

    digits = dps  # None: the float64 probe
    for _ in range(7):  # the probe plus at most six mpmath passes
        if dps is None and digits is not None and digits > DPS_CAP:
            raise _closest_pair(roots.zhat)[1]
        # float64 keeps IEEE semantics (overflow gives inf or nan, never an
        # exception: the probe only estimates); mpmath runs at `digits`
        with np.errstate(all="ignore") if digits is None else mp.workdps(digits):
            zh = roots.zhat if digits is None else _mp_outer_roots(params)
            pi, A, log_max, cc_gap = _boundary_pass(params, zh)
            # a probe whose coefficients alternate past DOUBLE_COEFF_LIMIT has
            # cancelled into noise: its moments are not worth certifying
            mgap = math.inf
            if digits is not None or log_max <= math.log10(DOUBLE_COEFF_LIMIT):
                head = _head_moments(pi, N_MOMENTS)
                s0 = pole_sums(A, 1 / (zh - 1))  # row tail masses
                moments_full, moments_hat = _moments(params, pi, s0, head)
                direct = _moments_direct(params, A, zh, head)
                mgap = _moment_gap(moments_full, direct)
        if digits is None:
            if mgap < MOMENT_CERT_DOUBLE:
                break
            # The float64 magnitude estimate is only a hint (cancellation
            # noise corrupts it in both directions), so the real control is
            # the escalation: a pass is accepted only when its own measured
            # max coefficient fits inside the mantissa with ~26 digits to
            # spare AND the independent pi_{c,c} cut-vs-tail certificate
            # agrees.  Coefficient magnitudes grow roughly like 10^(0.4 c)
            # when the poles pack with growing c, hence the structural seed.
            # A probe that fails its moment certificate (the forward
            # recursion amplifies roundoff when (c-i) alpha divisors are
            # small, the direct sum cancels when coefficients alternate)
            # escalates the same way.
            hint = min(max(log_max, 0.0), 0.42 * c + 30.0)
            digits = max(30, 26 + int(math.ceil(hint)), 26 + int(math.ceil(0.42 * c)))
            continue
        refreshed = 26 + int(math.ceil(max(log_max, 0.0)))
        if dps is not None or (
            cc_gap < 1e-14 and mgap < MOMENT_CERT_MP and digits >= refreshed
        ):
            break
        digits = max(refreshed, int(math.ceil(1.6 * digits)))
    else:
        raise InternalInconsistencyError(
            f"precision escalation failed to converge (last dps {digits}, "
            f"certificate gaps {cc_gap:.3g} / {mgap:.3g})"
        )

    info = {
        "pf_log10_max_coeff": log_max,
        "precision_digits": digits,
        "pi_cc_certificate_gap": cc_gap,
        "moment_certificate_gap": mgap,
    }
    floats = (x.astype(float) for x in (pi, A, moments_full, moments_hat))
    return GfSolution(params, roots, *floats, info, PoleTail(A, zh, digits))
