"""Brute-force oracle: solve the truncated chain directly.

Lists the chain's transitions from :func:`mmcsetup.model.transition_rates`
(deliberately sharing no algebra with the analytic solvers), state by state
on levels 0..c + 1; level c + 1's transitions are tiled up to the cap after
level c + 2 is checked to repeat them one level up.  Truncates by dropping
arrivals at the top level (reflecting boundary).  The transition list and
each state's outflow are the only form of the generator: the stationary
system's LAPACK band is written straight from them (no sparse matrix) and
solved by one banded LU, grounded at the state (m, m) with
m = min(c, round(lam / mu)) (E[active] = lam / mu makes it a heavy state).
A solution that fails its balance-residual check raises instead of being
patched; the analytic solvers are cross-checked against it.
"""

from __future__ import annotations

import math

import numpy as np

from .distribution import ExplicitTail, JointDistribution
from .errors import InternalInconsistencyError, InvalidConfigError, TruncationInsufficientError
from .model import QueueParams, State, transition_rates


def choose_truncation(params: QueueParams, tol: float = 1e-12) -> int:
    """A-priori level cap: smallest k with geometric estimate
    r^k / (1 - r) < tol, doubled once for safety, floored at c + 5.

    r covers both tail regimes: the rho-geometric decay once all servers
    run, and the lambda / (lambda + c alpha) decay of the zero-active rows
    when setups are slow.  Still only an estimate; callers needing a
    guarantee should rely on the a-posteriori mass certificate in
    solve_truncated (see solve_adaptive).
    """
    _check_tol(tol)
    lam, c, alpha = params.lam, params.c, params.alpha
    r = max(params.rho, lam / (lam + c * alpha))
    k0 = max(1, math.ceil((math.log(tol) + math.log1p(-r)) / math.log(r)))
    return max(params.c + 2 * k0, params.c + 5)


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:  # nan fails too
        raise InvalidConfigError(f"ctmc tol must be finite and > 0, got {tol!r}")


def _index(c: int, i: int, j: int) -> int:
    # level-major order keeps the generator banded with half-width at most
    # c + 2 (all transitions move at most one level), which the LU relies on
    return j * (j + 1) // 2 + i if j <= c else c * (c + 1) // 2 + (j - c) * (c + 1) + i


def _level_triples(params: QueueParams, levels) -> tuple[np.ndarray, ...]:
    """(source, target, rate) of every transition out of ``levels``, each
    state's in transition_rates order (arrival, service, setup)."""
    c = params.c
    src, dst, rate = zip(*(
        (_index(c, i, j), _index(c, *target), r)
        for j in levels
        for i in range(min(j, c) + 1)
        for target, r in transition_rates(State(i, j), params)
    ))
    return np.array(src), np.array(dst), np.array(rate)


def _generator(params: QueueParams, j_max: int) -> tuple[np.ndarray, ...]:
    """Q^T of the chain truncated at j_max as (src, dst, rate, out): every
    transition src -> dst with its rate, and each state's total outflow,
    the negated diagonal."""
    c, w = params.c, params.c + 1
    head, tmpl, nxt = (_level_triples(params, lv) for lv in (range(c + 1), [c + 1], [c + 2]))
    shift = (w, w, 0)  # one level up: source and target move by w states, rates stay
    if not all(np.array_equal(a, t + s) for a, t, s in zip(nxt, tmpl, shift)):
        raise InternalInconsistencyError(f"level {c + 2} is not level {c + 1} shifted by one level")
    k = np.arange(j_max - c)[:, None]
    src, dst, rate = (np.concatenate([h, (t + s * k).ravel()]) for h, t, s in zip(head, tmpl, shift))
    n = _index(c, 0, j_max + 1)
    keep = dst < n  # reflecting truncation: drop arrivals at the cap
    src, dst, rate = src[keep], dst[keep], rate[keep]
    # bincount adds each state's rates in input order, as a per-state running sum
    return src, dst, rate, np.bincount(src, weights=rate, minlength=n)


def solve_truncated(
    params: QueueParams,
    j_max: int | None = None,
    tol: float = 1e-9,
) -> JointDistribution:
    """Stationary distribution of the chain truncated at level j_max.

    Raises TruncationInsufficientError if the mass sitting in the two
    boundary-distorted top levels exceeds tol, i.e. the cap was too low for
    the requested accuracy.  tol must be finite and > 0 (InvalidConfig).
    """
    _check_tol(tol)
    c = params.c
    if j_max is None:
        j_max = choose_truncation(params)
    if j_max < c + 5:
        raise InvalidConfigError(f"j_max must be >= c + 5 = {c + 5}, got {j_max}")

    m = min(c, round(params.lam / params.mu))
    pi, residual, clipped_mass = _solve_stationary(*_generator(params, j_max), _index(c, m, m))

    # package: boundary block + explicit tail levels
    boundary = np.zeros((c + 1, c))
    for j in range(c):
        boundary[: j + 1, j] = pi[_index(c, 0, j) : _index(c, 0, j + 1)]
    tail_levels = pi[_index(c, 0, c) :].reshape(-1, c + 1)

    # estimated truncation error: mass at levels >= j_max - 2
    tail_mass = float(tail_levels[-3:].sum())
    if tail_mass > tol:
        raise TruncationInsufficientError(
            f"mass {tail_mass:.3g} at levels >= {j_max - 2} exceeds tol {tol:.3g}; "
            f"raise j_max (currently {j_max})"
        )
    if clipped_mass > tol:
        raise InternalInconsistencyError(
            f"clipped negative mass {clipped_mass:.3g} exceeds tol {tol:.3g}"
        )

    info = {
        "j_max": j_max,
        "tail_mass": tail_mass,
        "balance_residual": residual,
        "ground": (m, m),
        "clipped_mass": clipped_mass,
    }
    return JointDistribution(params, boundary, ExplicitTail(tail_levels), "oracle", info)


def _band_bytes(c: int, j_max: int) -> int:
    """Bytes of the band _solve_stationary solves for the chain truncated at
    j_max: (3c + 4) float64 rows per state (gbsv's 2l + u + 1, l = u = c + 1)."""
    return (3 * c + 4) * 8 * _index(c, 0, j_max + 1)


def solve_adaptive(
    params: QueueParams,
    tol: float = 1e-12,
    j_max: int | None = None,
    max_band_bytes: int = 2 * 1024**3,
) -> JointDistribution:
    """solve_truncated with the cap doubled until the mass certificate passes.

    The a-priori estimate in choose_truncation assumes a rho-geometric tail,
    which slow setups violate; this wrapper keeps doubling j_max until the
    reported truncation error actually meets tol.  A cap whose LU band,
    (3c + 4) * 8 bytes per state, exceeds max_band_bytes (2 GiB by default)
    raises TruncationInsufficientError before it is built.
    """
    if j_max is None:
        j_max = choose_truncation(params, tol)
    while True:
        size = _band_bytes(params.c, j_max)
        if size > max_band_bytes:
            raise TruncationInsufficientError(
                f"j_max {j_max} needs a {size} byte band, over max_band_bytes {max_band_bytes}"
            )
        try:
            return solve_truncated(params, j_max=j_max, tol=tol)
        except TruncationInsufficientError:
            j_max *= 2


def _solve_stationary(
    src: np.ndarray, dst: np.ndarray, rate: np.ndarray, out: np.ndarray, k: int
) -> tuple[np.ndarray, float, float]:
    """Solve Q^T pi = 0, sum pi = 1 by one banded LU grounded at state k.

    The transitions (src, dst, rate) and outflows ``out`` of _generator are
    written straight into LAPACK gbsv's band layout (Q^T[dst, src] at row
    l + u + dst - src, under l rows for the LU's fill-in), with row k of Q^T
    replaced by e_k^T and right-hand side e_k, which fixes pi_k = 1 and
    keeps the band (Stewart, 1994, ch. 2).  k should carry large mass:
    grounding a state of tiny mass leaves the small states wrong by many
    orders.  Negative roundoff entries are clipped to zero.  Returns pi, the
    balance residual max |Q^T pi| of the returned pi (formed from the
    transitions: gbsv overwrites the band) and the clipped mass; raises
    InternalInconsistencyError, with no fallback, if the solve is singular,
    pi is not finite or has no mass, or the residual exceeds 1e-13.
    """
    from scipy.linalg.lapack import dgbsv

    n = len(out)
    offset = dst - src
    lower, upper = int(offset.max()), int(-offset.min())
    diag = lower + upper
    ab = np.zeros((diag + lower + 1, n), order="F")  # Fortran order: gbsv takes it without a copy
    keep = dst != k
    ab[diag + offset[keep], src[keep]] = rate[keep]
    ab[diag] = -out
    ab[diag, k] = 1.0
    b = np.zeros(n)
    b[k] = 1.0
    _, _, pi, info = dgbsv(lower, upper, ab, b, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise InternalInconsistencyError(f"grounded balance system is singular (gbsv info {info})")
    total = pi.sum()
    if not (np.all(np.isfinite(pi)) and total > 0):
        raise InternalInconsistencyError(f"grounded solve gave no distribution (sum {total:.3g})")
    pi /= total
    clipped_mass = float(np.abs(pi[pi < 0].sum()))
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    residual = float(np.abs(np.bincount(dst, weights=rate * pi[src], minlength=n) - out * pi).max())
    if residual > 1e-13:
        raise InternalInconsistencyError(f"balance residual {residual:.3g} exceeds 1e-13")
    return pi, residual, clipped_mass
