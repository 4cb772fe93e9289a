"""Brute-force oracle: solve the truncated chain directly.

Lists the chain's transitions from :func:`mmcsetup.model.transition_rates`
(deliberately sharing no algebra with the analytic solvers), state by state
on levels 0..c + 1, and checks that level c + 2 repeats level c + 1's one
level up.  Truncates by dropping arrivals at the top level (reflecting
boundary).  The stationary system's LAPACK band is written straight from
those O(c^2) triples (no sparse matrix, no chain-length transition list):
levels 0..c + 1 are scattered, and level c + 1's block is copied up to
the cap.  It is solved by one banded LU, grounded at the state (m, m) with
m = min(c, round(lam / mu)) (E[active] = lam / mu makes it a heavy state).
The balance residual is formed from the same triples; a solution that
fails it raises instead of being patched.  The analytic solvers are
cross-checked against this oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distribution import ExplicitTail, JointDistribution
from .errors import InternalInconsistencyError, InvalidConfigError, TruncationInsufficientError, certify
from .model import QueueParams, State, transition_rates


# Mass certificate of every oracle solve: the truncated chain's top levels
# (and any clipped negative mass) must hold at most TOL.
TOL = 1e-12
# Largest balance residual max |Q^T pi| accepted from _solve_stationary.
RESIDUAL_TOL = 1e-13
# Largest LU band solve_adaptive will build, (3c + 4) * 8 bytes per state.
MAX_BAND_BYTES = 2 * 1024**3


def choose_truncation(params: QueueParams) -> int:
    """A-priori level cap: smallest k with geometric estimate
    r^k / (1 - r) < TOL, doubled once for safety, floored at c + 5.

    r covers both tail regimes: the rho-geometric decay once all servers
    run, and the lambda / (lambda + c alpha) decay of the zero-active rows
    when setups are slow.  Still only an estimate; callers needing a
    guarantee should rely on the a-posteriori mass certificate in
    solve_truncated (see solve_adaptive).
    """
    lam, c, alpha = params.lam, params.c, params.alpha
    r = max(params.rho, lam / (lam + c * alpha))
    k0 = max(1, math.ceil((math.log(TOL) + math.log1p(-r)) / math.log(r)))
    return max(params.c + 2 * k0, params.c + 5)


def _index(c: int, i: int, j: int) -> int:
    # level-major order keeps the generator banded with half-width c + 1
    # (all transitions move at most one level; the widest are the shutdown
    # from (c, c) and the arrivals and services across level c), which the
    # LU relies on
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


class _Generator(NamedTuple):
    """Q^T of the chain truncated at some cap j_max: the (source, target,
    rate) triples out of levels 0..c (``head``) and out of level c + 1
    (``tmpl``), which every level up to j_max repeats shifted by whole
    levels, the top one without its arrivals; and each state's total
    outflow, the negated diagonal (``out``, the only chain-length array)."""

    c: int
    head: tuple[np.ndarray, np.ndarray, np.ndarray]
    tmpl: tuple[np.ndarray, np.ndarray, np.ndarray]
    out: np.ndarray


def _generator(params: QueueParams, j_max: int) -> _Generator:
    """Q^T of the chain truncated at j_max; refuses a law whose level c + 2
    does not repeat level c + 1 one level up."""
    c, w = params.c, params.c + 1
    head, tmpl, nxt = (_level_triples(params, lv) for lv in (range(c + 1), [c + 1], [c + 2]))
    shift = (w, w, 0)  # one level up: source and target move by w states, rates stay
    if not all(np.array_equal(a, t + s) for a, t, s in zip(nxt, tmpl, shift)):
        raise InternalInconsistencyError(f"level {c + 2} is not level {c + 1} shifted by one level")
    base, n = _index(c, 0, c + 1), _index(c, 0, j_max + 1)
    src, dst, rate = tmpl
    stay = dst < base + w  # reflecting truncation: the top level drops its arrivals
    # bincount adds each state's rates in input order, as a per-state running sum
    out = np.empty(n)
    out[:base] = np.bincount(head[0], weights=head[2], minlength=base)
    tail = out[base:].reshape(-1, w)
    tail[:] = np.bincount(src - base, weights=rate, minlength=w)
    tail[-1] = np.bincount(src[stay] - base, weights=rate[stay], minlength=w)
    return _Generator(c, head, tmpl, out)


def _band(gen: _Generator) -> np.ndarray:
    """LAPACK gbsv's band of Q^T, before grounding: Q^T[dst, src] at row
    l + u + dst - src of column src, l = u = c + 1, under l zero rows for
    the LU's fill-in; Fortran order, so gbsv takes it without a copy.
    Levels 0..c + 1 are scattered from their triples, and level c + 1's
    block is copied up to j_max over a (rows, c + 1, levels) view."""
    c, w = gen.c, gen.c + 1
    rows, diag, base = 3 * w + 1, 2 * w, _index(c, 0, c + 1)
    ab = np.zeros((rows, len(gen.out)), order="F")
    for src, dst, rate in (gen.head, gen.tmpl):
        ab[diag + dst - src, src] = rate
    tail = ab[:, base:].reshape(rows, w, -1, order="F", copy=False)
    tail[:, :, 1:] = tail[:, :, :1]
    ab[diag + w, -w:] = 0.0  # no arrivals out of the top level
    np.negative(gen.out, out=ab[diag])
    return ab


def solve_truncated(params: QueueParams, j_max: int) -> JointDistribution:
    """Stationary distribution of the chain truncated at level j_max.

    Raises TruncationInsufficientError if the mass sitting in the three top
    levels j_max - 2..j_max, which the reflecting boundary distorts, exceeds
    TOL, i.e. the cap was too low.
    """
    c = params.c
    if j_max < c + 5:
        raise InvalidConfigError(f"j_max must be >= c + 5 = {c + 5}, got {j_max}")

    m = min(c, round(params.lam / params.mu))
    pi, residual, clipped_mass = _solve_stationary(_generator(params, j_max), _index(c, m, m))

    # package: boundary block + explicit tail levels
    boundary = np.zeros((c + 1, c))
    boundary.T[np.tri(c, c + 1, dtype=bool)] = pi[: _index(c, 0, c)]
    tail_levels = pi[_index(c, 0, c) :].reshape(-1, c + 1)

    # estimated truncation error: mass at levels >= j_max - 2
    tail_mass = float(tail_levels[-3:].sum())
    certify(f"oracle tail mass at levels >= {j_max - 2} of j_max {j_max}", tail_mass, TOL,
            TruncationInsufficientError)
    certify("oracle clipped negative mass", clipped_mass, TOL)

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


def solve_adaptive(params: QueueParams) -> JointDistribution:
    """solve_truncated with the cap doubled until the mass certificate passes.

    The a-priori estimate in choose_truncation assumes a rho-geometric tail,
    which slow setups violate; this wrapper keeps doubling j_max until the
    reported truncation error actually meets TOL.  A cap whose LU band,
    (3c + 4) * 8 bytes per state, exceeds MAX_BAND_BYTES raises
    TruncationInsufficientError before it is built.
    """
    j_max = choose_truncation(params)
    while True:
        size = _band_bytes(params.c, j_max)
        if size > MAX_BAND_BYTES:
            raise TruncationInsufficientError(
                f"j_max {j_max} needs a {size} byte band, over MAX_BAND_BYTES {MAX_BAND_BYTES}"
            )
        try:
            return solve_truncated(params, j_max)
        except TruncationInsufficientError:
            j_max *= 2


def _solve_stationary(gen: _Generator, k: int) -> tuple[np.ndarray, float, float]:
    """Solve Q^T pi = 0, sum pi = 1 by one banded LU grounded at state k.

    Row k of _band's Q^T is replaced by e_k^T and the right-hand side is
    e_k, which fixes pi_k = 1 and keeps the band (Stewart, 1994, ch. 2).
    k should carry large mass: grounding a state of tiny mass leaves the
    small states wrong by many orders.  Negative roundoff entries are
    clipped to zero.  Returns pi, the balance residual max |Q^T pi| of the
    returned pi (formed from ``gen``: gbsv overwrites the band) and the
    clipped mass; raises InternalInconsistencyError, with no fallback, if
    the solve is singular, pi is not finite or has no mass, or the residual
    exceeds RESIDUAL_TOL.
    """
    from scipy.linalg.lapack import dgbsv

    w, n = gen.c + 1, len(gen.out)
    ab = _band(gen)
    s = np.arange(max(0, k - w), min(n, k + w + 1))  # the columns whose band holds row k
    ab[2 * w + k - s, s] = 0.0
    ab[2 * w, k] = 1.0
    b = np.zeros(n)
    b[k] = 1.0
    _, _, pi, info = dgbsv(w, w, ab, b, overwrite_ab=1, overwrite_b=1)
    del ab  # the LU: free the band before the residual's vectors are made
    if info != 0:
        raise InternalInconsistencyError(f"grounded balance system is singular (gbsv info {info})")
    total = pi.sum()
    if not (np.all(np.isfinite(pi)) and total > 0):
        raise InternalInconsistencyError(f"grounded solve gave no distribution (sum {total:.3g})")
    pi /= total
    clipped_mass = float(np.abs(pi[pi < 0].sum()))
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    residual = _balance_residual(gen, pi)
    return pi, certify("oracle balance residual", residual, RESIDUAL_TOL), clipped_mass


def _balance_residual(gen: _Generator, pi: np.ndarray) -> float:
    """max |Q^T pi|: the head's inflow from its triples, the tail's from the
    template's, one offset dst - src at a time over all of levels
    c + 1..j_max."""
    c, w = gen.c, gen.c + 1
    base = _index(c, 0, c + 1)
    r = gen.out * pi  # outflow minus inflow, state by state
    src, dst, rate = gen.head
    r[: base + w] -= np.bincount(dst, weights=rate * pi[src], minlength=base + w)
    into = r[base - w :].reshape(-1, w)  # levels c..j_max
    frm = pi[base:].reshape(-1, w)  # levels c + 1..j_max
    src, dst, rate = gen.tmpl
    for d in np.unique(dst - src):
        at = dst - src == d
        up, on = divmod(int(d), w)  # the target is `up` levels up and `on` phases on
        top = len(frm) - max(up, 0)  # the top level's arrivals were dropped
        phase = src[at] - base
        into[1 + up : 1 + up + top, phase + on] -= frm[:top, phase] * rate[at]
    return float(max(r.max(), -r.min()))
