"""Aggregate measures, power costs, and the conditional decomposition.

Everything here consumes a JointDistribution, so the three solvers (and the
truncated-chain oracle) are interchangeable upstream.  Infinite sums over
the tail use the tail object's closed forms.
"""

from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .errors import DegenerateConditionError, InvalidConfigError, TruncationInsufficientError, certify
from .mmc import onidle_cost
from .model import CostParams, QueueParams

__all__ = [
    "PerformanceReport",
    "DecompositionReport",
    "full_report",
    "decomposition",
]

# Largest relative gap accepted between the two sides of the switching balance.
SWITCHING_TOL = 1e-10


@dataclass(frozen=True)
class PerformanceReport:
    """Steady-state server and job counts, and the three power costs."""

    e_active: float
    e_setup: float
    switching_rate: float
    e_jobs: float
    phase_marginal: np.ndarray
    cost_onoff: float
    cost_onidle: float
    total_cost_onoff: float

    def to_dict(self) -> dict:
        """Every field in declaration order, the phase marginal as a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["phase_marginal"] = [float(v) for v in self.phase_marginal]
        return out

    @staticmethod
    def csv_header() -> list:
        """The scalar fields: every field but the phase marginal."""
        return [f.name for f in fields(PerformanceReport) if f.name != "phase_marginal"]


def _check_params(dist, params: QueueParams) -> None:
    """Raise InvalidConfig unless `params` are the ones `dist` was solved for."""
    if params != dist.params:
        raise InvalidConfigError(
            f"params {params!r} are not the distribution's {dist.params!r}"
        )


def _setup_expectation(dist, params: QueueParams) -> float:
    """E[servers in setup] = sum min(j - i, c - i) pi_{i,j}.

    Below level c that is j - i, weighted over the whole boundary at once
    (its entries below the diagonal are zero).  Past level c every row has
    all c - i off servers warming, so the tail contributes (c - i) times
    the row tail mass.
    """
    c = params.c
    i = np.arange(c + 1)
    head = float(((np.arange(c) - i[:, None]) * dist.boundary).sum())
    return head + float(((c - i) * dist.tail.sum0()).sum())


def _switch_sides(dist, params: QueueParams, e_setup: float):
    """Both sides of the steady-state switching balance.

    OFF->ON completions happen at rate alpha per warming server; ON->OFF
    switches happen when a departure empties phase i, at rate i mu from the
    diagonal states.  In steady state the two rates coincide.
    """
    c = params.c
    side_alpha = params.alpha * e_setup
    diag = np.diagonal(dist.boundary)  # pi_{i,i} for i < c
    i = np.arange(len(diag))
    side_mu = float((i * params.mu * diag).sum())
    side_mu += c * params.mu * float(dist.tail.level(0)[c])
    return side_alpha, side_mu


def full_report(
    dist, params: QueueParams, cost_params: CostParams = CostParams()
) -> PerformanceReport:
    """E[A], E[S], E[S_r], E[L], the phase marginal and the three costs.

    The two sides of the switching balance must agree to SWITCHING_TOL
    relative, or InternalInconsistency is raised, nan included.  The costs
    follow the displayed formulas, priced at `cost_params`.  `params` must
    be the distribution's own (InvalidConfig otherwise).
    """
    _check_params(dist, params)
    marginal = dist.phase_marginals()
    e_active = float((np.arange(params.c + 1) * marginal).sum())
    e_setup = _setup_expectation(dist, params)
    e_jobs = dist.mean_jobs()
    side_alpha, side_mu = _switch_sides(dist, params, e_setup)
    gap = abs(side_alpha - side_mu) / max(1.0, abs(side_mu))
    certify("switching balance gap", gap, SWITCHING_TOL)
    on_off = cost_params.c_active * e_active + cost_params.c_setup * e_setup
    return PerformanceReport(
        e_active=e_active,
        e_setup=e_setup,
        switching_rate=side_mu,
        e_jobs=e_jobs,
        phase_marginal=marginal,
        cost_onoff=on_off,
        cost_onidle=onidle_cost(params, cost_params),
        total_cost_onoff=on_off + cost_params.c_switch * side_mu,
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Conditional queue beyond c, split into a setup-free part plus a
    residual part carried by the last warming server."""

    dist_qc: np.ndarray
    dist_onidle: np.ndarray
    dist_res: np.ndarray
    convolution: np.ndarray
    tv_gap: float
    support: int


def decomposition(dist, params: QueueParams) -> DecompositionReport:
    """Check dist_Qc == geometric * residual in distribution.

    Only phases c-1 and c are read, through the tail's rows(); on a gf
    tail each support level then costs O(c).  The support is extended
    until every truncated tail holds less than 1e-12, which leaves the
    reported total-variation gap meaningful down to well below 1e-10.  The
    geometric factor is (1-rho) rho^k, so the convolution is the
    first-order recurrence conv_k = rho conv_(k-1) + (1-rho) res_k,
    O(support) and a sum of nonnegative terms.  A support past 10,000,000
    levels raises TruncationInsufficientError before it is walked, and a
    `params` that is not the distribution's raises InvalidConfigError.
    """
    _check_params(dist, params)
    mass_tol, cap = 1e-12, 10_000_000
    c = params.c
    rho = params.rho
    s0, s1 = dist.tail.sum0(), dist.tail.sum1()
    qc_mass = float(s0[c])
    res_mean = float(s0[c - 1] + s1[c - 1])
    if not qc_mass > 0.0:
        raise DegenerateConditionError(
            "all-busy probability vanished; conditional queue undefined"
        )
    if not res_mean > 0.0:
        raise DegenerateConditionError(
            "phase c-1 tail has zero mean; residual distribution undefined"
        )

    support = max(64, int(np.ceil(np.log(mass_tol) / np.log(rho))) + 1)
    while True:
        if support > cap:
            raise TruncationInsufficientError(
                f"decomposition at rho {rho!r} needs a support of {support} levels, "
                f"over the cap of {cap}"
            )
        # columns: phase c-1, phase c; row support + 1 is the truncated tail
        levels, tails = dist.tail.rows([c - 1, c], support + 2)
        resid_res, resid_qc = tails[support + 1] / (res_mean, qc_mass)
        if rho ** (support + 1) < mass_tol and resid_res < mass_tol and resid_qc < mass_tol:
            break
        support *= 2

    m = np.arange(support + 1)
    qc = levels[: support + 1, 1] / qc_mass
    onidle = (1.0 - rho) * rho**m
    res = tails[: support + 1, 0] / res_mean
    conv = np.array(list(accumulate(((1.0 - rho) * res).tolist(), lambda acc, r: rho * acc + r)))

    resid_conv = max(0.0, 1.0 - float(conv.sum()))
    tv = 0.5 * (float(np.abs(qc - conv).sum()) + float(resid_qc) + resid_conv)
    return DecompositionReport(
        dist_qc=qc,
        dist_onidle=onidle,
        dist_res=res,
        convolution=conv,
        tv_gap=tv,
        support=support,
    )
