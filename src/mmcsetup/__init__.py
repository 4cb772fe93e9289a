"""Exact solvers for the M/M/c queue with server setup times (ON-OFF policy).

Three independent routes to the stationary distribution (generating-function
closed form, matrix-analytic recursions, truncated-chain linear solve), a
discrete-event simulator for statistical validation, and performance / power
cost reporting with sweep and crossover tooling on top.
"""

from . import ctmc, gf, measures, mmc, qbd, sim, sweeps
from .distribution import JointDistribution
from .errors import (
    DegenerateConditionError,
    InternalInconsistencyError,
    InvalidConfigError,
    InvalidParameterError,
    InvalidStateError,
    NoCrossingError,
    QueueModelError,
    TruncationInsufficientError,
    UnstableError,
)
from .measures import DecompositionReport, PerformanceReport, decomposition, full_report
from .model import CostParams, QueueParams, State, transition_rates, validate
from .sim import SimConfig, SimEstimate, simulate, validate_against
from .sweeps import SweepSpec, crossover_finder, run_sweep, solve_distribution

__version__ = "0.1.0"

__all__ = [
    "CostParams",
    "QueueParams",
    "State",
    "transition_rates",
    "validate",
    "JointDistribution",
    "PerformanceReport",
    "DecompositionReport",
    "full_report",
    "decomposition",
    "SimConfig",
    "SimEstimate",
    "simulate",
    "validate_against",
    "SweepSpec",
    "run_sweep",
    "crossover_finder",
    "solve_distribution",
    "gf",
    "qbd",
    "ctmc",
    "mmc",
    "sim",
    "sweeps",
    "measures",
    "QueueModelError",
    "InvalidParameterError",
    "UnstableError",
    "InvalidStateError",
    "InvalidConfigError",
    "DegenerateConditionError",
    "TruncationInsufficientError",
    "NoCrossingError",
    "InternalInconsistencyError",
    "__version__",
]
