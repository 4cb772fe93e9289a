"""Exact solvers for the M/M/c queue with server setup times (ON-OFF policy).

Three independent routes to the stationary distribution (generating-function
closed form, matrix-analytic recursions, truncated-chain linear solve), a
discrete-event simulator for statistical validation, and performance / power
cost reporting with sweep and crossover tooling on top.  Names are imported
from their modules (``from mmcsetup.model import QueueParams``); importing
the package loads every module but cli.
"""

from . import ctmc, gf, measures, mmc, qbd, sim, sweeps

__version__ = "0.1.0"

__all__ = ["ctmc", "gf", "measures", "mmc", "qbd", "sim", "sweeps", "__version__"]
