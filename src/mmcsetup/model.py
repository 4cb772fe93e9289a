"""Model primitives: parameters, states, costs, and the transition law.

The chain lives on S = {(i, j) : 0 <= i <= c, j >= i} where i counts servers
that are on (busy serving) and j counts jobs in the system.  Jobs beyond the
on servers trigger setups: min(j - i, c - i) of the off servers are warming
up at rate alpha each.  A server that finishes a job with no one waiting
turns off instantly (and any now-redundant setup is cancelled), so j = i is
the only way a server powers down.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidConfigError, InvalidParameterError, InvalidStateError, UnstableError


class State(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate, per-server service rate, server count, setup rate.

    Checked by :func:`validate` when built (``dataclasses.replace`` too), so
    every instance is a stable queue and no solver checks it again.  A numpy
    number is stored as the Python int or float it equals.
    """

    lam: float
    mu: float
    c: int
    alpha: float

    def __post_init__(self) -> None:
        validate(self)

    @property
    def rho(self) -> float:
        return self.lam / (self.c * self.mu)


@dataclass(frozen=True)
class CostParams:
    """Power-cost weights per unit time.

    c_active prices a serving server, c_setup a warming one, c_idle an idle
    but powered server (only the always-on baseline has those), and c_switch
    prices each completed off->on switch rather than a time average.  Each
    weight must be finite and >= 0 (InvalidConfig at construction); a numpy
    weight is stored as the Python float or int it equals.
    """

    c_active: float = 1.0
    c_setup: float = 1.0
    c_idle: float = 0.6
    c_switch: float = 0.0

    def __post_init__(self) -> None:
        for name, v in self.__dict__.items():
            check_cost_weight(name, v)
        _keep_plain(self)


# The one number rule of every setting and argument.  A number is a
# numbers.Real that is not a bool (numpy's numbers and Fraction included)
# and that a float can hold, an integer a numbers.Integral that is not a
# bool, and a settings object keeps a checked numpy number as the Python
# int or float it equals.  Each test looks at type(v) first, so Python
# numbers take the fast path.


def _real(v) -> bool:
    """True for a real number, False for a bool, a string, a number past
    float's range (an int of 10**400, say) or anything else."""
    if type(v) is float:
        return True
    if not (type(v) is int or (isinstance(v, numbers.Real) and type(v) is not bool)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _integer(v) -> bool:
    """True for an integer, False for a bool, a float or anything else."""
    return type(v) is int or (isinstance(v, numbers.Integral) and type(v) is not bool)


def _require_integer(name: str, v, error: type[Exception]) -> None:
    """Raise error("<name> must be an int, got <v>") unless v is an integer
    that a float can hold."""
    if not _integer(v):
        raise error(f"{name} must be an int, got {v!r}")
    if not _real(v):
        raise error(f"{name} must be an int within float range, got {v!r}")


def _keep_plain(settings) -> None:
    """Store each number field of a frozen settings object, once checked, as
    the Python int or float it equals; Python numbers stay as given."""
    for name, v in vars(settings).items():
        if type(v) not in (float, int) and _real(v):
            object.__setattr__(settings, name, int(v) if _integer(v) else float(v))


def check_cost_weight(name: str, v: float) -> None:
    """Raise InvalidConfig unless the cost weight is a finite number >= 0."""
    if not (_real(v) and 0 <= v < math.inf):  # nan fails too
        raise InvalidConfigError(f"cost {name} must be finite and >= 0, got {v!r}")


def validate(params: QueueParams) -> None:
    """The rule QueueParams runs when built: raise InvalidParameter or
    Unstable, and keep numpy numbers as the Python numbers they equal."""
    lam, mu, c, alpha = params.lam, params.mu, params.c, params.alpha
    _require_integer("c", c, InvalidParameterError)
    if c < 1:
        raise InvalidParameterError(f"c must be >= 1, got {c}")
    for name, v in (("lambda", lam), ("mu", mu), ("alpha", alpha)):
        if not (_real(v) and math.isfinite(v)):
            raise InvalidParameterError(f"{name} must be a finite number, got {v!r}")
        if v <= 0:
            raise InvalidParameterError(f"{name} must be > 0, got {v}")
    _keep_plain(params)  # before rho, so that rho is the stored queue's
    if params.rho >= 1.0:
        raise UnstableError(params.rho)


def validate_state(state: State, params: QueueParams) -> None:
    i, j = state
    if not (0 <= i <= params.c) or j < i:
        raise InvalidStateError(f"state (i={i}, j={j}) outside 0 <= i <= c = {params.c}, j >= i")


def n_setup(state: State, params: QueueParams) -> int:
    """Servers currently in setup at this state: min(j - i, c - i)."""
    return min(state.j - state.i, params.c - state.i)


def transition_rates(state: State, params: QueueParams) -> list[tuple[State, float]]:
    """Outgoing transitions from ``state`` as (target, rate) pairs.

    Order is fixed (arrival, service, setup) so downstream consumers can
    build matrices deterministically.
    """
    validate_state(state, params)
    i, j = state
    lam, mu, alpha = params.lam, params.mu, params.alpha
    out: list[tuple[State, float]] = [(State(i, j + 1), lam)]
    if i > 0:
        if j > i:
            # a departure leaves someone waiting; the server stays on
            out.append((State(i, j - 1), i * mu))
        else:
            # j == i: the freed server finds no work and powers off
            out.append((State(i - 1, j - 1), i * mu))
    k = n_setup(state, params)
    if k > 0:
        out.append((State(i + 1, j), k * alpha))
    return out


# ---------------------------------------------------------------------------
# config file I/O


PARAM_KEYS = {"lambda", "mu", "c", "alpha", "rho"}
COST_KEYS = {"ca": "c_active", "cs": "c_setup", "ci": "c_idle", "csw": "c_switch"}


def read_config(path: str) -> dict[str, float]:
    """Parse ``key = value`` lines (# comments allowed) without resolving them.

    Keeps ``rho`` as written so a caller merging in overrides (say a new c
    from the command line) can recompute lambda afterwards. Unknown keys are
    an error so typos don't pass silently; resolve_params checks the values.
    """
    raw: dict[str, float] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            if key not in PARAM_KEYS and key not in COST_KEYS:
                raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise InvalidConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                raw[key] = float(val.strip())
            except ValueError:
                raise InvalidConfigError(f"{path}:{lineno}: bad number {val.strip()!r}") from None
    return raw


def resolve_params(*layers: dict, need_alpha: bool = True) -> tuple[QueueParams, CostParams]:
    """Parameter objects from dicts keyed like a config file.

    Later layers override earlier ones (a config file, then the flags), and
    a layer's lambda or rho replaces both of an earlier layer's.  Each layer
    is checked on its own: lambda or rho but not both, an integral c, and
    finite nonnegative cost weights.  mu defaults to 1 and the costs to
    CostParams().  A ``rho`` becomes lambda = rho * c * mu only after the
    merge, so an override of c or mu keeps the stated traffic intensity.
    With need_alpha=False a missing alpha becomes a placeholder 1, for
    callers that sweep or solve for it.
    """
    raw: dict = {}
    for layer in layers:
        if "lambda" in layer and "rho" in layer:
            raise InvalidConfigError("give lambda or rho, not both")
        if "c" in layer and not float(layer["c"]).is_integer():
            raise InvalidConfigError(f"c must be an integer, got {layer['c']}")
        for key in COST_KEYS:
            if key in layer:
                check_cost_weight(key, layer[key])
        if "lambda" in layer or "rho" in layer:
            raw = {k: v for k, v in raw.items() if k not in ("lambda", "rho")}
        raw.update(layer)
    if "c" not in raw:
        raise InvalidConfigError("c is required (config key c or flag --c)")
    c, mu = int(raw["c"]), raw.get("mu", 1.0)
    if "rho" in raw:
        lam = raw["rho"] * c * mu
    elif "lambda" in raw:
        lam = raw["lambda"]
    else:
        raise InvalidConfigError("lambda or rho is required (config key or flag)")
    if need_alpha and "alpha" not in raw:
        raise InvalidConfigError("alpha is required (config key alpha or flag --alpha)")
    params = QueueParams(lam=lam, mu=mu, c=c, alpha=raw.get("alpha", 1.0))
    costs = CostParams(**{attr: raw[k] for k, attr in COST_KEYS.items() if k in raw})
    return params, costs


def params_to_dict(params: QueueParams) -> dict:
    """Canonical JSON-friendly echo of the parameters (fixed key order)."""
    return {
        "lambda": params.lam,
        "mu": params.mu,
        "c": params.c,
        "alpha": params.alpha,
        "rho": params.rho,
    }

