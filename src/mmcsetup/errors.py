"""Exception types shared across the solvers, and the one certificate gate.

Everything derives from QueueModelError so callers can catch model-level
failures with one except clause while letting genuine bugs surface.
`certify(name, value, tol)` is how every solver's tolerance certificate
passes or raises: at or under its tolerance it returns the value, and
anything else, nan included, raises "<name> <value> exceeds <tol>".
"""

class QueueModelError(Exception):
    """Base class for all model and solver errors."""

    #: short machine-readable tag used by the CLI error JSON
    tag = "QueueModelError"


class InvalidParameterError(QueueModelError):
    """A rate is nonpositive, the server count is < 1, or similar."""

    tag = "InvalidParameter"


class UnstableError(QueueModelError):
    """Offered load rho = lambda / (c mu) is >= 1; no stationary regime."""

    tag = "Unstable"

    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(f"unstable: rho = {rho:.6g} >= 1")


class InvalidStateError(QueueModelError):
    """State (i, j) lies outside the reachable region 0 <= i <= c, j >= i."""

    tag = "InvalidState"


class InvalidConfigError(QueueModelError):
    """A config file, sweep grid or simulation setup is malformed."""

    tag = "InvalidConfig"


class DegenerateConditionError(QueueModelError):
    """A conditional distribution was requested on an event of zero mass."""

    tag = "DegenerateCondition"


class TruncationInsufficientError(QueueModelError):
    """The truncated state space leaves more probability mass in its last
    levels than the caller's tolerance allows."""

    tag = "TruncationInsufficient"


class NoCrossingError(QueueModelError):
    """Cost curves do not cross inside the bracketing interval."""

    tag = "NoCrossing"


class InternalInconsistencyError(QueueModelError):
    """An internal certificate failed (a quantity that is provably positive
    came out nonpositive, two exact identities disagreed, a matrix that is
    provably nonsingular failed to factor).  Indicates a bug, not bad input."""

    tag = "InternalInconsistency"


def certify(name: str, value: float, tol: float, error=InternalInconsistencyError) -> float:
    """Return `value` if it is at or under `tol`; otherwise raise `error`
    with the message "<name> <value> exceeds <tol>".  A nan is not <= tol,
    so it fails too."""
    if value <= tol:
        return value
    raise error(f"{name} {value!r} exceeds {tol!r}")
