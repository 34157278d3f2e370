"""The rules of the run parameters, which the CLI's option table and the
phase modules share: check_beta, check_rho, check_tol and check_eta, the
default beta and tol, and the Variant and DefinitionGroup choices. The CLI
imports them from here, so a command loads only the phase modules it runs.

Each check_* returns its parameter, or raises InputError naming it. A value
of type str, bytes, NoneType or bool is not a number, though float() reads
some of them and a bool compares as 0 or 1, and neither is a value that
does not compare with a float; any other number is checked by its value.
A check tests the type by one set lookup, inside the try around its
comparison, which raises TypeError for a value of no order with floats.
"""

from enum import Enum

from .errors import InputError

DEFAULT_BETA = 0.99
DEFAULT_TOLERANCE = 1e-9
RHO_REGION = (0.0, 60.0)
_NOT_NUMBERS = frozenset((str, bytes, bool, type(None)))


def _error(name: str, value, message: str | None) -> InputError:
    """InputError(message), or the type rule's InputError for a message of
    None (a TypeError) or a value whose type is in _NOT_NUMBERS."""
    if message is None or type(value) in _NOT_NUMBERS:
        message = f"{name} must be a number, got {value!r}"
    return InputError(message)


def check_beta(beta: float) -> float:
    """beta, if it lies in (0, 1]."""
    try:
        if type(beta) not in _NOT_NUMBERS and 0.0 < beta <= 1.0:
            return beta
    except TypeError:
        raise _error("beta", beta, None) from None
    raise _error("beta", beta, f"beta must be in (0, 1], got {beta}")


def check_rho(rho: float) -> float:
    """rho as a float, if it lies in RHO_REGION: the package's one rho rule,
    which every public function that takes rho applies."""
    lo, hi = RHO_REGION
    try:
        if type(rho) not in _NOT_NUMBERS:
            rho = float(rho) + 0.0  # -0.0 becomes 0.0, so it prints as 0
            if lo <= rho <= hi:
                return rho
    except TypeError:
        raise _error("rho", rho, None) from None
    raise _error("rho", rho, f"rho {rho} outside the supported range [{lo:g}, {hi:g}]")


def check_tol(tol: float) -> float:
    """tol, if it is nonnegative."""
    try:
        if type(tol) not in _NOT_NUMBERS and tol >= 0:
            return tol
    except TypeError:
        raise _error("tol", tol, None) from None
    raise _error("tol", tol, f"tol must be >= 0, got {tol}")


def check_eta(eta: float) -> float:
    """eta, if it is positive."""
    try:
        if type(eta) not in _NOT_NUMBERS and eta > 0:
            return eta
    except TypeError:
        raise _error("eta", eta, None) from None
    raise _error("eta", eta, f"eta must be positive, got {eta}")


class Variant(Enum):
    """Which final consumption year a dataset carries."""

    REALIZED = "realized"
    PROJECTED = "projected"


class DefinitionGroup(Enum):
    ONE = "one"
    TWO = "two"
