"""The rules of the run parameters, which the CLI's option table and the
phase modules share: check_beta, check_rho, check_tol and check_eta, the
default beta and tol, and the Variant and DefinitionGroup choices. The CLI
imports them from here, so a command loads only the phase modules it runs.

Each check_* returns its parameter, or raises InputError naming it. Its
comparison is its type rule: a value that does not order against a float
(its comparison raises TypeError or ArithmeticError, as a str, bytes, None
or a decimal NaN does) is not a number, nor is a bool, which orders as 0
or 1. Any other value is checked by its value as given, and check_rho
converts it with float() only after that.
"""

from enum import Enum

from .errors import InputError

DEFAULT_BETA = 0.99
DEFAULT_TOLERANCE = 1e-9
RHO_REGION = (0.0, 60.0)


def holds(name: str, value, condition) -> bool:
    """condition(value), a comparison, for a number `value`; InputError
    naming `name` for a bool or a value whose comparison raises TypeError or
    ArithmeticError."""
    try:
        if type(value) is not bool:
            return condition(value)
    except (TypeError, ArithmeticError):
        pass
    raise InputError(f"{name} must be a number, got {value!r}")


def check_beta(beta: float) -> float:
    """beta, if it lies in (0, 1]."""
    if holds("beta", beta, lambda b: 0.0 < b <= 1.0):
        return beta
    raise InputError(f"beta must be in (0, 1], got {beta}")


def check_rho(rho: float) -> float:
    """rho as a float, if it lies in RHO_REGION: the package's one rho rule,
    which every public function that takes rho applies. An int too large for
    a float is outside it, and prints as it is."""
    lo, hi = RHO_REGION
    if holds("rho", rho, lambda r: lo <= r <= hi):
        return float(rho) + 0.0  # -0.0 becomes 0.0, so it prints as 0
    try:
        rho = float(rho)
    except OverflowError:
        pass
    raise InputError(f"rho {rho} outside the supported range [{lo:g}, {hi:g}]")


def check_tol(tol: float) -> float:
    """tol, if it is nonnegative."""
    if holds("tol", tol, lambda t: t >= 0):
        return tol
    raise InputError(f"tol must be >= 0, got {tol}")


def check_eta(eta: float) -> float:
    """eta, if it is positive."""
    if holds("eta", eta, lambda e: e > 0):
        return eta
    raise InputError(f"eta must be positive, got {eta}")


class Variant(Enum):
    """Which final consumption year a dataset carries."""

    REALIZED = "realized"
    PROJECTED = "projected"


class DefinitionGroup(Enum):
    ONE = "one"
    TWO = "two"
