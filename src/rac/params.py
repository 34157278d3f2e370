"""The rules of the run parameters, which the CLI's option table and the
phase modules share: check_beta, check_rho, check_tol and check_eta, the
default beta and tol, and the Variant and DefinitionGroup choices. The CLI
imports them from here, so a command loads only the phase modules it runs.

Each check_* returns its parameter, or raises InputError naming it. Its
comparison is its type rule: a value that does not order against a float
(its comparison raises TypeError or ArithmeticError, as a str, bytes, None
or a decimal NaN does) is not a number, nor is a bool, which orders as 0
or 1. Any other value is checked by its value as given, and check_rho
converts it with float() only after that. A message shows an int too long
for str() to six significant digits.
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


def not_a_number(fields, test) -> InputError:
    """The InputError naming the first of `fields`, (name, value) pairs, whose
    value is not a number to the operation the caller's values failed in:
    test(value), that operation on the one value, raises TypeError or
    ArithmeticError. It names the last field if no value fails alone."""
    for name, value in fields:
        try:
            test(value)
        except (TypeError, ArithmeticError):
            break
    return InputError(f"{name} must be a number, got {value!r}")


def _shown(value) -> str:
    """str(value), or for an int over str()'s digit limit, the int to six significant digits."""
    try:
        return str(value)
    except ValueError:  # sys.get_int_max_str_digits()
        from decimal import Decimal  # loaded only for such an int

        return f"{Decimal(value):.6g}"


def check_beta(beta: float) -> float:
    """beta, if it lies in (0, 1]."""
    if holds("beta", beta, lambda b: 0.0 < b <= 1.0):
        return beta
    raise InputError(f"beta must be in (0, 1], got {_shown(beta)}")


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
    raise InputError(f"rho {_shown(rho)} outside the supported range [{lo:g}, {hi:g}]")


def check_tol(tol: float) -> float:
    """tol, if it is nonnegative."""
    if holds("tol", tol, lambda t: t >= 0):
        return tol
    raise InputError(f"tol must be >= 0, got {_shown(tol)}")


def check_eta(eta: float) -> float:
    """eta, if it is positive."""
    if holds("eta", eta, lambda e: e > 0):
        return eta
    raise InputError(f"eta must be positive, got {_shown(eta)}")


class Variant(Enum):
    """Which final consumption year a dataset carries."""

    REALIZED = "realized"
    PROJECTED = "projected"


class DefinitionGroup(Enum):
    ONE = "one"
    TWO = "two"
