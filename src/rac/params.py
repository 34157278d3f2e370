"""The rules of the run parameters, which the CLI's option table and the
phase modules share: number, check_beta, check_rho, check_tol and
check_eta, the default beta and tol, and the Variant and DefinitionGroup
choices. The CLI imports them from here, so a command loads only the phase
modules it runs.

number is the package's one type rule: a public value becomes a float once,
where it enters the library, and only floats are compared or computed with
after that. A number is a value whose type defines __float__, other than a
bool: so an int, a float, a Decimal or a Fraction is one, and a str, bytes,
None or a complex is not, although float() reads text. An int too large for
a float becomes inf or -inf. Each check_* converts by number, checks the
float, and returns it, or raises InputError naming its parameter.
"""

import math
from enum import Enum

from .errors import InputError

DEFAULT_BETA = 0.99
DEFAULT_TOLERANCE = 1e-9
RHO_REGION = (0.0, 60.0)


def number(name: str, value) -> float:
    """`value` as a float, if it is a number (module docstring); else
    InputError naming `name`, for a signaling decimal NaN too."""
    if type(value) is float:
        return value
    if hasattr(type(value), "__float__") and type(value) is not bool:
        try:
            return float(value)
        except OverflowError:  # an int or a fraction too large for a float
            return math.inf if value > 0 else -math.inf
        except ValueError:  # a signaling decimal NaN
            pass
    raise InputError(f"{name} must be a number, got {value!r}")


def check_beta(beta: float) -> float:
    """beta as a float, if it lies in (0, 1]."""
    beta = number("beta", beta)
    if 0.0 < beta <= 1.0:
        return beta
    raise InputError(f"beta must be in (0, 1], got {beta}")


def check_rho(rho: float) -> float:
    """rho as a float, if it lies in RHO_REGION: the package's one rho rule,
    which every public function that takes rho applies."""
    rho = number("rho", rho)
    lo, hi = RHO_REGION
    if lo <= rho <= hi:
        return rho + 0.0  # -0.0 becomes 0.0, so it prints as 0
    raise InputError(f"rho {rho} outside the supported range [{lo:g}, {hi:g}]")


def check_tol(tol: float) -> float:
    """tol as a float, if it is nonnegative."""
    tol = number("tol", tol)
    if tol >= 0.0:
        return tol
    raise InputError(f"tol must be >= 0, got {tol}")


def check_eta(eta: float) -> float:
    """eta as a float, if it is positive."""
    eta = number("eta", eta)
    if eta > 0.0:
        return eta
    raise InputError(f"eta must be positive, got {eta}")


class Variant(Enum):
    """Which final consumption year a dataset carries."""

    REALIZED = "realized"
    PROJECTED = "projected"


class DefinitionGroup(Enum):
    ONE = "one"
    TWO = "two"
