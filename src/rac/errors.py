"""Exception types shared across the package.

Two families matter to the CLI: input problems (bad files, bad schema, a
parameter out of range) exit with code 1, computation problems (non-finite
moments, degenerate systems, unclassifiable comparisons) exit with code 2.
InputError is also a ValueError, the type Python gives a bad argument value.
"""


class RacError(Exception):
    """Base class for all package errors."""


class InputError(RacError, ValueError):
    """A problem with user-supplied data or arguments. CLI exit code 1."""


class ComputeError(RacError):
    """A problem arising during computation. CLI exit code 2."""


# -- dataset ----------------------------------------------------------------

class SchemaError(InputError):
    """CSV header or cell layout does not match the documented schema."""


class MissingYear(InputError):
    """Year column is not contiguous (gap, duplicate, or reversal)."""


class NonPositiveValue(InputError):
    """A consumption, gross-return or projection cell is zero, negative, or
    not finite."""


# -- moments ----------------------------------------------------------------

class NegativeVariance(ComputeError):
    """A variance argument was negative."""


class NonFiniteMoment(ComputeError):
    """A sample or log-normal moment is not finite: a growth ratio, a sum or
    an exponential left the floating-point range."""


# -- utility ----------------------------------------------------------------

class NonPositiveConsumption(ComputeError):
    """Utility requested for consumption <= 0."""


class UtilityOverflow(ComputeError):
    """A utility is not finite: (1-rho) times a log consumption level is too
    large to exponentiate, or a utility given, scaled or compared is not finite."""


# -- calibration ------------------------------------------------------------

class NoConvergence(ComputeError):
    """A closed-form sufficiency factor at the requested rho is above
    FACTOR_REGION_MAX, or subnormal, or underflowed to zero."""


class DegenerateSystem(ComputeError):
    """The three equations are exactly dependent; a one-parameter solution
    family exists and no single triple can be reported."""


# -- classification ---------------------------------------------------------

class Unclassifiable(ComputeError):
    """The (allocation sign, utility gap, curvature) combination matches no
    definition in the requested group."""


class InvalidCombination(ComputeError):
    """The combination is explicitly rejected (not-enough-risk-averse under a
    horizontal certain-utility curve)."""
