"""Sufficiency-factor calibration from sample moments.

The system ties the risk-free rate, the equity return, and the equity
premium to the consumption-growth moments through two sufficiency factors
and the risk-aversion coefficient (log growth treated as normal):

    eq A:  ln mean_Rf = -ln beta - ln xi   + rho*mu_x     - rho^2*sigma2_x/2
    eq B:  ln mean_Re =  ln mean_x - ln beta - ln zeta
                         - (1-rho)*mu_x - (1-rho)^2*sigma2_x/2
    eq C:  ln mean_Re - ln mean_Rf = ln xi - ln zeta + rho*sigma2_x

Structure that drives everything here: for every (zeta, xi, rho),

    residual_C = residual_B - residual_A + gap,

where gap = ln(mean_x) - mu_x - sigma2_x/2 is the sample's consistency gap.
So the Jacobian d(residuals)/d(zeta, xi, rho) has rank 2 everywhere (row C
is row B - row A exactly), and the equations cannot identify rho. Solving
eqs A and B for (zeta, xi) at a given rho, with the log-normal closed forms
of Hansen & Singleton (1983, JPE), leaves residual_C equal to the gap,
whatever rho is. An exact root of all three equations exists only when the
gap is zero, and then every rho is one.

rho is therefore taken as given and never searched. solve_system raises
DegenerateSystem for a zero gap, rather than picking an arbitrary member of
the solution family; otherwise it returns the closed-form factors at the
caller's rho, with residuals (0, 0, gap) up to rounding. RHO_ANCHORS carries
the published reference values for the two variants of the bundled dataset,
and calibrate_variant passes them on unless the caller overrides rho.
Overriding rho changes zeta and xi only through the slowly varying closed
form.

Eqs A and B are written once, in _log_factors, solved for ln zeta* and
ln xi*: the closed form, whose factors must lie in [sys.float_info.min,
FACTOR_REGION_MAX] (a subnormal factor has lost digits). Residuals A and B
are ln xi - ln xi* and ln zeta - ln zeta*: eqs A and B rearranged.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DegenerateSystem, InputError, NoConvergence
from .moments import SampleMoments, consistency_gap
from .params import DEFAULT_BETA, Variant, check_beta, check_rho, not_a_number

DEGENERACY_TOL = 1e-12
FACTOR_REGION_MAX = 10.0
# ln of the largest float, rounded down: exp of a larger log-factor overflows.
_LN_FLOAT_MAX = 709.78


# Published reference calibration for the bundled 1889-1978 reconstruction.
# The equation system leaves rho free (module docstring), so the variant
# anchor supplies it; zeta and xi are always recomputed from the data.
RHO_ANCHORS: dict[Variant, float] = {
    Variant.REALIZED: 1.033526,
    Variant.PROJECTED: 1.0089,
}


class SufficiencyFactors(namedtuple("SufficiencyFactors", "zeta xi")):
    """Equity factor zeta and risk-free factor xi, each positive and finite."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, zeta: float, xi: float):
        try:
            positive = 0 < zeta < math.inf and 0 < xi < math.inf
        except (TypeError, ArithmeticError):
            raise not_a_number(zip(cls._fields, (zeta, xi)), lambda v: 0 < v < math.inf) from None
        if not positive:
            raise InputError("sufficiency factors must be positive and finite")
        return super().__new__(cls, zeta, xi)


class CalibrationResult(namedtuple("CalibrationResult", "factors rho residuals consistency_gap")):
    """SufficiencyFactors at rho, the (A, B, C) residuals and the consistency
    gap; rho, the three residuals and the gap must be finite."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, *args, **kwargs):
        c = super().__new__(cls, *args, **kwargs)
        if not isinstance(c.factors, SufficiencyFactors):
            raise InputError("factors must be SufficiencyFactors")
        if len(c.residuals) != 3:
            raise InputError("residuals must be three: A, B and C")
        if not all(math.isfinite(r) for r in c.residuals):
            raise InputError("residuals must be finite")
        if not (math.isfinite(c.rho) and math.isfinite(c.consistency_gap)):
            raise InputError("rho and the consistency gap must be finite")
        return c


def _log_factors(rho: float, beta: float, m: SampleMoments) -> tuple[float, float]:
    """(ln zeta*, ln xi*): eq B and eq A, each solved for its log factor."""
    ln_zeta = (
        math.log(m.mean_x) - math.log(beta) - (1.0 - rho) * m.mu_x
        - 0.5 * (1.0 - rho) ** 2 * m.sigma2_x - math.log(m.mean_Re)
    )
    ln_xi = -math.log(m.mean_Rf) - math.log(beta) + rho * m.mu_x - 0.5 * rho**2 * m.sigma2_x
    return ln_zeta, ln_xi


def system_residuals(
    f: SufficiencyFactors, rho: float, beta: float, m: SampleMoments
) -> tuple[float, float, float]:
    """LHS - RHS of eqs A, B, C at (f, rho); A and B as ln xi - ln xi* and
    ln zeta - ln zeta*, with (zeta*, xi*) the closed form at this rho.

    Raises InputError for beta outside (0, 1] or rho outside RHO_REGION.
    """
    ln_zeta = math.log(f.zeta)
    ln_xi = math.log(f.xi)
    check_beta(beta)
    rho = check_rho(rho)
    ln_zeta_star, ln_xi_star = _log_factors(rho, beta, m)
    r_c = (math.log(m.mean_Re) - math.log(m.mean_Rf)) - (
        ln_xi - ln_zeta + rho * m.sigma2_x
    )
    return (ln_xi - ln_xi_star, ln_zeta - ln_zeta_star, r_c)


def solve_closed_form_given_rho(rho: float, beta: float, m: SampleMoments) -> SufficiencyFactors:
    """The (zeta, xi) that zero eqs A and B exactly at this rho.

    Raises InputError for beta outside (0, 1] or rho outside RHO_REGION, and
    NoConvergence when a factor falls outside [sys.float_info.min,
    FACTOR_REGION_MAX]: one that is subnormal or underflows to 0 (its log has
    lost digits), exceeds the bound, or is too large for a float.
    """
    check_beta(beta)
    rho = check_rho(rho)
    # a log-factor too large to exponentiate (or NaN) gives inf, outside the region
    zeta, xi = (math.exp(v) if v < _LN_FLOAT_MAX else math.inf for v in _log_factors(rho, beta, m))
    lo, hi = sys.float_info.min, FACTOR_REGION_MAX  # a subnormal factor has lost digits
    if not (lo <= zeta <= hi and lo <= xi <= hi):
        raise NoConvergence(
            f"closed-form factors ({zeta:.6g}, {xi:.6g}) leave the region [{lo:.6g}, {hi:.6g}]"
        )
    return SufficiencyFactors(zeta, xi)


def solve_system(beta: float, m: SampleMoments, rho: float) -> CalibrationResult:
    """The closed-form factors at `rho` and the residuals of all three equations.

    rho is taken as given: the equations cannot identify it (module
    docstring). Residuals A and B are zero and residual C equals the
    consistency gap, each up to rounding.

    Raises InputError for beta outside (0, 1] or rho outside RHO_REGION;
    DegenerateSystem when |gap| < DEGENERACY_TOL, because a one-parameter
    family then solves the system and no single triple is meaningful; and
    NoConvergence as solve_closed_form_given_rho does.
    """
    check_beta(beta)
    gap = consistency_gap(m)
    if abs(gap) < DEGENERACY_TOL:
        raise DegenerateSystem(
            "consistency gap is zero to machine precision: eq C is exactly "
            "eq B - eq A, every rho solves the system, no unique triple exists"
        )
    rho = check_rho(rho)
    factors = solve_closed_form_given_rho(rho, beta, m)
    return CalibrationResult(
        factors=factors,
        rho=rho,
        residuals=system_residuals(factors, rho, beta, m),
        consistency_gap=gap,
    )


def calibrate_variant(
    m: SampleMoments,
    beta: float = DEFAULT_BETA,
    variant: Variant = Variant.REALIZED,
    rho: float | None = None,
) -> CalibrationResult:
    """solve_system at the variant's reference rho anchor.

    This is the calibration entry point the CLI uses: moments come from the
    requested dataset variant, rho from RHO_ANCHORS unless overridden, and
    zeta/xi from the closed form at that rho. A variant that is not a
    Variant is an InputError.
    """
    if not isinstance(variant, Variant):
        raise InputError(f"variant must be a Variant, got {variant!r}")
    return solve_system(beta, m, RHO_ANCHORS[variant] if rho is None else rho)
