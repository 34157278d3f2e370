"""Constant-relative-risk-aversion utility and its expectation over a
log-normal consumption level.

The utility is the shifted form u(c) = (c^(1-rho) - 1)/(1-rho): it is zero
at c = 1 for every rho and tends to ln(c) as rho -> 1, so values compare
across different rho, the log case included.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NonPositiveConsumption, UtilityOverflow
from .moments import SampleMoments
from .params import check_beta, check_eta, check_rho, not_a_number


class UtilitySpec(namedtuple("UtilitySpec", "rho")):
    """Curvature parameter of the utility function, checked by check_rho."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, rho: float):
        return super().__new__(cls, check_rho(rho))


# A certain utility next to the discounted, factor-scaled expectation:
# uncertain is beta * eta * expected_u by construction (make_comparison).
UtilityComparison = namedtuple("UtilityComparison", "certain uncertain eta beta expected_u")


def crra_utility(c: float, spec: UtilitySpec) -> float:
    """u(c) = (c^(1-rho) - 1)/(1-rho) under `spec`, equal to ln(c) at rho = 1.

    Computed as expm1((1-rho) ln c)/(1-rho), which stays accurate arbitrarily
    close to the log limit. c = inf at rho <= 1 raises UtilityOverflow.
    """
    if not c > 0:
        raise NonPositiveConsumption(f"consumption must be positive, got {c}")
    a = 1.0 - spec.rho
    if a == 0.0:
        if c == math.inf:
            raise UtilityOverflow("utility leaves the floating-point range (ln c = inf at rho = 1)")
        return math.log(c)
    return _expm1_over(a, a * math.log(c))


def expected_utility_unconditional(m: SampleMoments, spec: UtilitySpec) -> float:
    """E[u(c)] treating the consumption level as log-normal(mu_z, sigma2_z).

    With a = 1 - rho the log-normal moment gives
    (exp(a*mu_z + a^2*sigma2_z/2) - 1)/a; at rho = 1 this is mu_z exactly.
    """
    a = 1.0 - spec.rho
    if a == 0.0:
        return m.mu_z
    return _expm1_over(a, a * m.mu_z + 0.5 * a * a * m.sigma2_z)


def _expm1_over(a: float, x: float) -> float:
    """expm1(x)/a, with a result that is not finite as UtilityOverflow."""
    try:
        u = math.expm1(x) / a
    except OverflowError:
        u = math.inf
    if not math.isfinite(u):
        raise UtilityOverflow(
            f"utility leaves the floating-point range (exponent {x:.6g} at 1 - rho = {a:g})"
        )
    return u


def uncertain_utility(expected_u: float, beta: float, eta: float) -> float:
    """beta * eta * expected_u, the factor-scaled discounted expectation.
    Raises InputError naming a value that a float does not multiply, such
    as a Decimal, which check_beta and check_eta take."""
    try:
        u = check_beta(beta) * check_eta(eta) * expected_u
    except TypeError:
        fields = zip(("beta", "eta", "expected_u"), (beta, eta, expected_u))
        raise not_a_number(fields, lambda v: 1.0 * v) from None
    if not math.isfinite(u):
        raise UtilityOverflow(
            f"uncertain utility leaves the floating-point range "
            f"(beta {beta:g} * eta {eta:g} * E[u] {expected_u:.6g})"
        )
    return u


def make_comparison(
    certain: float, expected_u: float, beta: float, eta: float
) -> UtilityComparison:
    """Build a UtilityComparison with uncertain = beta*eta*expected_u.

    Raises what uncertain_utility raises, InputError for a certain utility
    that is not a number and UtilityOverflow for one that is not finite.
    """
    uncertain = uncertain_utility(expected_u, beta, eta)
    try:
        finite = math.isfinite(certain)
    except TypeError:
        raise not_a_number([("certain", certain)], math.isfinite) from None
    if not finite:
        raise UtilityOverflow(f"certain utility is not finite, got {certain}")
    return UtilityComparison(
        certain=certain,
        uncertain=uncertain,
        eta=eta,
        beta=beta,
        expected_u=expected_u,
    )
