"""Constant-relative-risk-aversion utility and its expectation over a
log-normal consumption level.

The utility is the shifted form u(c) = (c^(1-rho) - 1)/(1-rho): it is zero
at c = 1 for every rho and tends to ln(c) as rho -> 1, so values compare
across different rho, the log case included.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .calibration import check_beta
from .errors import InputError, NonPositiveConsumption, UtilityOverflow
from .moments import SampleMoments


class UtilitySpec(namedtuple("UtilitySpec", "rho")):
    """Curvature parameter of the utility function."""

    __slots__ = ()

    def __new__(cls, rho: float):
        if not (rho >= 0 and math.isfinite(rho)):
            raise InputError("rho must be finite and >= 0")
        return super().__new__(cls, rho)


class UtilityComparison(NamedTuple):
    """A certain utility next to the discounted, factor-scaled expectation.

    uncertain is beta * eta * expected_u by construction.
    """

    certain: float
    uncertain: float
    eta: float
    beta: float
    expected_u: float


def crra_utility(c: float, spec: UtilitySpec) -> float:
    """u(c) = (c^(1-rho) - 1)/(1-rho) under `spec`, equal to ln(c) at rho = 1.

    Computed as expm1((1-rho) ln c)/(1-rho), which stays accurate arbitrarily
    close to the log limit.
    """
    if c <= 0:
        raise NonPositiveConsumption(f"consumption must be positive, got {c}")
    a = 1.0 - spec.rho
    if a == 0.0:
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
    """expm1(x)/a, with an x too large to exponentiate as UtilityOverflow."""
    try:
        return math.expm1(x) / a
    except OverflowError:
        raise UtilityOverflow(
            f"utility leaves the floating-point range (exponent {x:.6g} at 1 - rho = {a:g})"
        ) from None


def check_eta(eta: float) -> float:
    """eta, if it is positive."""
    if not eta > 0:
        raise InputError(f"eta must be positive, got {eta}")
    return eta


def uncertain_utility(expected_u: float, beta: float, eta: float) -> float:
    """beta * eta * expected_u, the factor-scaled discounted expectation."""
    u = check_beta(beta) * check_eta(eta) * expected_u
    if not math.isfinite(u):
        raise UtilityOverflow(
            f"uncertain utility leaves the floating-point range "
            f"(beta {beta:g} * eta {eta:g} * E[u] {expected_u:.6g})"
        )
    return u


def make_comparison(
    certain: float, expected_u: float, beta: float, eta: float
) -> UtilityComparison:
    """Build a UtilityComparison with uncertain = beta*eta*expected_u."""
    return UtilityComparison(
        certain=certain,
        uncertain=uncertain_utility(expected_u, beta, eta),
        eta=eta,
        beta=beta,
        expected_u=expected_u,
    )
