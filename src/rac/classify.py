"""Risk-attitude classification from a certain/uncertain utility comparison.

A sufficiency factor away from one allocates extra utility to the uncertain
side: negative allocation when eta < 1, positive when eta > 1. Comparing the
certain utility of the last realized year against the discounted, scaled
expectation for the following year then places the investor in one of five
attitudes. Two definition groups exist; they agree on the concave cases and
differ in how explicitly curvature enters.

Group one (definitions 1-5) assumes a strictly concave certain-utility curve
but its not-enough-risk-averse rule (definition 5) nevertheless requires a
strictly convex increasing curve; the rule is kept exactly as defined, so
under group one a negative allocation with a negative utility gap on a
concave curve is unclassifiable. Group two (definitions 6-10) carries the
curvature requirement in every rule.

Horizontal curves use the sign rules with the curvature conditions waived,
except that not-enough-risk-averse is rejected outright (InvalidCombination).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .dataset import MarketDataset
from .errors import InputError, InvalidCombination, Unclassifiable
from .moments import SampleMoments, compute_moments
from .utility import (
    UtilityComparison,
    UtilitySpec,
    check_eta,
    crra_utility,
    expected_utility_unconditional,
    make_comparison,
)

DEFAULT_TOLERANCE = 1e-9


def check_tol(tol: float) -> float:
    """tol, if it is nonnegative."""
    if not tol >= 0:
        raise InputError(f"tol must be >= 0, got {tol}")
    return tol


class Curvature(Enum):
    STRICTLY_CONCAVE = "strictly-concave"
    STRICTLY_CONVEX_INCREASING = "strictly-convex-increasing"
    LINEAR = "linear"
    HORIZONTAL = "horizontal"


class DefinitionGroup(Enum):
    ONE = "one"
    TWO = "two"


class AllocationSign(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"
    ZERO = "zero"


class Label(Enum):
    RISK_AVERSE = "Risk-averse"
    RISK_LOVING = "Risk-loving"
    NOT_ENOUGH_RISK_LOVING = "Not enough risk-loving"
    NOT_ENOUGH_RISK_AVERSE = "Not enough risk-averse"
    RISK_NEUTRAL = "Risk-neutral"


class RiskAttitude(NamedTuple):
    label: Label
    group: DefinitionGroup
    defining_equation: int
    allocation: AllocationSign


def _sign_from_eta(eta: float) -> AllocationSign:
    if check_eta(eta) < 1.0:
        return AllocationSign.NEGATIVE
    if eta > 1.0:
        return AllocationSign.POSITIVE
    return AllocationSign.ZERO


# (negative allocation, certain > uncertain) -> (label, group-one equation,
# group-two equation). The groups differ only in the curvature they require.
_DEFINITIONS = {
    (True, True): (Label.RISK_AVERSE, 1, 6),
    (False, False): (Label.RISK_LOVING, 2, 8),
    (False, True): (Label.NOT_ENOUGH_RISK_LOVING, 3, 7),
    (True, False): (Label.NOT_ENOUGH_RISK_AVERSE, 5, 9),
}


def classify(
    cmp: UtilityComparison,
    curvature: Curvature,
    group: DefinitionGroup = DefinitionGroup.TWO,
    tol: float = DEFAULT_TOLERANCE,
) -> RiskAttitude:
    """Map a utility comparison to a risk attitude.

    delta = certain - uncertain. |delta| <= tol is risk-neutral regardless of
    allocation sign (definition 4 or 10). Otherwise a zero allocation
    (eta = 1) matches no definition; the two signs pick a row of _DEFINITIONS
    and the curvature rules of the module docstring accept or reject it.
    """
    delta = cmp.certain - cmp.uncertain
    alloc = _sign_from_eta(cmp.eta)
    one = group is DefinitionGroup.ONE

    if abs(delta) <= check_tol(tol):
        return RiskAttitude(Label.RISK_NEUTRAL, group, 4 if one else 10, alloc)

    if alloc is AllocationSign.ZERO:
        raise Unclassifiable(
            "eta = 1 allocates no extra utility; no definition covers a "
            "nonzero utility gap without an allocation"
        )

    gap_up = delta > 0
    label, eq_one, eq_two = _DEFINITIONS[alloc is AllocationSign.NEGATIVE, gap_up]
    nera = label is Label.NOT_ENOUGH_RISK_AVERSE

    if curvature is Curvature.HORIZONTAL:
        if nera:
            raise InvalidCombination(
                "not-enough-risk-averse is rejected under a horizontal curve"
            )
    elif one:
        if nera and curvature is not Curvature.STRICTLY_CONVEX_INCREASING:
            raise Unclassifiable(
                "group one: negative allocation with certain < uncertain is "
                "defined only for a strictly convex increasing curve"
            )
    elif curvature is Curvature.STRICTLY_CONCAVE:
        if not gap_up:
            raise Unclassifiable(
                "group two: certain < uncertain matches no concave-curve definition"
            )
    elif curvature is Curvature.STRICTLY_CONVEX_INCREASING:
        if gap_up:
            raise Unclassifiable(
                "group two: certain > uncertain matches no convex-curve definition"
            )
    else:
        raise Unclassifiable(
            f"group two has no definition for a {curvature.value} curve with a "
            "nonzero utility gap"
        )
    return RiskAttitude(label, group, eq_one if one else eq_two, alloc)


def curvature_from_rho(rho: float) -> Curvature:
    """Curvature of the shifted power utility: concave for rho > 0, linear
    at rho = 0."""
    if rho < 0:
        raise InputError(f"rho must be >= 0, got {rho}")
    return Curvature.STRICTLY_CONCAVE if rho > 0 else Curvature.LINEAR


def classify_pipeline(
    d: MarketDataset,
    eta: float,
    rho: float,
    beta: float,
    group: DefinitionGroup = DefinitionGroup.TWO,
    tol: float = DEFAULT_TOLERANCE,
    *,
    moments: SampleMoments | None = None,
) -> tuple[UtilityComparison, RiskAttitude]:
    """Dataset -> moments -> utilities -> attitude, in one call.

    The certain side is the shifted utility of the next-to-last year's
    consumption; the uncertain side is beta * eta * E[u] with the
    expectation taken over the full-span log-level moments of `d`.
    `moments` are compute_moments(d) when the caller already has them;
    when None they are computed here.
    """
    spec = UtilitySpec(rho)
    m = compute_moments(d) if moments is None else moments
    certain = crra_utility(d.consumption.values[-2], spec)
    expected = expected_utility_unconditional(m, spec)
    cmp = make_comparison(certain, expected, beta, eta)
    return cmp, classify(cmp, curvature_from_rho(rho), group, tol)
