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

from collections import namedtuple
from enum import Enum

from .dataset import MarketDataset
from .errors import InputError, InvalidCombination, Unclassifiable, UtilityOverflow
from .moments import SampleMoments, compute_moments
from .params import DEFAULT_TOLERANCE, DefinitionGroup, check_eta, check_rho, check_tol
from .utility import (
    UtilityComparison,
    UtilitySpec,
    crra_utility,
    expected_utility_unconditional,
    make_comparison,
)

class Curvature(Enum):
    STRICTLY_CONCAVE = "strictly-concave"
    STRICTLY_CONVEX_INCREASING = "strictly-convex-increasing"
    LINEAR = "linear"
    HORIZONTAL = "horizontal"


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


# The label a comparison earns, under which group and defining equation, and
# the allocation sign it was read from.
RiskAttitude = namedtuple("RiskAttitude", "label group defining_equation allocation")


def _sign_from_eta(eta: float) -> AllocationSign:
    eta = check_eta(eta)
    if eta < 1.0:
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

    curvature and group must be members of their enums, else InputError.
    delta = certain - uncertain must be finite, else UtilityOverflow (after the
    eta and tol checks). |delta| <= tol is risk-neutral regardless of
    allocation sign (definition 4 or 10). Otherwise a zero allocation
    (eta = 1) matches no definition; the two signs pick a row of _DEFINITIONS
    and the curvature rules of the module docstring accept or reject it.
    """
    if not isinstance(curvature, Curvature):
        raise InputError(f"curvature must be a Curvature, got {curvature!r}")
    if not isinstance(group, DefinitionGroup):
        raise InputError(f"group must be a DefinitionGroup, got {group!r}")
    delta = cmp.certain - cmp.uncertain
    alloc = _sign_from_eta(cmp.eta)
    one = group is DefinitionGroup.ONE
    tol = check_tol(tol)
    if not abs(delta) < float("inf"):  # inf or nan
        raise UtilityOverflow(f"utility gap certain - uncertain is not finite, got {delta}")

    if abs(delta) <= tol:
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
    """Curvature of the shifted power utility at a rho check_rho accepts:
    concave for rho > 0, linear at rho = 0."""
    return Curvature.STRICTLY_CONCAVE if check_rho(rho) > 0 else Curvature.LINEAR


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
    Given `moments`, `d` supplies only its next-to-last consumption, which
    every variant of a series shares: moments of with_final_consumption(d,
    c) give that dataset's result for any final c. None computes them here.
    """
    spec = UtilitySpec(rho)
    m = compute_moments(d) if moments is None else moments
    certain = crra_utility(d.consumption[-2], spec)
    expected = expected_utility_unconditional(m, spec)
    cmp = make_comparison(certain, expected, beta, eta)
    return cmp, classify(cmp, curvature_from_rho(rho), group, tol)
