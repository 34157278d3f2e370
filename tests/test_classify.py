"""Classification decision table, invariants, and the dataset pipeline."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rac import (
    AllocationSign,
    Curvature,
    DefinitionGroup,
    Label,
    MarketDataset,
    classify,
    classify_pipeline,
    curvature_from_rho,
    solve_closed_form_given_rho,
    compute_moments,
)
from rac.errors import InvalidCombination, Unclassifiable

from conftest import cmp_with

G1, G2 = DefinitionGroup.ONE, DefinitionGroup.TWO
CONCAVE = Curvature.STRICTLY_CONCAVE
CONVEX = Curvature.STRICTLY_CONVEX_INCREASING
LINEAR = Curvature.LINEAR
HORIZONTAL = Curvature.HORIZONTAL

EQ_LABEL = {
    1: Label.RISK_AVERSE,
    2: Label.RISK_LOVING,
    3: Label.NOT_ENOUGH_RISK_LOVING,
    4: Label.RISK_NEUTRAL,
    5: Label.NOT_ENOUGH_RISK_AVERSE,
    6: Label.RISK_AVERSE,
    7: Label.NOT_ENOUGH_RISK_LOVING,
    8: Label.RISK_LOVING,
    9: Label.NOT_ENOUGH_RISK_AVERSE,
    10: Label.RISK_NEUTRAL,
}


def constant_dataset(level=100.0, years=5):
    flat = [1.0] * years
    return MarketDataset(1970, [level] * years, flat, flat)


# -- allocation sign and curvature_from_rho ----------------------------------

def test_allocation_sign_reference_values():
    # the paper's equity and risk-free factors, and eta = 1 inside the band
    assert classify(cmp_with(5.0, 4.0, 0.961745), CONCAVE).allocation is AllocationSign.NEGATIVE
    assert classify(cmp_with(5.0, 4.0, 1.019392), CONCAVE).allocation is AllocationSign.POSITIVE
    assert classify(cmp_with(5.0, 5.0, 1.0), CONCAVE).allocation is AllocationSign.ZERO


def test_curvature_from_rho():
    assert curvature_from_rho(0.0) is LINEAR
    assert curvature_from_rho(1.033526) is CONCAVE


# -- decision table -----------------------------------------------------------

# each error of the decision table, by its exact message
CONCAVE_DOWN = "group two: certain < uncertain matches no concave-curve definition"
CONVEX_UP = "group two: certain > uncertain matches no convex-curve definition"
LINEAR_GAP = "group two has no definition for a linear curve with a nonzero utility gap"
NOT_CONVEX = ("group one: negative allocation with certain < uncertain is defined only for a "
              "strictly convex increasing curve")
HORIZONTAL_NERA = "not-enough-risk-averse is rejected under a horizontal curve"

TABLE = [
    # (group, curvature, eta, delta sign, expected label or error, equation,
    #  error message)
    (G2, CONCAVE, 0.9, +1, Label.RISK_AVERSE, 6, None),
    (G2, CONCAVE, 1.1, +1, Label.NOT_ENOUGH_RISK_LOVING, 7, None),
    (G2, CONCAVE, 0.9, -1, Unclassifiable, None, CONCAVE_DOWN),
    (G2, CONCAVE, 1.1, -1, Unclassifiable, None, CONCAVE_DOWN),
    (G2, CONVEX, 1.1, -1, Label.RISK_LOVING, 8, None),
    (G2, CONVEX, 0.9, -1, Label.NOT_ENOUGH_RISK_AVERSE, 9, None),
    (G2, CONVEX, 0.9, +1, Unclassifiable, None, CONVEX_UP),
    (G2, CONVEX, 1.1, +1, Unclassifiable, None, CONVEX_UP),
    (G2, LINEAR, 0.9, +1, Unclassifiable, None, LINEAR_GAP),
    (G2, LINEAR, 1.1, -1, Unclassifiable, None, LINEAR_GAP),
    (G1, CONCAVE, 0.9, +1, Label.RISK_AVERSE, 1, None),
    (G1, CONCAVE, 1.1, -1, Label.RISK_LOVING, 2, None),
    (G1, CONCAVE, 1.1, +1, Label.NOT_ENOUGH_RISK_LOVING, 3, None),
    (G1, CONVEX, 0.9, -1, Label.NOT_ENOUGH_RISK_AVERSE, 5, None),
    (G1, CONCAVE, 0.9, -1, Unclassifiable, None, NOT_CONVEX),
    (G1, LINEAR, 0.9, -1, Unclassifiable, None, NOT_CONVEX),
    (G1, HORIZONTAL, 0.9, +1, Label.RISK_AVERSE, 1, None),
    (G2, HORIZONTAL, 0.9, +1, Label.RISK_AVERSE, 6, None),
    (G2, HORIZONTAL, 1.1, -1, Label.RISK_LOVING, 8, None),
    (G2, HORIZONTAL, 1.1, +1, Label.NOT_ENOUGH_RISK_LOVING, 7, None),
    (G2, HORIZONTAL, 0.9, -1, InvalidCombination, None, HORIZONTAL_NERA),
    (G1, HORIZONTAL, 0.9, -1, InvalidCombination, None, HORIZONTAL_NERA),
]


@pytest.mark.parametrize("group,curvature,eta,delta_sign,expected,equation,message", TABLE)
def test_decision_table(group, curvature, eta, delta_sign, expected, equation, message):
    cmp = cmp_with(5.0 + delta_sign * 0.5, 5.0, eta)
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected) as info:
            classify(cmp, curvature, group)
        assert (type(info.value), str(info.value)) == (expected, message)
    else:
        attitude = classify(cmp, curvature, group)
        assert attitude.label is expected
        assert attitude.defining_equation == equation
        assert attitude.group is group


def test_risk_neutral_checked_first():
    for group, eq in ((G1, 4), (G2, 10)):
        attitude = classify(cmp_with(5.0, 5.0, 1.4), CONCAVE, group, tol=1e-9)
        assert attitude.label is Label.RISK_NEUTRAL
        assert attitude.defining_equation == eq
    # eta = 1 is fine inside the tolerance band, an error outside it.
    neutral = classify(cmp_with(5.0, 5.0 + 1e-12, 1.0), CONCAVE, G2)
    assert neutral.label is Label.RISK_NEUTRAL
    assert neutral.allocation is AllocationSign.ZERO
    with pytest.raises(Unclassifiable):
        classify(cmp_with(5.0, 6.0, 1.0), CONCAVE, G2)


def test_paper_table_rows():
    averse = classify(cmp_with(7.103787, 6.192703, 0.961745), CONCAVE, G2)
    assert averse.label is Label.RISK_AVERSE
    assert averse.defining_equation == 6
    loving = classify(cmp_with(7.103787, 6.563893, 1.019392), CONCAVE, G2)
    assert loving.label is Label.NOT_ENOUGH_RISK_LOVING
    assert loving.defining_equation == 7


# -- invariants ---------------------------------------------------------------

values = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
etas = st.floats(min_value=1e-3, max_value=1e3)
curvatures = st.sampled_from(list(Curvature))
groups = st.sampled_from(list(DefinitionGroup))


def outcome(cmp, curvature, group, tol):
    try:
        return ("label", classify(cmp, curvature, group, tol).label)
    except Unclassifiable:
        return ("error", Unclassifiable)
    except InvalidCombination:
        return ("error", InvalidCombination)


@given(
    certain=values,
    uncertain=values,
    eta=etas,
    curvature=curvatures,
    group=groups,
    tol=st.floats(min_value=0, max_value=1e6),
)
def test_trichotomy(certain, uncertain, eta, curvature, group, tol):
    cmp = cmp_with(certain, uncertain, eta)
    kind, value = outcome(cmp, curvature, group, tol)
    if kind == "label":
        attitude = classify(cmp, curvature, group, tol)
        assert attitude.label in list(Label)
        assert EQ_LABEL[attitude.defining_equation] is attitude.label
        eq_range = range(1, 6) if group is G1 else range(6, 11)
        assert attitude.defining_equation in eq_range
        neutral = abs(certain - uncertain) <= tol
        assert (attitude.label is Label.RISK_NEUTRAL) == neutral
    else:
        assert value in (Unclassifiable, InvalidCombination)


@given(
    certain=values,
    uncertain=values,
    eta=etas,
    curvature=curvatures,
    group=groups,
    t1=st.floats(min_value=0, max_value=1e6),
    t2=st.floats(min_value=0, max_value=1e6),
)
def test_tolerance_monotonicity(certain, uncertain, eta, curvature, group, t1, t2):
    t1, t2 = min(t1, t2), max(t1, t2)
    cmp = cmp_with(certain, uncertain, eta)
    at_t1 = outcome(cmp, curvature, group, t1)
    at_t2 = outcome(cmp, curvature, group, t2)
    if at_t1 == ("label", Label.RISK_NEUTRAL):
        assert at_t2 == ("label", Label.RISK_NEUTRAL)
    if at_t2 != ("label", Label.RISK_NEUTRAL):
        assert at_t1 == at_t2


@given(
    certain=st.floats(min_value=-1e6, max_value=1e6),
    offset=st.floats(min_value=1e-3, max_value=1e6),
    direction=st.sampled_from([-1.0, 1.0]),
    eta=etas,
    curvature=curvatures,
    group=groups,
    k=st.floats(min_value=1e-3, max_value=1e3),
)
def test_affine_scaling_invariance(certain, offset, direction, eta, curvature, group, k):
    assume(eta != 1.0)
    uncertain = certain + direction * offset
    base = outcome(cmp_with(certain, uncertain, eta), curvature, group, 0.0)
    scaled = outcome(cmp_with(k * certain, k * uncertain, eta), curvature, group, 0.0)
    assert scaled == base


@given(
    delta=st.floats(min_value=1e-6, max_value=1e6),
    eta=etas,
)
def test_groups_agree_on_concave_cases(delta, eta):
    assume(eta != 1.0)
    cmp = cmp_with(10.0 + delta, 10.0, eta)
    one = classify(cmp, CONCAVE, G1)
    two = classify(cmp, CONCAVE, G2)
    assert one.label is two.label
    assert (one.defining_equation, two.defining_equation) in ((1, 6), (3, 7))


# -- pipeline -----------------------------------------------------------------

def test_pipeline_realized_equity(bundled):
    cmp, attitude = classify_pipeline(bundled, 0.961745, 1.033526, 0.99)
    assert attitude.label is Label.RISK_AVERSE
    assert abs(cmp.certain - 7.103787) < 1e-5
    assert cmp.certain > cmp.uncertain


def test_pipeline_projected_riskfree(projected_dataset):
    cmp, attitude = classify_pipeline(projected_dataset, 1.0192, 1.0089, 0.99)
    assert attitude.label is Label.NOT_ENOUGH_RISK_LOVING
    assert cmp.certain > cmp.uncertain


def test_pipeline_constant_consumption():
    d = constant_dataset()
    cmp, attitude = classify_pipeline(d, eta=0.99, rho=2.0, beta=1.0)
    assert cmp.certain > cmp.uncertain
    assert attitude.label is Label.RISK_AVERSE


def test_pipeline_strict_inequalities_eight_cases(variant_datasets, variant_moments):
    for name in ("realized", "projected"):
        d = variant_datasets[name]
        m = variant_moments[name]
        for rho in (1.033526, 1.0089):
            f = solve_closed_form_given_rho(rho, 0.99, m)
            for eta in (f.zeta, f.xi):
                cmp, attitude = classify_pipeline(d, eta, rho, 0.99)
                assert cmp.certain > cmp.uncertain
                assert attitude.label in (
                    Label.RISK_AVERSE,
                    Label.NOT_ENOUGH_RISK_LOVING,
                )


def test_pipeline_eta_one_unclassifiable(bundled):
    with pytest.raises(Unclassifiable):
        classify_pipeline(bundled, 1.0, 1.033526, 0.99)


def test_pipeline_linear_curvature(bundled):
    with pytest.raises(Unclassifiable):
        classify_pipeline(bundled, 0.96, 0.0, 0.99, group=G2)
    cmp, attitude = classify_pipeline(bundled, 0.96, 0.0, 0.99, group=G1)
    assert attitude.label is Label.RISK_AVERSE
    assert attitude.defining_equation == 1


def test_pipeline_moments_consistency(bundled):
    cmp, attitude = classify_pipeline(bundled, 0.961745, 1.033526, 0.99)
    m = compute_moments(bundled)
    assert classify_pipeline(bundled, 0.961745, 1.033526, 0.99, moments=m) == (cmp, attitude)
    assert cmp.uncertain == 0.99 * 0.961745 * cmp.expected_u
    assert cmp.expected_u > 0
    assert m.mu_z > 0
