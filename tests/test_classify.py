"""Classification decision table, invariants, and the dataset pipeline."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rac import (
    AllocationSign,
    Curvature,
    DefinitionGroup,
    Label,
    MarketDataset,
    ReportFormat,
    UtilityComparison,
    Variant,
    calibrate_variant,
    classify,
    classify_pipeline,
    curvature_from_rho,
    render_table,
    solve_closed_form_given_rho,
    compute_moments,
)
from rac.errors import InputError, InvalidCombination, Unclassifiable, UtilityOverflow

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


def cmp_with(certain, uncertain, eta):
    return UtilityComparison(
        certain=certain, uncertain=uncertain, eta=eta, beta=0.99, expected_u=0.0
    )


def constant_dataset(level=100.0, years=5):
    flat = [1.0] * years
    return MarketDataset(1970, [level] * years, flat, flat)


# -- allocation sign and curvature_from_rho ----------------------------------

def test_allocation_sign_reference_values():
    # the paper's equity and risk-free factors, and eta = 1 inside the band
    assert classify(cmp_with(5.0, 4.0, 0.961745), CONCAVE).allocation is AllocationSign.NEGATIVE
    assert classify(cmp_with(5.0, 4.0, 1.019392), CONCAVE).allocation is AllocationSign.POSITIVE
    assert classify(cmp_with(5.0, 5.0, 1.0), CONCAVE).allocation is AllocationSign.ZERO


def test_allocation_sign_validation():
    for eta in (0.0, -0.5):
        with pytest.raises(ValueError, match="eta must be positive"):
            classify(cmp_with(5.0, 5.0, eta), CONCAVE)


def test_curvature_from_rho():
    assert curvature_from_rho(0.0) is LINEAR
    assert curvature_from_rho(1.033526) is CONCAVE
    with pytest.raises(ValueError):
        curvature_from_rho(-1.0)


# -- decision table -----------------------------------------------------------

TABLE = [
    # (group, curvature, eta, delta sign, expected label or error, equation,
    #  error message fragment)
    (G2, CONCAVE, 0.9, +1, Label.RISK_AVERSE, 6, None),
    (G2, CONCAVE, 1.1, +1, Label.NOT_ENOUGH_RISK_LOVING, 7, None),
    (G2, CONCAVE, 0.9, -1, Unclassifiable, None, "concave-curve"),
    (G2, CONCAVE, 1.1, -1, Unclassifiable, None, "concave-curve"),
    (G2, CONVEX, 1.1, -1, Label.RISK_LOVING, 8, None),
    (G2, CONVEX, 0.9, -1, Label.NOT_ENOUGH_RISK_AVERSE, 9, None),
    (G2, CONVEX, 0.9, +1, Unclassifiable, None, "convex-curve"),
    (G2, CONVEX, 1.1, +1, Unclassifiable, None, "convex-curve"),
    (G2, LINEAR, 0.9, +1, Unclassifiable, None, "linear curve"),
    (G2, LINEAR, 1.1, -1, Unclassifiable, None, "linear curve"),
    (G1, CONCAVE, 0.9, +1, Label.RISK_AVERSE, 1, None),
    (G1, CONCAVE, 1.1, -1, Label.RISK_LOVING, 2, None),
    (G1, CONCAVE, 1.1, +1, Label.NOT_ENOUGH_RISK_LOVING, 3, None),
    (G1, CONVEX, 0.9, -1, Label.NOT_ENOUGH_RISK_AVERSE, 5, None),
    (G1, CONCAVE, 0.9, -1, Unclassifiable, None, "group one"),
    (G1, LINEAR, 0.9, -1, Unclassifiable, None, "group one"),
    (G1, HORIZONTAL, 0.9, +1, Label.RISK_AVERSE, 1, None),
    (G2, HORIZONTAL, 0.9, +1, Label.RISK_AVERSE, 6, None),
    (G2, HORIZONTAL, 1.1, -1, Label.RISK_LOVING, 8, None),
    (G2, HORIZONTAL, 1.1, +1, Label.NOT_ENOUGH_RISK_LOVING, 7, None),
    (G2, HORIZONTAL, 0.9, -1, InvalidCombination, None, "horizontal"),
    (G1, HORIZONTAL, 0.9, -1, InvalidCombination, None, "horizontal"),
]


@pytest.mark.parametrize("group,curvature,eta,delta_sign,expected,equation,match", TABLE)
def test_decision_table(group, curvature, eta, delta_sign, expected, equation, match):
    cmp = cmp_with(5.0 + delta_sign * 0.5, 5.0, eta)
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected, match=match):
            classify(cmp, curvature, group)
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


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        classify(cmp_with(5.0, 4.0, 0.9), CONCAVE, G2, tol=-1.0)


def test_gap_that_is_not_finite():
    # an eta or tol error is reported first; then a gap that is not finite
    # overflows, whatever the allocation, curve or group
    with pytest.raises(InputError, match="eta must be positive"):
        classify(cmp_with(math.nan, 1.0, -1.0), CONCAVE, G2)
    with pytest.raises(InputError, match="tol must be >= 0"):
        classify(cmp_with(math.inf, 1.0, 0.9), CONCAVE, G2, tol=-1.0)
    for certain, uncertain in ((math.nan, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        for eta, curvature, group in ((1.0, CONCAVE, G2), (0.9, HORIZONTAL, G1), (1.1, LINEAR, G2)):
            with pytest.raises(UtilityOverflow):
                classify(cmp_with(certain, uncertain, eta), curvature, group, tol=math.inf)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: classify(cmp_with(5.0, 4.0, 0.9), CONCAVE, "one"),
         "group must be a DefinitionGroup, got 'one'"),
        (lambda m: classify(cmp_with(5.0, 4.0, 0.9), CONCAVE, None),
         "group must be a DefinitionGroup, got None"),
        (lambda m: classify(cmp_with(5.0, 4.0, 0.9), "strictly-concave", G2),
         "curvature must be a Curvature, got 'strictly-concave'"),
        (lambda m: calibrate_variant(m, 0.99, "realized"),
         "variant must be a Variant, got 'realized'"),
        (lambda m: calibrate_variant(m, 0.99, Variant.REALIZED.value, rho=2.0),
         "variant must be a Variant, got 'realized'"),
        (lambda m: render_table([], "text"), "fmt must be a ReportFormat, got 'text'"),
        (lambda m: render_table([], None), "fmt must be a ReportFormat, got None"),
        # a ReportFormat that render_table does not write keeps its own message
        (lambda m: render_table([], ReportFormat.JSON),
         "render_table writes text or CSV, not ReportFormat.JSON; use export_run for JSON"),
    ],
)
def test_enum_argument_of_another_type_is_input_error(bundled, call, message):
    # a name is not coerced to its member: group two's rules under the name
    # "one" would be a wrong answer, not an error
    with pytest.raises(InputError) as info:
        call(compute_moments(bundled))
    assert str(info.value) == message


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
