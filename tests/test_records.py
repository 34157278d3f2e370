"""Record semantics: every record is immutable, compares by value and keeps
its validation errors (type and message), however it is constructed; the
library checks beside them reject NaN as they reject other bad values."""

import copy
import math
import pickle
from decimal import Decimal

import pytest

from rac import (
    AllocationSign,
    CalibrationResult,
    Curvature,
    DefinitionGroup,
    Label,
    MarketDataset,
    ProjectionInputs,
    ReportFormat,
    ReportRow,
    RiskAttitude,
    SampleMoments,
    SufficiencyFactors,
    UtilityComparison,
    UtilitySpec,
    Variant,
    classify,
    crra_utility,
    curvature_from_rho,
    expected_utility_unconditional,
    lognormal_moment,
    make_comparison,
    projected_consumption,
    solve_closed_form_given_rho,
)
from rac.cli import RunConfig
from rac.errors import (
    InputError,
    NegativeVariance,
    NoConvergence,
    NonFiniteMoment,
    NonPositiveConsumption,
    NonPositiveValue,
    SchemaError,
    UtilityOverflow,
)

SERIES = (1.0, 2.0)
MOMENTS = dict(
    mu_x=0.017, sigma2_x=0.0013, mean_x=1.018, mean_Re=1.0698, mean_Rf=1.008, mu_z=7.3,
    sigma2_z=0.16,
)

# (a field name, a builder that returns a fresh record with the same values)
RECORDS = {
    "MarketDataset": ("consumption", lambda: MarketDataset(1900, SERIES, SERIES, SERIES)),
    "ProjectionInputs": ("population", lambda: ProjectionInputs(515.4, 613.7, 150.0, 219441872.0)),
    "SampleMoments": ("mean_x", lambda: SampleMoments(**MOMENTS)),
    "SufficiencyFactors": ("zeta", lambda: SufficiencyFactors(0.96, 1.02)),
    "CalibrationResult": (
        "rho",
        lambda: CalibrationResult(SufficiencyFactors(0.96, 1.02), 1.03, (0.0, 0.0, -5e-6), -5e-6),
    ),
    "UtilitySpec": ("rho", lambda: UtilitySpec(1.5)),
    "UtilityComparison": ("certain", lambda: UtilityComparison(7.1, 7.0, 0.96, 0.99, 7.3)),
    "RiskAttitude": (
        "label",
        lambda: RiskAttitude(Label.RISK_AVERSE, DefinitionGroup.TWO, 6, AllocationSign.NEGATIVE),
    ),
    "ReportRow": (
        "rho",
        lambda: ReportRow(1977, "1978 (realized)", 3340.0, 3450.0, 7.1, 7.0, "a", "b", 1.03),
    ),
    "RunConfig": (
        "beta",
        lambda: RunConfig(None, None, 0.99, DefinitionGroup.TWO, 1e-9, tuple(Variant), None,
                          None, ReportFormat.TEXT),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    field, build = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict to hold a new attribute
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_equal(name):
    _, build = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_record_copies_and_pickles(name):
    _, build = RECORDS[name]
    record = build()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_different_values_compare_unequal():
    assert MarketDataset(1900, SERIES, SERIES, SERIES) != MarketDataset(1901, *[SERIES] * 3)
    assert SufficiencyFactors(0.96, 1.02) != SufficiencyFactors(0.96, 1.03)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: MarketDataset(1900, (1.0,), (1.0,), (1.0,)), SchemaError,
         "annual series needs at least two years"),
        (lambda: MarketDataset("1900", SERIES, SERIES, SERIES), SchemaError,
         "start_year must be an int, got '1900'"),
        (lambda: MarketDataset(1900.5, SERIES, SERIES, SERIES), SchemaError,
         "start_year must be an int, got 1900.5"),
        (lambda: MarketDataset(True, SERIES, SERIES, SERIES), SchemaError,
         "start_year must be an int, got True"),
        (lambda: MarketDataset(1900, SERIES, (1.0, 0.0), SERIES), NonPositiveValue,
         "annual series values must be positive and finite"),
        (lambda: MarketDataset(1900, SERIES, SERIES, riskfree_return=(1.0, math.nan)),
         NonPositiveValue, "annual series values must be positive and finite"),
        (lambda: MarketDataset(1900, (1.0, 2.0, 3.0), SERIES, SERIES), SchemaError,
         "the three series must cover the same years"),
        (lambda: MarketDataset(1900, SERIES, SERIES, riskfree_return=(1.0, 2.0, 3.0)),
         SchemaError, "the three series must cover the same years"),
        # a value that is not a number is named
        (lambda: MarketDataset(1900, ("a", "b"), (1.0, 1.0), (1.0, 1.0)), InputError,
         "consumption must be a number, got 'a'"),
        # an int too large for a float is inf
        (lambda: MarketDataset(1900, (10**400, 1), (1, 1), (1, 1)), NonPositiveValue,
         "annual series values must be positive and finite"),
        (lambda: ProjectionInputs("a", 1, 1, 1), InputError,
         "nominal_nondurables_bn must be a number, got 'a'"),
        (lambda: ProjectionInputs(0.0, 613.7, 150.0, 219441872.0), NonPositiveValue,
         "nominal_nondurables_bn must be positive and finite"),
        (lambda: ProjectionInputs(515.4, 613.7, 150.0, population=math.inf), NonPositiveValue,
         "population must be positive and finite"),
        (lambda: SampleMoments(**{**MOMENTS, "sigma2_z": -1.0}), NegativeVariance,
         "variances must be nonnegative"),
        (lambda: SampleMoments(0.0, -1.0, 1.0, 1.0, 1.0, 0.0, 0.0), NegativeVariance,
         "variances must be nonnegative"),
        (lambda: SampleMoments(**{**MOMENTS, "sigma2_x": math.nan}), NegativeVariance,
         "variances must be nonnegative"),
        (lambda: SampleMoments(**{**MOMENTS, "mean_Rf": 0.0}), InputError,
         "gross means must be positive"),
        (lambda: SampleMoments(**{**MOMENTS, "mean_x": math.nan}), InputError,
         "gross means must be positive"),
        (lambda: SampleMoments(math.nan, 0.001, 1.018, 1.07, 1.008, math.nan, 0.16), InputError,
         "sample moments must be finite"),
        (lambda: SampleMoments(**{**MOMENTS, "mean_x": math.inf}), InputError,
         "sample moments must be finite"),
        (lambda: SampleMoments(**{**MOMENTS, "sigma2_x": math.inf}), InputError,
         "sample moments must be finite"),
        (lambda: SampleMoments("a", 0.001, 1.018, 1.07, 1.008, 7.3, 0.16), InputError,
         "mu_x must be a number, got 'a'"),
        (lambda: SampleMoments(**{**MOMENTS, "mu_z": 10**400}), InputError,
         "sample moments must be finite"),
        (lambda: SampleMoments(**{**MOMENTS, "mean_Re": Decimal("sNaN")}), InputError,
         "mean_Re must be a number, got Decimal('sNaN')"),
        (lambda: SufficiencyFactors(0.0, 1.0), InputError,
         "sufficiency factors must be positive and finite"),
        (lambda: SufficiencyFactors(zeta=1.0, xi=-2.0), InputError,
         "sufficiency factors must be positive and finite"),
        (lambda: SufficiencyFactors(math.nan, 1.0), InputError,
         "sufficiency factors must be positive and finite"),
        (lambda: SufficiencyFactors(math.inf, 1.0), InputError,
         "sufficiency factors must be positive and finite"),
        (lambda: SufficiencyFactors("1", 1.0), InputError, "zeta must be a number, got '1'"),
        (lambda: solve_closed_form_given_rho(1.0, 1e-320, SampleMoments(**MOMENTS)),
         NoConvergence, "closed-form factors (inf, inf) leave the region [2.22507e-308, 10]"),
        # both factors underflow to 0 at rho 60 and sigma2_x 1
        (lambda: solve_closed_form_given_rho(60, 0.99, SampleMoments(**{**MOMENTS, "sigma2_x": 1})),
         NoConvergence, "closed-form factors (0, 0) leave the region [2.22507e-308, 10]"),
        # a subnormal zeta has lost digits: at rho 1 and beta 1 it is mean_x / mean_Re
        (lambda: solve_closed_form_given_rho(1.0, 1.0, SampleMoments(**{**MOMENTS, "mean_Re": 1e308})),
         NoConvergence, "closed-form factors (1.018e-308, 1.00842) leave the region [2.22507e-308, 10]"),
        (lambda: solve_closed_form_given_rho(math.nan, 0.99, SampleMoments(**MOMENTS)),
         InputError, "rho nan outside the supported range [0, 60]"),
        (lambda: CalibrationResult((math.nan, -1.0), 1.0, (0.0, 0.0, 0.0), 0.1), InputError,
         "factors must be SufficiencyFactors"),
        (lambda: CalibrationResult(SufficiencyFactors(1, 1), 1.0, (0.0, 0.0), 0.1), InputError,
         "residuals must be three: A, B and C"),
        (lambda: CalibrationResult(SufficiencyFactors(1.0, 1.0), 1.0, (0.0, math.inf, 0.0), 0),
         InputError, "residuals must be finite"),
        (lambda: CalibrationResult(SufficiencyFactors(1, 1), math.nan, (0, 0, 0), math.nan),
         InputError, "rho and the consistency gap must be finite"),
        (lambda: CalibrationResult(SufficiencyFactors(1, 1), math.inf, (0, 0, 0), -5e-6),
         InputError, "rho and the consistency gap must be finite"),
        (lambda: CalibrationResult(SufficiencyFactors(1, 1), 1.0, (0, 0, 0), math.nan),
         InputError, "rho and the consistency gap must be finite"),
        (lambda: CalibrationResult(SufficiencyFactors(1, 1), 1.0, (0.0, "a", 0.0), 0.1),
         InputError, "residuals must be a number, got 'a'"),
        (lambda: CalibrationResult(SufficiencyFactors(1, 1), None, (0.0, 0.0, 0.0), 0.1),
         InputError, "rho must be a number, got None"),
        (lambda: UtilitySpec(-0.5), InputError, "rho -0.5 outside the supported range [0, 60]"),
        # _replace builds through _make, and both check as the constructor does
        (lambda: RECORDS["MarketDataset"][1]()._replace(consumption=(1.0, -5.0)),
         NonPositiveValue, "annual series values must be positive and finite"),
        (lambda: RECORDS["ProjectionInputs"][1]()._replace(gnp_deflator=0.0),
         NonPositiveValue, "gnp_deflator must be positive and finite"),
        (lambda: RECORDS["SampleMoments"][1]()._replace(sigma2_z=-1.0), NegativeVariance,
         "variances must be nonnegative"),
        (lambda: RECORDS["SufficiencyFactors"][1]()._replace(zeta=-1.0), InputError,
         "sufficiency factors must be positive and finite"),
        (lambda: RECORDS["CalibrationResult"][1]()._replace(rho=math.nan), InputError,
         "rho and the consistency gap must be finite"),
        (lambda: RECORDS["UtilitySpec"][1]()._replace(rho=-0.5), InputError,
         "rho -0.5 outside the supported range [0, 60]"),
        (lambda: SampleMoments._make((0.0, -1.0, 1.0, 1.0, 1.0, 0.0, 0.0)), NegativeVariance,
         "variances must be nonnegative"),
        (lambda: UtilitySpec(rho=math.nan), InputError,
         "rho nan outside the supported range [0, 60]"),
        (lambda: curvature_from_rho(math.nan), InputError,
         "rho nan outside the supported range [0, 60]"),
        (lambda: projected_consumption(1, 1, math.nan, 1e9), NonPositiveValue,
         "gnp_deflator must be positive and finite"),
        (lambda: projected_consumption(1, 0, 100, math.nan), NonPositiveValue,
         "nominal_services_bn must be positive and finite"),
        # inputs the projection accepts, with a result that overflows or underflows
        (lambda: projected_consumption(1e308, 1e308, 100, 1), NonPositiveValue,
         "annual series values must be positive and finite"),
        (lambda: projected_consumption(1e-300, 1e-300, 1e300, 1e300), NonPositiveValue,
         "annual series values must be positive and finite"),
        (lambda: projected_consumption(10**400, 1, 100, 1), NonPositiveValue,
         "nominal_nondurables_bn must be positive and finite"),
        (lambda: lognormal_moment("a", 0, 0), InputError, "a must be a number, got 'a'"),
        (lambda: lognormal_moment(1, 0, 10**400), NonFiniteMoment,
         "log-normal moment is not finite (exponent inf)"),
        (lambda: lognormal_moment(1, 0, math.nan), NegativeVariance,
         "sigma2 must be nonnegative"),
        (lambda: lognormal_moment(1.0, math.nan, 0.0), NonFiniteMoment,
         "log-normal moment is not finite (exponent nan)"),
        (lambda: lognormal_moment(1.0, math.inf, 0.0), NonFiniteMoment,
         "log-normal moment is not finite (exponent inf)"),
        (lambda: lognormal_moment(1000.0, 1000.0, 0.0), NonFiniteMoment,
         "log-normal moment is not finite (exponent 1e+06)"),
        (lambda: make_comparison(math.inf, 1.0, 0.99, 0.9), UtilityOverflow,
         "certain utility is not finite, got inf"),
        (lambda: make_comparison(math.nan, 1.0, 0.99, 0.9), UtilityOverflow,
         "certain utility is not finite, got nan"),
        # a Decimal is a number, checked as a float
        (lambda: make_comparison(7.0, 6.0, Decimal("1.5"), 1.0), InputError,
         "beta must be in (0, 1], got 1.5"),
        (lambda: make_comparison("7", 6.0, 0.99, 1.0), InputError, "certain must be a number, got '7'"),
        (lambda: make_comparison(Decimal("sNaN"), 1.0, 0.99, 1.0), InputError,
         "certain must be a number, got Decimal('sNaN')"),
        # an int too large for a float is inf
        (lambda: make_comparison(7.0, 10**400, 0.99, 1.0), UtilityOverflow,
         "uncertain utility leaves the floating-point range (beta 0.99 * eta 1 * E[u] inf)"),
        (lambda: make_comparison(10**400, 1.0, 0.99, 1.0), UtilityOverflow,
         "certain utility is not finite, got inf"),
        # a hand-built comparison: make_comparison would reject these certain utilities
        (lambda: classify(UtilityComparison(math.nan, 1.0, 1.05, 0.99, 1.0),
                          Curvature.STRICTLY_CONCAVE, DefinitionGroup.ONE),
         UtilityOverflow, "utility gap certain - uncertain is not finite, got nan"),
        (lambda: classify(UtilityComparison(math.nan, 1.0, 1.05, 0.99, 1.0),
                          Curvature.STRICTLY_CONVEX_INCREASING),
         UtilityOverflow, "utility gap certain - uncertain is not finite, got nan"),
        (lambda: classify(UtilityComparison(math.inf, 1.0, 0.95, 0.99, 1.0),
                          Curvature.STRICTLY_CONCAVE),
         UtilityOverflow, "utility gap certain - uncertain is not finite, got inf"),
        (lambda: crra_utility(math.nan, UtilitySpec(2.0)), NonPositiveConsumption,
         "consumption must be positive, got nan"),
        (lambda: crra_utility("a", UtilitySpec(2.0)), InputError,
         "consumption must be a number, got 'a'"),
        # math.expm1 returns inf or nan for an inf or nan exponent without raising
        (lambda: crra_utility(math.inf, UtilitySpec(0.5)), UtilityOverflow,
         "utility leaves the floating-point range (exponent inf at 1 - rho = 0.5)"),
        (lambda: crra_utility(math.inf, UtilitySpec(0.0)), UtilityOverflow,
         "utility leaves the floating-point range (exponent inf at 1 - rho = 1)"),
        (lambda: crra_utility(math.inf, UtilitySpec(1.0)), UtilityOverflow,
         "utility leaves the floating-point range (ln c = inf at rho = 1)"),
        (lambda: expected_utility_unconditional(
            SampleMoments(0.01, 0.001, 1.01, 1.07, 1.008, 1e308, 1e308), UtilitySpec(60)),
         UtilityOverflow, "utility leaves the floating-point range (exponent nan at 1 - rho = -59)"),
        (lambda: expected_utility_unconditional(
            SampleMoments(0.01, 0.001, 1.01, 1.07, 1.008, 7.0, 1e308), UtilitySpec(60)),
         UtilityOverflow, "utility leaves the floating-point range (exponent inf at 1 - rho = -59)"),
    ],
)
def test_validation_keeps_error_type_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert (type(info.value), str(info.value)) == (error, message)


def test_input_error_is_a_value_error():
    # a bad argument to the library is typed, and still caught as ValueError
    assert issubclass(InputError, ValueError)
