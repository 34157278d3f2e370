"""Record semantics: every record is immutable, compares by value and keeps
its validation errors (type and message), however it is constructed; one
table holds every error the library's calls raise, each with its exact
message."""

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
    calibrate_variant,
    classify,
    compute_moments,
    crra_utility,
    curvature_from_rho,
    expected_utility_unconditional,
    load_dataset,
    load_projection,
    lognormal_moment,
    make_comparison,
    projected_consumption,
    render_table,
    solve_closed_form_given_rho,
    solve_system,
    system_residuals,
    uncertain_utility,
    with_final_consumption,
)
from rac.cli import RunConfig
from rac.dataset import read_text
from rac.errors import (
    DegenerateSystem, InputError, NegativeVariance, NoConvergence, NonFiniteMoment,
    NonPositiveConsumption, NonPositiveValue, SchemaError, UtilityOverflow,
)

from conftest import cmp_with

SERIES = (1.0, 2.0)
MOMENTS = dict(
    mu_x=0.017, sigma2_x=0.0013, mean_x=1.018, mean_Re=1.0698, mean_Rf=1.008, mu_z=7.3,
    sigma2_z=0.16,
)
CONCAVE = Curvature.STRICTLY_CONCAVE
G1, G2 = DefinitionGroup.ONE, DefinitionGroup.TWO


def _moments(**changes):
    """SampleMoments from MOMENTS, with `changes` in place of its values."""
    return SampleMoments(**{**MOMENTS, **changes})


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


_SERIES_VALUES = "annual series values must be positive and finite"
_GAP = "utility gap certain - uncertain is not finite, got "
_UNCERTAIN = "uncertain utility leaves the floating-point range "
_OUT_OF_RANGE = "outside the supported range [0, 60]"

# Each error the library raises, by name: the call, and the error's type and
# exact message. A new library error case is one more row here.
_LIBRARY_ERRORS = {
    "MarketDataset-one-year": (lambda: MarketDataset(1900, (1.0,), (1.0,), (1.0,)),
        SchemaError, "annual series needs at least two years"),
    "MarketDataset-start-year-str": (lambda: MarketDataset("1900", SERIES, SERIES, SERIES),
        SchemaError, "start_year must be an int, got '1900'"),
    "MarketDataset-start-year-float": (lambda: MarketDataset(1900.5, SERIES, SERIES, SERIES),
        SchemaError, "start_year must be an int, got 1900.5"),
    "MarketDataset-start-year-bool": (lambda: MarketDataset(True, SERIES, SERIES, SERIES),
        SchemaError, "start_year must be an int, got True"),
    "MarketDataset-zero-consumption": (lambda: MarketDataset(1900, (1.0, 0.0), (1.0, 1.0), (1.0, 1.0)),
        NonPositiveValue, _SERIES_VALUES),
    "MarketDataset-zero-return": (lambda: MarketDataset(1900, SERIES, (1.0, 0.0), SERIES),
        NonPositiveValue, _SERIES_VALUES),
    "MarketDataset-nan-return": (
        lambda: MarketDataset(1900, SERIES, SERIES, riskfree_return=(1.0, math.nan)),
        NonPositiveValue, _SERIES_VALUES),
    "MarketDataset-long-consumption": (lambda: MarketDataset(1900, (1.0, 2.0, 3.0), SERIES, SERIES),
        SchemaError, "the three series must cover the same years"),
    "MarketDataset-long-riskfree": (
        lambda: MarketDataset(1900, SERIES, SERIES, riskfree_return=(1.0, 2.0, 3.0)),
        SchemaError, "the three series must cover the same years"),
    # a value that is not a number is named
    "MarketDataset-str": (lambda: MarketDataset(1900, ("a", "b"), (1.0, 1.0), (1.0, 1.0)),
        InputError, "consumption must be a number, got 'a'"),
    # an int too large for a float is inf
    "MarketDataset-huge-int": (lambda: MarketDataset(1900, (10**400, 1), (1, 1), (1, 1)),
        NonPositiveValue, _SERIES_VALUES),
    "ProjectionInputs-str": (lambda: ProjectionInputs("a", 1, 1, 1),
        InputError, "nominal_nondurables_bn must be a number, got 'a'"),
    "ProjectionInputs-zero": (lambda: ProjectionInputs(0.0, 613.7, 150.0, 219441872.0),
        NonPositiveValue, "nominal_nondurables_bn must be positive and finite"),
    "ProjectionInputs-inf": (lambda: ProjectionInputs(515.4, 613.7, 150.0, population=math.inf),
        NonPositiveValue, "population must be positive and finite"),
    "projected_consumption-negative": (lambda: projected_consumption(-1, 613.7, 150, 219441872),
        NonPositiveValue, "nominal_nondurables_bn must be positive and finite"),
    "projected_consumption-zero-both-parts": (lambda: projected_consumption(0, 0, 150, 219441872),
        NonPositiveValue, "nominal_nondurables_bn must be positive and finite"),
    # every component must be positive, as in a projection file
    "projected_consumption-zero-services": (lambda: projected_consumption(1, 0, 100, 1e9),
        NonPositiveValue, "nominal_services_bn must be positive and finite"),
    "projected_consumption-zero-deflator": (lambda: projected_consumption(515.4, 613.7, 0, 219441872),
        NonPositiveValue, "gnp_deflator must be positive and finite"),
    "projected_consumption-zero-population": (lambda: projected_consumption(515.4, 613.7, 150, 0),
        NonPositiveValue, "population must be positive and finite"),
    "projected_consumption-nan-deflator": (lambda: projected_consumption(1, 1, math.nan, 1e9),
        NonPositiveValue, "gnp_deflator must be positive and finite"),
    "projected_consumption-nan-population": (lambda: projected_consumption(1, 0, 100, math.nan),
        NonPositiveValue, "nominal_services_bn must be positive and finite"),
    # inputs the projection accepts, with a result that overflows or underflows
    "projected_consumption-overflow": (lambda: projected_consumption(1e308, 1e308, 100, 1),
        NonPositiveValue, _SERIES_VALUES),
    "projected_consumption-underflow": (lambda: projected_consumption(1e-300, 1e-300, 1e300, 1e300),
        NonPositiveValue, _SERIES_VALUES),
    "projected_consumption-huge-int": (lambda: projected_consumption(10**400, 1, 100, 1),
        NonPositiveValue, "nominal_nondurables_bn must be positive and finite"),
    "with_final_consumption-negative": (
        lambda: with_final_consumption(RECORDS["MarketDataset"][1](), -1.0),
        NonPositiveValue, _SERIES_VALUES),
    # float() reads "3500" and b"3500", and a bool orders as 0 or 1
    **{f"with_final_consumption-{type(value).__name__}": (
        lambda value=value: with_final_consumption(RECORDS["MarketDataset"][1](), value),
        InputError, f"final consumption must be a number, got {value!r}")
       for value in ("3500", True, bytearray(b"3500"))},
    # an int too large for a float is not finite as one
    "with_final_consumption-huge-int": (
        lambda: with_final_consumption(RECORDS["MarketDataset"][1](), 10**400),
        NonPositiveValue, _SERIES_VALUES),
    # open() raises ValueError or UnicodeEncodeError, untyped, for such a name;
    # "\ud800" is a lone surrogate that the file system encoding cannot encode
    **{f"{load.__name__}-{name}": (lambda load=load, path=path: load(path),
        InputError, f"path must encode as a file name with no NUL byte, got {path!r}")
       for load, name, path in ((load_dataset, "nul", "a\0b"), (load_projection, "nul", "a\0b"),
                                (read_text, "nul-bytes", b"a\0b"),
                                (load_dataset, "surrogate", "\ud800"))},
    "SampleMoments-negative-sigma2_z": (lambda: _moments(sigma2_z=-1.0),
        NegativeVariance, "variances must be nonnegative"),
    "SampleMoments-negative-sigma2_x": (lambda: SampleMoments(0.0, -1.0, 1.0, 1.0, 1.0, 0.0, 0.0),
        NegativeVariance, "variances must be nonnegative"),
    "SampleMoments-nan-variance": (lambda: _moments(sigma2_x=math.nan),
        NegativeVariance, "variances must be nonnegative"),
    "SampleMoments-zero-mean": (lambda: _moments(mean_Rf=0.0),
        InputError, "gross means must be positive"),
    "SampleMoments-negative-mean": (lambda: SampleMoments(0.0, 0.0, -1.0, 1.0, 1.0, 0.0, 0.0),
        InputError, "gross means must be positive"),
    "SampleMoments-nan-mean": (lambda: _moments(mean_x=math.nan),
        InputError, "gross means must be positive"),
    "SampleMoments-nan-mu": (lambda: SampleMoments(math.nan, 0.001, 1.018, 1.07, 1.008, math.nan, 0.16),
        InputError, "sample moments must be finite"),
    "SampleMoments-inf-mean": (lambda: _moments(mean_x=math.inf),
        InputError, "sample moments must be finite"),
    "SampleMoments-inf-variance": (lambda: _moments(sigma2_x=math.inf),
        InputError, "sample moments must be finite"),
    "SampleMoments-str": (lambda: SampleMoments("a", 0.001, 1.018, 1.07, 1.008, 7.3, 0.16),
        InputError, "mu_x must be a number, got 'a'"),
    "SampleMoments-huge-int": (lambda: _moments(mu_z=10**400),
        InputError, "sample moments must be finite"),
    "SampleMoments-sNaN": (lambda: _moments(mean_Re=Decimal("sNaN")),
        InputError, "mean_Re must be a number, got Decimal('sNaN')"),
    # a growth ratio overflows to inf, underflows to 0, or both (inf - inf);
    # or a return sum overflows
    **{f"compute_moments-{name}": (
        lambda c=c, e=e: compute_moments(MarketDataset(1900, c, e, (1.01,) * 3)),
        NonFiniteMoment, "a sample moment is not finite: values span too wide a range")
       for name, c, e in (("ratio-inf", (1e-300, 1e300, 1e300), (1.05,) * 3),
                          ("ratio-zero", (1e300, 1e-300, 1e-300), (1.05,) * 3),
                          ("ratio-inf-and-zero", (1e300, 1e-300, 1e300), (1.05,) * 3),
                          ("return-sum", (100.0, 101.0, 102.0), (1e308, 1e308, 1.05)))},
    "lognormal_moment-str": (lambda: lognormal_moment("a", 0, 0),
        InputError, "a must be a number, got 'a'"),
    "lognormal_moment-huge-int": (lambda: lognormal_moment(1, 0, 10**400),
        NonFiniteMoment, "log-normal moment is not finite (exponent inf)"),
    "lognormal_moment-negative-sigma2": (lambda: lognormal_moment(1.0, 0.0, -0.1),
        NegativeVariance, "sigma2 must be nonnegative"),
    "lognormal_moment-nan-sigma2": (lambda: lognormal_moment(1, 0, math.nan),
        NegativeVariance, "sigma2 must be nonnegative"),
    "lognormal_moment-nan-mu": (lambda: lognormal_moment(1.0, math.nan, 0.0),
        NonFiniteMoment, "log-normal moment is not finite (exponent nan)"),
    "lognormal_moment-inf-mu": (lambda: lognormal_moment(1.0, math.inf, 0.0),
        NonFiniteMoment, "log-normal moment is not finite (exponent inf)"),
    "lognormal_moment-overflow": (lambda: lognormal_moment(1000.0, 1000.0, 0.0),
        NonFiniteMoment, "log-normal moment is not finite (exponent 1e+06)"),
    **{f"SufficiencyFactors-{zeta}-{xi}": (lambda zeta=zeta, xi=xi: SufficiencyFactors(zeta, xi),
        InputError, "sufficiency factors must be positive and finite")
       for zeta, xi in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (math.inf, 1.0))},
    "SufficiencyFactors-str": (lambda: SufficiencyFactors("1", 1.0),
        InputError, "zeta must be a number, got '1'"),
    "CalibrationResult-tuple-factors": (
        lambda: CalibrationResult((math.nan, -1.0), 1.0, (0.0, 0.0, 0.0), 0.1),
        InputError, "factors must be SufficiencyFactors"),
    "CalibrationResult-two-residuals": (
        lambda: CalibrationResult(SufficiencyFactors(1, 1), 1.0, (0.0, 0.0), 0.1),
        InputError, "residuals must be three: A, B and C"),
    "CalibrationResult-inf-residual": (
        lambda: CalibrationResult(SufficiencyFactors(1.0, 1.0), 1.0, (0.0, math.inf, 0.0), 0),
        InputError, "residuals must be finite"),
    **{f"CalibrationResult-rho-{rho}-gap-{gap}": (
        lambda rho=rho, gap=gap: CalibrationResult(SufficiencyFactors(1, 1), rho, (0, 0, 0), gap),
        InputError, "rho and the consistency gap must be finite")
       for rho, gap in ((math.nan, math.nan), (math.inf, -5e-6), (1.0, math.nan))},
    "CalibrationResult-str-residual": (
        lambda: CalibrationResult(SufficiencyFactors(1, 1), 1.0, (0.0, "a", 0.0), 0.1),
        InputError, "residuals must be a number, got 'a'"),
    "CalibrationResult-none-rho": (
        lambda: CalibrationResult(SufficiencyFactors(1, 1), None, (0.0, 0.0, 0.0), 0.1),
        InputError, "rho must be a number, got None"),
    **{f"system_residuals-beta-{beta}": (
        lambda beta=beta: system_residuals(SufficiencyFactors(1, 1), 0.0, beta, _moments()),
        InputError, f"beta must be in (0, 1], got {beta}") for beta in (0.0, 1.5)},
    **{f"solve_system-beta-{beta}": (lambda beta=beta: solve_system(beta, _moments(), rho=1.0),
        InputError, f"beta must be in (0, 1], got {beta}") for beta in (0.0, 1.0001)},
    "solve_closed_form_given_rho-beta-underflow": (
        lambda: solve_closed_form_given_rho(1.0, 1e-320, _moments()),
        NoConvergence, "closed-form factors (inf, inf) leave the region [2.22507e-308, 10]"),
    # both factors underflow to 0 at rho 60 and sigma2_x 1
    "solve_closed_form_given_rho-underflow": (
        lambda: solve_closed_form_given_rho(60, 0.99, _moments(sigma2_x=1)),
        NoConvergence, "closed-form factors (0, 0) leave the region [2.22507e-308, 10]"),
    # a subnormal zeta has lost digits: at rho 1 and beta 1 it is mean_x / mean_Re
    "solve_closed_form_given_rho-subnormal-zeta": (
        lambda: solve_closed_form_given_rho(1.0, 1.0, _moments(mean_Re=1e308)),
        NoConvergence, "closed-form factors (1.018e-308, 1.00842) leave the region [2.22507e-308, 10]"),
    "solve_closed_form_given_rho-nan-rho": (
        lambda: solve_closed_form_given_rho(math.nan, 0.99, _moments()),
        InputError, f"rho nan {_OUT_OF_RANGE}"),
    **{f"solve_system-rho-{rho}": (lambda rho=rho: solve_system(0.99, _moments(), rho),
        InputError, f"rho {rho} {_OUT_OF_RANGE}") for rho in (61.0, -0.5)},
    # growth exactly log-normal: the consistency gap is zero
    "solve_system-degenerate": (lambda: solve_system(
            0.99, SampleMoments(0.02, 0.001, math.exp(0.02 + 0.001 / 2), 1.07, 1.01, 7.0, 0.1), 1.0),
        DegenerateSystem, "consistency gap is zero to machine precision: eq C is exactly eq B - eq A, "
        "every rho solves the system, no unique triple exists"),
    # xi far above FACTOR_REGION_MAX
    "solve_system-xi-too-large": (
        lambda: solve_system(0.99, SampleMoments(0.02, 0.001, 1.0205, 1.07, 1e-3, 7.0, 0.1), 1.0),
        NoConvergence, "closed-form factors (0.963372, 1029.99) leave the region [2.22507e-308, 10]"),
    # both factors underflow to zero at a large rho and a large variance
    "solve_system-underflow": (lambda: solve_system(
            0.99, SampleMoments(0.02, 1.0, math.exp(0.52 + 1e-6), 1.07, 1.01, 7.0, 0.1), 60.0),
        NoConvergence, "closed-form factors (0, 0) leave the region [2.22507e-308, 10]"),
    # both log-factors past exp's range: mean log growth 12.5 at rho = 60,
    # and -ln beta for a subnormal beta
    **{f"solve_system-overflow-{name}": (
        lambda beta=beta, rho=rho: solve_system(
            beta, SampleMoments(12.5, 0.01, math.exp(12.5 + 0.006), 1.05, 1.01, 31.0, 100.0), rho),
        NoConvergence, "closed-form factors (inf, inf) leave the region [2.22507e-308, 10]")
       for name, beta, rho in (("rho-60", 0.99, 60.0), ("subnormal-beta", 5e-324, 1.0))},
    "UtilitySpec-negative": (lambda: UtilitySpec(-0.5), InputError, f"rho -0.5 {_OUT_OF_RANGE}"),
    "UtilitySpec-nan": (lambda: UtilitySpec(rho=math.nan), InputError, f"rho nan {_OUT_OF_RANGE}"),
    "UtilitySpec-inf": (lambda: UtilitySpec(math.inf), InputError, f"rho inf {_OUT_OF_RANGE}"),
    # _replace builds through _make, and both check as the constructor does
    "MarketDataset-replace": (lambda: RECORDS["MarketDataset"][1]()._replace(consumption=(1.0, -5.0)),
        NonPositiveValue, _SERIES_VALUES),
    "ProjectionInputs-replace": (lambda: RECORDS["ProjectionInputs"][1]()._replace(gnp_deflator=0.0),
        NonPositiveValue, "gnp_deflator must be positive and finite"),
    "SampleMoments-replace": (lambda: RECORDS["SampleMoments"][1]()._replace(sigma2_z=-1.0),
        NegativeVariance, "variances must be nonnegative"),
    "SufficiencyFactors-replace": (lambda: RECORDS["SufficiencyFactors"][1]()._replace(zeta=-1.0),
        InputError, "sufficiency factors must be positive and finite"),
    "CalibrationResult-replace": (lambda: RECORDS["CalibrationResult"][1]()._replace(rho=math.nan),
        InputError, "rho and the consistency gap must be finite"),
    "UtilitySpec-replace": (lambda: RECORDS["UtilitySpec"][1]()._replace(rho=-0.5),
        InputError, f"rho -0.5 {_OUT_OF_RANGE}"),
    "SampleMoments-make": (lambda: SampleMoments._make((0.0, -1.0, 1.0, 1.0, 1.0, 0.0, 0.0)),
        NegativeVariance, "variances must be nonnegative"),
    **{f"crra_utility-{c}-rho-{rho}": (lambda c=c, rho=rho: crra_utility(c, UtilitySpec(rho)),
        NonPositiveConsumption, f"consumption must be positive, got {c}")
       for c in (0.0, -3.0) for rho in (1.0, 2.0)},
    "crra_utility-nan": (lambda: crra_utility(math.nan, UtilitySpec(2.0)),
        NonPositiveConsumption, "consumption must be positive, got nan"),
    "crra_utility-str": (lambda: crra_utility("a", UtilitySpec(2.0)),
        InputError, "consumption must be a number, got 'a'"),
    # (1 - rho) ln c is past exp's range for tiny c and rho > 1
    "crra_utility-overflow-rho-3": (lambda: crra_utility(1e-300, UtilitySpec(3.0)),
        UtilityOverflow, "utility leaves the floating-point range (exponent 1381.55 at 1 - rho = -2)"),
    "crra_utility-overflow-rho-60": (lambda: crra_utility(1e-300, UtilitySpec(60.0)),
        UtilityOverflow, "utility leaves the floating-point range (exponent 40755.8 at 1 - rho = -59)"),
    # math.expm1 returns inf or nan for an inf or nan exponent without raising
    "crra_utility-inf-rho-0.5": (lambda: crra_utility(math.inf, UtilitySpec(0.5)),
        UtilityOverflow, "utility leaves the floating-point range (exponent inf at 1 - rho = 0.5)"),
    "crra_utility-inf-rho-0": (lambda: crra_utility(math.inf, UtilitySpec(0.0)),
        UtilityOverflow, "utility leaves the floating-point range (exponent inf at 1 - rho = 1)"),
    "crra_utility-inf-rho-1": (lambda: crra_utility(math.inf, UtilitySpec(1.0)),
        UtilityOverflow, "utility leaves the floating-point range (ln c = inf at rho = 1)"),
    "expected_utility_unconditional-nan-exponent": (lambda: expected_utility_unconditional(
            SampleMoments(0.01, 0.001, 1.01, 1.07, 1.008, 1e308, 1e308), UtilitySpec(60)),
        UtilityOverflow, "utility leaves the floating-point range (exponent nan at 1 - rho = -59)"),
    "expected_utility_unconditional-inf-exponent": (lambda: expected_utility_unconditional(
            SampleMoments(0.01, 0.001, 1.01, 1.07, 1.008, 7.0, 1e308), UtilitySpec(60)),
        UtilityOverflow, "utility leaves the floating-point range (exponent inf at 1 - rho = -59)"),
    "expected_utility_unconditional-level": (lambda: expected_utility_unconditional(
            _moments(mu_z=-690.0, sigma2_z=0.0), UtilitySpec(60.0)),
        UtilityOverflow, "utility leaves the floating-point range (exponent 40710 at 1 - rho = -59)"),
    "expected_utility_unconditional-variance": (lambda: expected_utility_unconditional(
            _moments(mu_z=7.0, sigma2_z=2000.0), UtilitySpec(0.0)),
        UtilityOverflow, "utility leaves the floating-point range (exponent 1007 at 1 - rho = 1)"),
    **{f"uncertain_utility-beta-{beta}": (lambda beta=beta: uncertain_utility(5.0, beta, 1.0),
        InputError, f"beta must be in (0, 1], got {beta}") for beta in (0.0, 1.5)},
    "uncertain_utility-zero-eta": (lambda: uncertain_utility(5.0, 0.99, 0.0),
        InputError, "eta must be positive, got 0.0"),
    # beta * eta * E[u] past the float range is an error, not an inf output
    **{f"{name}-overflow-{eta:g}-{expected_u:g}": (
        lambda call=call, eta=eta, expected_u=expected_u: call(expected_u, 0.99, eta),
        UtilityOverflow, f"{_UNCERTAIN}(beta 0.99 * eta {eta:g} * E[u] {expected_u:g})")
       for name, call in (("uncertain_utility", uncertain_utility),
                          ("make_comparison", lambda *args: make_comparison(7.1, *args)))
       for eta, expected_u in ((1e308, 8.1), (1e308, -8.1), (2.0, 1e308))},
    "make_comparison-inf-certain": (lambda: make_comparison(math.inf, 1.0, 0.99, 0.9),
        UtilityOverflow, "certain utility is not finite, got inf"),
    "make_comparison-nan-certain": (lambda: make_comparison(math.nan, 1.0, 0.99, 0.9),
        UtilityOverflow, "certain utility is not finite, got nan"),
    # a Decimal is a number, checked as a float
    "make_comparison-decimal-beta": (lambda: make_comparison(7.0, 6.0, Decimal("1.5"), 1.0),
        InputError, "beta must be in (0, 1], got 1.5"),
    "make_comparison-str": (lambda: make_comparison("7", 6.0, 0.99, 1.0),
        InputError, "certain must be a number, got '7'"),
    "make_comparison-sNaN": (lambda: make_comparison(Decimal("sNaN"), 1.0, 0.99, 1.0),
        InputError, "certain must be a number, got Decimal('sNaN')"),
    # an int too large for a float is inf
    "make_comparison-huge-int-uncertain": (lambda: make_comparison(7.0, 10**400, 0.99, 1.0),
        UtilityOverflow, f"{_UNCERTAIN}(beta 0.99 * eta 1 * E[u] inf)"),
    "make_comparison-huge-int-certain": (lambda: make_comparison(10**400, 1.0, 0.99, 1.0),
        UtilityOverflow, "certain utility is not finite, got inf"),
    **{f"classify-eta-{eta}": (lambda eta=eta: classify(cmp_with(5.0, 5.0, eta), CONCAVE),
        InputError, f"eta must be positive, got {eta}") for eta in (0.0, -0.5)},
    "classify-negative-tol": (lambda: classify(cmp_with(5.0, 4.0, 0.9), CONCAVE, G2, tol=-1.0),
        InputError, "tol must be >= 0, got -1.0"),
    # an eta or tol error is reported first; then a gap that is not finite
    # overflows, whatever the allocation, curve or group
    "classify-eta-before-gap": (lambda: classify(cmp_with(math.nan, 1.0, -1.0), CONCAVE, G2),
        InputError, "eta must be positive, got -1.0"),
    "classify-tol-before-gap": (lambda: classify(cmp_with(math.inf, 1.0, 0.9), CONCAVE, G2, tol=-1.0),
        InputError, "tol must be >= 0, got -1.0"),
    **{f"classify-gap-{certain}-{uncertain}-eta-{eta}": (
        lambda c=certain, u=uncertain, eta=eta, curve=curve, group=group:
            classify(cmp_with(c, u, eta), curve, group, tol=math.inf),
        UtilityOverflow, f"{_GAP}{certain - uncertain}")
       for certain, uncertain in ((math.nan, 1.0), (1.0, math.inf), (math.inf, math.inf))
       for eta, curve, group in ((1.0, CONCAVE, G2), (0.9, Curvature.HORIZONTAL, G1),
                                 (1.1, Curvature.LINEAR, G2))},
    # a hand-built comparison: make_comparison would reject these certain utilities
    "classify-nan-gap-concave": (
        lambda: classify(UtilityComparison(math.nan, 1.0, 1.05, 0.99, 1.0), CONCAVE, G1),
        UtilityOverflow, f"{_GAP}nan"),
    "classify-nan-gap-convex": (lambda: classify(
            UtilityComparison(math.nan, 1.0, 1.05, 0.99, 1.0), Curvature.STRICTLY_CONVEX_INCREASING),
        UtilityOverflow, f"{_GAP}nan"),
    "classify-inf-gap": (lambda: classify(UtilityComparison(math.inf, 1.0, 0.95, 0.99, 1.0), CONCAVE),
        UtilityOverflow, f"{_GAP}inf"),
    "curvature_from_rho-negative": (lambda: curvature_from_rho(-1.0),
        InputError, f"rho -1.0 {_OUT_OF_RANGE}"),
    "curvature_from_rho-nan": (lambda: curvature_from_rho(math.nan),
        InputError, f"rho nan {_OUT_OF_RANGE}"),
    # a name is not coerced to its member: group two's rules under the name
    # "one" would be a wrong answer, not an error
    "classify-str-group": (lambda: classify(cmp_with(5.0, 4.0, 0.9), CONCAVE, "one"),
        InputError, "group must be a DefinitionGroup, got 'one'"),
    "classify-none-group": (lambda: classify(cmp_with(5.0, 4.0, 0.9), CONCAVE, None),
        InputError, "group must be a DefinitionGroup, got None"),
    "classify-str-curvature": (lambda: classify(cmp_with(5.0, 4.0, 0.9), "strictly-concave", G2),
        InputError, "curvature must be a Curvature, got 'strictly-concave'"),
    "calibrate_variant-str": (lambda: calibrate_variant(_moments(), 0.99, "realized"),
        InputError, "variant must be a Variant, got 'realized'"),
    "calibrate_variant-str-with-rho": (
        lambda: calibrate_variant(_moments(), 0.99, Variant.REALIZED.value, rho=2.0),
        InputError, "variant must be a Variant, got 'realized'"),
    "render_table-str": (lambda: render_table([], "text"),
        InputError, "fmt must be a ReportFormat, got 'text'"),
    "render_table-none": (lambda: render_table([], None),
        InputError, "fmt must be a ReportFormat, got None"),
    # a ReportFormat that render_table does not write keeps its own message
    "render_table-json": (lambda: render_table([], ReportFormat.JSON),
        InputError, "render_table writes text or CSV, not ReportFormat.JSON; use export_run for JSON"),
}


@pytest.mark.parametrize("call, error, message", _LIBRARY_ERRORS.values(), ids=list(_LIBRARY_ERRORS))
def test_library_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)

