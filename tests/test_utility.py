"""CRRA utility: limits, curvature, and the scaling law; the bundled values
are in test_moments.test_bundled_matches_frozen."""

import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rac import (
    UtilitySpec,
    crra_utility,
    expected_utility_unconditional,
    make_comparison,
    uncertain_utility,
)


# -- crra_utility -------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 1.033526, 2.0, 10.0, 60.0])
def test_shifted_is_zero_at_one(rho):
    assert crra_utility(1.0, UtilitySpec(rho)) == 0.0


def test_log_branch():
    assert crra_utility(math.e, UtilitySpec(1.0)) == 1.0
    assert crra_utility(100.0, UtilitySpec(1.0)) == math.log(100.0)


def test_rho_zero_forms():
    assert math.isclose(crra_utility(7.0, UtilitySpec(0.0)), 6.0, rel_tol=1e-14)


@given(
    c=st.floats(min_value=10.0, max_value=1e4),
    side=st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]),
)
def test_log_limit_continuity(c, side):
    assert abs(crra_utility(c, UtilitySpec(side)) - math.log(c)) < 1e-4


@given(
    c1=st.floats(min_value=0.5, max_value=200.0),
    factor=st.floats(min_value=1.01, max_value=10.0),
    rho=st.floats(min_value=0.0, max_value=5.0),
)
def test_strict_monotonicity(c1, factor, rho):
    spec = UtilitySpec(rho)
    assert crra_utility(c1 * factor, spec) > crra_utility(c1, spec)


@given(
    c1=st.floats(min_value=0.5, max_value=150.0),
    ratio=st.floats(min_value=1.2, max_value=10.0),
    lam=st.floats(min_value=0.2, max_value=0.8),
    rho=st.floats(min_value=0.1, max_value=5.0),
)
def test_strict_concavity(c1, ratio, lam, rho):
    spec = UtilitySpec(rho)
    c2 = c1 * ratio
    mid = lam * c1 + (1.0 - lam) * c2
    chord = lam * crra_utility(c1, spec) + (1.0 - lam) * crra_utility(c2, spec)
    assert crra_utility(mid, spec) > chord


# -- expected_utility_unconditional -------------------------------------------

def moments_with_levels(mu_z, sigma2_z):
    from rac import SampleMoments

    return SampleMoments(0.017, 0.0013, 1.018, 1.0698, 1.008, mu_z, sigma2_z)


def test_expected_utility_point_mass_at_one():
    m = moments_with_levels(0.0, 0.0)
    assert expected_utility_unconditional(m, UtilitySpec(2.0)) == 0.0
    assert expected_utility_unconditional(m, UtilitySpec(1.0)) == 0.0


def test_expected_utility_log_branch_is_mu_z():
    m = moments_with_levels(7.25, 0.3)
    assert expected_utility_unconditional(m, UtilitySpec(1.0)) == 7.25


@given(
    mu_z=st.floats(min_value=-2.0, max_value=11.0),
    rho=st.floats(min_value=0.0, max_value=6.0),
)
def test_expected_utility_degenerate_matches_crra(mu_z, rho):
    m = moments_with_levels(mu_z, 0.0)
    got = expected_utility_unconditional(m, UtilitySpec(rho))
    want = crra_utility(math.exp(mu_z), UtilitySpec(rho))
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


# -- uncertain_utility --------------------------------------------------------

@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_uncertain_utility_identity_scaling(x):
    assert uncertain_utility(x, 1.0, 1.0) == x


@given(
    e=st.floats(min_value=0.1, max_value=100.0),
    beta=st.floats(min_value=0.05, max_value=1.0),
    eta1=st.floats(min_value=0.05, max_value=5.0),
    eta2=st.floats(min_value=0.05, max_value=5.0),
)
def test_uncertain_utility_eta_scaling_law(e, beta, eta1, eta2):
    ratio = uncertain_utility(e, beta, eta1) / uncertain_utility(e, beta, eta2)
    assert math.isclose(ratio, eta1 / eta2, rel_tol=1e-13)


def test_make_comparison_fields():
    cmp = make_comparison(7.1, 6.5, 0.99, 0.96)
    assert cmp.certain == 7.1
    assert cmp.expected_u == 6.5
    assert cmp.beta == 0.99
    assert cmp.eta == 0.96
    assert cmp.uncertain == 0.99 * 0.96 * 6.5
    # a Decimal is a number: the comparison holds the same floats
    same = make_comparison(Decimal("7.1"), 6.5, Decimal("0.99"), 0.96)
    assert same == cmp and {type(v) for v in same} == {float}
