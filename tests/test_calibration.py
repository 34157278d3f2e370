"""Calibration system: closed form, structural degeneracy, factor region."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rac import (
    SampleMoments,
    SufficiencyFactors,
    UtilitySpec,
    Variant,
    calibrate_variant,
    consistency_gap,
    curvature_from_rho,
    solve_closed_form_given_rho,
    solve_system,
    system_residuals,
)
from rac.errors import InputError, NoConvergence
from rac.params import RHO_REGION


def residuals_oracle(zeta, xi, rho, beta, m):
    """The three formulas retyped independently of the implementation."""
    lnb = math.log(beta)
    rhs_a = -lnb - math.log(xi) + rho * m.mu_x - (rho**2) * m.sigma2_x / 2.0
    rhs_b = (
        math.log(m.mean_x)
        - lnb
        - math.log(zeta)
        - (1 - rho) * m.mu_x
        - ((1 - rho) ** 2) * m.sigma2_x / 2.0
    )
    rhs_c = math.log(xi) - math.log(zeta) + rho * m.sigma2_x
    return (
        math.log(m.mean_Rf) - rhs_a,
        math.log(m.mean_Re) - rhs_b,
        math.log(m.mean_Re / m.mean_Rf) - rhs_c,
    )


def random_moments(rng, gap_scale=1e-4):
    mu = float(rng.uniform(-0.05, 0.05))
    s2 = float(rng.uniform(0.0, 0.01))
    gap = float(rng.uniform(-gap_scale, gap_scale))
    mean_x = math.exp(mu + s2 / 2.0 + gap)
    return SampleMoments(
        mu_x=mu,
        sigma2_x=s2,
        mean_x=mean_x,
        mean_Re=float(rng.uniform(0.9, 1.3)),
        mean_Rf=float(rng.uniform(0.9, 1.2)),
        mu_z=float(rng.uniform(5.0, 9.0)),
        sigma2_z=float(rng.uniform(0.0, 0.5)),
    )


# -- system_residuals ---------------------------------------------------------

def test_residuals_all_zero_trivial_case():
    m = SampleMoments(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    res = system_residuals(SufficiencyFactors(1.0, 1.0), 0.0, 1.0, m)
    assert tuple(res) == (0.0, 0.0, 0.0)


def test_residuals_match_independent_formulas():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_moments(rng)
        zeta = float(rng.uniform(0.5, 2.0))
        xi = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(0.0, 5.0))
        beta = float(rng.uniform(0.5, 1.0))
        got = system_residuals(SufficiencyFactors(zeta, xi), rho, beta, m)
        want = residuals_oracle(zeta, xi, rho, beta, m)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


# -- closed form --------------------------------------------------------------

@given(
    mu=st.floats(min_value=-0.05, max_value=0.05),
    s2=st.floats(min_value=0.0, max_value=0.01),
    gap=st.floats(min_value=1e-9, max_value=1e-3),
    gap_sign=st.sampled_from([-1.0, 1.0]),
    mean_re=st.floats(min_value=0.9, max_value=1.3),
    mean_rf=st.floats(min_value=0.9, max_value=1.2),
    rho=st.floats(min_value=RHO_REGION[0], max_value=RHO_REGION[1]),
    beta=st.floats(min_value=0.5, max_value=1.0),
)
def test_closed_form_exact_fit_identity(mu, s2, gap, gap_sign, mean_re, mean_rf, rho, beta):
    # For any moments and any rho in range, both entry points give the same
    # closed-form factors, or both raise NoConvergence; solve_system's
    # residuals A, B are zero and C is the gap: the system has rank 2 and rho
    # is not identified.
    m = SampleMoments(mu, s2, math.exp(mu + s2 / 2.0 + gap_sign * gap), mean_re, mean_rf, 7.0, 0.1)
    try:
        f = solve_closed_form_given_rho(rho, beta, m)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            solve_system(beta, m, rho)
        return
    result = solve_system(beta, m, rho)
    assert result.rho == rho
    assert result.factors == f
    assert abs(result.residuals[0]) <= 1e-10
    assert abs(result.residuals[1]) <= 1e-10
    assert abs(result.residuals[2] - consistency_gap(m)) <= 1e-10


BUNDLED_LIKE = dict(mu=0.017, s2=0.0013, gap=-5e-6, ln_re=math.log(1.0698),
                   ln_rf=math.log(1.008), ln_beta=math.log(0.99))


@given(
    mu=st.floats(min_value=-1.0, max_value=1.0),
    s2=st.floats(min_value=0.0, max_value=2.0),
    gap=st.floats(min_value=-1e-3, max_value=1e-3),
    ln_re=st.floats(min_value=-30.0, max_value=30.0),
    ln_rf=st.floats(min_value=-30.0, max_value=30.0),
    ln_beta=st.floats(min_value=math.log(1e-300), max_value=0.0),
    rho=st.floats(min_value=RHO_REGION[0], max_value=RHO_REGION[1]),
)
@example(**BUNDLED_LIKE, rho=0.0)
@example(**BUNDLED_LIKE, rho=60.0)
# eq-B terms near 100: summed twice, residual B was rounding of about 1e-13
@example(mu=0.3489716610046545, s2=0.7494060410032806, gap=-0.00012207673991087372,
         ln_re=0.5055892949989094, ln_rf=16.70655690000875, ln_beta=-330.92401746903323,
         rho=41.79765284892678)
# both closed-form factors subnormal: their logs have lost digits
@example(mu=0.8179998393148793, s2=1.3097246789398493, gap=0.0006041739355610897,
         ln_re=19.182502045097458, ln_rf=-15.289593669383947, ln_beta=-132.4312977254133,
         rho=37.194348671780624)
def test_residuals_a_b_vanish_at_the_closed_form(mu, s2, gap, ln_re, ln_rf, ln_beta, rho):
    # at any factors the closed form returns, residuals A and B show only
    # the rounding of exp and log, whatever the size of the equations' terms
    m = SampleMoments(mu, s2, math.exp(mu + s2 / 2.0 + gap), math.exp(ln_re), math.exp(ln_rf),
                      7.0, 0.1)
    beta = math.exp(ln_beta)
    try:
        f = solve_closed_form_given_rho(rho, beta, m)
    except NoConvergence:
        return
    r_a, r_b, _ = system_residuals(f, rho, beta, m)
    assert abs(r_a) <= 1e-15
    assert abs(r_b) <= 1e-15


def test_closed_form_trivial_xi():
    m = SampleMoments(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    f = solve_closed_form_given_rho(0.0, 1.0, m)
    assert f.xi == 1.0
    assert f.zeta == 1.0


def test_xi_monotone_in_rho_direction():
    rng = np.random.default_rng(13)
    h = 1e-5
    checked = 0
    while checked < 100:
        m = random_moments(rng)
        rho = float(rng.uniform(0.0, 5.0))
        slope_sign = m.mu_x - rho * m.sigma2_x
        if abs(slope_sign) < 1e-3:
            continue
        up = solve_closed_form_given_rho(rho + h, 0.99, m).xi
        down = solve_closed_form_given_rho(rho - h, 0.99, m).xi
        assert (up > down) == (slope_sign > 0)
        checked += 1


# -- solve_system -------------------------------------------------------------

def test_solve_resubstitution_idempotent(variant_moments):
    m = variant_moments["projected"]
    result = solve_system(0.99, m, rho=1.0089)
    again = system_residuals(result.factors, result.rho, 0.99, m)
    assert np.allclose(again, result.residuals, rtol=0, atol=1e-14)


def test_tiny_gap_accepted_as_root():
    # Gap above the degeneracy gate but below 1e-9: every residual at the
    # given rho is within 1e-9.
    mu, s2 = 0.02, 0.001
    mean_x = math.exp(mu + s2 / 2.0) * (1.0 + 1e-10)
    m = SampleMoments(mu, s2, mean_x, 1.07, 1.01, 7.0, 0.1)
    gap = consistency_gap(m)
    assert 1e-12 < abs(gap) <= 1e-9
    result = solve_system(0.99, m, rho=2.0)
    assert result.rho == 2.0
    assert max(abs(r) for r in result.residuals) <= 1e-9


# -- calibrate_variant --------------------------------------------------------

def test_variant_rho_override(variant_moments):
    result = calibrate_variant(
        variant_moments["realized"], 0.99, Variant.REALIZED, rho=2.0
    )
    assert result.rho == 2.0
    f = solve_closed_form_given_rho(2.0, 0.99, variant_moments["realized"])
    assert result.factors == f


# -- the one rho rule ---------------------------------------------------------

def rho_takers(m):
    """Each public function that takes rho, called with the rho it is given."""
    return (
        UtilitySpec,
        curvature_from_rho,
        lambda rho: solve_closed_form_given_rho(rho, 0.99, m),
        lambda rho: solve_system(0.99, m, rho),
        lambda rho: system_residuals(SufficiencyFactors(1.0, 1.0), rho, 0.99, m),
    )


@pytest.mark.parametrize("rho", [math.nan, math.inf, -0.5, 60.5])
def test_one_rho_rule_rejects(variant_moments, rho):
    errors = set()
    for take in rho_takers(variant_moments["realized"]):
        with pytest.raises(InputError) as info:
            take(rho)
        errors.add((type(info.value), str(info.value)))
    assert errors == {(InputError, f"rho {rho} outside the supported range [0, 60]")}


@pytest.mark.parametrize("rho", [0, -0.0, 60])
def test_one_rho_rule_accepts(variant_moments, rho):
    spec, _, _, result, _ = (take(rho) for take in rho_takers(variant_moments["realized"]))
    # -0.0 reads as 0.0, so it prints as 0
    assert math.copysign(1.0, spec.rho) == math.copysign(1.0, result.rho) == 1.0
    assert spec.rho == result.rho == rho
