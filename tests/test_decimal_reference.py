"""rac against the 60-digit decimal reference in tests/_decimal_reference.py.

Each quantity must lie within a stated bound of the reference. A bound is a
few units of rounding (U = 2**-53, half an ulp of 1) times the quantity's
condition: the sum of the magnitudes its rounding errors scale with, as the
comment by each bound derives (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, chs. 1-4). A logarithm or exponential is taken to
be within one ulp (2U relative), every other operation within half an ulp.

The moments are checked against the reference from the data. The factors,
utilities and delta are checked against the reference evaluated at rac's own
moments, so that each stage answers for its own rounding; and the two
decision inputs, the sign of eta - 1 and delta against tol, must agree with
the whole reference chain wherever its values are clear of rounding.

The growth side misses its bounds today (ROADMAP item 6): the gap cancels
about 11 digits, and mu_x and sigma2_x inherit the rounding of each growth
ratio c[t+1]/c[t], which the log amplifies on a low-variance series. Those
checks are strict xfails, so item 6 turns them green.
"""

import math
import random
from collections import namedtuple
from decimal import Decimal

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import _decimal_reference as ref
from rac import (
    DEFAULT_TOLERANCE,
    RHO_ANCHORS,
    ComputeError,
    MarketDataset,
    UtilitySpec,
    Variant,
    compute_moments,
    consistency_gap,
    crra_utility,
    expected_utility_unconditional,
    load_bundled_dataset,
    load_bundled_projection,
    make_comparison,
    projected_consumption,
    solve_closed_form_given_rho,
    with_final_consumption,
)

U = 2.0**-53
ITEM_6 = "ROADMAP item 6: the growth side is not yet computed without cancellation"

Case = namedtuple("Case", "consumption equity_return riskfree_return rho beta")


def _bundled(variant):
    d = load_bundled_dataset()
    if variant is Variant.PROJECTED:
        d = with_final_consumption(d, projected_consumption(*load_bundled_projection()))
    return Case(d.consumption, d.equity_return, d.riskfree_return, RHO_ANCHORS[variant], 0.99)


REALIZED, PROJECTED = _bundled(Variant.REALIZED), _bundled(Variant.PROJECTED)

# four years of growth near 1e-4 a year: each ratio's rounding is a large part
# of its log's distance from the mean
LOW_VARIANCE = Case((100.0, 100.01, 100.02, 100.03), (1.05,) * 4, (1.01,) * 4, 2.0, 0.99)


@st.composite
def cases(draw):
    """A random series: 3-120 years, log growth with mean in [-0.05, 0.05] and
    sd from 1e-4 to 0.2, returns around 1; rho 0, 1 or in [0, 60]."""
    n = draw(st.integers(3, 120))
    mu = draw(st.floats(-0.05, 0.05))
    sd = 10.0 ** draw(st.floats(-4.0, math.log10(0.2)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    level = math.exp(draw(st.floats(0.0, 8.0)))
    consumption = []
    for _ in range(n):
        consumption.append(level)
        level *= math.exp(rng.gauss(mu, sd))
    equity = tuple(rng.uniform(0.7, 1.5) for _ in range(n))
    riskfree = tuple(rng.uniform(0.95, 1.1) for _ in range(n))
    rho = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 60.0))
    beta = draw(st.sampled_from([0.99, 1.0]) | st.floats(0.5, 1.0))
    return Case(tuple(consumption), equity, riskfree, rho, beta)


def _error(got, want):
    return float(abs(Decimal(got) - want))


def _misses(checks):
    """The (name, rac value, reference, bound) rows outside their bound."""
    return [
        (name, got, float(want), bound)
        for name, got, want, bound in checks
        if not _error(got, want) <= bound
    ]


def _logs(values):
    """The logs and their deviations from their mean, in floats: the scale of
    a bound needs no more."""
    logs = [math.log(v) for v in values]
    mean = math.fsum(logs) / len(logs)
    return logs, [v - mean for v in logs]


def _mean_var_bounds(values, mean, var):
    """Bounds on a mean and a population variance of logs each within 4U of
    its own size: the mean gains 2U of itself (fsum, then the division);
    the variance moves by 2*mean(d*e) for log errors e and gains 6U of itself
    (the deviation, its square, fsum and the division)."""
    logs, dev = _logs(values)
    n = len(logs)
    mean_bound = 4 * U * math.fsum(map(abs, logs)) / n + 2 * U * abs(mean)
    var_bound = 8 * U * math.fsum(abs(d * v) for d, v in zip(dev, logs)) / n + 6 * U * var
    return mean_bound, var_bound


def _rac(case):
    """rac's moments, factors and two comparisons for `case`; a draw where rac
    stops with a typed computation error is not checked here."""
    c, equity, riskfree, rho, beta = case
    try:
        m = compute_moments(MarketDataset(1900, c, equity, riskfree))
        f = solve_closed_form_given_rho(rho, beta, m)
        spec = UtilitySpec(rho)
        certain = crra_utility(c[-2], spec)
        expected = expected_utility_unconditional(m, spec)
        comparisons = {
            investor: make_comparison(certain, expected, beta, eta)
            for investor, eta in (("equity", f.zeta), ("riskfree", f.xi))
        }
    except ComputeError:
        reject()
    return m, f, comparisons


@settings(max_examples=40)
@given(case=cases())
@example(case=REALIZED)
@example(case=PROJECTED)
@example(case=LOW_VARIANCE)
def test_pipeline_matches_the_decimal_reference(case):
    c, rho, beta = case.consumption, case.rho, case.beta
    m, f, comparisons = _rac(case)
    want = ref.pipeline(*case)
    checks = []

    # mean_x: each ratio, fsum and the division round once
    checks.append(("mean_x", m.mean_x, want["mean_x"], 3 * U * m.mean_x))
    # a return mean: fsum and the division
    checks.append(("mean_Re", m.mean_Re, want["mean_Re"], 2 * U * m.mean_Re))
    checks.append(("mean_Rf", m.mean_Rf, want["mean_Rf"], 2 * U * m.mean_Rf))
    mu_bound, var_bound = _mean_var_bounds(c, m.mu_z, m.sigma2_z)
    checks.append(("mu_z", m.mu_z, want["mu_z"], mu_bound))
    checks.append(("sigma2_z", m.sigma2_z, want["sigma2_z"], var_bound))

    # The factors at rac's moments: each term of ln zeta and ln xi is within
    # 4U of itself (two roundings in (1-rho)**2, one more for each product;
    # a log is 2U), the subtractions add at most 4U of the sum of the terms'
    # magnitudes, and exp adds 2U relative.
    ln_zeta, ln_xi = ref.log_factors(m._asdict(), rho, beta)
    a = 1.0 - rho
    zeta_terms = (
        math.log(m.mean_x), math.log(beta), a * m.mu_x, a * a * m.sigma2_x / 2,
        math.log(m.mean_Re),
    )
    xi_terms = (math.log(m.mean_Rf), math.log(beta), rho * m.mu_x, rho * rho * m.sigma2_x / 2)
    for name, got, ln_want, terms in (
        ("zeta", f.zeta, ln_zeta, zeta_terms), ("xi", f.xi, ln_xi, xi_terms)
    ):
        bound = (8 * U * math.fsum(map(abs, terms)) + 2 * U) * got
        checks.append((name, got, ref.CONTEXT.exp(ln_want), bound))

    # The utilities at rac's moments, each expm1(x)/a: x's error dx moves the
    # result by e^x*dx/|a|, and expm1, the division and 1 - rho add 4U of it.
    # certain: x = (1-rho)*ln c, within 4U of itself. E[u]: x = a*mu_z +
    # a^2*sigma2_z/2, within 5U of the sum of the two terms' magnitudes. At
    # rho = 1 they are ln c (2U) and mu_z itself (exact).
    for investor, cmp in comparisons.items():
        u = ref.utilities(m._asdict(), c[-2], rho, beta, cmp.eta)
        if a == 0.0:
            certain_bound, expected_bound = 2 * U * abs(cmp.certain), 0.0
        else:
            x = a * math.log(c[-2])
            certain_bound = 4 * U * (math.exp(x) * abs(x / a) + abs(cmp.certain))
            terms = abs(a * m.mu_z) + a * a * m.sigma2_z / 2
            x = a * m.mu_z + a * a * m.sigma2_z / 2
            expected_bound = 5 * U * math.exp(x) * terms / abs(a) + 4 * U * abs(cmp.expected_u)
        # uncertain: beta*eta*E[u], two more roundings; delta: one more
        uncertain_bound = beta * cmp.eta * expected_bound + 2 * U * abs(cmp.uncertain)
        delta = cmp.certain - cmp.uncertain
        delta_bound = certain_bound + uncertain_bound + U * abs(delta)
        checks.append(("certain", cmp.certain, u["certain"], certain_bound))
        checks.append(("expected_u", cmp.expected_u, u["expected_u"], expected_bound))
        checks.append((f"uncertain_{investor}", cmp.uncertain, u["uncertain"], uncertain_bound))
        checks.append((f"delta_{investor}", delta, u["delta"], delta_bound))
    assert _misses(checks) == []

    # The decision inputs against the whole chain, where the reference is
    # clear of rounding: 1e-12 relative is far above every bound above.
    tol = DEFAULT_TOLERANCE
    for investor, cmp in comparisons.items():
        eta = want["zeta" if investor == "equity" else "xi"]
        delta = want[f"delta_{investor}"]
        scale = abs(want["certain"]) + abs(want[f"uncertain_{investor}"])
        if abs(eta - 1) > Decimal("1e-12"):
            assert (cmp.eta > 1) == (eta > 1), investor
        if abs(delta) > Decimal("1e-12") * scale:
            assert (cmp.certain > cmp.uncertain) == (delta > 0), investor
        if abs(abs(delta) - Decimal(tol)) > Decimal("1e-12") * scale:
            assert (abs(cmp.certain - cmp.uncertain) <= tol) == (abs(delta) <= tol), investor


@pytest.mark.xfail(reason=ITEM_6)
@settings(max_examples=40)
@given(case=cases())
@example(case=LOW_VARIANCE)
@example(case=REALIZED)
def test_growth_moments_match_the_decimal_reference(case):
    # the same bounds as the level moments: each growth log within 4U of itself
    m = _rac(case)[0]
    want = ref.moments(*case[:3])
    mu_bound, var_bound = _mean_var_bounds(
        [b / a for a, b in zip(case.consumption, case.consumption[1:])], m.mu_x, m.sigma2_x
    )
    assert _misses([
        ("mu_x", m.mu_x, want["mu_x"], mu_bound),
        ("sigma2_x", m.sigma2_x, want["sigma2_x"], var_bound),
    ]) == []


@pytest.mark.xfail(reason=ITEM_6)
@settings(max_examples=40)
@given(case=cases())
@example(case=REALIZED)
@example(case=PROJECTED)
def test_consistency_gap_matches_the_decimal_reference(case):
    # The gap as a function of the growth logs l_i has slope x_i/sum(x) -
    # (1 + d_i)/n, with d_i = l_i - mu_x, so each l_i within 4U of itself
    # moves it by at most the sum of |slope|*4U*|l_i|. Without cancellation it
    # is mean(e^d - 1 - d - d^2/2) + (log1p(M) - M) + mean(d)^2/2, with M =
    # mean(e^d - 1) near sigma2_x/2 (ROADMAP item 6): its evaluation may add
    # 16U of those terms' magnitudes, at most mean(|d|^3 e^|d|)/6 and M^2/2.
    m = _rac(case)[0]
    c = case.consumption
    ratios = [b / a for a, b in zip(c, c[1:])]
    logs, dev = _logs(ratios)
    n, total = len(ratios), math.fsum(ratios)
    slopes = (abs(x / total - (1 + d) / n) * abs(v) for x, d, v in zip(ratios, dev, logs))
    cubes = math.fsum(abs(d) ** 3 * math.exp(abs(d)) for d in dev) / (6 * n)
    half_var = math.fsum(d * d for d in dev) / (2 * n)
    gap = consistency_gap(m)
    bound = 4 * U * math.fsum(slopes) + 16 * U * (cubes + half_var**2 / 2)
    assert _misses([("gap", gap, ref.gap(ref.moments(*case[:3])), bound)]) == []
