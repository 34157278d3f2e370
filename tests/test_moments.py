"""Sample moments against brute-force oracles and the frozen reference."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from _frozen_reference import FROZEN, PROJECTED_CONSUMPTION
from rac import (
    RHO_ANCHORS,
    MarketDataset,
    SampleMoments,
    Variant,
    calibrate_variant,
    classify_pipeline,
    compute_moments,
    consistency_gap,
    load_bundled_projection,
    lognormal_moment,
    projected_consumption,
    with_final_consumption,
)
from rac.errors import NonFiniteMoment, RacError
from rac.moments import compute_variant_moments


def make_dataset(consumption, start=1900):
    n = len(consumption)
    return MarketDataset(start, consumption, [1.05] * n, [1.01] * n)


def brute_force_moments(consumption, equity, riskfree):
    """Two-pass reference arithmetic, no numpy."""
    x = [consumption[i + 1] / consumption[i] for i in range(len(consumption) - 1)]
    lx = [math.log(v) for v in x]
    lz = [math.log(v) for v in consumption]

    def mean(vals):
        return sum(vals) / len(vals)

    def var(vals):
        m = mean(vals)
        return sum((v - m) ** 2 for v in vals) / len(vals)

    return {
        "mu_x": mean(lx),
        "sigma2_x": var(lx),
        "mean_x": mean(x),
        "mean_Re": mean(equity),
        "mean_Rf": mean(riskfree),
        "mu_z": mean(lz),
        "sigma2_z": var(lz),
    }


# -- compute_moments ----------------------------------------------------------

def test_bundled_matches_brute_force(bundled):
    m = compute_moments(bundled)
    ref = brute_force_moments(
        bundled.consumption,
        bundled.equity_return,
        bundled.riskfree_return,
    )
    for field, want in ref.items():
        got = getattr(m, field)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), field


def test_bundled_matches_frozen(variant_datasets, variant_moments):
    # every frozen value of both variants, computed through the library: the
    # moments, calibrate_variant at the variant's anchor, and classify_pipeline
    # at each calibrated factor; the gap cancels terms some 1e4 times its
    # size, so it is checked at 1e-9
    projected = projected_consumption(*load_bundled_projection())
    assert math.isclose(projected, PROJECTED_CONSUMPTION, rel_tol=1e-12)
    for name, m in variant_moments.items():
        calib = calibrate_variant(m, 0.99, Variant(name))
        got = {**m._asdict(), **calib.factors._asdict(), "consistency_gap": calib.consistency_gap}
        for investor, eta in zip(("equity", "riskfree"), calib.factors):
            cmp, _ = classify_pipeline(variant_datasets[name], eta, calib.rho, 0.99, moments=m)
            got.update(expected_utility=cmp.expected_u, certain_utility=cmp.certain,
                       **{f"uncertain_{investor}": cmp.uncertain})
        want = {**FROZEN[name]["moments"], **FROZEN[name]}
        del want["moments"]
        assert calib.rho == want.pop("rho") == RHO_ANCHORS[Variant(name)], name
        assert got.keys() == want.keys(), name
        for key, value in want.items():
            rel = 1e-9 if key == "consistency_gap" else 1e-12
            assert math.isclose(got[key], value, rel_tol=rel), (name, key)
        # r_C is the gap up to the rounding of O(1e-2) log differences
        a, b, c = calib.residuals
        assert max(abs(a), abs(b), abs(c - calib.consistency_gap)) <= 1e-12, name


def test_constant_series():
    m = compute_moments(make_dataset([250.0] * 6))
    assert m.mu_x == 0.0
    assert m.sigma2_x == 0.0
    assert m.mean_x == 1.0


def test_two_point_series():
    m = compute_moments(make_dataset([100.0, 200.0]))
    assert m.mu_x == math.log(2.0)
    assert m.sigma2_x == 0.0
    assert m.mean_x == 2.0


def exact_mean_var(values):
    """Mean and population variance of the floats `values`, in exact rationals."""
    q = [Fraction(v) for v in values]
    mean = sum(q) / len(q)
    return mean, sum((v - mean) ** 2 for v in q) / len(q)


# Near-ties (a few ulps apart) are where a two-pass variance loses the
# rounding of its mean; plain random floats rarely produce them.
_near_ties = st.builds(
    lambda base, steps: [base * (1 + k * 2.0**-52) for k in steps],
    st.floats(min_value=1e-3, max_value=1e6),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=200),
)


@given(
    cons=st.one_of(
        st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=2, max_size=200),
        _near_ties,
    )
)
def test_matches_exact_rational_reference(cons):
    m = compute_moments(make_dataset(cons))
    x = [b / a for a, b in zip(cons, cons[1:])]
    want = {"mean_x": exact_mean_var(x)[0]}
    want["mu_x"], want["sigma2_x"] = exact_mean_var([math.log(v) for v in x])
    want["mu_z"], want["sigma2_z"] = exact_mean_var([math.log(v) for v in cons])
    for field, exact in want.items():
        got = Fraction(getattr(m, field))
        assert abs(got - exact) <= abs(exact) * Fraction(1, 10**15), field


def one_pass_reference(d):
    """compute_moments arithmetic over the whole series, nothing shared
    between variants (the shared pass must equal it bit for bit)."""
    c, n = d.consumption, len(d.consumption)

    def mean_var(values):
        mean = math.fsum(values) / len(values)
        dev = [v - mean for v in values]
        return mean, (math.fsum(v * v for v in dev) - math.fsum(dev) ** 2 / len(values)) / len(values)

    try:
        x = [b / a for a, b in zip(c, c[1:])]
        values = (*mean_var([math.log(v) for v in x]), math.fsum(x) / (n - 1),
                  math.fsum(d.equity_return) / n, math.fsum(d.riskfree_return) / n,
                  *mean_var([math.log(v) for v in c]))
    except (OverflowError, ValueError):
        raise NonFiniteMoment("reference") from None
    if not all(map(math.isfinite, values)):
        raise NonFiniteMoment("reference")
    return SampleMoments(*values)


def outcome(fn, *args):
    """fn(*args), or the type of the RacError it raises."""
    try:
        return fn(*args)
    except RacError as exc:
        return type(exc)


# Levels far enough apart that a ratio overflows to inf or underflows to 0.
_LEVELS = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6),
    st.sampled_from([1e-306, 1e-300, 1e300, 1e306]),
)


@given(
    cons=st.lists(_LEVELS, min_size=2, max_size=30),
    finals=st.lists(_LEVELS, min_size=1, max_size=3),
    equity=st.sampled_from([1.05, 1e308]),
)
@example(cons=[1.0, 1e-306, 1e-300], finals=[1e-300, 3430.2], equity=1.05)  # 2nd ratio inf
@example(cons=[1.0, 1e300, 1e300], finals=[1e300, 1e-300], equity=1.05)  # 2nd ratio 0
@example(cons=[1e300, 1e-300], finals=[1e-300, 1.0], equity=1.05)  # only the 1st fails
@example(cons=[100.0, 101.0, 102.0], finals=[102.0, 103.0], equity=1e308)  # both fail
def test_shared_pass_equals_one_pass_per_variant(cons, finals, equity):
    n = len(cons)
    d = MarketDataset(1900, cons, [equity] * n, [1.01] * n)
    want = [outcome(one_pass_reference, with_final_consumption(d, v)) for v in finals]
    # one variant that fails fails the whole call
    if any(isinstance(w, type) for w in want):
        want = NonFiniteMoment
    assert outcome(compute_variant_moments, d, finals) == want
    assert outcome(compute_moments, d) == outcome(one_pass_reference, d)


def test_bundled_published_stats(bundled):
    # Published summary statistics: growth mean 1.018, growth std 0.036.
    # sigma2_x only matches (0.036/1.018)^2 in the small-noise approximation,
    # so that check is loose; the exact sample values live in the frozen
    # reference.
    m = compute_moments(bundled)
    assert abs(m.mean_x - 1.018) < 1e-3
    assert abs(m.sigma2_x - (0.036 / 1.018) ** 2) < 5e-5
    x = np.asarray(bundled.consumption)
    growth = x[1:] / x[:-1]
    assert abs(float(growth.std()) - 0.036) < 1e-4


@given(
    k=st.floats(min_value=1e-3, max_value=1e3),
    cons=st.lists(
        st.floats(min_value=1.0, max_value=1e4), min_size=3, max_size=12
    ),
)
def test_scale_invariance(k, cons):
    base = compute_moments(make_dataset(cons))
    scaled = compute_moments(make_dataset([k * c for c in cons]))
    assert math.isclose(scaled.mu_x, base.mu_x, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(scaled.sigma2_x, base.sigma2_x, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(scaled.mean_x, base.mean_x, rel_tol=1e-12)
    assert math.isclose(scaled.mu_z, base.mu_z + math.log(k), rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(scaled.sigma2_z, base.sigma2_z, rel_tol=1e-7, abs_tol=1e-10)


# -- lognormal_moment ---------------------------------------------------------

def test_lognormal_moment_trivial_cases():
    assert lognormal_moment(0.0, 3.7, 0.9) == 1.0
    assert lognormal_moment(1.0, 0.0, 0.0) == 1.0


def test_lognormal_moment_monte_carlo_oracle():
    rng = np.random.default_rng(20260819)
    z = rng.lognormal(mean=0.0, sigma=1.0, size=4_000_000)
    estimate = float(np.mean(z * z))
    value = lognormal_moment(2.0, 0.0, 1.0)
    assert math.isclose(value, math.e**2, rel_tol=1e-12)
    assert abs(estimate - value) / value < 0.01


@given(
    a=st.floats(min_value=-20, max_value=20),
    mu=st.floats(min_value=-10, max_value=10),
    sigma2=st.floats(min_value=0, max_value=2),
)
def test_lognormal_moment_log_linearity(a, mu, sigma2):
    value = lognormal_moment(a, mu, sigma2)
    exponent = a * mu + 0.5 * a * a * sigma2
    assert value == math.exp(exponent)
    assert abs(math.log(value) - exponent) <= 4 * abs(exponent) * 2.3e-16 + 1e-15


@given(
    a=st.sampled_from([-3.0, -1.0, -0.25, 0.25, 1.0, 3.0]),
    mu1=st.floats(min_value=-5, max_value=5),
    delta=st.floats(min_value=1e-6, max_value=5),
    sigma2=st.floats(min_value=0, max_value=2),
)
def test_lognormal_moment_monotone_in_mu(a, mu1, delta, sigma2):
    lo = lognormal_moment(a, mu1, sigma2)
    hi = lognormal_moment(a, mu1 + delta, sigma2)
    if a > 0:
        assert hi > lo
    else:
        assert hi < lo


# -- consistency_gap ----------------------------------------------------------

def test_gap_zero_when_lognormal_identity_holds():
    mu, s2 = 0.017, 0.0013
    m = SampleMoments(mu, s2, math.exp(mu + s2 / 2), 1.07, 1.01, 7.0, 0.1)
    assert abs(consistency_gap(m)) < 1e-15


def test_gap_zero_trivial():
    m = SampleMoments(0.0, 0.0, 1.0, 1.07, 1.01, 7.0, 0.1)
    assert consistency_gap(m) == 0.0
