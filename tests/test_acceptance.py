"""Acceptance gate: the nine published-value and structural criteria.

Each test covers one numbered criterion at its stated tolerance and prints
one PASS line when it holds. Published reference values appear inline;
everything else is computed live from the bundled dataset.
"""

import json
import math

import numpy as np
import pytest

from rac import (
    Label,
    SampleMoments,
    SufficiencyFactors,
    UtilityComparison,
    UtilitySpec,
    Variant,
    calibrate_variant,
    classify,
    classify_pipeline,
    compute_moments,
    consistency_gap,
    crra_utility,
    curvature_from_rho,
    expected_utility_unconditional,
    lognormal_moment,
    projected_consumption,
    solve_closed_form_given_rho,
    system_residuals,
    uncertain_utility,
)
from rac.cli import main
from rac.errors import InvalidCombination, Unclassifiable

BETA = 0.99
RHO_REALIZED = 1.033526
RHO_PROJECTED = 1.0089

# Published reference triples and table values.
PUBLISHED = {
    "realized": {
        "zeta": 0.961745,
        "xi": 1.019392,
        "rho": RHO_REALIZED,
        "uncertain_equity": 6.192703,
        "uncertain_riskfree": 6.563893,
    },
    "projected": {
        "zeta": 0.9615,
        "xi": 1.0192,
        "rho": RHO_PROJECTED,
        "uncertain_equity": 6.762365,
        "uncertain_riskfree": 7.168177,
    },
}


def test_criterion_1_certain_utility_goldens():
    got_realized = crra_utility(3340, UtilitySpec(RHO_REALIZED))
    got_projected = crra_utility(3340, UtilitySpec(RHO_PROJECTED))
    assert abs(got_realized - 7.103787) < 1e-5
    assert abs(got_projected - 7.827697) < 1e-5
    print(f"PASS criterion 1: crra(3340) = {got_realized:.6f} / {got_projected:.6f}")


def test_criterion_2_projected_consumption():
    got = projected_consumption(515.4, 613.7, 150, 219441872)
    assert abs(got - 3430) <= 1.0
    print(f"PASS criterion 2: projected consumption = {got:.4f}")


def test_criterion_3_ratio_identity(variant_moments):
    for name in ("realized", "projected"):
        pub = PUBLISHED[name]
        table_ratio = pub["uncertain_riskfree"] / pub["uncertain_equity"]
        factor_ratio = pub["xi"] / pub["zeta"]
        assert abs(table_ratio - factor_ratio) < 1e-4
    for name in ("realized", "projected"):
        m = variant_moments[name]
        calib = calibrate_variant(m, BETA, Variant(name))
        expected = expected_utility_unconditional(m, UtilitySpec(calib.rho))
        impl_ratio = uncertain_utility(expected, BETA, calib.factors.xi) / (
            uncertain_utility(expected, BETA, calib.factors.zeta)
        )
        assert impl_ratio == calib.factors.xi / calib.factors.zeta
    print("PASS criterion 3: table ratios within 1e-4, implementation ratio exact")


def test_criterion_4_uncertain_utility_reproduction(variant_moments):
    worst = 0.0
    for name in ("realized", "projected"):
        m = variant_moments[name]
        calib = calibrate_variant(m, BETA, Variant(name))
        expected = expected_utility_unconditional(m, UtilitySpec(calib.rho))
        pub = PUBLISHED[name]
        for eta, key in (
            (calib.factors.zeta, "uncertain_equity"),
            (calib.factors.xi, "uncertain_riskfree"),
        ):
            got = uncertain_utility(expected, BETA, eta)
            err = abs(got - pub[key])
            worst = max(worst, err)
            assert err < 1e-2, (name, key, got)
    print(f"PASS criterion 4: four uncertain utilities within 1e-2 (worst {worst:.2e})")


def test_criterion_5_calibration_reproduction(variant_moments):
    for name in ("realized", "projected"):
        pub = PUBLISHED[name]
        calib = calibrate_variant(variant_moments[name], BETA, Variant(name))
        assert abs(calib.factors.zeta - pub["zeta"]) < 1e-2
        assert abs(calib.factors.xi - pub["xi"]) < 1e-2
        assert abs(calib.rho - pub["rho"]) < 1e-2
        published_factors = SufficiencyFactors(pub["zeta"], pub["xi"])
        residuals = system_residuals(
            published_factors, pub["rho"], BETA, variant_moments[name]
        )
        assert float(np.max(np.abs(residuals))) < 5e-3, name
    print("PASS criterion 5: solved triples within 1e-2, published-triple residuals < 5e-3")


def test_criterion_6_classification_outcomes(variant_datasets, variant_moments):
    for name in ("realized", "projected"):
        d = variant_datasets[name]
        calib = calibrate_variant(variant_moments[name], BETA, Variant(name))
        for eta, want in (
            (calib.factors.zeta, Label.RISK_AVERSE),
            (calib.factors.xi, Label.NOT_ENOUGH_RISK_LOVING),
        ):
            cmp, attitude = classify_pipeline(d, eta, calib.rho, BETA)
            assert cmp.certain > cmp.uncertain, (name, eta)
            assert attitude.label is want, (name, eta)
    print("PASS criterion 6: four investor/variant cases give strict inequalities and labels")


def test_criterion_7_structural_degeneracy():
    rng = np.random.default_rng(20260700)
    for _ in range(100):
        mu = float(rng.uniform(-0.05, 0.05))
        s2 = float(rng.uniform(0.0, 0.01))
        m = SampleMoments(
            mu_x=mu,
            sigma2_x=s2,
            mean_x=math.exp(mu + s2 / 2.0),
            mean_Re=float(rng.uniform(0.9, 1.3)),
            mean_Rf=float(rng.uniform(0.9, 1.2)),
            mu_z=float(rng.uniform(5.0, 9.0)),
            sigma2_z=float(rng.uniform(0.0, 0.5)),
        )
        rho = float(rng.uniform(0.0, 5.0))
        beta = float(rng.uniform(0.5, 1.0))
        f = solve_closed_form_given_rho(rho, beta, m)
        r = system_residuals(f, rho, beta, m)
        assert abs(r[0]) <= 1e-10
        assert abs(r[1]) <= 1e-10
        assert abs(r[2] - consistency_gap(m)) <= 1e-10
    print("PASS criterion 7: 100 random moment sets confirm the residual identity")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20260701)

    # CRRA strict monotonicity and strict concavity for rho > 0.
    for _ in range(500):
        rho = float(rng.uniform(0.05, 5.0))
        spec = UtilitySpec(rho)
        c1 = float(rng.uniform(0.5, 150.0))
        c2 = c1 * float(rng.uniform(1.2, 5.0))
        lam = float(rng.uniform(0.2, 0.8))
        assert crra_utility(c2, spec) > crra_utility(c1, spec)
        mid = lam * c1 + (1.0 - lam) * c2
        chord = lam * crra_utility(c1, spec) + (1.0 - lam) * crra_utility(c2, spec)
        assert crra_utility(mid, spec) > chord

    # rho -> 1 continuity at the 1e-4 bound.
    for c in np.geomspace(10.0, 1e4, 40):
        for rho in (1.0 - 1e-6, 1.0 + 1e-6):
            assert abs(crra_utility(float(c), UtilitySpec(rho)) - math.log(c)) < 1e-4

    # Classification trichotomy and tolerance monotonicity.
    from rac import Curvature, DefinitionGroup

    curvatures = list(Curvature)
    groups = list(DefinitionGroup)
    labels = set()
    for _ in range(500):
        cmp = UtilityComparison(
            certain=float(rng.uniform(-100, 100)),
            uncertain=float(rng.uniform(-100, 100)),
            eta=float(rng.uniform(0.1, 3.0)),
            beta=BETA,
            expected_u=0.0,
        )
        curvature = curvatures[int(rng.integers(len(curvatures)))]
        group = groups[int(rng.integers(len(groups)))]
        t1 = float(rng.uniform(0.0, 50.0))
        t2 = t1 + float(rng.uniform(0.0, 150.0))

        def outcome(tol):
            try:
                return ("label", classify(cmp, curvature, group, tol).label)
            except (Unclassifiable, InvalidCombination) as exc:
                return ("error", type(exc))

        first, second = outcome(t1), outcome(t2)
        if first[0] == "label":
            labels.add(first[1])
        if first == ("label", Label.RISK_NEUTRAL):
            assert second == ("label", Label.RISK_NEUTRAL)
        if second != ("label", Label.RISK_NEUTRAL):
            assert first == second
    assert Label.RISK_NEUTRAL in labels

    # Log-linearity of the log-normal moment, exact in float arithmetic.
    for _ in range(500):
        a = float(rng.uniform(-20, 20))
        mu = float(rng.uniform(-10, 10))
        s2 = float(rng.uniform(0.0, 2.0))
        assert lognormal_moment(a, mu, s2) == math.exp(a * mu + 0.5 * a * a * s2)

    # Curvature derivation backs the pipeline's concave classification.
    assert curvature_from_rho(RHO_REALIZED).value == "strictly-concave"
    print("PASS criterion 8: property suites hold on the seeded sweep")


def test_criterion_9_determinism(capsys):
    runs = []
    for _ in range(2):
        code = main(["classify", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        runs.append(out.encode("utf-8"))
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert len(doc["classifications"]) == 4
    print("PASS criterion 9: repeated classify output is byte-identical")
