"""Exact statistics of the bundled dataset, frozen at generation time.

test_moments.test_bundled_matches_frozen computes every value through the
library (the moments, the calibration at each variant's anchor, and the
utilities of a classification at each factor) and compares it at 1e-12
relative, the gap at 1e-9, so drift in the data files or in any of those
computations fails there. The generator (tools/make_reference_dataset.py)
does not check these values: test_generator checks only that it rebuilds
the data files within a cent. The file is edited by hand only, and each
edit says why, as tests/golden/ is: no tool writes it, since values rebuilt
from the code under check would follow that code's drift instead of
catching it."""

PROJECTED_CONSUMPTION = 3430.2174260222014

FROZEN = {
    "realized": {
        "moments": {
            "mu_x": 0.017205279444358835,
            "sigma2_x": 0.0012791998203361351,
            "mean_x": 1.0179999950000742,
            "mean_Re": 1.0698,
            "mean_Rf": 1.008,
            "mu_z": 7.3395116618750595,
            "sigma2_z": 0.16563907140209164,
        },
        "consistency_gap": -4.966137714373237e-06,
        "zeta": 0.9617455534534737,
        "xi": 1.0193662030205315,
        "rho": 1.033526,
        "expected_utility": 6.5040683556096255,
        "certain_utility": 7.103787229460406,
        "uncertain_equity": 6.1927062321613535,
        "uncertain_riskfree": 6.563727189205339,
    },
    "projected": {
        "moments": {
            "mu_x": 0.017140666159374516,
            "sigma2_x": 0.0012776032053787478,
            "mean_x": 1.0179334452659095,
            "mean_Re": 1.0698,
            "mean_Rf": 1.008,
            "mu_z": 7.339447766515464,
            "sigma2_z": 0.1655363564800751,
        },
        "consistency_gap": -4.929702289661192e-06,
        "zeta": 0.9612753949166002,
        "xi": 1.018901576671251,
        "rho": 1.0089,
        "expected_utility": 7.104182608926597,
        "certain_utility": 7.827697381681651,
        "uncertain_equity": 6.760785183526002,
        "uncertain_riskfree": 7.166078232583833,
    },
}
