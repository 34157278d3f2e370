"""Build the bundled synthetic reconstruction of the 1889-1978 annual series.

The real archival series is not redistributable, so the package ships a
synthetic one constructed to match the published summary statistics that
every downstream number depends on:

    mean gross consumption growth      1.018
    population std of gross growth     0.036
    mean equity gross return           1.0698
    mean risk-free gross return        1.008
    1977 / 1978 per-capita consumption 3340.00 / 3450.00

plus a small negative consistency gap (a zero gap would make the equation
system exactly degenerate). The log-level mean and variance (M, V) are then
back-solved so that beta*eta*E[u] at the published sufficiency factors
reproduces the published four-table utilities; each variant's
equity/risk-free pair fixes the expected-utility level only up to the
pair's ratio, so the fit balances each pair.

The utilities the package later computes use its own closed-form factors,
not the published ones. On the realized side those agree to a few parts in
1e5, but the published projected pair (0.9615, 1.0192) is not on the closed
form of any swap-transformed moments at the published projected rho (it
corresponds to rho near 1.023), so projected utilities carry an
irreducible error of about 2e-3 against the tables regardless of how the
series is built. Forcing them closer by refitting (M, V) against this
package's own factors would push V to an implausible 0.32; the windows
below accept the 2e-3 instead and keep the level path natural.

The level path follows the historical texture (strong growth to 1929, a
Depression collapse, wartime recovery, a long postwar boom); a unit-weight
pull toward that base shape keeps the least-squares solution plausible
while the moment constraints hold exactly.

Outputs:
    src/rac/data/mehra_prescott_1889_1978.csv
    src/rac/data/projection_1978.csv
    tests/_frozen_reference.py   (exact post-rounding statistics)

Run from the repository root: python3 tools/make_reference_dataset.py
Requires scipy (dev extra). Fixed RNG seeds throughout, but the
least-squares solution depends on the scipy and numpy versions: scipy
1.17.1 with numpy 2.4.6 moves the rounded 1927 cell from 1599.74 to 1599.75
and the 1969 cell from 2995.18 to 2995.19, and rewrites the frozen
reference to match, so the bundled files are not reproduced bit for bit.
"""

from __future__ import annotations

import io
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rac.calibration import (  # noqa: E402
    SufficiencyFactors,
    Variant,
    calibrate_variant,
    system_residuals,
)
from rac.classify import DefinitionGroup, classify_pipeline  # noqa: E402
from rac.dataset import (  # noqa: E402
    load_dataset,
    load_projection,
    projected_consumption,
    with_final_consumption,
)
from rac.moments import compute_moments, consistency_gap  # noqa: E402
from rac.utility import UtilitySpec, crra_utility, expected_utility_unconditional  # noqa: E402

N_YEARS = 90
START_YEAR = 1889
BETA = 0.99

MEAN_X = 1.018
STD_X = 0.036
GAP_TARGET = -5e-6
C_1977 = 3340.0
C_1978 = 3450.0

MEAN_RE = 1.0698
STD_RE = 0.1654
MEAN_RF = 1.008
STD_RF = 0.0567

RHO_R = 1.033526
RHO_P = 1.0089

# Published reference values the final dataset must reproduce through the
# package's own pipeline (windows narrower than the acceptance tolerances,
# leaving room for downstream drift).
PUB = {
    "zeta_realized": 0.961745,
    "xi_realized": 1.019392,
    "zeta_projected": 0.9615,
    "xi_projected": 1.0192,
    "uncertain_equity_realized": 6.192703,
    "uncertain_riskfree_realized": 6.563893,
    "uncertain_equity_projected": 6.762365,
    "uncertain_riskfree_projected": 7.168177,
    "certain_realized": 7.103787,
    "certain_projected": 7.827697,
}

PROJECTION_ROW = (515.4, 613.7, 150, 219441872)

# Log-normal growth moments implied by (MEAN_X, STD_X); used to seed the
# fixed-point iteration before any path exists.
SIGMA2_X_IMPLIED = math.log1p((STD_X / MEAN_X) ** 2)
MU_X_IMPLIED = math.log(MEAN_X) - 0.5 * SIGMA2_X_IMPLIED


def solve_level_targets(c_proj: float) -> tuple[float, float]:
    """Back-solve the log-level mean M and population variance V.

    Chooses (M, V) so the expected utilities hit the balanced published
    targets for both variants, with the projected level moments tied to
    (M, V) by the final-year swap. Newton iteration on the 2x2 system.
    """
    e_r = (PUB["uncertain_equity_realized"] / PUB["zeta_realized"]
           + PUB["uncertain_riskfree_realized"] / PUB["xi_realized"]) / (2.0 * BETA)
    e_p = (PUB["uncertain_equity_projected"] / PUB["zeta_projected"]
           + PUB["uncertain_riskfree_projected"] / PUB["xi_projected"]) / (2.0 * BETA)

    delta = math.log(C_1978) - math.log(c_proj)
    l_last = math.log(C_1978)
    n = N_YEARS
    a_r = 1.0 - RHO_R
    a_p = 1.0 - RHO_P

    def expected(a: float, m: float, v: float) -> float:
        return math.expm1(a * m + 0.5 * a * a * v) / a

    m, v = 7.34, 0.166
    for _ in range(60):
        m_p = m - delta / n
        v_p = v - 2.0 * delta * (l_last - m) / n + delta * delta * (n - 1) / n**2
        f1 = expected(a_r, m, v) - e_r
        f2 = expected(a_p, m_p, v_p) - e_p
        if abs(f1) < 1e-14 and abs(f2) < 1e-14:
            break
        g_r = math.exp(a_r * m + 0.5 * a_r * a_r * v)
        g_p = math.exp(a_p * m_p + 0.5 * a_p * a_p * v_p)
        # d(m_p)/dm = 1, d(v_p)/dm = 2*delta/n, d(v_p)/dv = 1
        j11 = g_r
        j12 = 0.5 * a_r * g_r
        j21 = g_p * (1.0 + a_p * delta / n)
        j22 = 0.5 * a_p * g_p
        det = j11 * j22 - j12 * j21
        m -= (f1 * j22 - f2 * j12) / det
        v -= (f2 * j11 - f1 * j21) / det
    else:
        raise SystemExit("level-target Newton failed to converge")
    return m, v


def base_levels() -> np.ndarray:
    """Historically textured initial log-level path (90 values)."""
    rng = np.random.default_rng(18891977)
    growth = np.empty(N_YEARS - 1)
    segments = [
        (0, 25, 0.026),    # 1889-1914: early expansion
        (25, 40, 0.016),   # 1914-1929: war and the twenties
        (40, 45, -0.042),  # 1929-1934: the Depression collapse
        (45, 56, 0.030),   # 1934-1945: recovery and war economy
        (56, 89, 0.0235),  # 1945-1978: postwar boom
    ]
    for lo, hi, rate in segments:
        growth[lo:hi] = rate
    growth += rng.normal(0.0, 0.027, size=N_YEARS - 1)

    # Last growth year is fixed by the 1977/1978 levels.
    l0 = math.log(C_1978) - (N_YEARS - 1) * MU_X_IMPLIED
    g_last = math.log(C_1978 / C_1977)
    free = growth[:-1]
    total_free = math.log(C_1977) - l0
    b = (STD_X / MEAN_X) / free.std()
    a = (total_free - b * free.sum()) / free.size
    growth[:-1] = a + b * free
    growth[-1] = g_last

    levels = np.empty(N_YEARS)
    levels[0] = l0
    levels[1:] = l0 + np.cumsum(growth)
    return levels


def level_stats(levels: np.ndarray) -> dict:
    g = np.diff(levels)
    x = np.exp(g)
    mean_x = float(x.mean())
    mu_x = float(g.mean())
    sigma2_x = float(g.var())
    return {
        "mean_l": float(levels.mean()),
        "var_l": float(levels.var()),
        "mean_x": mean_x,
        "std_x": float(x.std()),
        "mu_x": mu_x,
        "sigma2_x": sigma2_x,
        "gap": math.log(mean_x) - (mu_x + 0.5 * sigma2_x),
    }


def solve_levels(
    base: np.ndarray, x0: np.ndarray, m_target: float, v_target: float
) -> np.ndarray:
    """Adjust levels[0..87] so the five moment constraints hold exactly.

    The last two levels stay fixed at ln(3340), ln(3450). Constraint
    residuals carry large weights; a unit-weight pull toward the base path
    keeps the solution historically shaped. x0 warm-starts the solver.
    """
    fixed_tail = np.array([math.log(C_1977), math.log(C_1978)])

    def assemble(v: np.ndarray) -> np.ndarray:
        return np.concatenate([v, fixed_tail])

    def residuals(v: np.ndarray) -> np.ndarray:
        s = level_stats(assemble(v))
        cons = np.array(
            [
                (s["mean_l"] - m_target) * 1e6,
                (s["var_l"] - v_target) * 1e6,
                (s["mean_x"] - MEAN_X) * 1e6,
                (s["std_x"] - STD_X) * 1e6,
                (s["gap"] - GAP_TARGET) * 1e5,
            ]
        )
        return np.concatenate([cons, v - base[:-2]])

    fit = least_squares(
        residuals,
        x0,
        method="trf",
        ftol=1e-15,
        xtol=1e-15,
        gtol=1e-15,
        max_nfev=200_000,
    )
    # Levenberg-Marquardt polish; trf can stall a hair early.
    fit = least_squares(residuals, fit.x, method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15)
    levels = assemble(fit.x)
    s = level_stats(levels)
    checks = {
        "mean_l": abs(s["mean_l"] - m_target),
        "var_l": abs(s["var_l"] - v_target),
        "mean_x": abs(s["mean_x"] - MEAN_X),
        "std_x": abs(s["std_x"] - STD_X),
    }
    for name, err in checks.items():
        if err > 1e-9:
            raise SystemExit(f"level solve missed {name} by {err:.3e}")
    if abs(s["gap"] - GAP_TARGET) > 2e-6:
        raise SystemExit(f"level solve missed gap: {s['gap']:.3e}")
    return levels


def build_levels(c_proj: float) -> tuple[np.ndarray, float, float]:
    """Back-solve the level targets, then solve the path against them."""
    base = base_levels()
    m_t, v_t = solve_level_targets(c_proj)
    levels = solve_levels(base, base[:-2].copy(), m_t, v_t)
    return levels, m_t, v_t


def return_series(rng: np.random.Generator, mean: float, std: float) -> np.ndarray:
    """90 gross returns, 6-decimal values, sample mean on target."""
    draws = rng.normal(size=N_YEARS)
    draws = (draws - draws.mean()) / draws.std()
    r = np.round(mean + std * draws, 6)
    r[-1] = round(mean * N_YEARS - r[:-1].sum(), 6)
    if r.min() <= 0.5:
        raise SystemExit("return series dipped implausibly low; reseed")
    return r


def format_dataset_csv(years, consumption, equity, riskfree) -> str:
    buf = io.StringIO()
    buf.write("year,consumption_per_capita,equity_gross_return,riskfree_gross_return\n")
    for y, c, re_, rf in zip(years, consumption, equity, riskfree):
        buf.write(f"{y},{c:.2f},{re_:.6f},{rf:.6f}\n")
    return buf.getvalue()


def verify_and_freeze(dataset_path: Path, projection_path: Path) -> dict:
    """Recompute every published-value window through the package itself."""
    d = load_dataset(dataset_path)
    proj_inputs = load_projection(projection_path)
    c_projected = projected_consumption(*proj_inputs)
    d_proj = with_final_consumption(d, c_projected)

    assert len(d.consumption) == N_YEARS and d.start_year == START_YEAR
    assert d.consumption[-2:] == (C_1977, C_1978)
    assert abs(c_projected - 3430.0) <= 1.0

    # The published projected (zeta, xi) pair is not exactly on the closed
    # form of the transformed moments (it corresponds to a slightly larger
    # rho than the published 1.0089), so the projected windows are wider.
    factor_tol = {"realized": 2e-4, "projected": 5e-4}

    frozen: dict = {"projected_consumption": c_projected}
    datasets = {"realized": d, "projected": d_proj}
    for name, dv in datasets.items():
        variant = Variant(name)
        m = compute_moments(dv)
        gap = consistency_gap(m)
        if not 1e-8 <= abs(gap) <= 1e-4:
            raise SystemExit(f"{name}: consistency gap {gap:.3e} outside window")
        calib = calibrate_variant(m, BETA, variant)
        spec = UtilitySpec(rho=calib.rho)
        expected_u = expected_utility_unconditional(m, spec)
        certain = crra_utility(dv.consumption[-2], spec)
        unc_equity = BETA * calib.factors.zeta * expected_u
        unc_riskfree = BETA * calib.factors.xi * expected_u

        windows = [
            ("zeta", calib.factors.zeta, PUB[f"zeta_{name}"], factor_tol[name]),
            ("xi", calib.factors.xi, PUB[f"xi_{name}"], factor_tol[name]),
            ("uncertain equity", unc_equity, PUB[f"uncertain_equity_{name}"], 3e-3),
            ("uncertain riskfree", unc_riskfree, PUB[f"uncertain_riskfree_{name}"], 3e-3),
            ("certain", certain, PUB[f"certain_{name}"], 1e-5),
        ]
        for label, got, want, tol in windows:
            if abs(got - want) > tol:
                raise SystemExit(f"{name}: {label} = {got!r}, want {want} +- {tol}")

        pub_triple = SufficiencyFactors(PUB[f"zeta_{name}"], PUB[f"xi_{name}"])
        pub_rho = RHO_R if name == "realized" else RHO_P
        res = system_residuals(pub_triple, pub_rho, BETA, m)
        if np.abs(res).max() > 1e-3:
            raise SystemExit(f"{name}: published-triple residuals {res} too large")

        for eta, want_label in (
            (calib.factors.zeta, "Risk-averse"),
            (calib.factors.xi, "Not enough risk-loving"),
        ):
            cmp, att = classify_pipeline(
                dv, eta, calib.rho, BETA, DefinitionGroup.TWO, moments=m
            )
            if att.label.value != want_label:
                raise SystemExit(f"{name}: eta={eta} gave {att.label.value!r}")
            if not cmp.certain > cmp.uncertain + 0.1:
                raise SystemExit(f"{name}: inequality margin too thin")

        if abs(calib.residuals[2] - gap) > 1e-12:
            raise SystemExit(f"{name}: residual C {calib.residuals[2]!r} differs from the gap")

        frozen[name] = {
            "moments": {
                "mu_x": m.mu_x,
                "sigma2_x": m.sigma2_x,
                "mean_x": m.mean_x,
                "mean_Re": m.mean_Re,
                "mean_Rf": m.mean_Rf,
                "mu_z": m.mu_z,
                "sigma2_z": m.sigma2_z,
            },
            "consistency_gap": gap,
            "zeta": calib.factors.zeta,
            "xi": calib.factors.xi,
            "rho": calib.rho,
            "expected_utility": expected_u,
            "certain_utility": certain,
            "uncertain_equity": unc_equity,
            "uncertain_riskfree": unc_riskfree,
        }
    return frozen


def emit_frozen(frozen: dict, path: Path) -> None:
    lines = [
        '"""Exact statistics of the bundled dataset, frozen at generation time.',
        "",
        "Regenerated by tools/make_reference_dataset.py; tests compare the",
        "loaded dataset against these values at tight tolerances to catch any",
        'drift in the data files or the moment computations."""',
        "",
        f"PROJECTED_CONSUMPTION = {frozen['projected_consumption']!r}",
        "",
        "FROZEN = {",
    ]
    for name in ("realized", "projected"):
        blk = frozen[name]
        lines.append(f'    "{name}": {{')
        lines.append('        "moments": {')
        for k, v in blk["moments"].items():
            lines.append(f'            "{k}": {v!r},')
        lines.append("        },")
        for k in (
            "consistency_gap",
            "zeta",
            "xi",
            "rho",
            "expected_utility",
            "certain_utility",
            "uncertain_equity",
            "uncertain_riskfree",
        ):
            lines.append(f'        "{k}": {blk[k]!r},')
        lines.append("    },")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    c_proj = projected_consumption(*PROJECTION_ROW)
    levels, m_target, v_target = build_levels(c_proj)
    consumption = np.round(np.exp(levels), 2)
    assert consumption[-2] == C_1977 and consumption[-1] == C_1978
    assert consumption.min() > 0

    rng = np.random.default_rng(19781889)
    equity = return_series(rng, MEAN_RE, STD_RE)
    riskfree = return_series(rng, MEAN_RF, STD_RF)

    data_dir = ROOT / "src" / "rac" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = data_dir / "mehra_prescott_1889_1978.csv"
    years = range(START_YEAR, START_YEAR + N_YEARS)
    dataset_path.write_text(
        format_dataset_csv(years, consumption, equity, riskfree), encoding="utf-8"
    )
    projection_path = data_dir / "projection_1978.csv"
    projection_path.write_text(
        "nondurables_bn,services_bn,gnp_deflator,population\n"
        + ",".join(map(str, PROJECTION_ROW)) + "\n",
        encoding="utf-8",
    )

    frozen = verify_and_freeze(dataset_path, projection_path)
    emit_frozen(frozen, ROOT / "tests" / "_frozen_reference.py")

    print(f"wrote {dataset_path.relative_to(ROOT)} ({N_YEARS} rows)")
    print(f"wrote {projection_path.relative_to(ROOT)}")
    print("wrote tests/_frozen_reference.py")
    print(f"level targets M {m_target!r} V {v_target!r}")
    for name in ("realized", "projected"):
        blk = frozen[name]
        print(
            f"{name}: gap {blk['consistency_gap']:.3e}, "
            f"zeta {blk['zeta']:.6f}, xi {blk['xi']:.6f}, "
            f"uncertain {blk['uncertain_equity']:.6f} / {blk['uncertain_riskfree']:.6f}"
        )


if __name__ == "__main__":
    main()
