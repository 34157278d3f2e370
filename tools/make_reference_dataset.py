"""Rebuild the bundled synthetic 1889-1978 annual series and compare it
with the bundled files.

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
package's own factors would push V to an implausible 0.32; the fit
accepts the 2e-3 instead and keeps the level path natural.

The level path follows the historical texture (strong growth to 1929, a
Depression collapse, wartime recovery, a long postwar boom); a unit-weight
pull toward that base shape keeps the least-squares solution plausible
while the moment constraints hold exactly.

Run from the repository root: python3 tools/make_reference_dataset.py
(requires scipy, a dev extra). It writes no file: main() builds both CSV
texts in memory, prints each cell that differs from the bundled files and
exits 1 if any is more than a cent off.
Under scipy 1.17.1 and numpy 2.4.6 the fixed seeds give both bundled texts
byte for byte, but the least-squares fit pins the levels only to about
1e-6 relative and the 1927 and 1969 cells lie within 0.011 cents of a
rounding boundary, so another scipy, numpy or BLAS may move them a cent.

The bundled files and tests/_frozen_reference.py are edited by hand only,
as tests/golden/ is: they are what this code is checked against, and
rebuilt from it they would follow its drift (the package's arithmetic has
moved in the last digits since the reference was frozen) instead of
catching it.
"""

import decimal
import io
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rac.calibration import RHO_ANCHORS  # noqa: E402
from rac.dataset import _HEADER, _PROJECTION_HEADER, projected_consumption  # noqa: E402
from rac.params import DEFAULT_BETA, Variant  # noqa: E402

N_YEARS = 90
START_YEAR = 1889

MEAN_X = 1.018
STD_X = 0.036
GAP_TARGET = -5e-6
C_1977 = 3340.0
C_1978 = 3450.0

MEAN_RE = 1.0698
STD_RE = 0.1654
MEAN_RF = 1.008
STD_RF = 0.0567

# Published values that solve_level_targets fits: each variant's
# sufficiency factors and its two uncertain utilities.
PUB = {
    "zeta_realized": 0.961745,
    "xi_realized": 1.019392,
    "zeta_projected": 0.9615,
    "xi_projected": 1.0192,
    "uncertain_equity_realized": 6.192703,
    "uncertain_riskfree_realized": 6.563893,
    "uncertain_equity_projected": 6.762365,
    "uncertain_riskfree_projected": 7.168177,
}

PROJECTION_ROW = (515.4, 613.7, 150, 219441872)

BUNDLED = ("mehra_prescott_1889_1978.csv", "projection_1978.csv")  # in generate()'s order
CENT = 0.01 + 1e-9  # how far a rebuilt cell may lie from its bundled value

# Log-normal growth moments implied by (MEAN_X, STD_X); MU_X_IMPLIED sets
# the start level of the base path.
SIGMA2_X_IMPLIED = math.log1p((STD_X / MEAN_X) ** 2)
MU_X_IMPLIED = math.log(MEAN_X) - 0.5 * SIGMA2_X_IMPLIED


def solve_level_targets(c_proj: float) -> tuple[float, float]:
    """The log-level mean M and population variance V at which E[u] hits
    the balanced published target of each variant.

    E[u] = expm1(a*M + a^2*V/2)/a is linear in (M, V) after log1p, and so is
    the projected target under the final-year swap, M_p = M - delta/n and
    V_p = V - 2*delta*(l_last - M)/n + delta^2*(n-1)/n^2. The 2x2 system is
    solved in 40-digit decimal and rounded once: in floats, V's small
    coefficients would magnify right-hand-side rounding some 1e4 times.
    """
    e_r = (PUB["uncertain_equity_realized"] / PUB["zeta_realized"]
           + PUB["uncertain_riskfree_realized"] / PUB["xi_realized"]) / (2.0 * DEFAULT_BETA)
    e_p = (PUB["uncertain_equity_projected"] / PUB["zeta_projected"]
           + PUB["uncertain_riskfree_projected"] / PUB["xi_projected"]) / (2.0 * DEFAULT_BETA)
    n = N_YEARS
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a_r, a_p, e_r, e_p, l_last, delta = map(decimal.Decimal, (
            1.0 - RHO_ANCHORS[Variant.REALIZED], 1.0 - RHO_ANCHORS[Variant.PROJECTED],
            e_r, e_p, math.log(C_1978), math.log(C_1978) - math.log(c_proj)))
        s = delta / n
        # rows: coefficient of M, coefficient of V, right-hand side
        r11, r12, b1 = a_r, a_r * a_r / 2, (1 + a_r * e_r).ln()
        r21, r22 = a_p * (1 + a_p * s), a_p * a_p / 2
        b2 = ((1 + a_p * e_p).ln() + a_p * s
              + r22 * (2 * s * l_last - delta * delta * (n - 1) / (n * n)))
        det = r11 * r22 - r12 * r21
        return float((b1 * r22 - b2 * r12) / det), float((r11 * b2 - r21 * b1) / det)


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
    buf.write(",".join(_HEADER) + "\n")
    for y, c, re_, rf in zip(years, consumption, equity, riskfree):
        buf.write(f"{y},{c:.2f},{re_:.6f},{rf:.6f}\n")
    return buf.getvalue()


def format_projection_csv(row) -> str:
    return ",".join(_PROJECTION_HEADER) + "\n" + ",".join(map(str, row)) + "\n"


def generate() -> tuple[str, str]:
    """The dataset CSV and the projection CSV text, built afresh; writes nothing."""
    base = base_levels()
    m_t, v_t = solve_level_targets(projected_consumption(*PROJECTION_ROW))
    levels = solve_levels(base, base[:-2].copy(), m_t, v_t)
    consumption = np.round(np.exp(levels), 2)
    assert consumption[-2] == C_1977 and consumption[-1] == C_1978
    assert consumption.min() > 0

    rng = np.random.default_rng(19781889)
    equity = return_series(rng, MEAN_RE, STD_RE)
    riskfree = return_series(rng, MEAN_RF, STD_RF)
    years = range(START_YEAR, START_YEAR + N_YEARS)
    return (format_dataset_csv(years, consumption, equity, riskfree),
            format_projection_csv(PROJECTION_ROW))


def differing_cells(texts: tuple[str, str]) -> list[tuple[str, float]]:
    """Each cell of the two CSV texts that differs from the bundled file's,
    as (description, distance from the bundled value). A header or row
    count that differs, which leaves the cells unpaired, raises SystemExit."""
    cells = []
    for name, text in zip(BUNDLED, texts):
        bundled = (ROOT / "src" / "rac" / "data" / name).read_text(encoding="utf-8").splitlines()
        got = text.splitlines()
        if (len(got), got[:1]) != (len(bundled), bundled[:1]):
            raise SystemExit(f"{name}: header or row count differs from the bundled file")
        header = bundled[0].split(",")
        for want_row, got_row in zip(bundled[1:], got[1:]):
            want_row, got_row = want_row.split(","), got_row.split(",")
            for column, want, value in zip(header, want_row, got_row):
                if value != want:
                    cell = f"{name} {header[0]} {want_row[0]}, {column}: {value} against {want}"
                    cells.append((cell, abs(float(value) - float(want))))
    return cells


def main() -> None:
    """Rebuild both CSV texts and compare them with the bundled files; writes
    nothing. Exits 1 if a cell is more than one cent off."""
    cells = differing_cells(generate())
    for cell, _ in cells:
        print(cell)
    beyond = sum(distance > CENT for _, distance in cells)
    if beyond:
        raise SystemExit(f"{beyond} of {len(cells)} differing cells are more than a cent off")
    print(f"both bundled files rebuild within a cent ({len(cells)} cells differ)")


if __name__ == "__main__":
    main()
