"""Reference results for every benchmark op, computed without the rac package.

The oracle re-derives what `rac ingest|calibrate|classify` must print from the
CSV inputs alone: moments with math.fsum, the closed-form (zeta, xi) at the rho
the CLI uses (the published anchor unless --rho is given), the shifted CRRA
certain and expected utilities, the group-one / group-two decision table and
the exit code of every op. It imports nothing from rac, so a defect in the
package cannot hide in both sides of a comparison.

`Oracle(...).expected(argv)` returns a JSON-able record; `check(record, code,
out, err)` compares one op's exit code and output with it and returns a list of
mismatch descriptions (empty when the op is correct).

Numbers are compared at RTOL relative with an absolute floor ATOL. The floor
covers quantities that are zero analytically (the eq-A and eq-B residuals)
and come out as rounding noise of O(1) log terms. Numbers printed in text
output are compared within half a unit of their last printed digit. Added
keys, column order and layout are not mismatches.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

RTOL = 1e-9
ATOL = 1e-13

BETA = 0.99
TOLERANCE = 1e-9
DEGENERACY_TOL = 1e-12
RHO_REGION = (0.0, 60.0)
FACTOR_REGION_MAX = 10.0
RHO_ANCHORS = {"realized": 1.033526, "projected": 1.0089}

DATASET_HEADER = ["year", "consumption_per_capita", "equity_gross_return", "riskfree_gross_return"]
PROJECTION_HEADER = ["nondurables_bn", "services_bn", "gnp_deflator", "population"]

ALLOCATION_TEXT = {
    "negative": "allocates extra negative utility",
    "positive": "allocates extra positive utility",
    "zero": "allocates no extra utility",
}
LABELS = (
    "Not enough risk-loving",
    "Not enough risk-averse",
    "Risk-averse",
    "Risk-loving",
    "Risk-neutral",
)


class OpError(Exception):
    """The op is expected to fail with this CLI exit code."""

    def __init__(self, code: int, why: str):
        super().__init__(why)
        self.code = code


# -- inputs -------------------------------------------------------------------

def read_dataset(path) -> dict:
    """Years and the three columns of a market-data CSV, as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if [h.strip() for h in rows[0]] != DATASET_HEADER:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return {
        "start_year": int(rows[1][0]),
        "c": [float(r[1]) for r in rows[1:]],
        "re": [float(r[2]) for r in rows[1:]],
        "rf": [float(r[3]) for r in rows[1:]],
    }


def read_projection(path) -> float:
    """Real per-capita consumption implied by a projection-inputs CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if [h.strip() for h in rows[0]] != PROJECTION_HEADER:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    nond, serv, defl, pop = (float(v) for v in rows[1])
    return (nond + serv) * 1e9 / (defl / 100.0) / pop


# -- model --------------------------------------------------------------------

def _mean_var(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    return mean, math.fsum((v - mean) ** 2 for v in values) / n


def moments(data: dict) -> dict:
    c = data["c"]
    x = [b / a for a, b in zip(c, c[1:])]
    mu_x, sigma2_x = _mean_var([math.log(v) for v in x])
    mu_z, sigma2_z = _mean_var([math.log(v) for v in c])
    return {
        "mu_x": mu_x,
        "sigma2_x": sigma2_x,
        "mean_x": math.fsum(x) / len(x),
        "mean_Re": math.fsum(data["re"]) / len(data["re"]),
        "mean_Rf": math.fsum(data["rf"]) / len(data["rf"]),
        "mu_z": mu_z,
        "sigma2_z": sigma2_z,
    }


def calibration(m: dict, rho: float) -> dict:
    """Closed-form factors zeroing eqs A and B; eq C's residual is the gap."""
    gap = math.log(m["mean_x"]) - m["mu_x"] - 0.5 * m["sigma2_x"]
    if abs(gap) < DEGENERACY_TOL:
        raise OpError(2, "degenerate system: zero consistency gap")
    if not RHO_REGION[0] <= rho <= RHO_REGION[1]:
        raise OpError(1, f"rho {rho} outside {RHO_REGION}")
    ln_b = math.log(BETA)
    mu, s2 = m["mu_x"], m["sigma2_x"]
    xi = math.exp(-math.log(m["mean_Rf"]) - ln_b + rho * mu - 0.5 * rho * rho * s2)
    zeta = math.exp(
        math.log(m["mean_x"]) - ln_b - (1 - rho) * mu - 0.5 * (1 - rho) ** 2 * s2
        - math.log(m["mean_Re"])
    )
    if zeta > FACTOR_REGION_MAX or xi > FACTOR_REGION_MAX:
        raise OpError(2, "closed-form factors leave the search region")
    return {"zeta": zeta, "xi": xi, "rho": rho, "residuals": [0.0, 0.0, gap], "consistency_gap": gap}


def shifted_utility(c: float, rho: float) -> float:
    a = 1.0 - rho
    return math.log(c) if a == 0 else math.expm1(a * math.log(c)) / a


def expected_utility(m: dict, rho: float) -> float:
    a = 1.0 - rho
    if a == 0:
        return m["mu_z"]
    return math.expm1(a * m["mu_z"] + 0.5 * a * a * m["sigma2_z"]) / a


def decide(delta: float, eta: float, rho: float, group: str) -> tuple[str, str]:
    """(allocation, label) of the decision table; OpError(2) where undefined."""
    if eta <= 0:
        raise OpError(1, "eta must be positive")
    alloc = "negative" if eta < 1 else "positive" if eta > 1 else "zero"
    if abs(delta) <= TOLERANCE:
        return alloc, "Risk-neutral"
    if alloc == "zero":
        raise OpError(2, "eta = 1 with a nonzero utility gap")
    negative, gap_up = alloc == "negative", delta > 0
    concave = rho > 0
    if group == "one":
        if negative and gap_up:
            return alloc, "Risk-averse"
        if not negative and not gap_up:
            return alloc, "Risk-loving"
        if not negative and gap_up:
            return alloc, "Not enough risk-loving"
        raise OpError(2, "group one: negative allocation, certain < uncertain, concave curve")
    if concave and negative and gap_up:
        return alloc, "Risk-averse"
    if concave and not negative and gap_up:
        return alloc, "Not enough risk-loving"
    raise OpError(2, "group two: no definition matches")


# -- ops ----------------------------------------------------------------------

def parse_argv(argv: list[str]) -> dict:
    opts = {"command": argv[0], "variant": "both", "format": "text", "group": "two",
            "rho": None, "eta": None, "dataset": None}
    it = iter(argv[1:])
    for flag in it:
        key = flag.lstrip("-")
        if key not in opts:
            raise ValueError(f"the oracle does not model {flag}")
        opts[key] = next(it)
    for key in ("rho", "eta"):
        if opts[key] is not None:
            opts[key] = float(opts[key])
    return opts


class Oracle:
    """Expected records for CLI invocations on the given bundled inputs."""

    def __init__(self, bundled_dataset, bundled_projection):
        self.bundled_dataset = bundled_dataset
        self.projected = read_projection(bundled_projection)
        self._data: dict[str, dict] = {}

    def _dataset(self, path) -> dict:
        key = str(path or self.bundled_dataset)
        if key not in self._data:
            self._data[key] = read_dataset(key)
        return self._data[key]

    def rows(self, argv: list[str]) -> int:
        """Data rows of the dataset an invocation reads."""
        return len(self._dataset(parse_argv(argv)["dataset"])["c"])

    def expected(self, argv: list[str]) -> dict:
        """The record for one CLI invocation (argv after `rac`)."""
        opts = parse_argv(argv)
        record = {"command": opts["command"], "format": opts["format"]}
        try:
            record.update(self._payload(opts))
            record["exit"] = 0
        except OpError as exc:
            record["exit"] = exc.code
            record["why"] = str(exc)
        return record

    def _payload(self, opts: dict) -> dict:
        data = self._dataset(opts["dataset"])
        n = len(data["c"])
        end_year = data["start_year"] + n - 1
        if opts["command"] == "ingest":
            return {"years": n, "start_year": data["start_year"], "end_year": end_year,
                    "moments": moments(data)}

        names = ["realized", "projected"] if opts["variant"] == "both" else [opts["variant"]]
        variants = {}
        for name in names:
            dv = data if name == "realized" else dict(data, c=data["c"][:-1] + [self.projected])
            m = moments(dv)
            rho = RHO_ANCHORS[name] if opts["rho"] is None else opts["rho"]
            variants[name] = (dv, m, calibration(m, rho))
        doc = {"calibration": {name: calib for name, (_, _, calib) in variants.items()}}
        if opts["command"] == "calibrate":
            return doc

        investors = ["custom"] if opts["eta"] is not None else ["equity", "risk-free"]
        tables = []
        for investor in investors:
            rows = []
            for name, (dv, m, calib) in variants.items():
                eta = {"custom": opts["eta"], "equity": calib["zeta"],
                       "risk-free": calib["xi"]}[investor]
                rho = calib["rho"]
                certain = shifted_utility(dv["c"][-2], rho)
                uncertain = BETA * eta * expected_utility(m, rho)
                alloc, label = decide(certain - uncertain, eta, rho, opts["group"])
                rows.append({
                    "year_certain": end_year - 1,
                    "year_uncertain": f"{end_year} ({name})",
                    "consumption_certain": dv["c"][-2],
                    "consumption_uncertain": dv["c"][-1],
                    "certain_utility": certain,
                    "uncertain_utility": uncertain,
                    "allocation_text": ALLOCATION_TEXT[alloc],
                    "label_text": label,
                    "rho": rho,
                })
            tables.append([investor, rows])
        doc["tables"] = tables
        return doc


# -- checking -----------------------------------------------------------------

_NUMERIC_ROW = ("consumption_certain", "consumption_uncertain", "certain_utility",
                "uncertain_utility", "rho")
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.(\d+))?(?:[eE]([-+]?\d+))?")


def close(got, want) -> bool:
    got, want = float(got), float(want)
    return abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL


class _Mismatches(list):
    def num(self, where, got, want):
        try:
            ok = close(got, want)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            self.append(f"{where}: got {got!r}, want {want!r}")

    def eq(self, where, got, want):
        if got != want:
            self.append(f"{where}: got {got!r}, want {want!r}")


def check(record: dict, code: int, out: str, err: str) -> list[str]:
    """Mismatches between one op's result and the oracle record."""
    bad = _Mismatches()
    if code != record["exit"]:
        bad.append(f"exit code {code}, want {record['exit']} ({record.get('why', 'success')})")
        return bad
    if code != 0:
        if "error" not in err:
            bad.append("failing op printed no error message")
        return bad
    try:
        if record["format"] == "json":
            _check_json(bad, record, json.loads(out))
        elif record["format"] == "csv" and record["command"] != "ingest":
            _check_csv(bad, record, list(csv.DictReader(io.StringIO(out))))
        else:
            _check_text(bad, record, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        bad.append(f"unparseable {record['format']} output: {type(exc).__name__}: {exc}")
    return bad


def _check_calibration(bad, got: dict, want: dict):
    bad.eq("calibration variants", sorted(got), sorted(want))
    for name, w in want.items():
        g = got[name]
        for key in ("zeta", "xi", "rho", "consistency_gap"):
            bad.num(f"{name}.{key}", g[key], w[key])
        for i, r in enumerate(w["residuals"]):
            bad.num(f"{name}.residuals[{i}]", g["residuals"][i], r)


def _flat_rows(record: dict) -> list[tuple[str, dict]]:
    return [(investor, row) for investor, rows in record["tables"] for row in rows]


def _check_row(bad, where, got: dict, want: dict):
    bad.eq(f"{where}.year_certain", int(got["year_certain"]), want["year_certain"])
    for key in ("year_uncertain", "allocation_text", "label_text"):
        bad.eq(f"{where}.{key}", got[key], want[key])
    for key in _NUMERIC_ROW:
        bad.num(f"{where}.{key}", got[f"{key}_exact"], want[key])


def _check_json(bad, record: dict, doc: dict):
    if record["command"] == "ingest":
        for key in ("years", "start_year", "end_year"):
            bad.eq(key, doc[key], record[key])
        for key, want in record["moments"].items():
            bad.num(f"moments.{key}", doc["moments"][key], want)
        return
    _check_calibration(bad, doc["calibration"], record["calibration"])
    if record["command"] == "classify":
        want = _flat_rows(record)
        got = doc["classifications"]
        bad.eq("row count", len(got), len(want))
        for i, ((investor, w), g) in enumerate(zip(want, got)):
            bad.eq(f"row {i}.investor", g["investor"], investor)
            _check_row(bad, f"row {i}", g, w)


def _check_csv(bad, record: dict, rows: list[dict]):
    if record["command"] == "calibrate":
        got = {}
        for r in rows:
            got[r["variant"]] = {
                **{key: r[key] for key in ("zeta", "xi", "rho", "consistency_gap")},
                "residuals": [r["residual_a"], r["residual_b"], r["residual_c"]],
            }
        _check_calibration(bad, got, record["calibration"])
        return
    want = _flat_rows(record)
    bad.eq("row count", len(rows), len(want))
    for i, ((_, w), g) in enumerate(zip(want, rows)):
        _check_row(bad, f"row {i}", g, w)


def _text_numbers(out: str) -> list[tuple[float, float]]:
    """(value, half a unit in the last printed digit) for each number."""
    found = []
    for mt in _NUMBER.finditer(out):
        decimals = len(mt.group(1) or "")
        exponent = int(mt.group(2) or 0)
        found.append((float(mt.group(0)), 0.5 * 10.0 ** (exponent - decimals)))
    return found


def _check_text(bad, record: dict, out: str):
    """Each expected number must appear, in order, to its printed precision."""
    if record["command"] == "ingest":
        m = record["moments"]
        want = [record["years"], record["start_year"], record["end_year"], m["mean_x"],
                m["mu_x"], m["sigma2_x"], m["mean_Re"], m["mean_Rf"], m["mu_z"], m["sigma2_z"]]
    elif record["command"] == "calibrate":
        want = []
        for c in record["calibration"].values():
            want += [c["zeta"], c["xi"], c["rho"], *c["residuals"], c["consistency_gap"]]
    else:
        want = []
        for _, row in _flat_rows(record):
            want += [row["year_certain"], int(row["year_uncertain"].split()[0])]
            want += [row[key] for key in _NUMERIC_ROW]
        labels = re.findall("|".join(LABELS), out)
        bad.eq("label sequence", labels, [row["label_text"] for _, row in _flat_rows(record)])
    numbers = _text_numbers(out)
    pos = 0
    for i, w in enumerate(want):
        while pos < len(numbers):
            value, half_ulp = numbers[pos]
            pos += 1
            if abs(value - w) <= half_ulp * (1 + 1e-9) + RTOL * abs(w) + ATOL:
                break
        else:
            bad.append(f"text value {i} ({w!r}) not printed in order")
            return
