"""The text of every report rac prints, one function per command, each of
the Run that cli.run returns: ingest_report (JSON, or text for both `text`
and `csv`), calibration_report (text, CSV or JSON) and classification_report
(a titled text table per investor, one CSV table, or the export_run document
as JSON).

A classification row's columns are stated once, in _COLUMNS, and its
investors once, in INVESTORS. Displayed numbers are fixed at six decimal
places; _encode, the one row encoder of CSV and JSON, adds each float's
full-precision value under a `*_exact` key, so that parse_csv and parse_json
reproduce the rows field for field.
"""

import csv
import io
from collections import namedtuple
from enum import Enum

from .errors import InputError


class ReportFormat(Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"


# Each column of a report row, in order: its field, its text header and its
# type. A float is shown at six decimals, and carried exactly under
# `<field>_exact` in CSV and JSON rows.
_COLUMNS = (
    ("year_certain", "certain year", int),
    ("year_uncertain", "uncertain year", str),
    ("consumption_certain", "c (certain)", float),
    ("consumption_uncertain", "c (uncertain)", float),
    ("certain_utility", "u certain", float),
    ("uncertain_utility", "u uncertain", float),
    ("allocation_text", "allocation", str),
    ("label_text", "attitude", str),
    ("rho", "rho", float),
)
ReportRow = namedtuple("ReportRow", [field for field, _, _ in _COLUMNS])
_EXACT = {field: f"{field}_exact" for field, _, kind in _COLUMNS if kind is float}
# investor -> (the title of its text table, the calibrated factor that is its
# eta); --eta replaces the calibrated investors by the one "custom" investor
INVESTORS = {
    "equity": ("Equity investors (eta = zeta)", "zeta"),
    "risk-free": ("Risk-free investors (eta = xi)", "xi"),
    "custom": ("Custom eta investors", None),
}
# each AllocationSign's value -> its text
_ALLOCATION_TEXT = {
    "negative": "allocates extra negative utility",
    "positive": "allocates extra positive utility",
    "zero": "allocates no extra utility",
}


def report_row(variant: str, d, final: float, rho: float, cmp, attitude) -> ReportRow:
    """The row of `d`'s last year with consumption `final`, the variant's:
    `cmp` and `attitude` are classify_pipeline's at `rho`."""
    return ReportRow(
        year_certain=d.end_year - 1,
        year_uncertain=f"{d.end_year} ({variant})",
        consumption_certain=d.consumption[-2],
        consumption_uncertain=final,
        certain_utility=cmp.certain,
        uncertain_utility=cmp.uncertain,
        allocation_text=_ALLOCATION_TEXT[attitude.allocation.value],
        label_text=attitude.label.value,
        rho=rho,
    )


def _encode(r: ReportRow) -> dict:
    """Key -> value: each column's display value (a float at six decimals, the
    rest as stored), then each float column's exact value."""
    shown = {field: f"{v:.6f}" if field in _EXACT else v for field, v in zip(r._fields, r)}
    return {**shown, **{key: getattr(r, field) for field, key in _EXACT.items()}}


def render_table(rows: list[ReportRow], fmt: ReportFormat = ReportFormat.TEXT) -> str:
    """Render `rows` as text or CSV; [] renders the header alone."""
    if not isinstance(fmt, ReportFormat):
        raise InputError(f"fmt must be a ReportFormat, got {fmt!r}")
    if fmt is ReportFormat.JSON:
        raise InputError(f"render_table writes text or CSV, not {fmt}; use export_run for JSON")
    return _render_text(rows) if fmt is ReportFormat.TEXT else _render_csv(rows)


def json_text(doc) -> str:
    """`doc` as the indented JSON text every `--format json` document uses."""
    import json  # only JSON output pays for loading json

    return json.dumps(doc, indent=2) + "\n"


def _render_text(rows: list[ReportRow]) -> str:
    # a row's encoding begins with its display values, in column order
    table = [[header for _, header, _ in _COLUMNS]]
    table += [[str(v) for v in _encode(r).values()][: len(_COLUMNS)] for r in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[ReportRow]) -> str:
    # csv.writer writes a float as str, which is its repr: the exact value
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*ReportRow._fields, *_EXACT.values()])
    writer.writerows(_encode(r).values() for r in rows)
    return buf.getvalue()


def _row_from_record(rec: dict) -> ReportRow:
    return ReportRow(*(kind(rec[_EXACT.get(field, field)]) for field, _, kind in _COLUMNS))


def parse_csv(text: str) -> list[ReportRow]:
    """Inverse of render_table(..., CSV): exact fields reconstruct the rows."""
    reader = csv.DictReader(io.StringIO(text))
    return [_row_from_record(rec) for rec in reader]


def parse_json(text: str) -> list[ReportRow]:
    """The rows of an export_run document (`rac classify --format json`), in
    order; exact fields reconstruct them, and the investor tag is dropped."""
    import json

    return [_row_from_record(rec) for rec in json.loads(text)["classifications"]]


def _calibration_block(c) -> dict:
    """A CalibrationResult's JSON block."""
    return {
        "zeta": c.factors.zeta,
        "xi": c.factors.xi,
        "rho": c.rho,
        "residuals": list(c.residuals),
        "consistency_gap": c.consistency_gap,
    }


def _calibration_document(calibrations: dict) -> dict:
    return {"calibration": {name: _calibration_block(c) for name, c in calibrations.items()}}


def export_run(calibrations: dict, tables: list[tuple[str, list[ReportRow]]]) -> str:
    """Full-run JSON document.

    `calibration` maps each requested variant to its {zeta, xi, rho,
    residuals, consistency_gap} block (a single-variant run has one entry);
    `classifications` is a flat array of row objects, each tagged with the
    investor whose table it came from.
    """
    rows_out = [{"investor": investor, **_encode(r)} for investor, rows in tables for r in rows]
    return json_text({**_calibration_document(calibrations), "classifications": rows_out})


def ingest_report(run, fmt: ReportFormat) -> str:
    """The span of the run's dataset and its one variant's moments."""
    d, ((_, _, m),) = run.dataset, run.variants
    if fmt is ReportFormat.JSON:
        return json_text({
            "years": len(d.consumption),
            "start_year": d.start_year,
            "end_year": d.end_year,
            "moments": m._asdict(),
        })
    return (
        f"{len(d.consumption)} years, {d.start_year}-{d.end_year}\n"
        f"mean gross consumption growth {m.mean_x:.6f}\n"
        f"log-growth mean {m.mu_x:.6f}, variance {m.sigma2_x:.8f}\n"
        f"mean equity gross return {m.mean_Re:.6f}\n"
        f"mean risk-free gross return {m.mean_Rf:.6f}\n"
        f"log-level mean {m.mu_z:.6f}, variance {m.sigma2_z:.6f}\n"
    )


def calibration_report(run, fmt: ReportFormat) -> str:
    if fmt is ReportFormat.JSON:
        return json_text(_calibration_document(run.calibrations))
    if fmt is ReportFormat.CSV:
        lines = ["variant,zeta,xi,rho,residual_a,residual_b,residual_c,consistency_gap\n"]
        for name, c in run.calibrations.items():
            values = (c.factors.zeta, c.factors.xi, c.rho, *c.residuals, c.consistency_gap)
            lines.append(",".join([name, *map(repr, values)]) + "\n")
        return "".join(lines)
    lines = []
    for name, c in run.calibrations.items():
        residuals = " ".join(f"{r:.3e}" for r in c.residuals)
        lines.append(
            f"{name}: zeta {c.factors.zeta:.6f}, xi {c.factors.xi:.6f}, rho {c.rho:.6f}\n"
            f"  residuals {residuals}, consistency gap {c.consistency_gap:.3e}\n"
        )
    return "".join(lines)


def classification_report(run, fmt: ReportFormat) -> str:
    if fmt is ReportFormat.JSON:
        return export_run(run.calibrations, run.tables)
    if fmt is ReportFormat.CSV:
        return render_table([row for _, rows in run.tables for row in rows], ReportFormat.CSV)
    return "\n".join(
        INVESTORS[investor][0] + "\n" + render_table(rows, ReportFormat.TEXT)
        for investor, rows in run.tables
    )
