"""Tabular rendering of classification results.

render_table writes text, CSV, or JSON. Displayed numbers are fixed at six
decimal places; CSV and JSON additionally carry full-precision values under
`*_exact` columns / keys so that parse_csv / parse_json reproduce the rows
field for field. export_run wraps a calibration block and the rows into the
machine-readable run document.
"""

import csv
import io
from enum import Enum
from typing import NamedTuple

from .calibration import CalibrationResult
from .errors import EmptyReport


class ReportFormat(Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"


class ReportRow(NamedTuple):
    year_certain: int
    year_uncertain: str
    consumption_certain: float
    consumption_uncertain: float
    certain_utility: float
    uncertain_utility: float
    allocation_text: str
    label_text: str
    rho: float


_COLUMNS = ReportRow._fields
# This module does not postpone annotations, so a field's annotation is the
# type itself (under postponed evaluation NamedTuple would hold a ForwardRef).
_NUMERIC = tuple(c for c in _COLUMNS if ReportRow.__annotations__[c] is float)
_HEADERS = (
    "certain year",
    "uncertain year",
    "c (certain)",
    "c (uncertain)",
    "u certain",
    "u uncertain",
    "allocation",
    "attitude",
    "rho",
)


def _display(r: ReportRow) -> dict:
    """Column -> display value: numeric fields at six decimals, the rest as stored."""
    return {c: f"{getattr(r, c):.6f}" if c in _NUMERIC else getattr(r, c) for c in _COLUMNS}


def render_table(rows: list[ReportRow], fmt: ReportFormat = ReportFormat.TEXT) -> str:
    """Render `rows` in the requested format. Raises EmptyReport on []."""
    if not rows:
        raise EmptyReport("no rows to render")
    if fmt is ReportFormat.TEXT:
        return _render_text(rows)
    if fmt is ReportFormat.CSV:
        return _render_csv(rows)
    return json_text([_row_to_json(r) for r in rows])


def json_text(doc) -> str:
    """`doc` as the indented JSON text every `--format json` document uses."""
    import json  # only JSON output pays for loading json

    return json.dumps(doc, indent=2) + "\n"


def _render_text(rows: list[ReportRow]) -> str:
    table = [list(_HEADERS)] + [[str(v) for v in _display(r).values()] for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(_HEADERS))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*_COLUMNS, *(f"{c}_exact" for c in _NUMERIC)])
    for r in rows:
        writer.writerow([*_display(r).values(), *(repr(getattr(r, c)) for c in _NUMERIC)])
    return buf.getvalue()


def _row_to_json(r: ReportRow) -> dict:
    doc = _display(r)
    doc.update((f"{c}_exact", getattr(r, c)) for c in _NUMERIC)
    return doc


def _row_from_record(rec: dict) -> ReportRow:
    values = {c: float(rec[f"{c}_exact"]) if c in _NUMERIC else rec[c] for c in _COLUMNS}
    values["year_certain"] = int(values["year_certain"])
    return ReportRow(**values)


def parse_csv(text: str) -> list[ReportRow]:
    """Inverse of render_table(..., CSV): exact fields reconstruct the rows."""
    reader = csv.DictReader(io.StringIO(text))
    return [_row_from_record(rec) for rec in reader]


def parse_json(text: str) -> list[ReportRow]:
    """Inverse of render_table(..., JSON)."""
    import json

    return [_row_from_record(rec) for rec in json.loads(text)]


def calibration_block(c: CalibrationResult) -> dict:
    return {
        "zeta": c.factors.zeta,
        "xi": c.factors.xi,
        "rho": c.rho,
        "residuals": list(c.residuals),
        "consistency_gap": c.consistency_gap,
    }


def export_run(
    calibrations: dict[str, CalibrationResult],
    tables: list[tuple[str, list[ReportRow]]],
) -> str:
    """Full-run JSON document.

    `calibration` maps each requested variant to its {zeta, xi, rho,
    residuals, consistency_gap} block (a single-variant run has one entry);
    `classifications` is a flat array of row objects, each tagged with the
    investor whose table it came from.
    """
    rows_out = []
    for investor, rows in tables:
        for r in rows:
            rec = {"investor": investor}
            rec.update(_row_to_json(r))
            rows_out.append(rec)
    doc = {
        "calibration": {
            name: calibration_block(c) for name, c in calibrations.items()
        },
        "classifications": rows_out,
    }
    return json_text(doc)
