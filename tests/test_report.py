"""Report rendering: formats, round-trips, and the run export document."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rac import (
    CalibrationResult,
    ReportFormat,
    ReportRow,
    SufficiencyFactors,
    calibration_block,
    export_run,
    parse_csv,
    parse_json,
    render_table,
)
from rac.errors import EmptyReport


def equity_rows():
    return [
        ReportRow(
            year_certain=1977,
            year_uncertain="1978 (realized)",
            consumption_certain=3340.0,
            consumption_uncertain=3450.0,
            certain_utility=7.103787229460406,
            uncertain_utility=6.1927062321613535,
            allocation_text="allocates extra negative utility",
            label_text="Risk-averse",
            rho=1.033526,
        ),
        ReportRow(
            year_certain=1977,
            year_uncertain="1978 (projected)",
            consumption_certain=3340.0,
            consumption_uncertain=3430.2174260222014,
            certain_utility=7.827697381681651,
            uncertain_utility=6.7607851326903345,
            allocation_text="allocates extra negative utility",
            label_text="Risk-averse",
            rho=1.0089,
        ),
    ]


def riskfree_rows():
    return [
        ReportRow(
            year_certain=1977,
            year_uncertain="1978 (realized)",
            consumption_certain=3340.0,
            consumption_uncertain=3450.0,
            certain_utility=7.103787229460406,
            uncertain_utility=6.563727189205339,
            allocation_text="allocates extra positive utility",
            label_text="Not enough risk-loving",
            rho=1.033526,
        )
    ]


def sample_calibration():
    return CalibrationResult(
        factors=SufficiencyFactors(0.9617455534534737, 1.0193662030205315),
        rho=1.033526,
        residuals=(0.0, 0.0, -4.966137714373237e-06),
        consistency_gap=-4.966137714373237e-06,
    )


# -- rendering ----------------------------------------------------------------

def test_text_contains_table_values():
    text = render_table(equity_rows(), ReportFormat.TEXT)
    assert "7.103787" in text
    assert "Risk-averse" in text
    assert "1977" in text and "1978 (projected)" in text


def test_text_riskfree_label():
    text = render_table(riskfree_rows(), ReportFormat.TEXT)
    assert "Not enough risk-loving" in text


def test_rendering_is_deterministic():
    rows = equity_rows()
    for fmt in ReportFormat:
        assert render_table(rows, fmt) == render_table(rows, fmt)


def test_empty_report():
    for fmt in ReportFormat:
        with pytest.raises(EmptyReport):
            render_table([], fmt)


def test_six_decimal_display():
    row = ReportRow(2000, "2001", 1.23456789, 2.0, 3.0, 4.0, "a", "b", 5.0)
    text = render_table([row], ReportFormat.TEXT)
    assert "1.234568" in text
    assert "1.23456789" not in text
    csv_text = render_table([row], ReportFormat.CSV)
    assert "1.234568" in csv_text
    assert repr(1.23456789) in csv_text
    doc = json.loads(render_table([row], ReportFormat.JSON))
    assert doc[0]["consumption_certain"] == "1.234568"
    assert doc[0]["consumption_certain_exact"] == 1.23456789


# -- round-trips --------------------------------------------------------------

def test_csv_round_trip():
    rows = equity_rows() + riskfree_rows()
    assert parse_csv(render_table(rows, ReportFormat.CSV)) == rows


def test_json_round_trip():
    rows = equity_rows() + riskfree_rows()
    assert parse_json(render_table(rows, ReportFormat.JSON)) == rows


finite = st.floats(allow_nan=False, allow_infinity=False)
labels = st.sampled_from(
    ["Risk-averse", "Risk-loving", "Not enough risk-loving", "with, comma", 'with "quote"']
)


@given(
    year=st.integers(min_value=1800, max_value=2200),
    tag=labels,
    nums=st.lists(finite, min_size=5, max_size=5),
)
def test_round_trip_random_rows(year, tag, nums):
    row = ReportRow(
        year_certain=year,
        year_uncertain=f"{year + 1} (x)",
        consumption_certain=nums[0],
        consumption_uncertain=nums[1],
        certain_utility=nums[2],
        uncertain_utility=nums[3],
        allocation_text=tag,
        label_text=tag,
        rho=nums[4],
    )
    assert parse_csv(render_table([row], ReportFormat.CSV)) == [row]
    assert parse_json(render_table([row], ReportFormat.JSON)) == [row]


# -- run export ---------------------------------------------------------------

def test_calibration_block_fields():
    block = calibration_block(sample_calibration())
    assert block == {
        "zeta": 0.9617455534534737,
        "xi": 1.0193662030205315,
        "rho": 1.033526,
        "residuals": [0.0, 0.0, -4.966137714373237e-06],
        "consistency_gap": -4.966137714373237e-06,
    }


def test_export_run_document():
    doc_text = export_run(
        {"realized": sample_calibration()},
        [("equity", equity_rows()), ("risk-free", riskfree_rows())],
    )
    doc = json.loads(doc_text)
    assert set(doc) == {"calibration", "classifications"}
    assert set(doc["calibration"]) == {"realized"}
    block = doc["calibration"]["realized"]
    assert set(block) == {"zeta", "xi", "rho", "residuals", "consistency_gap"}
    assert len(block["residuals"]) == 3
    rows = doc["classifications"]
    assert [r["investor"] for r in rows] == ["equity", "equity", "risk-free"]
    assert rows[0]["label_text"] == "Risk-averse"
    assert rows[2]["label_text"] == "Not enough risk-loving"
    assert rows[0]["certain_utility"] == "7.103787"
    assert rows[0]["certain_utility_exact"] == 7.103787229460406
