"""Shared fixtures: the bundled dataset, its projected variant, and moments;
and serialize_dataset, which writes a dataset back to CSV."""

import csv
import io

import pytest
from hypothesis import HealthCheck, settings

from rac import (
    compute_moments,
    load_bundled_dataset,
    load_bundled_projection,
    project,
    with_final_consumption,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def bundled():
    return load_bundled_dataset()


@pytest.fixture(scope="session")
def projected_dataset(bundled):
    return with_final_consumption(bundled, project(load_bundled_projection()))


@pytest.fixture(scope="session")
def variant_datasets(bundled, projected_dataset):
    return {"realized": bundled, "projected": projected_dataset}


@pytest.fixture(scope="session")
def variant_moments(variant_datasets):
    return {name: compute_moments(d) for name, d in variant_datasets.items()}


def serialize_dataset(d):
    """CSV bytes for `d`, shortest-repr floats (parse/serialize round-trips)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["year", "consumption_per_capita", "equity_gross_return", "riskfree_gross_return"])
    for i, year in enumerate(d.consumption.years):
        writer.writerow(
            [
                year,
                repr(d.consumption.values[i]),
                repr(d.equity_return.values[i]),
                repr(d.riskfree_return.values[i]),
            ]
        )
    return buf.getvalue().encode("utf-8")
