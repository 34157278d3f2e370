"""Shared fixtures: the bundled dataset, its projected variant, and moments;
the two CSV headers; and serialize_dataset, which writes a dataset back to CSV."""

import csv
import io

import pytest
from hypothesis import HealthCheck, settings

from rac import (
    compute_moments,
    load_bundled_dataset,
    load_bundled_projection,
    projected_consumption,
    with_final_consumption,
)

# the two CSV headers, as the files carry them
HEADER = "year,consumption_per_capita,equity_gross_return,riskfree_gross_return"
PROJECTION_HEADER = "nondurables_bn,services_bn,gnp_deflator,population"

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
    return with_final_consumption(bundled, projected_consumption(*load_bundled_projection()))


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
    writer.writerow(HEADER.split(","))
    rows = zip(d.consumption, d.equity_return, d.riskfree_return)
    for year, values in enumerate(rows, d.start_year):
        writer.writerow([year, *map(repr, values)])
    return buf.getvalue().encode("utf-8")
