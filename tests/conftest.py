"""Shared fixtures: the bundled dataset, its projected variant, and moments;
files under tmp_path (a copy of the bundled series, a gapped and a zero-gap
one); the two CSV headers, csv_text, and the gapped and zero-gap texts;
cmp_with, a hand-built utility comparison; and serialize_dataset, which
writes a dataset back to CSV."""

import csv
import io

import pytest
from hypothesis import HealthCheck, settings

from rac import (
    UtilityComparison,
    compute_moments,
    load_bundled_dataset,
    load_bundled_projection,
    projected_consumption,
    with_final_consumption,
)

# the two CSV headers, as the files carry them
HEADER = "year,consumption_per_capita,equity_gross_return,riskfree_gross_return"
PROJECTION_HEADER = "nondurables_bn,services_bn,gnp_deflator,population"


def csv_text(*rows, header=HEADER):
    """A CSV file's text: the header, then each row, one line each."""
    return "\n".join([header, *rows]) + "\n"


# 1900-1909 without 1905
GAPPED = csv_text(*(f"{1900 + i},{100.0 + i},1.05,1.01" for i in range(10) if i != 5))
# Consumption doubling every year: all log growths are exactly ln 2, so the
# consistency gap is exactly zero.
DEGENERATE = csv_text(*(f"{1900 + i},{100.0 * 2 ** i},1.05,1.01" for i in range(6)))

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


@pytest.fixture()
def bundled_copy(tmp_path):
    path = tmp_path / "copy.csv"
    path.write_bytes(serialize_dataset(load_bundled_dataset()))
    return path


@pytest.fixture()
def gapped_file(tmp_path):
    path = tmp_path / "gapped.csv"
    path.write_text(GAPPED)
    return path


@pytest.fixture()
def degenerate_file(tmp_path):
    path = tmp_path / "degenerate.csv"
    path.write_text(DEGENERATE)
    return path


def cmp_with(certain, uncertain, eta):
    """A UtilityComparison built by hand, at beta 0.99 and expected utility 0."""
    return UtilityComparison(certain, uncertain, eta, 0.99, 0.0)


def serialize_dataset(d):
    """CSV bytes for `d`, shortest-repr floats (parse/serialize round-trips)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER.split(","))
    rows = zip(d.consumption, d.equity_return, d.riskfree_return)
    for year, values in enumerate(rows, d.start_year):
        writer.writerow([year, *map(repr, values)])
    return buf.getvalue().encode("utf-8")
