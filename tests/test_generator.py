"""The dataset generator still checks out against the frozen reference.

tools/make_reference_dataset.py recomputes every published-value window
through the package. Running its verify_and_freeze on the two bundled files
(it only reads them) keeps a change to the package's API from silently
breaking the generator. Its two CSV writers must reproduce the bundled
files byte for byte from the values they hold.
"""

import math
import runpy
from pathlib import Path

import pytest

from rac import load_bundled_dataset

from _frozen_reference import FROZEN, PROJECTED_CONSUMPTION

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "rac" / "data"


def _flat(block: dict) -> dict:
    """A frozen variant block with its moments lifted to the top level."""
    return {**block["moments"], **{k: v for k, v in block.items() if k != "moments"}}


@pytest.fixture(scope="module")
def tool():
    # run_path compiles the script without caching its bytecode and, under a
    # name other than __main__, does not run main(), which writes the files
    return runpy.run_path(str(ROOT / "tools" / "make_reference_dataset.py"))


def test_generator_reproduces_frozen_reference(tool):
    frozen = tool["verify_and_freeze"](
        DATA / "mehra_prescott_1889_1978.csv", DATA / "projection_1978.csv"
    )
    assert frozen.keys() == {"projected_consumption", *FROZEN}
    assert math.isclose(frozen["projected_consumption"], PROJECTED_CONSUMPTION, rel_tol=1e-9)
    for name, block in FROZEN.items():
        got, want = _flat(frozen[name]), _flat(block)
        assert got.keys() == want.keys(), name
        for key, value in want.items():
            assert math.isclose(got[key], value, rel_tol=1e-9), (name, key)


def test_generator_writers_reproduce_bundled_files(tool):
    d = load_bundled_dataset()
    years = range(d.start_year, d.end_year + 1)
    columns = (d.consumption, d.equity_return, d.riskfree_return)
    dataset_csv = tool["format_dataset_csv"](years, *columns)
    assert dataset_csv.encode("utf-8") == (DATA / "mehra_prescott_1889_1978.csv").read_bytes()
    projection_csv = tool["format_projection_csv"](tool["PROJECTION_ROW"])
    assert projection_csv.encode("utf-8") == (DATA / "projection_1978.csv").read_bytes()
