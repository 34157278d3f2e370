"""The dataset generator still checks out against the frozen reference.

tools/make_reference_dataset.py recomputes every published-value window
through the package. Running its verify_and_freeze on the two bundled files
(it only reads them) keeps a change to the package's API from silently
breaking the generator.
"""

import math
import runpy
from pathlib import Path

import pytest

from _frozen_reference import FROZEN, PROJECTED_CONSUMPTION

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "rac" / "data"


def _flat(block: dict) -> dict:
    """A frozen variant block with its moments lifted to the top level."""
    return {**block["moments"], **{k: v for k, v in block.items() if k != "moments"}}


def test_generator_reproduces_frozen_reference():
    # run_path compiles the script without caching its bytecode and, under a
    # name other than __main__, does not run main(), which writes the files
    tool = runpy.run_path(str(ROOT / "tools" / "make_reference_dataset.py"))
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
