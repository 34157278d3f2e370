"""The dataset generator still checks out against the frozen reference.

tools/make_reference_dataset.py recomputes every published-value window
through the package. Running its verify_and_freeze on the texts of the two
bundled files keeps a change to the package's API from silently breaking
the generator. Its three writers must reproduce the bundled files and the
frozen reference byte for byte from the values they hold. The generator
also builds both files afresh, in memory, and each cell must be within one
cent of the bundled one; a failed verification writes no file.
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
        (DATA / "mehra_prescott_1889_1978.csv").read_text(encoding="utf-8"),
        (DATA / "projection_1978.csv").read_text(encoding="utf-8"),
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


def test_generator_writer_reproduces_frozen_reference(tool, tmp_path):
    path = tmp_path / "_frozen_reference.py"
    tool["emit_frozen"]({"projected_consumption": PROJECTED_CONSUMPTION, **FROZEN}, path)
    assert path.read_bytes() == (ROOT / "tests" / "_frozen_reference.py").read_bytes()


def test_generator_writes_nothing_when_verification_fails(tool, tmp_path, monkeypatch):
    # main() verifies the texts in memory before it writes any of the files
    bundled = (DATA / "mehra_prescott_1889_1978.csv").read_text(encoding="utf-8")
    corrupted = bundled.replace("\n1889,746.10,", "\n1889,9746.10,")
    assert corrupted != bundled
    projection = (DATA / "projection_1978.csv").read_text(encoding="utf-8")
    main = tool["main"]
    monkeypatch.setitem(main.__globals__, "ROOT", tmp_path)
    monkeypatch.setitem(main.__globals__, "generate", lambda: (corrupted, projection))
    with pytest.raises(SystemExit) as info:
        main()
    assert str(info.value) == "realized: consistency gap -1.764e-02 outside window"
    assert list(tmp_path.iterdir()) == []


def test_generator_regenerates_bundled_files(tool):
    # the least-squares fit depends on the scipy and numpy versions, so the
    # cells may drift; the bundled files are never rewritten to follow them
    differ, beyond_a_cent = [], []
    for name, text in zip(("mehra_prescott_1889_1978.csv", "projection_1978.csv"),
                          tool["generate"]()):
        bundled = (DATA / name).read_text(encoding="utf-8").splitlines()
        got = text.splitlines()
        assert (len(got), got[0]) == (len(bundled), bundled[0]), name
        header = bundled[0].split(",")
        for want_row, got_row in zip(bundled[1:], got[1:]):
            want_row, got_row = want_row.split(","), got_row.split(",")
            for column, want, value in zip(header, want_row, got_row):
                if value != want:
                    cell = f"{name} {header[0]} {want_row[0]}, {column}: {value} against {want}"
                    differ.append(cell)
                    if not abs(float(value) - float(want)) <= 0.01 + 1e-9:
                        beyond_a_cent.append(cell)
    assert not beyond_a_cent, "cells that differ:\n" + "\n".join(differ)
