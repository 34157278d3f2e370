"""Each command's exact stdout on the bundled data, byte for byte.

tests/golden/NAME.out holds what `rac ARGS` printed for the case NAME below.
A change that alters a report edits the file by hand and says why; the files
are never regenerated to make a failing test pass.
"""

from pathlib import Path

import pytest

from rac.cli import ENV_DATASET, main

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    **{
        f"{command}_{fmt}": [command, "--format", fmt]
        for command in ("ingest", "calibrate", "classify")
        for fmt in ("text", "csv", "json")
    },
    "classify_eta_text": ["classify", "--eta", "0.9", "--format", "text"],
    "calibrate_projected_csv": ["calibrate", "--variant", "projected", "--format", "csv"],
}


@pytest.mark.parametrize("name", CASES)
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv(ENV_DATASET, raising=False)
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
