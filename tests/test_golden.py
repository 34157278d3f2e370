"""Each command's exact stdout on the bundled data, byte for byte.

tests/golden/NAME.out holds what `rac ARGS` printed for the case NAME below.
A change that alters a report edits the file by hand and says why; the files
are never regenerated to make a failing test pass. Each case also runs as
its own `python -S -m rac.cli` process, so a phase module that a command
fails to load shows even when that command is the first one run. The same
cases also run under python3.10, python3.12 and python3.13, each where it
is installed, and there the package must also keep its lazy-loading contract.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rac.cli import ENV_DATASET, main
from test_public_api import lazy_probe

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    **{
        f"{command}_{fmt}": [command, "--format", fmt]
        for command in ("ingest", "calibrate", "classify")
        for fmt in ("text", "csv", "json")
    },
    "classify_eta_text": ["classify", "--eta", "0.9", "--format", "text"],
    "calibrate_projected_csv": ["calibrate", "--variant", "projected", "--format", "csv"],
    "classify_eta_json": ["classify", "--eta", "0.9", "--format", "json"],
    "classify_projected_csv": ["classify", "--variant", "projected", "--format", "csv"],
    "calibrate_rho2_text": ["calibrate", "--rho", "2", "--format", "text"],
}


@pytest.mark.parametrize("name", CASES)
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv(ENV_DATASET, raising=False)
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_fresh_process_matches_golden(name, tmp_path):
    env = {key: value for key, value in os.environ.items() if key != ENV_DATASET}
    env["PYTHONPATH"] = str(SRC)
    cold = subprocess.run(
        [sys.executable, "-S", "-m", "rac.cli", *CASES[name]],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert (cold.returncode, cold.stderr) == (0, b"")
    assert cold.stdout == (GOLDEN / f"{name}.out").read_bytes()


# Prints a line before it imports rac, so a run that prints nothing is an
# interpreter that did not start; then {name: (code, stdout, stderr)}.
_RUN_CASES = """\
import contextlib, io, sys
print(sys.version.split()[0])
import rac.cli
results = {}
for name, argv in CASES.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rac.cli.main(argv)
    results[name] = (code, out.getvalue(), err.getvalue())
print(ascii(results))
"""


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_stdout_matches_golden_on_other_interpreters(python, tmp_path):
    executable = shutil.which(python)
    if executable is None:
        pytest.skip(f"{python} is not installed")
    env = {key: value for key, value in os.environ.items() if key != ENV_DATASET}
    env["PYTHONPATH"] = str(SRC)
    probe = subprocess.run(
        [executable, "-S", "-c", f"CASES = {CASES!r}\n{_RUN_CASES}"],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if probe.returncode != 0 and not probe.stdout:
        first_line = probe.stderr.partition("\n")[0]
        pytest.skip(f"{python} did not start: {first_line}")
    version, results = probe.stdout.split("\n", 1)
    assert (probe.returncode, probe.stderr) == (0, ""), version
    assert lazy_probe(executable, tmp_path) == (0, "ok\n", ""), version
    results = ast.literal_eval(results)
    assert list(results) == list(CASES)
    for name, (code, out, err) in results.items():
        assert (code, err) == (0, ""), (version, name)
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), (version, name)
