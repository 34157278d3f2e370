"""Each command's exact stdout on the bundled data, byte for byte, and a
digest of every other run the suite's grids make.

tests/golden/NAME.out holds what `rac ARGS` printed for the case NAME in
_runs.CASES. Each case runs as its own `python -S -m rac.cli` process and
is compared with its file, so a phase module that a command fails to load
shows even when that command is the first one run.

tests/golden/outputs.sha256 holds one line per run of a wider set: the
sweep, warm and config grids, the golden cases, the edge argvs that return
an exit code, and error paths on files written under fixed names. Each line
is the digest of the run's exit code, stdout and stderr, then the run's
argv. The digest test runs all of them in process, once in order and once
from an empty store each, so it is the in-process check of the golden cases
too. On a mismatch it prints the lines to paste.
The sweep also runs twice in one process, the second time in reverse, so a
calibration or row one point kept and another reuses must be that point's.

A change that alters output edits these files by hand and says why; they are
never regenerated to make a failing test pass. The cases and the digest runs
also run under python3.10, python3.12 and python3.13, each where it is
installed, and there the package must also keep its lazy-loading contract.
"""

import ast
import hashlib
import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from unittest import mock

import pytest

from _runs import (CASES, GOLDEN, SRC, TESTS, _CONFIG_GRID, _EDGE_ARGV, _WARM_GRID, _clear_caches,
                   _outcome, _sweep_grid, lazy_probe)
from conftest import HEADER, PROJECTION_HEADER
from rac.cli import ENV_DATASET


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


DIGEST = GOLDEN / "outputs.sha256"


@pytest.fixture()
def digest_runs(tmp_path, gapped_file, degenerate_file, bundled_copy):
    """Each run the digest pins, as (environment, argv), in the order it runs,
    with every file it reads written into tmp_path under a fixed name."""
    sweep = _sweep_grid()
    configs = []
    for i, text in enumerate(_CONFIG_GRID):
        configs.append(f"config{i}.json")
        (tmp_path / configs[-1]).write_text(text)
    (tmp_path / "not-utf8.csv").write_bytes(b"\xff\xfe" + HEADER.encode() + b"\n1900,100,1.05,1.01\n")
    (tmp_path / "projection.csv").write_text(f"{PROJECTION_HEADER}\n515.4,613.7,150,219000000\n")
    argvs = [
        *sweep,
        *(argv for argv in _WARM_GRID if argv not in sweep),
        *([command, "--format", fmt, "--config", config] for config in configs
          for command in ("ingest", "calibrate", "classify") for fmt in ("text", "csv", "json")),
        *CASES.values(),
        # help and usage errors end in SystemExit; their text depends on the
        # terminal width and the Python version, and test_cli pins them
        *(argv for argv in _EDGE_ARGV if _outcome(argv)[0][0] == "return"),
        ["ingest", "--dataset", gapped_file.name],
        ["calibrate", "--dataset", degenerate_file.name],
        ["calibrate", "--dataset", "not-utf8.csv"],
        ["ingest", "--dataset", "missing.csv"],
        ["classify", "--projection", "projection.csv", "--format", "json"],
        # the second run finds the series the first one kept
        ["calibrate", "--dataset", bundled_copy.name],
        ["classify", "--dataset", bundled_copy.name],
    ]
    return [({}, argv) for argv in argvs] + [({ENV_DATASET: bundled_copy.name}, ["ingest"])]


def _digest_lines(runs, results):
    """{line's argv: line} for each run and its (code, stdout, stderr)."""
    lines = {}
    for (env, argv), (code, out, err) in zip(runs, results, strict=True):
        # the hash rule: json.dumps is ASCII, so no platform encoding enters it
        digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
        words = shlex.join([*(f"{key}={value}" for key, value in env.items()), *argv])
        assert words not in lines, words
        lines[words] = f"{digest}  {words}"
    return lines


def _check_digest(got):
    """Fail with each changed, missing and stale line unless `got` is the file."""
    lines = DIGEST.read_text(encoding="ascii").splitlines()
    want = {line.partition("  ")[2]: line for line in lines}
    assert len(want) == len(lines), f"an argv appears twice in {DIGEST.name}"
    report = {
        "changed (new lines)": [got[key] for key in got if key in want and want[key] != got[key]],
        "missing from the file": [got[key] for key in got if key not in want],
        "stale (no longer run)": [want[key] for key in want if key not in got],
    }
    report = {title: lines for title, lines in report.items() if lines}
    if report:
        pytest.fail(f"{DIGEST.name} differs from the runs:\n" + "".join(
            f"\n{title}:\n" + "".join(f"{line}\n" for line in lines) for title, lines in report.items()
        ), pytrace=False)


def _results(outcomes):
    """The (exit code, stdout, stderr) of each _outcome, all of which returned."""
    assert {how for (how, _), _, _ in outcomes} == {"return"}
    return [(code, out, err) for (_, code), out, err in outcomes]


def test_outputs_match_digest(digest_runs, tmp_path, monkeypatch):
    # two passes: in the first each run meets what the runs before it kept;
    # in the second each starts from an empty store (the parsers and the
    # bundled files stay cached)
    monkeypatch.delenv(ENV_DATASET, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    _clear_caches()
    series = importlib.import_module("rac.cli")._SERIES
    for clear in (lambda: None, series.cache_clear):
        outcomes = []
        for env, argv in digest_runs:
            clear()
            with mock.patch.dict(os.environ, env):
                outcomes.append(_outcome(argv))
        results = _results(outcomes)
        assert {code for code, _, _ in results} == {0, 1, 2}
        _check_digest(_digest_lines(digest_runs, results))


def test_sweep_replayed_in_reverse_repeats_each_outcome(monkeypatch):
    # the benchmark's sweep twice in one process, the second time in reverse
    # order: each point then meets the calibrations and rows other points
    # kept, so a result key that misses a field gives another point's output
    monkeypatch.delenv(ENV_DATASET, raising=False)
    _clear_caches()
    sweep = _sweep_grid()
    first = [_outcome(argv) for argv in sweep]
    assert [_outcome(argv) for argv in reversed(sweep)] == first[::-1]
    assert {code for (_, code), _, _ in first} == {0, 2}


# Prints a line before it imports rac, so a run that prints nothing is an
# interpreter that did not start; then the _outcome of each golden case and
# of each digest run, as ({name: outcome}, [outcome]).
_RUN_CASES = """\
import os, sys
print(sys.version.split()[0])
from _runs import CASES, _outcome

cases = {name: _outcome(argv) for name, argv in CASES.items()}
runs = []
for env, argv in RUNS:
    os.environ.update(env)
    runs.append(_outcome(argv))
    for key in env:
        del os.environ[key]
print(ascii((cases, runs)))
"""


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_stdout_matches_golden_on_other_interpreters(python, tmp_path, digest_runs):
    executable = shutil.which(python)
    if executable is None:
        pytest.skip(f"{python} is not installed")
    env = {key: value for key, value in os.environ.items() if key != ENV_DATASET}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    env["COLUMNS"] = "80"
    probe = subprocess.run(
        [executable, "-S", "-c", f"RUNS = {digest_runs!r}\n{_RUN_CASES}"],
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
    cases, runs = ast.literal_eval(results)
    assert list(cases) == list(CASES)
    for name, (code, out, err) in cases.items():
        assert (code, err) == (("return", 0), ""), (version, name)
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), (version, name)
    _check_digest(_digest_lines(digest_runs, _results(runs)))
