"""What the CLI and golden tests share: the runner that captures a CLI run,
the argv grids they run, the golden cases, and the fresh-interpreter probe
of the package's lazy loading.

Not a test module: pytest collects nothing here, and it imports neither
pytest nor hypothesis, so a script run under another interpreter can import
it as well.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
from pathlib import Path

from rac.cli import main

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"
GOLDEN = TESTS / "golden"

# tests/golden/NAME.out holds what `rac ARGV` printed for each case
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


def _outcome(argv):
    """main(argv): its return value or SystemExit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ("return", main(list(argv)))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _clear_caches():
    """Empty every per-process cache of the CLI, so the next call builds all."""
    cli = importlib.import_module("rac.cli")
    ds = importlib.import_module("rac.dataset")
    for cached in (cli.make_parser, cli._SERIES, ds.load_bundled_dataset, ds.load_bundled_projection):
        cached.cache_clear()


def _sweep_grid():
    """bench/run.py's sweep_grid(): the benchmark's 540 in-process argvs."""
    path = ROOT / "bench" / "run.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    func = next(node for node in tree.body if getattr(node, "name", None) == "sweep_grid")
    namespace = {}
    exec(compile(ast.Module([func], type_ignores=[]), str(path), "exec"), namespace)
    return namespace["sweep_grid"]()


# every command, variant, format and group, with and without a rho and an eta
_WARM_GRID = [
    [command, *variant, "--format", fmt, "--group", group, *rho, *eta]
    for command in ("ingest", "calibrate", "classify")
    # ingest takes no --variant
    for variant in ([[]] if command == "ingest" else
                    [["--variant", v] for v in ("realized", "projected", "both")])
    for fmt in ("text", "csv", "json")
    for group in ("one", "two")
    for rho in ([], ["--rho", "5"])
    for eta in ([], ["--eta", "1.05"])
]

# config files of ints, floats, strings, lists and a bool, with the one-line
# error each prints for every command, or None for one that prints what the
# same values as flags print
_CONFIG_GRID = {
    '{"beta": 0}': "InputError: beta must be in (0, 1], got 0.0",
    '{"rho": true}': "InputError: rho must be a number, got True",
    '{"beta": "abc"}': "InputError: beta must be a number, got 'abc'",
    '{"beta": 1e400}': "InputError: beta must be finite, got inf",
    '{"beta": 1' + "0" * 299 + "}": "InputError: beta must be in (0, 1], got 1e+299",
    '{"tol": "1e-9"}': "InputError: tol must be a number, got '1e-9'",
    '{"eta": [1]}': "InputError: eta must be a number, got [1]",
    '{"rho": -1}': "InputError: rho -1.0 outside the supported range [0, 60]",
    '{"beta": 1, "tol": 0, "eta": 2, "rho": 2}': None,
    '{"rho": -0.0}': None,
    '{"rho": 60, "eta": 0.5}': None,
    '{"beta": 0.5, "tol": 1}': None,
    '{"eta": 1e-300}': None,
}

# where main's two parses could part: no or a wrong first word, words left
# over, "--", prefixes, values that look like options, missing values, repeats
_EDGE_ARGV = [
    [], ["-h"], ["--help"], ["--he"], ["bogus"], ["Classify"], ["--bogus"], ["--bogus", "classify"],
    ["-x"], ["-"], ["--"], ["--", "classify"], ["--rho", "2", "classify"],
    ["classify", "-h"], ["ingest", "--help"], ["calibrate", "--he"],
    ["classify", "extra"], ["classify", "--rho", "2", "extra"], ["classify", "calibrate"],
    ["classify", "--"], ["classify", "--", "--rho", "2"], ["classify", "-1"], ["classify", "-x"],
    ["classify", "-"], ["classify", "--r", "2"], ["calibrate", "--proj", "x"],
    ["calibrate", "--rho=-1e-3"], ["classify", "--eta", "-inf"], ["classify", "--rho"],
    ["classify", "--format"], ["classify", "--group", "three"], ["ingest", "--variant", "both"],
    ["classify", "--bogus", "--group", "three"], ["classify", "--conf", "x"],
    ["classify", "--rho", "2", "--rho", "3"], ["classify", "--format", "json", "--format", "csv"],
    ["classify", "--bogus"],
    # help and a usage error that a command's subparser prints itself
    *([command, *words] for command in ("ingest", "calibrate", "classify")
      for words in (["--help"], ["--rho", "abc"])),
]

# Run in a fresh interpreter; prints "ok" when the package loads lazily and
# `rac.classify` stays the function however the submodule was first loaded.
LAZY_PROBE = """\
import sys
import rac

assert [name for name in sys.modules if name.startswith("rac")] == ["rac"], sys.modules
assert not {"csv", "argparse", "enum", "re"} & set(sys.modules), sys.modules
assert set(dir(rac)) >= set(rac.__all__)
assert rac.errors.InputError.__module__ == "rac.errors"
try:
    rac.nope
except AttributeError as error:
    assert str(error) == "module 'rac' has no attribute 'nope'", error
else:
    raise AssertionError("rac.nope resolved")

function = rac.classify
assert type(function) is type(lambda: 0) and function.__name__ == "classify", function
import rac.cli
assert rac.classify is function, rac.classify
import rac.classify as m
assert m is function, m
import importlib
module = importlib.import_module("rac.classify")
assert type(module) is type(sys) and module.classify is function, module

# a fresh package whose classify submodule is first loaded for another of its
# names, as a classify run loads it for classify_pipeline
for name in [name for name in sys.modules if name == "rac" or name.startswith("rac.")]:
    del sys.modules[name]
import rac
rac.classify_pipeline
from rac import classify
assert classify is sys.modules["rac.classify"].classify, classify
print("ok")
"""


def lazy_probe(executable, cwd):
    """(exit code, stdout, stderr) of LAZY_PROBE under `executable -S`."""
    probe = subprocess.run(
        [executable, "-S", "-c", LAZY_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return probe.returncode, probe.stdout, probe.stderr
