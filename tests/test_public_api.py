"""The package's public names: `from rac import *` works, every entry of
`__all__` resolves, so a name deleted from a module cannot linger there, and
every public name of the package is listed there; `import rac` loads no
submodule, and each name loads its own on first use;
the build reads its version from `rac.__version__`, with no second copy;
every function the benchmark traces still exists where it looks for it;
every concrete error type is raised somewhere in the package; one function
opens files; and every name a module imports is used there."""

import ast
import importlib
import inspect
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rac
from rac import errors


def test_star_import():
    namespace = {}
    exec("from rac import *", namespace)
    assert set(rac.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(rac.__all__) == len(set(rac.__all__))


def test_every_name_resolves():
    missing = [name for name in rac.__all__ if not hasattr(rac, name)]
    assert missing == []


def test_every_public_name_is_listed():
    # the other direction: a re-export left out of __all__ is not star-imported;
    # the package binds a name when it is first read, so read them all first
    for name in rac.__all__:
        getattr(rac, name)
    public = {
        name
        for name, value in vars(rac).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public - set(rac.__all__)) == []


SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_submodules_load_on_first_use(tmp_path):
    assert lazy_probe(sys.executable, tmp_path) == (0, "ok\n", "")


def test_version_is_written_once():
    # pyproject.toml names rac.__version__ instead of repeating its value;
    # setuptools reads that assignment statically, without importing rac
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with warnings.catch_warnings():
        # some setuptools releases warn that [tool.setuptools] support is beta
        warnings.filterwarnings("ignore", message=r"Support for `\[tool\.setuptools\]`")
        raw = pyprojecttoml.read_configuration(path, expand=False)["project"]
        expanded = pyprojecttoml.read_configuration(path, expand=True)["project"]
    assert "version" not in raw
    assert "version" in raw["dynamic"]
    assert expanded["version"] == rac.__version__


def _traced():
    """bench/tracer.py's TRACED table: defining module -> function names
    (run from source, so no bytecode is cached beside it)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    return runpy.run_path(str(path))["TRACED"]


# Traced by the benchmark but deleted with the closed-form calibration; the
# name leaves TRACED with the next change to bench/.
_GONE_FROM_RAC = {"calibration.condition_diagnostic"}


def test_every_traced_function_resolves():
    # a renamed or moved function would silently drop its per-layer metric
    missing = {
        f"{module}.{name}"
        for module, names in _traced().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"rac.{module}"), name, None))
    }
    assert missing - _GONE_FROM_RAC == set()


def test_every_leaf_error_is_raised():
    # an error type no code raises is dead API: a caller would catch it in vain
    source = "".join(
        path.read_text(encoding="utf-8") for path in Path(rac.__file__).parent.glob("*.py")
    )
    leaves = [
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.RacError) and not cls.__subclasses__()
    ]
    assert leaves
    assert [name for name in leaves if f"raise {name}(" not in source] == []


def test_one_function_opens_files():
    # every input file is read by dataset.read_bytes and decoded by read_text,
    # so a path and a file-like object meet one decoder and one BOM rule
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(rac.__file__).parent.glob("*.py")
    }
    opens = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(opens) == 1
    read_bytes = next(
        node
        for node in ast.walk(trees["dataset"])
        if isinstance(node, ast.FunctionDef) and node.name == "read_bytes"
    )
    assert opens[0] in list(ast.walk(read_bytes))


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(rac.__file__).parent.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    # a name bound by an import and never read is left over from deleted code
    tree = ast.parse((Path(rac.__file__).parent / module).read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []
