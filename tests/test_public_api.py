"""The package's public names: `from rac import *` works, every entry of
`__all__` resolves, so a name deleted from a module cannot linger there, and
every public name of the package is listed there; `import rac` loads no
submodule, and each name loads its own on first use;
the build reads its version from `rac.__version__`, with no second copy,
and an install gets the rac command and every data file;
every function the benchmark traces still exists where it looks for it;
every concrete error type is raised somewhere in the package, and belongs
to one family, InputError or ComputeError; one function
opens files; every name a module of the package, the suite or the tools
imports is used there; and no module of the suite imports a test module,
nor _runs pytest or hypothesis."""

import ast
import importlib
import inspect
import runpy
import sys
import warnings
from pathlib import Path

import pytest

import rac
from _runs import ROOT, TESTS, lazy_probe
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


def test_submodules_load_on_first_use(tmp_path):
    assert lazy_probe(sys.executable, tmp_path) == (0, "ok\n", "")


def _pyproject(expand: bool) -> dict:
    """pyproject.toml as setuptools reads it; the test skips without setuptools."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # some setuptools releases warn that [tool.setuptools] support is beta
        warnings.filterwarnings("ignore", message=r"Support for `\[tool\.setuptools\]`")
        return pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=expand)


def test_version_is_written_once():
    # pyproject.toml names rac.__version__ instead of repeating its value;
    # setuptools reads that assignment statically, without importing rac
    raw = _pyproject(expand=False)["project"]
    assert "version" not in raw
    assert "version" in raw["dynamic"]
    assert _pyproject(expand=True)["project"]["version"] == rac.__version__


def test_an_install_gets_the_command_and_the_data():
    # an editable install reads src/, so only the build rules say what an
    # installed rac gets: the rac command is rac.cli.main, and the
    # package-data globs take every file of the data directory
    config = _pyproject(expand=True)
    module, _, name = config["project"]["scripts"]["rac"].partition(":")
    assert getattr(importlib.import_module(module), name) is importlib.import_module("rac.cli").main
    package = Path(rac.__file__).parent
    data = {path for path in (package / "data").rglob("*") if path.is_file()}
    globs = config["tool"]["setuptools"]["package-data"]["rac"]
    assert data and {path for glob in globs for path in package.glob(glob)} == data


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


# each error type that no other extends
LEAF_ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.RacError) and not cls.__subclasses__()
]


def test_every_leaf_error_is_raised():
    # an error type no code raises is dead API: a caller would catch it in vain
    source = "".join(
        path.read_text(encoding="utf-8") for path in Path(rac.__file__).parent.glob("*.py")
    )
    assert LEAF_ERRORS
    assert [cls.__name__ for cls in LEAF_ERRORS if f"raise {cls.__name__}(" not in source] == []


# each leaf error's family: an InputError exits 1, a ComputeError exits 2
FAMILY = {
    **dict.fromkeys([errors.SchemaError, errors.MissingYear, errors.NonPositiveValue],
                    errors.InputError),
    **dict.fromkeys([errors.NegativeVariance, errors.NonFiniteMoment, errors.NonPositiveConsumption,
                     errors.UtilityOverflow, errors.NoConvergence, errors.DegenerateSystem,
                     errors.Unclassifiable, errors.InvalidCombination], errors.ComputeError),
}


def test_each_error_has_one_family():
    # a new error type is placed in its family here before the suite passes
    assert set(FAMILY) == set(LEAF_ERRORS)
    for leaf, family in FAMILY.items():
        other = errors.ComputeError if family is errors.InputError else errors.InputError
        assert issubclass(leaf, family) and not issubclass(leaf, other)
    # a bad argument to the library is typed, and still caught as ValueError
    assert issubclass(errors.InputError, ValueError)


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


# each module of the package (by its file name), the suite and the tools; the
# acceptance gate imports two names it does not use, and the gate must not change
_MODULES = {
    **{p.name: p for p in Path(rac.__file__).parent.glob("*.py") if p.name != "__init__.py"},
    **{f"{p.parent.name}/{p.name}": p for p in [*TESTS.glob("*.py"), *(ROOT / "tools").glob("*.py")]
       if p.name != "test_acceptance.py"},
}


@pytest.mark.parametrize("module", sorted(_MODULES))
def test_every_import_is_used(module):
    # a name bound by an import and never read is left over from deleted code
    tree = ast.parse(_MODULES[module].read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


def _imports(path):
    """The top-level name of each module that `path` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        name.partition(".")[0]
        for node in ast.walk(tree)
        for name in ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names] if isinstance(node, ast.Import) else [])
    }


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_module_of_the_suite_imports_a_test_module(module):
    # what two test modules share lives in conftest or _runs, so each test
    # module runs, and is read, on its own
    assert sorted(name for name in _imports(TESTS / module) if name.startswith("test_")) == []


def test_the_shared_runs_leave_pytest_out():
    # other interpreters import _runs where pytest may not be installed
    assert {"pytest", "hypothesis"} & _imports(TESTS / "_runs.py") == set()
