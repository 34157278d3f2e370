"""Risk-attitude calibration and classification for annual market data.

`import rac` reads this file alone: each submodule loads the first time one
of its names is read from the package (PEP 562), and then stays bound here.

A naming trap: the package re-exports the function classify, which shadows
the submodule of the same name as an attribute of `rac`. So
`import rac.classify as m` and `from rac import classify` bind the function,
not the module. Reach the module as `sys.modules["rac.classify"]` or with
`importlib.import_module("rac.classify")`. The import system sets each
submodule it loads as an attribute of the package, so the first
`from .classify import ...` anywhere would put the module in the function's
place; the package's class declines that binding.
"""

import sys as _sys

__version__ = "0.1.0"

# Each submodule, with the names the package re-exports from it. The names are
# one string, not a tuple: without cached bytecode this file is compiled at
# every start, and one string compiles several times faster than 56.
_EXPORTS = {
    "calibration": """CalibrationResult RHO_ANCHORS SufficiencyFactors calibrate_variant
        solve_closed_form_given_rho solve_system system_residuals""",
    "classify": """AllocationSign Curvature Label RiskAttitude classify classify_pipeline
        curvature_from_rho""",
    "dataset": """MarketDataset ProjectionInputs load_bundled_dataset load_bundled_projection
        load_dataset load_projection projected_consumption with_final_consumption""",
    "errors": """ComputeError DegenerateSystem InputError InvalidCombination MissingYear
        NegativeVariance NoConvergence NonPositiveConsumption NonFiniteMoment NonPositiveValue
        RacError SchemaError Unclassifiable UtilityOverflow""",
    "moments": "SampleMoments compute_moments consistency_gap lognormal_moment",
    "params": "DEFAULT_TOLERANCE DefinitionGroup Variant",
    "report": "ReportFormat ReportRow export_run parse_csv parse_json render_table",
    "utility": """UtilityComparison UtilitySpec crra_utility expected_utility_unconditional
        make_comparison uncertain_utility""",
}
# Each re-exported name -> its submodule.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # a re-exported name, or a submodule read by its own name (rac.errors)
    home = _HOME.get(name, name if name in _EXPORTS else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # not importlib: `python -S` has not loaded it
    value = _sys.modules[f"{__name__}.{home}"]
    if name in _HOME:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(_sys)):
    def __setattr__(self, name, value):
        # importing rac.classify binds the module here; the function stays
        if not (name in _HOME and isinstance(value, type(_sys))):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
