"""Risk-attitude calibration and classification for annual market data.

A naming trap: the package re-exports the function classify, which shadows
the submodule of the same name as an attribute of `rac`. So
`import rac.classify as m` and `from rac import classify` bind the function,
not the module. Reach the module as `sys.modules["rac.classify"]` or with
`importlib.import_module("rac.classify")`.
"""

from .calibration import (
    CalibrationResult,
    RHO_ANCHORS,
    SufficiencyFactors,
    Variant,
    calibrate_variant,
    solve_closed_form_given_rho,
    solve_system,
    system_residuals,
)
from .classify import (
    AllocationSign,
    Curvature,
    DEFAULT_TOLERANCE,
    DefinitionGroup,
    Label,
    RiskAttitude,
    classify,
    classify_pipeline,
    curvature_from_rho,
)
from .dataset import (
    MarketDataset,
    ProjectionInputs,
    load_bundled_dataset,
    load_bundled_projection,
    load_dataset,
    load_projection,
    projected_consumption,
    with_final_consumption,
)
from .errors import (
    ComputeError,
    DegenerateSystem,
    InputError,
    InvalidCombination,
    MissingYear,
    NegativeVariance,
    NoConvergence,
    NonPositiveConsumption,
    NonFiniteMoment,
    NonPositiveValue,
    RacError,
    SchemaError,
    Unclassifiable,
    UtilityOverflow,
)
from .moments import SampleMoments, compute_moments, consistency_gap, lognormal_moment
from .report import (
    ReportFormat,
    ReportRow,
    calibration_block,
    export_run,
    parse_csv,
    parse_json,
    render_table,
)
from .utility import (
    UtilityComparison,
    UtilitySpec,
    crra_utility,
    expected_utility_unconditional,
    make_comparison,
    uncertain_utility,
)

__version__ = "0.1.0"

# Every name imported above, so each is written once. The imports also bind
# the submodules (errors among them), which are not exported.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and type(value) is not type(errors)
] + ["__version__"]
