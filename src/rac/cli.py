"""Command-line interface: ingest, calibrate, classify. It parses the
options, reads the inputs and runs the phases; report.py renders each
command's report, and main writes it once.

Each run option takes the first value that is set of: its flag, its key in
the --config file (JSON), the RAC_DATASET environment variable when not empty
(dataset only), and its default (the bundled inputs, for the two paths).
Exit codes: 0 success, 1 input problem (usage errors included), 2 computation problem.

A run goes in phases: it reads every input, then computes every variant's
moments, then calibrates each variant, then classifies. The first error in
that order is the one reported, so an input problem always wins.

main may run many times in one process. The parser is built once. One
series is kept, the bundled one or a user one: a user dataset is parsed once
per file content (see _Series), and the kept series keeps its variants (see
_build_variants). A repeat read compares the file with the kept bytes as it
is read, so an unchanged file is not copied.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys
from collections import namedtuple
from collections.abc import Callable

from . import dataset as ds
from .calibration import DEFAULT_BETA, CalibrationResult, Variant, calibrate_variant
from .calibration import check_beta, check_rho
from .classify import DefinitionGroup, classify_pipeline, check_tol, DEFAULT_TOLERANCE
from .errors import InputError, RacError, SchemaError
from .moments import SampleMoments, compute_variant_moments
from .report import ReportFormat, calibration_report, classification_report, ingest_report
from .report import report_row
from .utility import check_eta

ENV_DATASET = "RAC_DATASET"


def _read(kind: str, path: str, load):
    """load(path), with a file that is missing or cannot be read (a directory,
    no permission) as an InputError."""
    try:
        return load(path)
    except FileNotFoundError:
        raise InputError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path!r}: {exc.strerror}") from None


# -- run options -------------------------------------------------------------
# A kind turns a flag or config value into the option's value by the option's
# rule, or raises InputError naming the option.

def _path(name: str, value, rule=None):
    """`value` if it is None or a path string read_bytes accepts (no NUL byte)."""
    if value is None or isinstance(value, str) and "\0" not in value:
        return value
    raise InputError(f"{name} must be a path string, got {value!r}")


def _choice(name: str, value, rule: dict):
    """rule[value], if `value` is one of rule's names."""
    if isinstance(value, str) and value in rule:
        return rule[value]
    *names, last = rule
    listed = ", ".join(names) + ("," if len(names) > 1 else "")
    raise InputError(f"{name} must be {listed} or {last}, got {value!r}")


def _number(name: str, value, rule: Callable[[float], float]) -> float:
    """`value` as a finite float, passed through the option's check_* rule."""
    if isinstance(value, bool):  # float() would take JSON true/false as 1/0
        raise InputError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a number ({exc})") from None
    if not math.isfinite(number):
        raise InputError(f"{name} must be finite, got {number}")
    return rule(number)


# A run option: `name` is its flag, its config key and its RunConfig field;
# `kind` is _path, _choice or _number; `default` is the value itself (for a
# choice, not its name); `rule` is a choice's {name: value} or a number's check_*.
_Option = namedtuple("_Option", "name kind help default rule", defaults=(None, None))
_GROUPS, _FORMATS = ({m.value: m for m in enum} for enum in (DefinitionGroup, ReportFormat))
_VARIANTS = {**{v.value: (v,) for v in Variant}, "both": tuple(Variant)}
_OPTIONS = (
    _Option("dataset", _path, f"market data CSV (default: ${ENV_DATASET} or bundled)"),
    _Option("projection", _path, "projection inputs CSV (default: bundled)"),
    _Option("beta", _number, "subjective discount factor", DEFAULT_BETA, check_beta),
    _Option("group", _choice, "definition group", DefinitionGroup.TWO, _GROUPS),
    _Option("tol", _number, "risk-neutrality tolerance", DEFAULT_TOLERANCE, check_tol),
    _Option("variant", _choice, "final-year variant(s) to run", tuple(Variant), _VARIANTS),
    _Option("eta", _number, "override the sufficiency factor", rule=check_eta),
    _Option("rho", _number, "override the risk-aversion coefficient", rule=check_rho),
    _Option("format", _choice, "output format", ReportFormat.TEXT, _FORMATS),
)
# build_config checks paths, then choices, then numbers, each in table order,
# so which of several bad values is reported does not depend on their source
_CHECK_ORDER = sorted(_OPTIONS, key=lambda opt: (_path, _choice, _number).index(opt.kind))
# each run option's value as its kind makes it, or its default
RunConfig = namedtuple("RunConfig", [opt.name for opt in _OPTIONS])


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    import json  # loaded only when a config file is given

    try:
        text = _read("config", path, ds.read_text)
    except SchemaError as exc:  # not UTF-8: "config file is not UTF-8 text (...)"
        raise InputError(f"config {exc}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer over the int-string digit limit, or
        # nesting too deep for the parser
        raise InputError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("config file must hold a JSON object")
    unknown = set(doc).difference(RunConfig._fields)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return {key: value for key, value in doc.items() if value is not None}  # null is unset


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run options' values; `args` as make_parser parses them, without unset flags."""
    cfg = _load_config_file(_path("config", getattr(args, "config", None)))
    env = os.environ.get(ENV_DATASET)  # an empty one is unset, not the path "" (the cwd)
    # a later source wins: RAC_DATASET (dataset only), the config file, the flags
    given = {**({"dataset": env} if env else {}), **cfg, **vars(args)}
    values = {}
    for opt in _CHECK_ORDER:
        value = given.get(opt.name)
        values[opt.name] = opt.default if value is None else opt.kind(opt.name, value, opt.rule)
    return RunConfig(**values)


_Variant = tuple[Variant, ds.MarketDataset, SampleMoments]


class _Series:
    """The last dataset read in this process, keyed by its file's bytes, or
    by None for the bundled file, with the variants built from it: {final
    consumption: (dataset, moments)}, the realized one and at most one other.

    A named file is still read on every call, so an edit, a deleted file or
    a decode error shows at once; a path, an mtime or a hash could match
    changed content. The read compares the file with the kept bytes as it
    goes and returns those same bytes when they match, so an unchanged file
    is not copied. Equal bytes decode to equal text, so a hit neither
    decodes nor parses; bytes that differ only in line ends or a byte order
    mark are parsed afresh. The bundled file, package data, is not read
    again; a process that alternates it and a user file parses the user file
    at each switch. No error is kept: a failed parse is redone next call.
    """

    def __init__(self):
        self.cache_clear()

    def cache_clear(self) -> None:
        self.data, self.series, self.variants = None, None, {}

    def read(self, path: str | None) -> tuple[ds.MarketDataset, dict]:
        """The series in the file at `path`, or the bundled one for None, and
        the variants kept for it."""
        read = functools.partial(ds.read_bytes, kept=self.data)  # a hit returns self.data itself
        data = None if path is None else _read("dataset", path, read)
        if self.series is None or data is not self.data:  # the empty slot's key is None too
            self.cache_clear()  # the old series goes before the new one is parsed
            self.series = (ds.load_bundled_dataset() if data is None
                           else ds.load_dataset(io.BytesIO(data)))  # shares `data`, copies nothing
            self.data = data
        return self.series, self.variants


_SERIES = _Series()


def _build_variants(
    dataset: str | None, projection: str | None, variants: tuple[Variant, ...]
) -> list[_Variant]:
    """Per variant, in order: the variant, its dataset and its moments.

    A None path is the bundled file. A named projection is read whatever the
    variants, as every input is; the bundled one only for the projected
    variant, which a user dataset without --projection takes from it. The
    kept series keeps the variant of its realized value and of the last
    other final value asked for, so each is built once while it is kept.
    """
    d, known = _SERIES.read(dataset)
    inputs = None if projection is None else _read("projection", projection, ds.load_projection)
    realized = d.consumption[-1]
    finals = dict.fromkeys(variants, realized)
    if Variant.PROJECTED in finals:
        finals[Variant.PROJECTED] = ds.projected_consumption(*(inputs or ds.load_bundled_projection()))
    new = [c for c in dict.fromkeys(finals.values()) if c not in known]
    if new:
        datasets = [d if c == realized else ds.with_final_consumption(d, c) for c in new]
        known.update(zip(new, zip(datasets, compute_variant_moments(d, new))))
        # the realized variant and this call's: a sweep over projections keeps two
        for c in known.keys() - {realized, *finals.values()}:
            del known[c]
    return [(v, *known[c]) for v, c in finals.items()]


# -- commands ----------------------------------------------------------------

def cmd_ingest(cfg: RunConfig) -> str:
    # ingest reads no projection, even one a shared config file names
    ((_, d, m),) = _build_variants(cfg.dataset, None, (Variant.REALIZED,))
    return ingest_report(d, m, cfg.format)


def _calibrations(cfg: RunConfig, variants: list[_Variant]) -> dict[str, CalibrationResult]:
    """Per variant name, in order, the variant's calibrate_variant result."""
    return {v.value: calibrate_variant(m, cfg.beta, v, rho=cfg.rho) for v, _, m in variants}


def cmd_calibrate(cfg: RunConfig) -> str:
    variants = _build_variants(cfg.dataset, cfg.projection, cfg.variant)
    return calibration_report(_calibrations(cfg, variants), cfg.format)


# investor -> the calibrated factor that is its eta; --eta makes one "custom" investor
_INVESTORS = {"equity": "zeta", "risk-free": "xi"}


def cmd_classify(cfg: RunConfig) -> str:
    eta_factors = _INVESTORS if cfg.eta is None else {"custom": None}
    variants = _build_variants(cfg.dataset, cfg.projection, cfg.variant)
    calibrations = _calibrations(cfg, variants)
    tables = []
    for investor, factor in eta_factors.items():
        rows = []
        for (variant, dv, m), calib in zip(variants, calibrations.values()):
            eta = cfg.eta if factor is None else getattr(calib.factors, factor)
            cmp, attitude = classify_pipeline(
                dv, eta, calib.rho, cfg.beta, cfg.group, cfg.tol, moments=m
            )
            rows.append(report_row(variant.value, dv, calib.rho, cmp, attitude))
        tables.append((investor, rows))
    return classification_report(calibrations, tables, cfg.format)


# -- argument parsing --------------------------------------------------------

def _help(opt: _Option) -> str:
    """The option's help text, with its default unless that is None."""
    if opt.default is None:
        return opt.help
    if opt.kind is _choice:
        shown = next(name for name, value in opt.rule.items() if value == opt.default)
    else:
        shown = f"{opt.default:g}".replace("e-0", "e-")  # unpadded exponent: "e-9", not "e-09"
    return f"{opt.help} (default {shown})"


def _add_common(p: argparse.ArgumentParser, skip: tuple[str, ...]) -> None:
    for opt in (opt for opt in _OPTIONS if opt.name not in skip):
        choices = list(opt.rule) if opt.kind is _choice else None
        convert = float if opt.kind is _number else None
        p.add_argument(f"--{opt.name}", type=convert, choices=choices, help=_help(opt))
    p.add_argument("--config", help="JSON config file (flags win over its values)")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-problem code, not argparse's 2 (the
    computation-problem code here). Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's private pattern for an argument that is a value, not an option: its
        # own takes only -N and -N.N; this, a "-" and then what float() reads (-1e-3, -inf)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Built once per process: parse_args keeps no state between calls, so main()
# can run many times in one process on the same parser.
@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rac",
        description="Calibrate sufficiency factors and classify risk attitudes "
        "from an annual consumption/returns dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # ingest reads the realized dataset only, so it takes no --projection or
    # --variant; config keys are shared, and each command uses those it reads
    for name, fn in (("ingest", cmd_ingest), ("calibrate", cmd_calibrate), ("classify", cmd_classify)):
        # an unset flag is left out of the namespace, so build_config can tell it
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        _add_common(p, ("projection", "variant") if name == "ingest" else ())
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        report = args.func(cfg)
    except RacError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
