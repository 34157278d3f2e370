"""Command-line interface: ingest, calibrate, classify. main parses the
options, run(cfg, command) runs the command's phases and returns them as a
Run, report.py renders the Run, and main writes the report once.

Each run option takes the first value that is set of: its flag, its key in
the --config file (JSON), the RAC_DATASET environment variable when not empty
(dataset only), and its default (the bundled inputs, for the two paths).
Exit codes: 0 success, 1 input problem (usage errors included), 2 computation problem.

A run goes in phases, and run is the one place they run: it reads every
input, then computes every variant's moments, then calibrates each variant
(not for ingest), then classifies each investor and variant (classify only).
The first error in that order is the one reported, so an input problem wins.

main(argv) reads sys.argv[1:] when argv is None. A plain argv, a command and
pairs of its exact flags and plain values, is read without argparse (see
_read_plain). Any other goes to the whole parser, make_parser, the one source
of help and usage errors.

main may run many times in one process. argparse loads, and the parser is
built, once and only when an argv needs it. One series is kept, the bundled
one or a user one, parsed once per file content, with one bounded store of
what run computed from it (see _Series): a variant is its final consumption,
so a repeated parameter point computes nothing again. Reading the words,
build_config and rendering run on every call.
"""

import functools
import io
import os
import sys
import types
from collections import namedtuple

from . import dataset as ds
from .errors import InputError, RacError, SchemaError
from .moments import SampleMoments, compute_variant_moments
from .params import DEFAULT_BETA, DEFAULT_TOLERANCE, DefinitionGroup, Variant
from .params import check_beta, check_eta, check_rho, check_tol, number
from .report import INVESTORS, ReportFormat, calibration_report, classification_report
from .report import ingest_report, report_row

ENV_DATASET = "RAC_DATASET"
# the package, whose table (PEP 562) loads a phase's module when run first reaches it
_rac = sys.modules[__package__]


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
    """`value` if it is None or a path string read_bytes accepts: a file name
    (ds.is_file_name; a JSON config may hold any lone surrogate)."""
    if value is None or isinstance(value, str) and ds.is_file_name(value):
        return value
    raise InputError(f"{name} must be a path string, got {value!r}")


def _choice(name: str, value, rule: dict):
    """rule[value], if `value` is one of rule's names."""
    if isinstance(value, str) and value in rule:
        return rule[value]
    *names, last = rule
    listed = ", ".join(names) + ("," if len(names) > 1 else "")
    raise InputError(f"{name} must be {listed} or {last}, got {value!r}")


def _number(name: str, value, rule) -> float:
    """`value`, which float (a flag) or JSON (a config value) has parsed,
    through the option's check_* rule, if params.number makes it a finite
    float. A message shows the value as given, so a JSON int prints whole."""
    x = number(name, value)
    if abs(x) <= sys.float_info.max:
        return rule(x)
    raise InputError(f"{name} must be finite, got {value}")


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


def build_config(args) -> RunConfig:
    """The run options' values; `args` holds the command and the flags given."""
    cfg = _load_config_file(_path("config", getattr(args, "config", None)))
    env = os.environ.get(ENV_DATASET)  # an empty one is unset, not the path "" (the cwd)
    # a later source wins: RAC_DATASET (dataset only), the config file, the flags
    given = {**({"dataset": env} if env else {}), **cfg, **vars(args)}
    values = {}
    for opt in _CHECK_ORDER:
        value = given.get(opt.name)
        values[opt.name] = opt.default if value is None else opt.kind(opt.name, value, opt.rule)
    return RunConfig(**values)


# the most values _Series keeps; a full store is emptied
_KEPT_RESULTS = 1024


class _Series:
    """The last dataset read in this process, keyed by its file's bytes, or
    by None for the bundled file, and one store of what run computed from
    it: at most _KEPT_RESULTS values, emptied when full or when the series
    changes. A variant is its final consumption, so the store keys a
    variant's moments by its final, the projected final by its
    ProjectionInputs, a calibration by (variant, final, beta, rho) and a
    report row by (variant, final, eta, rho, beta, group, tol). A key holds
    checked values, so equal keys give equal output (check_rho makes -0.0
    0.0; a tol of -0.0 classifies as 0.0 does), and no dataset, whose hash
    would cost O(rows). Keys of two kinds never compare equal.

    A named file is still read on every call, so an edit, a deleted file or
    a decode error shows at once; a path, an mtime or a hash could match
    changed content. The read compares the file with the kept bytes as it
    goes and returns those same bytes when they match, so an unchanged file
    is not copied. Equal bytes decode to equal text, so a hit neither
    decodes nor parses; bytes that differ only in line ends or a byte order
    mark are parsed afresh. The bundled file, package data, is not read
    again; a process that alternates it and a user file parses the user file
    at each switch. No error is kept: a failed parse or computation is redone
    next call.
    """

    def __init__(self):
        self.cache_clear()

    def cache_clear(self) -> None:
        self.data, self.series, self.store = None, None, {}

    def kept(self, key, compute, *args):
        """The value kept under `key`, or compute(*args) kept there."""
        value = self.store.get(key)
        if value is None:  # no kept value is None
            if len(self.store) >= _KEPT_RESULTS:
                self.store.clear()
            value = self.store[key] = compute(*args)
        return value

    def build(self, dataset: str | None, projection: str | None,
              variants: tuple[Variant, ...]) -> tuple[ds.MarketDataset, list]:
        """The series, and per variant, in order: the variant, its final
        consumption and its moments.

        A None path is the bundled file. A named projection is read whatever
        the variants, as every input is; the bundled one only for the
        projected variant, which a user dataset without --projection takes
        from it.
        """
        read = functools.partial(ds.read_bytes, kept=self.data)  # a hit returns self.data itself
        data = None if dataset is None else _read("dataset", dataset, read)
        if self.series is None or data is not self.data:  # the empty slot's key is None too
            self.cache_clear()  # the old series goes before the new one is parsed
            self.series = (ds.load_bundled_dataset() if data is None
                           else ds.load_dataset(io.BytesIO(data)))  # shares `data`, copies nothing
            self.data = data
        inputs = None if projection is None else _read("projection", projection, ds.load_projection)
        finals = dict.fromkeys(variants, self.series.consumption[-1])
        if Variant.PROJECTED in finals:
            inputs = inputs or ds.load_bundled_projection()
            finals[Variant.PROJECTED] = self.kept(inputs, ds.projected_consumption, *inputs)
        moments = {c: self.store.get(c) for c in finals.values()}
        new = [c for c, m in moments.items() if m is None]
        if new:  # one pass over the series for every final not kept
            moments.update(zip(new, compute_variant_moments(self.series, new)))
            for c in new:
                self.kept(c, moments.get, c)
        return self.series, [(v, c, moments[c]) for v, c in finals.items()]


_SERIES = _Series()


# -- the run -----------------------------------------------------------------

# The series, then one field per phase, None if the command did not run it:
# [(variant, final consumption, moments)], {variant name: calibrate_variant
# result}, [(investor, its rows)].
Run = namedtuple("Run", "dataset variants calibrations tables", defaults=(None, None))


def _row(d: ds.MarketDataset, m: SampleMoments, variant: Variant, final: float, *point):
    """The report row of `d` ending in `final` (moments `m`) at (eta, rho, beta, group, tol)."""
    cmp, attitude = _rac.classify_pipeline(d, *point, moments=m)
    return report_row(variant.value, d, final, point[1], cmp, attitude)


def run(cfg: RunConfig, command: str) -> Run:
    """`command`'s phases in order, each variant's moments, calibration and
    rows, up to its last phase: moments for ingest, calibrations for calibrate.
    A value the series kept (see _Series) is not computed again."""
    if command == "ingest":  # realized only: no projection is read, even one a config file names
        return Run(*_SERIES.build(cfg.dataset, None, (Variant.REALIZED,)))
    d, variants = _SERIES.build(cfg.dataset, cfg.projection, cfg.variant)
    calibrations = {v.value: _SERIES.kept((v, c, cfg.beta, cfg.rho), _rac.calibrate_variant,
                                          m, cfg.beta, v, cfg.rho) for v, c, m in variants}
    if command == "calibrate":
        return Run(d, variants, calibrations)
    tables = []
    for investor, (_, factor) in INVESTORS.items():
        if (factor is None) is (cfg.eta is None):  # --eta runs the custom investor alone
            continue
        rows = []
        for (variant, c, m), calib in zip(variants, calibrations.values()):
            eta = getattr(calib.factors, factor) if factor else cfg.eta
            key = (variant, c, eta, calib.rho, cfg.beta, cfg.group, cfg.tol)
            rows.append(_SERIES.kept(key, _row, d, m, *key))
        tables.append((investor, rows))
    return Run(d, variants, calibrations, tables)


# Each command, with the report.py function that renders its Run.
_REPORTS = dict(ingest=ingest_report, calibrate=calibration_report, classify=classification_report)


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


# Each command's flags: --NAME per run option it takes, then --config. ingest reads the realized
# dataset only, so it takes no --projection or --variant; a config file may name either.
_CONFIG = _Option("config", _path, "JSON config file (flags win over its values)")
_FLAGS = {name: {f"--{opt.name}": opt for opt in (*_OPTIONS, _CONFIG)
                 if name != "ingest" or opt.name not in ("projection", "variant")}
          for name in _REPORTS}


def _read_plain(argv: list[str]):
    """What make_parser().parse_args(argv) gives, if argv is COMMAND
    (--NAME VALUE)*: NAME an exact flag of COMMAND, VALUE a str not starting
    with "-" that a number's float reads or a choice's names hold. None for
    any other argv, which argparse reads."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    args = {"command": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opt = flags.get(flag)
        if opt is None or not isinstance(value, str) or value.startswith("-"):
            return None
        if opt.kind is _number:
            try:
                value = float(value)
            except ValueError:
                return None
        elif opt.kind is _choice and value not in opt.rule:
            return None
        args[opt.name] = value
    return types.SimpleNamespace(**args)


# Built once per process: parse_args keeps no state between calls, so
# main() can run many times in one process on the same parser.
@functools.cache
def make_parser():
    """The whole parser, with a subparser per command that takes its _FLAGS:
    help, usage errors, and any argv _read_plain does not read. Its usage
    errors exit 1, the input-problem code, not argparse's 2 (the
    computation-problem code here). argparse and re load here, so a plain
    argv loads neither."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # argparse's private pattern for an argument that is a value, not an option: its
            # own takes only -N and -N.N; this, a "-" and then what float() reads (-1e-3, -inf)
            self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="rac",
        description="Calibrate sufficiency factors and classify risk attitudes "
        "from an annual consumption/returns dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        # an unset flag stays out, so build_config can tell it
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag, opt in flags.items():
            choices = list(opt.rule) if opt.kind is _choice else None
            convert = float if opt.kind is _number else None
            p.add_argument(flag, type=convert, choices=choices, help=_help(opt))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argv defaults to sys.argv[1:].
    Help raises SystemExit(0) and a usage error SystemExit(1). A plain argv
    (see _read_plain) runs no parser; any other runs the whole parser."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        report = _REPORTS[args.command](run(cfg, args.command), cfg.format)
    except RacError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
