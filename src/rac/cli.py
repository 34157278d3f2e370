"""Command-line interface: ingest, calibrate, classify.

Configuration precedence is flags > config file (--config, JSON) > defaults.
The dataset path falls back to the RAC_DATASET environment variable, when it
is not empty, and then to the bundled reconstruction. Exit codes: 0 success,
1 input problem (usage errors included), 2 computation problem.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import NamedTuple

from . import dataset as ds
from .calibration import CalibrationResult, Variant, calibrate_variant, check_beta, check_rho
from .classify import AllocationSign, DefinitionGroup, classify_pipeline, check_tol, DEFAULT_TOLERANCE
from .errors import InputError, RacError
from .moments import SampleMoments, compute_moments
from .report import (
    ReportFormat,
    ReportRow,
    calibration_block,
    export_run,
    json_text,
    render_table,
)
from .utility import check_eta

ENV_DATASET = "RAC_DATASET"

_CONFIG_KEYS = ("dataset", "projection", "beta", "group", "tol", "variant", "eta", "rho", "format")


class RunConfig(NamedTuple):
    dataset_path: str | None
    projection_path: str | None
    beta: float
    group: DefinitionGroup
    tolerance: float
    variant: str
    eta: float | None
    rho: float | None
    fmt: ReportFormat


def _read(kind: str, path: str, load):
    """load(path), with a file that is missing or cannot be read (a directory,
    no permission) as an InputError."""
    try:
        return load(path)
    except FileNotFoundError:
        raise InputError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path!r}: {exc.strerror}") from None


def _read_config_text(path: str) -> str:
    """The file's UTF-8 text, without a leading byte order mark (as datasets
    are read, so a decode error's offset stays a file offset)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise InputError(
                f"config file is not UTF-8 text ({exc.reason} at offset {exc.start})"
            ) from None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    import json  # loaded only when a config file is given

    text = _read("config", path, _read_config_text)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer over the int-string digit limit, or
        # nesting too deep for the parser
        raise InputError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("config file must hold a JSON object")
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _merge(flag, config_value, default):
    if flag is not None:
        return flag
    if config_value is not None:
        return config_value
    return default


def _path(name: str, value):
    """`value` if it is None or a path string open() accepts (no NUL byte)."""
    if value is None or isinstance(value, str) and "\0" not in value:
        return value
    raise InputError(f"{name} must be a path string, got {value!r}")


def _number(name: str, value) -> float:
    """`value` (a flag or a JSON config value) as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a number ({exc})") from None
    if not math.isfinite(number):
        raise InputError(f"{name} must be finite, got {number}")
    return number


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = _load_config_file(_path("config", getattr(args, "config", None)))
    # an empty RAC_DATASET counts as unset, not as the path "" (the cwd)
    env_dataset = os.environ.get(ENV_DATASET) or None
    dataset_path = _path("dataset", _merge(args.dataset, cfg.get("dataset"), env_dataset))
    projection_path = _path("projection", _merge(args.projection, cfg.get("projection"), None))
    group_name = _merge(args.group, cfg.get("group"), "two")
    variant = _merge(args.variant, cfg.get("variant"), "both")
    fmt_name = _merge(args.format, cfg.get("format"), "text")
    if group_name not in ("one", "two"):
        raise InputError(f"group must be 'one' or 'two', got {group_name!r}")
    if variant not in ("realized", "projected", "both"):
        raise InputError(f"variant must be realized, projected, or both, got {variant!r}")
    if fmt_name not in ("text", "csv", "json"):
        raise InputError(f"format must be text, csv, or json, got {fmt_name!r}")
    beta = check_beta(_number("beta", _merge(args.beta, cfg.get("beta"), 0.99)))
    tol = check_tol(_number("tol", _merge(args.tol, cfg.get("tol"), DEFAULT_TOLERANCE)))
    eta = _merge(args.eta, cfg.get("eta"), None)
    rho = _merge(args.rho, cfg.get("rho"), None)
    eta = None if eta is None else check_eta(_number("eta", eta))
    rho = None if rho is None else check_rho(_number("rho", rho))
    return RunConfig(
        dataset_path=dataset_path,
        projection_path=projection_path,
        beta=beta,
        group=DefinitionGroup.ONE if group_name == "one" else DefinitionGroup.TWO,
        tolerance=tol,
        variant=variant,
        eta=eta,
        rho=rho,
        fmt=ReportFormat(fmt_name),
    )


def _open_dataset(cfg: RunConfig) -> ds.MarketDataset:
    if cfg.dataset_path is None:
        return ds.load_bundled_dataset()
    return _read("dataset", cfg.dataset_path, ds.load_dataset)


def _open_projection(cfg: RunConfig) -> ds.ProjectionInputs:
    if cfg.projection_path is None:
        return ds.load_bundled_projection()
    return _read("projection", cfg.projection_path, ds.load_projection)


# -- commands ----------------------------------------------------------------

def cmd_ingest(cfg: RunConfig, out) -> int:
    d = _open_dataset(cfg)
    m = compute_moments(d)
    if cfg.fmt is ReportFormat.JSON:
        doc = {
            "years": len(d.consumption),
            "start_year": d.start_year,
            "end_year": d.end_year,
            "moments": m._asdict(),
        }
        out.write(json_text(doc))
        return 0
    out.write(f"{len(d.consumption)} years, {d.start_year}-{d.end_year}\n")
    out.write(f"mean gross consumption growth {m.mean_x:.6f}\n")
    out.write(f"log-growth mean {m.mu_x:.6f}, variance {m.sigma2_x:.8f}\n")
    out.write(f"mean equity gross return {m.mean_Re:.6f}\n")
    out.write(f"mean risk-free gross return {m.mean_Rf:.6f}\n")
    out.write(f"log-level mean {m.mu_z:.6f}, variance {m.sigma2_z:.6f}\n")
    return 0


_Calibrations = dict[str, tuple[ds.MarketDataset, SampleMoments, CalibrationResult]]


def _calibrations(cfg: RunConfig) -> _Calibrations:
    """Per variant name, the variant's dataset, its moments and its calibration.

    Every input is read and every variant dataset built before any moment is
    computed, so an input error (exit 1) wins over a computation error
    (exit 2) whatever the variant. A user dataset without --projection takes
    its projected final year from the bundled 1978 projection, and without
    --rho each variant takes rho from RHO_ANCHORS; both are fitted to the
    bundled series.
    """
    d = _open_dataset(cfg)
    names = ("realized", "projected") if cfg.variant == "both" else (cfg.variant,)
    datasets = dict.fromkeys(names, d)
    if "projected" in datasets:
        c = ds.projected_consumption(*_open_projection(cfg))
        datasets["projected"] = ds.with_final_consumption(d, c)
    results: _Calibrations = {}
    for name, dv in datasets.items():
        m = compute_moments(dv)
        results[name] = (dv, m, calibrate_variant(m, cfg.beta, Variant(name), rho=cfg.rho))
    return results


def cmd_calibrate(cfg: RunConfig, out) -> int:
    results = _calibrations(cfg)
    if cfg.fmt is ReportFormat.JSON:
        doc = {"calibration": {name: calibration_block(c) for name, (_, _, c) in results.items()}}
        out.write(json_text(doc))
        return 0
    if cfg.fmt is ReportFormat.CSV:
        out.write("variant,zeta,xi,rho,residual_a,residual_b,residual_c,consistency_gap\n")
        for name, (_, _, c) in results.items():
            values = (c.factors.zeta, c.factors.xi, c.rho, *c.residuals, c.consistency_gap)
            out.write(",".join([name, *map(repr, values)]) + "\n")
        return 0
    for name, (_, _, c) in results.items():
        out.write(f"{name}: zeta {c.factors.zeta:.6f}, xi {c.factors.xi:.6f}, rho {c.rho:.6f}\n")
        out.write(
            "  residuals "
            + " ".join(f"{r:.3e}" for r in c.residuals)
            + f", consistency gap {c.consistency_gap:.3e}\n"
        )
    return 0


# investor -> (title of its text table, the calibrated factor that is its
# eta); with --eta the single custom investor takes that value instead
_INVESTORS = {
    "equity": ("Equity investors (eta = zeta)", "zeta"),
    "risk-free": ("Risk-free investors (eta = xi)", "xi"),
}
_CUSTOM_INVESTOR = {"custom": ("Custom eta investors", None)}

_ALLOCATION_TEXT = {
    AllocationSign.NEGATIVE: "allocates extra negative utility",
    AllocationSign.POSITIVE: "allocates extra positive utility",
    AllocationSign.ZERO: "allocates no extra utility",
}


def cmd_classify(cfg: RunConfig, out) -> int:
    investors = _INVESTORS if cfg.eta is None else _CUSTOM_INVESTOR
    results = _calibrations(cfg)
    tables: list[tuple[str, list[ReportRow]]] = []
    for investor, (_, factor) in investors.items():
        rows: list[ReportRow] = []
        for name, (dv, m, calib) in results.items():
            eta = cfg.eta if factor is None else getattr(calib.factors, factor)
            cmp, attitude = classify_pipeline(
                dv, eta, calib.rho, cfg.beta, cfg.group, cfg.tolerance, moments=m
            )
            rows.append(
                ReportRow(
                    year_certain=dv.end_year - 1,
                    year_uncertain=f"{dv.end_year} ({name})",
                    consumption_certain=dv.consumption[-2],
                    consumption_uncertain=dv.consumption[-1],
                    certain_utility=cmp.certain,
                    uncertain_utility=cmp.uncertain,
                    allocation_text=_ALLOCATION_TEXT[attitude.allocation],
                    label_text=attitude.label.value,
                    rho=calib.rho,
                )
            )
        tables.append((investor, rows))
    if cfg.fmt is ReportFormat.JSON:
        out.write(export_run({name: c for name, (_, _, c) in results.items()}, tables))
    elif cfg.fmt is ReportFormat.CSV:
        out.write(render_table([row for _, rows in tables for row in rows], ReportFormat.CSV))
    else:
        out.write("\n".join(
            investors[investor][0] + "\n" + render_table(rows, ReportFormat.TEXT)
            for investor, rows in tables
        ))
    return 0


# -- argument parsing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help=f"market data CSV (default: ${ENV_DATASET} or bundled)")
    p.add_argument("--projection", help="projection inputs CSV (default: bundled)")
    p.add_argument("--beta", type=float, help="subjective discount factor (default 0.99)")
    p.add_argument("--group", choices=["one", "two"], help="definition group (default two)")
    p.add_argument("--tol", type=float, help="risk-neutrality tolerance (default 1e-9)")
    p.add_argument(
        "--variant",
        choices=["realized", "projected", "both"],
        help="final-year variant(s) to run (default both)",
    )
    p.add_argument("--eta", type=float, help="override the sufficiency factor")
    p.add_argument("--rho", type=float, help="override the risk-aversion coefficient")
    p.add_argument("--format", choices=["text", "csv", "json"], help="output format (default text)")
    p.add_argument("--config", help="JSON config file (flags win over its values)")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-problem code, not argparse's 2 (the
    computation-problem code here). Subparsers inherit the class."""

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
    for name, fn in (("ingest", cmd_ingest), ("calibrate", cmd_calibrate), ("classify", cmd_classify)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg, sys.stdout)
    except RacError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
