"""CLI behavior: subcommands, exit codes, and two tables. _SOURCES holds
where each run option's value comes from (flag, config key, RAC_DATASET,
default): test_source runs each row and compares its outcome with that of a
plain argv. _REUSE holds what a repeated call in one process may skip:
test_reuse plays each scenario cold and warm, counting the work of each
call, and four tests named for their rule play one scenario each. What a
command prints is pinned by the golden cases and the digest in
test_golden.py, not here."""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter, namedtuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rac import dataset as ds
from rac import (ProjectionInputs, calibrate_variant, classify_pipeline, compute_moments, errors,
                 load_bundled_dataset, parse_csv, parse_json)
from rac.cli import ENV_DATASET, _FLAGS, _read_plain, build_config, main, make_parser
from rac.moments import compute_variant_moments
from rac.params import check_beta, check_eta, check_rho, check_tol

from _runs import (CASES, GOLDEN, SRC, _CONFIG_GRID, _EDGE_ARGV, _WARM_GRID, _clear_caches,
                   _outcome, _sweep_grid)
from conftest import DEGENERATE, GAPPED, HEADER, PROJECTION_HEADER, csv_text, serialize_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- ingest -------------------------------------------------------------------

@pytest.mark.parametrize(
    "flags",
    [["--projection", "/no/such.csv", "--variant", "projected"],
     ["--projection", "/no/such.csv"],
     ["--variant", "projected"]],
)
def test_ingest_rejects_projection_and_variant(capsys, flags):
    # ingest reads neither input, so the flags are usage errors, not ignored
    with pytest.raises(SystemExit) as exc_info:
        main(["ingest", *flags])
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(flags)}\n" in captured.err


# -- calibrate ----------------------------------------------------------------

def test_calibrate_single_variant(capsys):
    code, out, _ = run(capsys, "calibrate", "--variant", "realized", "--format", "json")
    assert code == 0
    assert set(json.loads(out)["calibration"]) == {"realized"}


@pytest.mark.parametrize("name, value", [("beta", "1"), ("tol", "0"), ("rho", "0"), ("rho", "60")])
def test_range_endpoints_accepted(capsys, name, value):
    code, _, err = run(capsys, "calibrate", f"--{name}={value}")
    assert (code, err) == (0, "")


# -- classify -----------------------------------------------------------------

@pytest.mark.parametrize("variant", ["realized", "projected"])
@pytest.mark.parametrize("rho", ["0", "0.5", "1.4", "1.42", "26.3", "26.7", "27.1"])
def test_headline_labels_hold_only_inside_the_two_rho_intervals(capsys, variant, rho):
    # the paper's labels for the bundled data under the defaults hold on two
    # rho intervals: (0, ~1.407] and [~26.43, ~27.02] (realized), (0, ~1.408]
    # and [~26.36, ~26.95] (projected). rho = 0, and a rho between the
    # intervals, exit 2; above the second, xi > 1 makes both rows Risk-averse
    code, out, err = run(capsys, "classify", "--variant", variant, "--rho", rho, "--format", "json")
    if rho in ("0", "1.42", "26.3"):
        assert (code, out) == (2, "")
        assert err.startswith("error: Unclassifiable: ")
    else:
        assert (code, err) == (0, "")
        labels = [r["label_text"] for r in json.loads(out)["classifications"]]
        risk_free = "Risk-averse" if rho == "27.1" else "Not enough risk-loving"
        assert labels == ["Risk-averse", risk_free]


@pytest.mark.parametrize(
    "flags", [[], ["--eta", "1.05"], ["--variant", "projected"]], ids=["default", "eta", "projected"]
)
def test_classify_json_parses_to_the_csv_rows(capsys, flags):
    # the JSON document and the CSV table carry the same rows, exactly
    code, json_out, _ = run(capsys, "classify", "--format", "json", *flags)
    assert code == 0
    code, csv_out, _ = run(capsys, "classify", "--format", "csv", *flags)
    assert code == 0
    rows = parse_json(json_out)
    assert rows and rows == parse_csv(csv_out)


def test_classify_variant_projected_only(capsys):
    code, out, _ = run(capsys, "classify", "--variant", "projected", "--format", "json")
    assert code == 0
    rows = json.loads(out)["classifications"]
    assert len(rows) == 2
    assert all("(projected)" in r["year_uncertain"] for r in rows)


def test_classify_rho_override(capsys):
    # overriding rho re-derives the factors; eta 0.9 keeps every row concave
    # risk-averse, so the override is visible in the output
    code, out, _ = run(capsys, "classify", "--rho", "2.0", "--eta", "0.9", "--format", "json")
    assert code == 0
    rows = json.loads(out)["classifications"]
    assert len(rows) == 2
    assert all(r["rho_exact"] == 2.0 for r in rows)
    assert all(r["label_text"] == "Risk-averse" for r in rows)


def test_classify_wide_tolerance(capsys):
    code, out, _ = run(capsys, "classify", "--tol", "10.0")
    assert code == 0
    assert out.count("Risk-neutral") == 4


def test_classify_group_one_same_labels(capsys):
    code, out, _ = run(capsys, "classify", "--group", "one")
    assert code == 0
    assert out.count("Risk-averse") == 2
    assert out.count("Not enough risk-loving") == 2


def test_classify_custom_eta_table(capsys):
    code, out, _ = run(capsys, "classify", "--eta", "0.9")
    assert code == 0
    assert "Custom eta investors" in out
    assert out.count("Risk-averse") == 2


# -- cli.run: a command's phases --------------------------------------------

def _run_phases(*argv):
    """cli.run of `rac *argv`: the command's Run, on the config main builds."""
    cli = importlib.import_module("rac.cli")
    return cli.run(build_config(make_parser().parse_args(argv)), argv[0])


@pytest.mark.parametrize(
    "command, variants, calibrations, investors",
    [
        ("ingest", ["realized"], None, None),
        ("calibrate", ["realized", "projected"], ["realized", "projected"], None),
        ("classify", ["realized", "projected"], ["realized", "projected"], ["equity", "risk-free"]),
    ],
)
def test_run_holds_the_phases_its_command_ran(command, variants, calibrations, investors):
    result = _run_phases(command)
    assert [v.value for v, _, _ in result.variants] == variants
    assert (result.calibrations and list(result.calibrations)) == calibrations
    assert (result.tables and [investor for investor, _ in result.tables]) == investors


def test_run_rows_are_the_classify_json_rows(capsys):
    code, out, _ = run(capsys, "classify", "--format", "json")
    assert code == 0
    tables = _run_phases("classify", "--format", "json").tables
    assert [row for _, rows in tables for row in rows] == parse_json(out)


def test_run_calibrate_stops_before_classifying():
    # at rho 2 the calibrations exist, and only classifying them fails
    result = _run_phases("calibrate", "--rho", "2")
    assert result.tables is None
    assert [c.rho for c in result.calibrations.values()] == [2.0, 2.0]
    with pytest.raises(errors.Unclassifiable):
        _run_phases("classify", "--rho", "2")


# -- where each run option's value comes from --------------------------------

# per run option: a command (with any flag it needs for the option to show), a
# value other than the default, a second value with another output, and the
# default, or None where it is no one value (eta: each calibrated factor; rho:
# each variant's, in the default-rho rows). Each value is as a config gives it,
# and its str() is the flag's word.
_PRECEDENCE = {
    "dataset": ("ingest", "short.csv", "copy.csv", "copy.csv"),
    "projection": ("calibrate --format json", "other.csv", "projection.csv", "projection.csv"),
    "beta": ("calibrate", 0.5, 0.9, 0.99),
    "group": ("classify --rho 0", "one", "two", "two"),
    "tol": ("classify", 10.0, 0, 1e-9),
    "variant": ("calibrate", "realized", "projected", "both"),
    "eta": ("classify", 0.9, 1.05, None),
    "rho": ("calibrate", 2, 3, None),
    "format": ("calibrate", "csv", "json", "text"),
}

# Where a run option's value comes from: flag > config key > RAC_DATASET
# (dataset only) > default. Each row runs argv with RAC_DATASET set to `env`
# (unset when None) and config.json holding `config` (absent when None); its
# outcome is that of the plain argv `same`, run with neither, and not that of
# `differs` (when named), which shows that the source decided something.
_SOURCES = {
    # the config gives the flag's value, and the flag beats the config
    **{f"config-{name}": (None, json.dumps({name: value}), f"{argv} --config config.json",
                          f"{argv} --{name} {value}", f"{argv} --{name} {other}")
       for name, (argv, value, other, _) in _PRECEDENCE.items()},
    **{f"flag-beats-config-{name}": (None, json.dumps({name: value}),
                                     f"{argv} --config config.json --{name} {other}",
                                     f"{argv} --{name} {other}", f"{argv} --{name} {value}")
       for name, (argv, value, other, _) in _PRECEDENCE.items()},
    # an option no source sets takes its default
    **{f"default-{name}": (None, None, argv, f"{argv} --{name} {default}", f"{argv} --{name} {value}")
       for name, (argv, value, _, default) in _PRECEDENCE.items() if default is not None},
    **{f"default-format-{command}": (None, None, command, f"{command} --format text",
                                     f"{command} --format json") for command in ("ingest", "classify")},
    **{f"default-rho-{variant}": (None, None, f"calibrate --variant {variant}",
                                  f"calibrate --variant {variant} --rho {rho}",
                                  f"calibrate --variant {variant} --rho 2")
       for variant, rho in (("realized", 1.033526), ("projected", 1.0089))},
    # RAC_DATASET names the dataset unless a flag or the config does; an
    # empty one is unset, not the path "" (the working directory)
    "env-dataset": ("short.csv", None, "ingest", "ingest --dataset short.csv", "ingest"),
    "flag-beats-env": ("gapped.csv", None, "ingest --dataset copy.csv", "ingest",
                       "ingest --dataset gapped.csv"),
    "empty-env-is-unset": ("", None, "ingest", "ingest", None),
    "config-beats-env": ("copy.csv", '{"dataset": "short.csv"}', "ingest --config config.json",
                         "ingest --dataset short.csv", "ingest"),
    # a null config value leaves the next source (RAC_DATASET, a default) to
    # decide, as if the key were absent
    "config-null-is-unset": ("short.csv", '{"dataset": null, "format": null, "beta": null}',
                             "calibrate --config config.json", "calibrate --dataset short.csv",
                             "calibrate"),
    # a leading UTF-8 byte order mark is dropped, as in dataset files
    "config-bom": (None, b'\xef\xbb\xbf{"beta": 0.5}', "calibrate --format json --config config.json",
                   "calibrate --format json --beta 0.5", "calibrate --format json"),
    # a JSON int prints as the same flag does (group two leaves these rows
    # unclassified)
    **{f"config-ints-{fmt}": (None, '{"beta": 1, "tol": 0, "eta": 2, "rho": 2}',
                              f"classify --group one --format {fmt} --config config.json",
                              f"classify --group one --format {fmt} --beta 1 --tol 0 --eta 2 --rho 2",
                              f"classify --group one --format {fmt}") for fmt in ("json", "csv")},
    # check_rho makes -0.0 0.0, from a flag or the config
    **{f"negative-zero-rho-{source}-{fmt}": (None, config, f"calibrate --format {fmt} {words}",
                                             f"calibrate --format {fmt} --rho 0", f"calibrate --format {fmt}")
       for fmt in ("text", "json") for source, config, words in (
           ("flag", None, "--rho -0"), ("config", '{"rho": -0.0}', "--config config.json"))},
    # the config keys are shared, and ingest does not read the projection one
    "ingest-ignores-config-projection": (None, '{"projection": "missing.csv"}',
                                         "ingest --config config.json", "ingest", None),
}


def _cold(words: str):
    """The outcome of `rac WORDS` from cleared caches, as in a fresh process:
    a value kept from another run cannot hide what this run computes."""
    _clear_caches()
    return _outcome(words.split())


@pytest.mark.parametrize("env, config, argv, same, differs", _SOURCES.values(), ids=_SOURCES)
def test_source(monkeypatch, tmp_path, env, config, argv, same, differs):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_DATASET, raising=False)
    files = {"copy.csv": _BUNDLED, "short.csv": b"".join(_BUNDLED.splitlines(keepends=True)[:31]),
             "gapped.csv": GAPPED.encode(), "projection.csv": _projection(219441872).content,
             "other.csv": _projection(2 * 219441872).content}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    want, other = (words and _cold(words) for words in (same, differs))
    if config is not None:
        (tmp_path / "config.json").write_bytes(config if isinstance(config, bytes) else config.encode())
    if env is not None:
        monkeypatch.setenv(ENV_DATASET, env)
    got = _cold(argv)
    assert got == want and got != other


def test_config_ints_print_as_flags(tmp_path):
    # a JSON int is checked and kept as the float argparse makes of the same flag
    config = tmp_path / "config.json"
    config.write_text('{"beta": 1, "tol": 0, "eta": 2, "rho": 2}')
    cfg = build_config(make_parser().parse_args(["classify", "--config", str(config)]))
    numbers = (cfg.beta, cfg.tol, cfg.eta, cfg.rho)
    assert [(type(v), v) for v in numbers] == [(float, 1.0), (float, 0.0), (float, 2.0), (float, 2.0)]


# -- typed errors -------------------------------------------------------------

def _config(doc):
    return {"config.json": json.dumps(doc)}


def _given(source, name, value):
    """The files and the classify argv that give run option `name` its value
    by a flag or by a config file."""
    if source == "flag":
        return {}, ["classify", f"--{name}={value}"]
    return _config({name: value}), ["classify", "--config", "config.json"]


def _cell(row, at, value):
    cells = row.split(",")
    cells[at] = value
    return ",".join(cells)


_WIDE = csv_text("1900,1e300,1.05,1.01", "1901,1e-300,1.05,1.01")
_TINY = csv_text("1900,1.0,1.05,1.01", "1901,1e-306,1.05,1.01", "1902,1e-300,1.05,1.01")
_BIG_CELL = "9" * 140_000  # over the csv module's field limit
_NOT_UTF8 = "SchemaError: file is not UTF-8 text (invalid start byte at offset 0)"
_TOO_BIG = "SchemaError: line 2: field larger than field limit (131072)"
_NON_FINITE = "NonFiniteMoment: a sample moment is not finite: values span too wide a range"
_REGION = "leave the region [2.22507e-308, 10]"
_NO_PROJECTION = "InputError: projection file not found: projection.csv"
_NON_POSITIVE = "NonPositiveValue: annual series values must be positive and finite"
_CONFIG = ["--config", "config.json"]

# Each run of main that ends in a typed error: the files it writes in its
# working directory, its argv, the exit code, and stderr's one line after
# "error: ". A line ending in "..." is matched up to there, where Python
# (the JSON decoder, the recursion limit) words the rest.
_ERRORS = {
    "ingest-missing-dataset": ({}, ["ingest", "--dataset", "missing.csv"], 1,
                               "InputError: dataset file not found: missing.csv"),
    # a directory (like any OSError on open) is an input problem, not a traceback
    **{f"{kind}-is-a-directory": ({}, ["classify", f"--{kind}", "."], 1,
                                  f"InputError: cannot read {kind} file '.': Is a directory")
       for kind in ("dataset", "projection", "config")},
    "ingest-gapped": ({"gapped.csv": GAPPED}, ["ingest", "--dataset", "gapped.csv"], 1,
                      "MissingYear: line 7: year 1906 does not follow 1904 (series must be contiguous)"),
    # float() parses nan and inf; they must fail as input, not reach the
    # moments (where NaN would print as invalid JSON or fail as exit 2)
    **{f"non-finite-{column}-{value}": (
        {"input.csv": csv_text(_cell("1900,100.0,1.05,1.01", at, value), "1901,101.0,1.05,1.01")},
        ["ingest", "--format", "json", "--dataset", "input.csv"], 1,
        f"SchemaError: line 2: non-numeric cell (invalid literal for int() with base 10: {value!r})"
        if at == 0 else "NonPositiveValue: line 2: non-positive or non-finite value in year 1900")
       for at, column in enumerate(HEADER.split(",")) for value in ("nan", "inf", "-inf")},
    **{f"non-finite-{column}-{value}": (
        {"input.csv": csv_text(_cell("515.4,613.7,150,219441872", at, value), header=PROJECTION_HEADER)},
        ["calibrate", "--projection", "input.csv"], 1,
        f"NonPositiveValue: {field} must be positive and finite")
       for at, (column, field) in enumerate(zip(PROJECTION_HEADER.split(","), ProjectionInputs._fields))
       for value in ("nan", "inf", "-inf")},
    # a file that is not UTF-8, or a cell over the csv field limit, is an
    # input error (exit 1), not a decoding message or a traceback
    "dataset-not-utf8": (
        {"input.csv": b"\xff\xfe" + csv_text("1900,100,1.05,1.01", "1901,101,1.05,1.01").encode()},
        ["calibrate", "--dataset", "input.csv"], 1, _NOT_UTF8),
    "projection-not-utf8": (
        {"input.csv": b"\xff\xfe" + f"{PROJECTION_HEADER}\n100,613.7,150,219441872\n".encode()},
        ["calibrate", "--projection", "input.csv"], 1, _NOT_UTF8),
    "dataset-oversized-cell": (
        {"input.csv": csv_text(f"1900,{_BIG_CELL},1.05,1.01", "1901,101,1.05,1.01")},
        ["calibrate", "--dataset", "input.csv"], 1, _TOO_BIG),
    "projection-oversized-cell": (
        {"input.csv": csv_text(f"{_BIG_CELL},613.7,150,219441872", header=PROJECTION_HEADER)},
        ["calibrate", "--projection", "input.csv"], 1, _TOO_BIG),
    "degenerate": ({"degenerate.csv": DEGENERATE},
                   ["calibrate", "--dataset", "degenerate.csv", "--beta", "1.0"], 2,
                   "DegenerateSystem: consistency gap is zero to machine precision: eq C is exactly "
                   "eq B - eq A, every rho solves the system, no unique triple exists"),
    # a finite but huge consumption cell drives xi to 0.0 in floating point
    "factor-underflow": (
        {"huge.csv": csv_text(*(f"{1900 + i},{1e308 if i == 3 else 100.0 + i},1.05,1.01"
                                for i in range(6)))},
        ["calibrate", "--dataset", "huge.csv"], 2,
        f"NoConvergence: closed-form factors (6.4886e+256, 0) {_REGION}"),
    # equity returns of 1e13 at rho near 55 put both factors below the
    # smallest normal float: digits lost, so no residual could be trusted
    **{f"{command}-subnormal-factors": (
        {"wild.csv": csv_text(*(f"{1900 + i},{1.0 + i % 2},1e13,1.0" for i in range(40)))},
        [command, "--dataset", "wild.csv", "--variant", "realized", "--rho", "54.996"], 2,
        f"NoConvergence: closed-form factors (3.51755e-317, 1.22141e-315) {_REGION}")
       for command in ("calibrate", "classify")},
    **{f"{command}-non-finite-moments": ({"wide.csv": _WIDE}, [command, "--dataset", "wide.csv"], 2,
                                         _NON_FINITE)
       for command in ("ingest", "calibrate", "classify")},
    # (1 - rho) ln c = -59 * ln(1e-300) is past exp's range: a typed
    # computation error, not an OverflowError traceback
    **{f"utility-overflow{name}": (
        {"tiny.csv": csv_text(*(f"{1900 + i},{1.001e-300 if i % 2 else 1e-300},1.05,1.01"
                                for i in range(4)))},
        ["classify", "--dataset", "tiny.csv", "--rho", "60", "--variant", "realized", *eta], 2,
        "UtilityOverflow: utility leaves the floating-point range (exponent 40755.8 at 1 - rho = -59)")
       for name, eta in (("", []), ("-custom-eta", ["--eta", "0.9"]))},
    # beta * eta * E[u] passes the float range: a typed error, not an
    # Infinity in the JSON
    "huge-eta": ({}, ["classify", "--group", "one", "--eta", "1e308", "--variant", "realized",
                      "--format", "json"], 2,
                 "UtilityOverflow: uncertain utility leaves the floating-point range "
                 "(beta 0.99 * eta 1e+308 * E[u] 6.50407)"),
    # -ln beta is past exp's range, so both factors are far above the region
    "calibrate-tiny-beta": ({}, ["calibrate", "--beta", "1e-320", "--variant", "realized"], 2,
                            f"NoConvergence: closed-form factors (inf, inf) {_REGION}"),
    "classify-tiny-beta": ({}, ["classify", "--beta", "5e-324"], 2,
                           f"NoConvergence: closed-form factors (inf, inf) {_REGION}"),
    # log growth about 12.5 a year at rho = 60 puts both log-factors past exp's range
    "large-growth": (
        {"growth.csv": csv_text(*(f"{1900 + i},{math.exp(12.5 * i + 0.1 * (i % 2))!r},1.05,1.01"
                                  for i in range(6)))},
        ["calibrate", "--dataset", "growth.csv", "--rho", "60", "--variant", "realized"], 2,
        f"NoConvergence: closed-form factors (inf, inf) {_REGION}"),
    # every input is read before any moment is computed, so a bad projection
    # exits 1 even when the realized moments would overflow (exit 2)
    **{f"{projection}-projection-before-moments-{variant}": (
        {"wide.csv": _WIDE,
         **({"projection.csv": csv_text(cells, header=PROJECTION_HEADER)} if cells else {})},
        ["calibrate", "--variant", variant, "--dataset", "wide.csv",
         "--projection", "projection.csv"], 1, message)
       for projection, cells, message in (("missing", None, _NO_PROJECTION),
                                          ("overflow", "1e308,1e308,150,219441872", _NON_POSITIVE),
                                          ("underflow", "1e-300,1e-300,1e300,1e300", _NON_POSITIVE))
       for variant in ("projected", "both")},
    # the projected moments overflow (the bundled 1978 projection over
    # 1e-306) and the realized calibration fails; under both every variant's
    # moments come before any calibration, so the moment error wins
    **{f"phase-order-{variant}": ({"tiny.csv": _TINY}, ["calibrate", "--dataset", "tiny.csv",
                                                        "--variant", variant], 2, message)
       for variant, message in (
           ("projected", _NON_FINITE), ("both", _NON_FINITE),
           ("realized", f"NoConvergence: closed-form factors (1.45004e-31, 0) {_REGION}"))},
    "calibrate-beta-zero": ({}, ["calibrate", "--beta", "0"], 1,
                            "InputError: beta must be in (0, 1], got 0.0"),
    "calibrate-rho-61": ({}, ["calibrate", "--rho", "61"], 1,
                         "InputError: rho 61.0 outside the supported range [0, 60]"),
    **{f"{source}-{name}-{value}": (*_given(source, name, float(value)), 1,
                                    f"InputError: {name} must be finite, got {value}")
       for source in ("flag", "config") for name in ("beta", "tol", "eta", "rho")
       for value in ("nan", "inf", "-inf")},
    # checked in build_config, by the same functions the library calls
    **{f"{source}-{name}-{value}": (*_given(source, name, value), 1, f"InputError: {message}")
       for source in ("flag", "config") for name, value, message in (
           ("beta", 0.0, "beta must be in (0, 1], got 0.0"),
           ("beta", 1.5, "beta must be in (0, 1], got 1.5"),
           ("tol", -1e-12, "tol must be >= 0, got -1e-12"),
           ("eta", 0.0, "eta must be positive, got 0.0"),
           ("eta", -1.0, "eta must be positive, got -1.0"),
           ("rho", -0.5, "rho -0.5 outside the supported range [0, 60]"),
           ("rho", 60.5, "rho 60.5 outside the supported range [0, 60]"))},
    "eta-one": ({}, ["classify", "--eta", "1.0"], 2,
                "Unclassifiable: eta = 1 allocates no extra utility; "
                "no definition covers a nonzero utility gap without an allocation"),
    # at rho 2.0 the re-derived xi lifts the uncertain side above certain,
    # which no concave definition covers; the run must fail loudly
    "rho-override-uncovered": ({}, ["classify", "--rho", "2.0"], 2, "Unclassifiable: group two: "
                               "certain < uncertain matches no concave-curve definition"),
    "classify-missing-projection": ({}, ["classify", "--projection", "projection.csv"], 1,
                                    _NO_PROJECTION),
    # a run reads every input first, so a realized-only run reads a named
    # projection too, and a bad one exits 1
    **{f"{command}-realized-{source}-projection-{fault}": (
        {**files, **({} if source == "flag" else _config({"projection": "projection.csv"}))},
        [command, "--variant", "realized",
         *(["--projection", "projection.csv"] if source == "flag" else _CONFIG)], 1, message)
       for command in ("calibrate", "classify") for source in ("flag", "config")
       for fault, files, message in (
           ("missing", {}, _NO_PROJECTION),
           ("malformed", {"projection.csv": "a,b,c,d\n1,2,3,4\n"},
            f"SchemaError: expected header {PROJECTION_HEADER!r}, got 'a,b,c,d'"))},
    # paths are checked before choices and choices before numbers, whatever
    # the source of each value
    "choice-before-number": (_config({"group": "three", "beta": 2}), ["classify", *_CONFIG], 1,
                             "InputError: group must be one or two, got 'three'"),
    "path-before-choice": (_config({"projection": 5, "format": "xml"}), ["classify", *_CONFIG], 1,
                           "InputError: projection must be a path string, got 5"),
    "config-choice-before-flag-number": (
        _config({"variant": "none"}), ["classify", *_CONFIG, "--beta", "2"], 1,
        "InputError: variant must be realized, projected, or both, got 'none'"),
    "config-unknown-key": (_config({"betas": 0.5}), ["calibrate", *_CONFIG], 1,
                           "InputError: unknown config keys: ['betas']"),
    "config-malformed": ({"config.json": "{not json"}, ["calibrate", *_CONFIG], 1,
                         "InputError: config file is not valid JSON: ..."),
    "config-not-object": ({"config.json": "[1, 2]"}, ["calibrate", *_CONFIG], 1,
                          "InputError: config file must hold a JSON object"),
    "config-missing": ({}, ["calibrate", *_CONFIG], 1, "InputError: config file not found: config.json"),
    # each config value is checked in build_config, and the file decoded in
    # _load_config_file, so a bad one is a typed error naming the key
    **{f"config-{name}": ({"config.json": content}, ["classify", *_CONFIG], 1, f"InputError: {message}")
       for name, content, message in (
           ("list", '{"beta": [1]}', "beta must be a number, got [1]"),
           ("dict", '{"eta": {}}', "eta must be a number, got {}"),
           ("text", '{"beta": "abc"}', "beta must be a number, got 'abc'"),
           ("huge-int", '{"beta": 1' + "0" * 400 + "}", "beta must be finite, got 1" + "0" * 400),
           ("int-path", '{"dataset": 5}', "dataset must be a path string, got 5"),
           ("nul-path", '{"projection": "a\\u0000b"}',
            "projection must be a path string, got 'a\\x00b'"),
           # open() cannot encode a lone surrogate that surrogateescape does not make
           ("surrogate-path", '{"dataset": "\\ud800"}', "dataset must be a path string, got '\\ud800'"),
           ("low-surrogate-path", '{"projection": "a\\udc7fb"}',
            "projection must be a path string, got 'a\\udc7fb'"),
           ("not-utf8", b'\xff\xfe{"beta": 0.5}',
            "config file is not UTF-8 text (invalid start byte at offset 0)"),
           # the offset counts the byte order mark, as for a dataset file
           ("bom-not-utf8", b'\xef\xbb\xbf{"beta": \xff}',
            "config file is not UTF-8 text (invalid start byte at offset 12)"),
           # one mark is dropped; json rejects a second
           ("two-boms", b'\xef\xbb\xbf\xef\xbb\xbf{"beta": 0.5}',
            "config file is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)..."),
           ("deep", "[" * 100_000, "config file is not valid JSON: maximum recursion depth exceeded..."),
           # argparse rejects a bad choice flag first, so only a config reaches these
           ("group", '{"group": "three"}', "group must be one or two, got 'three'"),
           ("variant", '{"variant": "none"}',
            "variant must be realized, projected, or both, got 'none'"),
           ("format", '{"format": "xml"}', "format must be text, csv, or json, got 'xml'"))},
    # float() takes True and False as 1 and 0, which are in range for some keys
    **{f"config-{name}-{value}": (_config({name: value}), ["calibrate", *_CONFIG], 1,
                                  f"InputError: {name} must be a number, got {value}")
       for name in ("beta", "rho", "eta", "tol") for value in (True, False)},
    # a JSON string is not a number, though float() would read this one
    **{f"config-{name}-string": (_config({name: "0.5"}), ["calibrate", *_CONFIG], 1,
                                 f"InputError: {name} must be a number, got '0.5'")
       for name in ("beta", "rho", "tol", "eta")},
}


@pytest.mark.parametrize("files, argv, code, line", _ERRORS.values(), ids=_ERRORS)
def test_error_exit(capsys, monkeypatch, tmp_path, files, argv, code, line):
    monkeypatch.delenv(ENV_DATASET, raising=False)
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    got = run(capsys, *argv)
    head = line.removesuffix("...")
    if head != line and got[2].startswith(f"error: {head}") and got[2].count("\n") == 1:
        got = (*got[:2], f"error: {line}\n")  # Python words the rest
    assert got == (code, "", f"error: {line}\n")


def test_bad_flag_value(capsys):
    # argparse rejects bad choices and a missing command itself; a usage
    # error is an input problem
    for argv, fragment in (
        (["classify", "--group", "three"], "--group"),
        ([], "rac: error: the following arguments are required: command"),
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, value",
    [("calibrate", "--tol", "-1e-3"), ("calibrate", "--beta", "-inf"),
     ("calibrate", "--rho", "-1e5"), ("classify", "--eta", "-NaN")],
)
def test_negative_value_after_a_space_is_a_value(capsys, command, option, value):
    # argparse takes "-1e-3" or "-inf" for an option unless the parser widens
    # its private negative-number pattern; this fails if a Python ignores that
    spaced = run(capsys, command, option, value)
    assert spaced == run(capsys, command, f"{option}={value}")
    code, out, err = spaced
    assert (code, out) == (1, "")
    assert err.startswith(f"error: InputError: {option[2:]} ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--bogus", "-1"], ["-x"]])
def test_unknown_option_is_still_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(["calibrate", *argv])
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv)}\n" in captured.err


_HELP_OPTIONS = [
    ("-h, --help", "show this help message and exit"),
    ("--dataset DATASET", "market data CSV (default: $RAC_DATASET or bundled)"),
    ("--projection PROJECTION", "projection inputs CSV (default: bundled)"),
    ("--beta BETA", "subjective discount factor (default 0.99)"),
    ("--group {one,two}", "definition group (default two)"),
    ("--tol TOL", "risk-neutrality tolerance (default 1e-9)"),
    ("--variant {realized,projected,both}", "final-year variant(s) to run (default both)"),
    ("--eta ETA", "override the sufficiency factor"),
    ("--rho RHO", "override the risk-aversion coefficient"),
    ("--format {text,csv,json}", "output format (default text)"),
    ("--config CONFIG", "JSON config file (flags win over its values)"),
]


@pytest.mark.parametrize("command", ["ingest", "calibrate", "classify"])
def test_help_lists_each_option(capsys, monkeypatch, command):
    # wide enough that no help text wraps; an option whose flag and metavar
    # are too long for the help column still puts its help on the next line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    entries: list[str] = []
    for line in capsys.readouterr().out.split("\noptions:\n")[1].splitlines():
        if line.startswith("  -"):
            entries.append(line.strip())
        else:
            entries[-1] += "  " + line.strip()
    # ingest reads the realized dataset only, so it takes no --projection or --variant
    skip = ("--projection", "--variant") if command == "ingest" else ()
    want = [entry for entry in _HELP_OPTIONS if entry[0].split()[0] not in skip]
    assert [tuple(re.split(r"\s{2,}", entry, maxsplit=1)) for entry in entries] == want


# -- any flags ----------------------------------------------------------------

_RAC_ERRORS = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.RacError)
}
# Each flag with ordinary values and adversarial ones: NaN, negative zero,
# huge, subnormal, unparseable and out-of-range numbers, and bad choices.
_ADVERSARIAL = ["nan", "-0", "1e308", "1e-320", "5e-324", "inf", "-inf", "-1", "0", "abc"]
_FLAG_VALUES = {
    "--beta": ["0.99", "1", "0.5", *_ADVERSARIAL],
    "--tol": ["1e-9", "0.1", "1e3", *_ADVERSARIAL],
    "--eta": ["0.9", "1", "1.05", "10", *_ADVERSARIAL],
    "--rho": ["0.5", "1", "2", "60", "61", *_ADVERSARIAL],
    "--group": ["one", "two", "three", ""],
    "--variant": ["realized", "projected", "both", "none"],
    "--format": ["text", "csv", "json", "xml"],
}
_FLAG_PAIR = st.one_of(
    *(st.tuples(st.just(flag), st.sampled_from(values)) for flag, values in _FLAG_VALUES.items())
)
_ARGV = st.builds(
    lambda command, pairs: [command, *(token for pair in pairs for token in pair)],
    st.sampled_from(["ingest", "calibrate", "classify"]),
    st.lists(_FLAG_PAIR, max_size=5),
)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300)
@given(argv=_ARGV)
@example(argv=["classify", "--group", "one", "--eta", "1e308", "--variant", "realized",
               "--format", "json"])
@example(argv=["calibrate", "--beta", "1e-320", "--variant", "realized"])
def test_main_on_any_flags_exits_cleanly(argv):
    # on the bundled data every flag combination ends in 0, a typed error
    # (exit 1 or 2, one "error: <RacError subclass>: ..." line, no output) or
    # an argparse usage error (SystemExit 1); JSON output is standard JSON
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 1
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert err.startswith("error: ") and err.split(": ")[1] in _RAC_ERRORS
    else:
        assert err == ""
        if dict(zip(argv[1::2], argv[2::2])).get("--format") == "json":
            json.loads(out, parse_constant=_no_constant)


# -- one parse per command --------------------------------------------------

def _whole_parser():
    """main with no reader: make_parser().parse_args(argv) parses every call,
    and the same run follows."""
    return mock.patch.object(importlib.import_module("rac.cli"), "_read_plain", lambda argv: None)


# words that send main to the whole parser (help, no or an unknown command, an
# unknown option, a stray word or "--"), and prefixes of options
_STRAY_WORDS = [("-h",), ("--help",), ("--he",), ("--",), ("bogus",), ("Classify",), ("-x",),
                ("--bogus",), ("extra",), ("classify",), ("ingest",), ("-",), ("-1",),
                ("--r", "2"), ("--proj", "x"), ("--conf", "x")]


def _insert(argv, inserts):
    for at, words in inserts:
        argv[at:at] = words
    return argv


_ANY_ARGV = st.one_of(
    st.just([]),
    _ARGV,
    st.builds(_insert, _ARGV, st.lists(st.tuples(st.integers(0, 11), st.sampled_from(_STRAY_WORDS)),
                                       min_size=1, max_size=3)),
)
# each edge example runs at each of these terminal widths, which help and
# usage lines wrap to
_COLUMNS = ["40", "80", "200"]


def _with_edge_examples(test):
    for argv in reversed(_EDGE_ARGV):
        for columns in reversed(_COLUMNS):
            test = example(argv=argv, columns=columns)(test)
    return test


@settings(max_examples=300)
@given(argv=_ANY_ARGV, columns=st.sampled_from(_COLUMNS))
@_with_edge_examples
def test_main_matches_the_whole_parser(argv, columns):
    # reading a plain argv without argparse changes no exit code and no byte
    # of stdout or stderr, help and usage errors included, at any width
    with mock.patch.dict(os.environ, {"COLUMNS": columns}):
        got = _outcome(argv)
        with _whole_parser():
            want = _outcome(argv)
    assert got == want


# every flag of every command, then help, a prefix and words argparse treats
# apart: "-", "--" and "--NAME=VALUE"
_FLAG_WORDS = [*sorted({flag for flags in _FLAGS.values() for flag in flags}),
               "-h", "--help", "--r", "-", "--", "--rho=1"]
# any of those, each flag value above, an empty and a blank word, numbers
# that float reads unlike a decimal (1_0, an Arabic-Indic one, NaN, inf), and text
_WORD = st.one_of(
    st.sampled_from([*_FLAG_WORDS, *(v for vs in _FLAG_VALUES.values() for v in vs),
                     "", " ", "1_0", "\u0661", "NaN", "1e999", "copy.csv"]),
    st.text(max_size=3),
)


@settings(max_examples=500)
@given(command=st.sampled_from(["ingest", "calibrate", "classify"]),
       pairs=st.lists(_FLAG_PAIR | st.tuples(st.sampled_from(_FLAG_WORDS), _WORD), max_size=4))
@example(command="classify", pairs=[("--dataset", "--format")])
@example(command="calibrate", pairs=[("--config", "--rho=1")])
def test_plain_reader_matches_argparse(command, pairs):
    # wherever main reads an argv without argparse, it gets the namespace the
    # whole parser gives; a value that starts with "-" is argparse's to read.
    # repr tells a str from a float and -0.0 from 0.0, and reads NaN as NaN
    argv = [command, *(word for pair in pairs for word in pair)]
    read = _read_plain(argv)
    if read is None:
        return
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            args = make_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refused what the reader read: {err.getvalue()}")
    assert {k: repr(v) for k, v in vars(read).items()} == {k: repr(v) for k, v in vars(args).items()}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_sweep_and_config_grid_print_as_flags(monkeypatch, tmp_path, fmt):
    # each sweep argv in this format prints, byte for byte, what its options
    # print from a config file, and what the golden file of the same run
    # holds; each config of numbers prints what the same flags print, and
    # each other config its one pinned line
    monkeypatch.delenv(ENV_DATASET, raising=False)
    config = tmp_path / "config.json"

    def run_of(argv):
        return argv[0], build_config(make_parser().parse_args(argv))

    golden = {run_of(argv): name for name, argv in CASES.items()}
    codes = []
    for argv in (argv for argv in _sweep_grid() if argv[argv.index("--format") + 1] == fmt):
        flags = _outcome(argv)
        words = dict(zip(argv[1::2], argv[2::2]))
        config.write_text(json.dumps({key[2:]: json.loads(word) if key in ("--rho", "--eta")
                                      else word for key, word in words.items()}))
        assert _outcome([argv[0], "--config", str(config)]) == flags, argv
        name = golden.get(run_of(argv))
        if name is not None:
            assert flags == (("return", 0), (GOLDEN / f"{name}.out").read_text("utf-8"), ""), argv
        codes.append(flags[0][1])
    assert (codes.count(0), codes.count(2)) == (168, 12)
    for text, error in _CONFIG_GRID.items():
        config.write_text(text)
        flags = [word for key, value in json.loads(text).items() for word in (f"--{key}", str(value))]
        for command in ("ingest", "calibrate", "classify"):
            got = _outcome([command, "--format", fmt, "--config", str(config)])
            if error is None:
                assert got == _outcome([command, "--format", fmt, *flags]), (text, command)
            else:
                assert got == (("return", 1), "", f"error: {error}\n"), (text, command)


@pytest.mark.parametrize("argv", [["classify", "--bogus"], ["--help"], ["ingest", "--format", "csv"],
                                  ["calibrate", "--rho=2"]])
def test_cold_entry_point_reads_sys_argv(monkeypatch, tmp_path, argv):
    # python -m rac.cli calls main() with no argv, so it reads sys.argv[1:]
    monkeypatch.setenv("COLUMNS", "80")
    cold = subprocess.run(
        [sys.executable, "-m", "rac.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    (_, code), out, err = _outcome(argv)
    assert (cold.returncode, cold.stdout, cold.stderr) == (code, out, err)


# -- repeated calls in one process -------------------------------------------

# A reuse scenario is a list of steps: a call of main (_call), a file written,
# or deleted when its content is None (_File), or a setting (_Set): RAC_DATASET,
# unset when None, or rac.cli's _KEPT_RESULTS, the store's bound.
_Call = namedtuple("_Call", "argv work code err same differs")
_File = namedtuple("_File", "name content")
_Set = namedtuple("_Set", "name value")
# Each work column and the function it counts wherever rac binds it, one per
# call; compute_variant_moments counts its finals; compute_moments must stay 0
_COUNTED = {
    "decode": ds.read_text, "parse": ds.load_dataset, "moments": compute_variant_moments,
    "project": ds.projected_consumption, "calibrate": calibrate_variant, "rows": classify_pipeline,
    "parsers": argparse.ArgumentParser.__init__, "compute_moments": compute_moments,
    "check_beta": check_beta, "check_rho": check_rho, "check_eta": check_eta, "check_tol": check_tol,
}


def _call(words, code=0, err="", same=None, differs=None, checks=(0, 0, 0, 0), **work):
    """`rac WORDS` and its work in _COUNTED's columns, 0 in each it leaves out;
    `checks` counts check_beta, check_rho, check_eta and check_tol. It exits
    `code`, with stderr from "error: ERR" if not 0; `same` and `differs` name
    an earlier call of the scenario, from 0, whose outcome it is or is not."""
    work.update(zip(("check_beta", "check_rho", "check_eta", "check_tol"), checks))
    return _Call(words.split(), {name: n for name, n in work.items() if n}, code, err, same, differs)


# The work at a point new to the store. Each calibration checks beta and rho
# three times (solve_system, the closed form, system_residuals), and each row
# checks beta once, rho and eta twice and tol once.
_ONE = dict(calibrate=1, rows=2, checks=(5, 7, 4, 2))  # classify, one variant
_BOTH = dict(calibrate=2, rows=4, checks=(10, 14, 8, 4))  # classify, both variants
_CAL1 = dict(calibrate=1, checks=(3, 3, 0, 0))  # calibrate, one variant
_CAL2 = dict(calibrate=2, checks=(6, 6, 0, 0))  # calibrate, both variants
_ROWS = dict(rows=4, checks=(4, 8, 8, 4))  # classify, both variants calibrated before
_NEW = dict(_BOTH, decode=1, parse=1, moments=2, project=1)  # classify on a new series
_NEW_CAL = dict(_CAL2, decode=1, parse=1, moments=2, project=1)  # calibrate on a new series
_COLD = dict(_NEW, decode=2)  # a first classify, which reads the bundled projection
_FAILING = dict(code=2, err="Unclassifiable: group two: ", rows=1, checks=(1, 2, 2, 1))
_BUNDLED = serialize_dataset(load_bundled_dataset())
_COPY = _File("copy.csv", _BUNDLED)
_TWO_YEARS = csv_text("1900,100.0,1.05,1.01", "1901,110.0,1.05,1.01").encode()


def _final(value) -> bytes:
    """The bundled file with `value` as its final (1978) consumption."""
    return _BUNDLED.replace(b"\n1978,3450.0,", f"\n1978,{value!r},".encode())


def _projection(population):
    return _File("projection.csv", f"{PROJECTION_HEADER}\n515.4,613.7,150,{population}\n".encode())


# Each scenario of repeated calls in one process, and what each call may skip
_REUSE = {
    # every command, variant, format and group, with and without --rho 5 and
    # --eta 1.05, after calls that computed each point: none computes again,
    # but group two at rho 5 is unclassifiable, and its failing row is redone
    "warm-grid": [
        _call("ingest", decode=1, parse=1, moments=1),
        _call("calibrate", decode=1, project=1, moments=1, **_CAL2),
        _call("classify --group one", **_ROWS),
        _call("classify --group one --rho 5", **_BOTH),
        _call("classify --group two", **_ROWS),
        *(_call(f"classify --group {group} --eta 1.05", rows=2, checks=(2, 4, 4, 2))
          for group in ("one", "one --rho 5", "two")),
        *(_call(" ".join(argv), **(_FAILING if argv[0] == "classify" and {"5", "two"} <= {*argv} else {}))
          for argv in _WARM_GRID),
    ],
    # a named file is read on every call and keyed by its bytes, not its path:
    # a deleted, invalid or undecodable one fails as in a fresh process; other
    # line ends or a byte order mark are parsed afresh and print the same; a
    # same-length edit of the final year or an early one (same keys) does not
    **{name: [_COPY, _call("classify --dataset copy.csv", **_COLD), _File(path, content),
              _call(f"classify --dataset {path}", **work)]
       for name, path, content, work in (
           ("file-deleted", "copy.csv", None, dict(code=1, err="InputError: dataset file not found")),
           ("file-invalid", "copy.csv", _BUNDLED.replace(b"\n1890,", b"\n1891,"),
            dict(code=1, err="MissingYear: line 3", decode=1, parse=1)),
           ("file-not-utf8", "copy.csv", b"\xff" + _BUNDLED, dict(code=1, err=_NOT_UTF8, decode=1, parse=1)),
           ("same-bytes-another-path", "second.csv", _BUNDLED, dict(same=0)),
           ("resaved-crlf", "copy.csv", _BUNDLED.replace(b"\n", b"\r\n"), dict(_NEW, same=0)),
           ("resaved-bom", "copy.csv", b"\xef\xbb\xbf" + _BUNDLED, dict(_NEW, same=0)),
           ("resaved-digit", "copy.csv", _final(3450.1), dict(_NEW, differs=0)),
           ("edited-dataset", "copy.csv", _BUNDLED.replace(b"\n1890,784.3,", b"\n1890,784.4,"),
            dict(_NEW, differs=0)))},
    # no error is kept: moments that are not finite fail on every call
    "no-error-kept": [_File("wide.csv", _WIDE.encode()), *(
        _call("calibrate --dataset wide.csv", code=2, err=_NON_FINITE, moments=2, **work)
        for work in (dict(decode=2, parse=1, project=1), {}))],
    # group two's third row fails at rho 2: a repeat reuses the rows before
    # it and computes only that one again; "--r", an abbreviation, goes
    # through argparse, whose whole parser and its 3 subparsers are built
    # once per process
    "failing-point": [
        _call("classify --rho 2", code=2, err=_FAILING["err"], **dict(_COLD, rows=3, checks=(9, 12, 6, 3))),
        _call("classify --rho 2", **_FAILING, same=0),
        _call("classify --r 2", **_FAILING, parsers=4, same=0),
        _call("classify --r 2", **_FAILING, same=0),
        _call("classify --rho 1", **_BOTH),
    ],
    # points that share all but one field of a key: beta under a fixed eta,
    # so each row's eta and rho repeat; and the variants of a series whose
    # final consumption is the projected one, so they share their final
    "every-key-field": [
        _call("classify --eta 1.05 --beta 1", **dict(_COLD, rows=2, checks=(8, 10, 4, 2))),
        _call("classify --eta 1.05 --beta 0.9", calibrate=2, rows=2, checks=(8, 10, 4, 2)),
        _File("copy.csv", _final(ds.projected_consumption(*ds.load_bundled_projection()))),
        *(_call(f"classify --dataset copy.csv --group one --variant {variant}", **work) for variant, work in (
            ("realized", dict(_ONE, decode=1, parse=1, moments=1)), ("projected", dict(_ONE, project=1)),
            ("both", {}), ("realized --rho 2", _ONE), ("projected --rho 2", _ONE), ("both --rho 2", {}))),
    ],
    # the store holds at most _KEPT_RESULTS values and no dataset; a new
    # series empties it, one that is not full too
    "bound-series": [
        _Set("_KEPT_RESULTS", 5), _COPY,
        _call("calibrate --variant realized", decode=1, parse=1, moments=1, **_CAL1),
        *(step for population in range(219441872, 219441877) for step in (
            _projection(population),
            _call("calibrate --projection projection.csv --dataset copy.csv", **dict(_NEW_CAL, decode=2)),
            _call("calibrate --projection projection.csv", **dict(_NEW_CAL, parse=0)))),
        _call("calibrate --variant realized --dataset copy.csv", decode=1, parse=1, moments=1, **_CAL1),
        _File("other.csv", _TWO_YEARS),
        _call("ingest --dataset other.csv", decode=1, parse=1, moments=1),
    ],
    # more distinct rho values than the bound: a full store is emptied, so a
    # point computes its variant's moments, or its projected final, again
    # once an earlier point has emptied them
    "bound-points": [_Set("_KEPT_RESULTS", 5), *(
        _call(f"classify --group one --variant {variant} --rho {rho}", **_ONE, **work)
        for variant, rho, work in (
            ("realized", 0, dict(decode=1, parse=1, moments=1)),
            *(("realized", rho, dict(moments=int(rho in (2, 3, 5)))) for rho in range(1, 6)),
            ("projected", 0, dict(decode=1, project=1, moments=1)),
            *(("projected", rho, dict(project=1, moments=1)) for rho in (1, 2))))],
    # the projected final is kept under its four inputs, bundled or from a
    # file, until the file's numbers change
    **{f"projection-once-{name}": [
        _projection(219441872), _call(f"calibrate {flag}", **dict(_NEW_CAL, decode=2)),
        _call(f"classify {flag}", decode=read, **_ROWS),
        _call(f"classify --rho 1 {flag}", decode=read, **_BOTH),
        _call(f"classify --variant projected --format json {flag}", decode=read),
        _call(f"calibrate {flag}", decode=read, same=0),
        _projection(219441873),
        _call(f"calibrate {flag}", **(dict(_CAL1, decode=1, project=1, moments=1, differs=0) if read
                                      else dict(same=0))),
    ] for name, flag, read in (("bundled", "", 0), ("file", "--projection projection.csv", 1))},
    # each switch between the bundled data and a user file builds the new
    # series afresh; the bundled file itself is parsed once per process
    "alternating": [
        _File("copy.csv", _final(3450.1)), _call("classify", **_COLD),
        _call("classify --dataset copy.csv", **_NEW, differs=0),
        _call("classify", **dict(_NEW, decode=0, parse=0), same=0),
        _call("classify --dataset copy.csv", **_NEW, same=1),
    ],
    # a user file is read on each call, so an edit between two calls shows in
    # the second; a RAC_DATASET copy of the bundled file is a user file
    "user-files": [
        _File("data.csv", _TWO_YEARS),
        _call("ingest --dataset data.csv", decode=1, parse=1, moments=1),
        _File("data.csv", _TWO_YEARS.replace(b"110.0", b"120.0")),
        _call("ingest --dataset data.csv", decode=1, parse=1, moments=1, differs=0),
        _COPY, _Set(ENV_DATASET, "copy.csv"), _call("calibrate", **dict(_NEW_CAL, decode=2)),
        _File("copy.csv", _final(3500.0)), _call("calibrate", **_NEW_CAL, differs=2),
        _Set(ENV_DATASET, None), _call("calibrate", **_NEW_CAL, same=2),
        # the file's numbers are the bundled projection's, so its final is kept
        *(step for variant, population, work in (
            ("projected", 219441872, dict(rows=1, checks=(1, 2, 2, 1))),
            ("projected", 2 * 219441872,
             dict(_CAL1, project=1, moments=1, rows=1, checks=(4, 5, 2, 1), differs=5)),
            ("both", 2 * 219441872, dict(rows=1, checks=(1, 2, 2, 1))), ("both", 219441872, dict(differs=7)))
          for step in (_projection(population), _call(
              f"classify --variant {variant} --eta 0.9 --projection projection.csv", decode=1, **work))),
    ],
    # checked values key the store: check_rho makes -0.0 0.0, and a tol of
    # -0.0 classifies as 0.0 does; a value that starts with "-" goes through
    # argparse, which builds the whole parser and its subparsers
    "negative-zero-rho": [_call("classify --group one --rho 0", **_COLD),
                          _call("classify --group one --rho -0", parsers=4, same=0)],
    "negative-zero-tol": [_call("classify", **_COLD), _call("classify --tol 0", **_ROWS),
                          _call("classify --tol -0", parsers=4, same=1)],
}


@pytest.fixture()
def work(monkeypatch):
    """A Counter of each _COUNTED column, its function wrapped wherever a rac
    module binds it. This module's imports bound the package's PEP 562 names,
    which cli._rac resolves calibrate_variant and classify_pipeline through."""
    counts = Counter()
    owners = [argparse.ArgumentParser, *(m for n, m in sys.modules.items() if n.partition(".")[0] == "rac")]
    for column, original in _COUNTED.items():
        def counted(*args, _column=column, _original=original, **kwargs):
            counts[_column] += len(args[1]) if _column == "moments" else 1
            return _original(*args, **kwargs)
        for owner in owners:
            if vars(owner).get(original.__name__) is original:
                monkeypatch.setattr(owner, original.__name__, counted)
    return counts


def _play(monkeypatch, tmp_path, work, steps):
    """Play a scenario twice, each in its own directory: cold, each call from
    cleared caches; warm, all in one process, each call printing what it
    printed cold, doing its work and leaving the store in its bound, with no
    dataset and no moments but its series' own."""
    cli = importlib.import_module("rac.cli")
    for warm in (False, True):
        with monkeypatch.context() as patch:
            where = tmp_path / str(warm)
            where.mkdir()
            patch.chdir(where)
            patch.delenv(ENV_DATASET, raising=False)
            _clear_caches()
            outcomes = []
            for step in steps:
                if type(step) is _File and step.content is None:
                    (where / step.name).unlink()
                elif type(step) is _File:
                    (where / step.name).write_bytes(step.content)
                elif type(step) is _Set and step.value is None:
                    patch.delenv(step.name)
                elif type(step) is _Set:
                    patch.setitem(os.environ if step.name == ENV_DATASET else vars(cli), *step)
                else:
                    if not warm:
                        _clear_caches()
                    work.clear()
                    outcomes.append(got := _outcome(step.argv))
                    if not warm:
                        continue
                    n, ((_, code), out, err) = len(outcomes) - 1, got
                    at = f"call {n}: rac {' '.join(step.argv)}"
                    assert got == cold[n] and dict(work) == step.work, at
                    assert (code, out if step.code else err) == (step.code, ""), at
                    assert err.startswith(f"error: {step.err}" if step.code else ""), at
                    assert step.same is None or got == outcomes[step.same], at
                    assert step.differs is None or got != outcomes[step.differs], at
                    series, store = cli._SERIES.series, cli._SERIES.store
                    kept = {final: m for final, m in store.items() if type(final) is float}
                    assert len(store) <= cli._KEPT_RESULTS, at
                    assert not any(isinstance(value, ds.MarketDataset) for value in store.values()), at
                    assert not kept or [*kept.values()] == compute_variant_moments(series, [*kept]), at
        cold = outcomes


@pytest.mark.parametrize("steps", _REUSE.values(), ids=_REUSE)
def test_reuse(monkeypatch, tmp_path, work, steps):
    _play(monkeypatch, tmp_path, work, steps)


def test_default_classify_check_counts(monkeypatch, tmp_path, work):
    # a cold classify checks each value it computes with (the counts in
    # _COLD); an identical second call reuses what it kept and checks nothing
    _play(monkeypatch, tmp_path, work, [_call("classify", **_COLD), _call("classify", same=0)])


def test_warm_main_rebuilds_nothing(monkeypatch, tmp_path, work):
    # the bundled inputs are read once per process, and a plain argv builds
    # no parser: a repeat of each command reads nothing
    _play(monkeypatch, tmp_path, work, [
        _call("ingest", decode=1, parse=1, moments=1), _call("ingest", same=0),
        _call("calibrate", decode=1, project=1, moments=1, **_CAL2), _call("calibrate", same=2),
        _call("classify", **_ROWS), _call("classify", same=4),
    ])


def test_bundled_moments_computed_once_per_process(monkeypatch, tmp_path, work):
    # the bundled variants' moments are computed once per process, and a
    # projection file's variant once per projected value, however often the
    # same content is read
    _play(monkeypatch, tmp_path, work, [
        _call("classify", **_COLD), _projection(219000000),
        _call("classify --projection projection.csv", decode=1, project=1, moments=1, **_ONE),
        _projection(219000000), _call("classify --projection projection.csv", decode=1, same=1),
    ])


def test_a_hit_neither_decodes_nor_parses(monkeypatch, tmp_path, work):
    # a user copy of the bundled file prints what the bundled data prints;
    # the same bytes written again are neither decoded nor parsed, and an
    # edit of the final year is parsed afresh
    _play(monkeypatch, tmp_path, work, [
        _call("classify", **_COLD), _COPY, _call("classify --dataset copy.csv", **_NEW, same=0),
        _COPY, _call("classify --dataset copy.csv", same=0),
        _File("copy.csv", _final(3500.0)), _call("classify --dataset copy.csv", **_NEW, differs=0),
    ])


def test_a_command_parses_its_words_once(capsys, monkeypatch):
    # on every grid point the whole parser is never called; any other argv
    # reaches it once, whole: an abbreviation runs as its flag, and words a
    # command does not take are reported under the whole parser's usage line
    monkeypatch.setenv("COLUMNS", "80")
    before = [run(capsys, *argv) for argv in _WARM_GRID]
    rho = _outcome(["classify", "--rho", "2"])
    parser = make_parser()
    calls = []
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv, _fn=parser.parse_args: calls.append(argv) or _fn(argv))
    assert _outcome(["classify", "--r", "2"]) == rho
    assert _outcome(["classify", "--bogus"]) == (
        ("SystemExit", 1), "",
        "usage: rac [-h] {ingest,calibrate,classify} ...\n"
        "rac: error: unrecognized arguments: --bogus\n")
    assert calls == [["classify", "--r", "2"], ["classify", "--bogus"]]

    def refuse(*args, **kwargs):
        raise AssertionError("the whole parser parsed a command's words")

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(parser, name, refuse)
    assert [run(capsys, *argv) for argv in _WARM_GRID] == before


def test_a_hit_does_not_copy_the_file(capsys, tmp_path):
    # a hit compares the file with the kept bytes chunk by chunk: its memory
    # peak is one chunk and the report, not the file's size
    import tracemalloc

    path = tmp_path / "long.csv"
    path.write_text(HEADER + "\n" + "".join(
        f"{1000 + i},{100 + i % 7:.15f},1.050000000000000,1.010000000000000\n"
        for i in range(50_000)))
    assert path.stat().st_size > 2 * 2**20  # twice the bound below
    argv = ["ingest", "--dataset", str(path), "--format", "json"]
    kept = run(capsys, *argv)
    tracemalloc.start()
    try:
        hit = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit == kept and kept[0] == 0
    assert peak < 2**20


def test_clear_caches_empties_every_store(capsys):
    # after runs that fill each per-process store, _clear_caches leaves no
    # parser, bundled input, series or kept value, so a cache it does not
    # reach fails here instead of leaking state between tests
    cli = importlib.import_module("rac.cli")
    make_parser()
    assert run(capsys, "classify")[0] == 0
    assert cli._SERIES.store
    _clear_caches()
    assert not any(vars(cli._SERIES).values()), vars(cli._SERIES)
    modules = [module for name, module in sys.modules.items() if name.startswith("rac.")]
    cached = {name: obj.cache_info().currsize for module in modules
              for name, obj in vars(module).items() if hasattr(obj, "cache_info")}
    assert set(cached) >= {"make_parser", "load_bundled_dataset", "load_bundled_projection"}
    assert set(cached.values()) == {0}, cached


# -- start-up -----------------------------------------------------------------

# Runs in a clean interpreter (python -S, so site loads nothing): imports
# rac.cli, then runs each of STEPS, and after the import and after each step
# prints the exit code, the modules of WATCH it finds loaded, and how many
# whole parsers are built. stdout and stderr are swapped for io.StringIO (io
# is loaded at start-up), so the probe itself loads nothing. collections is
# imported first (rac.cli loads it anyway), and what that import alone loads
# is left out: on CPython 3.13.13 it registers collections.abc.
_COLD_START = """\
import io, sys
before = set(sys.modules)
import collections
preloaded = set(sys.modules) - before
import rac.cli

def show(code):
    loaded = sorted(name for name in WATCH if name in sys.modules and name not in preloaded)
    print(code, loaded, rac.cli.make_parser.cache_info().currsize)

show(None)
for argv in STEPS:
    sys.stdout = sys.stderr = io.StringIO()
    try:
        code = rac.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    show(code)
"""
_WATCH = ["numpy", "dataclasses", "inspect", "json", "mmap", "pathlib", "typing", "collections.abc",
          "__future__", "hashlib", "random", "argparse", "shutil", "rac.calibration", "rac.classify",
          "rac.utility"]
_PHASES = ["rac.calibration", "rac.classify", "rac.utility"]
# each step; its exit code, the watched modules then loaded, and the number
# of whole parsers built
_COLD_START_TABLE = [
    (None, None, [], 0),  # import rac.cli
    # a plain argv is read without argparse, so no parser is built
    (["ingest"], 0, [], 0),
    # the second run finds the series the first kept, and compares it with
    # the file without mmap
    (["ingest", "--dataset", "copy.csv"], 0, [], 0),
    (["ingest", "--dataset", "copy.csv"], 0, [], 0),
    (["calibrate"], 0, ["rac.calibration"], 0),
    (["classify"], 0, _PHASES, 0),
    # json loads for JSON output only
    (["classify", "--format", "json"], 0, ["json", *_PHASES], 0),
    # an abbreviation goes to the whole parser, which loads argparse, and
    # argparse loads shutil for the help width when the parser is built
    (["classify", "--r", "2"], 2, ["argparse", "json", *_PHASES, "shutil"], 1),
    # a usage error reuses that parser
    (["classify", "--bogus"], 1, ["argparse", "json", *_PHASES, "shutil"], 1),
]


def test_a_cold_command_loads_only_what_it_uses(tmp_path, bundled_copy):
    # no numpy, no dataclasses (which loads inspect, ast and dis), no typing,
    # pathlib, collections.abc or __future__; a phase module only for a
    # command that runs it
    steps = [argv for argv, *_ in _COLD_START_TABLE[1:]]
    probe = subprocess.run(
        [sys.executable, "-S", "-c", f"WATCH = {_WATCH!r}\nSTEPS = {steps!r}\n{_COLD_START}"],
        env={**{k: v for k, v in os.environ.items() if k != ENV_DATASET}, "PYTHONPATH": str(SRC)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (probe.returncode, probe.stderr) == (0, "")
    assert probe.stdout.splitlines() == [
        f"{code} {loaded} {whole}" for _, code, loaded, whole in _COLD_START_TABLE]
