"""CLI behavior: subcommands, config precedence, exit codes, determinism."""

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
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rac import dataset as ds
from rac import ProjectionInputs, errors, load_bundled_dataset, parse_csv, parse_json
from rac.cli import ENV_DATASET, build_config, main, make_parser

from _runs import (CASES, GOLDEN, SRC, _CONFIG_GRID, _EDGE_ARGV, _WARM_GRID, _clear_caches,
                   _outcome, _sweep_grid)
from conftest import DEGENERATE, GAPPED, HEADER, PROJECTION_HEADER, csv_text, serialize_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- ingest -------------------------------------------------------------------

def test_ingest_default(capsys):
    code, out, err = run(capsys, "ingest")
    assert code == 0
    assert "90 years, 1889-1978" in out
    assert "mean gross consumption growth 1.018000" in out
    assert err == ""


def test_ingest_json(capsys):
    code, out, _ = run(capsys, "ingest", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["years"] == 90
    assert doc["start_year"] == 1889
    assert doc["end_year"] == 1978
    assert abs(doc["moments"]["mean_x"] - 1.018) < 1e-3
    assert list(doc["moments"]) == [
        "mu_x", "sigma2_x", "mean_x", "mean_Re", "mean_Rf", "mu_z", "sigma2_z"
    ]


def test_ingest_env_var_dataset(capsys, monkeypatch, bundled_copy):
    code_default, out_default, _ = run(capsys, "ingest")
    monkeypatch.setenv(ENV_DATASET, str(bundled_copy))
    code_env, out_env, _ = run(capsys, "ingest")
    assert (code_default, code_env) == (0, 0)
    assert out_env == out_default


def test_ingest_flag_beats_env(capsys, monkeypatch, bundled_copy, gapped_file):
    monkeypatch.setenv(ENV_DATASET, str(gapped_file))
    code, out, _ = run(capsys, "ingest", "--dataset", str(bundled_copy))
    assert code == 0
    assert "90 years" in out


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


def test_empty_env_dataset_is_unset(capsys, monkeypatch):
    # RAC_DATASET="" falls back to the bundled series, not to the path "" (the cwd)
    expected = run(capsys, "ingest")
    monkeypatch.setenv(ENV_DATASET, "")
    assert run(capsys, "ingest") == expected
    assert expected[0] == 0


# -- calibrate ----------------------------------------------------------------

def test_calibrate_text(capsys):
    code, out, _ = run(capsys, "calibrate")
    assert code == 0
    assert "realized: zeta 0.961746, xi 1.019366, rho 1.033526" in out
    assert "projected: zeta 0.961275, xi 1.018902, rho 1.008900" in out
    assert "consistency gap" in out


def test_calibrate_json(capsys):
    code, out, _ = run(capsys, "calibrate", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    cal = doc["calibration"]
    assert set(cal) == {"realized", "projected"}
    assert cal["realized"]["rho"] == 1.033526
    assert cal["projected"]["rho"] == 1.0089
    assert abs(cal["realized"]["zeta"] - 0.961745) < 1e-2
    assert abs(cal["realized"]["xi"] - 1.019392) < 1e-2
    assert len(cal["realized"]["residuals"]) == 3


def test_calibrate_csv(capsys):
    code, out, _ = run(capsys, "calibrate", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "variant,zeta,xi,rho,residual_a,residual_b,residual_c,consistency_gap"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "realized"
    assert abs(float(first[1]) - 0.961745) < 1e-2


def test_calibrate_single_variant(capsys):
    code, out, _ = run(capsys, "calibrate", "--variant", "realized", "--format", "json")
    assert code == 0
    assert set(json.loads(out)["calibration"]) == {"realized"}


@pytest.mark.parametrize("name, value", [("beta", "1"), ("tol", "0"), ("rho", "0"), ("rho", "60")])
def test_range_endpoints_accepted(capsys, name, value):
    code, _, err = run(capsys, "calibrate", f"--{name}={value}")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_zero_rho_is_zero(capsys, tmp_path, fmt):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rho": -0.0}))
    zero = run(capsys, "calibrate", "--format", fmt, "--rho", "0")
    assert zero[0] == 0
    assert run(capsys, "calibrate", "--format", fmt, "--rho", "-0") == zero
    assert run(capsys, "calibrate", "--format", fmt, "--config", str(config)) == zero


# -- classify -----------------------------------------------------------------

def test_classify_default_labels(capsys):
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert "Equity investors (eta = zeta)" in out
    assert "Risk-free investors (eta = xi)" in out
    assert out.count("Risk-averse") == 2
    assert out.count("Not enough risk-loving") == 2
    assert "7.103787" in out


def test_bundled_moments_computed_once_per_process(capsys, monkeypatch, tmp_path, bundled_copy):
    # the CLI takes every variant's moments from compute_variant_moments, one
    # call per run at most, and classify_pipeline reuses them; importlib,
    # because the package attribute rac.classify is the function
    cli = importlib.import_module("rac.cli")
    finals, calls = [], []
    shared = cli.compute_variant_moments
    monkeypatch.setattr(cli, "compute_variant_moments",
                        lambda d, v: finals.append(list(v)) or shared(d, v))
    classify_module = importlib.import_module("rac.classify")
    single = classify_module.compute_moments
    monkeypatch.setattr(classify_module, "compute_moments", lambda d: calls.append(d) or single(d))
    _clear_caches()
    for _ in range(2):
        assert run(capsys, "classify")[0] == 0
    realized = load_bundled_dataset().consumption[-1]
    projected = ds.projected_consumption(*ds.load_bundled_projection())
    assert finals == [[realized, projected]]
    # the bundled data with a projection file: its projected variant is built
    # once per projected value, however often the same content is read
    proj = tmp_path / "projection.csv"
    for _ in range(2):
        proj.write_text(f"{PROJECTION_HEADER}\n515.4,613.7,150,219000000\n")
        assert run(capsys, "classify", "--projection", str(proj))[0] == 0
    other = ds.projected_consumption(515.4, 613.7, 150, 219000000)
    assert finals == [[realized, projected], [other]]
    finals.clear()
    # a user file is parsed and its variants computed once per content: the
    # same text written again costs no parse and no moments, a changed one does
    loads = []
    parse = ds.load_dataset
    monkeypatch.setattr(ds, "load_dataset", lambda source: loads.append(source) or parse(source))
    content = bundled_copy.read_bytes()
    for _ in range(2):
        bundled_copy.write_bytes(content)
        assert run(capsys, "classify", "--dataset", str(bundled_copy))[0] == 0
    assert finals == [[realized, projected]]
    assert len(loads) == 1
    changed = ds.with_final_consumption(load_bundled_dataset(), 3500.0)
    bundled_copy.write_bytes(serialize_dataset(changed))
    assert run(capsys, "classify", "--dataset", str(bundled_copy))[0] == 0
    assert finals == [[realized, projected], [3500.0, projected]]
    assert len(loads) == 2
    assert calls == []


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


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["calibration"]) == {"realized", "projected"}
    rows = doc["classifications"]
    assert [r["investor"] for r in rows] == ["equity", "equity", "risk-free", "risk-free"]
    assert [r["label_text"] for r in rows] == [
        "Risk-averse", "Risk-averse",
        "Not enough risk-loving", "Not enough risk-loving",
    ]
    assert all(r["year_certain"] == 1977 for r in rows)


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    assert {r.label_text for r in rows} == {"Risk-averse", "Not enough risk-loving"}


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


def test_ingest_reads_no_projection(capsys, tmp_path):
    # the config keys are shared, and ingest does not read the projection one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"projection": "/no/such.csv"}))
    assert run(capsys, "ingest", "--config", str(config)) == run(capsys, "ingest")


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


# -- config file --------------------------------------------------------------

@pytest.fixture()
def option_files(tmp_path, bundled_copy):
    """Named input files: the bundled dataset, a 30-row prefix of it, and two
    projections."""
    short = tmp_path / "short.csv"
    short.write_text("".join(bundled_copy.read_text().splitlines(keepends=True)[:31]))
    projection = tmp_path / "projection.csv"
    projection.write_text(PROJECTION_HEADER + "\n515.4,613.7,150,219441872\n")
    other = tmp_path / "other_projection.csv"
    other.write_text(PROJECTION_HEADER + "\n600.1,700.2,160,220000000\n")
    return {"copy": str(bundled_copy), "short": str(short), "projection": str(projection),
            "other": str(other)}


# per run option: a command (with any flag it needs for the option to show),
# a value other than the default and a second value with another output
_PRECEDENCE = {
    "dataset": (["ingest"], "short", "copy"),
    "projection": (["calibrate", "--format", "json"], "other", "projection"),
    "beta": (["calibrate"], "0.5", "0.9"),
    "group": (["classify", "--rho", "0"], "one", "two"),
    "tol": (["classify"], "10.0", "0"),
    "variant": (["calibrate"], "realized", "projected"),
    "eta": (["classify"], "0.9", "1.05"),
    "rho": (["calibrate"], "2", "3"),
    "format": (["calibrate"], "csv", "json"),
}


def _config_value(text: str):
    """text as JSON config would give it: a number, or else a string."""
    try:
        return float(text)
    except ValueError:
        return text


@pytest.mark.parametrize("name", _PRECEDENCE)
def test_flag_beats_config(capsys, tmp_path, option_files, name):
    argv, value, other = _PRECEDENCE[name]
    value, other = option_files.get(value, value), option_files.get(other, other)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: _config_value(value)}))
    with_flag = run(capsys, *argv, f"--{name}", value)
    with_other_flag = run(capsys, *argv, f"--{name}", other)
    assert with_flag != with_other_flag
    assert run(capsys, *argv, "--config", str(config)) == with_flag
    assert run(capsys, *argv, "--config", str(config), f"--{name}", other) == with_other_flag


def test_config_dataset_beats_env(capsys, monkeypatch, tmp_path, option_files):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": option_files["short"]}))
    monkeypatch.setenv(ENV_DATASET, option_files["copy"])
    with_config = run(capsys, "ingest", "--config", str(config))
    assert with_config == run(capsys, "ingest", "--dataset", option_files["short"])
    assert with_config != run(capsys, "ingest")


def test_config_null_is_unset(capsys, monkeypatch, tmp_path, option_files):
    # a null config value leaves the next source (RAC_DATASET, a default) to
    # decide, as if the key were absent
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": None, "format": None, "beta": None}))
    monkeypatch.setenv(ENV_DATASET, option_files["short"])
    with_config = run(capsys, "calibrate", "--config", str(config))
    assert with_config == run(capsys, "calibrate", "--dataset", option_files["short"])
    assert with_config[0] == 0


def test_config_with_bom_loads(capsys, tmp_path):
    # a leading UTF-8 byte order mark is dropped, as in dataset files
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"beta": 0.5}).encode())
    with_config = run(capsys, "calibrate", "--format", "json", "--config", str(config))
    with_flag = run(capsys, "calibrate", "--format", "json", "--beta", "0.5")
    assert with_config == with_flag
    assert with_flag[0] == 0


def test_config_ints_print_as_flags(capsys, tmp_path):
    # a JSON int is checked and kept as the float argparse makes of the same flag
    config = tmp_path / "config.json"
    config.write_text('{"beta": 1, "tol": 0, "eta": 2, "rho": 2}')
    flags = ["--beta", "1", "--tol", "0", "--eta", "2", "--rho", "2"]
    for fmt in ("json", "csv"):  # group two leaves these rows unclassified
        with_config = run(capsys, "classify", "--group", "one", "--format", fmt, "--config", str(config))
        assert with_config == run(capsys, "classify", "--group", "one", "--format", fmt, *flags)
        assert with_config[0] == 0
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
    """main with no command parser to hand words to: make_parser().parse_args(argv)
    parses every call, and the same run follows."""
    cli = importlib.import_module("rac.cli")
    cli.make_parser()  # built first, as its subparsers take their options from command_parser
    return mock.patch.object(cli, "command_parser", lambda name: None)


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
    # handing a command's words to its own parser changes no exit code and no
    # byte of stdout or stderr, help and usage errors included, at any width;
    # this fails if an argparse release passes "--" or leftover words to a
    # subparser otherwise
    with mock.patch.dict(os.environ, {"COLUMNS": columns}):
        got = _outcome(argv)
        with _whole_parser():
            want = _outcome(argv)
    assert got == want


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


@pytest.mark.parametrize("argv", [["classify", "--bogus"], ["--help"], ["ingest", "--format", "csv"]])
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


# -- determinism --------------------------------------------------------------

def test_classify_runs_byte_identical(capsys):
    outputs = []
    for fmt in ("text", "csv", "json"):
        first = run(capsys, "classify", "--format", fmt)
        second = run(capsys, "classify", "--format", fmt)
        assert first[0] == second[0] == 0
        assert first[1].encode() == second[1].encode()
        outputs.append(first[1])
    assert len(set(outputs)) == 3


# -- repeated calls in one process -------------------------------------------

def test_warm_main_rebuilds_nothing(capsys, monkeypatch):
    # each parser and the bundled inputs are built once per process
    assert run(capsys, "classify")[0] == 0
    built = []
    parser_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        parser_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    loads = []
    for name in ("load_dataset", "load_projection"):
        monkeypatch.setattr(ds, name, lambda *a, _fn=getattr(ds, name): loads.append(a) or _fn(*a))
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert "Risk-averse" in out
    assert (built, loads) == ([], [])


def test_warm_main_matches_cold(capsys, tmp_path, bundled_copy):
    # a variant or a user series kept from an earlier call gives the output a
    # fresh process gives, on every grid point (classify with --rho 5 and
    # group two exits 2)
    proj = tmp_path / "projection.csv"
    proj.write_text(f"{PROJECTION_HEADER}\n515.4,613.7,150,219000000\n")
    grid = [*_WARM_GRID, ["classify", "--projection", str(proj), "--format", "json"],
            ["classify", "--dataset", str(bundled_copy), "--format", "json"]]
    cold = []
    for argv in grid:
        _clear_caches()
        cold.append(run(capsys, *argv))
    warm = [run(capsys, *argv) for argv in grid]
    assert warm == cold
    assert {code for code, _, _ in cold} == {0, 2}
    assert cold[-1] == cold[_WARM_GRID.index(["classify", "--variant", "both", "--format",
                                              "json", "--group", "two"])]


def test_a_command_parses_its_words_once(capsys, monkeypatch):
    # on every grid point the whole parser is never called; words a command
    # does not take still reach it, and it reports them under its usage line
    monkeypatch.setenv("COLUMNS", "80")
    before = [run(capsys, *argv) for argv in _WARM_GRID]
    parser = make_parser()
    calls = []
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv, _fn=parser.parse_args: calls.append(argv) or _fn(argv))
    assert _outcome(["classify", "--bogus"]) == (
        ("SystemExit", 1), "",
        "usage: rac [-h] {ingest,calibrate,classify} ...\n"
        "rac: error: unrecognized arguments: --bogus\n")
    assert calls == [["classify", "--bogus"]]

    def refuse(*args, **kwargs):
        raise AssertionError("the whole parser parsed a command's words")

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(parser, name, refuse)
    assert [run(capsys, *argv) for argv in _WARM_GRID] == before


@pytest.mark.parametrize("fault", ["deleted", "invalid", "not-utf8"])
def test_kept_series_never_outlives_its_file(capsys, bundled_copy, fault):
    # the file is read on every call: after a run that keeps its series, a
    # deleted, invalid or undecodable file fails as it does in a fresh process
    argv = ["classify", "--dataset", str(bundled_copy)]
    assert run(capsys, *argv)[0] == 0
    content = bundled_copy.read_bytes()
    if fault == "deleted":
        bundled_copy.unlink()
    elif fault == "invalid":
        bundled_copy.write_bytes(content.replace(b"\n1890,", b"\n1891,"))
    else:
        bundled_copy.write_bytes(b"\xff" + content)
    warm = run(capsys, *argv)
    _clear_caches()
    cold = run(capsys, *argv)
    assert warm == cold
    assert cold[:2] == (1, "")
    message = {"deleted": "InputError: dataset file not found", "invalid": "MissingYear: line 3",
               "not-utf8": "SchemaError: file is not UTF-8 text (invalid start byte at offset 0)"}
    assert cold[2].startswith(f"error: {message[fault]}")


def _count_loads(monkeypatch):
    """The list that each later ds.load_dataset call appends its argument to."""
    loads = []
    load = ds.load_dataset
    monkeypatch.setattr(ds, "load_dataset", lambda source: loads.append(source) or load(source))
    return loads


def test_same_bytes_under_another_path_is_a_hit(capsys, monkeypatch, tmp_path, bundled_copy):
    # the key is the file's bytes, not its path: a copy is not parsed again
    assert run(capsys, "classify", "--dataset", str(bundled_copy))[0] == 0
    copy = tmp_path / "second.csv"
    copy.write_bytes(bundled_copy.read_bytes())
    loads = _count_loads(monkeypatch)
    warm = run(capsys, "classify", "--dataset", str(copy))
    assert loads == []
    _clear_caches()
    assert warm == run(capsys, "classify", "--dataset", str(copy))
    assert warm[0] == 0


@pytest.mark.parametrize("resave", ["crlf", "bom", "digit"])
def test_other_bytes_are_parsed_afresh(capsys, monkeypatch, bundled_copy, resave):
    # a re-save with other line ends or a byte order mark, and a same-length
    # edit (which a size or mtime key would miss), are parsed again and give
    # the output a fresh process gives
    argv = ["classify", "--dataset", str(bundled_copy), "--format", "json"]
    kept = run(capsys, *argv)
    content = bundled_copy.read_bytes()
    edited = {"crlf": content.replace(b"\n", b"\r\n"), "bom": b"\xef\xbb\xbf" + content,
              "digit": content.replace(b"\n1978,3450.0,", b"\n1978,3450.1,")}[resave]
    assert edited != content
    bundled_copy.write_bytes(edited)
    loads = _count_loads(monkeypatch)
    warm = run(capsys, *argv)
    assert len(loads) == 1
    _clear_caches()
    assert warm == run(capsys, *argv)
    assert warm[0] == kept[0] == 0
    # the same numbers in other bytes give the same report; an edited one does not
    assert (warm == kept) is (resave != "digit")


def test_a_hit_neither_decodes_nor_parses(capsys, monkeypatch, bundled_copy):
    argv = ["classify", "--dataset", str(bundled_copy)]
    kept = run(capsys, *argv)

    def fail(*args):
        raise AssertionError("a kept series was decoded or parsed again")

    for name in ("read_text", "load_dataset"):
        monkeypatch.setattr(ds, name, fail)
    assert run(capsys, *argv) == kept
    assert kept[0] == 0


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


def test_no_error_is_kept(capsys, tmp_path):
    # a series whose moments are not finite fails on every call, not only the first
    path = tmp_path / "wide.csv"
    path.write_text(HEADER + "\n1900,1e300,1.05,1.01\n1901,1e-300,1.05,1.01\n")
    for _ in range(2):
        code, out, err = run(capsys, "calibrate", "--dataset", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: NonFiniteMoment: ")


def test_kept_variants_do_not_grow(capsys, tmp_path, bundled_copy):
    # one series is kept, bundled or user, and it keeps its realized variant
    # and one other, however many datasets and projection files a process reads
    cli = importlib.import_module("rac.cli")
    proj = tmp_path / "projection.csv"
    for population in range(219441872, 219441872 + 5):
        proj.write_text(f"{PROJECTION_HEADER}\n515.4,613.7,150,{population}\n")
        assert run(capsys, "calibrate", "--projection", str(proj))[0] == 0
        assert cli._SERIES.data is None and len(cli._SERIES.variants) == 2
        assert run(capsys, "calibrate", "--dataset", str(bundled_copy),
                   "--projection", str(proj))[0] == 0
        assert len(cli._SERIES.variants) == 2
    assert run(capsys, "ingest", "--dataset", str(bundled_copy))[0] == 0
    assert len(cli._SERIES.variants) == 2  # a realized-only run drops nothing
    other = tmp_path / "other.csv"
    other.write_text(HEADER + "\n1900,100.0,1.05,1.01\n1901,110.0,1.05,1.01\n")
    assert run(capsys, "ingest", "--dataset", str(other))[0] == 0
    assert cli._SERIES.data == other.read_bytes()
    assert list(cli._SERIES.variants) == [110.0]


def test_alternating_bundled_and_user_series(capsys, bundled_copy):
    # each switch between the bundled data and a user file builds the new
    # series afresh, and the slot then holds the last series only
    cli = importlib.import_module("rac.cli")
    bundled_copy.write_bytes(
        bundled_copy.read_bytes().replace(b"\n1978,3450.0,", b"\n1978,3450.1,")
    )
    argvs = [["classify", "--format", "json"],
             ["classify", "--dataset", str(bundled_copy), "--format", "json"]] * 2
    cold = []
    for argv in argvs:
        _clear_caches()
        cold.append(run(capsys, *argv))
    _clear_caches()
    assert [run(capsys, *argv) for argv in argvs] == cold
    assert [code for code, _, _ in cold] == [0] * 4 and cold[0] != cold[1]
    user = ds.load_dataset(bundled_copy)
    assert cli._SERIES.data == bundled_copy.read_bytes() and cli._SERIES.series == user
    assert {d.consumption[:-1] for d, _ in cli._SERIES.variants.values()} == {user.consumption[:-1]}


def test_user_files_read_on_every_call(capsys, monkeypatch, tmp_path, bundled_copy):
    # files the user names are read again on each call, so an edit between
    # two calls in one process shows in the second output
    data = tmp_path / "data.csv"
    data.write_text(HEADER + "\n1900,100.0,1.05,1.01\n1901,110.0,1.05,1.01\n")
    first = run(capsys, "ingest", "--dataset", str(data), "--format", "json")
    data.write_text(HEADER + "\n1900,100.0,1.05,1.01\n1901,120.0,1.05,1.01\n")
    second = run(capsys, "ingest", "--dataset", str(data), "--format", "json")
    assert json.loads(first[1])["moments"]["mean_x"] == pytest.approx(1.1)
    assert json.loads(second[1])["moments"]["mean_x"] == pytest.approx(1.2)

    # a RAC_DATASET copy of the bundled file is a user file, not the bundled
    # data, although it holds the same numbers
    monkeypatch.setenv(ENV_DATASET, str(bundled_copy))
    argv = ["calibrate", "--format", "json"]
    first = run(capsys, *argv)
    bundled = load_bundled_dataset()
    bundled_copy.write_bytes(serialize_dataset(ds.with_final_consumption(bundled, 3500.0)))
    second = run(capsys, *argv)
    monkeypatch.delenv(ENV_DATASET)
    assert first == run(capsys, *argv)
    assert first[0] == second[0] == 0 and first[1] != second[1]

    proj = tmp_path / "projection.csv"
    for variant in ("projected", "both"):
        argv = ["classify", "--variant", variant, "--eta", "0.9", "--format", "json",
                "--projection", str(proj)]
        rows = []
        for population in (219441872, 2 * 219441872):
            proj.write_text(f"{PROJECTION_HEADER}\n515.4,613.7,150,{population}\n")
            code, out, _ = run(capsys, *argv)
            assert code == 0
            rows.append({row["year_uncertain"]: row["consumption_uncertain_exact"]
                         for row in json.loads(out)["classifications"]})
        assert rows[1]["1978 (projected)"] == pytest.approx(rows[0]["1978 (projected)"] / 2)
        assert rows[0].get("1978 (realized)") == rows[1].get("1978 (realized)")


# -- start-up -----------------------------------------------------------------

# Runs in a clean interpreter (python -S, so site loads nothing): imports
# rac.cli, then runs each of STEPS, and after the import and after each step
# prints the exit code, the modules of WATCH it finds loaded, and how many
# whole parsers are built. stdout and stderr are swapped for io.StringIO
# (io is loaded at start-up), so the probe itself loads nothing. collections
# is imported first (rac.cli loads it anyway), and what that import alone
# loads is left out: on CPython 3.13.13 it registers collections.abc.
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
          "__future__", "hashlib", "random", "shutil", "rac.calibration", "rac.classify", "rac.utility"]
_PHASES = ["rac.calibration", "rac.classify", "rac.utility"]
# each step; its exit code, the watched modules then loaded, and the number
# of whole parsers built
_COLD_START_TABLE = [
    (None, None, [], 0),  # import rac.cli
    # argparse loads shutil for the help width when a first parser is built
    (["ingest"], 0, ["shutil"], 0),
    # the second run finds the series the first kept, and compares it with
    # the file without mmap
    (["ingest", "--dataset", "copy.csv"], 0, ["shutil"], 0),
    (["ingest", "--dataset", "copy.csv"], 0, ["shutil"], 0),
    (["calibrate"], 0, ["rac.calibration", "shutil"], 0),
    (["classify"], 0, [*_PHASES, "shutil"], 0),
    # json loads for JSON output only
    (["classify", "--format", "json"], 0, ["json", *_PHASES, "shutil"], 0),
    # only a usage error builds the whole parser
    (["classify", "--bogus"], 1, ["json", *_PHASES, "shutil"], 1),
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
        f"{code} {loaded} {parsers}" for _, code, loaded, parsers in _COLD_START_TABLE]


def test_default_classify_check_counts(capsys, monkeypatch):
    # every rac binding of each check_* is counted; the CLI passes its
    # checked values on, and each public function checks its own arguments
    from rac.calibration import check_beta, check_rho
    from rac.classify import check_tol
    from rac.utility import check_eta

    checks = {f.__name__: f for f in (check_beta, check_rho, check_eta, check_tol)}
    counts = dict.fromkeys(checks, 0)

    def counted(name):
        def check(value):
            counts[name] += 1
            return checks[name](value)
        return check

    rac_modules = [m for n, m in sys.modules.items() if n == "rac" or n.startswith("rac.")]
    for module in rac_modules:
        for name, original in checks.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name))
    code, _, _ = run(capsys, "classify")
    assert code == 0
    # 2 variants x (solve_system, the closed form, system_residuals) check
    # beta and rho; 4 investor rows x uncertain_utility check beta once more,
    # UtilitySpec and curvature_from_rho rho twice, the allocation sign and
    # uncertain_utility eta twice, and classify tol once
    assert counts == {"check_beta": 10, "check_rho": 14, "check_eta": 8, "check_tol": 4}
