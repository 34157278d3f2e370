"""CLI behavior: subcommands, config precedence, exit codes, determinism."""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rac import dataset as ds
from rac import errors, load_bundled_dataset, parse_csv, parse_json
from rac.cli import ENV_DATASET, main

from conftest import serialize_dataset

HEADER = "year,consumption_per_capita,equity_gross_return,riskfree_gross_return"
PROJECTION_HEADER = "nondurables_bn,services_bn,gnp_deflator,population"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bundled_copy(tmp_path):
    path = tmp_path / "copy.csv"
    path.write_bytes(serialize_dataset(load_bundled_dataset()))
    return path


@pytest.fixture()
def gapped_file(tmp_path):
    rows = [f"{1900 + i},{100.0 + i},1.05,1.01" for i in range(10) if i != 5]
    path = tmp_path / "gapped.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture()
def degenerate_file(tmp_path):
    # Consumption doubling every year: all log growths are exactly ln 2, so
    # the consistency gap is exactly zero.
    rows = [f"{1900 + i},{100.0 * 2 ** i},1.05,1.01" for i in range(6)]
    path = tmp_path / "degenerate.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


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


def test_ingest_missing_file(capsys):
    code, _, err = run(capsys, "ingest", "--dataset", "/no/such/file.csv")
    assert code == 1
    assert "not found" in err


@pytest.mark.parametrize("flag", ["--dataset", "--projection", "--config"])
def test_unreadable_path_is_input_error(capsys, tmp_path, flag):
    # a directory (like any OSError on open) is an input problem, not a traceback
    code, out, err = run(capsys, "classify", flag, str(tmp_path))
    kind = flag.removeprefix("--")
    assert (code, out) == (1, "")
    assert err == f"error: InputError: cannot read {kind} file {str(tmp_path)!r}: Is a directory\n"


def test_empty_env_dataset_is_unset(capsys, monkeypatch):
    # RAC_DATASET="" falls back to the bundled series, not to the path "" (the cwd)
    expected = run(capsys, "ingest")
    monkeypatch.setenv(ENV_DATASET, "")
    assert run(capsys, "ingest") == expected
    assert expected[0] == 0


def test_ingest_gapped_file(capsys, gapped_file):
    code, _, err = run(capsys, "ingest", "--dataset", str(gapped_file))
    assert code == 1
    assert "MissingYear" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", HEADER.split(",") + PROJECTION_HEADER.split(","))
def test_non_finite_cell_is_input_error(capsys, tmp_path, column, value):
    # float() parses nan and inf; they must fail as input, not reach the
    # moments (where NaN would print as invalid JSON or fail as exit 2)
    if column in HEADER.split(","):
        header, rows = HEADER, ["1900,100.0,1.05,1.01", "1901,101.0,1.05,1.01"]
        argv = ["ingest", "--format", "json", "--dataset"]
    else:
        header, rows = PROJECTION_HEADER, ["515.4,613.7,150,219441872"]
        argv = ["calibrate", "--projection"]
    cells = rows[0].split(",")
    cells[header.split(",").index(column)] = value
    path = tmp_path / "input.csv"
    path.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert "NonPositiveValue" in err or "SchemaError" in err


@pytest.mark.parametrize("kind", ["dataset", "projection"])
@pytest.mark.parametrize("fault", ["not-utf8", "oversized-cell"])
def test_unreadable_file_is_schema_error(capsys, tmp_path, kind, fault):
    # a file that is not UTF-8, or a cell over the csv field limit, is an
    # input error (exit 1), not a decoding message or a traceback
    if kind == "dataset":
        header, rows = HEADER, "1900,{},1.05,1.01\n1901,101,1.05,1.01\n"
    else:
        header, rows = PROJECTION_HEADER, "{},613.7,150,219441872\n"
    path = tmp_path / "input.csv"
    if fault == "not-utf8":
        path.write_bytes(b"\xff\xfe" + header.encode() + b"\n" + rows.format(100).encode())
        message = "file is not UTF-8 text (invalid start byte at offset 0)"
    else:
        path.write_text(header + "\n" + rows.format("9" * 140_000))
        message = "line 2: field larger than field limit (131072)"
    code, out, err = run(capsys, "calibrate", f"--{kind}", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: SchemaError: {message}\n"


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


def test_calibrate_degenerate_dataset(capsys, degenerate_file):
    code, _, err = run(
        capsys, "calibrate", "--dataset", str(degenerate_file), "--beta", "1.0"
    )
    assert code == 2
    assert "DegenerateSystem" in err


def test_calibrate_factor_underflow(capsys, tmp_path):
    # a finite but huge consumption cell drives xi to 0.0 in floating point
    rows = [f"{1900 + i},{1e308 if i == 3 else 100.0 + i},1.05,1.01" for i in range(6)]
    path = tmp_path / "huge.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    code, _, err = run(capsys, "calibrate", "--dataset", str(path))
    assert code == 2
    assert "NoConvergence" in err


@pytest.mark.parametrize("command", ["ingest", "calibrate", "classify"])
def test_non_finite_moments_exit_2(capsys, tmp_path, command):
    path = tmp_path / "wide.csv"
    path.write_text(HEADER + "\n1900,1e300,1.05,1.01\n1901,1e-300,1.05,1.01\n")
    code, out, err = run(capsys, command, "--dataset", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: NonFiniteMoment: ")


@pytest.mark.parametrize("eta", [[], ["--eta", "0.9"]], ids=["factor-eta", "custom-eta"])
def test_utility_overflow_exits_2(capsys, tmp_path, eta):
    # (1 - rho) ln c = -59 * ln(1e-300) is past exp's range: a typed
    # computation error, not an OverflowError traceback
    rows = [f"{1900 + i},{1.001e-300 if i % 2 else 1e-300},1.05,1.01" for i in range(4)]
    path = tmp_path / "tiny.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    code, out, err = run(
        capsys, "classify", "--dataset", str(path), "--rho", "60", "--variant", "realized", *eta
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: UtilityOverflow: ")


def test_huge_eta_overflow_exits_2(capsys):
    # beta * eta * E[u] passes the float range: a typed error, not an
    # Infinity in the JSON
    argv = ["--group", "one", "--eta", "1e308", "--variant", "realized", "--format", "json"]
    code, out, err = run(capsys, "classify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: UtilityOverflow: uncertain utility leaves the floating-point")


@pytest.mark.parametrize(
    "argv",
    [["calibrate", "--beta", "1e-320", "--variant", "realized"], ["classify", "--beta", "5e-324"]],
)
def test_factor_overflow_at_tiny_beta_exits_2(capsys, argv):
    # -ln beta is past exp's range, so both factors are far above the region
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: NoConvergence: closed-form factors (inf, inf) leave the search region (0, 10.0]\n"
    )


def test_factor_overflow_at_large_growth_exits_2(capsys, tmp_path):
    # log growth about 12.5 a year at rho = 60 puts both log-factors past exp's range
    rows = [f"{1900 + i},{math.exp(12.5 * i + 0.1 * (i % 2))!r},1.05,1.01" for i in range(6)]
    path = tmp_path / "growth.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    argv = ["calibrate", "--dataset", str(path), "--rho", "60", "--variant", "realized"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: NoConvergence: closed-form factors (inf, inf)")


@pytest.mark.parametrize("variant", ["projected", "both"])
@pytest.mark.parametrize("projection", ["missing", "overflow"])
def test_input_error_wins_over_compute_error(capsys, tmp_path, variant, projection):
    # every input is read before any moment is computed, so a bad projection
    # exits 1 even when the realized moments would overflow (exit 2)
    wide = tmp_path / "wide.csv"
    wide.write_text(HEADER + "\n1900,1e300,1.05,1.01\n1901,1e-300,1.05,1.01\n")
    proj = tmp_path / "projection.csv"
    if projection == "overflow":
        proj.write_text(PROJECTION_HEADER + "\n1e308,1e308,150,219441872\n")
        message = "NonPositiveValue: annual series values must be positive and finite"
    else:
        message = f"InputError: projection file not found: {proj}"
    argv = ["calibrate", "--variant", variant, "--dataset", str(wide), "--projection", str(proj)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_calibrate_bad_beta(capsys):
    code, _, err = run(capsys, "calibrate", "--beta", "0")
    assert code == 1
    assert "beta" in err


def test_calibrate_rho_out_of_range(capsys):
    code, _, err = run(capsys, "calibrate", "--rho", "61")
    assert code == 1
    assert err == "error: InputError: rho 61.0 outside the supported range [0, 60]\n"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["beta", "tol", "eta", "rho"])
def test_non_finite_number_is_input_error(capsys, tmp_path, name, value, source):
    if source == "flag":
        argv = [f"--{name}={value}"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: float(value)}))
        argv = ["--config", str(config)]
    code, out, err = run(capsys, "classify", *argv)
    assert (code, out) == (1, "")
    assert f"InputError: {name} must be finite" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "name, value, message",
    [
        ("beta", 0.0, "beta must be in (0, 1], got 0.0"),
        ("beta", 1.5, "beta must be in (0, 1], got 1.5"),
        ("tol", -1e-12, "tol must be >= 0, got -1e-12"),
        ("eta", 0.0, "eta must be positive, got 0.0"),
        ("eta", -1.0, "eta must be positive, got -1.0"),
        ("rho", -0.5, "rho -0.5 outside the supported range [0, 60]"),
        ("rho", 60.5, "rho 60.5 outside the supported range [0, 60]"),
    ],
)
def test_out_of_range_number_is_input_error(capsys, tmp_path, name, value, message, source):
    # checked in build_config, by the same functions the library calls
    if source == "flag":
        argv = [f"--{name}={value}"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: value}))
        argv = ["--config", str(config)]
    code, out, err = run(capsys, "classify", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: InputError: {message}\n"


@pytest.mark.parametrize("name, value", [("beta", "1"), ("tol", "0"), ("rho", "0"), ("rho", "60")])
def test_range_endpoints_accepted(capsys, name, value):
    code, _, err = run(capsys, "calibrate", f"--{name}={value}")
    assert (code, err) == (0, "")


# -- classify -----------------------------------------------------------------

def test_classify_default_labels(capsys):
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert "Equity investors (eta = zeta)" in out
    assert "Risk-free investors (eta = xi)" in out
    assert out.count("Risk-averse") == 2
    assert out.count("Not enough risk-loving") == 2
    assert "7.103787" in out


def test_classify_computes_moments_once_per_variant(capsys, monkeypatch):
    # classify_pipeline reuses the moments each variant was calibrated from;
    # importlib, because the package attribute rac.classify is the function
    calls = []
    for module in (importlib.import_module("rac.cli"), importlib.import_module("rac.classify")):
        counted = module.compute_moments

        def counting(d, _fn=counted):
            calls.append(d)
            return _fn(d)

        monkeypatch.setattr(module, "compute_moments", counting)
    code, _, _ = run(capsys, "classify")
    assert code == 0
    assert len(calls) == 2


def test_classify_eta_one(capsys):
    code, _, err = run(capsys, "classify", "--eta", "1.0")
    assert code == 2
    assert "Unclassifiable" in err


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


def test_classify_rho_override_uncovered_case(capsys):
    # at rho 2.0 the re-derived xi lifts the uncertain side above certain,
    # which no concave definition covers; the run must fail loudly
    code, _, err = run(capsys, "classify", "--rho", "2.0")
    assert code == 2
    assert "Unclassifiable" in err


def test_classify_wide_tolerance(capsys):
    code, out, _ = run(capsys, "classify", "--tol", "10.0")
    assert code == 0
    assert out.count("Risk-neutral") == 4


def test_classify_group_one_same_labels(capsys):
    code, out, _ = run(capsys, "classify", "--group", "one")
    assert code == 0
    assert out.count("Risk-averse") == 2
    assert out.count("Not enough risk-loving") == 2


def test_classify_missing_projection(capsys):
    code, _, err = run(capsys, "classify", "--projection", "/no/such/proj.csv")
    assert code == 1
    assert "not found" in err


def test_classify_custom_eta_table(capsys):
    code, out, _ = run(capsys, "classify", "--eta", "0.9")
    assert code == 0
    assert "Custom eta investors" in out
    assert out.count("Risk-averse") == 2


# -- config file --------------------------------------------------------------

def test_config_beta_applies(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"beta": 0.5}))
    _, out_default, _ = run(capsys, "calibrate", "--format", "json")
    _, out_config, _ = run(capsys, "calibrate", "--format", "json", "--config", str(config))
    zeta_default = json.loads(out_default)["calibration"]["realized"]["zeta"]
    zeta_config = json.loads(out_config)["calibration"]["realized"]["zeta"]
    assert zeta_config != zeta_default


def test_flag_beats_config(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"beta": 0.5}))
    _, out_default, _ = run(capsys, "calibrate", "--format", "json")
    _, out_flag, _ = run(
        capsys, "calibrate", "--format", "json", "--config", str(config), "--beta", "0.99"
    )
    assert out_flag == out_default


def test_config_sets_format_and_variant(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "json", "variant": "realized"}))
    code, out, _ = run(capsys, "calibrate", "--config", str(config))
    assert code == 0
    assert set(json.loads(out)["calibration"]) == {"realized"}


def test_config_unknown_key(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"betas": 0.5}))
    code, _, err = run(capsys, "calibrate", "--config", str(config))
    assert code == 1
    assert "unknown config keys" in err


def test_config_malformed(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    code, _, err = run(capsys, "calibrate", "--config", str(config))
    assert code == 1
    assert "not valid JSON" in err


def test_config_not_object(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code, _, err = run(capsys, "calibrate", "--config", str(config))
    assert code == 1


def test_config_with_bom_loads(capsys, tmp_path):
    # a leading UTF-8 byte order mark is dropped, as in dataset files
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"beta": 0.5}).encode())
    with_config = run(capsys, "calibrate", "--format", "json", "--config", str(config))
    with_flag = run(capsys, "calibrate", "--format", "json", "--beta", "0.5")
    assert with_config == with_flag
    assert with_flag[0] == 0


def test_config_missing(capsys):
    code, _, err = run(capsys, "calibrate", "--config", "/no/such/config.json")
    assert code == 1
    assert "not found" in err


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"beta": [1]}', "beta must be a number (float() argument must be a string "
         "or a real number, not 'list')"),
        ('{"eta": {}}', "eta must be a number (float() argument must be a string "
         "or a real number, not 'dict')"),
        ('{"beta": "abc"}', "beta must be a number (could not convert string to float: 'abc')"),
        ('{"beta": 1' + "0" * 400 + "}", "beta must be a number (int too large to convert to float)"),
        ('{"dataset": 5}', "dataset must be a path string, got 5"),
        ('{"projection": "a\\u0000b"}', "projection must be a path string, got 'a\\x00b'"),
        (b'\xff\xfe{"beta": 0.5}', "config file is not UTF-8 text (invalid start byte at offset 0)"),
        # the offset counts the byte order mark, as for a dataset file
        (b'\xef\xbb\xbf{"beta": \xff}',
         "config file is not UTF-8 text (invalid start byte at offset 12)"),
        ("[" * 100_000, "config file is not valid JSON: maximum recursion depth exceeded"),
        # argparse rejects a bad choice flag first, so only a config reaches these
        ('{"group": "three"}', "group must be 'one' or 'two', got 'three'"),
        ('{"variant": "none"}', "variant must be realized, projected, or both, got 'none'"),
        ('{"format": "xml"}', "format must be text, csv, or json, got 'xml'"),
    ],
    ids=["list", "dict", "text", "huge-int", "int-path", "nul-path", "not-utf8", "bom-not-utf8",
         "deep", "group", "variant", "format"],
)
def test_bad_config_value_is_input_error(capsys, tmp_path, content, message):
    # each config value is converted in build_config, and the file decoded in
    # _load_config_file, so a bad one is a typed error naming the key
    config = tmp_path / "config.json"
    if isinstance(content, bytes):
        config.write_bytes(content)
    else:
        config.write_text(content)
    code, out, err = run(capsys, "classify", "--config", str(config))
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(f"error: InputError: {message}")


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
    # the parser and the bundled inputs are built once per process
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


def test_user_files_read_on_every_call(capsys, tmp_path):
    # files the user names are read again on each call, so an edit between
    # two calls in one process shows in the second output
    data = tmp_path / "data.csv"
    data.write_text(HEADER + "\n1900,100.0,1.05,1.01\n1901,110.0,1.05,1.01\n")
    first = run(capsys, "ingest", "--dataset", str(data), "--format", "json")
    data.write_text(HEADER + "\n1900,100.0,1.05,1.01\n1901,120.0,1.05,1.01\n")
    second = run(capsys, "ingest", "--dataset", str(data), "--format", "json")
    assert json.loads(first[1])["moments"]["mean_x"] == pytest.approx(1.1)
    assert json.loads(second[1])["moments"]["mean_x"] == pytest.approx(1.2)

    proj = tmp_path / "projection.csv"
    argv = ["classify", "--variant", "projected", "--eta", "0.9", "--format", "json",
            "--projection", str(proj)]
    consumption = []
    for population in (219441872, 2 * 219441872):
        proj.write_text(f"{PROJECTION_HEADER}\n515.4,613.7,150,{population}\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        consumption.append(json.loads(out)["classifications"][0]["consumption_uncertain_exact"])
    assert consumption[1] == pytest.approx(consumption[0] / 2)


# -- start-up -----------------------------------------------------------------

def test_cli_import_leaves_numpy_out(tmp_path):
    # a cold command pays only for what it uses: no numpy, no dataclasses
    # (which loads inspect, ast and dis), and json only for JSON I/O
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import io, sys, contextlib, rac.cli\n"
            "print(sorted({'numpy', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = rac.cli.main(['ingest'])\n"
            "print(code, 'json' in sys.modules)",
        ],
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "[]\n0 False\n", "")
