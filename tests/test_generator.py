"""The dataset generator still rebuilds the bundled files.

tools/make_reference_dataset.py builds the dataset and projection CSV texts
afresh, in memory: its writers give the bundled files' bytes, its level
targets solve their system exactly, and each rebuilt cell must be within one
cent of the bundled one. Its main() writes no file, pass or fail: the
bundled files and tests/_frozen_reference.py are edited by hand only, as
tests/golden/ is, since rebuilt from the code they check they would follow
its drift instead of catching it. What the bundled files give through the
package is test_moments.test_bundled_matches_frozen's check.
"""

import contextlib
import decimal
import math
import runpy
import shutil
from pathlib import Path

import pytest

from rac import (
    UtilitySpec,
    compute_moments,
    expected_utility_unconditional,
    load_bundled_dataset,
    projected_consumption,
)

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "rac" / "data"


@pytest.fixture(scope="module")
def tool():
    # run_path compiles the script without caching its bytecode and, under a
    # name other than __main__, does not run main(), which rebuilds the files
    return runpy.run_path(str(ROOT / "tools" / "make_reference_dataset.py"))


def test_generator_writers_reproduce_bundled_files(tool):
    d = load_bundled_dataset()
    years = range(d.start_year, d.end_year + 1)
    columns = (d.consumption, d.equity_return, d.riskfree_return)
    dataset_csv = tool["format_dataset_csv"](years, *columns)
    assert dataset_csv.encode("utf-8") == (DATA / "mehra_prescott_1889_1978.csv").read_bytes()
    projection_csv = tool["format_projection_csv"](tool["PROJECTION_ROW"])
    assert projection_csv.encode("utf-8") == (DATA / "projection_1978.csv").read_bytes()


def test_generator_solves_level_targets_exactly(tool):
    # the targets from the same float inputs, solved at 60 digits from the
    # swap written out (M_p, V_p) rather than from the tool's expanded rows
    pub, beta, n = tool["PUB"], tool["DEFAULT_BETA"], tool["N_YEARS"]
    c_proj = projected_consumption(*tool["PROJECTION_ROW"])
    e_r, e_p = ((pub[f"uncertain_equity_{k}"] / pub[f"zeta_{k}"]
                 + pub[f"uncertain_riskfree_{k}"] / pub[f"xi_{k}"]) / (2.0 * beta)
                for k in ("realized", "projected"))
    variant, anchors, c_1978 = tool["Variant"], tool["RHO_ANCHORS"], tool["C_1978"]
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        a_r, a_p = 1 - D(anchors[variant.REALIZED]), 1 - D(anchors[variant.PROJECTED])
        l_last = D(math.log(c_1978))
        delta = D(math.log(c_1978) - math.log(c_proj))

        def rows(m, v):  # each variant's a*M + a^2*V/2, affine in (M, V)
            m_p = m - delta / n
            v_p = v - 2 * delta * (l_last - m) / n + delta * delta * (n - 1) / (n * n)
            return a_r * m + a_r * a_r * v / 2, a_p * m_p + a_p * a_p * v_p / 2

        zero, at_m, at_v = rows(0, 0), rows(1, 0), rows(0, 1)
        (c11, c21), (c12, c22) = ([x - z for x, z in zip(at, zero)] for at in (at_m, at_v))
        b1 = (1 + a_r * D(e_r)).ln() - zero[0]
        b2 = (1 + a_p * D(e_p)).ln() - zero[1]
        det = c11 * c22 - c12 * c21
        want_m, want_v = float((b1 * c22 - b2 * c12) / det), float((c11 * b2 - c21 * b1) / det)

    m, v = tool["solve_level_targets"](c_proj)
    assert abs(m - want_m) <= math.ulp(want_m), (m, want_m)
    assert abs(v - want_v) <= math.ulp(want_v), (v, want_v)
    # the package's own E[u] at (M, V) and the published realized rho
    moments = compute_moments(load_bundled_dataset())._replace(mu_z=m, sigma2_z=v)
    got = expected_utility_unconditional(moments, UtilitySpec(1.033526))
    assert abs(got - e_r) <= 4 * math.ulp(e_r), (got, e_r)


@pytest.mark.parametrize("cell, error", [
    ("1599.74", None),  # the bundled 1927 consumption cell, and two cents up
    ("1599.76", "1 of 1 differing cells are more than a cent off"),
], ids=["bundled", "moved"])
def test_generator_main_writes_nothing(tool, tmp_path, monkeypatch, cell, error):
    # main() runs on a copy of the three references and must leave it as it was
    for path in (*(DATA / name for name in tool["BUNDLED"]),
                 ROOT / "tests" / "_frozen_reference.py"):
        copy = tmp_path / path.relative_to(ROOT)
        copy.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, copy)

    def tree():  # every path under tmp_path, with a file's bytes
        return {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    before = tree()
    dataset, projection = ((DATA / name).read_text(encoding="utf-8") for name in tool["BUNDLED"])
    dataset = dataset.replace("\n1927,1599.74,", f"\n1927,{cell},")
    main = tool["main"]
    monkeypatch.setitem(main.__globals__, "ROOT", tmp_path)
    monkeypatch.setitem(main.__globals__, "generate", lambda: (dataset, projection))
    with pytest.raises(SystemExit, match=error) if error else contextlib.nullcontext():
        main()
    assert tree() == before


def test_generator_regenerates_bundled_files(tool):
    # generate() gives the bundled texts byte for byte under scipy 1.17.1
    # and numpy 2.4.6, but the least-squares fit pins the levels only to
    # about 1e-6 relative and the 1927 and 1969 cells lie within 0.011 cents
    # of a rounding boundary, so another scipy, numpy or BLAS may move them
    # a cent; the bundled files are never rewritten to follow such drift
    cells = tool["differing_cells"](tool["generate"]())
    assert all(distance <= 0.01 + 1e-9 for _, distance in cells), (
        "cells that differ:\n" + "\n".join(cell for cell, _ in cells))
