"""The examples in README.md are true: its example session, its Quick start,
and the pricing errors and headline intervals of its identification caveat."""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from rac import RHO_ANCHORS, calibrate_variant, compute_moments, load_bundled_dataset, lognormal_moment
from rac.cli import ENV_DATASET, main
from rac.params import DEFAULT_BETA, Variant

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _code_after(marker: str) -> str:
    """The first fenced code block after `marker` in the README."""
    return re.search(r"```\w*\n(.*?)```", README[README.index(marker):], re.S).group(1)


def _stdout(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = fn(*args)
    return result, out.getvalue()


# Each "$ rac ARGS" of the example session: ARGS, and the lines shown under it.
_SESSION = {
    args: shown
    for args, *shown in (
        chunk.rstrip("\n").split("\n")
        for chunk in _code_after("Example session").split("$ rac ")[1:]
    )
}


@pytest.mark.parametrize("args", _SESSION)
def test_example_session_output(monkeypatch, args):
    # the lines shown are the start of the output, up to a "..." line, or
    # all of it when there is none
    monkeypatch.delenv(ENV_DATASET, raising=False)
    code, out = _stdout(main, shlex.split(args))
    assert code == 0
    shown = _SESSION[args]
    if "..." in shown:
        shown = shown[: shown.index("...")]
        assert out.startswith("".join(line + "\n" for line in shown))
    else:
        assert out == "".join(line + "\n" for line in shown)


def test_quick_start_prints_risk_averse():
    _, out = _stdout(exec, _code_after("## Quick start"), {})
    assert out.splitlines()[-1] == "Risk-averse"


def test_log_factors_are_crra_pricing_errors():
    # the closed form's factors, rebuilt from the two prices the caveat
    # names; the README shows each price and mean to its printed digits
    m = compute_moments(load_bundled_dataset())
    rho, beta = RHO_ANCHORS[Variant.REALIZED], DEFAULT_BETA
    re_hat = m.mean_x / (beta * lognormal_moment(1 - rho, m.mu_x, m.sigma2_x))
    rf_hat = 1 / (beta * lognormal_moment(-rho, m.mu_x, m.sigma2_x))
    zeta, xi = calibrate_variant(m, beta, Variant.REALIZED).factors
    assert math.log(re_hat / m.mean_Re) == pytest.approx(math.log(zeta), rel=1e-12)
    assert math.log(rf_hat / m.mean_Rf) == pytest.approx(math.log(xi), rel=1e-12)
    caveat = " ".join(README[README.index("## Identification caveat"):].split())
    assert (f"`Re_hat` is {re_hat:.5f} against `mean_Re` {m.mean_Re:.4f}, and `Rf_hat` is "
            f"{rf_hat:.5f} against `mean_Rf` {m.mean_Rf:.3f}") in caveat


# Each "| variant | (0, a] | [b, c] |" row of the headline-interval table:
# variant, and each closed end with the direction outward from its interval.
_INTERVALS = {
    variant: ((float(a), math.inf), (float(b), -math.inf), (float(c), math.inf))
    for variant, a, b, c in re.findall(
        r"^\| (\w+) \| \(0, ([\d.]+)\] \| \[([\d.]+), ([\d.]+)\] \|$",
        README[README.index("## Identification caveat"):], re.M,
    )
}


def _headline(variant: str, rho: float) -> bool:
    """Whether `rac classify` gives the paper's labels at `rho`."""
    with contextlib.redirect_stderr(io.StringIO()):
        code, out = _stdout(main, ["classify", "--variant", variant, "--rho", repr(rho),
                                   "--format", "json"])
    labels = [row["label_text"] for row in json.loads(out)["classifications"]] if code == 0 else []
    return labels == ["Risk-averse", "Not enough risk-loving"]


@pytest.mark.parametrize("variant", ["realized", "projected"])
def test_headline_interval_ends_are_exact(monkeypatch, variant):
    # each closed end gives the headline, and the next float outward does not
    monkeypatch.delenv(ENV_DATASET, raising=False)
    for end, outward in _INTERVALS[variant]:
        assert _headline(variant, end), end
        assert not _headline(variant, math.nextafter(end, outward)), end
