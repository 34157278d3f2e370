"""The examples in README.md are true: its example session and its Quick start."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rac.cli import ENV_DATASET, main

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
