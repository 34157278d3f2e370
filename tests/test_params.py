"""The run parameters' rules: each check_* takes a number and checks its value."""

from decimal import Decimal

import pytest

from rac.errors import InputError
from rac.params import check_beta, check_eta, check_rho, check_tol

CHECKS = {"beta": check_beta, "rho": check_rho, "tol": check_tol, "eta": check_eta}


class Half(float):
    """A float subclass, which each rule takes as the float it is."""


class Text(str):
    """A str subclass, which no rule takes as a number."""


# float() reads "0.5" and b"0.5", a bool compares as 0 or 1, and a complex,
# a list or an object does not compare with a float at all; nor do a
# bytearray, a memoryview or a str subclass, which float() reads too, and a
# decimal NaN's comparison raises InvalidOperation
NOT_NUMBERS = ["0.5", b"0.5", None, True, False, 0.5j, [0.5], object(),
               bytearray(b"0.5"), memoryview(b"0.5"), Text("0.5"), Decimal("NaN"), Decimal("sNaN")]


def _not_a_number(name, value):
    """The row of a value that no rule takes. The repr of an object or a
    memoryview holds its address, so its row is named by its type instead,
    the same in every run."""
    want = f"{name} must be a number, got {value!r}"
    if type(value) in (object, memoryview):
        return pytest.param(name, value, want, id=f"{name}-{type(value).__name__}")
    return name, value, want


@pytest.mark.parametrize(
    "name, value, want",
    [
        *(_not_a_number(name, value) for name in CHECKS for value in NOT_NUMBERS),
        # ints and floats, a float subclass included, are checked by value as before
        ("beta", 1, 1), ("beta", Half(0.5), Half(0.5)), ("tol", 0, 0), ("eta", 3, 3),
        ("rho", 2, 2.0), ("rho", -0.0, 0.0), ("rho", Half(0.5), 0.5),
        ("beta", 0, "beta must be in (0, 1], got 0"),
        ("rho", 61, "rho 61.0 outside the supported range [0, 60]"),
        ("tol", -1, "tol must be >= 0, got -1"),
        ("eta", float("nan"), "eta must be positive, got nan"),
        # an int too large for a float is outside the region, and prints as it is
        pytest.param("rho", 10**400, f"rho {10**400} outside the supported range [0, 60]",
                     id="rho-10**400"),
        # an int over str()'s digit limit prints to six significant digits
        pytest.param("beta", 10**5000, "beta must be in (0, 1], got 1.00000e+5000",
                     id="beta-10**5000"),
        pytest.param("rho", 10**5000, "rho 1.00000e+5000 outside the supported range [0, 60]",
                     id="rho-10**5000"),
        pytest.param("tol", -10**5000, "tol must be >= 0, got -1.00000e+5000", id="tol--10**5000"),
        pytest.param("eta", -10**5000, "eta must be positive, got -1.00000e+5000",
                     id="eta--10**5000"),
    ],
)
def test_each_rule_takes_a_number_by_its_value(name, value, want):
    if isinstance(want, str):
        with pytest.raises(InputError) as info:
            CHECKS[name](value)
        assert str(info.value) == want
    else:
        got = CHECKS[name](value)
        assert (type(got), got, str(got)) == (type(want), want, str(want))
