"""The run parameters' rules: each check_* takes a number and checks its value."""

import pytest

from rac.errors import InputError
from rac.params import check_beta, check_eta, check_rho, check_tol

CHECKS = {"beta": check_beta, "rho": check_rho, "tol": check_tol, "eta": check_eta}


class Half(float):
    """A float subclass, which each rule takes as the float it is."""


# float() reads "0.5" and b"0.5", a bool compares as 0 or 1, and a complex,
# a list or an object does not compare with a float at all
NOT_NUMBERS = ["0.5", b"0.5", None, True, False, 0.5j, [0.5], object()]


@pytest.mark.parametrize(
    "name, value, want",
    [
        *((name, value, f"{name} must be a number, got {value!r}")
          for name in CHECKS for value in NOT_NUMBERS),
        # ints and floats, a float subclass included, are checked by value as before
        ("beta", 1, 1), ("beta", Half(0.5), Half(0.5)), ("tol", 0, 0), ("eta", 3, 3),
        ("rho", 2, 2.0), ("rho", -0.0, 0.0), ("rho", Half(0.5), 0.5),
        ("beta", 0, "beta must be in (0, 1], got 0"),
        ("rho", 61, "rho 61.0 outside the supported range [0, 60]"),
        ("tol", -1, "tol must be >= 0, got -1"),
        ("eta", float("nan"), "eta must be positive, got nan"),
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
