"""The run parameters' rules: params.number makes a number a float, and each
check_* converts by it and checks the float; every public entry point that
takes a number gives floats or a typed error."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rac import (
    CalibrationResult,
    MarketDataset,
    ProjectionInputs,
    SampleMoments,
    SufficiencyFactors,
    UtilitySpec,
    crra_utility,
    lognormal_moment,
    make_comparison,
    with_final_consumption,
)
from rac.errors import InputError, RacError
from rac.params import check_beta, check_eta, check_rho, check_tol, number

CHECKS = {"beta": check_beta, "rho": check_rho, "tol": check_tol, "eta": check_eta}


class Half(float):
    """A float subclass, which each rule takes as the float it is."""


class Text(str):
    """A str subclass, which no rule takes as a number."""


# float() reads "0.5" and b"0.5", a bytearray, a memoryview and a str
# subclass, but none of their types defines __float__, nor does a complex's,
# a list's or an object's; a bool is 0 or 1 to float(); and float() raises
# for a signaling decimal NaN
NOT_NUMBERS = ["0.5", b"0.5", None, True, False, 0.5j, [0.5], object(),
               bytearray(b"0.5"), memoryview(b"0.5"), Text("0.5"), Decimal("sNaN")]
# a quiet decimal NaN is a number, the float nan, which each range rejects
NAN_MESSAGES = {"beta": "beta must be in (0, 1], got nan",
                "rho": "rho nan outside the supported range [0, 60]",
                "tol": "tol must be >= 0, got nan", "eta": "eta must be positive, got nan"}


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
        *(pytest.param(name, Decimal("NaN"), want, id=f"{name}-Decimal-NaN")
          for name, want in NAN_MESSAGES.items()),
        # ints and floats, a float subclass included, are checked as floats
        ("beta", 1, 1.0), ("beta", Half(0.5), 0.5), ("tol", 0, 0.0), ("eta", 3, 3.0),
        ("rho", 2, 2.0), ("rho", -0.0, 0.0), ("rho", Half(0.5), 0.5),
        # so are a Decimal and a Fraction
        ("beta", Decimal("0.25"), 0.25), ("eta", Fraction(1, 4), 0.25),
        ("beta", 0, "beta must be in (0, 1], got 0.0"),
        ("rho", 61, "rho 61.0 outside the supported range [0, 60]"),
        ("tol", -1, "tol must be >= 0, got -1.0"),
        ("eta", float("nan"), "eta must be positive, got nan"),
        # an int too large for a float is inf or -inf, outside each range, even
        # one over str()'s digit limit
        pytest.param("rho", 10**400, "rho inf outside the supported range [0, 60]",
                     id="rho-10**400"),
        pytest.param("beta", 10**5000, "beta must be in (0, 1], got inf", id="beta-10**5000"),
        pytest.param("rho", 10**5000, "rho inf outside the supported range [0, 60]",
                     id="rho-10**5000"),
        pytest.param("tol", -10**5000, "tol must be >= 0, got -inf", id="tol--10**5000"),
        pytest.param("eta", -10**5000, "eta must be positive, got -inf", id="eta--10**5000"),
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


# values of every type a caller may pass: ints, some past a float's range,
# floats, decimals (NaN and sNaN among them), fractions and non-numbers
MIXED = st.one_of(
    st.integers(),
    st.builds(lambda e, sign: sign * 10**e, st.integers(300, 5000), st.sampled_from([1, -1])),
    st.floats(), st.decimals(), st.fractions(), st.sampled_from([Decimal("NaN"), Decimal("sNaN")]),
    st.booleans(), st.text(max_size=3), st.binary(max_size=3), st.none(), st.complex_numbers(),
)
_SERIES = (2.0, 3.0)
_FIELDS = {
    ProjectionInputs: (515.4, 613.7, 150.0, 219441872.0),
    SampleMoments: (0.017, 0.0013, 1.018, 1.0698, 1.008, 7.3, 0.16),
    SufficiencyFactors: (0.96, 1.02),
    # CalibrationResult's numbers, as (rho, residual A, residual B, residual C, gap)
    CalibrationResult: (1.03, 0.0, 0.0, -5e-6, -5e-6),
    MarketDataset: (*_SERIES, *_SERIES, *_SERIES),
    make_comparison: (7.1, 7.3, 0.99, 0.96),
    lognormal_moment: (1.0, 0.017, 0.0013),
}
_BUILD = {
    CalibrationResult: lambda rho, a, b, c, gap: CalibrationResult(
        SufficiencyFactors(0.96, 1.02), rho, (a, b, c), gap),
    # the start year is an int, and the only value that is not a float
    MarketDataset: lambda *v: MarketDataset(1900, v[0:2], v[2:4], v[4:6])[1:],
}
# each entry point that takes a number, with `value` in one of its numbers
ENTRY_POINTS = [
    lambda value: number("value", value),
    *CHECKS.values(),
    UtilitySpec,
    lambda value: with_final_consumption(MarketDataset(1900, _SERIES, _SERIES, _SERIES), value)[1:],
    lambda value: crra_utility(value, UtilitySpec(2.0)),
    *(lambda value, f=f, i=i, values=values: _BUILD.get(f, f)(*values[:i], value, *values[i + 1:])
      for f, values in _FIELDS.items() for i in range(len(values))),
]


def _leaves(got):
    """The values of `got`, a value or a tuple of values and tuples."""
    return [leaf for item in got for leaf in _leaves(item)] if isinstance(got, tuple) else [got]


@settings(max_examples=150)
@given(value=MIXED)
def test_each_entry_point_gives_floats_or_a_typed_error(value):
    # number is the one type rule, so no value of any type reaches arithmetic
    # or a comparison unconverted: it becomes floats, or raises a RacError
    for call in ENTRY_POINTS:
        try:
            got = call(value)
        except RacError:
            continue
        assert {type(leaf) for leaf in _leaves(got)} == {float}, (value, got)
