"""Sample moments of a market dataset and the log-normal moment formula.

Growth moments are taken over the n-1 consumption ratios x_t = c_{t+1}/c_t,
level moments over the log levels ln(c_t) of all n years, including the final
year (so replacing the final consumption changes mu_z and sigma2_z as well as
the last growth ratio). Return means use every return row. Variances use the
population divisor (the number of observations).

The arithmetic is plain Python. Sums are math.fsum, so each is correctly
rounded whatever the series length, and variances are two-pass: squared
deviations from the mean, less the square of the summed deviations over n,
which cancels the rounding of the mean itself (the corrected two-pass form).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from operator import mul, sub, truediv

from .dataset import MarketDataset
from .errors import InputError, NegativeVariance, NonFiniteMoment


_MOMENT_FIELDS = "mu_x sigma2_x mean_x mean_Re mean_Rf mu_z sigma2_z"


class SampleMoments(namedtuple("SampleMoments", _MOMENT_FIELDS)):
    """First and second moments feeding calibration and expected utility.

    mu_x, sigma2_x: mean/variance of log consumption growth
    mean_x:         arithmetic mean of gross consumption growth
    mean_Re:        arithmetic mean of the equity gross return
    mean_Rf:        arithmetic mean of the risk-free gross return
    mu_z, sigma2_z: mean/variance of log consumption levels
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        m = super().__new__(cls, *args, **kwargs)
        if m.sigma2_x < 0 or m.sigma2_z < 0:
            raise NegativeVariance("variances must be nonnegative")
        if min(m.mean_x, m.mean_Re, m.mean_Rf) <= 0:
            raise InputError("gross means must be positive")
        return m


def _mean_var(values: list[float]) -> tuple[float, float]:
    """Mean and population variance of `values` (corrected two-pass)."""
    n = len(values)
    mean = math.fsum(values) / n
    dev = list(map(sub, values, repeat(mean)))
    return mean, (math.fsum(map(mul, dev, dev)) - math.fsum(dev) ** 2 / n) / n


def compute_moments(d: MarketDataset) -> SampleMoments:
    """Sample moments of `d`.

    Raises NonFiniteMoment when a moment is not finite (a growth ratio or a
    sum outside the floating-point range). `d` has at least two years, so
    there is always a growth ratio.
    """
    c = d.consumption.values
    n = len(c)
    try:
        x = list(map(truediv, c[1:], c))
        mu_x, sigma2_x = _mean_var(list(map(math.log, x)))
        mu_z, sigma2_z = _mean_var(list(map(math.log, c)))
        values = (
            mu_x,
            sigma2_x,
            math.fsum(x) / (n - 1),
            math.fsum(d.equity_return.values) / n,
            math.fsum(d.riskfree_return.values) / n,
            mu_z,
            sigma2_z,
        )
    except (OverflowError, ValueError):
        # fsum overflowed or met inf - inf, or a ratio underflowed to 0 (no log)
        values = (math.nan,)
    if not all(map(math.isfinite, values)):
        raise NonFiniteMoment("a sample moment is not finite: values span too wide a range")
    return SampleMoments(*values)


def lognormal_moment(a: float, mu: float, sigma2: float) -> float:
    """E[z^a] for ln z ~ N(mu, sigma2): exp(a*mu + a^2*sigma2/2)."""
    if sigma2 < 0:
        raise NegativeVariance("sigma2 must be nonnegative")
    return math.exp(a * mu + 0.5 * a * a * sigma2)


def consistency_gap(m: SampleMoments) -> float:
    """ln(mean_x) - (mu_x + sigma2_x/2).

    Zero exactly when the growth sample satisfies the log-normal mean
    identity. The three calibration equations differ by precisely this
    number, so it measures how far the system is from having any exact
    solution (see calibration module).
    """
    return math.log(m.mean_x) - (m.mu_x + 0.5 * m.sigma2_x)
