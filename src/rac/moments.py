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

The realized and projected variants of a dataset differ only in the final
consumption value, so compute_variant_moments takes the moments of several
final values in one pass over what they share; compute_moments is that pass
with the dataset's own final value.
"""

import math
from collections import namedtuple
from itertools import chain, repeat
from operator import mul, sub, truediv

from .dataset import MarketDataset
from .errors import InputError, NegativeVariance, NonFiniteMoment
from .params import number


_MOMENT_FIELDS = "mu_x sigma2_x mean_x mean_Re mean_Rf mu_z sigma2_z"


class SampleMoments(namedtuple("SampleMoments", _MOMENT_FIELDS)):
    """First and second moments feeding calibration and expected utility.

    mu_x, sigma2_x: mean/variance of log consumption growth
    mean_x:         arithmetic mean of gross consumption growth
    mean_Re:        arithmetic mean of the equity gross return
    mean_Rf:        arithmetic mean of the risk-free gross return
    mu_z, sigma2_z: mean/variance of log consumption levels

    Each is converted by params.number.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, *args, **kwargs):
        m = super().__new__(cls, *args, **kwargs)  # binds each argument to its field
        m = tuple.__new__(cls, map(number, cls._fields, m))
        # written so that NaN fails each check
        if not (m.sigma2_x >= 0 and m.sigma2_z >= 0):
            raise NegativeVariance("variances must be nonnegative")
        if not (m.mean_x > 0 and m.mean_Re > 0 and m.mean_Rf > 0):
            raise InputError("gross means must be positive")
        if not all(map(math.isfinite, m)):
            raise InputError("sample moments must be finite")
        return m


def _mean_var(values: list[float], last: float) -> tuple[float, float]:
    """Mean and population variance of values + [last] (corrected two-pass)."""
    n = len(values) + 1
    mean = math.fsum(chain(values, (last,))) / n
    dev = list(map(sub, values, repeat(mean)))
    dev.append(last - mean)
    return mean, (math.fsum(map(mul, dev, dev)) - math.fsum(dev) ** 2 / n) / n


def _growth(ratios: list[float], logs: list[float], last: float) -> tuple[float, float, float]:
    """mu_x, sigma2_x and mean_x of the growth ratios + [last], given their logs."""
    return (*_mean_var(logs, math.log(last)), math.fsum(chain(ratios, (last,))) / (len(ratios) + 1))


def compute_variant_moments(d: MarketDataset, finals: list[float]) -> list[SampleMoments]:
    """[compute_moments(with_final_consumption(d, v)) for v in finals], for
    positive finite values `finals`, from one pass.

    What the variants share is computed once: the n-2 growth ratios before
    the last and their logs, the logs of the levels before the last, and the
    return means. The deviation passes stay per variant, since each has its
    own means. Every variant's growth side is done and freed before the
    level side starts, so memory peaks as for a single variant.

    Raises NonFiniteMoment when any variant's moment is not finite.
    """
    c = d.consumption
    n = len(c)
    try:
        ratios = list(map(truediv, c[1:-1], c))
        logs = list(map(math.log, ratios))
        growth = [_growth(ratios, logs, v / c[-2]) for v in finals]
        del ratios, logs
        returns = (math.fsum(d.equity_return) / n, math.fsum(d.riskfree_return) / n)
        logs = list(map(math.log, c[:-1]))
        levels = [_mean_var(logs, math.log(v)) for v in finals]
        del logs
        values = [(*g, *returns, *z) for g, z in zip(growth, levels)]
    except (OverflowError, ValueError):
        # an fsum overflowed or met inf - inf, or a ratio underflowed to 0 (no log)
        values = [(math.nan,)]
    if not all(map(math.isfinite, chain.from_iterable(values))):
        raise NonFiniteMoment("a sample moment is not finite: values span too wide a range")
    return [SampleMoments(*v) for v in values]


def compute_moments(d: MarketDataset) -> SampleMoments:
    """Sample moments of `d`.

    Raises NonFiniteMoment when a moment is not finite (a growth ratio or a
    sum outside the floating-point range). `d` has at least two years, so
    there is always a growth ratio.
    """
    return compute_variant_moments(d, [d.consumption[-1]])[0]


def lognormal_moment(a: float, mu: float, sigma2: float) -> float:
    """E[z^a] for ln z ~ N(mu, sigma2): exp(a*mu + a^2*sigma2/2).

    Raises InputError for an argument that is not a number (params.number),
    NegativeVariance for a sigma2 that is not nonnegative, and
    NonFiniteMoment when the moment is not finite (NaN, or too large).
    """
    a, mu, sigma2 = number("a", a), number("mu", mu), number("sigma2", sigma2)
    if not sigma2 >= 0:
        raise NegativeVariance("sigma2 must be nonnegative")
    x = a * mu + 0.5 * a * a * sigma2
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteMoment(f"log-normal moment is not finite (exponent {x:.6g})")
    return value


def consistency_gap(m: SampleMoments) -> float:
    """ln(mean_x) - (mu_x + sigma2_x/2).

    Zero exactly when the growth sample satisfies the log-normal mean
    identity. The three calibration equations differ by precisely this
    number, so it measures how far the system is from having any exact
    solution (see calibration module).
    """
    return math.log(m.mean_x) - (m.mu_x + 0.5 * m.sigma2_x)
