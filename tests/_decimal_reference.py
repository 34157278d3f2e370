"""A 60-digit decimal reference for the whole pipeline, written straight from
the formulas in rac's module docstrings. It imports nothing from rac.

Every float given is taken exactly (a Decimal made from a float is exact),
and decimal's ln and exp are correctly rounded, so each result carries about
60 correct digits: a float that rac computes differs from it by rac's own
rounding alone.

- moments: the seven sample moments of a dataset (moments docstring);
- gap: the consistency gap ln(mean_x) - mu_x - sigma2_x/2;
- log_factors: ln zeta and ln xi at (rho, beta), eqs B and A solved for
  their log factors (calibration docstring);
- utilities: the certain utility of the next-to-last consumption, E[u] over
  the log-normal level, and for one eta the uncertain utility beta*eta*E[u]
  and delta = certain - uncertain (utility and classify docstrings);
- pipeline: all of them from a dataset, with eta = zeta for the equity
  investor and eta = xi for the risk-free one, as `rac classify` reads it.
"""

from decimal import Context, Decimal, localcontext

CONTEXT = Context(prec=60)


def _mean(values):
    return sum(values) / len(values)


def _mean_var(values):
    """Mean and population variance."""
    mean = _mean(values)
    return mean, _mean([(v - mean) ** 2 for v in values])


def moments(consumption, equity_return, riskfree_return):
    """The seven sample moments, as Decimals: growth over the n-1 ratios
    c[t+1]/c[t], levels over all n log levels, return means over every row,
    variances with the population divisor."""
    with localcontext(CONTEXT):
        c = [Decimal(v) for v in consumption]
        ratios = [later / earlier for earlier, later in zip(c, c[1:])]
        mu_x, sigma2_x = _mean_var([r.ln() for r in ratios])
        mu_z, sigma2_z = _mean_var([v.ln() for v in c])
        return {
            "mu_x": mu_x,
            "sigma2_x": sigma2_x,
            "mean_x": _mean(ratios),
            "mean_Re": _mean([Decimal(v) for v in equity_return]),
            "mean_Rf": _mean([Decimal(v) for v in riskfree_return]),
            "mu_z": mu_z,
            "sigma2_z": sigma2_z,
        }


def gap(m):
    """ln(mean_x) - mu_x - sigma2_x/2 of the moments `m` (floats or Decimals)."""
    with localcontext(CONTEXT):
        return Decimal(m["mean_x"]).ln() - Decimal(m["mu_x"]) - Decimal(m["sigma2_x"]) / 2


def log_factors(m, rho, beta):
    """(ln zeta, ln xi) at (rho, beta) from the moments `m`:

        ln zeta = ln mean_x - ln beta - (1-rho)*mu_x - (1-rho)^2*sigma2_x/2 - ln mean_Re
        ln xi   = -ln mean_Rf - ln beta + rho*mu_x - rho^2*sigma2_x/2
    """
    with localcontext(CONTEXT):
        mu, s2 = Decimal(m["mu_x"]), Decimal(m["sigma2_x"])
        rho, ln_beta = Decimal(rho), Decimal(beta).ln()
        a = 1 - rho
        ln_zeta = Decimal(m["mean_x"]).ln() - ln_beta - a * mu - a * a * s2 / 2
        ln_zeta -= Decimal(m["mean_Re"]).ln()
        ln_xi = -Decimal(m["mean_Rf"]).ln() - ln_beta + rho * mu - rho * rho * s2 / 2
        return ln_zeta, ln_xi


def utilities(m, certain_consumption, rho, beta, eta):
    """The certain utility u(c) = (c^(1-rho) - 1)/(1-rho) (ln c at rho = 1),
    E[u] = (exp(a*mu_z + a^2*sigma2_z/2) - 1)/a with a = 1 - rho (mu_z at
    a = 0), the uncertain utility beta*eta*E[u], and delta."""
    with localcontext(CONTEXT):
        a = 1 - Decimal(rho)
        ln_c, mu_z = Decimal(certain_consumption).ln(), Decimal(m["mu_z"])
        if a == 0:
            certain, expected = ln_c, mu_z
        else:
            certain = ((a * ln_c).exp() - 1) / a
            expected = ((a * mu_z + a * a * Decimal(m["sigma2_z"]) / 2).exp() - 1) / a
        uncertain = Decimal(beta) * Decimal(eta) * expected
        return {
            "certain": certain,
            "expected_u": expected,
            "uncertain": uncertain,
            "delta": certain - uncertain,
        }


def pipeline(consumption, equity_return, riskfree_return, rho, beta):
    """Every quantity above from a dataset, at (rho, beta)."""
    m = moments(consumption, equity_return, riskfree_return)
    ln_zeta, ln_xi = log_factors(m, rho, beta)
    with localcontext(CONTEXT):
        zeta, xi = ln_zeta.exp(), ln_xi.exp()
    result = {**m, "gap": gap(m), "zeta": zeta, "xi": xi}
    for investor, eta in (("equity", zeta), ("riskfree", xi)):
        u = utilities(m, consumption[-2], rho, beta, eta)
        result.update(certain=u["certain"], expected_u=u["expected_u"])
        result[f"uncertain_{investor}"] = u["uncertain"]
        result[f"delta_{investor}"] = u["delta"]
    return result
