"""Calibration of the firm-clustered standard errors over seeds.

A firm's rows share its persistent unobservables, so a firm is one cluster
(Liang & Zeger 1986; Arellano 1987).  At the truth, the Monte Carlo standard
deviation of each statistic over 400 seeds is compared with the mean of the
standard errors the package reports for it; with 400 draws the ratio is good
to about +-3.5%.  Row-level standard errors read the moment inequality's
ratio as about 1.34 at 4,000 x 5 and 1.49 at 1,000 x 20.
"""

import numpy as np
import pytest

from conftest import make_spec
from dynpan.diagnostics import moment_inequality
from dynpan.estimate import beta_scan_evaluator, concentrate_rho
from dynpan.model import ParamPoint
from dynpan.simulate import draw_panel

SEEDS = range(1000, 1400)
TRUTH = ParamPoint(alpha=1.0, beta=0.6, rho=0.7)
#: The band every SD / mean-SE ratio must fall in.
BAND = (0.85, 1.15)


def statistics(seed, n_firms, n_periods):
    """(value, reported SE) of each calibrated statistic on one seed."""
    bench = draw_panel(make_spec(n_firms=n_firms, n_periods=n_periods,
                                 seed=seed))
    multi = draw_panel(make_spec("multi_input", n_firms=n_firms,
                                 n_periods=n_periods, seed=seed))
    ineq = moment_inequality(bench, TRUTH)
    beta = beta_scan_evaluator(bench)(TRUTH.beta)
    rho = concentrate_rho(multi, TRUTH.rho, family="multi_input")
    return {"moment inequality": (ineq.statistic, ineq.standard_error),
            "beta moment at 0.6": (beta.moments[0], beta.moment_ses[0]),
            "multi_input rho moment at 0.7": (rho.moments[0],
                                              rho.moment_ses[0])}


@pytest.mark.parametrize("n_firms, n_periods", [(4000, 5), (1000, 20)])
def test_standard_errors_match_the_spread_over_seeds(n_firms, n_periods):
    draws = [statistics(seed, n_firms, n_periods) for seed in SEEDS]
    ratios = {}
    for name in draws[0]:
        values, ses = np.array([d[name] for d in draws]).T
        ratios[name] = values.std(ddof=1) / ses.mean()
        print(f"{n_firms} x {n_periods}, {name}: MC SD / mean SE = "
              f"{ratios[name]:.3f}")
    assert all(BAND[0] <= r <= BAND[1] for r in ratios.values()), ratios
