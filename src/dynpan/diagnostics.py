"""Ex-post checks that flag a pseudo-solution or an equal-persistence panel.

Each check is a pure function of its inputs and returns a
:class:`DiagnosticReport` whose verdict is driven entirely by the statistic,
its large-sample standard error, and the declared endogeneity sign.  At the
spurious parameter point the level residual y - alpha - beta*x flips the
sign of its correlation with the input, which is what the first two checks
exploit; the third tests the observable footprint of unequal persistence
(the input gains a second autoregressive lag); the last guards a whole scan
against the flat no-information case.  Nothing here writes a file:
:mod:`dynpan.cli` renders the reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import two_sls
from .identify import ObjectiveCurve
from .model import ParamPoint, _theta_sign
from .moments import _moments_from

#: Standard-error multiples used by the verdict rules.
SIGN_TEST_BAND = 3.0
AR_TEST_REJECT = 4.0
AR_TEST_FLAT = 2.0
FLATNESS_BAND = 3.0


@dataclass(frozen=True)
class DiagnosticReport:
    statistic: float
    standard_error: float
    verdict: str
    rule_applied: str


def _level_forms(panel, p: ParamPoint, declared_theta_sign: str):
    """The declared theta sign, the all-period cross-moments and the forms
    of x and of y - alpha - beta x, which both checks on a panel share."""
    want = _theta_sign(declared_theta_sign, "declared_theta_sign")
    mom = _moments_from(panel, 0, ())
    const, y, x = mom.forms(("const", "y_lag0", "x_lag0")).T
    return want, mom, x, y - p.alpha * const - p.beta * x


def _report(stat, stderr, verdict: str, rule: str) -> DiagnosticReport:
    """The one rule: a statistic whose standard error is not a positive
    number is inconclusive, whatever its check's verdict."""
    if not stderr > 0.0:
        return DiagnosticReport(stat, float("nan"), "inconclusive",
                                rule + " (degenerate: no standard error)")
    return DiagnosticReport(stat, stderr, verdict, rule)


def _signed_verdict(signed: float, stderr: float) -> str:
    """The verdict on a statistic signed by the declared theta sign."""
    if signed < -SIGN_TEST_BAND * stderr:
        return "pseudo_suspected"
    if signed > SIGN_TEST_BAND * stderr:
        return "consistent_with_truth"
    return "inconclusive"


def residual_sign_test(panel, p: ParamPoint,
                       declared_theta_sign: str = "theta_positive",
                       ) -> DiagnosticReport:
    """Correlation between the input and the level residual at a candidate.

    At the truth the residual contains the persistent unobservable the
    input loads on, so the correlation carries theta's sign; at the
    pseudo-solution the residual is the negatively-loaded market factor and
    the correlation flips.  A flip of more than SIGN_TEST_BAND standard
    errors (about 1/sqrt(n)) is flagged.
    """
    want, mom, x, e = _level_forms(panel, p, declared_theta_sign)
    centered = np.column_stack([x, e])
    centered[0] = 0.0  # drop the constant: the forms' deviations from mean
    (sxx, sxe), (_, see) = mom.cross(centered, centered)
    rule = (f"corr(x, y - alpha - beta x) should carry the declared theta "
            f"sign; flag when it contradicts by > {SIGN_TEST_BAND:.0f} se")
    corr = stderr = float("nan")  # a zero variance
    if sxx > 0.0 and see > 0.0:
        corr = float(np.clip(sxe / np.sqrt(sxx * see), -1.0, 1.0))
        stderr = 1.0 / np.sqrt(mom.n)
    return _report(corr, stderr, _signed_verdict(corr * want, stderr), rule)


def moment_inequality(panel, p: ParamPoint,
                      declared_theta_sign: str = "theta_positive",
                      ) -> DiagnosticReport:
    """One-sided check of E[x * (y - alpha - beta x)] >= 0 (for theta > 0).

    Necessary at the truth under the declared sign, violated at the
    pseudo-solution; it cannot by itself confirm a candidate.
    """
    want, mom, x, e = _level_forms(panel, p, declared_theta_sign)
    stat = float(mom.cross(x, e))
    stderr = float(mom.ses(x[:, None], e, np.array([stat]))[0])
    rule = ("one-sided: mean(x * residual) signed by theta must not be "
            f"below -{SIGN_TEST_BAND:.0f} se")
    return _report(stat, stderr, _signed_verdict(stat * want, stderr), rule)


def ar_order_test(panel) -> DiagnosticReport:
    """Second-lag coefficient of the input's autoregression.

    With unequal persistence parameters the input is a two-factor process
    whose projection needs two lags; with equal persistence it is exactly
    AR(1).  |t| > AR_TEST_REJECT supports unequal persistence, |t| <
    AR_TEST_FLAT warns that they look equal, in between is inconclusive.
    """
    names = ("const", "x_lag1", "x_lag2")
    fit = two_sls(panel, "x_lag0", names, names)
    coef2, se2 = float(fit.coefficients[2]), float(fit.std_errors[2])
    rule = (f"x on (1, x_lag1, x_lag2): second-lag |t| > "
            f"{AR_TEST_REJECT:.0f} supports unequal persistence; |t| < "
            f"{AR_TEST_FLAT:.0f} warns of equal persistence")
    with np.errstate(divide="ignore", invalid="ignore"):  # se2 may be 0
        t = abs(fit.coefficients[2]) / fit.std_errors[2]
    if t > AR_TEST_REJECT:
        verdict = "consistent_with_truth"
    elif t < AR_TEST_FLAT:
        verdict = "equal_rho_warning"
    else:
        verdict = "inconclusive"
    return _report(coef2, se2, verdict, rule)


def flatness_guard(curve: ObjectiveCurve) -> DiagnosticReport:
    """Largest standardized |m| over a scanned grid.

    A moment that never separates from zero by FLATNESS_BAND standard
    errors anywhere on the grid means the scan carries no slope
    information, the equal-persistence pathology.
    """
    ok = np.isfinite(curve.m) & np.isfinite(curve.ses) & (curve.ses > 0)
    rule = (f"max over grid of |m|/se(m) < {FLATNESS_BAND:.0f} means the "
            "moment is flat at zero everywhere (equal-persistence warning)")
    ratios = np.abs(curve.m[ok]) / curve.ses[ok]  # unit standard errors
    stat, unit = (float(ratios.max()), 1.0) if ok.any() else (np.nan, np.nan)
    if stat < FLATNESS_BAND:
        verdict = "equal_rho_warning"
    else:
        verdict = "consistent_with_truth"
    return _report(stat, unit, verdict, rule)
