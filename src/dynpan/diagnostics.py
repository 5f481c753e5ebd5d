"""Ex-post checks that flag a pseudo-solution or an equal-persistence panel.

Each check is a pure function of its inputs and returns a
:class:`DiagnosticReport` whose verdict is driven entirely by the statistic,
its large-sample standard error, and the declared endogeneity sign.  At the
spurious parameter point the level residual y - alpha - beta*x flips the
sign of its correlation with the input, which is what the first two checks
exploit; the third tests the observable footprint of unequal persistence
(the input gains a second autoregressive lag); the last guards a whole scan
against the flat no-information case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimate import _cross_moments, _design, _fmt, two_sls
from .identify import ObjectiveCurve
from .model import ParamPoint

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

    def render(self) -> str:
        return (f"statistic={self.statistic:.6g} "
                f"se={self.standard_error:.6g} verdict={self.verdict} "
                f"rule: {self.rule_applied}")

    def csv_rows(self):
        return (("statistic", _fmt(self.statistic)),
                ("standard_error", _fmt(self.standard_error)),
                ("verdict", self.verdict),
                ("rule_applied", self.rule_applied))


def _sign_name(declared_theta_sign: str) -> float:
    if declared_theta_sign == "theta_positive":
        return 1.0
    if declared_theta_sign == "theta_negative":
        return -1.0
    raise ValidationError(
        "declared sign must be theta_positive or theta_negative",
        field="declared_theta_sign")


def _level_forms(panel, p: ParamPoint):
    """The panel's all-period cross-moments with the forms of x and of the
    level residual y - alpha - beta x; both checks on a panel share them."""
    mom = _cross_moments(panel, 0)
    const, y, x = mom.forms(("const", "y_lag0", "x_lag0")).T
    return mom, x, y - p.alpha * const - p.beta * x


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
    want = _sign_name(declared_theta_sign)
    mom, x, e = _level_forms(panel, p)
    centered = np.column_stack([x, e])
    centered[0] = 0.0  # drop the constant: the forms' deviations from mean
    (sxx, sxe), (_, see) = mom.cross(centered, centered)
    rule = (f"corr(x, y - alpha - beta x) should carry the declared theta "
            f"sign; flag when it contradicts by > {SIGN_TEST_BAND:.0f} se")
    if sxx <= 0.0 or see <= 0.0:
        return DiagnosticReport(float("nan"), float("nan"), "inconclusive",
                                rule + " (degenerate: zero variance)")
    corr = float(np.clip(sxe / np.sqrt(sxx * see), -1.0, 1.0))
    stderr = 1.0 / np.sqrt(mom.n)
    return DiagnosticReport(corr, stderr, _signed_verdict(corr * want, stderr),
                            rule)


def moment_inequality(panel, p: ParamPoint,
                      declared_theta_sign: str = "theta_positive",
                      ) -> DiagnosticReport:
    """One-sided check of E[x * (y - alpha - beta x)] >= 0 (for theta > 0).

    Necessary at the truth under the declared sign, violated at the
    pseudo-solution; it cannot by itself confirm a candidate.
    """
    want = _sign_name(declared_theta_sign)
    mom, x, e = _level_forms(panel, p)
    stat = float(mom.cross(x, e))
    stderr = float(mom.ses(x[:, None], e, np.array([stat]))[0])
    rule = ("one-sided: mean(x * residual) signed by theta must not be "
            f"below -{SIGN_TEST_BAND:.0f} se")
    if not stderr > 0.0:
        return DiagnosticReport(stat, float("nan"), "inconclusive",
                                rule + " (degenerate: zero variance)")
    return DiagnosticReport(stat, stderr, _signed_verdict(stat * want, stderr),
                            rule)


def ar_order_test(panel) -> DiagnosticReport:
    """Second-lag coefficient of the input's autoregression.

    With unequal persistence parameters the input is a two-factor process
    whose projection needs two lags; with equal persistence it is exactly
    AR(1).  |t| > AR_TEST_REJECT supports unequal persistence, |t| <
    AR_TEST_FLAT warns that the persistences look equal, in between is
    inconclusive.
    """
    if panel.spec.n_periods < 3:
        raise ValidationError("need at least 3 periods", field="n_periods")
    names = ("const", "x_lag1", "x_lag2")
    D = _design(panel, ("x_lag0",) + names, 2)
    X = D[:, 1:]
    fit = two_sls(D[:, 0], X, X, names=names)
    coef2 = float(fit.coefficients[2])
    se2 = float(fit.std_errors()[2])
    t = abs(coef2) / se2 if se2 > 0 else float("inf")
    rule = (f"x on (1, x_lag1, x_lag2): second-lag |t| > "
            f"{AR_TEST_REJECT:.0f} supports unequal persistence; |t| < "
            f"{AR_TEST_FLAT:.0f} warns of equal persistence")
    if t > AR_TEST_REJECT:
        verdict = "consistent_with_truth"
    elif t < AR_TEST_FLAT:
        verdict = "equal_rho_warning"
    else:
        verdict = "inconclusive"
    return DiagnosticReport(coef2, se2, verdict, rule)


def flatness_guard(curve: ObjectiveCurve) -> DiagnosticReport:
    """Largest standardized |m| over a scanned grid.

    A moment that never separates from zero by FLATNESS_BAND standard
    errors anywhere on the grid means the scan carries no slope
    information, the equal-persistence pathology.
    """
    ok = np.isfinite(curve.m) & np.isfinite(curve.ses) & (curve.ses > 0)
    rule = (f"max over grid of |m|/se(m) < {FLATNESS_BAND:.0f} means the "
            "moment is flat at zero everywhere (equal-persistence warning)")
    if not ok.any():
        return DiagnosticReport(float("nan"), float("nan"), "inconclusive",
                                rule + " (no valid grid points)")
    ratios = np.abs(curve.m[ok]) / curve.ses[ok]
    stat = float(ratios.max())
    if stat < FLATNESS_BAND:
        verdict = "equal_rho_warning"
    else:
        verdict = "consistent_with_truth"
    return DiagnosticReport(stat, 1.0, verdict, rule)


def write_diagnostic_csv(report: DiagnosticReport, path) -> None:
    """name,value rows including the rule text."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,value\n")
        for name, value in report.csv_rows():
            fh.write(f"{name},\"{value}\"\n" if "," in str(value)
                     else f"{name},{value}\n")
