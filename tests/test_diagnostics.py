"""Tests for the pseudo-solution and flatness diagnostics."""

import warnings

import numpy as np
import pytest

from conftest import DEFAULTS, make_spec
from dynpan import cli
from dynpan.errors import RankDeficiencyError, ValidationError
from dynpan.model import ParamPoint, pseudo_point
from dynpan.simulate import draw_panel
from dynpan.identify import ObjectiveCurve, scan_curve
from dynpan.diagnostics import (
    ar_order_test,
    flatness_guard,
    moment_inequality,
    residual_sign_test,
)

TRUTH = ParamPoint(alpha=1.0, beta=0.6, rho=0.7)
PSEUDO = pseudo_point(DEFAULTS)
#: The one note of a report whose statistic has no standard error.
NO_SE = "(degenerate: no standard error)"


class TestResidualSignTest:
    def test_truth_has_positive_correlation(self, bench200k):
        rep = residual_sign_test(bench200k, TRUTH, "theta_positive")
        assert rep.statistic > 0
        assert rep.verdict == "consistent_with_truth"

    def test_pseudo_has_negative_correlation(self, bench200k):
        rep = residual_sign_test(bench200k, PSEUDO, "theta_positive")
        assert rep.statistic < 0
        assert rep.verdict == "pseudo_suspected"

    def test_declared_negative_sign_flips_reading(self, bench200k):
        rep = residual_sign_test(bench200k, TRUTH, "theta_negative")
        assert rep.verdict == "pseudo_suspected"
        rep = residual_sign_test(bench200k, PSEUDO, "theta_negative")
        assert rep.verdict == "consistent_with_truth"

    def test_zero_variance_is_inconclusive(self):
        panel = draw_panel(make_spec(sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0, n_firms=50))
        rep = residual_sign_test(panel, TRUTH)
        assert rep.verdict == "inconclusive"
        assert rep.rule_applied.endswith(NO_SE)
        rep = moment_inequality(panel, TRUTH)
        assert rep.statistic == 0.0 and np.isnan(rep.standard_error)
        assert rep.verdict == "inconclusive"
        assert rep.rule_applied.endswith(NO_SE)

    def test_bad_sign_label_rejected(self, bench200k):
        with pytest.raises(ValidationError) as err:
            residual_sign_test(bench200k, TRUTH, "plus")
        assert err.value.field == "declared_theta_sign"


class TestMomentInequality:
    def test_truth_statistic_positive(self, bench200k):
        # population value is theta * var(omega) ~ 1.96 under defaults
        rep = moment_inequality(bench200k, TRUTH)
        assert rep.statistic == pytest.approx(1.96, abs=0.15)
        assert rep.verdict == "consistent_with_truth"

    def test_pseudo_statistic_negative(self, bench200k):
        # population value is -var(kappa) ~ -1.33 under defaults
        rep = moment_inequality(bench200k, PSEUDO)
        assert rep.statistic == pytest.approx(-1.33, abs=0.15)
        assert rep.verdict == "pseudo_suspected"

    def test_one_sided_only(self, bench200k):
        # a badly wrong slope in the other direction still looks consistent
        rep = moment_inequality(bench200k, ParamPoint(1.0, -2.0, 0.7))
        assert rep.verdict == "consistent_with_truth"


class TestArOrderTest:
    def test_unequal_persistence_rejects_single_lag(self, bench200k):
        rep = ar_order_test(bench200k)
        assert abs(rep.statistic) / rep.standard_error > 4.0
        assert rep.verdict == "consistent_with_truth"

    def test_equal_persistence_warns(self, equal_rho_200k):
        rep = ar_order_test(equal_rho_200k)
        assert rep.verdict == "equal_rho_warning"

    def test_zero_noise_rank_error(self):
        panel = draw_panel(make_spec(sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0, n_firms=50))
        with pytest.raises(RankDeficiencyError):
            ar_order_test(panel)

    @pytest.mark.parametrize("n_firms, n_periods",
                             [(1, 5), (1, 6), (1, 7), (2, 4)])
    def test_tiny_panels_report_instead_of_raising(self, n_firms, n_periods):
        for seed in range(60):
            rep = ar_order_test(draw_panel(make_spec(
                n_firms=n_firms, n_periods=n_periods, seed=seed)))
            assert rep.verdict in ("consistent_with_truth", "inconclusive",
                                   "equal_rho_warning")
            if not rep.standard_error > 0.0:  # only two_sls's exact fit
                assert rep.rule_applied.endswith(NO_SE)

    def test_fit_without_residual_degrees_of_freedom_is_inconclusive(self):
        # one firm at five periods: three observations, three coefficients
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [ar_order_test(draw_panel(make_spec(n_firms=1,
                                                          seed=seed)))
                       for seed in range(20)]
        assert {rep.verdict for rep in reports} == {"inconclusive"}
        assert all(rep.rule_applied.endswith(NO_SE) for rep in reports)


class TestFlatnessGuard:
    def test_equal_persistence_curve_triggers(self, equal_rho_200k):
        grid = np.round(np.arange(0.0, 2.0001, 0.02), 10)
        curve = scan_curve(equal_rho_200k, "beta", grid)
        rep = flatness_guard(curve)
        assert rep.verdict == "equal_rho_warning"

    def test_benchmark_curve_does_not_trigger(self, bench200k):
        grid = np.round(np.arange(0.0, 2.0001, 0.02), 10)
        curve = scan_curve(bench200k, "beta", grid)
        rep = flatness_guard(curve)
        assert rep.verdict == "consistent_with_truth"
        assert rep.statistic > 3.0

    def test_constant_zero_curve_triggers(self):
        grid = np.linspace(0.0, 2.0, 11)
        curve = ObjectiveCurve(axis="beta", grid=grid, m=np.zeros(11),
                               evaluator=lambda b: 0.0)
        curve.ses = np.full(11, 0.01)
        rep = flatness_guard(curve)
        assert rep.verdict == "equal_rho_warning"

    def test_no_valid_points_is_inconclusive(self):
        grid = np.linspace(0.0, 1.0, 5)
        curve = ObjectiveCurve(axis="beta", grid=grid, m=np.full(5, np.nan),
                               evaluator=lambda b: np.nan)
        curve.ses = np.full(5, np.nan)
        rep = flatness_guard(curve)
        assert np.isnan(rep.statistic) and np.isnan(rep.standard_error)
        assert rep.verdict == "inconclusive"
        assert rep.rule_applied.endswith(NO_SE)


class TestPurityAndExport:
    def test_reports_are_reproducible(self, bench200k):
        a = residual_sign_test(bench200k, TRUTH)
        b = residual_sign_test(bench200k, TRUTH)
        assert a == b

    def test_csv_render(self, bench200k, tmp_path):
        rep = ar_order_test(bench200k)
        out = tmp_path / "diag.csv"
        cli._lines_writer(cli._report_lines(rep))(out)
        text = out.read_text()
        assert text.startswith("name,value\n")
        assert "verdict," in text
        assert "rule_applied," in text
