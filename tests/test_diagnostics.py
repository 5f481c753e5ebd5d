"""Tests for the pseudo-solution and flatness diagnostics."""

import numpy as np
import pytest

from conftest import DEFAULTS, make_spec
from dynpan.errors import RankDeficiencyError, ValidationError
from dynpan.model import ParamPoint, pseudo_point
from dynpan.simulate import draw_panel
from dynpan.identify import ObjectiveCurve, scan_curve
from dynpan.diagnostics import (
    ar_order_test,
    flatness_guard,
    moment_inequality,
    residual_sign_test,
    write_diagnostic_csv,
)

TRUTH = ParamPoint(alpha=1.0, beta=0.6, rho=0.7)
PSEUDO = pseudo_point(DEFAULTS)


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
        assert rep.rule_applied.endswith("(degenerate: zero variance)")
        rep = moment_inequality(panel, TRUTH)
        assert rep.statistic == 0.0 and np.isnan(rep.standard_error)
        assert rep.verdict == "inconclusive"
        assert rep.rule_applied.endswith("(degenerate: zero variance)")

    def test_bad_sign_label_rejected(self, bench200k):
        with pytest.raises(ValidationError):
            residual_sign_test(bench200k, TRUTH, "plus")


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
                               msq=np.zeros(11), ses=np.full(11, 0.01))
        rep = flatness_guard(curve)
        assert rep.verdict == "equal_rho_warning"

    def test_no_valid_points_is_inconclusive(self):
        grid = np.linspace(0.0, 1.0, 5)
        curve = ObjectiveCurve(axis="beta", grid=grid, m=np.full(5, np.nan),
                               msq=np.full(5, np.nan), ses=np.full(5, np.nan))
        assert flatness_guard(curve).verdict == "inconclusive"


class TestPurityAndExport:
    def test_reports_are_reproducible(self, bench200k):
        a = residual_sign_test(bench200k, TRUTH)
        b = residual_sign_test(bench200k, TRUTH)
        assert a == b

    def test_csv_render(self, bench200k, tmp_path):
        rep = ar_order_test(bench200k)
        out = tmp_path / "diag.csv"
        write_diagnostic_csv(rep, out)
        text = out.read_text()
        assert text.startswith("name,value\n")
        assert "verdict," in text
        assert "rule_applied," in text
        assert rep.render().startswith("statistic=")
