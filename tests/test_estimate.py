"""Tests for the IV kernel, residual families, and moment machinery.

Per-observation identities are checked against the stored latent shocks
(the simulator retains them for exactly this purpose).  Large-sample
moment checks use the 200k-observation panels from conftest; tolerances
sit at 4-5 sigma of the measured sampling noise.
"""

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import pathlib
import sys
import threading

# first, so that run as a script it also sets the kernel baseline
from conftest import DEFAULTS, linear_panel, make_spec
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynpan import estimate, moments, simulate
from dynpan.diagnostics import (
    ar_order_test,
    moment_inequality,
    residual_sign_test,
)
from dynpan.errors import RankDeficiencyError, ValidationError
from dynpan.identify import (
    find_local_minima,
    find_zeros,
    scan_curve,
    two_step_estimator,
    warm_start_pipeline,
)
from dynpan.model import ParamPoint, forward_map, pseudo_point
from dynpan.simulate import draw_panel
from dynpan.estimate import (
    BENCHMARK_INSTRUMENTS,
    CONCENTRATED_BETA_INSTRUMENTS,
    MULTI_INPUT_INSTRUMENTS,
    PREDETERMINED_INSTRUMENTS,
    beta_scan_evaluator,
    concentrate_rho,
    fit_reduced_form,
    gmm_objective,
    two_sls,
)
from dynpan.estimate import _iv
from dynpan.moments import _moments_from
from oracles import (
    assert_rel,
    double_diff_residual,
    multi_input_residual,
    oracle_beta,
    oracle_rho,
    quasi_diff_residual,
)

TRUTH = ParamPoint(alpha=1.0, beta=0.6, rho=0.7)
PSEUDO = pseudo_point(DEFAULTS)  # (1.0, 1.6, 0.5)


class TestTwoSls:
    def test_equals_ols_when_instruments_are_regressors(self):
        # period 1 of each firm is a row; x_lag1 (period 0) is a regressor
        rng = np.random.default_rng(1)
        x = rng.standard_normal((500, 2))
        y = 1.0 + 2.0 * x + rng.standard_normal((500, 2))
        names = ("const", "x_lag0", "x_lag1")
        fit = two_sls(linear_panel(x, y), "y_lag0", names, names)
        X = np.column_stack([np.ones(500), x[:, 1], x[:, 0]])
        ols = np.linalg.solve(X.T @ X, X.T @ y[:, 1])
        assert fit.coefficients == pytest.approx(ols, abs=1e-12)
        assert fit.names == names and fit.n_obs == 500

    def test_consistency_with_endogenous_regressor(self):
        # x (period 1) is endogenous through e; z (x in period 0) shifts
        # x but not e
        rng = np.random.default_rng(2)
        n = 100_000
        z = rng.standard_normal(n)
        e = rng.standard_normal(n)
        x = z + 0.8 * e + 0.5 * rng.standard_normal(n)
        y = 2.0 + 3.0 * x + e
        panel = linear_panel(np.column_stack([z, x]),
                             np.column_stack([np.zeros(n), y]))
        fit = two_sls(panel, "y_lag0", ("const", "x_lag0"),
                      ("const", "x_lag1"))
        assert fit.coefficients == pytest.approx((2.0, 3.0), abs=0.02)

    def test_collinear_instruments_raise(self):
        # the y series is twice the constant: a collinear instrument
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 2))
        panel = linear_panel(x, np.full((100, 2), 2.0))
        with pytest.raises(RankDeficiencyError, match="pivot") as err:
            two_sls(panel, "x_lag0", ("const", "x_lag1"),
                    ("const", "y_lag1"))
        assert err.value.smallest_pivot < 1e-10

    def test_over_identified_shape_rejected(self):
        panel = linear_panel(np.ones((10, 3)), np.ones((10, 3)))
        with pytest.raises(ValidationError) as err:
            two_sls(panel, "y_lag0", ("x_lag1",), ("x_lag1", "x_lag2"))
        assert err.value.field == "instruments"

    def test_missing_series_rejected(self):
        rng = np.random.default_rng(4)
        panel = linear_panel(rng.standard_normal((50, 3)),
                             rng.standard_normal((50, 3)))
        with pytest.raises(ValidationError, match="no series 'z'") as err:
            two_sls(panel, "y_lag0", ("const", "z_lag1"),
                    ("const", "x_lag1"))
        assert err.value.field == "regressors"
        with pytest.raises(ValidationError, match="no series 'z'") as err:
            two_sls(panel, "z_lag0", ("const", "x_lag1"),
                    ("const", "x_lag1"))
        assert err.value.field == "dep"

    @pytest.mark.parametrize("args, field", [
        ((1, ("const", "x_lag1"), ("const", "x_lag2")), "dep"),
        ((None, ("const",), ("const",)), "dep"),
        (("y_lag0", (1,), ("x_lag1",)), "regressors"),
        (("y_lag0", ("const", b"x_lag1"), ("const", "x_lag2")),
         "regressors"),
        (("y_lag0", ("const", "x_lag1"), ("const", 2.0)), "instruments"),
        (("w_lag0", ("const",), ("const",)), "dep"),
        (("y_lag0", ("const", "q_lag1"), ("const", "x_lag1")), "regressors"),
    ])
    def test_non_string_names_name_their_field(self, args, field):
        panel = linear_panel(np.ones((10, 3)), np.ones((10, 3)))
        with pytest.raises(ValidationError) as err:
            two_sls(panel, *args)
        assert err.value.field == field

    def test_residual_orthogonality_in_sample(self, bench200k):
        rf, fit_y, fit_x = fit_reduced_form(bench200k)
        y, x = bench200k.y, bench200k.x
        R = np.column_stack([np.ones(y[:, 2:].size), y[:, 1:-1].ravel(),
                             x[:, 1:-1].ravel()])
        Z = np.column_stack([R[:, 0], y[:, :-2].ravel(), R[:, 2]])
        for fit, dep in ((fit_y, y), (fit_x, x)):
            r = dep[:, 2:].ravel() - R @ fit.coefficients
            scale = np.abs(Z * r[:, None]).mean()
            assert np.max(np.abs(Z.T @ r)) / fit.n_obs < 1e-8 * scale


TOO_FEW_ROWS = "^2 pooled rows for 3 coefficients: "


class TestTooFewPooledRows:
    """One firm at four periods pools 2 rows at lag depth 2, fewer than the
    3 coefficients of these fits, so E[Z X'] is singular whatever its
    rounding: the one IV solve says so before its SVD."""

    @pytest.mark.parametrize("fit", [
        lambda p: two_sls(p, "y_lag0", ("const", "y_lag1", "x_lag1"),
                          ("const", "y_lag2", "x_lag1")),
        fit_reduced_form,
        ar_order_test,
    ], ids=["two_sls", "fit_reduced_form", "ar_order_test"])
    def test_benchmark_fits_name_the_rows(self, fit):
        for seed in range(10):
            panel = draw_panel(make_spec(n_firms=1, n_periods=4, seed=seed))
            with pytest.raises(RankDeficiencyError, match=TOO_FEW_ROWS) as err:
                fit(panel)
            assert err.value.smallest_pivot == 0.0

    def test_multi_input_rho_concentration_names_the_rows(self):
        for seed in range(10):
            panel = draw_panel(make_spec("multi_input", n_firms=1,
                                         n_periods=4, seed=seed))
            with pytest.raises(RankDeficiencyError, match=TOO_FEW_ROWS):
                concentrate_rho(panel, 0.5, family="multi_input")

    def test_two_step_weight_names_the_rows(self):
        # x_lag3 leaves one pooled row for the 2 x 2 moment outer-product
        for seed in range(10):
            panel = draw_panel(make_spec(n_firms=1, n_periods=4, seed=seed))
            with pytest.raises(RankDeficiencyError, match="two-step") as err:
                gmm_objective(panel, "quasi_diff", TRUTH,
                              ("const", "x_lag3"), "two_step")
            assert err.value.smallest_pivot == 0.0
            assert str(err.value.__cause__).startswith(
                "1 pooled row for 2 coefficients: ")


def test_beta_evaluator_needs_a_pooled_period():
    # the evaluator pools periods t >= 2: a panel cut to two periods has
    # none, which its lag depth's check names before any index is formed
    panel = draw_panel(make_spec(n_firms=30))
    short = dataclasses.replace(
        panel, spec=dataclasses.replace(panel.spec, n_periods=2),
        **{f.name: getattr(panel, f.name)[:, :2]
           for f in dataclasses.fields(panel)
           if f.name != "spec" and getattr(panel, f.name) is not None})
    with pytest.raises(ValidationError) as err:
        beta_scan_evaluator(short)
    assert err.value.field == "n_periods"


class TestResidualIdentities:
    def test_truth_recovers_productivity_innovation(self):
        panel = draw_panel(make_spec(sigma_eta=0.0, n_firms=2000))
        r = quasi_diff_residual(panel, TRUTH)
        assert np.allclose(r, panel.xi[:, 1:], rtol=1e-12, atol=1e-12)

    def test_pseudo_recovers_input_innovation(self):
        panel = draw_panel(make_spec(sigma_eta=0.0, n_firms=2000))
        r = quasi_diff_residual(panel, PSEUDO)
        assert np.allclose(r, -panel.u[:, 1:], rtol=1e-12, atol=1e-12)

    def test_pseudo_with_negative_theta(self):
        s = make_spec(sigma_eta=0.0, n_firms=2000, theta=-1.0, pi=0.3)
        panel = draw_panel(s)
        point = pseudo_point(s.structural)
        r = quasi_diff_residual(panel, point)
        assert np.allclose(r, -panel.u[:, 1:] / -1.0, rtol=1e-12, atol=1e-12)

    def test_zero_noise_residual_vanishes(self):
        panel = draw_panel(make_spec(sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0, n_firms=50))
        assert np.allclose(quasi_diff_residual(panel, TRUTH), 0.0,
                           atol=1e-14)

    def test_double_diff_truth_is_innovation_difference(self):
        panel = draw_panel(make_spec("fixed_effects", sigma_eta=0.0,
                                     n_firms=2000))
        r = double_diff_residual(panel, 0.6, 0.7)
        want = panel.xi[:, 2:] - panel.xi[:, 1:-1]
        assert np.allclose(r, want, rtol=1e-12, atol=1e-12)

    def test_multi_input_truth_is_innovation(self):
        panel = draw_panel(make_spec("multi_input", sigma_eta=0.0,
                                     n_firms=2000))
        r = multi_input_residual(panel, 1.0, 0.6, 0.3, 0.7)
        assert np.allclose(r, panel.xi[:, 1:], rtol=1e-12, atol=1e-12)

    def test_multi_input_requires_z(self, bench200k):
        with pytest.raises(ValidationError, match="z"):
            multi_input_residual(bench200k, 1.0, 0.6, 0.3, 0.7)


class TestGmmObjective:
    def test_truth_objective_at_noise_level(self, bench200k):
        rep = gmm_objective(bench200k, "quasi_diff", TRUTH)
        bound = float(rep.std_errors @ rep.std_errors)
        assert rep.objective < 10.0 * bound

    def test_pseudo_objective_equally_small(self, bench200k):
        rep = gmm_objective(bench200k, "quasi_diff", PSEUDO)
        bound = float(rep.std_errors @ rep.std_errors)
        assert rep.objective < 10.0 * bound

    def test_orthogonality_over_seeds(self):
        # truth and pseudo moments stay within 4 se across 20 seeds at the
        # full 200k-observation design
        for seed in range(20):
            panel = draw_panel(make_spec(seed=seed))
            for point in (TRUTH, PSEUDO):
                rep = gmm_objective(panel, "quasi_diff", point)
                assert np.max(np.abs(rep.t_stats)) < 4.0, (seed, point)

    def test_off_solution_moments_are_large(self, bench200k):
        rep = gmm_objective(bench200k, "quasi_diff",
                            ParamPoint(1.0, 1.1, 0.6))
        assert np.max(np.abs(rep.t_stats)) > 10.0

    def test_predetermined_timing_kills_pseudo(self, pred200k):
        rep = gmm_objective(pred200k, "quasi_diff", PSEUDO,
                            instruments=PREDETERMINED_INSTRUMENTS)
        assert np.max(np.abs(rep.t_stats)) > 5.0
        rep = gmm_objective(pred200k, "quasi_diff", TRUTH,
                            instruments=PREDETERMINED_INSTRUMENTS)
        assert np.max(np.abs(rep.t_stats)) < 4.0

    def test_fixed_effects_pseudo_survives_double_difference(self, fe200k):
        for beta, rho in ((0.6, 0.7), (1.6, 0.5)):
            rep = gmm_objective(fe200k, "double_diff", (beta, rho))
            assert np.max(np.abs(rep.t_stats)) < 4.0, (beta, rho)

    def test_multi_input_spurious_points(self, multi200k):
        # linear-combination algebra: eliminating one market factor leaves
        # the other's persistence as a spurious quasi-difference solution
        ext = multi200k.spec.ext
        s = multi200k.spec.structural
        for cx, cz, rho in ((ext.delta_kappa, ext.theta_kappa, ext.rho_z),
                            (ext.delta_wp, ext.theta_wp, s.rho_x)):
            denom = cx * ext.theta_omega - cz * ext.delta_omega
            alpha_s = s.alpha - (cx * s.pi - cz * ext.pi_z) / denom
            beta_s = s.beta + cx / denom
            gamma_s = ext.gamma - cz / denom
            rep = gmm_objective(multi200k, "multi_input",
                                (alpha_s, beta_s, gamma_s, rho))
            assert np.max(np.abs(rep.t_stats)) < 4.0, rho
        rep = gmm_objective(multi200k, "multi_input", (1.0, 0.6, 0.3, 0.7))
        assert np.max(np.abs(rep.t_stats)) < 4.0

    def test_two_step_scaling_invariance(self, bench200k):
        # x in other units: the slope takes the inverse units, the residual
        # stays, and the x-instrument moments scale by c
        c = 50.0
        scaled = dataclasses.replace(bench200k, x=c * bench200k.x)
        point = ParamPoint(TRUTH.alpha, TRUTH.beta / c, TRUTH.rho)
        for spec in (BENCHMARK_INSTRUMENTS, PREDETERMINED_INSTRUMENTS):
            want = gmm_objective(bench200k, "quasi_diff", TRUTH, spec,
                                 "two_step")
            got = gmm_objective(scaled, "quasi_diff", point, spec,
                                "two_step")
            assert got.objective == pytest.approx(want.objective, rel=1e-8)
            # identity weighting is not scale invariant; sanity-check contrast
            want = gmm_objective(bench200k, "quasi_diff", TRUTH, spec)
            got = gmm_objective(scaled, "quasi_diff", point, spec)
            assert got.objective != pytest.approx(want.objective, rel=1e-3)

    def test_insufficient_periods(self):
        panel = draw_panel(make_spec(n_firms=100, n_periods=4))
        with pytest.raises(ValidationError, match="periods"):
            gmm_objective(panel, "quasi_diff", TRUTH,
                          instruments=("const", "x_lag4"))

    def test_bad_weighting_rejected(self, bench200k):
        with pytest.raises(ValidationError, match="weighting") as err:
            gmm_objective(bench200k, "quasi_diff", TRUTH, weighting="ridge")
        assert err.value.field == "weighting"

    @pytest.mark.parametrize("args,kwargs,field", [
        (("levels", TRUTH), {}, "family"),
        (("levels", TRUTH), dict(instruments=BENCHMARK_INSTRUMENTS),
         "family"),
        (("quasi_diff", TRUTH),
         dict(instruments=("const", "x_lag5")), "n_periods"),
        (("double_diff", (0.6, 0.7)),
         dict(instruments=("const", "x_lag5")), "n_periods"),
        (("multi_input", (1.0, 0.6, 0.3, 0.7)), {}, "panel"),
        (("quasi_diff", TRUTH), dict(instruments=MULTI_INPUT_INSTRUMENTS),
         "instruments"),
        (("double_diff", (1.0, 0.6, 0.7)), {}, "params"),
        (("double_diff", TRUTH), {}, "params"),
        (("quasi_diff", (1.0, 0.6)), {}, "params"),
        (("multi_input", (1.0, 0.6, 0.7)), {}, "params"),
        (("quasi_diff", TRUTH), dict(instruments="x_lag1"), "instruments"),
        (("quasi_diff", (1.0, (2, 3), 0.7)), {}, "params"),
        (("quasi_diff", (1.0, "a", 0.7)), {}, "params"),
        (("quasi_diff", ("1", 0.6, 0.7)), {}, "params"),
        (("quasi_diff", (1.0, None, 0.7)), {}, "params"),
        (("quasi_diff", TRUTH), dict(instruments=("const", 2)),
         "instruments"),
        (("quasi_diff", TRUTH), dict(instruments=[None]), "instruments"),
        (("quasi_diff", TRUTH), dict(instruments=()), "instruments"),
    ])
    def test_bad_calls_name_their_field(self, args, kwargs, field):
        panel = draw_panel(make_spec(n_firms=200, seed=1))
        with pytest.raises(ValidationError) as err:
            gmm_objective(panel, *args, **kwargs)
        assert err.value.field == field

    def test_list_and_tuple_instruments_agree(self, bench200k):
        names = ["const", "x_lag0", "y_lag2"]
        want = gmm_objective(bench200k, "quasi_diff", TRUTH, tuple(names))
        got = gmm_objective(bench200k, "quasi_diff", TRUTH, names)
        assert got.names == want.names == tuple(names)
        assert got.objective == want.objective
        assert np.array_equal(got.moments, want.moments)
        assert np.array_equal(got.std_errors, want.std_errors)

    def test_zero_residual_has_no_two_step_weight(self):
        panel = draw_panel(make_spec(sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0, n_firms=50))
        rep = gmm_objective(panel, "quasi_diff", TRUTH)
        assert rep.objective == 0.0 and not rep.std_errors.any()
        with pytest.raises(RankDeficiencyError, match="two-step"):
            gmm_objective(panel, "quasi_diff", TRUTH, weighting="two_step")

    def test_scalar_params_name_their_field(self, bench200k):
        with pytest.raises(ValidationError) as err:
            gmm_objective(bench200k, "quasi_diff", 0.7)
        assert err.value.field == "params"
        assert str(err.value) == ("params: quasi_diff takes (alpha, beta, "
                                  "rho), got 0.7")

    def test_one_pooled_row_has_nan_standard_errors(self):
        # x_lag3 leaves one firm at four periods a single pooled row
        panel = draw_panel(make_spec(n_firms=1, n_periods=4, seed=0))
        rep = gmm_objective(panel, "quasi_diff", TRUTH, ("const", "x_lag3"))
        assert rep.n_obs == 1 and np.isfinite(rep.moments).all()
        assert np.isnan(rep.std_errors).all() and rep.std_errors.shape == (2,)


class TestFitReducedForm:
    def test_consistent_for_forward_map(self, bench200k):
        rf, _, _ = fit_reduced_form(bench200k)
        truth = forward_map(DEFAULTS)
        devs = np.array(rf.as_tuple()) - np.array(truth.as_tuple())
        assert np.max(np.abs(devs)) < 0.08

    def test_zero_noise_is_rank_deficient(self):
        panel = draw_panel(make_spec(sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0, n_firms=100))
        with pytest.raises(RankDeficiencyError):
            fit_reduced_form(panel)

    def test_no_measurement_error_makes_ols_match_iv(self, bench200k_eta0):
        rf, _, _ = fit_reduced_form(bench200k_eta0)
        # OLS pools periods t >= 2, where its largest lag is defined
        R = ("const", "y_lag1", "x_lag1")
        ols_y, ols_x = (two_sls(bench200k_eta0, dep, R, R).coefficients
                        for dep in ("y_lag0", "x_lag0"))
        iv = np.array(rf.as_tuple())
        ols = np.array([ols_y[0], ols_y[1], ols_y[2],
                        ols_x[0], ols_x[1], ols_x[2]])
        assert np.max(np.abs(iv - ols)) < 0.03

    def test_root_n_convergence_rate(self):
        sizes = (2000, 8000, 32000)
        truth = np.array(forward_map(DEFAULTS).as_tuple())
        rmse = []
        for n_firms in sizes:
            sq = np.zeros(6)
            n_seeds = 24
            for seed in range(n_seeds):
                panel = draw_panel(make_spec(n_firms=n_firms, seed=100 + seed))
                rf, _, _ = fit_reduced_form(panel)
                sq += (np.array(rf.as_tuple()) - truth) ** 2
            rmse.append(np.sqrt(sq.mean() / n_seeds))
        slope = np.polyfit(np.log([s * 5 for s in sizes]), np.log(rmse), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestConcentrateBeta:
    def test_truth_slope_recovers_output_persistence(self, bench200k):
        cb = beta_scan_evaluator(bench200k)(0.6)
        assert cb.coefficients["rho"] == pytest.approx(0.7, abs=0.02)
        assert abs(cb.moments[0]) < 5.0 * cb.moment_ses[0]

    def test_pseudo_slope_recovers_input_persistence(self, bench200k):
        cb = beta_scan_evaluator(bench200k)(1.6)
        assert cb.coefficients["rho"] == pytest.approx(0.5, abs=0.02)
        assert abs(cb.moments[0]) < 5.0 * cb.moment_ses[0]

    def test_zero_noise_rank_error(self):
        panel = draw_panel(make_spec(sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0, n_firms=100))
        with pytest.raises(RankDeficiencyError):
            beta_scan_evaluator(panel)(0.6)


class TestConcentrateRho:
    def test_true_persistence_recovers_true_slope(self, bench200k):
        cr = concentrate_rho(bench200k, 0.7)
        assert cr.coefficients["beta"] == pytest.approx(0.6, abs=0.05)
        assert np.max(np.abs(cr.moments / cr.moment_ses)) < 4.0

    def test_input_persistence_recovers_pseudo_slope(self, bench200k):
        cr = concentrate_rho(bench200k, 0.5)
        assert cr.coefficients["beta"] == pytest.approx(1.6, abs=0.05)
        assert np.max(np.abs(cr.moments / cr.moment_ses)) < 4.0

    def test_other_persistence_fails_overidentification(self, bench200k):
        cr = concentrate_rho(bench200k, 0.0)
        assert np.max(np.abs(cr.moments / cr.moment_ses)) > 5.0

    def test_multi_input_three_valid_persistences(self, multi200k):
        for rho in (0.7, 0.5, 0.3):
            cr = concentrate_rho(multi200k, rho, family="multi_input")
            assert np.max(np.abs(cr.moments / cr.moment_ses)) < 4.0, rho
        cr = concentrate_rho(multi200k, 0.0, family="multi_input")
        assert np.max(np.abs(cr.moments / cr.moment_ses)) > 5.0

    def test_multi_input_spurious_coefficients_match_algebra(self, multi200k):
        cr = concentrate_rho(multi200k, 0.5, family="multi_input")
        assert cr.coefficients["beta"] == pytest.approx(2.6, abs=0.08)
        assert cr.coefficients["gamma"] == pytest.approx(-0.7, abs=0.08)
        cr = concentrate_rho(multi200k, 0.3, family="multi_input")
        assert cr.coefficients["beta"] == pytest.approx(-0.4, abs=0.08)
        assert cr.coefficients["gamma"] == pytest.approx(2.3, abs=0.08)

    def test_unknown_family_rejected(self, bench200k):
        with pytest.raises(ValidationError, match="family"):
            concentrate_rho(bench200k, 0.5, family="double_diff")

    @pytest.mark.parametrize("kwargs, field", [
        (dict(solve_instruments=("const", 1)), "solve_instruments"),
        (dict(report_instruments=(None,)), "report_instruments"),
        (dict(report_instruments=["x_lag2", b"y_lag2"]),
         "report_instruments"),
    ])
    def test_non_string_names_name_their_field(self, kwargs, field):
        panel = draw_panel(make_spec(n_firms=200, seed=1))
        with pytest.raises(ValidationError) as err:
            concentrate_rho(panel, 0.5, **kwargs)
        assert err.value.field == field


class TestInstrumentSpec:
    """Instrument sets are plain tuples of column names, validated where
    they are used."""

    def test_named_families(self):
        assert BENCHMARK_INSTRUMENTS == ("const", "x_lag1", "x_lag2",
                                         "y_lag2")
        assert set(PREDETERMINED_INSTRUMENTS) == \
            set(BENCHMARK_INSTRUMENTS) | {"x_lag0"}
        assert CONCENTRATED_BETA_INSTRUMENTS == ("x_lag1",)

    def test_bad_names_rejected(self, bench200k):
        # only the canonical spelling: ASCII digits, no leading zero
        for bad in (("w_lag1",), ("x_lagX",), ("x_lag\u00b2",),
                    ("x_lag\u0661",), ("x_lag01",)):
            with pytest.raises(ValidationError, match="bad column name") as e:
                gmm_objective(bench200k, "quasi_diff", TRUTH, bad)
            assert e.value.field == "instruments"
            with pytest.raises(ValidationError, match="bad column name") as e:
                two_sls(bench200k, "y_lag0", ("x_lag0",), bad)
            assert e.value.field == "instruments"


# --- the cross-moment engine against the raw-array formulas ---------------
#
# ``oracle_beta`` and ``oracle_rho`` (tests/oracles.py) are the
# per-evaluation formulas the concentrated kernels used before they moved
# onto the cached cross-moments.

FIXTURE_PANELS = ("bench200k", "bench200k_eta0", "fe200k", "multi200k",
                  "pred200k", "equal_rho_200k")

#: (family, solving instruments, reported instruments); None: defaults.
RHO_SETS = (
    ("quasi_diff", ("const", "x_lag1"), ("x_lag2", "y_lag2")),
    ("quasi_diff", ("const", "x_lag0"), ("x_lag1", "x_lag2", "y_lag2")),
    ("multi_input", ("const", "x_lag1", "z_lag1"),
     ("x_lag2", "y_lag2", "z_lag2")),
)


def check_beta_scan(panel, grid=np.linspace(-0.5, 2.5, 13)):
    fast = beta_scan_evaluator(panel)
    got, want = [], []
    for b in grid:
        try:
            want.append(oracle_beta(panel, b))
        except RankDeficiencyError:
            want.append(np.full(4, np.nan))
            with pytest.raises(RankDeficiencyError):
                fast(b)
            got.append(np.full(4, np.nan))
            continue
        cb = fast(b)
        assert cb.n_obs == panel.spec.n_firms * (panel.spec.n_periods - 2)
        got.append([cb.coefficients["alpha"], cb.coefficients["rho"],
                    cb.moments[0], cb.moment_ses[0]])
    got, want = np.array(got), np.array(want)
    assert_rel(got[:, 0], want[:, 0])
    assert_rel(got[:, 1], want[:, 1])
    assert_rel(got[:, 2], want[:, 2], scale=np.nanmax(np.abs(want[:, 2])))
    assert_rel(got[:, 3], want[:, 3])


def check_rho_scan(panel, family, solve, report,
                   grid=np.linspace(-0.9, 0.9, 10)):
    got_m, want_m = [], []
    for rho in grid:
        coef, moments, ses = oracle_rho(panel, rho, family, solve, report)
        cr = concentrate_rho(panel, rho, family=family,
                             solve_instruments=solve,
                             report_instruments=report)
        assert_rel(list(cr.coefficients.values()), coef)
        assert_rel(cr.moment_ses, ses)
        got_m.append(cr.moments)
        want_m.append(moments)
    want_m = np.array(want_m)
    assert_rel(np.array(got_m), want_m, scale=np.max(np.abs(want_m)))


class TestCrossMomentEngine:
    @pytest.mark.parametrize("fixture", FIXTURE_PANELS)
    def test_beta_scan_matches_raw_formulas(self, fixture, request):
        check_beta_scan(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("fixture", FIXTURE_PANELS)
    def test_rho_concentration_matches_raw_formulas(self, fixture, request):
        panel = request.getfixturevalue(fixture)
        for family, solve, report in RHO_SETS:
            if family == "multi_input" and panel.z is None:
                continue
            check_rho_scan(panel, family, solve, report)

    def test_block_remainder(self):
        panel = draw_panel(make_spec("multi_input", n_firms=6001))
        per_block = moments._BLOCK_ROWS // 3
        assert panel.spec.n_firms > per_block
        assert panel.spec.n_firms % per_block != 0
        check_beta_scan(panel)
        check_rho_scan(panel, *RHO_SETS[2])

    def test_second_moments_match_centered_gram(self):
        # E[d d'] is read off the diagonals of the period Gram; compare it
        # with the Gram matrix of the centered columns taken directly
        panel = draw_panel(make_spec("multi_input", n_firms=6001))
        mom = _moments_from(panel, 2, ())
        cols = [panel.y, panel.x, panel.z]
        d = [np.ones(panel.spec.n_firms * 3)] + [
            arr[:, 2 - lag:5 - lag].ravel() for arr in cols
            for lag in range(3)]
        d = np.array([d[0]] + [c - c.mean() for c in d[1:]])
        want = d @ d.T / d.shape[1]
        assert_rel(mom.second, want, scale=np.max(np.abs(want)), rtol=1e-12)

    def test_zero_noise_rho_rank_error(self):
        panel = draw_panel(make_spec(sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0, n_firms=100))
        with pytest.raises(RankDeficiencyError):
            concentrate_rho(panel, 0.5)

    def test_cache_reused_on_panel_not_on_firm_prefix(self, monkeypatch):
        panel = draw_panel(make_spec(n_firms=3000))
        passes = []
        original = moments._accumulate_moments

        def counting(p, lags):
            passes.append((p, lags))
            return original(p, lags)

        monkeypatch.setattr(moments, "_accumulate_moments", counting)
        beta_scan_evaluator(panel)(0.6)
        beta_scan_evaluator(panel)(1.6)
        concentrate_rho(panel, 0.5)
        assert passes == [(panel, 2)]
        k = 1000
        prefix = dataclasses.replace(
            panel, spec=dataclasses.replace(panel.spec, n_firms=k),
            **{f.name: getattr(panel, f.name)[:k]
               for f in dataclasses.fields(panel)
               if f.name != "spec" and getattr(panel, f.name) is not None})
        cb = beta_scan_evaluator(prefix)(0.6)
        assert len(passes) == 2 and passes[1][0] is prefix
        assert cb.n_obs == k * 3
        assert_rel([cb.coefficients["alpha"], cb.coefficients["rho"],
                    cb.moment_ses[0]],
                   oracle_beta(prefix, 0.6)[[0, 1, 3]])


# --- one period Gram per panel; the pair pass only where SEs need it -----

def count_pair_passes(monkeypatch):
    passes = []
    original = moments._pair_moments

    def counting(sources, means):
        passes.append(len(sources))
        return original(sources, means)

    monkeypatch.setattr(moments, "_pair_moments", counting)
    return passes


def test_fits_and_sign_test_skip_the_pair_pass(monkeypatch):
    passes = count_pair_passes(monkeypatch)
    panel = draw_panel(make_spec(n_firms=3000, seed=6))
    fit_reduced_form(panel)
    ar_order_test(panel)
    residual_sign_test(panel, TRUTH)
    two_step_estimator(panel)
    assert passes == []
    assert set(panel._moment_cache) == {"gram", 0, 2}
    # a concentrated point solves its IV only; its standard errors, read
    # later, and the inequality's need the pass, once per lag depth
    evaluate = beta_scan_evaluator(panel)
    assert passes == []
    points = [evaluate(0.6), evaluate(1.6)]
    assert passes == []
    for point in points:
        point.moment_ses
    assert passes == [6]
    moment_inequality(panel, TRUTH)
    moment_inequality(panel, PSEUDO)
    assert passes == [6, 2]


SCANS = (("beta", np.linspace(0.0, 2.0, 21), "quasi_diff"),
         ("rho", np.linspace(-0.9, 0.9, 19), "multi_input"))


@pytest.mark.parametrize("axis, grid, family", SCANS, ids=["beta", "rho"])
def test_scans_run_no_pair_pass_until_ses_are_read(multi6k, monkeypatch,
                                                   axis, grid, family):
    passes = count_pair_passes(monkeypatch)
    panel = dataclasses.replace(multi6k)
    curve = scan_curve(panel, axis, grid, family=family)
    find_zeros(curve)
    find_local_minima(curve)
    assert passes == []
    ses = curve.ses
    assert len(passes) == 1
    if axis == "beta":
        concentrate = beta_scan_evaluator(panel)
    else:
        concentrate = functools.partial(concentrate_rho, panel, family=family)
    want = np.array([concentrate(g).moment_ses[0] for g in grid])
    assert np.array_equal(ses, want)
    assert len(passes) == 1


def test_predetermined_warm_start_runs_one_pair_pass(monkeypatch):
    passes = count_pair_passes(monkeypatch)
    reads = []
    original = moments._CrossMoments.ses

    def counting(mom, *args):
        reads.append(len(args))
        return original(mom, *args)

    monkeypatch.setattr(moments._CrossMoments, "ses", counting)
    panel = draw_panel(make_spec("predetermined", n_firms=3000, seed=6))
    warm_start_pipeline(panel, "predetermined_start")
    assert len(passes) == 1
    # standard errors of the scored candidate roots only, not of the grid
    names = PREDETERMINED_INSTRUMENTS
    grid = np.linspace(-0.9, 0.9, 37)
    moment = [concentrate_rho(panel, rho, solve_instruments=names[:2],
                              report_instruments=names[2:]).moments[0]
              for rho in grid]
    signs = np.sign(moment)
    assert len(reads) == max(1, int(np.sum(signs[:-1] * signs[1:] < 0)))


def test_scans_do_not_depend_on_earlier_fits(multi6k):
    fresh = dataclasses.replace(multi6k)
    want = [scan_curve(fresh, axis, grid, family=family)
            for axis, grid, family in SCANS]
    fitted = dataclasses.replace(multi6k)
    two_step_estimator(fitted)
    ar_order_test(fitted)
    for (axis, grid, family), curve in zip(SCANS, want):
        got = scan_curve(fitted, axis, grid, family=family)
        assert np.array_equal(got.m, curve.m)
        assert np.array_equal(got.ses, curve.ses)


def permute_firms(panel, order):
    return dataclasses.replace(
        panel, **{f.name: getattr(panel, f.name)[order]
                  for f in dataclasses.fields(panel)
                  if f.name != "spec" and getattr(panel, f.name) is not None})


@pytest.fixture(scope="module")
def multi6k():
    # three accumulation blocks, the last one partial
    return draw_panel(make_spec("multi_input", n_firms=6001, seed=5))


@settings(max_examples=12, deadline=None, database=None)
@given(order_seed=st.integers(0, 2 ** 32 - 1))
def test_firm_permutation_leaves_scans_unchanged(multi6k, order_seed):
    order = np.random.default_rng(order_seed).permutation(
        multi6k.spec.n_firms)
    permuted = permute_firms(multi6k, order)
    for axis, grid, family in (("beta", np.linspace(0.0, 2.0, 21),
                                "quasi_diff"),
                               ("rho", np.linspace(-0.9, 0.9, 19),
                                "multi_input")):
        want = scan_curve(multi6k, axis, grid, family=family)
        got = scan_curve(permuted, axis, grid, family=family)
        assert_rel(got.m, want.m, scale=np.nanmax(np.abs(want.m)),
                   rtol=1e-12)
        assert_rel(got.ses, want.ses, rtol=1e-12)


@settings(max_examples=10, deadline=None, database=None)
@given(c=st.floats(-100.0, 100.0))
def test_location_shift_in_y_moves_only_alpha(multi6k, c):
    shifted = dataclasses.replace(multi6k, y=multi6k.y + c)
    # the beta scan and rho concentration: same moments, alpha moves by c
    for b in (0.6, 1.1, 1.6):
        want = beta_scan_evaluator(multi6k)(b)
        got = beta_scan_evaluator(shifted)(b)
        assert_rel(got.moments[0], want.moments[0], rtol=1e-8,
                   scale=want.moment_ses[0])
        assert_rel([got.moment_ses[0], got.coefficients["rho"]],
                   [want.moment_ses[0], want.coefficients["rho"]],
                   rtol=1e-8)
        assert_rel(got.coefficients["alpha"],
                   want.coefficients["alpha"] + c, rtol=1e-8,
                   scale=max(abs(c), 1.0))
    for family in ("quasi_diff", "multi_input"):
        for rho in (0.3, 0.5, 0.7):
            want = concentrate_rho(multi6k, rho, family=family)
            got = concentrate_rho(shifted, rho, family=family)
            assert_rel(got.moments, want.moments, rtol=1e-8,
                       scale=np.max(want.moment_ses))
            assert_rel(got.moment_ses, want.moment_ses, rtol=1e-8)
            coef = dict(want.coefficients, alpha=want.coefficients["alpha"]
                        + c)
            assert_rel(list(got.coefficients.values()), list(coef.values()),
                       rtol=1e-8, scale=max(abs(c), 1.0))
    # gmm_objective at alpha + c: the residual is the same, so is every
    # moment but those of y instruments, which gain c times E[r]
    for family, params, shift in (
            ("quasi_diff", (1.0, 0.6, 0.7), (c, 0.0, 0.0)),
            ("double_diff", (0.6, 0.7), (0.0, 0.0)),
            ("multi_input", (1.0, 0.6, 0.3, 0.7), (c, 0.0, 0.0, 0.0))):
        for spec in (estimate._FAMILIES[family].instruments,
                     PREDETERMINED_INSTRUMENTS):
            want = gmm_objective(multi6k, family, params, spec)
            got = gmm_objective(shifted, family,
                                np.add(params, shift).tolist(), spec)
            mean_r = want.moments[spec.index("const")]
            on_y = np.array([nm.startswith("y_") for nm in spec])
            assert_rel(got.moments, want.moments + c * mean_r * on_y,
                       rtol=1e-8, scale=np.max(want.std_errors))
            assert_rel(got.std_errors[~on_y], want.std_errors[~on_y],
                       rtol=1e-8)
    # the level diagnostics at alpha + c: same statistic
    point = ParamPoint(1.0, 0.6, 0.7)
    for check in (residual_sign_test, moment_inequality):
        want = check(multi6k, point)
        got = check(shifted, dataclasses.replace(point, alpha=1.0 + c))
        assert_rel(got.statistic, want.statistic, rtol=1e-8,
                   scale=want.standard_error)
        assert_rel(got.standard_error, want.standard_error, rtol=1e-8)


# --- the per-panel plan of each rho-concentration instrument set ----------

OVERRIDES = (
    dict(),
    dict(solve_instruments=("const", "x_lag0"),
         report_instruments=("x_lag1", "x_lag2", "y_lag2")),
    dict(report_instruments=("y_lag2",)),
    dict(solve_instruments=("const", "x_lag2"),
         report_instruments=("x_lag1", "y_lag3")),
)


def rho_result(cr):
    return (list(cr.coefficients.items()), cr.moment_names, cr.moments,
            cr.moment_ses, cr.n_obs)


def assert_same_result(got, want):
    for g, w in zip(rho_result(got), rho_result(want)):
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w)
        else:
            assert g == w


class TestRhoPlanCache:
    def test_overrides_on_one_panel_match_fresh_panels(self):
        panel = draw_panel(make_spec(n_firms=2000, seed=4))
        for rho in (0.3, 0.7):
            for kwargs in OVERRIDES + OVERRIDES[::-1]:
                got = concentrate_rho(panel, rho, **kwargs)
                fresh = dataclasses.replace(panel)
                assert "_moment_cache" not in vars(fresh)
                assert_same_result(got, concentrate_rho(fresh, rho,
                                                        **kwargs))

    def test_list_arguments_match_tuples(self, multi200k):
        want = concentrate_rho(multi200k, 0.5, family="multi_input",
                               solve_instruments=("const", "x_lag1",
                                                  "z_lag1"),
                               report_instruments=("y_lag2", "z_lag2"))
        got = concentrate_rho(multi200k, 0.5, family="multi_input",
                              solve_instruments=["const", "x_lag1", "z_lag1"],
                              report_instruments=["y_lag2", "z_lag2"])
        assert got.moment_names == ("y_lag2", "z_lag2")
        assert_same_result(got, want)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(solve_instruments=("const",)), "solve_instruments"),
        (dict(solve_instruments=("const", "x_lag1", "x_lag2")),
         "solve_instruments"),
        (dict(report_instruments=("w_lag2",)), "report_instruments"),
        (dict(report_instruments=("z_lag2",)), "report_instruments"),
        (dict(solve_instruments=("const", "z_lag1")), "solve_instruments"),
        (dict(report_instruments=("x_lag5",)), "n_periods"),
        (dict(family="multi_input"), "panel"),
        (dict(family="double_diff"), "family"),
        (dict(solve_instruments="const"), "solve_instruments"),
        (dict(report_instruments="x_lag2"), "report_instruments"),
    ])
    def test_bad_calls_raise_every_time(self, kwargs, field):
        panel = draw_panel(make_spec(n_firms=500, seed=2))
        want = concentrate_rho(panel, 0.5)
        for _ in range(3):
            with pytest.raises(ValidationError) as err:
                concentrate_rho(panel, 0.5, **kwargs)
            assert err.value.field == field
        assert_same_result(concentrate_rho(panel, 0.5), want)


# --- units: the rank check judges column-equilibrated pivots --------------

def test_solve_and_rank_check_ignore_column_units():
    rng = np.random.default_rng(3)
    zx, zy = rng.standard_normal((3, 3)), rng.standard_normal(3)
    scale = np.array([1e-9, 1.0, 1e7])
    want = np.linalg.solve(zx, zy)

    def solve(zx, zy):
        return _iv(np.column_stack([zy, zx]), zy.size)[0]

    assert_rel(solve(zx, zy), want, rtol=1e-12)
    assert_rel(solve(zx * scale, zy), want / scale, rtol=1e-12)
    # row (instrument) units drop out too
    rows = scale[:, None]
    assert_rel(solve(rows * zx * scale, rows[:, 0] * zy), want / scale,
               rtol=1e-12)
    singular = zx.copy()
    singular[:, 2] = 2.0 * singular[:, 0]
    with pytest.raises(RankDeficiencyError):
        solve(singular * scale, zy)
    with pytest.raises(RankDeficiencyError):
        solve(rows * singular * scale, zy)
    with pytest.raises(RankDeficiencyError):
        solve(np.zeros((2, 2)), np.zeros(2))


# --- pinned bits: the period Gram and the moments of every lag depth ------

#: Lag depths pinned; with 5 periods a pair-pass block holds
#: ``_BLOCK_ROWS // (5 - L)`` firms: 1638, 2730 and 4096.
PINNED_DEPTHS = (0, 2, 3)
#: One firm, the block edges of each depth, then 6001 and 20000 firms: 4
#: and 13 blocks at L = 0, 3 and 8 at L = 2, 2 and 5 at L = 3.
PINNED_FIRMS = (1, 1638, 1639, 2730, 2731, 4096, 4097, 6001, 20_000)
PINNED_VARIANTS = ("benchmark", "multi_input", "predetermined",
                   "fixed_effects")
#: sha256 of ``_period_gram``'s (means, Gram, sums) and of ``second``,
#: ``basis`` and ``fourth`` at each depth.  The Gram and ``fourth`` come
#: from BLAS products, so the pins hold under the kernel baseline that
#: ``conftest.py`` names, on any number of BLAS threads.  Recorded with
#: :func:`moment_digests`:
#: ``PYTHONPATH=src python tests/test_estimate.py`` prints the file.
MOMENT_PINS = json.loads((pathlib.Path(__file__).parent
                          / "moment_sha256.json").read_text())


def moment_digests(panel):
    def digest(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    out = {"gram": digest(*moments._period_gram(panel))}
    for lags in PINNED_DEPTHS:
        mom = _moments_from(panel, lags, ())
        for name in ("second", "basis", "fourth"):
            out[f"{name}-{lags}"] = digest(getattr(mom, name))
    return out


@pytest.mark.parametrize("n_firms", PINNED_FIRMS)
@pytest.mark.parametrize("variant", PINNED_VARIANTS)
def test_moments_match_their_recorded_hashes(variant, n_firms):
    got = moment_digests(draw_panel(make_spec(variant, n_firms=n_firms,
                                              seed=11)))
    want = MOMENT_PINS[f"{variant}-{n_firms}"]

    def fourth(digests, keep=True):
        return {k: v for k, v in digests.items()
                if k.startswith("fourth-") == keep}

    # the fourth moments apart: a change to the pair pass alone re-records
    # these and leaves the Gram, second moments and bases unedited
    assert fourth(got) == fourth(want)
    assert fourth(got, keep=False) == fourth(want, keep=False)


# --- the serial pair pass: thread-safe, fork-safe, never waits on the pool -

def fourth_digest(panel, lags=2):
    """sha256 of the fourth moments of a fresh copy of ``panel`` (the copy
    starts with an empty moment cache, so its pair pass runs again)."""
    fresh = dataclasses.replace(panel)
    return hashlib.sha256(
        _moments_from(fresh, lags, ()).fourth.tobytes()).hexdigest()


def send_fourth_digest(spec, conn):
    conn.send(fourth_digest(draw_panel(spec)))
    conn.close()


class TestConcurrentPairPass:
    """The pair pass runs serially on its caller's thread: on many threads
    at once, in a forked child or beside a busy pool it gives the same
    bytes."""

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method on this platform")
    def test_forked_child_computes_the_same_bytes(self):
        spec = make_spec("multi_input", n_firms=20_000, seed=11)
        # the parent's pool has started its workers before the fork
        want = fourth_digest(draw_panel(spec))
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_fourth_digest, args=(spec, send))
        child.start()
        send.close()
        try:
            assert recv.poll(30), "the forked child's pair pass did not finish"
            got = recv.recv()
            child.join(30)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert got == want

    def test_four_threads_compute_what_sequential_passes_give(self):
        # as the figure command's scans do, each on its own thread; more
        # threads than cores, switching often
        panels = [draw_panel(make_spec(v, n_firms=20_000, seed=11))
                  for v in ("benchmark", "multi_input", "predetermined",
                            "fixed_effects")]
        want = [fourth_digest(panel) for panel in panels]
        got = [None] * len(panels)
        start = threading.Barrier(len(panels))

        def run(i):
            start.wait()
            got[i] = fourth_digest(panels[i])

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(panels))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want

    def test_finishes_while_every_worker_is_busy(self):
        panel = draw_panel(make_spec(n_firms=20_000, seed=11))
        want = fourth_digest(panel)
        release = threading.Event()
        # the pool has at most four workers; any task beyond them queues
        busy = [simulate._pool().submit(release.wait, 60)
                for _ in range(4)]
        got = []
        th = threading.Thread(target=lambda: got.append(fourth_digest(panel)))
        try:
            th.start()
            th.join(30)
            assert not th.is_alive(), "the pair pass waited on a busy pool"
        finally:
            release.set()
            for task in busy:
                task.result(30)
            th.join(30)
        assert got == [want]


if __name__ == "__main__":
    print(json.dumps({
        f"{variant}-{n_firms}": moment_digests(draw_panel(
            make_spec(variant, n_firms=n_firms, seed=11)))
        for variant in PINNED_VARIANTS for n_firms in PINNED_FIRMS}, indent=1, sort_keys=True))
