"""Tests for curve scanning, zero refinement, and branch selection.

Structural checks (zero counts, orderings, selection symmetry) run on
moderate panels; the strict location tolerances live in the acceptance
suite.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_spec
from dynpan import cli, identify
from dynpan.diagnostics import flatness_guard
from dynpan.errors import (
    InternalConsistencyError,
    RankDeficiencyError,
    ValidationError,
)
from dynpan.estimate import concentrate_rho
from dynpan.model import (
    ParamPoint,
    StructuralParams,
    forward_map,
    invert_reduced_form,
)
from dynpan.simulate import draw_panel
from dynpan.identify import (
    ObjectiveCurve,
    find_local_minima,
    find_zeros,
    scan_curve,
    select_by_sign,
    two_step_estimator,
    warm_start_pipeline,
)

BETA_GRID = np.round(np.arange(0.0, 2.0001, 0.01), 10)


def synthetic_curve(fn, grid):
    m = np.array([fn(g) for g in grid])
    return ObjectiveCurve(axis="beta", grid=np.asarray(grid, float), m=m,
                          msq=m * m, evaluator=fn)


class TestScanCurve:
    def test_benchmark_zero_pair_structure(self, bench200k):
        curve = scan_curve(bench200k, "beta", BETA_GRID)
        zeros = [z for z in find_zeros(curve) if z.converged]
        assert len(zeros) == 2
        lo, hi = zeros[0].location, zeros[1].location
        assert 0.4 < lo < 0.8
        assert 1.4 < hi < 1.8

    def test_grid_validation(self, bench200k):
        with pytest.raises(ValidationError, match="grid"):
            scan_curve(bench200k, "beta", [])
        with pytest.raises(ValidationError, match="grid"):
            scan_curve(bench200k, "beta", [0.5, 0.4])
        with pytest.raises(ValidationError, match="grid"):
            scan_curve(bench200k, "beta", [-2.0, 0.0, 1.0])
        for bad in ([np.nan], [0.5, np.nan]):
            with pytest.raises(ValidationError, match="finite") as err:
                scan_curve(bench200k, "beta", bad)
            assert err.value.field == "grid"
        with pytest.raises(ValidationError, match="axis"):
            scan_curve(bench200k, "gamma", [0.0, 1.0])

    @pytest.mark.parametrize("axis, family", [
        ("rho", "double_diff"), ("rho", "levels"),
        ("beta", "multi_input"), ("beta", "double_diff"),
    ])
    def test_family_the_axis_cannot_concentrate_raises(self, axis, family):
        # a rho scan used to return an all-NaN curve for these
        panel = draw_panel(make_spec(n_firms=200, seed=1))
        with pytest.raises(ValidationError) as err:
            scan_curve(panel, axis, [0.1, 0.2], family=family)
        assert err.value.field == "family"

    def test_family_input_missing_from_the_panel_raises_before_any_point(
            self, monkeypatch):
        # a multi_input rho scan of a panel without z used to evaluate every
        # point and return an all-NaN curve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return concentrate_rho(*args, **kwargs)

        monkeypatch.setattr(identify, "concentrate_rho", counting)
        panel = draw_panel(make_spec(n_firms=200, seed=1))
        with pytest.raises(ValidationError) as err:
            scan_curve(panel, "rho", np.linspace(-0.9, 0.9, 19),
                       family="multi_input")
        assert err.value.field == "panel"
        assert calls == []

    def test_all_failing_scan_is_all_nan(self):
        # with every shock switched off each grid point's solve is singular:
        # the curve is all NaN, has no zeros and cannot pass as flat
        panel = draw_panel(make_spec(n_firms=200, sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0))
        curve = scan_curve(panel, "beta", np.linspace(0.0, 2.0, 21))
        assert np.isnan(curve.m).all() and np.isnan(curve.ses).all()
        assert np.isnan(curve.msq).all()
        assert find_zeros(curve) == []
        assert find_local_minima(curve) == []
        assert flatness_guard(curve).verdict == "inconclusive"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_panel_scans_to_failed_points(self, bad):
        # a non-finite observation makes every cross-product non-finite: each
        # point's solve fails as rank deficient, and the scan goes on
        panel = draw_panel(make_spec(n_firms=200, seed=2))
        y = panel.y.copy()
        y[7, 3] = bad
        panel = dataclasses.replace(panel, y=y)
        for axis, grid in (("beta", np.linspace(0.0, 2.0, 5)),
                           ("rho", np.linspace(-0.5, 0.5, 5))):
            curve = scan_curve(panel, axis, grid)
            assert np.isnan(curve.m).all()
            assert find_zeros(curve) == []
        with pytest.raises(RankDeficiencyError):
            concentrate_rho(panel, 0.5)

    def test_rho_scan_locates_three_persistences(self, multi200k):
        grid = np.round(np.arange(-0.895, 0.8951, 0.01), 10)
        curve = scan_curve(multi200k, "rho", grid, family="multi_input")
        zeros = [z for z in find_zeros(curve) if z.converged]
        locs = sorted(z.location for z in zeros)
        assert len(locs) == 3
        assert abs(locs[0] - 0.3) < 0.05
        assert abs(locs[1] - 0.5) < 0.05
        assert abs(locs[2] - 0.7) < 0.05

    def test_rho_scan_poles_are_flagged_unconverged(self, multi200k):
        grid = np.round(np.arange(-0.895, 0.8951, 0.01), 10)
        curve = scan_curve(multi200k, "rho", grid, family="multi_input")
        bad = [z for z in find_zeros(curve) if not z.converged]
        # the concentration denominator vanishes between the true roots
        assert bad, "expected pole crossings to be reported as unconverged"


class TestScanState:
    """A curve keeps its moments and one plan, not a fit per grid point."""

    def test_long_scan_retains_no_fit_per_point(self):
        panel = draw_panel(make_spec(n_firms=2000, seed=3))
        grid = np.linspace(0.0, 2.0, 5001)
        scan_curve(panel, "beta", grid[:11])  # caches the panel's moments
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            curve = scan_curve(panel, "beta", grid)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert np.isfinite(curve.m).sum() > grid.size // 2
        # m and msq take 16 B a point; a kept fit took about 2.3 KB
        assert retained < 200 * grid.size, retained / grid.size

    @pytest.mark.parametrize("axis, grid, family", [
        ("beta", np.linspace(0.0, 2.0, 21), "quasi_diff"),
        ("rho", np.linspace(-0.9, 0.9, 19), "multi_input")],
        ids=["beta", "rho"])
    def test_reading_ses_evaluates_no_point(self, monkeypatch, axis, grid,
                                            family):
        calls = []
        concentrate, evaluator = (identify.concentrate_rho,
                                  identify.beta_scan_evaluator)

        def counting_concentrate(*args, **kwargs):
            calls.append(args[1])
            return concentrate(*args, **kwargs)

        def counting_evaluator(panel):
            evaluate = evaluator(panel)

            def counted(beta):
                calls.append(beta)
                return evaluate(beta)
            return counted

        monkeypatch.setattr(identify, "concentrate_rho", counting_concentrate)
        monkeypatch.setattr(identify, "beta_scan_evaluator",
                            counting_evaluator)
        panel = draw_panel(make_spec("multi_input", n_firms=2000, seed=4))
        curve = scan_curve(panel, axis, grid, family=family)
        assert len(calls) == grid.size
        ses = curve.ses
        assert len(calls) == grid.size
        assert np.array_equal(np.isfinite(ses), np.isfinite(curve.m))
        assert np.isfinite(ses).sum() > grid.size // 2

    def test_hand_built_curve_has_nan_ses(self):
        curve = synthetic_curve(lambda g: g - 1.05, BETA_GRID)
        assert np.isnan(curve.ses).all()


class TestFindZeros:
    def test_synthetic_linear_root(self):
        curve = synthetic_curve(lambda b: b - 1.0,
                                np.arange(0.0, 2.0001, 0.13))
        roots = find_zeros(curve)
        assert len(roots) == 1
        assert roots[0].location == pytest.approx(1.0, abs=1e-5)
        assert roots[0].converged

    def test_strictly_positive_curve_has_no_roots(self):
        curve = synthetic_curve(lambda b: 1.0 + b * b,
                                np.arange(0.0, 2.0001, 0.1))
        assert find_zeros(curve) == []

    def test_exact_grid_zero_is_reported(self):
        curve = synthetic_curve(lambda b: 2.0 * abs(b - 0.5),
                                [0.0, 0.5, 1.0])
        roots = find_zeros(curve)
        assert [r.location for r in roots] == [0.5]

    @pytest.mark.parametrize("m", [[1.0, 0.0, np.nan], [np.nan, 0.0, 1.0]],
                             ids=["nan_right", "nan_left"])
    def test_exact_grid_zero_beside_a_failed_fit_is_reported(self, m):
        # a failed fit on either side of an exact zero must not hide it
        grid, m = np.array([0.0, 0.5, 1.0]), np.array(m)
        curve = ObjectiveCurve(axis="beta", grid=grid, m=m, msq=m * m,
                               evaluator=lambda b: b - 0.5)
        assert find_zeros(curve) == [identify.RootInfo(
            location=0.5, bracket=(0.5, 0.5), m_value=0.0, iterations=0,
            converged=True)]

    def test_bisection_midpoint_exactly_zero(self):
        roots = find_zeros(synthetic_curve(lambda b: b - 1.0, [0.0, 2.0]))
        assert roots == [identify.RootInfo(location=1.0, bracket=(1.0, 1.0),
                                           m_value=0.0, iterations=1,
                                           converged=True)]

    def test_exact_midpoint_zero_with_zero_tolerance(self):
        # half the grid m is exactly 0, so the median |m| and the m
        # tolerance are 0: an exact midpoint zero still ends its bracket
        calls = []

        def evaluator(v):
            calls.append(v)
            return v - 3.5

        m = np.array([0.0, 0.0, 0.0, -1.0, 1.0])
        curve = ObjectiveCurve(axis="beta", grid=np.arange(5.0), m=m,
                               msq=m * m, evaluator=evaluator)
        roots = find_zeros(curve)
        assert calls == [3.5]
        assert roots[-1] == identify.RootInfo(
            location=3.5, bracket=(3.5, 3.5), m_value=0.0, iterations=1,
            converged=True)
        assert [r.location for r in roots[:-1]] == [0.0, 1.0, 2.0]

    def test_zero_at_last_grid_point(self):
        roots = find_zeros(synthetic_curve(lambda b: b - 1.0,
                                           [0.0, 0.5, 1.0]))
        assert roots == [identify.RootInfo(location=1.0, bracket=(1.0, 1.0),
                                           m_value=0.0, iterations=0,
                                           converged=True)]

    def test_nan_points_are_skipped(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5])
        m = np.array([1.0, np.nan, -1.0, -2.0])
        curve = ObjectiveCurve(axis="beta", grid=grid, m=m, msq=m * m,
                               evaluator=lambda b: 1 - 2 * b)
        assert find_zeros(curve) == []

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 181])
    def test_tolerance_median_matches_numpy(self, n):
        values = np.abs(np.random.default_rng(n).standard_normal(n)) ** 3
        want = float(np.median(values)) if n else 0.0
        assert identify._median(values) == want

    def test_refinement_does_not_import_numpy_ma(self):
        # np.median would import numpy.ma, about 10 ms of a fresh process
        code = ("import sys, numpy as np\n"
                "from dynpan.identify import ObjectiveCurve, find_zeros\n"
                "g = np.linspace(0.0, 2.0, 21)\n"
                "c = ObjectiveCurve('beta', g, g - 1.05, (g - 1.05) ** 2,\n"
                "                   evaluator=lambda b: b - 1.05)\n"
                "assert find_zeros(c)[0].converged\n"
                "assert 'numpy.ma' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_bracket_width_invariant(self, bench200k):
        curve = scan_curve(bench200k, "beta", BETA_GRID)
        span = BETA_GRID[-1] - BETA_GRID[0]
        for root in find_zeros(curve):
            if root.converged:
                lo, hi = root.bracket
                assert hi - lo < 1e-6 * span


class TestFindLocalMinima:
    def test_benchmark_minima_coincide_with_zeros(self, bench200k):
        curve = scan_curve(bench200k, "beta", BETA_GRID)
        zeros = [z.location for z in find_zeros(curve) if z.converged]
        minima = find_local_minima(curve)
        for z in zeros:
            assert min(abs(mn.location - z) for mn in minima) < 0.02

    def test_monotone_square_has_no_interior_minimum(self):
        curve = synthetic_curve(lambda b: b + 1.0,
                                np.arange(0.0, 1.0001, 0.1))
        assert find_local_minima(curve) == []

    def test_failed_vertex_fit_keeps_the_grid_value(self, monkeypatch):
        # a fit that fails at the refined vertex values the minimum by the
        # grid m^2 at its index
        panel = draw_panel(make_spec(n_firms=2000, seed=1))
        grid = np.round(np.arange(-0.9, 0.91, 0.1), 10)
        injected = []

        def failing(panel, rho, **kwargs):
            if rho not in grid:
                injected.append(rho)
                raise RankDeficiencyError("injected failure")
            return concentrate_rho(panel, rho, **kwargs)

        monkeypatch.setattr(identify, "concentrate_rho", failing)
        curve = scan_curve(panel, "rho", grid)
        minima = find_local_minima(curve)
        assert minima and len(injected) == len(minima)
        for mn in minima:
            assert mn.value == curve.msq[mn.grid_index]
            assert mn.location in injected

    def test_parabolic_refinement_beats_grid(self):
        # vertex of (b - 0.63)^2 is recovered despite the 0.1 grid
        curve = synthetic_curve(lambda b: b - 0.63,
                                np.arange(0.0, 1.2001, 0.1))
        minima = find_local_minima(curve)
        assert len(minima) == 1
        assert minima[0].location == pytest.approx(0.63, abs=0.01)


class TestTwoStepEstimator:
    def test_sign_restriction_selects_truth(self, bench200k):
        result = two_step_estimator(bench200k, "theta_positive")
        assert not result.degenerate
        assert result.chosen.params.theta > 0
        assert result.chosen.params.beta == pytest.approx(0.6, abs=0.15)
        assert result.rejected.params.beta == pytest.approx(1.6, abs=0.1)

    def test_negative_sign_swaps_branches(self, bench200k):
        pos = two_step_estimator(bench200k, "theta_positive")
        neg = two_step_estimator(bench200k, "theta_negative")
        assert pos.chosen.params == neg.rejected.params
        assert pos.rejected.params == neg.chosen.params

    def test_equal_persistence_reports_degenerate(self, equal_rho_200k):
        result = two_step_estimator(equal_rho_200k)
        assert result.degenerate
        assert result.chosen is None
        assert "degenerate" in result.diagnosis

    def test_invalid_sign_raises_on_a_degenerate_reduced_form(
            self, equal_rho_200k):
        # the degenerate return comes before any branch is selected, so the
        # sign must be checked before the fit
        with pytest.raises(ValidationError, match="sign") as err:
            two_step_estimator(equal_rho_200k, "bogus")
        assert err.value.field == "sign"

    @pytest.mark.parametrize("n_firms, n_periods",
                             [(1, 5), (1, 6), (1, 7), (2, 4)])
    def test_tiny_panels_report_instead_of_raising(self, n_firms, n_periods):
        # a tiny panel's reduced form may be exact, look equal-persistence,
        # or invert to a non-stationary branch: each is a degenerate result
        for seed in range(60):
            result = two_step_estimator(draw_panel(make_spec(
                n_firms=n_firms, n_periods=n_periods, seed=seed)))
            if result.degenerate:
                assert result.chosen is result.rejected is None
                assert result.diagnosis.startswith("degenerate reduced form: ")
            else:
                for branch in (result.chosen, result.rejected):
                    assert abs(branch.params.rho_omega) < 1.0
                    assert abs(branch.params.rho_x) < 1.0

    def test_non_stationary_branch_is_the_inversion_diagnosis(self):
        # one firm at six periods, seed 8: the plus branch's rho_omega lies
        # outside (-1, 1), which the inversion raised through the estimator
        result = two_step_estimator(draw_panel(make_spec(
            n_firms=1, n_periods=6, seed=8)))
        assert result.degenerate
        assert result.diagnosis.startswith(
            "degenerate reduced form: plus branch is not stationary")

    def test_pseudo_parameter_panel_gives_same_branch_pair(self):
        # observational equivalence: simulating at the other branch's
        # parameters produces the same reduced form, hence the same pair
        panel = draw_panel(make_spec(beta=1.6, theta=-1.0, rho_omega=0.5,
                                     rho_x=0.7))
        result = two_step_estimator(panel, "theta_positive")
        assert result.chosen.params.beta == pytest.approx(0.6, abs=0.15)
        assert result.rejected.params.beta == pytest.approx(1.6, abs=0.1)


class TestSelectBySign:
    def test_partition(self):
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5,
                             alpha=1.0, pi=0.0)
        branches = invert_reduced_form(forward_map(s))
        pos = select_by_sign(branches, "theta_positive")
        neg = select_by_sign(branches, "theta_negative")
        assert {pos.branch_sign, neg.branch_sign} == {"plus", "minus"}
        assert pos.params.beta < neg.params.beta  # gap is 1/theta > 0

    def test_same_sign_guard(self):
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5)
        plus, _ = invert_reduced_form(forward_map(s))
        with pytest.raises(InternalConsistencyError):
            select_by_sign((plus, plus), "theta_positive")

    def test_bad_sign_label(self):
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5)
        branches = invert_reduced_form(forward_map(s))
        with pytest.raises(ValidationError) as err:
            select_by_sign(branches, "positive")
        assert err.value.field == "sign"


class TestZeroPairOrdering:
    def test_negative_theta_reverses_order(self):
        panel = draw_panel(make_spec(theta=-1.0, n_firms=20000, seed=5))
        grid = np.round(np.arange(-1.0, 1.5001, 0.01), 10)
        curve = scan_curve(panel, "beta", grid)
        zeros = [z.location for z in find_zeros(curve) if z.converged]
        assert len(zeros) == 2
        # pseudo = beta + 1/theta = -0.4 now sits below the truth
        assert -0.7 < zeros[0] < -0.1
        assert 0.35 < zeros[1] < 0.85


class TestWarmStart:
    def test_reduced_form_start(self, bench200k):
        ws = warm_start_pipeline(bench200k, "reduced_form_start",
                                 "theta_positive")
        assert ws.point.alpha == pytest.approx(1.0, abs=0.15)
        assert ws.point.beta == pytest.approx(0.6, abs=0.15)
        assert ws.point.rho == pytest.approx(0.7, abs=0.1)
        assert not ws.flagged

    def test_predetermined_start_on_predetermined_panel(self, pred200k):
        ws = warm_start_pipeline(pred200k, "predetermined_start")
        assert not ws.flagged
        assert ws.point.beta == pytest.approx(0.6, abs=0.1)
        assert ws.point.rho == pytest.approx(0.7, abs=0.1)
        assert ws.point.alpha == pytest.approx(1.0, abs=0.15)

    def test_failed_fit_inside_one_bracket_drops_only_that_candidate(
            self, pred200k, monkeypatch):
        # this panel's x_{t-1} moment changes sign in (-0.25, -0.2) and
        # near 0.7; a failed fit inside the first bracket must not abort
        # the warm start, whose winner comes from the second
        want = warm_start_pipeline(pred200k, "predetermined_start")
        injected = []

        def failing(panel, rho, **kwargs):
            if -0.25 < rho < -0.2:
                injected.append(rho)
                raise RankDeficiencyError("injected failure")
            return concentrate_rho(panel, rho, **kwargs)

        monkeypatch.setattr(identify, "concentrate_rho", failing)
        ws = warm_start_pipeline(pred200k, "predetermined_start")
        assert injected
        assert ws.point == want.point

    def test_warm_start_stops_at_the_find_zeros_rule(self, pred200k,
                                                     monkeypatch):
        # about 69 evaluations (37 grid points, two brackets, two scores)
        # where 60 halvings per bracket took 146; the point moves by far
        # less than the bracket width
        want = sixty_halving_warm_start(pred200k)
        calls = []

        def counting(panel, rho, **kwargs):
            calls.append(rho)
            return concentrate_rho(panel, rho, **kwargs)

        monkeypatch.setattr(identify, "concentrate_rho", counting)
        ws = warm_start_pipeline(pred200k, "predetermined_start")
        assert len(calls) <= 90
        for name in ("alpha", "beta", "rho"):
            assert abs(getattr(ws.point, name) - getattr(want, name)) < 2e-6

    def test_warm_start_root_is_a_find_zeros_root(self, pred200k):
        # the warm start and find_zeros share one bisection: refining the
        # warm start's own grid with find_zeros lands on the chosen rho
        grid = np.linspace(-0.9, 0.9, 37)

        def moment(rho):
            return concentrate_rho(pred200k, rho, **PREDETERMINED).moments[0]

        m = np.array([moment(r) for r in grid])
        curve = ObjectiveCurve(axis="rho", grid=grid, m=m, msq=m * m,
                               evaluator=moment)
        roots = find_zeros(curve)
        assert all(r.converged for r in roots)
        ws = warm_start_pipeline(pred200k, "predetermined_start")
        assert ws.point.rho in [r.location for r in roots]

    def test_all_failing_predetermined_grid_names_the_strategy(self):
        panel = draw_panel(make_spec("predetermined", n_firms=200,
                                     sigma_xi=0.0, sigma_u=0.0,
                                     sigma_eta=0.0))
        with pytest.raises(ValidationError,
                           match="predetermined start unavailable: the fit "
                                 "failed at every rho") as err:
            warm_start_pipeline(panel, "predetermined_start")
        assert err.value.field == "strategy"

    @pytest.mark.parametrize("variant,n_periods", [
        ("predetermined", 4), ("benchmark", 4), ("predetermined", 5),
        ("benchmark", 5)])
    def test_no_finite_score_names_the_strategy(self, variant, n_periods):
        # one firm is one cluster: no moment has a standard error, so no
        # candidate root has a finite score, whatever the draw
        for seed in range(40):
            panel = draw_panel(make_spec(variant, n_firms=1,
                                         n_periods=n_periods, seed=seed))
            with pytest.raises(ValidationError,
                               match="^strategy: predetermined start "
                                     "unavailable: no candidate rho") as err:
                warm_start_pipeline(panel, "predetermined_start")
            assert err.value.field == "strategy"

    def test_strategy_mismatch_is_flagged(self, bench200k):
        ws = warm_start_pipeline(bench200k, "predetermined_start")
        assert ws.flagged
        assert "biased" in ws.note

    def test_degenerate_reduced_form_start_names_the_strategy(
            self, equal_rho_200k):
        # equal persistence leaves pi_xy near zero: the two-step estimator
        # reports a degenerate reduced form, which no start can use
        with pytest.raises(ValidationError) as err:
            warm_start_pipeline(equal_rho_200k, "reduced_form_start")
        assert err.value.field == "strategy"
        assert str(err.value).startswith(
            "strategy: reduced-form start unavailable: degenerate reduced "
            "form: pi_xy = ")

    def test_unknown_strategy(self, bench200k):
        with pytest.raises(ValidationError):
            warm_start_pipeline(bench200k, "cold_start")


PREDETERMINED = dict(solve_instruments=("const", "x_lag0"),
                     report_instruments=("x_lag1", "x_lag2", "y_lag2"))


def sixty_halving_warm_start(panel):
    """The predetermined warm start as it was before it shared find_zeros'
    stopping rule: 60 halvings per bracket, the final bracket's midpoint."""

    def at(rho):
        return concentrate_rho(panel, rho, **PREDETERMINED)

    grid = np.linspace(-0.9, 0.9, 37)
    vals = np.array([at(r).moments[0] for r in grid])
    candidates = []
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
        lo, hi, flo = grid[i], grid[i + 1], vals[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = at(mid).moments[0]
            if fm == 0.0:
                lo = hi = mid
                break
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        candidates.append(0.5 * (lo + hi))
    scored = [at(r) for r in candidates]
    best = min(scored, key=lambda cr: np.sum((cr.moments / cr.moment_ses)
                                             ** 2))
    return ParamPoint(alpha=best.coefficients["alpha"],
                      beta=best.coefficients["beta"], rho=best.at)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e9, 1e12],
                         ids="{:g}".format)
def test_joint_rescaling_of_y_and_x_changes_nothing(bench200k, scale):
    # a change of units must not look like a singular system: without
    # equilibration 1e-6 turned every grid point into NaN and made the
    # two-step estimator raise; with columns alone equilibrated 1e-12 still
    # did the first and 1e9 the second
    scaled = dataclasses.replace(bench200k, y=bench200k.y * scale,
                                 x=bench200k.x * scale)
    grid = np.round(np.arange(0.0, 2.0001, 0.05), 10)
    width = 1e-6 * (grid[-1] - grid[0])
    want = find_zeros(scan_curve(bench200k, "beta", grid))
    curve = scan_curve(scaled, "beta", grid)
    got = find_zeros(curve)
    assert not np.isnan(curve.m).any()
    assert [r.converged for r in got] == [r.converged for r in want]
    assert len([r for r in got if r.converged]) == 2
    for g, w in zip(got, want):
        assert abs(g.location - w.location) < width
    want, got = two_step_estimator(bench200k), two_step_estimator(scaled)
    for branch in ("chosen", "rejected"):
        p, q = getattr(got, branch).params, getattr(want, branch).params
        for name in ("beta", "rho_omega", "rho_x"):
            assert getattr(p, name) == pytest.approx(getattr(q, name),
                                                     rel=1e-8, abs=1e-8)


class TestCsvOutputs:
    def test_curve_csv_format(self, tmp_path):
        curve = synthetic_curve(lambda b: b - 1.0,
                                np.arange(0.0, 2.0001, 0.25))
        find_zeros(curve)
        find_local_minima(curve)
        out = tmp_path / "curve.csv"
        cli._lines_writer(cli._curve_lines(curve))(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "axis_value,m,objective"
        assert sum(1 for ln in lines if not ln.startswith("#")) == 1 + 9
        assert any(ln.startswith("# zero,") for ln in lines)

    def test_estimate_csv_has_both_branches(self, bench200k, tmp_path):
        result = two_step_estimator(bench200k)
        out = tmp_path / "est.csv"
        cli._lines_writer(cli._estimate_lines(result))(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("branch,selected")
        body = [ln for ln in lines if not ln.startswith("#")]
        assert len(body) == 3
        assert any(ln.startswith("plus,1,") or ln.startswith("minus,1,")
                   for ln in body)

    def test_degenerate_estimate_csv(self, equal_rho_200k, tmp_path):
        result = two_step_estimator(equal_rho_200k)
        out = tmp_path / "deg.csv"
        cli._lines_writer(cli._estimate_lines(result))(out)
        text = out.read_text()
        assert "# degenerate," in text
