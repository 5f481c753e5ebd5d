"""Population-limit oracle for the concentrated scan.

The concentration procedure has a closed-form large-sample limit that can
be computed from second moments alone, entirely outside the estimation
code: with w = y - bt*x = const + a*omega + b*kappa + eta (a = 1 + b*theta,
b = beta0 - bt), the step-1 IV slope converges to

    rho(bt) = (a^2 gw2 + b^2 gk2) / (a^2 gw1 + b^2 gk1)

and the single-instrument moment to

    m(bt) = a theta (gw1 - rho gw0) + b (gk1 - rho gk0)

where g*j are the lag-j autocovariances of the two latent processes.  The
oracle below evaluates this limit from exact AR autocovariances (plus the
Gaussian fourth-moment rule for the quadratic-input variant) and locates
its roots by bisection.  It shares no code with the estimators, so
agreement between the analytic zeros and the simulated scans is a genuine
cross-check of the whole pipeline.
"""

import dataclasses

import numpy as np
import pytest

from conftest import make_spec
from dynpan import moments
from dynpan.estimate import (
    PREDETERMINED_INSTRUMENTS,
    fit_reduced_form,
    gmm_objective,
)
from dynpan.identify import find_zeros, scan_curve
from dynpan.model import ParamPoint, forward_map, pseudo_point
from dynpan.simulate import draw_panel
from oracles import population_gram

RHO_W, RHO_X = 0.7, 0.5
BETA0, THETA = 0.6, 1.0


def ar1_gammas(rho, sigma=1.0):
    g0 = sigma ** 2 / (1.0 - rho * rho)
    return g0, rho * g0, rho * rho * g0


def ar2_gammas(rho1, rho2, sigma=1.0):
    r1 = rho1 / (1.0 - rho2)
    r2 = rho1 * r1 + rho2
    g0 = sigma ** 2 / (1.0 - rho1 * r1 - rho2 * r2)
    return g0, r1 * g0, r2 * g0


def population_moment(bt, gw, gk, theta=THETA, beta0=BETA0, sigma_eps=0.0,
                      theta2=0.0):
    """Large-sample concentrated moment at candidate slope bt.

    ``sigma_eps`` adds an i.i.d. input shock; ``theta2`` adds a quadratic
    productivity term to the input (Gaussian rule: the squared process has
    autocovariance 2*gw_j^2 and is uncorrelated with the level).
    """
    b = beta0 - bt
    a = 1.0 + b * theta
    c = b * theta2
    gw0, gw1, gw2 = gw
    gk0, gk1, gk2 = gk
    q0, q1, q2 = 2.0 * gw0 ** 2, 2.0 * gw1 ** 2, 2.0 * gw2 ** 2
    den = a * a * gw1 + c * c * q1 + b * b * gk1
    num = a * a * gw2 + c * c * q2 + b * b * gk2
    if den == 0.0:
        return np.nan
    rho = num / den
    return (a * theta * (gw1 - rho * gw0)
            + c * theta2 * (q1 - rho * q0)
            + b * (gk1 - rho * gk0)
            - b * rho * sigma_eps ** 2)


def analytic_roots(fn, lo=0.0, hi=2.2, step=0.002, tol=1e-12):
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([fn(g) for g in grid])
    roots = []
    for i, v in enumerate(vals):
        # the closed form hits 0.0 exactly at on-grid roots
        if v == 0.0 and (i == 0 or vals[i - 1] != 0.0):
            roots.append(float(grid[i]))
    for i in range(len(grid) - 1):
        pair = vals[i] * vals[i + 1]
        if np.isnan(pair) or pair >= 0:
            continue
        a, b = grid[i], grid[i + 1]
        fa = vals[i]
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = fn(mid)
            if fm == 0.0:
                a = b = mid
            elif np.sign(fm) == np.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return sorted(roots)


class TestAnalyticCurve:
    def test_benchmark_roots_are_truth_and_pseudo(self):
        gw, gk = ar1_gammas(RHO_W), ar1_gammas(RHO_X)
        roots = analytic_roots(lambda bt: population_moment(bt, gw, gk))
        assert roots == pytest.approx([0.6, 1.6], abs=1e-9)

    def test_negative_theta_roots(self):
        # pseudo at beta0 + 1/theta = -0.4 for theta = -1
        gw, gk = ar1_gammas(RHO_W), ar1_gammas(RHO_X)
        roots = analytic_roots(
            lambda bt: population_moment(bt, gw, gk, theta=-1.0),
            lo=-1.0, hi=1.5)
        assert roots == pytest.approx([-0.4, 0.6], abs=1e-9)

    def test_equal_persistence_curve_is_identically_zero(self):
        gw = gk = ar1_gammas(0.5)
        grid = np.arange(0.0, 2.0001, 0.05)
        vals = [population_moment(bt, gw, gk) for bt in grid]
        assert np.allclose(vals, 0.0, atol=1e-12)

    def test_ar2_input_factor_shifts_the_pseudo_pair(self):
        # with an AR(2) market factor the spurious roots move to ~0.165
        # and ~1.157 while the truth stays exact
        gw = ar1_gammas(RHO_W)
        gk = ar2_gammas(0.5, 0.4)
        roots = analytic_roots(lambda bt: population_moment(bt, gw, gk))
        assert len(roots) == 3
        assert roots[1] == pytest.approx(0.6, abs=1e-9)
        assert roots[0] == pytest.approx(0.165, abs=0.01)
        assert roots[2] == pytest.approx(1.157, abs=0.01)

    def test_iid_input_shock_removes_the_pseudo_root(self):
        # a unit-scale i.i.d. shock leaves only the truth as an exact
        # zero, with a strictly positive interior dip near 1.55
        gw, gk = ar1_gammas(RHO_W), ar1_gammas(RHO_X)

        def m(bt):
            return population_moment(bt, gw, gk, sigma_eps=1.0)

        roots = analytic_roots(m)
        assert roots == pytest.approx([0.6], abs=1e-9)
        grid = np.arange(1.2, 1.9001, 0.002)
        vals = np.array([m(bt) ** 2 for bt in grid])
        dip = grid[np.argmin(vals)]
        assert 1.4 < dip < 1.7
        assert vals.min() > 0.0

    def test_quadratic_input_keeps_pseudo_near_its_location(self):
        gw, gk = ar1_gammas(RHO_W), ar1_gammas(RHO_X)
        for theta2 in (0.5, 1.0):
            roots = analytic_roots(
                lambda bt: population_moment(bt, gw, gk, theta2=theta2))
            pseudo = [r for r in roots if r > 1.0]
            assert len(pseudo) == 1
            assert pseudo[0] == pytest.approx(1.6, abs=0.05)


class TestSimulationMatchesOracle:
    def test_benchmark_scan_zeros_track_analytic_roots(self, bench200k):
        gw, gk = ar1_gammas(RHO_W), ar1_gammas(RHO_X)
        want = analytic_roots(lambda bt: population_moment(bt, gw, gk))
        grid = np.round(np.arange(0.0, 2.0001, 0.01), 10)
        curve = scan_curve(bench200k, "beta", grid)
        got = [z.location for z in find_zeros(curve) if z.converged]
        assert len(got) == len(want)
        # 0.2 is about four standard deviations of the location noise at
        # this sample size
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=0.2)

    def test_analytic_curve_matches_sampled_moments_pointwise(self, bench200k):
        from dynpan.estimate import beta_scan_evaluator
        gw, gk = ar1_gammas(RHO_W), ar1_gammas(RHO_X)
        evaluate = beta_scan_evaluator(bench200k)
        for bt in (0.0, 0.3, 0.9, 1.2, 1.9):
            cb = evaluate(bt)
            want = population_moment(bt, gw, gk)
            assert cb.moments[0] == pytest.approx(
                want, abs=6.0 * cb.moment_ses[0])


# --- the engine on the exact period Gram ------------------------------------
#
# ``population_gram`` (tests/oracles.py) puts the population second moments
# of a benchmark panel into a small panel's moment cache before its first
# fit.  Every depth, plan, fit and scan then reads them through the engine's
# own path, so the paper's claims hold to the bisection width, with no seed.

CALIBRATIONS = [{}, dict(rho_x=0.3), dict(rho_x=0.3, theta=0.8)]
CALIBRATION_IDS = ["default", "rho_x_0.3", "rho_x_0.3_theta_0.8"]


def population_panel(overrides, variant="benchmark"):
    spec = make_spec(variant, n_firms=50, **overrides)
    panel = draw_panel(spec)
    gram = population_gram(spec)
    moments.cached(panel, "gram", lambda: gram)
    return panel


def converged_zeros(panel, axis, grid):
    curve = scan_curve(panel, axis, grid)
    return [z.location for z in find_zeros(curve) if z.converged]


@pytest.mark.parametrize("overrides", CALIBRATIONS, ids=CALIBRATION_IDS)
class TestPopulationGram:
    def test_reduced_form_is_the_forward_map(self, overrides):
        panel = population_panel(overrides)
        got = dataclasses.astuple(fit_reduced_form(panel)[0])
        want = dataclasses.astuple(forward_map(panel.spec.structural))
        assert np.allclose(got, want, rtol=0.0, atol=1e-10)

    def test_beta_scan_zeros_are_the_truth_and_the_pseudo_slope(
            self, overrides):
        panel = population_panel(overrides)
        s = panel.spec.structural
        # the grid avoids every zero: the truth, the pseudo slope and a
        # third, smooth one at beta + rho_omega / (theta (rho_omega - rho_x)),
        # which lies inside it at rho_x = 0.3 (2.35, and 2.7875 with
        # theta = 0.8) and at 4.1 outside it at the default calibration
        grid = np.round(np.arange(-0.995, 2.996, 0.01), 10)
        closed_form = (s.beta, s.beta + 1.0 / s.theta,
                       s.beta + s.rho_omega
                       / (s.theta * (s.rho_omega - s.rho_x)))
        want = sorted(z for z in closed_form if grid[0] < z < grid[-1])
        assert len(want) == (2 if not overrides else 3)
        got = converged_zeros(panel, "beta", grid)
        assert got == pytest.approx(want, abs=1e-5), got

    def test_predetermined_timing_rejects_the_pseudo_solution(
            self, overrides):
        # criterion 06: with the input chosen one period ahead, x_lag0 is a
        # valid instrument; every moment is zero at the truth, and at the
        # pseudo-solution the x_lag0 moment alone is -(theta rho_omega rho_x
        # sigma_xi^2 + sigma_u^2 / theta): -1.35, -1.21 and -1.418 here
        panel = population_panel(overrides, "predetermined")
        s = panel.spec.structural
        truth = gmm_objective(panel, "quasi_diff",
                              ParamPoint(s.alpha, s.beta, s.rho_omega),
                              PREDETERMINED_INSTRUMENTS)
        assert np.abs(truth.moments).max() < 1e-14, truth.moments
        pseudo = gmm_objective(panel, "quasi_diff", pseudo_point(s),
                               PREDETERMINED_INSTRUMENTS)
        got = dict(zip(pseudo.names, pseudo.moments))
        want = -(s.theta * s.rho_omega * s.rho_x * s.sigma_xi ** 2
                 + s.sigma_u ** 2 / s.theta)
        assert got.pop("x_lag0") == pytest.approx(want, abs=1e-12)
        assert max(map(abs, got.values())) < 1e-14, got

    def test_rho_scan_zeros_are_the_two_persistences(self, overrides):
        panel = population_panel(overrides)
        s = panel.spec.structural
        # the pole between them is reported unconverged
        got = converged_zeros(panel, "rho",
                              np.round(np.arange(-0.895, 0.8951, 0.01), 10))
        assert len(got) == 2, got
        assert got == pytest.approx([s.rho_x, s.rho_omega], abs=1e-5)
