"""The fits and moment reports against the raw-data formulas they replaced.

``two_sls`` and its callers (the reduced form and the AR-order test),
``gmm_objective`` and the two level diagnostics (``residual_sign_test``,
``moment_inequality``) read the panel only through its cached
cross-moments: each residual is a linear form in the lagged columns, so its
moments, their outer-product and the standard errors are small dense
algebra.  The oracles (``tests/oracles.py``) are the earlier formulas,
which pool the raw arrays: full-length GEMMs (``Z.T @ X``) on
``column_stack`` designs, the per-period residual matrices with
``moment_stats``, ``np.corrcoef`` and a two-pass standard deviation.  On
every conftest panel the fits and reports must agree with them to 1e-10
relative.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from conftest import DEFAULTS, linear_panel
from dynpan.moments import _moments_from
from dynpan.diagnostics import (
    ar_order_test,
    moment_inequality,
    residual_sign_test,
)
from dynpan.errors import RankDeficiencyError, ValidationError
from dynpan.estimate import (
    BENCHMARK_INSTRUMENTS,
    CONCENTRATED_BETA_INSTRUMENTS,
    FIXED_EFFECTS_INSTRUMENTS,
    MULTI_INPUT_INSTRUMENTS,
    PREDETERMINED_INSTRUMENTS,
    fit_reduced_form,
    gmm_objective,
    two_sls,
)
from dynpan.model import ParamPoint, pseudo_point
from oracles import (
    assert_rel,
    corrcoef_sign,
    gemm_two_sls,
    influence_se,
    max_lag,
    stacked_ar_order,
    stacked_gmm,
    stacked_instruments,
    stacked_reduced_form,
    two_pass_inequality,
)
from test_estimate import (
    FIXTURE_PANELS,
    RHO_SETS,
    check_beta_scan,
    check_rho_scan,
)

TRUTH = ParamPoint(alpha=1.0, beta=0.6, rho=0.7)
POINTS = (TRUTH, pseudo_point(DEFAULTS), ParamPoint(1.0, -2.0, 0.7))


# --- agreement on every conftest panel ------------------------------------

def assert_fit(fit, want, rtol=1e-10):
    coef, r, _, _, se = want
    assert_rel(fit.coefficients, coef, rtol=rtol)
    assert_rel(fit.std_errors, se, rtol=rtol)
    assert fit.n_obs == r.size


@pytest.mark.parametrize("fixture", FIXTURE_PANELS)
def test_reduced_form_matches_stacked_gemm(fixture, request):
    panel = request.getfixturevalue(fixture)
    _, fit_y, fit_x = fit_reduced_form(panel)
    want_y, want_x = stacked_reduced_form(panel)
    assert_fit(fit_y, want_y)
    assert_fit(fit_x, want_x)


@pytest.mark.parametrize("fixture", FIXTURE_PANELS)
def test_ar_order_matches_stacked_gemm(fixture, request):
    panel = request.getfixturevalue(fixture)
    rep = ar_order_test(panel)
    assert_rel([rep.statistic, rep.standard_error], stacked_ar_order(panel))


GMM_SPECS = (BENCHMARK_INSTRUMENTS, FIXED_EFFECTS_INSTRUMENTS,
             PREDETERMINED_INSTRUMENTS, MULTI_INPUT_INSTRUMENTS,
             CONCENTRATED_BETA_INSTRUMENTS)


def needs_z(spec):
    return any(name.startswith("z_") for name in spec)


@pytest.mark.parametrize("fixture", FIXTURE_PANELS)
def test_instrument_matrix_matches_column_stack(fixture, request):
    # the instruments are forms over the cross-moments: their means and
    # Gram matrix are those of the stacked raw columns
    panel = request.getfixturevalue(fixture)
    for spec in GMM_SPECS:
        for t_min in range(max(max_lag(spec), 1), panel.spec.n_periods):
            mom = _moments_from(panel, t_min, ())
            if needs_z(spec) and panel.z is None:
                # names are checked against the panel where a fit takes them
                with pytest.raises(ValidationError,
                                   match="no series 'z'") as err:
                    gmm_objective(panel, "quasi_diff", TRUTH, spec)
                assert err.value.field == "instruments"
                continue
            Z = mom.forms(spec)
            want = stacked_instruments(panel, spec, t_min)
            assert mom.n == want.shape[0]
            assert_rel(mom.cross(Z, mom.column("const")), want.mean(axis=0),
                       scale=np.max(np.abs(want.mean(axis=0))))
            gram = want.T @ want / mom.n
            assert_rel(mom.cross(Z, Z), gram, scale=np.max(np.abs(gram)))


GMM_POINTS = {
    "quasi_diff": POINTS,
    "double_diff": ((0.6, 0.7), (1.6, 0.5), (1.1, 0.6)),
    "multi_input": ((1.0, 0.6, 0.3, 0.7), (1.0, 2.6, -0.7, 0.5),
                    (0.5, 1.1, 0.2, 0.6)),
}


@pytest.mark.parametrize("fixture", FIXTURE_PANELS)
def test_gmm_objective_matches_raw_oracle(fixture, request):
    panel = request.getfixturevalue(fixture)
    for family, points in GMM_POINTS.items():
        for spec in GMM_SPECS:
            if panel.z is None and (family == "multi_input"
                                    or needs_z(spec)):
                with pytest.raises(ValidationError) as err:
                    gmm_objective(panel, family, points[0], spec)
                assert err.value.field == ("panel" if family == "multi_input"
                                           else "instruments")
                continue
            for params in points:
                for weighting in ("identity", "two_step"):
                    rep = gmm_objective(panel, family, params, spec,
                                        weighting)
                    m, objective, se, n = stacked_gmm(
                        panel, family, params, spec, weighting)
                    assert (rep.names, rep.weighting, rep.n_obs) == \
                        (spec, weighting, n)
                    assert_rel(rep.moments, m)
                    assert_rel(rep.objective, objective)
                    assert_rel(rep.std_errors, se)


def test_singular_two_step_outer_product_raises_like_oracle(bench200k):
    spec = ("const", "x_lag1", "x_lag1")
    with pytest.raises(RankDeficiencyError):
        stacked_gmm(bench200k, "quasi_diff", TRUTH, spec, "two_step")
    with pytest.raises(RankDeficiencyError, match="two-step"):
        gmm_objective(bench200k, "quasi_diff", TRUTH, spec, "two_step")
    rep = gmm_objective(bench200k, "quasi_diff", TRUTH, spec)
    _, objective, se, _ = stacked_gmm(bench200k, "quasi_diff", TRUTH, spec,
                                      "identity")
    assert_rel(rep.objective, objective)
    assert_rel(rep.std_errors, se)


@pytest.mark.parametrize("fixture", FIXTURE_PANELS)
def test_sign_and_inequality_match_old_formulas(fixture, request):
    panel = request.getfixturevalue(fixture)
    stderr = 1.0 / np.sqrt(panel.x.size)
    for p in POINTS:
        rep = residual_sign_test(panel, p)
        assert_rel([rep.statistic, rep.standard_error],
                   [corrcoef_sign(panel, p), stderr])
        rep = moment_inequality(panel, p)
        assert_rel([rep.statistic, rep.standard_error],
                   two_pass_inequality(panel, p, clustered=True))


# --- the firm-clustered oracles where each firm pools one row ------------
#
# Cut to its first L + 1 periods, a panel gives a fit at lag depth L one
# pooled row per firm.  A firm's mean influence value is then its one row's,
# so the engine's row-level standard errors (and the two-step weight) must
# equal the firm-clustered oracles, which the clustered engine is to match
# on every panel.

def first_periods(panel, t):
    """``panel`` cut to its first ``t`` periods."""
    return dataclasses.replace(
        panel, spec=dataclasses.replace(panel.spec, n_periods=t),
        **{f.name: np.ascontiguousarray(getattr(panel, f.name)[:, :t])
           for f in dataclasses.fields(panel)
           if getattr(getattr(panel, f.name), "ndim", 0) == 2})


@pytest.mark.parametrize("fixture", FIXTURE_PANELS)
def test_one_row_per_firm_matches_the_clustered_oracles(fixture, request):
    panel = request.getfixturevalue(fixture)
    cuts = {t: first_periods(panel, t) for t in range(1, 5)}
    check_beta_scan(cuts[3])
    for family, solve, report in RHO_SETS:
        if family != "multi_input" or panel.z is not None:
            check_rho_scan(cuts[3], family, solve, report)
    for family, points in GMM_POINTS.items():
        if family == "multi_input" and panel.z is None:
            continue
        for spec in GMM_SPECS:
            if needs_z(spec) and panel.z is None:
                continue
            depth = max(max_lag(spec), 2 if family == "double_diff" else 1)
            cut = cuts[depth + 1]
            for params in points:
                for weighting in ("identity", "two_step"):
                    rep = gmm_objective(cut, family, params, spec, weighting)
                    m, objective, se, n = stacked_gmm(
                        cut, family, params, spec, weighting)
                    assert rep.n_obs == n == cut.spec.n_firms
                    assert_rel(rep.moments, m)
                    assert_rel(rep.objective, objective)
                    assert_rel(rep.std_errors, se)
    for p in POINTS:
        rep = moment_inequality(cuts[1], p)
        assert_rel([rep.statistic, rep.standard_error],
                   two_pass_inequality(cuts[1], p, clustered=True))


def test_clustered_inequality_se_reads_each_firm_once(bench200k):
    # on five periods the firm's rows are correlated: clustering widens
    # the inequality's standard error (row-level it is about 1.3x too small)
    row, firm = (two_pass_inequality(bench200k, TRUTH, clustered)[1]
                 for clustered in (False, True))
    assert firm > 1.15 * row
    prod = np.repeat(np.arange(8.0), 5)  # each firm's 5 rows are equal
    assert influence_se(prod, 8) == pytest.approx(
        np.arange(8.0).std(ddof=1) / np.sqrt(8), rel=1e-15)


# --- two_sls on small panels ----------------------------------------------

def random_panel(n, seed=0, order="C"):
    """Two-period y/x panel: period 0 of x instruments period 1, which is
    endogenous in y's period 1."""
    rng = np.random.default_rng(seed)
    z, e = rng.standard_normal((2, n))
    x = np.column_stack([z, z + 0.8 * e + 0.5 * rng.standard_normal(n)])
    y = np.column_stack([rng.standard_normal(n), 1.0 + 2.0 * x[:, 1] + e])
    panel = linear_panel(np.asarray(x, order=order),
                         np.asarray(y, order=order))
    one = np.ones(n)
    return (panel, y[:, 1], np.column_stack([one, x[:, 1]]),
            np.column_stack([one, x[:, 0]]))


@pytest.mark.parametrize("order", ["C", "F"])
def test_two_sls_agrees_on_c_and_f_inputs(order):
    panel, dep, X, Z = random_panel(5000, order=order)
    fit = two_sls(panel, "y_lag0", ("const", "x_lag0"), ("const", "x_lag1"))
    assert_fit(fit, gemm_two_sls(dep, X, Z), rtol=1e-12)


def test_one_dimensional_inputs_are_one_column():
    # a one-name sequence is one column; a bare name is rejected as such,
    # not read one character at a time
    panel, dep, X, Z = random_panel(6, seed=4)
    fit = two_sls(panel, "y_lag0", ("x_lag0",), ("x_lag1",))
    assert fit.names == ("x_lag0",) and fit.coefficients.shape == (1,)
    assert_fit(fit, gemm_two_sls(dep, X[:, 1:], Z[:, 1:]), rtol=1e-12)
    for args, field in ((("x_lag0", ("x_lag1",)), "regressors"),
                        ((("x_lag0",), "x_lag1"), "instruments"),
                        (("x_lag0", "x_lag1"), "regressors")):
        with pytest.raises(ValidationError,
                           match=f"{field} must be a sequence of names, "
                                 "not the string") as err:
            two_sls(panel, "y_lag0", *args)
        assert err.value.field == field


@pytest.mark.parametrize("shapes", [((), ()),
                                    (("x_lag0",), ()),
                                    (("x_lag0",), ("x_lag1", "const")),
                                    (("const", "x_lag0"), ("x_lag1",)),
                                    (("const", "x_lag0", "y_lag1"),
                                     ("const", "x_lag1"))])
def test_mismatched_shapes_rejected(shapes):
    # as many instruments as regressors, and at least one of each
    panel = random_panel(6)[0]
    with pytest.raises(ValidationError) as err:
        two_sls(panel, "y_lag0", *shapes)
    assert err.value.field == "instruments"


def test_same_regressors_and_instruments_give_ols():
    panel, dep, X, Z = random_panel(500, seed=5)
    names = ("const", "x_lag0", "x_lag1")
    fit = two_sls(panel, "y_lag0", names, names)
    X = np.column_stack([X, Z[:, 1]])
    assert_rel(fit.coefficients, np.linalg.lstsq(X, dep, rcond=None)[0],
               rtol=1e-12)
    assert_fit(fit, gemm_two_sls(dep, X, X), rtol=1e-12)
    with pytest.raises(RankDeficiencyError):
        two_sls(panel, "y_lag0", ("x_lag0", "x_lag0"), ("x_lag0", "x_lag1"))


# --- the sign test's degenerate and boundary cases ------------------------

@pytest.mark.parametrize("case", ["constant_x", "exact_fit"])
def test_sign_test_reports_zero_variance(case):
    # integers keep y - alpha - beta x exactly zero in the exact fit
    x = np.arange(12.0).reshape(4, 3)
    if case == "constant_x":
        x = np.full((4, 3), 2.0)
    rep = residual_sign_test(linear_panel(x, 1.0 + 0.5 * x),
                             ParamPoint(1.0, 0.5, 0.7))
    assert np.isnan(rep.statistic) and np.isnan(rep.standard_error)
    assert rep.verdict == "inconclusive"
    assert rep.rule_applied.endswith("(degenerate: no standard error)")


def test_ar_order_test_without_residual_variance_is_inconclusive():
    # x is an exact AR(2) on every firm, so the fit leaves no residual and
    # its variance rounds to a zero (or tiny) standard error, never raising
    zero = 0
    for seed in range(40):
        x = np.empty((30, 8))
        x[:, :2] = np.random.default_rng(seed).integers(-5, 5, (30, 2))
        for t in range(2, 8):
            x[:, t] = 1.0 + 0.5 * x[:, t - 1] + 0.25 * x[:, t - 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ar_order_test(linear_panel(x, x.copy()))
        assert rep.statistic == pytest.approx(0.25, abs=1e-12)
        if not rep.standard_error > 0.0:
            zero += 1
            assert rep.verdict == "inconclusive"
            assert rep.rule_applied.endswith(
                "(degenerate: no standard error)")
    assert zero > 0  # the zero standard error is reached


@pytest.mark.parametrize("seed", range(20))
def test_sign_test_correlation_stays_in_range(seed):
    # a residual proportional to x up to a constant has |corr| = 1
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((50, 5)) * 10.0 ** rng.uniform(-3, 3)
    slope = rng.uniform(-3, 3)
    y = rng.uniform(-5, 5) + slope * x
    rep = residual_sign_test(linear_panel(x, y), ParamPoint(0.0, 0.0, 0.5))
    assert -1.0 <= rep.statistic <= 1.0
    assert abs(rep.statistic) == pytest.approx(1.0, abs=1e-12)
    assert np.sign(rep.statistic) == np.sign(slope)
