"""The raw-data fits against the formulas they replaced.

``two_sls`` forms its cross-products from dot products of the columns of a
column-major design, and the diagnostics take their moments from centered
dot products.  The oracles below are the earlier formulas: full-length GEMMs
(``Z.T @ X``) on ``column_stack`` designs, ``np.corrcoef`` and a two-pass
standard deviation.  On every conftest panel the fits must agree with them
to 1e-10 relative.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import DEFAULTS
from dynpan.diagnostics import (
    ar_order_test,
    moment_inequality,
    residual_sign_test,
)
from dynpan.errors import RankDeficiencyError, ValidationError
from dynpan.estimate import (
    BENCHMARK_INSTRUMENTS,
    FIXED_EFFECTS_INSTRUMENTS,
    MULTI_INPUT_INSTRUMENTS,
    PREDETERMINED_INSTRUMENTS,
    fit_reduced_form,
    instrument_matrix,
    two_sls,
)
from dynpan.model import ParamPoint, pseudo_point
from test_estimate import FIXTURE_PANELS, assert_rel

TRUTH = ParamPoint(alpha=1.0, beta=0.6, rho=0.7)
POINTS = (TRUTH, pseudo_point(DEFAULTS), ParamPoint(1.0, -2.0, 0.7))


# --- oracles: the formulas the fits used before ---------------------------

def gemm_two_sls(dep, X, Z):
    """(coefficients, residuals, Z'X, Z'Z, homoskedastic SEs)."""
    zx = Z.T @ X
    zz = Z.T @ Z
    coef = np.linalg.solve(zx, Z.T @ dep)
    r = dep - X @ coef
    zxi = np.linalg.inv(zx)
    cov = float(r @ r) / dep.size * zxi @ zz @ zxi.T
    return coef, r, zx, zz, np.sqrt(np.diag(cov))


def stacked_reduced_form(panel):
    y, x = panel.y, panel.x
    one = np.ones(y.shape[0] * (y.shape[1] - 2))
    R = np.column_stack([one, y[:, 1:-1].ravel(), x[:, 1:-1].ravel()])
    Z = np.column_stack([one, y[:, :-2].ravel(), x[:, 1:-1].ravel()])
    return (gemm_two_sls(y[:, 2:].ravel(), R, Z),
            gemm_two_sls(x[:, 2:].ravel(), R, Z))


def stacked_ar_order(panel):
    x = panel.x
    X = np.column_stack([np.ones(x.shape[0] * (x.shape[1] - 2)),
                         x[:, 1:-1].ravel(), x[:, :-2].ravel()])
    coef, _, _, _, se = gemm_two_sls(x[:, 2:].ravel(), X, X)
    return coef[2], se[2]


def stacked_instruments(panel, names, t_min):
    series = {"y": panel.y, "x": panel.x, "z": panel.z}
    t_len = panel.spec.n_periods - t_min
    cols = []
    for name in names:
        if name == "const":
            cols.append(np.ones(panel.spec.n_firms * t_len))
            continue
        kind, lag = name.split("_lag")
        lo = t_min - int(lag)
        cols.append(series[kind][:, lo:lo + t_len].ravel())
    return np.column_stack(cols)


def corrcoef_sign(panel, p):
    e = (panel.y - p.alpha - p.beta * panel.x).ravel()
    return float(np.corrcoef(panel.x.ravel(), e)[0, 1])


def two_pass_inequality(panel, p):
    prod = (panel.x * (panel.y - p.alpha - p.beta * panel.x)).ravel()
    return prod.mean(), prod.std(ddof=1) / np.sqrt(prod.size)


# --- agreement on every conftest panel ------------------------------------

def assert_fit(fit, want):
    coef, r, zx, zz, se = want
    assert_rel(fit.coefficients, coef)
    assert_rel(fit.residuals, r, scale=np.max(np.abs(r)))
    assert_rel(fit.zx, zx, scale=np.max(np.abs(zx)))
    assert_rel(fit.zz, zz, scale=np.max(np.abs(zz)))
    assert_rel(fit.std_errors(), se)
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


@pytest.mark.parametrize("fixture", FIXTURE_PANELS)
def test_instrument_matrix_matches_column_stack(fixture, request):
    panel = request.getfixturevalue(fixture)
    for spec in (BENCHMARK_INSTRUMENTS, FIXED_EFFECTS_INSTRUMENTS,
                 PREDETERMINED_INSTRUMENTS, MULTI_INPUT_INSTRUMENTS):
        if spec.needs_z() and panel.z is None:
            with pytest.raises(ValidationError, match="no series 'z'"):
                instrument_matrix(panel, spec, spec.max_lag)
            continue
        for t_min in range(max(spec.max_lag, 1), panel.spec.n_periods):
            got = instrument_matrix(panel, spec, t_min)
            assert np.array_equal(
                got, stacked_instruments(panel, spec.names, t_min))


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
                   two_pass_inequality(panel, p))


# --- two_sls inputs -------------------------------------------------------

def random_system(n, k, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, k))
    X = Z @ rng.standard_normal((k, k)) + rng.standard_normal((n, k))
    return X @ rng.standard_normal(k) + rng.standard_normal(n), X, Z


@pytest.mark.parametrize("order", ["C", "F"])
def test_two_sls_agrees_on_c_and_f_inputs(order):
    dep, X, Z = random_system(5000, 3)
    fit = two_sls(dep, np.asarray(X, order=order),
                  np.asarray(Z, order=order))
    coef, r, zx, zz, se = gemm_two_sls(dep, X, Z)
    assert_rel(fit.coefficients, coef, rtol=1e-12)
    assert_rel(fit.residuals, r, scale=np.max(np.abs(r)), rtol=1e-12)
    assert_rel(fit.zx, zx, scale=np.max(np.abs(zx)), rtol=1e-12)
    assert_rel(fit.zz, zz, scale=np.max(np.abs(zz)), rtol=1e-12)
    assert_rel(fit.std_errors(), se, rtol=1e-12)


def test_one_dimensional_inputs_are_one_column():
    dep, X, Z = random_system(6, 1, seed=4)
    fit = two_sls(dep, X[:, 0], Z[:, 0])
    want = two_sls(dep, X, Z)
    assert fit.zx.shape == (1, 1) and fit.zz.shape == (1, 1)
    assert fit.residuals.shape == (6,)
    assert_rel(fit.coefficients, want.coefficients, rtol=1e-12)
    assert_rel(fit.residuals, want.residuals, rtol=1e-12)
    assert_rel(fit.coefficients, gemm_two_sls(dep, X, Z)[0], rtol=1e-12)


@pytest.mark.parametrize("shapes", [((5,), (6, 1), (6, 1)),
                                    ((6,), (5, 1), (6, 1)),
                                    ((6,), (6, 2), (5, 2)),
                                    ((6, 2), (6, 1), (6, 1)),
                                    ((6,), (6, 1, 1), (6, 1, 1))])
def test_mismatched_shapes_rejected(shapes):
    with pytest.raises(ValidationError):
        two_sls(*(np.ones(s) for s in shapes))


def test_same_regressors_and_instruments_keep_separate_products():
    dep, X, _ = random_system(500, 3, seed=5)
    fit = two_sls(dep, X, X)
    assert fit.zz is not fit.zx
    assert_rel(fit.coefficients, np.linalg.lstsq(X, dep, rcond=None)[0],
               rtol=1e-12)
    with pytest.raises(RankDeficiencyError):
        two_sls(dep, X[:, [0, 0]], X[:, [0, 1]])


# --- the sign test's degenerate and boundary cases ------------------------

def linear_panel(x, y):
    return SimpleNamespace(x=x, y=y)


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
    assert rep.rule_applied.endswith("(degenerate: zero variance)")


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
