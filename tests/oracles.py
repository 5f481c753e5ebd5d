"""The raw-data oracles: formulas that pool a panel's raw arrays directly.

The package reads a panel only through its cached cross-moments.  The
functions here are the formulas it replaced, kept as independent checks:
the residual families one column per usable period, the concentrated beta
and rho moments with their influence-function standard errors, the
full-length GEMM two-stage least squares on ``column_stack`` designs, the
per-period GMM moments with ``moment_stats``, ``np.corrcoef`` and a
two-pass standard deviation.  ``assert_rel`` is the comparison every test
of the engine against them uses.
"""

import numpy as np

from dynpan.errors import RankDeficiencyError, ValidationError
from dynpan.estimate import _checked_inverse
from dynpan.model import ParamPoint


def assert_rel(got, want, scale=None, rtol=1e-10):
    """Agreement within rtol of each value, or of ``scale`` when given;
    NaN only where the oracle has NaN."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    bound = rtol * (np.abs(want[ok]) if scale is None else scale)
    assert np.all(np.abs(got[ok] - want[ok]) <= bound), \
        np.max(np.abs(got[ok] - want[ok]) / np.maximum(bound / rtol, 1e-300))


def max_lag(names) -> int:
    """The largest lag among instrument names, 0 for ``const`` alone."""
    return max((int(n.split("_lag")[1]) for n in names if n != "const"),
               default=0)


# --- the residual families, one column per usable period -------------------

def quasi_diff_residual(panel, p: ParamPoint) -> np.ndarray:
    """Quasi-differenced residuals, one column per period t >= 2.

    With the true parameters and no measurement error this equals the
    productivity innovation xi_t; at the pseudo-solution it equals
    -u_t / theta.
    """
    y, x = panel.y, panel.x
    return ((y[:, 1:] - p.rho * y[:, :-1]) - p.alpha * (1.0 - p.rho)
            - p.beta * (x[:, 1:] - p.rho * x[:, :-1]))


def double_diff_residual(panel, beta: float, rho: float) -> np.ndarray:
    """First difference of the quasi-difference (removes firm intercepts);
    one column per period t >= 3."""
    y, x = panel.y, panel.x
    dy = y[:, 1:] - rho * y[:, :-1]
    dx = x[:, 1:] - rho * x[:, :-1]
    return (dy[:, 1:] - dy[:, :-1]) - beta * (dx[:, 1:] - dx[:, :-1])


def multi_input_residual(panel, alpha: float, beta: float, gamma: float,
                         rho: float) -> np.ndarray:
    """Quasi-differenced residual with two endogenous regressors."""
    if panel.z is None:
        raise ValidationError("panel has no second input z",
                              field="panel")
    y, x, z = panel.y, panel.x, panel.z
    return ((y[:, 1:] - rho * y[:, :-1]) - alpha * (1.0 - rho)
            - beta * (x[:, 1:] - rho * x[:, :-1])
            - gamma * (z[:, 1:] - rho * z[:, :-1]))


def family_residual(panel, family, params):
    """Residual matrix plus the 0-based period of its first column."""
    if family == "quasi_diff":
        return quasi_diff_residual(panel, params), 1
    if family == "double_diff":
        return double_diff_residual(panel, *params), 2
    return multi_input_residual(panel, *params), 1


# --- the concentrated moments ----------------------------------------------
#
# The per-evaluation formulas the concentrated kernels used before they
# moved onto the cached cross-moments: each pools the raw lagged columns of
# the panel and takes every mean directly.

def oracle_beta(panel, beta_tilde):
    """(alpha, rho, moment, se) of the concentrated beta moment."""
    y, x = panel.y, panel.x
    y0, y1, y2 = y[:, 2:].ravel(), y[:, 1:-1].ravel(), y[:, :-2].ravel()
    x0, x1, x2 = x[:, 2:].ravel(), x[:, 1:-1].ravel(), x[:, :-2].ravel()
    n = y0.size
    w0 = y0 - beta_tilde * x0
    w1 = y1 - beta_tilde * x1
    w2 = y2 - beta_tilde * x2
    zx = np.array([[float(n), w1.sum()], [w2.sum(), w2 @ w1]])
    zy = np.array([w0.sum(), w2 @ w0])
    c, rho = _checked_inverse(zx) @ zy
    r = (y0 - rho * y1) - c - beta_tilde * (x0 - rho * x1)
    prod = x1 * r
    step1_resid = w0 - c - rho * w1
    b = np.array([x1.mean(), (x1 * w1).mean()])
    v = np.linalg.solve((zx / n).T, b)
    psi = prod - (v[0] + v[1] * w2) * step1_resid
    alpha = c / (1.0 - rho) if abs(1.0 - rho) > 1e-12 else np.nan
    return np.array([alpha, rho, prod.mean(), psi.std(ddof=1) / np.sqrt(n)])


def oracle_rho(panel, rho_tilde, family, solve, report):
    """(coefficients, moments, ses) of the rho-concentrated moments."""
    t_min = max(1, max_lag(solve + report))
    t_len = panel.spec.n_periods - t_min
    series = {"y": panel.y, "x": panel.x, "z": panel.z}

    def column(name):
        if name == "const":
            return np.ones(panel.spec.n_firms * t_len)
        kind, lag = name.split("_lag")
        lo = t_min - int(lag)
        return series[kind][:, lo:lo + t_len].ravel()

    def qd(kind):
        return column(f"{kind}_lag0") - rho_tilde * column(f"{kind}_lag1")

    n = panel.spec.n_firms * t_len
    X = [(1.0 - rho_tilde) * np.ones(n), qd("x")]
    if family == "multi_input":
        X.append(qd("z"))
    X = np.column_stack(X)
    Z = np.column_stack([column(nm) for nm in solve])
    dep = qd("y")
    coef = _checked_inverse(Z.T @ X) @ (Z.T @ dep)
    r = dep - X @ coef
    A = Z.T @ X / n
    moments, ses = [], []
    for name in report:
        col = column(name)
        prod = col * r
        moments.append(prod.mean())
        v = np.linalg.solve(A.T, X.T @ col / n)
        psi = prod - (Z @ v) * r
        ses.append(psi.std(ddof=1) / np.sqrt(n))
    return coef, np.array(moments), np.array(ses)


# --- the fits and moment reports on stacked designs ------------------------

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


def moment_stats(Z, r, weighting):
    """(m, objective, se): m = Z'r / n, objective m' W m with W the identity
    or the inverse uncentered outer-product, ddof-1 standard errors."""
    n = r.size
    zr = Z * r[:, None]
    m = zr.sum(axis=0) / n
    S = zr.T @ zr / n
    se = np.sqrt(np.clip(np.diag(S - np.outer(m, m)), 0.0, None) / (n - 1))
    if weighting == "identity":
        return m, float(m @ m), se
    try:
        return m, float(m @ np.linalg.solve(S, m)), se
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular outer-product") from exc


def stacked_gmm(panel, family, params, names, weighting):
    resid, offset = family_residual(panel, family, params)
    t_min = max(offset, max_lag(names))
    r = resid[:, t_min - offset:].ravel()
    Z = stacked_instruments(panel, names, t_min)
    return moment_stats(Z, r, weighting) + (r.size,)


# --- the level diagnostics -------------------------------------------------

def corrcoef_sign(panel, p):
    e = (panel.y - p.alpha - p.beta * panel.x).ravel()
    return float(np.corrcoef(panel.x.ravel(), e)[0, 1])


def two_pass_inequality(panel, p):
    prod = (panel.x * (panel.y - p.alpha - p.beta * panel.x)).ravel()
    return prod.mean(), prod.std(ddof=1) / np.sqrt(prod.size)
