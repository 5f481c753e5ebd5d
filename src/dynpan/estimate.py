"""Moment construction and instrumental-variable kernels.

Residual families
-----------------
quasi_diff    r_t = (y_t - rho y_{t-1}) - alpha (1 - rho)
                    - beta (x_t - rho x_{t-1}),              defined for t >= 2
double_diff   first difference of the quasi-difference, which removes firm
              intercepts:  (D_rho y_t - D_rho y_{t-1})
                    - beta (D_rho x_t - D_rho x_{t-1}),      defined for t >= 3
multi_input   quasi_diff with a second regressor z,          defined for t >= 2

Instruments are named columns: ``const`` or ``<series>_lag<k>`` with series
in {y, x, z} and k >= 0.  Everything is pooled across firms and usable
periods.  The timing convention throughout: the residual at period t may be
paired only with instruments dated t-1 or earlier, except that ``x_lag0``
is admissible when the input is chosen one period ahead.  ``y_lag1`` is
never used as an instrument because the residual contains the lagged
measurement error.

Sufficient statistics
---------------------
The concentrated kernels (:func:`beta_scan_evaluator`,
:func:`concentrate_rho`) never re-read the panel per evaluation.  Every
quantity they report is a product of two linear forms in the lagged columns
``const`` and ``<series>_lag<k>``, k = 0..L, so one blocked pass over the
panel accumulates the pooled second cross-moments of those columns and the
fourth cross-moments (the Gram matrix of their pairwise products), pooled
over periods t >= L.  The IV solve, the moment and its influence-function
standard error are then k x k and k^2 x k^2 algebra, k <= 10 for L = 2.
The result is cached on the (frozen, read-only) panel per L.  The pass
holds one block of about ``_BLOCK_ROWS`` rows and their pair products at a
time, never an n x k^2 matrix.  Columns are centered by their pooled mean
before accumulating, so the fourth-moment variances do not cancel; linear
forms in raw columns are mapped onto the centered ones.

Next to the cross-moments the panel caches one plan per rho-concentration
instrument set (family, solving and reported names): the parsed instrument
forms and the lag-0 and lag-1 forms of y, x and z, so an evaluation only
forms ``lag0 - rho * lag1``.  Each evaluation factors its rank-checked
cross-product once (one SVD gives the check, the coefficients and the
first-step correction) and takes the standard errors of all reported
moments from one quadratic form in the fourth moments.

Raw-data fits: :func:`two_sls` and its callers build each pooled design
once, column-major, straight from the (n_firms, n_periods) arrays, and form
Z'X and Z'Z from dot products of its contiguous columns, because OpenBLAS
takes 1.5-3x as long for a 3 x 3 GEMM over 120,000 rows as for its nine dots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import RankDeficiencyError, ValidationError
from .model import ParamPoint, ReducedFormParams

_SERIES = ("y", "x", "z")


def _parse_name(name: str):
    if name == "const":
        return ("const", 0)
    series, sep, lag = name.partition("_lag")
    if not sep or series not in _SERIES or not lag.isdigit():
        raise ValidationError(
            f"bad instrument name {name!r}; use 'const' or "
            "'<y|x|z>_lag<k>'", field="instruments")
    return (series, int(lag))


@dataclass(frozen=True)
class InstrumentSpec:
    """An ordered set of named instrument columns."""

    names: tuple[str, ...]

    def __post_init__(self):
        for name in self.names:
            _parse_name(name)

    @property
    def max_lag(self) -> int:
        return max((_parse_name(n)[1] for n in self.names if n != "const"),
                   default=0)

    def needs_z(self) -> bool:
        return any(_parse_name(n)[0] == "z" for n in self.names)


#: Instrument sets used by the moment families.
BENCHMARK_INSTRUMENTS = InstrumentSpec(("const", "x_lag1", "x_lag2", "y_lag2"))
FIXED_EFFECTS_INSTRUMENTS = InstrumentSpec(
    ("const", "x_lag2", "x_lag3", "y_lag3"))
PREDETERMINED_INSTRUMENTS = InstrumentSpec(
    ("const", "x_lag0", "x_lag1", "x_lag2", "y_lag2"))
CONCENTRATED_BETA_INSTRUMENTS = InstrumentSpec(("x_lag1",))
MULTI_INPUT_INSTRUMENTS = InstrumentSpec(
    ("const", "x_lag1", "z_lag1", "x_lag2", "y_lag2", "z_lag2"))

_FAMILY_DEFAULTS = {
    "quasi_diff": BENCHMARK_INSTRUMENTS,
    "double_diff": FIXED_EFFECTS_INSTRUMENTS,
    "multi_input": MULTI_INPUT_INSTRUMENTS,
}
def _series_map(panel):
    out = {"y": panel.y, "x": panel.x}
    if panel.z is not None:
        out["z"] = panel.z
    return out


def _design(panel, names, t_min: int) -> np.ndarray:
    """Pooled columns ``names`` over periods t >= t_min, column-major: each
    column is written once, straight from its (n_firms, n_periods) series."""
    series = _series_map(panel)
    n_firms, t_len = panel.y.shape[0], panel.spec.n_periods - t_min
    out = np.empty((n_firms * t_len, len(names)), order="F")
    for j, (kind, lag) in enumerate(map(_parse_name, names)):
        if kind != "const" and kind not in series:
            raise ValidationError(f"panel has no series {kind!r}",
                                  field="instruments")
        lo = t_min - lag
        out[:, j].reshape(n_firms, t_len)[...] = (
            1.0 if kind == "const" else series[kind][:, lo:lo + t_len])
    return out


def instrument_matrix(panel, spec: InstrumentSpec, t_min: int) -> np.ndarray:
    """Stacked instrument columns for residuals starting at period t_min
    (0-based)."""
    if spec.max_lag > t_min:
        raise ValidationError(
            f"instrument lag {spec.max_lag} exceeds the first usable "
            f"period {t_min}; increase n_periods", field="instruments")
    return _design(panel, spec.names, t_min)


@dataclass
class IvFit:
    """Just-identified IV fit with retained cross-products for diagnostics."""

    coefficients: np.ndarray
    residuals: np.ndarray
    n_obs: int
    zx: np.ndarray     # instruments' cross-product with regressors
    zz: np.ndarray     # instruments' Gram matrix
    names: tuple[str, ...] = ()

    def std_errors(self) -> np.ndarray:
        """Large-sample homoskedastic IV standard errors (diagnostic only)."""
        sigma2 = float(self.residuals @ self.residuals) / self.n_obs
        zxi = np.linalg.inv(self.zx)
        cov = sigma2 * zxi @ self.zz @ zxi.T
        return np.sqrt(np.diag(cov))


def _checked_inverse(zx: np.ndarray) -> np.ndarray:
    """Inverse of a square cross-product zx, after verifying that zx is
    numerically full rank.

    The pivots judged are the singular values of zx with its columns scaled
    to unit length, so a change of data units in a regressor cannot make a
    well-posed system look singular.  The inverse is read off the same SVD,
    zx diag(1/d) = u diag(s) vt with d the column norms, so one
    factorisation serves every solve with zx or its transpose.
    """
    d = np.sqrt((zx * zx).sum(axis=0))
    d[d == 0.0] = 1.0
    u, pivots, vt = np.linalg.svd(zx / d)
    smallest = pivots[-1] if pivots.size else 0.0
    if smallest <= 1e-10 * max(pivots[0] if pivots.size else 0.0, 1.0):
        raise RankDeficiencyError(
            f"singular instrument-regressor cross-product; smallest pivot "
            f"{smallest:.3e}", smallest_pivot=smallest)
    return (vt.T / pivots) @ u.T / d[:, None]


def _checked_solve(zx: np.ndarray, zy: np.ndarray) -> np.ndarray:
    """Solve zx @ coef = zy after verifying zx is numerically full rank."""
    return _checked_inverse(zx) @ zy


def _columns(a) -> np.ndarray:
    """A float input as an F-ordered matrix; a 1-D input is one column."""
    a = np.asarray(a, dtype=float)
    return np.asfortranarray(a[:, None] if a.ndim == 1 else a)


def _cross(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A'B from dot products of the contiguous columns of F-ordered A, B."""
    return np.array([[a @ b for b in B.T] for a in A.T], ndmin=2)


def two_sls(dep: np.ndarray, regressors: np.ndarray,
            instruments: np.ndarray, names: Sequence[str] = ()) -> IvFit:
    """Just-identified IV: coefficients = (Z'X)^{-1} Z'y.

    Requires as many instruments as regressors (a 1-D input is one column)
    and equal rows in ``dep``, the regressors and the instruments; a
    numerically singular Z'X raises :class:`RankDeficiencyError` naming the
    smallest pivot.
    """
    y, X = _columns(dep), _columns(regressors)
    Z = X if instruments is regressors else _columns(instruments)
    if X.ndim != 2 or X.shape != Z.shape or y.shape != (X.shape[0], 1):
        raise ValidationError(
            f"need a just-identified system: instruments {Z.shape} vs "
            f"regressors {X.shape}, one dependent column {y.shape} and "
            "equal rows", field="instruments")
    zx = _cross(Z, X)
    coef = _checked_solve(zx, Z.T @ y[:, 0])
    return IvFit(coefficients=coef, residuals=y[:, 0] - X @ coef,
                 n_obs=y.shape[0], zx=zx,
                 zz=zx.copy() if Z is X else _cross(Z, Z), names=tuple(names))


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


def _family_residual(panel, family: str, params) -> tuple[np.ndarray, int]:
    """Residual matrix plus the 0-based period of its first column."""
    if family == "quasi_diff":
        if not isinstance(params, ParamPoint):
            params = ParamPoint(*params)
        return quasi_diff_residual(panel, params), 1
    if family == "double_diff":
        beta, rho = params
        return double_diff_residual(panel, beta, rho), 2
    if family == "multi_input":
        alpha, beta, gamma, rho = params
        return multi_input_residual(panel, alpha, beta, gamma, rho), 1
    raise ValidationError(f"unknown moment family {family!r}", field="family")


@dataclass
class MomentReport:
    """Sample moments, their quadratic-form objective, and scale info."""

    names: tuple[str, ...]
    moments: np.ndarray
    objective: float
    weighting: str
    n_obs: int
    std_errors: np.ndarray

    @property
    def t_stats(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.moments / self.std_errors


def moment_stats(Z: np.ndarray, r: np.ndarray, weighting: str = "identity"):
    """Sample moments of instrument-residual products.

    Returns (m, objective, se) with m = Z'r / n and objective = m' W m,
    where W is the identity or the inverse of the uncentered outer-product
    of the per-observation moments (invariant to rescaling columns of Z).
    """
    n = r.size
    zr = Z * r[:, None]
    m = zr.sum(axis=0) / n
    S = zr.T @ zr / n
    centered = S - np.outer(m, m)
    se = np.sqrt(np.clip(np.diag(centered), 0.0, None) / n)
    if weighting == "identity":
        objective = float(m @ m)
    else:
        try:
            objective = float(m @ np.linalg.solve(S, m))
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                "moment outer-product is singular; two-step weighting "
                "unavailable") from exc
    return m, objective, se


def gmm_objective(panel, family: str, params,
                  instruments: Optional[InstrumentSpec] = None,
                  weighting: str = "identity") -> MomentReport:
    """Evaluate m = (1/n) sum z_t r_t and the objective m' W m.

    ``weighting`` is ``identity`` or ``two_step``; the two-step weight is
    the inverse of the moment outer-product at the evaluated point, which
    makes the objective invariant to rescaling instrument columns.
    """
    if weighting not in ("identity", "two_step"):
        raise ValidationError("weighting must be identity or two_step",
                              field="weighting")
    spec = instruments if instruments is not None else _FAMILY_DEFAULTS[family]
    resid, offset = _family_residual(panel, family, params)
    t_min = max(offset, spec.max_lag)
    if t_min >= panel.spec.n_periods:
        raise ValidationError(
            "not enough periods for the requested instrument lags",
            field="n_periods")
    r = resid[:, t_min - offset:].ravel()
    Z = instrument_matrix(panel, spec, t_min)
    m, objective, se = moment_stats(Z, r, weighting)
    return MomentReport(names=spec.names, moments=m, objective=objective,
                        weighting=weighting, n_obs=r.size, std_errors=se)


def fit_reduced_form(panel):
    """IV fit of y_t and x_t on (1, y_{t-1}, x_{t-1}).

    The lagged output is instrumented by its second lag because the
    projection errors contain the period t-1 measurement error; x_{t-1}
    instruments itself.  Pools all firms and periods t >= 3.  Returns
    (ReducedFormParams, y-equation fit, x-equation fit).
    """
    if panel.spec.n_periods < 3:
        raise ValidationError("reduced form needs at least 3 periods",
                              field="n_periods")
    names = ("const", "y_lag1", "x_lag1")
    D = _design(panel, ("y_lag0", "x_lag0") + names, 2)
    Z = _design(panel, ("const", "y_lag2", "x_lag1"), 2)
    fit_y = two_sls(D[:, 0], D[:, 2:], Z, names=names)
    fit_x = two_sls(D[:, 1], D[:, 2:], Z, names=names)
    params = ReducedFormParams(
        pi_y0=fit_y.coefficients[0], pi_yy=fit_y.coefficients[1],
        pi_yx=fit_y.coefficients[2], pi_x0=fit_x.coefficients[0],
        pi_xy=fit_x.coefficients[1], pi_xx=fit_x.coefficients[2])
    return params, fit_y, fit_x


#: Pooled rows per accumulation block; with k = 10 columns the block and its
#: 55 pair products take about 4 MB.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class _CrossMoments:
    """Pooled cross-moments of the lagged columns of one panel.

    A linear form is a coefficient vector over the centered columns
    (``const`` first); :meth:`column` gives the form of one raw column.
    ``second`` is E[d d'] for the centered columns d, and ``fourth`` is
    E[q q'] for their k^2 ordered products q = vec(d d'), so the variance of
    (a'd)(b'd) is a quadratic form in vec(a b').
    """

    index: dict
    n: int
    basis: np.ndarray      # column j: the centered form of raw column j
    second: np.ndarray
    fourth: np.ndarray

    def column(self, name: str) -> np.ndarray:
        if name not in self.index:
            raise ValidationError(
                f"panel has no series {_parse_name(name)[0]!r}",
                field="instruments")
        return self.basis[:, self.index[name]]

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """E[(a'd)(b'd)]; columns of matrix arguments are separate forms."""
        return a.T @ self.second @ b

    def ses(self, a: np.ndarray, b: np.ndarray,
            means: np.ndarray) -> np.ndarray:
        """Standard errors of the means of (a_j'd)(b'd), one per column a_j
        of ``a``, given those means: each product's sample standard
        deviation (ddof 1) over sqrt(n), all from one quadratic form in the
        fourth moments."""
        if self.n <= 1:
            return np.full(a.shape[1], np.nan)
        w = np.multiply.outer(b, a).reshape(b.size * a.shape[0], -1)
        var = (w.T @ self.fourth @ w).diagonal() - means * means
        return np.sqrt(np.maximum(var, 0.0) / (self.n - 1))


def _accumulate_moments(panel, lags: int) -> _CrossMoments:
    """One blocked pass over the panel; periods t >= ``lags``."""
    t_len = panel.spec.n_periods - lags
    names, sources = ["const"], []
    for series, arr in _series_map(panel).items():
        for lag in range(lags + 1):
            names.append(f"{series}_lag{lag}")
            sources.append(arr[:, lags - lag:arr.shape[1] - lag])
    k = len(names)
    means = [float(src.mean()) for src in sources]
    rows, cols = np.triu_indices(k)
    fourth = np.zeros((rows.size, rows.size))
    n_firms = sources[0].shape[0]
    step = max(1, _BLOCK_ROWS // t_len)
    for lo in range(0, n_firms, step):
        hi = min(lo + step, n_firms)
        # the pairs (0, j) come first and column 0 is the constant 1, so
        # rows 0..k-1 of the pair products are the centered columns d, and
        # E[d d'] is the leading k x k block of E[p p']
        p = np.empty((rows.size, (hi - lo) * t_len))
        p[0] = 1.0
        for j, (src, mean) in enumerate(zip(sources, means), start=1):
            np.subtract(src[lo:hi], mean, out=p[j].reshape(hi - lo, t_len))
        start = k
        for i in range(1, k):
            np.multiply(p[i], p[i:k], out=p[start:start + k - i])
            start += k - i
        fourth += p @ p.T
    n = n_firms * t_len
    fourth /= n
    # spread the i <= j pairs over all k^2 ordered products
    pair = np.empty((k, k), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    ordered = pair.ravel()
    basis = np.eye(k)
    basis[0, 1:] = means
    return _CrossMoments(
        index={name: j for j, name in enumerate(names)}, n=n, basis=basis,
        second=fourth[:k, :k].copy(), fourth=fourth[np.ix_(ordered, ordered)])


def _cross_moments(panel, lags: int) -> _CrossMoments:
    """The panel's cross-moments at lag depth ``lags``, computed once."""
    cache = panel._moment_cache
    if lags not in cache:
        cache[lags] = _accumulate_moments(panel, lags)
    return cache[lags]


def _iv_block(mom: _CrossMoments, F, ZR, n_solve: int):
    """Just-identified IV of the form ``F[:, 0]`` on the forms ``F[:, 1:]``
    with the instruments ``ZR[:, :n_solve]``, then the moment of each
    remaining form of ``ZR`` against the residual with influence-function
    standard errors.

    The standard error carries the first-step noise: the influence function
    of E[c r] is (c - Z v) r with v = A'^{-1} E[X c] and A = E[Z X'], and
    its mean is E[c r] because E[Z r] = 0.  One rank-checked factorisation
    of A serves both solves.  Returns (coefficients, moments, standard
    errors).
    """
    G = mom.cross(ZR, F)
    inverse = _checked_inverse(G[:n_solve, 1:])
    coef = inverse @ G[:n_solve, 0]
    moments = G[n_solve:, 0] - G[n_solve:, 1:] @ coef
    V = inverse.T @ G[n_solve:, 1:].T
    r = F[:, 0] - F[:, 1:] @ coef
    adjusted = ZR[:, n_solve:] - ZR[:, :n_solve] @ V
    return coef, moments, mom.ses(adjusted, r, moments)


@dataclass
class ConcentratedBeta:
    """Result of concentrating (alpha, rho) out of the moment at a fixed
    candidate slope."""

    beta: float
    alpha: float
    rho: float
    moment: float
    moment_se: float
    n_obs: int


def beta_scan_evaluator(panel):
    """Callable evaluating the concentrated moment at candidate slopes.

    The panel's cross-moments are accumulated once (see the module
    docstring), so repeated calls (a grid scan plus bisection refinements)
    cost small dense algebra, not a pass over the panel.
    """
    mom = _cross_moments(panel, 2)
    zero = np.zeros(mom.second.shape[0])

    def forms(*names):
        return np.column_stack([zero if nm is None else mom.column(nm)
                                for nm in names])

    # w = y - beta x at lags 0..2; the regression (w0 on const, w1 | the
    # instruments const, w2 | the reported x1) is level - beta * slope
    level = forms("y_lag0", "const", "y_lag1", "const", "y_lag2", "x_lag1")
    slope = forms("x_lag0", None, "x_lag1", None, "x_lag2", None)

    def evaluate(beta_tilde: float) -> ConcentratedBeta:
        W = level - beta_tilde * slope
        (c, rho), moment, se = _iv_block(mom, W[:, :3], W[:, 3:], 2)
        alpha = c / (1.0 - rho) if abs(1.0 - rho) > 1e-12 else float("nan")
        return ConcentratedBeta(beta=beta_tilde, alpha=float(alpha),
                                rho=float(rho), moment=float(moment[0]),
                                moment_se=float(se[0]), n_obs=mom.n)

    return evaluate


def concentrate_beta(panel, beta_tilde: float) -> ConcentratedBeta:
    """Concentrated single-instrument moment at a candidate slope.

    Step 1 forms w_t = y_t - beta_tilde x_t and fits
    w_t = alpha (1 - rho) + rho w_{t-1} by IV, instrumenting w_{t-1} with
    w_{t-2}.  Step 2 evaluates the quasi-differenced residual at
    (alpha_hat, beta_tilde, rho_hat) against the single instrument x_{t-1}.
    Both steps pool periods t >= 3.
    """
    return beta_scan_evaluator(panel)(beta_tilde)


@dataclass
class ConcentratedRho:
    """Linear coefficients solved at a fixed candidate persistence, plus the
    remaining over-identifying moments."""

    rho: float
    coefficients: dict
    moment_names: tuple[str, ...]
    moments: np.ndarray
    moment_ses: np.ndarray
    n_obs: int


@dataclass(frozen=True)
class _RhoPlan:
    """What :func:`concentrate_rho` needs of one panel and instrument set,
    as forms over the panel's cross-moments.

    Column j of ``lag0 - rho * lag1`` is the rho quasi-difference of
    (y, const, x[, z])[j]; the constant is its own lag, so its difference
    is (1 - rho) * const.  ``instruments`` holds the solving instruments,
    then the reported ones.
    """

    mom: _CrossMoments
    coef_names: tuple
    report_names: tuple
    lag0: np.ndarray
    lag1: np.ndarray
    instruments: np.ndarray


def _rho_plan(panel, family, solve, report) -> _RhoPlan:
    """The panel's plan for one (family, solve, report) set, built on first
    use; a set that fails validation is not cached, so it raises on every
    call."""
    if family not in ("quasi_diff", "multi_input"):
        raise ValidationError(
            "rho concentration supports quasi_diff or multi_input",
            field="family")
    if family == "multi_input" and panel.z is None:
        raise ValidationError("panel has no second input z", field="panel")
    if solve is None:
        solve = ("const", "x_lag1") if family == "quasi_diff" \
            else ("const", "x_lag1", "z_lag1")
    if report is None:
        report = ("x_lag2", "y_lag2") if family == "quasi_diff" \
            else ("x_lag2", "y_lag2", "z_lag2")
    key = ("rho", family, tuple(solve), tuple(report))
    if key in panel._moment_cache:
        return panel._moment_cache[key]
    solve, report = key[2:]
    t_min = max(1, InstrumentSpec(solve + report).max_lag)
    if t_min >= panel.spec.n_periods:
        raise ValidationError(
            "not enough periods for the requested instrument lags",
            field="n_periods")
    mom = _cross_moments(panel, t_min)
    inputs = ("x", "z") if family == "multi_input" else ("x",)
    coef_names = ("alpha", "beta", "gamma")[:1 + len(inputs)]
    if len(solve) != len(coef_names):
        raise ValidationError(
            f"need {len(coef_names)} solving instruments, got {len(solve)}",
            field="solve_instruments")

    def forms(names):
        return np.column_stack([mom.column(nm) for nm in names])

    def lagged(lag):
        return forms([f"y_lag{lag}", "const"]
                     + [f"{s}_lag{lag}" for s in inputs])

    plan = panel._moment_cache[key] = _RhoPlan(
        mom=mom, coef_names=coef_names, report_names=report,
        lag0=lagged(0), lag1=lagged(1), instruments=forms(solve + report))
    return plan


def concentrate_rho(panel, rho_tilde: float, family: str = "quasi_diff",
                    solve_instruments: Optional[tuple] = None,
                    report_instruments: Optional[tuple] = None,
                    ) -> ConcentratedRho:
    """Solve the intercept and slopes by just-identified IV at a fixed rho,
    then report the left-over moments.

    The moment is linear in (alpha, beta[, gamma]) once rho is fixed, so a
    just-identified subset ({1, x_{t-1}} plus {z_{t-1}} with a second input)
    pins the linear block; the lag-2 instruments are then free to move away
    from zero except at the true persistence and at each market-factor
    persistence.  Pass explicit instrument-name tuples to override either
    the solving subset or the reported moments.
    """
    plan = _rho_plan(panel, family, solve_instruments, report_instruments)
    coef, moments, ses = _iv_block(
        plan.mom, plan.lag0 - rho_tilde * plan.lag1, plan.instruments,
        len(plan.coef_names))
    return ConcentratedRho(
        rho=rho_tilde,
        coefficients=dict(zip(plan.coef_names, (float(v) for v in coef))),
        moment_names=plan.report_names, moments=moments, moment_ses=ses,
        n_obs=plan.mom.n)


def _fmt(value) -> str:
    """The float format of every CSV the package writes: the shortest
    decimal that round-trips the double."""
    return repr(float(value))


def write_moment_report_csv(report: MomentReport, path) -> None:
    """name,value rows; moments labeled by instrument name."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,value\n")
        for name, m in zip(report.names, report.moments):
            fh.write(f"moment[{name}],{_fmt(m)}\n")
        for name, s in zip(report.names, report.std_errors):
            fh.write(f"se[{name}],{_fmt(s)}\n")
        fh.write(f"objective,{_fmt(report.objective)}\n")
        fh.write(f"weighting,{report.weighting}\n")
        fh.write(f"n_obs,{report.n_obs}\n")


def write_iv_fit_csv(fit: IvFit, path) -> None:
    """name,value rows for coefficients and their standard errors."""
    names = fit.names or tuple(
        f"coef{i}" for i in range(len(fit.coefficients)))
    ses = fit.std_errors()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,value\n")
        for name, c in zip(names, fit.coefficients):
            fh.write(f"coef[{name}],{_fmt(c)}\n")
        for name, s in zip(names, ses):
            fh.write(f"se[{name}],{_fmt(s)}\n")
        fh.write(f"n_obs,{fit.n_obs}\n")
