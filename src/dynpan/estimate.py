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
Every estimator and diagnostic reads the panel only through its cached
cross-moments: every quantity they report is a product of two linear forms
in the lagged columns ``const`` and ``<series>_lag<k>``, k = 0..L, pooled
over periods t >= L.  The panel caches one period Gram, the second moments
over firms of its (series, period) columns with each series centered by its
overall mean, accumulated in firm blocks.  The window means and pooled
second moments of every lag depth are averages along its diagonals, so an
IV fit such as :func:`two_sls` is k x k algebra.  The fourth cross-moments
(the Gram matrix of the pairwise products of the columns, centered by their
pooled means so that the variances do not cancel), which the
influence-function standard errors need, take one blocked pass per lag
depth on first use.  It holds about ``_BLOCK_ROWS`` rows and their pair
products at a time, never an n x k^2 matrix.

A pass with at least ``_SPLIT_ROWS`` = 28 pair products (k >= 7 columns,
which every scan and warm-start depth has) splits its firm blocks into two
contiguous runs: the calling thread runs the first and one worker of the
package's thread pool (``simulate._pool``) the second, each on a block
buffer of its own.  If no worker has started the second run, the caller
takes it back (``Future.cancel``) and runs it itself, so a busy pool or a
caller on a pool thread never waits forever.  Each block's Gram is written
to a slot of its own, and the slots are added into ``fourth`` in block
order whichever thread computed them, so the fourth moments and every
standard error have the same bits on any number of threads.  The level
diagnostics' L = 0 pass (6 pair products for a y/x panel) and the period
Gram (a 10-row SYRK) stay serial: products that small ran no faster two
at a time.

Both concentration axes share one plan: the forms of a just-identified IV
and its reported instruments, linear in the held slope or persistence t
(``base - t * slope``).  The panel caches one rho plan per instrument set
(family, solving and reported names) next to the cross-moments, and a beta
evaluator holds its own.  Each evaluation factors its rank-checked
cross-product once (one SVD gives the check, the coefficients and the
first-step correction) and takes the standard errors of all reported
moments from one quadratic form in the fourth moments.

Each GMM residual is such a form: ``_lagged_forms`` (shared with the rho
plans) gives (y, const, x[, z]) at one lag, and a quasi-difference is lag 0
minus rho times lag 1.  The level diagnostics share the all-period depth
(L = 0) of a panel, the reduced form and the AR-order test depth 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import RankDeficiencyError, ValidationError
from .model import ParamPoint, ReducedFormParams
from .simulate import _pool

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


@dataclass
class IvFit:
    """Just-identified IV fit on named panel columns."""

    coefficients: np.ndarray
    std_errors: np.ndarray  # large-sample homoskedastic (diagnostic only)
    n_obs: int
    names: tuple[str, ...]


def _checked_inverse(zx: np.ndarray) -> np.ndarray:
    """Inverse of a square cross-product zx, after verifying that zx is
    numerically full rank.

    The pivots judged are the singular values of zx with its columns, then
    its rows, scaled to unit length, so a change of data units in a
    regressor or an instrument cannot make a well-posed system look
    singular.  The inverse is read off the same SVD, diag(1/e) zx diag(1/d)
    = u diag(s) vt with d the column and e the row norms, so one
    factorisation serves every solve with zx or its transpose.
    """
    d = np.sqrt((zx * zx).sum(axis=0))
    d[d == 0.0] = 1.0
    e = np.sqrt(((zx / d) ** 2).sum(axis=1))
    e[e == 0.0] = 1.0
    u, pivots, vt = np.linalg.svd(zx / d / e[:, None])
    smallest = pivots[-1] if pivots.size else 0.0
    if smallest <= 1e-10 * max(pivots[0] if pivots.size else 0.0, 1.0):
        raise RankDeficiencyError(
            f"singular instrument-regressor cross-product; smallest pivot "
            f"{smallest:.3e}", smallest_pivot=smallest)
    return (vt.T / pivots) @ u.T / d[:, None] / e


def two_sls(panel, dep: str, regressors: Sequence[str],
            instruments: Sequence[str]) -> IvFit:
    """Just-identified IV on named panel columns: coefficients =
    E[Z X']^{-1} E[Z y], pooled over the periods t >= L, L the largest lag
    named; for example ``two_sls(panel, "x_lag0", ("const", "x_lag1"),
    ("const", "x_lag2"))``.

    Reads the panel only through its cached cross-moments.  Needs as many
    instruments as regressors; a numerically singular E[Z X'] raises
    :class:`RankDeficiencyError` naming the smallest pivot.
    """
    for field, names in (("regressors", regressors),
                         ("instruments", instruments)):
        if isinstance(names, str):
            raise ValidationError(f"{field} must be a sequence of names, "
                                  f"not the string {names!r}", field=field)
    regressors, instruments = tuple(regressors), tuple(instruments)
    if not regressors or len(regressors) != len(instruments):
        raise ValidationError(
            f"need a just-identified system: {len(instruments)} instruments "
            f"for {len(regressors)} regressors", field="instruments")
    mom = _moments_from(panel, 0,
                        InstrumentSpec((dep,) + regressors + instruments))
    y, X, Z = mom.column(dep), mom.forms(regressors), mom.forms(instruments)
    inverse = _checked_inverse(mom.cross(Z, X))
    coef = inverse @ mom.cross(Z, y)
    r = y - X @ coef
    cov = mom.cross(r, r) * inverse @ mom.cross(Z, Z) @ inverse.T
    return IvFit(coefficients=coef, std_errors=np.sqrt(cov.diagonal() / mom.n),
                 n_obs=mom.n, names=regressors)


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


def fit_reduced_form(panel):
    """IV fit of y_t and x_t on (1, y_{t-1}, x_{t-1}).

    The lagged output is instrumented by its second lag because the
    projection errors contain the period t-1 measurement error; x_{t-1}
    instruments itself.  Pools all firms and periods t >= 3.  Returns
    (ReducedFormParams, y-equation fit, x-equation fit).
    """
    names = ("const", "y_lag1", "x_lag1")
    instruments = ("const", "y_lag2", "x_lag1")
    fit_y = two_sls(panel, "y_lag0", names, instruments)
    fit_x = two_sls(panel, "x_lag0", names, instruments)
    params = ReducedFormParams(
        pi_y0=fit_y.coefficients[0], pi_yy=fit_y.coefficients[1],
        pi_yx=fit_y.coefficients[2], pi_x0=fit_x.coefficients[0],
        pi_xy=fit_x.coefficients[1], pi_xx=fit_x.coefficients[2])
    return params, fit_y, fit_x


#: Pooled rows per accumulation block; with k = 10 columns the block and its
#: 55 pair products take about 4 MB.
_BLOCK_ROWS = 8192
#: Pair products (k = 7 columns) from which a pair pass splits its blocks
#: over two threads; the 6-, 10- and 15-row passes ran slower split.
_SPLIT_ROWS = 28


@dataclass(frozen=True)
class _CrossMoments:
    """Pooled cross-moments of the lagged columns of one panel.

    A linear form is a coefficient vector over the centered columns
    (``const`` first); :meth:`column` gives the form of one raw column.
    ``second`` is E[d d'] for the centered columns d, and ``fourth`` is
    E[q q'] for their k^2 ordered products q = vec(d d'), so the variance of
    (a'd)(b'd) is a quadratic form in vec(a b').  ``pair_pass`` computes
    ``fourth`` on first use.
    """

    index: dict
    n: int
    basis: np.ndarray      # column j: the centered form of raw column j
    second: np.ndarray
    pair_pass: Callable[[], np.ndarray]

    @cached_property
    def fourth(self) -> np.ndarray:
        return self.pair_pass()

    def column(self, name: str) -> np.ndarray:
        if name not in self.index:
            raise ValidationError(
                f"panel has no series {_parse_name(name)[0]!r}",
                field="instruments")
        return self.basis[:, self.index[name]]

    def forms(self, names) -> np.ndarray:
        """The forms of the raw columns ``names``, one column each."""
        return np.column_stack([self.column(nm) for nm in names])

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """E[(a'd)(b'd)]; columns of matrix arguments are separate forms."""
        return a.T @ self.second @ b

    def product_moments(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """E[(a_i'd)(b'd)(a_j'd)(b'd)] over the columns a_i, a_j of ``a``:
        the uncentered second moments of the products with the form b, one
        quadratic form in the fourth moments."""
        w = np.multiply.outer(b, a).reshape(b.size * a.shape[0], -1)
        return w.T @ self.fourth @ w

    def ses(self, a: np.ndarray, b: np.ndarray,
            means: np.ndarray) -> np.ndarray:
        """Standard errors of the means of (a_j'd)(b'd), one per column a_j
        of ``a``, given those means: each product's sample standard
        deviation (ddof 1) over sqrt(n)."""
        if self.n <= 1:
            return np.full(a.shape[1], np.nan)
        var = self.product_moments(a, b).diagonal() - means * means
        return np.sqrt(np.maximum(var, 0.0) / (self.n - 1))


def _period_gram(panel):
    """(m, G, s) for the panel's (series, period) columns c, each series
    centered by its overall mean m: G = E[c c'] and s = E[c] over firms.
    One pass in firm blocks, cached on the panel."""
    cache = panel._moment_cache
    if "gram" not in cache:
        arrays = list(_series_map(panel).values())
        n_firms = arrays[0].shape[0]
        means = np.array([a.mean() for a in arrays])
        width = sum(a.shape[1] for a in arrays)
        gram, sums = np.zeros((width, width)), np.zeros(width)
        block = np.empty((width, min(_BLOCK_ROWS, n_firms)))
        for lo in range(0, n_firms, _BLOCK_ROWS):
            b = block[:, :min(_BLOCK_ROWS, n_firms - lo)]
            for arr, mean, rows in zip(arrays, means,
                                       np.split(b, len(arrays))):
                np.subtract(arr[lo:lo + b.shape[1]].T, mean, out=rows)
            gram += b @ b.T
            sums += b.sum(axis=1)
        cache["gram"] = (means, gram / n_firms, sums / n_firms)
    return cache["gram"]


def _accumulate_moments(panel, lags: int) -> _CrossMoments:
    """The cross-moments of ``const`` and each series at lags 0..``lags``,
    pooled over periods t >= ``lags``, read off the period Gram: a window
    mean and a pooled second moment are averages along its diagonals."""
    means, gram, shift = _period_gram(panel)
    n_periods = panel.spec.n_periods
    names, sources, cols = ["const"], [], []
    for s, (series, arr) in enumerate(_series_map(panel).items()):
        for lag in range(lags + 1):
            names.append(f"{series}_lag{lag}")
            sources.append(arr[:, lags - lag:n_periods - lag])
            # the Gram columns of this lagged column, one per pooled period
            cols.append(range(s * n_periods + lags - lag,
                              (s + 1) * n_periods - lag))
    cols = np.array(cols)
    offset = shift[cols].mean(axis=1)  # window mean minus overall mean
    k = len(names)
    second = np.eye(k)  # the constant and its zero cross-moments
    second[1:, 1:] = (gram[cols[:, None], cols[None, :]].mean(axis=2)
                      - np.outer(offset, offset))
    basis = np.eye(k)
    basis[0, 1:] = np.repeat(means, lags + 1) + offset
    return _CrossMoments(
        index={name: j for j, name in enumerate(names)},
        n=sources[0].size, basis=basis, second=second,
        pair_pass=partial(_pair_moments, sources, basis[0, 1:]))


def _pair_grams(sources, means, bounds, grams) -> None:
    """For each firm block (lo, hi) of ``bounds``: center its columns d =
    (1, sources - means), form the products of the i <= j pairs, and write
    their Gram p p' to the matching ``grams`` slice.  The block buffer is
    this call's own, so two calls can run at once."""
    k = len(sources) + 1
    t_len = sources[0].shape[1]
    width = max(hi - lo for lo, hi in bounds) * t_len
    block = np.empty((grams.shape[1], width))
    for (lo, hi), gram in zip(bounds, grams):
        # the pairs (0, j) come first and column 0 is the constant 1, so
        # rows 0..k-1 of the pair products are the centered columns d
        p = block[:, :(hi - lo) * t_len]
        p[0] = 1.0
        for j, (src, mean) in enumerate(zip(sources, means), start=1):
            np.subtract(src[lo:hi], mean, out=p[j].reshape(hi - lo, t_len))
        start = k
        for i in range(1, k):
            np.multiply(p[i], p[i:k], out=p[start:start + k - i])
            start += k - i
        np.matmul(p, p.T, out=gram)


def _pair_moments(sources, means) -> np.ndarray:
    """E[q q'] for the ordered products q = vec(d d') of the centered
    columns d = (1, sources - means): one blocked pass over the products of
    the i <= j pairs, spread over all k^2 ordered pairs.  With at least
    ``_SPLIT_ROWS`` pair products the second half of the blocks runs on a
    worker of the package's thread pool (see the module docstring)."""
    k = len(sources) + 1
    n_firms, t_len = sources[0].shape
    rows, cols = np.triu_indices(k)
    step = max(1, _BLOCK_ROWS // t_len)
    bounds = [(lo, min(lo + step, n_firms)) for lo in range(0, n_firms, step)]
    grams = np.empty((len(bounds), rows.size, rows.size))
    split = (len(bounds) + 1) // 2 if rows.size >= _SPLIT_ROWS else len(bounds)
    rest = (sources, means, bounds[split:], grams[split:])
    tail = _pool().submit(_pair_grams, *rest) if bounds[split:] else None
    _pair_grams(sources, means, bounds[:split], grams[:split])
    if tail is not None:
        if tail.cancel():
            # no worker had started it: the pool is busy, or this thread is
            # one of its workers, so waiting for it might never end
            _pair_grams(*rest)
        else:
            tail.result()
    fourth = np.zeros((rows.size, rows.size))
    for gram in grams:  # in block order, whichever thread computed it
        fourth += gram
    fourth /= n_firms * t_len
    pair = np.empty((k, k), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    return fourth[np.ix_(pair.ravel(), pair.ravel())]


def _cross_moments(panel, lags: int) -> _CrossMoments:
    """The panel's cross-moments at lag depth ``lags``, computed once."""
    cache = panel._moment_cache
    if lags not in cache:
        cache[lags] = _accumulate_moments(panel, lags)
    return cache[lags]


@dataclass
class Concentrated:
    """One concentrated evaluation: the coefficients solved at the held
    value ``at`` of the scanned axis (a slope or a persistence), and the
    remaining moments with their influence-function standard errors."""

    at: float
    coefficients: dict
    moment_names: tuple[str, ...]
    moments: np.ndarray
    moment_ses: np.ndarray
    n_obs: int


@dataclass(frozen=True)
class _Plan:
    """A concentration as forms over a panel's cross-moments, linear in the
    held value t (``base - t * slope``): the dependent form, one form and one
    solving instrument per coefficient, then the reported instruments."""

    mom: _CrossMoments
    base: np.ndarray
    slope: np.ndarray
    coef_names: tuple
    moment_names: tuple

    def at(self, t: float) -> Concentrated:
        """IV of the dependent form on the coefficient forms at t, then the
        reported moments against its residual.  Their standard errors carry
        the first-step noise: the influence function of E[c r] is (c - Z v) r
        with v = A'^{-1} E[X c] and A = E[Z X'] (mean E[c r], as E[Z r] = 0);
        one rank-checked factorisation of A serves both solves."""
        n = len(self.coef_names)
        W = self.base - t * self.slope
        F, ZR = W[:, :n + 1], W[:, n + 1:]
        G = self.mom.cross(ZR, F)
        inverse = _checked_inverse(G[:n, 1:])
        coef = inverse @ G[:n, 0]
        moments = G[n:, 0] - G[n:, 1:] @ coef
        V = inverse.T @ G[n:, 1:].T
        r = F[:, 0] - F[:, 1:] @ coef
        adjusted = ZR[:, n:] - ZR[:, :n] @ V
        return Concentrated(
            at=t, coefficients=dict(zip(self.coef_names, map(float, coef))),
            moment_names=self.moment_names, moments=moments,
            moment_ses=self.mom.ses(adjusted, r, moments), n_obs=self.mom.n)


def beta_scan_evaluator(panel):
    """Callable giving the :class:`Concentrated` single-instrument moment
    at a candidate slope, with coefficients ``alpha`` and ``rho``.

    At a candidate beta_tilde, step 1 forms w_t = y_t - beta_tilde x_t and
    fits w_t = alpha (1 - rho) + rho w_{t-1} by IV, instrumenting w_{t-1}
    with w_{t-2}.  Step 2 evaluates the quasi-differenced residual at
    (alpha_hat, beta_tilde, rho_hat) against the single instrument x_{t-1}
    (``CONCENTRATED_BETA_INSTRUMENTS``).  Both steps pool periods t >= 3.
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
    # instruments const, w2 | the reported x1) is base - beta * slope
    report = CONCENTRATED_BETA_INSTRUMENTS.names
    plan = _Plan(
        mom=mom,
        base=forms("y_lag0", "const", "y_lag1", "const", "y_lag2", *report),
        slope=forms("x_lag0", None, "x_lag1", None, "x_lag2",
                    *[None] * len(report)),
        coef_names=("c", "rho"), moment_names=report)

    def evaluate(beta_tilde: float) -> Concentrated:
        out = plan.at(beta_tilde)
        c, rho = out.coefficients.values()
        alpha = c / (1.0 - rho) if abs(1.0 - rho) > 1e-12 else float("nan")
        out.coefficients = {"alpha": alpha, "rho": rho}
        return out

    return evaluate


def _moments_from(panel, first: int, spec: InstrumentSpec) -> _CrossMoments:
    """The cross-moments over the periods where a residual defined from
    period ``first`` on meets every instrument of ``spec``."""
    t_min = max(first, spec.max_lag)
    if t_min >= panel.spec.n_periods:
        raise ValidationError(
            "not enough periods for the requested instrument lags",
            field="n_periods")
    return _cross_moments(panel, t_min)


def _lagged_forms(mom: _CrossMoments, inputs, lag: int) -> np.ndarray:
    """Forms of (y, const, *inputs) dated ``lag`` periods back; the constant
    is its own lag, so ``_lagged_forms(.., lag) - rho * _lagged_forms(..,
    lag + 1)`` is the rho quasi-difference of each, (1 - rho) * const for
    the constant."""
    return mom.forms([f"y_lag{lag}", "const"]
                     + [f"{s}_lag{lag}" for s in inputs])


def _rho_plan(panel, family, solve, report) -> _Plan:
    """The panel's rho plan for one (family, solve, report) set, built on
    first use: base [lag0 | instruments] and slope [lag1 | 0] quasi-difference
    (y, const, x[, z]) and leave the instruments alone.  A set that fails
    validation is not cached, so it raises on every call."""
    if family not in ("quasi_diff", "multi_input"):
        raise ValidationError(
            "rho concentration supports quasi_diff or multi_input",
            field="family")
    if family == "multi_input" and panel.z is None:
        raise ValidationError("panel has no second input z", field="panel")
    inputs = ("x", "z") if family == "multi_input" else ("x",)
    coef_names = ("alpha", "beta", "gamma")[:1 + len(inputs)]
    # the family's instruments: one solving instrument per coefficient first
    defaults = _FAMILY_DEFAULTS[family].names
    solve = tuple(defaults[:len(coef_names)] if solve is None else solve)
    report = tuple(defaults[len(coef_names):] if report is None else report)
    key = ("rho", family, solve, report)
    if key in panel._moment_cache:
        return panel._moment_cache[key]
    mom = _moments_from(panel, 1, InstrumentSpec(solve + report))
    if len(solve) != len(coef_names):
        raise ValidationError(
            f"need {len(coef_names)} solving instruments, got {len(solve)}",
            field="solve_instruments")
    Z = mom.forms(solve + report)
    plan = panel._moment_cache[key] = _Plan(
        mom, np.hstack([_lagged_forms(mom, inputs, 0), Z]),
        np.hstack([_lagged_forms(mom, inputs, 1), np.zeros_like(Z)]),
        coef_names, report)
    return plan


def concentrate_rho(panel, rho_tilde: float, family: str = "quasi_diff",
                    solve_instruments: Optional[tuple] = None,
                    report_instruments: Optional[tuple] = None,
                    ) -> Concentrated:
    """Solve the intercept and slopes by just-identified IV at a fixed rho,
    then report the left-over moments, as a :class:`Concentrated`.

    The moment is linear in (alpha, beta[, gamma]) once rho is fixed, so a
    just-identified subset ({1, x_{t-1}} plus {z_{t-1}} with a second input)
    pins the linear block; the lag-2 instruments are then free to move away
    from zero except at the true persistence and at each market-factor
    persistence.  Pass explicit instrument-name tuples to override either
    the solving subset or the reported moments.
    """
    return _rho_plan(panel, family, solve_instruments,
                     report_instruments).at(rho_tilde)


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


def gmm_objective(panel, family: str, params,
                  instruments: Optional[InstrumentSpec] = None,
                  weighting: str = "identity") -> MomentReport:
    """Evaluate m = (1/n) sum z_t r_t and the objective m' W m.

    ``params`` is a :class:`ParamPoint` or (alpha, beta, rho) for
    ``quasi_diff``, (beta, rho) for ``double_diff`` and (alpha, beta, gamma,
    rho) for ``multi_input``.  ``weighting`` is ``identity`` or
    ``two_step``; the two-step weight is the inverse of the uncentered
    moment outer-product at the evaluated point, which makes the objective
    invariant to rescaling instrument columns.  The residual is a linear
    form over the panel's cached cross-moments, so m, the outer-product and
    the standard errors (ddof 0) are small dense algebra.
    """
    if weighting not in ("identity", "two_step"):
        raise ValidationError("weighting must be identity or two_step",
                              field="weighting")
    if family not in _FAMILY_DEFAULTS:
        raise ValidationError(f"unknown moment family {family!r}",
                              field="family")
    if family == "double_diff":
        beta, rho = params
        coef = (0.0, beta)  # the difference removes the intercept
    elif family == "multi_input":
        alpha, beta, gamma, rho = params
        coef = (alpha, beta, gamma)
        if panel.z is None:
            raise ValidationError("panel has no second input z",
                                  field="panel")
    else:
        p = params if isinstance(params, ParamPoint) else ParamPoint(*params)
        coef, rho = (p.alpha, p.beta), p.rho
    spec = instruments if instruments is not None else _FAMILY_DEFAULTS[family]
    first = 2 if family == "double_diff" else 1
    mom = _moments_from(panel, first, spec)
    Z = mom.forms(spec.names)
    inputs = ("x", "z")[:len(coef) - 1]

    def quasi_diff(lag):
        return (_lagged_forms(mom, inputs, lag)
                - rho * _lagged_forms(mom, inputs, lag + 1))

    D = quasi_diff(0) - quasi_diff(1) if first == 2 else quasi_diff(0)
    r = D[:, 0] - D[:, 1:] @ np.array(coef)
    m = mom.cross(Z, r)
    S = mom.product_moments(Z, r)
    se = np.sqrt(np.clip(S.diagonal() - m * m, 0.0, None) / mom.n)
    if weighting == "identity":
        objective = float(m @ m)
    else:
        try:
            objective = float(m @ (_checked_inverse(S) @ m))
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(
                "moment outer-product is singular; two-step weighting "
                "unavailable", smallest_pivot=exc.smallest_pivot) from exc
    return MomentReport(names=spec.names, moments=m, objective=objective,
                        weighting=weighting, n_obs=mom.n, std_errors=se)


def _fmt(value) -> str:
    """The float format of every CSV the package writes: the shortest
    decimal that round-trips the double."""
    return repr(float(value))

