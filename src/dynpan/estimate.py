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

Concentration plans
-------------------
Every fit reads the panel only through its cross-moments (see
:mod:`dynpan.moments`).  Both concentration axes share one plan: the forms
of a just-identified IV and its reported instruments, linear in the held
slope or persistence t (``base - t * slope``).  The panel caches one rho
plan per instrument set (family, solving and reported names) next to the
cross-moments, and a beta evaluator holds its own.  ``_iv`` is the
package's one square solve: every just-identified IV (``two_sls``, each
plan evaluation) and the two-step weight of ``gmm_objective`` (S^{-1} m is
the IV of m on the moment outer-product S) pass it the E[Z (y, X)'] their
caller forms once.  It refuses fewer pooled rows than coefficients, then
one SVD gives the rank check, the coefficients and the first-step
correction, so a grid point or a bisection step costs the IV solve and its
moments only.  The standard errors of all reported moments, one quadratic
form in the fourth moments, are computed on first read.

One table, ``_FAMILIES``, describes each residual family down to the scan
axes that concentrate it, and ``_checked_family`` checks a family, an axis
and a panel against it.  Each public fit checks its family and names
(``_name_tuple``) against the panel once, where they enter; below that,
plans only form columns.  A family's cached rho plan (``_family_plan``)
serves ``concentrate_rho`` at a held rho and ``gmm_objective`` at given
coefficients.  Every fit reaches its lag depth through
``moments._moments_from``, which checks that the panel has the periods:
the level diagnostics share the all-period depth (L = 0) of a panel, the
reduced form, the AR-order test and the beta evaluator depth 2.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import RankDeficiencyError, ValidationError
from .model import ParamPoint, ReducedFormParams
from .moments import (
    _CrossMoments,
    _moments_from,
    _name_tuple,
    cached,
)


#: Instrument sets used by the moment families.
BENCHMARK_INSTRUMENTS = ("const", "x_lag1", "x_lag2", "y_lag2")
FIXED_EFFECTS_INSTRUMENTS = ("const", "x_lag2", "x_lag3", "y_lag3")
PREDETERMINED_INSTRUMENTS = ("const", "x_lag0", "x_lag1", "x_lag2", "y_lag2")
CONCENTRATED_BETA_INSTRUMENTS = ("x_lag1",)
MULTI_INPUT_INSTRUMENTS = ("const", "x_lag1", "z_lag1", "x_lag2", "y_lag2",
                           "z_lag2")


#: A moment family: its parameters in the order ``gmm_objective`` takes
#: them (rho last), the regressors they multiply, its default instruments,
#: the first period of its residual and the scan axes that concentrate it.
_Family = namedtuple("_Family", "params regressors instruments first axes")
_FAMILIES = {
    "quasi_diff": _Family(("alpha", "beta", "rho"), ("const", "x"),
                          BENCHMARK_INSTRUMENTS, 1, ("beta", "rho")),
    # the double difference removes the intercept, and with it alpha
    "double_diff": _Family(("beta", "rho"), ("x",),
                           FIXED_EFFECTS_INSTRUMENTS, 2, ()),
    "multi_input": _Family(("alpha", "beta", "gamma", "rho"),
                           ("const", "x", "z"), MULTI_INPUT_INSTRUMENTS, 1,
                           ("rho",)),
}


def _checked_family(family: str, axis=None, panel=None) -> _Family:
    """The table entry of ``family``; raises unless it is known, ``axis``
    (if given) concentrates it and ``panel`` (if given) holds its inputs."""
    fam = _FAMILIES.get(family)
    if fam is None:
        raise ValidationError(f"unknown moment family {family!r}",
                              field="family")
    if axis is not None and axis not in fam.axes:
        names = " or ".join(n for n, f in _FAMILIES.items() if axis in f.axes)
        raise ValidationError(f"{axis} scans concentrate the {names} family "
                              "only", field="family")
    if panel is not None and "z" in fam.regressors and panel.z is None:
        raise ValidationError("panel has no second input z", field="panel")
    return fam


@dataclass
class IvFit:
    """Just-identified IV fit on named panel columns."""

    coefficients: np.ndarray
    std_errors: np.ndarray  # large-sample homoskedastic (diagnostic only)
    n_obs: int
    names: tuple[str, ...]


def _iv(G: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The package's one square solve: the just-identified IV on G = E[Z
    (y, X)'] over ``n_rows`` pooled rows, E[Z X']^{-1} E[Z y] and that
    inverse.  E[Z X'] has rank at most ``n_rows``, so fewer rows than
    coefficients raise before the SVD.

    The pivots judged are the singular values of A = E[Z X'] with its
    columns, then its rows, scaled to unit length, so a change of data
    units in a regressor or an instrument cannot make a well-posed system
    look singular.  The inverse is read off the same SVD, diag(1/e) A
    diag(1/d) = u diag(s) vt with d the column and e the row norms, so one
    factorisation serves every solve with A or its transpose.
    """
    zx = G[:, 1:]
    k = zx.shape[1]
    if n_rows < k:
        raise RankDeficiencyError(
            f"{n_rows} pooled row{'s' * (n_rows != 1)} for {k} coefficients:"
            " the instrument-regressor cross-product has rank at most "
            f"{n_rows}", smallest_pivot=0.0)
    d = np.sqrt((zx * zx).sum(axis=0))
    d[d == 0.0] = 1.0
    e = np.sqrt(((zx / d) ** 2).sum(axis=1))
    e[e == 0.0] = 1.0
    try:
        u, pivots, vt = np.linalg.svd(zx / d / e[:, None])
    except np.linalg.LinAlgError as exc:  # a non-finite cross-product
        raise RankDeficiencyError(
            f"instrument-regressor cross-product has no SVD: {exc}") from exc
    smallest = pivots[-1]
    if smallest <= 1e-10 * max(pivots[0], 1.0):
        raise RankDeficiencyError(
            f"singular instrument-regressor cross-product; smallest pivot "
            f"{smallest:.3e}", smallest_pivot=smallest)
    inverse = (vt.T / pivots) @ u.T / d[:, None] / e
    return inverse @ G[:, 0], inverse


def two_sls(panel, dep: str, regressors: Sequence[str],
            instruments: Sequence[str]) -> IvFit:
    """Just-identified IV on named panel columns: coefficients =
    E[Z X']^{-1} E[Z y], pooled over the periods t >= L, L the largest lag
    named; for example ``two_sls(panel, "x_lag0", ("const", "x_lag1"),
    ("const", "x_lag2"))``.

    Reads the panel only through its cached cross-moments.  Needs as many
    instruments as regressors; too few pooled rows or a numerically
    singular E[Z X'] raise :class:`RankDeficiencyError`.  The package's
    one exact-fit rule: no more pooled rows than coefficients leave no
    residual to measure errors from, so the standard errors are NaN.
    """
    _name_tuple((dep,), "dep", panel)
    regressors = _name_tuple(regressors, "regressors", panel)
    instruments = _name_tuple(instruments, "instruments", panel)
    if not regressors or len(regressors) != len(instruments):
        raise ValidationError(
            f"need a just-identified system: {len(instruments)} instruments "
            f"for {len(regressors)} regressors", field="instruments")
    mom = _moments_from(panel, 0, (dep,) + regressors + instruments)
    F, Z = mom.forms((dep,) + regressors), mom.forms(instruments)
    coef, inverse = _iv(mom.cross(Z, F), mom.n)
    r = F[:, 0] - F[:, 1:] @ coef
    cov = mom.cross(r, r) * inverse @ mom.cross(Z, Z) @ inverse.T
    # rounding can leave a zero variance just below 0
    ses = (np.sqrt(np.maximum(cov.diagonal(), 0.0) / mom.n)
           if mom.n > len(regressors) else np.full(len(regressors), np.nan))
    return IvFit(coefficients=coef, std_errors=ses, n_obs=mom.n,
                 names=regressors)


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


@dataclass
class Concentrated:
    """One concentrated evaluation: the coefficients solved at the held
    value ``at`` of the scanned axis (a slope or a persistence), and the
    remaining moments.  Their influence-function standard errors,
    ``moment_ses``, are asked of the plan on first read and kept."""

    at: float
    coefficients: dict
    moment_names: tuple[str, ...]
    moments: np.ndarray
    n_obs: int
    _plan: _Plan = field(repr=False, compare=False)

    @cached_property
    def moment_ses(self) -> np.ndarray:
        return self._plan.moment_ses(self.at)


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

    def _fit(self, t: float):
        """The forms at t, E[Z (y, X)'], its IV and the reported moments."""
        n = len(self.coef_names)
        W = self.base - t * self.slope
        G = self.mom.cross(W[:, n + 1:], W[:, :n + 1])
        coef, inverse = _iv(G[:n], self.mom.n)
        return W, G, coef, inverse, G[n:, 0] - G[n:, 1:] @ coef

    def at(self, t: float) -> Concentrated:
        """The IV fit at t and the reported moments against its residual."""
        _, _, coef, _, moments = self._fit(t)
        return Concentrated(
            at=t, coefficients=dict(zip(self.coef_names, map(float, coef))),
            moment_names=self.moment_names, moments=moments,
            n_obs=self.mom.n, _plan=self)

    def moment_ses(self, t: float) -> np.ndarray:
        """Standard errors of ``at(t).moments`` with the first-step noise:
        the influence function of E[c r] is (c - Z v) r, v = A'^{-1} E[X c]
        and A = E[Z X'] (mean E[c r], as E[Z r] = 0), one SVD for both."""
        n = len(self.coef_names)
        W, G, coef, inverse, moments = self._fit(t)
        F, ZR = W[:, :n + 1], W[:, n + 1:]
        r = F[:, 0] - F[:, 1:] @ coef
        adjusted = ZR[:, n:] - ZR[:, :n] @ (inverse.T @ G[n:, 1:].T)
        return self.mom.ses(adjusted, r, moments)


def beta_scan_evaluator(panel):
    """Callable giving the :class:`Concentrated` single-instrument moment
    at a candidate slope, with coefficients ``alpha`` and ``rho``.

    At a candidate beta_tilde, step 1 forms w_t = y_t - beta_tilde x_t and
    fits w_t = alpha (1 - rho) + rho w_{t-1} by IV, instrumenting w_{t-1}
    with w_{t-2}.  Step 2 evaluates the quasi-differenced residual at
    (alpha_hat, beta_tilde, rho_hat) against the single instrument x_{t-1}
    (``CONCENTRATED_BETA_INSTRUMENTS``).  Both steps pool periods t >= 3;
    a shorter panel raises :class:`ValidationError` on ``n_periods``.  The
    panel's cross-moments are accumulated once (see
    :mod:`dynpan.moments`), so repeated calls (a grid scan plus bisection
    refinements) cost small dense algebra, not a pass over the panel.
    """
    mom = _moments_from(panel, 2, ())
    # w = y - beta x at lags 0..2; the regression (w0 on const, w1 | the
    # instruments const, w2 | the reported x1) is base - beta * slope
    report = CONCENTRATED_BETA_INSTRUMENTS
    plan = _Plan(
        mom=mom,
        base=mom.forms(("y_lag0", "const", "y_lag1", "const", "y_lag2")
                       + report),
        slope=mom.forms(("x_lag0", None, "x_lag1", None, "x_lag2")
                        + (None,) * len(report)),
        coef_names=("c", "rho"), moment_names=report)

    def evaluate(beta_tilde: float) -> Concentrated:
        out = plan.at(beta_tilde)
        c, rho = out.coefficients.values()
        alpha = c / (1.0 - rho) if abs(1.0 - rho) > 1e-12 else float("nan")
        out.coefficients = {"alpha": alpha, "rho": rho}
        return out

    return evaluate


def _family_plan(panel, fam: _Family, solve: tuple, report: tuple) -> _Plan:
    """The panel's cached rho plan of the family ``fam`` with the
    instruments ``solve`` (one per regressor, or none) and ``report``, all
    checked against the panel: (y, *regressors) at lag 0 minus rho times
    lag 1 (the constant is its own lag), for the double difference (lag 0 -
    lag 1) minus rho times (lag 1 - lag 2), then the instruments.  A set
    too deep for the panel's periods is not cached."""
    def build():
        mom = _moments_from(panel, fam.first, solve + report)

        def lagged(lag):
            return mom.forms([s if s == "const" else f"{s}_lag{lag}"
                              for s in ("y",) + fam.regressors])

        base, slope = lagged(0), lagged(1)
        if fam.first == 2:
            base, slope = base - slope, slope - lagged(2)
        Z = mom.forms(solve + report)
        return _Plan(mom, np.hstack([base, Z]),
                     np.hstack([slope, np.zeros_like(Z)]), fam.params[:-1],
                     report)

    return cached(panel, ("rho", fam, solve, report), build)


def concentrate_rho(panel, rho_tilde: float, family: str = "quasi_diff",
                    solve_instruments: Optional[Sequence[str]] = None,
                    report_instruments: Optional[Sequence[str]] = None,
                    ) -> Concentrated:
    """Solve the intercept and slopes by just-identified IV at a fixed rho,
    then report the left-over moments, as a :class:`Concentrated`.

    The moment is linear in (alpha, beta[, gamma]) once rho is fixed, so a
    just-identified subset ({1, x_{t-1}} plus {z_{t-1}} with a second input)
    pins the linear block; the lag-2 instruments are then free to move away
    from zero except at the true persistence and at each market-factor
    persistence.  Pass explicit instrument-name sequences to override
    either the solving subset or the reported moments.  The family, the
    names and the panel's inputs are checked before any moment is formed.
    """
    # the family's instruments: one solving instrument per coefficient first
    fam = _checked_family(family, "rho", panel)
    defaults, n = fam.instruments, len(fam.params) - 1  # all but rho
    solve = (defaults[:n] if solve_instruments is None
             else _name_tuple(solve_instruments, "solve_instruments", panel))
    report = (defaults[n:] if report_instruments is None else
              _name_tuple(report_instruments, "report_instruments", panel))
    if len(solve) != n:
        raise ValidationError(f"need {n} solving instruments, got "
                              f"{len(solve)}", field="solve_instruments")
    return _family_plan(panel, fam, solve, report).at(rho_tilde)


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
                  instruments: Optional[Sequence[str]] = None,
                  weighting: str = "identity") -> MomentReport:
    """Evaluate m = (1/n) sum z_t r_t and the objective m' W m.

    ``params`` is a :class:`ParamPoint` or (alpha, beta, rho) for
    ``quasi_diff``, (beta, rho) for ``double_diff`` and (alpha, beta, gamma,
    rho) for ``multi_input``; ``instruments`` is a sequence of column names,
    the family's own set by default.  ``weighting`` is ``identity`` or
    ``two_step``; the two-step weight is the inverse of the uncentered
    outer-product of firm-mean moments at the evaluated point, making the
    objective invariant to rescaling instrument columns.  The residual is the
    family's rho plan, the one ``concentrate_rho`` solves, at the given
    coefficients, so m, the outer-product and the standard errors (ddof 1)
    are small dense algebra.
    """
    if weighting not in ("identity", "two_step"):
        raise ValidationError("weighting must be identity or two_step",
                              field="weighting")
    if isinstance(params, ParamPoint):
        params = (params.alpha, params.beta, params.rho)
    fam = _checked_family(family)
    try:
        values = tuple(params)
    except TypeError:
        values = ()
    if (len(values) != len(fam.params)
            or not all(isinstance(v, numbers.Real) for v in values)):
        raise ValidationError(f"{family} takes ({', '.join(fam.params)}), got "
                              f"{params!r}", field="params")
    *coef, rho = map(float, values)
    _checked_family(family, panel=panel)
    instruments = (fam.instruments if instruments is None
                   else _name_tuple(instruments, "instruments", panel))
    if not instruments:
        raise ValidationError("need at least one instrument",
                              field="instruments")
    plan = _family_plan(panel, fam, (), instruments)
    mom, n = plan.mom, len(coef)
    W = plan.base - rho * plan.slope
    r = W[:, 0] - W[:, 1:n + 1] @ np.array(coef)
    Z = W[:, n + 1:]
    m = mom.cross(Z, r)
    if weighting == "identity":
        objective = float(m @ m)
    else:
        S = mom.product_moments(Z, r)  # S^{-1} m is the IV of m on S
        try:
            objective = float(m @ _iv(np.column_stack([m, S]), mom.n)[0])
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(
                "moment outer-product is singular; two-step weighting "
                "unavailable", smallest_pivot=exc.smallest_pivot) from exc
    return MomentReport(names=instruments, moments=m, objective=objective,
                        weighting=weighting, n_obs=mom.n,
                        std_errors=mom.ses(Z, r, m))
