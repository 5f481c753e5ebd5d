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
cross-moments, and a beta evaluator holds its own.  Each evaluation factors
its rank-checked cross-product once (one SVD gives the check, the
coefficients and the first-step correction), so a grid point or a
bisection step costs the IV solve and its moments only.  The standard
errors of all reported moments, one quadratic form in the fourth moments,
are computed on their first read, so no scan or bisection runs the
panel's pair pass.

One table, ``_FAMILIES``, describes each residual family, and its cached
rho plan (``_family_plan``) serves both readers: ``concentrate_rho`` solves
it at a held rho, ``gmm_objective`` evaluates it at given coefficients.
Instrument sets are plain tuples of names.  The level diagnostics share the
all-period depth (L = 0) of a panel, the reduced form and the AR-order
test depth 2.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import RankDeficiencyError, ValidationError
from .model import ParamPoint, ReducedFormParams
from .moments import (
    _CrossMoments,
    _cross_moments,
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
#: them (rho last), the regressors they multiply, its default instruments
#: and the first period of its residual.
_Family = namedtuple("_Family", "params regressors instruments first")
_FAMILIES = {
    "quasi_diff": _Family(("alpha", "beta", "rho"), ("const", "x"),
                          BENCHMARK_INSTRUMENTS, 1),
    # the double difference removes the intercept, and with it alpha
    "double_diff": _Family(("beta", "rho"), ("x",),
                           FIXED_EFFECTS_INSTRUMENTS, 2),
    "multi_input": _Family(("alpha", "beta", "gamma", "rho"),
                           ("const", "x", "z"), MULTI_INPUT_INSTRUMENTS, 1),
}


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
    try:
        u, pivots, vt = np.linalg.svd(zx / d / e[:, None])
    except np.linalg.LinAlgError as exc:  # a non-finite cross-product
        raise RankDeficiencyError(
            f"instrument-regressor cross-product has no SVD: {exc}") from exc
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
    regressors = _name_tuple(regressors, "regressors")
    instruments = _name_tuple(instruments, "instruments")
    if not regressors or len(regressors) != len(instruments):
        raise ValidationError(
            f"need a just-identified system: {len(instruments)} instruments "
            f"for {len(regressors)} regressors", field="instruments")
    mom = _moments_from(panel, 0, (dep,) + regressors + instruments)
    y, X, Z = mom.column(dep), mom.forms(regressors), mom.forms(instruments)
    inverse = _checked_inverse(mom.cross(Z, X))
    coef = inverse @ mom.cross(Z, y)
    r = y - X @ coef
    cov = mom.cross(r, r) * inverse @ mom.cross(Z, Z) @ inverse.T
    return IvFit(coefficients=coef, std_errors=np.sqrt(cov.diagonal() / mom.n),
                 n_obs=mom.n, names=regressors)


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
    ``moment_ses``, are computed on first read and kept."""

    at: float
    coefficients: dict
    moment_names: tuple[str, ...]
    moments: np.ndarray
    n_obs: int
    _ses: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def moment_ses(self) -> np.ndarray:
        return self._ses()


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

        def ses():
            V = inverse.T @ G[n:, 1:].T
            r = F[:, 0] - F[:, 1:] @ coef
            adjusted = ZR[:, n:] - ZR[:, :n] @ V
            return self.mom.ses(adjusted, r, moments)

        return Concentrated(
            at=t, coefficients=dict(zip(self.coef_names, map(float, coef))),
            moment_names=self.moment_names, moments=moments,
            n_obs=self.mom.n, _ses=ses)


def beta_scan_evaluator(panel):
    """Callable giving the :class:`Concentrated` single-instrument moment
    at a candidate slope, with coefficients ``alpha`` and ``rho``.

    At a candidate beta_tilde, step 1 forms w_t = y_t - beta_tilde x_t and
    fits w_t = alpha (1 - rho) + rho w_{t-1} by IV, instrumenting w_{t-1}
    with w_{t-2}.  Step 2 evaluates the quasi-differenced residual at
    (alpha_hat, beta_tilde, rho_hat) against the single instrument x_{t-1}
    (``CONCENTRATED_BETA_INSTRUMENTS``).  Both steps pool periods t >= 3.
    The panel's cross-moments are accumulated once (see
    :mod:`dynpan.moments`), so repeated calls (a grid scan plus bisection
    refinements) cost small dense algebra, not a pass over the panel.
    """
    mom = _cross_moments(panel, 2)
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


def _family_plan(panel, family: str, solve: tuple, report: tuple) -> _Plan:
    """The panel's cached rho plan of a family with the instruments
    ``solve`` (one per regressor, or none) and ``report``: (y, *regressors)
    at lag 0 minus rho times lag 1 (the constant is its own lag), for the
    double difference (lag 0 - lag 1) minus rho times (lag 1 - lag 2), then
    the instruments.  A set that fails validation is not cached."""
    fam = _FAMILIES[family]
    if "z" in fam.regressors and panel.z is None:
        raise ValidationError("panel has no second input z", field="panel")

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

    return cached(panel, ("rho", family, solve, report), build)


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
    either the solving subset or the reported moments.
    """
    if family not in ("quasi_diff", "multi_input"):
        raise ValidationError(
            "rho concentration supports quasi_diff or multi_input",
            field="family")
    # the family's instruments: one solving instrument per coefficient first
    fam = _FAMILIES[family]
    defaults, n = fam.instruments, len(fam.params) - 1  # all but rho
    solve = (defaults[:n] if solve_instruments is None
             else _name_tuple(solve_instruments, "solve_instruments"))
    report = (defaults[n:] if report_instruments is None
              else _name_tuple(report_instruments, "report_instruments"))
    if len(solve) != n:
        raise ValidationError(f"need {n} solving instruments, got "
                              f"{len(solve)}", field="solve_instruments")
    return _family_plan(panel, family, solve, report).at(rho_tilde)


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
    moment outer-product at the evaluated point, which makes the objective
    invariant to rescaling instrument columns.  The residual is the
    family's rho plan, the one ``concentrate_rho`` solves, at the given
    coefficients, so m, the outer-product and the standard errors (ddof 1)
    are small dense algebra.
    """
    if weighting not in ("identity", "two_step"):
        raise ValidationError("weighting must be identity or two_step",
                              field="weighting")
    if isinstance(params, ParamPoint):
        params = (params.alpha, params.beta, params.rho)
    if family not in _FAMILIES:
        raise ValidationError(f"unknown moment family {family!r}",
                              field="family")
    fam = _FAMILIES[family]
    try:
        values = tuple(params)
    except TypeError:
        values = ()
    if (len(values) != len(fam.params)
            or not all(isinstance(v, numbers.Real) for v in values)):
        raise ValidationError(f"{family} takes ({', '.join(fam.params)}), got "
                              f"{params!r}", field="params")
    *coef, rho = map(float, values)
    instruments = (fam.instruments if instruments is None
                   else _name_tuple(instruments, "instruments"))
    plan = _family_plan(panel, family, (), instruments)
    mom, n = plan.mom, len(coef)
    W = plan.base - rho * plan.slope
    r = W[:, 0] - W[:, 1:n + 1] @ np.array(coef)
    Z = W[:, n + 1:]
    m = mom.cross(Z, r)
    if weighting == "identity":
        objective = float(m @ m)
    else:
        try:
            objective = float(
                m @ (_checked_inverse(mom.product_moments(Z, r)) @ m))
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(
                "moment outer-product is singular; two-step weighting "
                "unavailable", smallest_pivot=exc.smallest_pivot) from exc
    return MomentReport(names=instruments, moments=m, objective=objective,
                        weighting=weighting, n_obs=mom.n,
                        std_errors=mom.ses(Z, r, m))


def _fmt(value) -> str:
    """The float format of every CSV the package writes: the shortest
    decimal that round-trips the double."""
    return repr(float(value))

