"""Objective-curve scans, zero location, and branch selection.

A scan concentrates the nuisance parameters out of the moment condition at
every point of a beta (or rho) grid and records the signed single-instrument
moment m and its square.  Zeros of m are the candidate solutions; a second
zero away from the truth is the pseudo-solution signature.  The two-step
estimator instead fits the reduced form once, inverts it into its two
branches, and lets a declared sign of the endogeneity direction pick one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .errors import DynpanError, InternalConsistencyError, ValidationError
from .estimate import (
    PREDETERMINED_INSTRUMENTS,
    _fmt,
    beta_scan_evaluator,
    concentrate_rho,
    fit_reduced_form,
)
from .model import (
    ParamPoint,
    ReducedFormParams,
    SolutionBranch,
    _theta_sign,
    invert_reduced_form,
)

#: Default admissible scan ranges per axis.
DEFAULT_BOUNDS = {"beta": (-1.0, 3.0), "rho": (-0.999, 0.999)}

#: Guard threshold: the reduced form is treated as degenerate when the
#: y-feedback coefficient is within this many standard errors of zero.
PI_XY_GUARD_SE = 3.0

#: Halvings after which a bracket's bisection stops unconverged.
_MAX_HALVINGS = 60


@dataclass
class RootInfo:
    """A refined zero of the signed concentrated moment."""

    location: float
    bracket: tuple[float, float]
    m_value: float
    iterations: int
    converged: bool


@dataclass
class MinimumInfo:
    """A refined interior local minimum of the squared moment."""

    location: float
    value: float
    grid_index: int


@dataclass
class ObjectiveCurve:
    """Signed concentrated moment over a grid, plus located features.

    Grid points where the underlying fit failed carry NaN.  ``evaluator``
    gives m at any point of the axis; ``zeros`` and ``minima`` are filled by
    :func:`find_zeros` / :func:`find_local_minima`, which refine with it.
    ``ses``, the per-point sampling standard error of m, is computed on
    first read from the kept grid fits, NaN where a fit failed or none is
    kept; it can also be assigned.
    """

    axis: str
    grid: np.ndarray
    m: np.ndarray
    msq: np.ndarray
    evaluator: Callable[[float], float] = field(repr=False)
    zeros: list = field(default_factory=list)
    minima: list = field(default_factory=list)
    #: each grid point's ``Concentrated``, None where its fit failed
    _points: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def ses(self) -> np.ndarray:
        ses = np.full(self.grid.size, np.nan)
        for i, c in enumerate(self._points):
            if c is not None:
                ses[i] = c.moment_ses[0]
        return ses


def _evaluate(axis: str, grid: np.ndarray, concentrate) -> ObjectiveCurve:
    """The first moment of ``concentrate(g)`` (a ``Concentrated``) over the
    grid, NaN where the fit fails; the curve keeps each point's fit for its
    standard errors, and its evaluator is that moment."""
    points = []
    for g in grid:
        try:
            points.append(concentrate(g))
        except DynpanError:
            points.append(None)
    m = np.array([np.nan if c is None else c.moments[0] for c in points])
    return ObjectiveCurve(axis=axis, grid=grid, m=m, msq=m * m,
                          evaluator=lambda v: concentrate(v).moments[0],
                          _points=tuple(points))


def scan_curve(panel, axis: str, grid,
               family: str = "quasi_diff") -> ObjectiveCurve:
    """Evaluate the concentrated moment at each grid point.

    ``axis='beta'`` concentrates (alpha, rho) at each candidate slope and
    uses the single instrument x_{t-1}; ``axis='rho'`` concentrates the
    linear block at each candidate persistence and reports the x_{t-2}
    moment; m is the first of the point's ``Concentrated`` moments.  The
    scan solves each point's IV only: the curve's ``ses`` (and the panel's
    pair pass behind them) are computed when first read.  The grid must lie
    within ``DEFAULT_BOUNDS`` of its axis.  Estimation failures at
    individual points are recorded as NaN, not raised.
    """
    if axis not in ("beta", "rho"):
        raise ValidationError("axis must be beta or rho", field="axis")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("grid is empty", field="grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing",
                              field="grid")
    lo, hi = DEFAULT_BOUNDS[axis]
    if grid[0] < lo or grid[-1] > hi:
        raise ValidationError(
            f"grid [{grid[0]}, {grid[-1]}] outside bounds [{lo}, {hi}]",
            field="grid")

    if axis == "beta":
        if family != "quasi_diff":
            raise ValidationError(
                "beta scans concentrate the quasi_diff family only",
                field="family")
        concentrate = beta_scan_evaluator(panel)
    else:
        concentrate = partial(concentrate_rho, panel, family=family)
    return _evaluate(axis, grid, concentrate)


def find_zeros(curve: ObjectiveCurve) -> list[RootInfo]:
    """Refine every sign change of the signed moment by bisection with the
    curve's evaluator.

    Refinement runs until |m| is below 1e-4 of the median grid |m| and the
    bracket is narrower than 1e-6 of the grid span, or 60 halvings.  A
    bracket whose bisection hits a failed fit (a pole) ends there,
    unconverged with m_value NaN.  Returns the roots and attaches them to
    the curve.  A curve without sign changes yields an empty list.
    """
    curve.zeros = _refine_zeros(curve)
    return curve.zeros


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D array, 0.0 when empty.  np.median itself imports
    numpy.ma on first use, about 10 ms of every process that refines a
    zero."""
    ordered = np.sort(values)
    if ordered.size == 0:
        return 0.0
    h = ordered.size // 2
    return float(ordered[h] if ordered.size % 2
                 else (ordered[h - 1] + ordered[h]) / 2)


def _refine_zeros(curve: ObjectiveCurve) -> list[RootInfo]:
    """The bisection behind :func:`find_zeros`, without attaching the
    roots to the curve."""
    grid, m, f = curve.grid, curve.m, curve.evaluator
    finite = np.isfinite(m)
    m_tol = 1e-4 * _median(np.abs(m[finite]))
    width_tol = 1e-6 * float(grid[-1] - grid[0])
    roots: list[RootInfo] = []
    for i in range(grid.size):
        if m[i] == 0.0:  # NaN never equals 0
            roots.append(RootInfo(location=float(grid[i]),
                                  bracket=(float(grid[i]), float(grid[i])),
                                  m_value=0.0, iterations=0, converged=True))
            continue
        if (i + 1 == grid.size or not (finite[i] and finite[i + 1])
                or m[i] * m[i + 1] >= 0.0):
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = m[i]
        it = 0
        while it < _MAX_HALVINGS:
            mid = 0.5 * (lo + hi)
            try:
                fmid = f(mid)
            except DynpanError:
                # pole or failed fit inside the bracket: not a usable zero
                fmid = np.nan
                break
            it += 1
            if fmid == 0.0:  # an exact zero ends the bracket, whatever m_tol
                lo = hi = mid
                break
            if np.sign(fmid) == np.sign(flo):
                lo, flo = mid, fmid
            else:
                hi = mid
            if (hi - lo) < width_tol and abs(fmid) < m_tol:
                break
        converged = bool(fmid == 0.0 or abs(fmid) < m_tol)
        roots.append(RootInfo(location=mid, bracket=(lo, hi),
                              m_value=float(fmid), iterations=it,
                              converged=converged))
    return roots


def find_local_minima(curve: ObjectiveCurve) -> list[MinimumInfo]:
    """Interior grid points where m^2 dips strictly below both neighbors,
    refined by a three-point parabola and valued by the evaluator at its
    vertex (by the grid m^2 if that fit fails).  Attached to the curve."""
    msq, grid = curve.msq, curve.grid
    out: list[MinimumInfo] = []
    for i in range(1, grid.size - 1):
        trio = msq[i - 1:i + 2]
        if not np.all(np.isfinite(trio)):
            continue
        if not (msq[i] < msq[i - 1] and msq[i] < msq[i + 1]):
            continue
        x1, x2, x3 = grid[i - 1], grid[i], grid[i + 1]
        y1, y2, y3 = trio
        num = (x2 - x1) ** 2 * (y2 - y3) - (x2 - x3) ** 2 * (y2 - y1)
        den = (x2 - x1) * (y2 - y3) - (x2 - x3) * (y2 - y1)
        loc = x2 - 0.5 * num / den if den != 0.0 else x2
        loc = float(np.clip(loc, x1, x3))
        try:
            value = float(curve.evaluator(loc)) ** 2
        except DynpanError:
            value = float(msq[i])
        out.append(MinimumInfo(location=loc, value=value, grid_index=i))
    curve.minima = out
    return out


@dataclass
class EstimateResult:
    """Both inversion branches plus which one the sign restriction keeps.

    On a degenerate reduced form (no usable discriminant or no detectable
    y-feedback) the branches are None and ``diagnosis`` explains why.
    """

    chosen: Optional[SolutionBranch]
    rejected: Optional[SolutionBranch]
    selection_rule: str
    reduced_form: ReducedFormParams
    provenance: str
    degenerate: bool = False
    diagnosis: str = ""


def select_by_sign(branches, sign: str) -> SolutionBranch:
    """Pick the branch whose theta carries the declared sign.

    Under a positive restriction this is the branch with the lower slope
    when the branch gap 1/theta is positive.  The two branches must carry
    opposite-sign thetas; anything else indicates a corrupted pair.
    """
    want = _theta_sign(sign, "sign")
    a, b = branches
    if not (a.params.theta * b.params.theta < 0):
        raise InternalConsistencyError(
            "branch thetas do not have opposite signs")
    return a if a.params.theta * want > 0 else b


def two_step_estimator(panel, sign: str = "theta_positive") -> EstimateResult:
    """Reduced-form IV fit, closed-form inversion, sign-restricted choice.

    When the estimated discriminant is non-positive, or the y-feedback
    coefficient pi_xy is within ``PI_XY_GUARD_SE`` standard errors of zero,
    the equal-persistence diagnosis is reported instead of an estimate.
    An unknown ``sign`` raises before the fit, degenerate or not.
    """
    _theta_sign(sign, "sign")
    rf, _, fit_x = fit_reduced_form(panel)
    se_pi_xy = float(fit_x.std_errors[1])
    disc = rf.discriminant()
    if disc <= 0.0 or abs(rf.pi_xy) < PI_XY_GUARD_SE * se_pi_xy:
        reason = ("estimated discriminant is non-positive"
                  if disc <= 0.0 else
                  f"pi_xy = {rf.pi_xy:.4g} is within {PI_XY_GUARD_SE:.0f} "
                  f"standard errors ({se_pi_xy:.4g}) of zero")
        return EstimateResult(
            chosen=None, rejected=None, selection_rule="none",
            reduced_form=rf, provenance="two_step", degenerate=True,
            diagnosis=f"degenerate reduced form: {reason}; the two "
                      "persistence parameters appear equal, under which the "
                      "moment carries no slope information")
    plus, minus = invert_reduced_form(rf)
    chosen = select_by_sign((plus, minus), sign)
    rejected = minus if chosen is plus else plus
    return EstimateResult(chosen=chosen, rejected=rejected,
                          selection_rule=sign, reduced_form=rf,
                          provenance="two_step")


@dataclass
class WarmStart:
    """A starting point for local estimation under weaker assumptions."""

    point: ParamPoint
    strategy: str
    flagged: bool = False
    note: str = ""


def _predetermined_point(panel) -> ParamPoint:
    """Point estimate assuming the input is chosen one period ahead.

    With x_t admissible as an instrument the linear block is solved from
    {1, x_t} at each candidate rho and the x_{t-1} moment is driven to
    zero by the bisection of :func:`find_zeros`, with its stopping rule;
    among candidate roots the one with the smallest joint
    over-identification score wins.  A bracket whose bisection hits a
    failed fit (a pole) yields no candidate.  Raises ValidationError when
    the fit fails at every point of the rho grid.
    """
    names = PREDETERMINED_INSTRUMENTS  # {1, x_t}, then the reported

    concentrate = partial(concentrate_rho, panel, family="quasi_diff",
                          solve_instruments=names[:2],
                          report_instruments=names[2:])
    curve = _evaluate("rho", np.linspace(-0.9, 0.9, 37), concentrate)
    if np.isnan(curve.m).all():
        raise ValidationError(
            "predetermined start unavailable: the fit failed at every rho "
            "of the grid [-0.9, 0.9], so the x_{t-1} moment has no zero "
            "and no smallest value to start from", field="strategy")
    candidates = [r.location for r in _refine_zeros(curve)
                  if np.isfinite(r.m_value)]
    if not candidates:
        candidates = [float(curve.grid[np.nanargmin(np.abs(curve.m))])]
    best, best_score = None, np.inf
    for rho in candidates:
        cr = concentrate(rho)
        score = float(np.sum((cr.moments / cr.moment_ses) ** 2))
        if score < best_score:
            best, best_score = cr, score
    return ParamPoint(alpha=best.coefficients["alpha"],
                      beta=best.coefficients["beta"], rho=best.at)


def warm_start_pipeline(panel, strategy: str,
                        sign: str = "theta_positive") -> WarmStart:
    """Produce a starting ParamPoint from a more identification-robust fit.

    ``predetermined_start`` estimates as if the input were chosen one
    period ahead (extra instrument x_t); ``reduced_form_start`` runs the
    sign-restricted two-step estimator.  Either point is meant to seed a
    local search under the weaker timing assumptions; when the panel's
    generating variant does not match the strategy's assumption the result
    is still returned but flagged as possibly biased.
    """
    if strategy == "reduced_form_start":
        result = two_step_estimator(panel, sign)
        if result.degenerate:
            raise ValidationError(
                "reduced-form start unavailable: " + result.diagnosis,
                field="strategy")
        p = result.chosen.params
        return WarmStart(point=ParamPoint(p.alpha, p.beta, p.rho_omega),
                         strategy=strategy)
    if strategy == "predetermined_start":
        point = _predetermined_point(panel)
        flagged = panel.spec.variant != "predetermined"
        note = ("panel was not generated under one-period-ahead input "
                "choice; the start may be biased" if flagged else "")
        return WarmStart(point=point, strategy=strategy, flagged=flagged,
                         note=note)
    raise ValidationError(
        "strategy must be predetermined_start or reduced_form_start",
        field="strategy")


def write_curve_csv(curve: ObjectiveCurve, path) -> None:
    """axis_value,m,objective rows, the objective being m^2, plus a
    trailing comment block with the located zeros and minima."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis_value,m,objective\n")
        for g, m, q in zip(curve.grid, curve.m, curve.msq):
            fh.write(f"{_fmt(g)},{_fmt(m)},{_fmt(q)}\n")
        fh.write(f"# axis,{curve.axis}\n")
        for root in curve.zeros:
            fh.write(f"# zero,{_fmt(root.location)},m={_fmt(root.m_value)},"
                     f"converged={root.converged}\n")
        for mn in curve.minima:
            fh.write(f"# minimum,{_fmt(mn.location)},"
                     f"objective={_fmt(mn.value)}\n")


def write_estimate_csv(result: EstimateResult, path) -> None:
    """Both branches with labels; a degenerate result records its diagnosis."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("branch,selected,beta,theta,rho_omega,rho_x,alpha,pi\n")
        if not result.degenerate:
            for br, selected in ((result.chosen, 1), (result.rejected, 0)):
                p = br.params
                fh.write(f"{br.branch_sign},{selected},{_fmt(p.beta)},"
                         f"{_fmt(p.theta)},{_fmt(p.rho_omega)},"
                         f"{_fmt(p.rho_x)},{_fmt(p.alpha)},{_fmt(p.pi)}\n")
        fh.write(f"# selection_rule,{result.selection_rule}\n")
        fh.write(f"# provenance,{result.provenance}\n")
        if result.degenerate:
            fh.write(f"# degenerate,{result.diagnosis}\n")
