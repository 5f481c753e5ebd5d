"""Closed-form parameter maps for the linear AR(1)-in-AR(1) panel model.

The structural model is

    y_t = alpha + beta * x_t + omega_t + eta_t
    x_t = pi + theta * omega_t + kappa_t
    omega_t = rho_omega * omega_{t-1} + xi_t
    kappa_t = rho_x * kappa_{t-1} + u_t

Projecting (y_t, x_t) on (1, y_{t-1}, x_{t-1}) gives a six-coefficient
reduced form.  This module holds the exact forward map from structural to
reduced-form coefficients, its two-branch inversion (the mapping is
two-to-one), the location of the pseudo-solution of the quasi-differenced
moment condition, and the flat locus that appears when the two persistence
parameters coincide.  Everything here is pure arithmetic: no data, no
randomness, safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateReducedFormError,
    InternalConsistencyError,
    NoEndogeneityError,
    ValidationError,
)

#: Tolerance of the internal round-trip guard in :func:`invert_reduced_form`
#: on the largest coefficient error, relative to max(1, largest |reduced-form
#: coefficient|).  All maps are closed-form, so only rounding error is present.
ROUND_TRIP_TOL = 1e-8


@dataclass(frozen=True)
class StructuralParams:
    """Structural parameters plus innovation standard deviations.

    ``theta`` measures how the input responds to the persistent unobservable
    and must be nonzero wherever the linear input equation is in force (it
    appears in denominators of the pseudo-solution and branch formulas).
    """

    beta: float
    theta: float
    rho_omega: float
    rho_x: float
    alpha: float = 0.0
    pi: float = 0.0
    sigma_xi: float = 1.0
    sigma_u: float = 1.0
    sigma_eta: float = 1.0

    def __post_init__(self):
        if not abs(self.rho_omega) < 1.0:
            raise ValidationError("|rho_omega| must be < 1 (stationarity)",
                                  field="rho_omega")
        if not abs(self.rho_x) < 1.0:
            raise ValidationError("|rho_x| must be < 1 (stationarity)",
                                  field="rho_x")
        for name in ("sigma_xi", "sigma_u", "sigma_eta"):
            if getattr(self, name) < 0.0:
                raise ValidationError("innovation scale must be >= 0",
                                      field=name)


@dataclass(frozen=True)
class ReducedFormParams:
    """Coefficients of the projections of y_t and x_t on (1, y_{t-1}, x_{t-1})."""

    pi_y0: float
    pi_yy: float
    pi_yx: float
    pi_x0: float
    pi_xy: float
    pi_xx: float

    def discriminant(self) -> float:
        """(pi_yy - pi_xx)^2 + 4 pi_yx pi_xy; equals (rho_omega - rho_x)^2
        for any output of :func:`forward_map`."""
        return (self.pi_yy - self.pi_xx) ** 2 + 4.0 * self.pi_yx * self.pi_xy

    def as_tuple(self):
        return (self.pi_y0, self.pi_yy, self.pi_yx,
                self.pi_x0, self.pi_xy, self.pi_xx)


@dataclass(frozen=True)
class ParamPoint:
    """A candidate (alpha, beta, rho) triple for the quasi-differenced moment."""

    alpha: float
    beta: float
    rho: float


def _theta_sign(sign: str, field: str) -> float:
    """1.0 for ``theta_positive``, -1.0 for ``theta_negative``; anything
    else raises, naming the argument ``field``."""
    if sign not in ("theta_positive", "theta_negative"):
        raise ValidationError("the sign of theta must be positive or negative"
                              " (theta_positive or theta_negative)",
                              field=field)
    return 1.0 if sign == "theta_positive" else -1.0


@dataclass(frozen=True)
class SolutionBranch:
    """One of the two structural solutions implied by a reduced form.

    ``branch_sign`` records which root of the two-theta formula was taken;
    the innovation scales in ``params`` are not identified by the reduced
    form and are set to zero.
    """

    params: StructuralParams
    branch_sign: str  # "plus" or "minus"


def forward_map(s: StructuralParams) -> ReducedFormParams:
    """Map structural parameters to the six reduced-form coefficients.

    With d = rho_omega - rho_x:

        pi_yy = rho_omega + beta*theta*d
        pi_yx = -beta*(1 + beta*theta)*d
        pi_xy = theta*d
        pi_xx = rho_x - beta*theta*d
        pi_y0 = beta*(1 - rho_x)*pi + [(1 - rho_omega) - theta*beta*d]*alpha
        pi_x0 = (1 - rho_x)*pi - theta*d*alpha

    Total on its domain (stationary rho's); no error cases.
    """
    d = s.rho_omega - s.rho_x
    bt = s.beta * s.theta
    return ReducedFormParams(
        pi_y0=s.beta * (1.0 - s.rho_x) * s.pi
        + ((1.0 - s.rho_omega) - bt * d) * s.alpha,
        pi_yy=s.rho_omega + bt * d,
        pi_yx=-s.beta * (1.0 + bt) * d,
        pi_x0=(1.0 - s.rho_x) * s.pi - s.theta * d * s.alpha,
        pi_xy=s.theta * d,
        pi_xx=s.rho_x - bt * d,
    )


def _one_branch(r: ReducedFormParams, theta: float, sign: str) -> SolutionBranch:
    beta = 0.5 * ((r.pi_yy - r.pi_xx) / r.pi_xy - 1.0 / theta)
    rho_omega = 0.5 * (r.pi_yy + r.pi_xx + r.pi_xy / theta)
    rho_x = 0.5 * (r.pi_yy + r.pi_xx - r.pi_xy / theta)
    for name, value in (("rho_omega", rho_omega), ("rho_x", rho_x)):
        if not abs(value) < 1.0:
            raise DegenerateReducedFormError(
                f"{sign} branch is not stationary: its estimated {name} = "
                f"{value:.6g} lies outside (-1, 1)")
    # The intercept system's determinant is (1 - rho_x)(1 - rho_omega) != 0.
    alpha = (r.pi_y0 - beta * r.pi_x0) / (1.0 - rho_omega)
    pi = (r.pi_x0 + r.pi_xy * alpha) / (1.0 - rho_x)
    params = StructuralParams(beta=beta, theta=theta, rho_omega=rho_omega,
                              rho_x=rho_x, alpha=alpha, pi=pi,
                              sigma_xi=0.0, sigma_u=0.0, sigma_eta=0.0)
    return SolutionBranch(params=params, branch_sign=sign)


def invert_reduced_form(
    r: ReducedFormParams,
) -> tuple[SolutionBranch, SolutionBranch]:
    """Recover both structural solutions from a reduced form.

    The two branches take theta = +/- pi_xy / sqrt(D) with
    D = (pi_yy - pi_xx)^2 + 4 pi_yx pi_xy, then

        beta      = ((pi_yy - pi_xx)/pi_xy - 1/theta) / 2
        rho_omega = (pi_yy + pi_xx + pi_xy/theta) / 2
        rho_x     = (pi_yy + pi_xx - pi_xy/theta) / 2
        alpha     = (pi_y0 - beta*pi_x0) / (1 - rho_omega)
        pi        = (pi_x0 + pi_xy*alpha) / (1 - rho_x)

    Returns the plus branch first.  Each branch must reproduce ``r`` under
    :func:`forward_map` to ``ROUND_TRIP_TOL`` times max(1, max |r coef|);
    a violation indicates a bug and raises :class:`InternalConsistencyError`.

    Raises :class:`NoEndogeneityError` when pi_xy == 0 and
    :class:`DegenerateReducedFormError` when D <= 0 (both signal an
    equal-persistence or inconsistent input) or when a branch's persistence
    lies outside (-1, 1), naming the branch and the parameter.
    """
    if r.pi_xy == 0.0:
        raise NoEndogeneityError(
            "pi_xy = 0: no feedback from lagged output to the input; "
            "the inversion carries no endogeneity information")
    disc = r.discriminant()
    if disc <= 0.0:
        raise DegenerateReducedFormError(
            f"discriminant {disc:.6g} <= 0: the two persistence parameters "
            "coincide or the reduced form is not consistent with the model")
    root = math.sqrt(disc)
    branches = (_one_branch(r, r.pi_xy / root, "plus"),
                _one_branch(r, -r.pi_xy / root, "minus"))
    for br in branches:
        back = forward_map(br.params)
        err = max(abs(a - b) for a, b in zip(back.as_tuple(), r.as_tuple()))
        scale = max(1.0, max(abs(v) for v in r.as_tuple()))
        if err > ROUND_TRIP_TOL * scale:
            raise InternalConsistencyError(
                f"{br.branch_sign} branch fails the round-trip guard "
                f"(max coefficient error {err:.3e})")
    return branches


def pseudo_point(s: StructuralParams) -> ParamPoint:
    """Location of the spurious zero of the quasi-differenced moment.

    The moment condition is solved not only at the truth but also at

        (alpha - pi/theta, beta + 1/theta, rho_x),

    where the quasi-differenced residual picks up the innovation of the
    input-side persistence process instead of the productivity innovation.
    """
    if s.theta == 0.0:
        raise ValidationError(
            "pseudo-solution is undefined for theta = 0", field="theta")
    return ParamPoint(alpha=s.alpha - s.pi / s.theta,
                      beta=s.beta + 1.0 / s.theta,
                      rho=s.rho_x)


def flat_locus_residual(p: ParamPoint, s: StructuralParams) -> float:
    """Residual of the non-identified locus under equal persistence.

    When rho_omega = rho_x = rho0, quasi-differencing strips the input of
    everything but innovations and the moment vanishes on the whole line

        (alpha0 - alpha)*(1 - rho0) + (beta0 - beta)*pi0*(1 - rho0) = 0.

    Returns the left-hand side; zero iff ``p`` lies on the locus.  Requires
    s.rho_omega == s.rho_x == p.rho.
    """
    if s.rho_omega != s.rho_x:
        raise ValidationError(
            "flat locus is defined only for rho_omega == rho_x",
            field="rho_omega")
    if p.rho != s.rho_omega:
        raise ValidationError(
            "candidate rho must equal the common persistence", field="rho")
    rho0 = s.rho_omega
    return ((s.alpha - p.alpha) * (1.0 - rho0)
            + (s.beta - p.beta) * s.pi * (1.0 - rho0))
