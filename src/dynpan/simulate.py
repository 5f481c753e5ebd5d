"""Seeded panel generation for every data-generating-process variant.

All variants share the AR(1) productivity process

    omega_t = rho_omega * omega_{t-1} + xi_t

and an output equation of the form y = alpha + beta*x (+ gamma*z) + omega
+ eta.  They differ in how the input x (and the second input z) load on
omega and on the persistent market factors kappa and wp:

    benchmark             x = pi + theta*omega + kappa,  kappa AR(1)
    fixed_effects         benchmark with firm intercepts alpha_i, pi_i
    multi_input           x, z both load on omega and on two AR(1) market
                          factors kappa (rho_x) and wp (rho_z)
    dynamic_input         x = pi + theta*omega + theta_z*z + kappa with z an
                          independent AR(1) input
    nonlinear_omega_input x = pi + theta*omega + theta2*omega^2 + kappa
    logistic_kappa        kappa persistence rises with |kappa| via a logistic
                          factor in (0.5, 1); theta2 = 0 reproduces the
                          benchmark's rho_x = 0.5
    ar2_kappa             kappa follows an AR(2) with (rho1_x, rho2_x)
    arma_x                benchmark plus an i.i.d. input shock eps
    reversed_curvature    kappa persistence falls with |kappa| (factor in
                          (0, 0.5])
    predetermined         x is chosen one period ahead:
                          x_t = pi + theta*rho_omega*omega_{t-1} + kappa_{t-1}

``draw_panel`` sums each variant's x, z and y left to right, as in this
table, and a draw holds what an in-place sum would: numpy reuses the large
temporaries of a plain expression in place, and a sum that may hold a
broadcast firm intercept (the fixed_effects x, and every y) is written in
place.

Randomness is a Philox (counter-based) stream per (seed, shock label); each
label is read once, row-major with rows as firms, so output is independent
of any parallel schedule and the first k rows of a larger panel equal the
panel simulated with k firms.  Linear AR states start from their exact
stationary distribution; the nonlinear-kappa recursions are burned in for
``BURN_IN`` discarded periods from zero.  Their ``u`` is the same one
sequential stream, drawn ``_BLOCK_FIRMS`` firms at a time and run through
the recursion block by block, so the draw holds O(n_firms * n_periods)
outputs plus one block of BURN_IN + n_periods shocks, never the whole
n_firms x (BURN_IN + n_periods) matrix.

The sub-streams do not depend on each other, so ``draw_panel`` fills them
concurrently: it allocates every buffer itself and hands each fill to the
package's small thread pool (``_pool``: created on first use, at most one
worker per usable CPU, recreated in a forked child, and used by nothing
else), then runs the state recursions as the fills they need complete.
The nonlinear ``u`` stays on the calling thread.  Each stream is still
read once, in full, by one generator, so every array is bit-identical
whatever the thread count, schedule or fork.
"""

from __future__ import annotations

import functools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ValidationError
from .model import StructuralParams

#: Discarded leading periods for the nonlinear kappa recursions.
BURN_IN = 200

VARIANTS = (
    "benchmark",
    "fixed_effects",
    "multi_input",
    "dynamic_input",
    "nonlinear_omega_input",
    "logistic_kappa",
    "ar2_kappa",
    "arma_x",
    "reversed_curvature",
    "predetermined",
)

#: Variants with a second input z (both read the "v" stream and rho_z).
_SECOND_INPUT = ("multi_input", "dynamic_input")

#: Stable sub-stream identifiers; the Philox key is (seed, label id).
_LABEL_IDS = {
    "xi": 1, "u": 2, "eta": 3, "eps": 4, "v": 5,
    "omega_init": 6, "kappa_init": 7, "kappa_init2": 8, "wp_init": 9,
    "z_init": 10, "fe_alpha": 11, "fe_pi": 12,
}


@dataclass(frozen=True)
class VariantParams:
    """Extension parameters; each variant reads the subset it needs."""

    theta2: float = 0.0        # quadratic input term, or logistic slope
    rho1_x: float = 0.5        # AR(2) kappa coefficients
    rho2_x: float = 0.0
    sigma_eps: float = 0.0     # scale of the i.i.d. input shock
    gamma: float = 0.3         # second-input output elasticity
    theta_omega: float = 1.0   # two-input loadings on (omega, kappa, wp)
    theta_kappa: float = 1.0
    theta_wp: float = 0.5
    delta_omega: float = 1.0
    delta_kappa: float = 0.5
    delta_wp: float = 1.0
    rho_z: float = 0.3         # persistence of wp / of the dynamic input
    sigma_v: float = 1.0       # scale of the wp (or dynamic-input) shock
    theta_z: float = 0.5       # dynamic-input loading in the x equation
    pi_z: float = 0.0          # second-input intercept
    sigma_alpha_fe: float = 1.0
    sigma_pi_fe: float = 1.0


@dataclass(frozen=True)
class DgpSpec:
    """Full description of one simulated panel."""

    variant: str
    structural: StructuralParams
    n_firms: int
    n_periods: int
    seed: int
    ext: VariantParams = field(default_factory=VariantParams)

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"unknown variant {self.variant!r}; expected one of "
                f"{', '.join(VARIANTS)}", field="variant")
        if self.n_firms < 1:
            raise ValidationError("n_firms must be >= 1", field="n_firms")
        min_t = 5 if self.variant == "fixed_effects" else 4
        if self.n_periods < min_t:
            raise ValidationError(
                f"n_periods must be >= {min_t} for {self.variant}",
                field="n_periods")
        if not (0 <= self.seed < 2 ** 64):
            raise ValidationError("seed must fit in 64 unsigned bits",
                                  field="seed")
        for prefix, params in (("", self.structural), ("ext.", self.ext)):
            for f in fields(params):
                if not np.isfinite(getattr(params, f.name)):
                    raise ValidationError("must be a finite number",
                                          field=prefix + f.name)
        if self.variant == "ar2_kappa":
            if not (0.0 <= self.ext.rho2_x < 1.0):
                raise ValidationError("rho2_x must lie in [0, 1)",
                                      field="ext.rho2_x")
            if self.ext.rho1_x + self.ext.rho2_x >= 1.0:
                raise ValidationError(
                    "rho1_x + rho2_x must be < 1 (stationarity)",
                    field="ext.rho1_x")
        if self.variant in _SECOND_INPUT:
            if not abs(self.ext.rho_z) < 1.0:
                raise ValidationError("|rho_z| must be < 1 (stationarity)",
                                      field="ext.rho_z")
        for name in ("sigma_eps", "sigma_v", "sigma_alpha_fe", "sigma_pi_fe"):
            if getattr(self.ext, name) < 0.0:
                raise ValidationError("scale must be >= 0",
                                      field=f"ext.{name}")


@dataclass(frozen=True)
class PanelData:
    """Simulated observables plus every latent state and shock.

    Arrays are (n_firms, n_periods) and are frozen after creation; the
    generating spec is retained so estimators can read dimensions and tests
    can reconstruct the defining equations.
    """

    spec: DgpSpec
    y: np.ndarray
    x: np.ndarray
    omega: np.ndarray
    kappa: np.ndarray
    xi: np.ndarray
    u: np.ndarray
    eta: np.ndarray
    z: Optional[np.ndarray] = None
    wp: Optional[np.ndarray] = None
    eps: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    fe_alpha: Optional[np.ndarray] = None
    fe_pi: Optional[np.ndarray] = None

    def __post_init__(self):
        for f in fields(self):
            arr = getattr(self, f.name)
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False


#: Firms handled at once by the blocked loops (the nonlinear-kappa draw and
#: the CSV conversion); bounds their working memory.
_BLOCK_FIRMS = 2048


def _stream(seed: int, label: str) -> np.random.Generator:
    """The (seed, label) Philox sub-stream; the key is (seed, label id)."""
    key = np.array([seed, _LABEL_IDS[label]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The package's thread pool, created on first use: one worker per CPU
    the process may run on, and no more than the four (n, t) sub-streams a
    variant reads at most.  It serves ``draw_panel`` only, which fills its
    sub-streams on it.  No task waits on another, so every wait on it
    ends."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return ThreadPoolExecutor(min(4, cpus), thread_name_prefix="dynpan")


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _fill(seed: int, label: str, out: np.ndarray, scale: float) -> np.ndarray:
    """Fill ``out`` from the (seed, label) sub-stream, times ``scale``."""
    _stream(seed, label).standard_normal(out=out)
    return np.multiply(out, scale, out=out) if scale != 1.0 else out


#: Variants whose kappa follows a nonlinear recursion; they read "u" on the
#: calling thread, block by block (see ``_nonlinear_kappa``).
_NONLINEAR = ("logistic_kappa", "reversed_curvature")


def _substreams(spec: DgpSpec) -> list[tuple[str, object, float]]:
    """The variant's normal sub-streams as (label, shape, scale), in the
    order they are filled: the shocks the recursions need first, then the
    initial draws, and eta, which ``draw_panel`` needs last."""
    s, ext, variant = spec.structural, spec.ext, spec.variant
    n, t = spec.n_firms, spec.n_periods
    # predetermined latents carry one leading pre-sample period
    t_lat = t + 1 if variant == "predetermined" else t
    shocks = [("xi", (n, t_lat), s.sigma_xi)]
    inits = [("omega_init", n, 1.0)]
    if variant not in _NONLINEAR:
        shocks.append(("u", (n, t_lat), s.sigma_u))
        inits.append(("kappa_init", n, 1.0))
    if variant == "ar2_kappa":
        inits.append(("kappa_init2", n, 1.0))
    elif variant in _SECOND_INPUT:
        shocks.append(("v", (n, t), ext.sigma_v))
        inits.append(("wp_init" if variant == "multi_input" else "z_init",
                      n, 1.0))
    elif variant == "arma_x":
        shocks.append(("eps", (n, t), ext.sigma_eps))
    elif variant == "fixed_effects":
        inits += [("fe_alpha", n, ext.sigma_alpha_fe),
                  ("fe_pi", n, ext.sigma_pi_fe)]
    return shocks + inits + [("eta", (n, t), s.sigma_eta)]


def stationary_ar1_init(rho: float, sigma: float,
                        draw: np.ndarray | float) -> np.ndarray | float:
    """Scale a standard-normal draw to the stationary AR(1) marginal,
    draw * sigma / sqrt(1 - rho^2)."""
    if not abs(rho) < 1.0:
        raise ValidationError("|rho| must be < 1 for a stationary start",
                              field="rho")
    return draw * (sigma / np.sqrt(1.0 - rho * rho))


def _ar1(shocks, init, rho, sigma) -> np.ndarray:
    """Stationary AR(1) states driven by ``shocks`` (n, t), started from
    the standard-normal ``init`` (n,)."""
    states = np.empty_like(shocks)
    states[:, 0] = stationary_ar1_init(rho, sigma, init)
    for j in range(1, shocks.shape[1]):
        states[:, j] = rho * states[:, j - 1] + shocks[:, j]
    return states


def logistic_persistence(kappa: np.ndarray, theta2: float) -> np.ndarray:
    """Persistence factor exp(theta2|k|)/(1+exp(theta2|k|)), in [0.5, 1).

    Evaluated as 1/(1+exp(-theta2|k|)) so large states cannot overflow.
    """
    return 1.0 / (1.0 + np.exp(-theta2 * np.abs(kappa)))


def reversed_persistence(kappa: np.ndarray) -> np.ndarray:
    """Persistence factor 1 - exp(|k|)/(1+exp(|k|)), in (0, 0.5]."""
    return 1.0 - 1.0 / (1.0 + np.exp(-np.abs(kappa)))


def _nonlinear_kappa(seed, factor_fn, sigma, n, t):
    """Nonlinear kappa recursion k_t = f(k_{t-1})*k_{t-1} + u_t, burned in
    for BURN_IN periods from zero; returns (states, shocks) for the last
    ``t`` periods.  The (n, BURN_IN + t) shock rows are read from the "u"
    stream one firm block at a time (see the module docstring)."""
    gen = _stream(seed, "u")
    states = np.empty((n, t))
    kept = np.empty((n, t))
    for lo in range(0, n, _BLOCK_FIRMS):
        hi = min(lo + _BLOCK_FIRMS, n)
        shocks = gen.standard_normal((hi - lo, BURN_IN + t))
        if sigma != 1.0:
            shocks *= sigma
        k = np.zeros(hi - lo)
        for j in range(BURN_IN + t):
            k = factor_fn(k) * k + shocks[:, j]
            if j >= BURN_IN:
                states[lo:hi, j - BURN_IN] = k
        kept[lo:hi] = shocks[:, BURN_IN:]
    return states, kept


def _ar2(shocks, d0, d1, rho1, rho2, sigma) -> np.ndarray:
    """Stationary AR(2) states driven by ``shocks``; the first two columns
    are the exact joint stationary law applied to the standard normals
    ``d0`` and ``d1``."""
    denom = (1.0 + rho2) * ((1.0 - rho2) ** 2 - rho1 ** 2)
    g0 = sigma ** 2 * (1.0 - rho2) / denom
    g1 = g0 * rho1 / (1.0 - rho2)
    states = np.empty_like(shocks)
    states[:, 0] = np.sqrt(g0) * d0
    if g0 > 0.0:
        states[:, 1] = (g1 / g0) * states[:, 0] + np.sqrt(
            g0 - g1 * g1 / g0) * d1
    else:
        states[:, 1] = 0.0
    for j in range(2, shocks.shape[1]):
        states[:, j] = (rho1 * states[:, j - 1] + rho2 * states[:, j - 2]
                        + shocks[:, j])
    return states


def draw_panel(spec: DgpSpec) -> PanelData:
    """Simulate one panel; a pure function of the spec (seed included)."""
    spec.validate()
    s, ext, variant = spec.structural, spec.ext, spec.variant
    n, t, seed = spec.n_firms, spec.n_periods, spec.seed
    pool = _pool()
    fills = {label: pool.submit(_fill, seed, label, np.empty(shape), scale)
             for label, shape, scale in _substreams(spec)}

    def drawn(label: str) -> Optional[np.ndarray]:
        # each fill is read once and then dropped, so that the buffer's only
        # owner is the caller; None for a sub-stream the variant does not read
        return fills.pop(label).result() if label in fills else None

    alpha, z, wp = s.alpha, None, None
    fe_alpha = fe_pi = None
    if variant in _NONLINEAR:
        # "u" is read here, block by block, while the pool fills the rest
        factor = (reversed_persistence if variant == "reversed_curvature"
                  else lambda k: logistic_persistence(k, ext.theta2))
        kappa, u = _nonlinear_kappa(seed, factor, s.sigma_u, n, t)
    xi = drawn("xi")
    omega = _ar1(xi, drawn("omega_init"), s.rho_omega, s.sigma_xi)
    if variant not in _NONLINEAR:
        u = drawn("u")
    if variant == "ar2_kappa":
        kappa = _ar2(u, drawn("kappa_init"), drawn("kappa_init2"),
                     ext.rho1_x, ext.rho2_x, s.sigma_u)
    elif variant not in _NONLINEAR:
        kappa = _ar1(u, drawn("kappa_init"), s.rho_x, s.sigma_u)
    v, eps = drawn("v"), drawn("eps")

    if variant == "predetermined":
        x = s.pi + s.theta * s.rho_omega * omega[:, :-1] + kappa[:, :-1]
        # owned (n, t) copies; each (n, t + 1) array is released in turn
        omega = omega[:, 1:].copy()
        kappa = kappa[:, 1:].copy()
        xi = xi[:, 1:].copy()
        u = u[:, 1:].copy()
    elif variant == "multi_input":
        wp = _ar1(v, drawn("wp_init"), ext.rho_z, ext.sigma_v)
        x = (s.pi + ext.theta_omega * omega + ext.theta_kappa * kappa
             + ext.theta_wp * wp)
        z = (ext.pi_z + ext.delta_omega * omega + ext.delta_kappa * kappa
             + ext.delta_wp * wp)
    elif variant == "dynamic_input":
        z = _ar1(v, drawn("z_init"), ext.rho_z, ext.sigma_v)
        z += ext.pi_z
        x = s.pi + s.theta * omega + ext.theta_z * z + kappa
    elif variant == "fixed_effects":
        fe_alpha = s.alpha + drawn("fe_alpha")
        fe_pi = s.pi + drawn("fe_pi")
        alpha = fe_alpha[:, None]
        x = s.theta * omega
        x += fe_pi[:, None]
        x += kappa
    elif variant == "nonlinear_omega_input":
        x = s.pi + s.theta * omega + ext.theta2 * omega ** 2 + kappa
    elif variant == "arma_x":
        x = s.pi + s.theta * omega + kappa + eps
    else:
        # benchmark, logistic_kappa, ar2_kappa, reversed_curvature
        x = s.pi + s.theta * omega + kappa
    eta = drawn("eta")
    y = s.beta * x
    y += alpha
    if z is not None:
        y += ext.gamma * z
    y += omega
    y += eta
    return PanelData(spec=spec, y=y, x=x, z=z, omega=omega, kappa=kappa,
                     xi=xi, u=u, eta=eta, wp=wp, eps=eps, v=v,
                     fe_alpha=fe_alpha, fe_pi=fe_pi)


def write_panel_csv(panel: PanelData, path) -> None:
    """Write one row per (firm, period): firm,period,y,x[,z],omega,kappa,
    xi,u,eta[,eps].  UTF-8, LF line endings, full double precision: each
    value is ``repr`` of the double, the shortest decimal that round-trips
    it.  orjson's compiled writer formats a block of rows at once with the
    same digits; ``repr`` itself writes every row holding a value whose two
    notations differ (non-finite, 0 < |v| < 1e-4, |v| >= 1e16)."""
    # Imported here: orjson loads uuid and zoneinfo, which the CLI's start
    # and the scans never need.
    import orjson

    cols = [(name, getattr(panel, name)) for name in
            ("y", "x", "z", "omega", "kappa", "xi", "u", "eta", "eps")
            if getattr(panel, name) is not None]
    header = "firm,period," + ",".join(name for name, _ in cols)
    n_firms = panel.spec.n_firms
    periods = [f",{j}," for j in range(1, panel.spec.n_periods + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_firms, _BLOCK_FIRMS):
            rows = np.stack([arr[lo:lo + _BLOCK_FIRMS] for _, arr in cols],
                            axis=-1).reshape(-1, len(cols))
            lines = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY
                                 )[2:-2].decode().split("],[")
            mag = np.abs(rows)
            same = (rows == 0) | ((mag >= 1e-4) & (mag < 1e16))
            for r in np.flatnonzero(~same.all(axis=1)):
                lines[r] = ",".join(map(repr, rows[r].tolist()))
            firms = range(lo + 1, min(lo + _BLOCK_FIRMS, n_firms) + 1)
            keys = [f"{i}{j}" for i in firms for j in periods]
            fh.write("\n".join(map(operator.add, keys, lines)) + "\n")
