"""Tests for panel generation: determinism, equation fidelity, exports."""

import csv
import dataclasses
import hashlib
import json
import multiprocessing
import pathlib
import sys
import threading
import tracemalloc
import warnings

# first, so that run as a script it also sets the kernel baseline
import conftest
import numpy as np
import pytest

from dynpan import simulate
from dynpan.errors import ValidationError
from dynpan.model import StructuralParams
from dynpan.simulate import (
    BURN_IN,
    DgpSpec,
    VariantParams,
    draw_panel,
    logistic_persistence,
    reversed_persistence,
    stationary_ar1_init,
    write_panel_csv,
)
from oracles import panel_csv_text

BENCH = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5,
                         alpha=1.0, pi=0.0)


def spec_for(variant, n_firms=500, n_periods=5, seed=3, ext=None, s=BENCH):
    return DgpSpec(variant=variant, structural=s, n_firms=n_firms,
                   n_periods=n_periods, seed=seed,
                   ext=ext or VariantParams())


class TestStationaryInit:
    def test_white_noise_case(self):
        assert stationary_ar1_init(0.0, 1.0, 0.37) == 0.37

    def test_half_persistence(self):
        # closed-form stationary sd is 1/sqrt(1 - 0.25)
        assert stationary_ar1_init(0.5, 1.0, 1.0) == pytest.approx(
            1.0 / np.sqrt(0.75))

    def test_unit_root_rejected(self):
        with pytest.raises(ValidationError):
            stationary_ar1_init(1.0, 1.0, 0.5)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = draw_panel(spec_for("benchmark"))
        b = draw_panel(spec_for("benchmark"))
        for name in ("y", "x", "omega", "kappa", "xi", "u", "eta"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seeds_differ(self):
        a = draw_panel(spec_for("benchmark", seed=1))
        b = draw_panel(spec_for("benchmark", seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_firm_prefix_stability(self):
        # the first k rows do not depend on how many firms follow them
        big = draw_panel(spec_for("benchmark", n_firms=64))
        small = draw_panel(spec_for("benchmark", n_firms=16))
        for name in ("y", "x", "omega", "kappa", "xi", "u", "eta"):
            assert np.array_equal(getattr(big, name)[:16],
                                  getattr(small, name)), name

    @pytest.mark.parametrize("variant", ["logistic_kappa",
                                         "reversed_curvature"])
    def test_firm_prefix_stability_across_blocks(self, variant,
                                                 monkeypatch):
        # the nonlinear-kappa shocks are read in firm blocks; a block
        # boundary inside the prefix (at 5, 10, 15) changes nothing
        monkeypatch.setattr(simulate, "_BLOCK_FIRMS", 5)
        ext = VariantParams(theta2=0.5)
        big = draw_panel(spec_for(variant, n_firms=64, ext=ext))
        small = draw_panel(spec_for(variant, n_firms=16, ext=ext))
        for name in ("y", "x", "omega", "kappa", "xi", "u", "eta"):
            assert np.array_equal(getattr(big, name)[:16],
                                  getattr(small, name)), name

    def test_arrays_are_frozen(self):
        panel = draw_panel(spec_for("benchmark"))
        with pytest.raises(ValueError):
            panel.y[0, 0] = 0.0


def full_matrix_kappa(seed, factor_fn, sigma, n, t):
    """Reference nonlinear-kappa draw: the whole (n, BURN_IN + t) shock
    matrix at once, then the recursion over all firms together."""
    key = np.array([seed, 2], dtype=np.uint64)   # the "u" label
    gen = np.random.Generator(np.random.Philox(key=key))
    shocks = gen.standard_normal((n, BURN_IN + t))
    if sigma != 1.0:
        shocks = shocks * sigma
    k = np.zeros(n)
    states = np.empty((n, t))
    for j in range(BURN_IN + t):
        k = factor_fn(k) * k + shocks[:, j]
        if j >= BURN_IN:
            states[:, j - BURN_IN] = k
    return states, shocks[:, BURN_IN:]


NONLINEAR_CASES = [("logistic_kappa", VariantParams(theta2=0.5)),
                   ("reversed_curvature", VariantParams())]


class TestBlockedNonlinearKappa:
    BLOCK = 4

    @pytest.mark.parametrize("sigma_u", [1.0, 1.7, 0.0])
    @pytest.mark.parametrize("n_firms", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                         3 * BLOCK + 2])
    @pytest.mark.parametrize("variant,ext", NONLINEAR_CASES,
                             ids=[c[0] for c in NONLINEAR_CASES])
    def test_matches_full_matrix_draw(self, variant, ext, n_firms, sigma_u,
                                      monkeypatch):
        s = dataclasses.replace(BENCH, sigma_u=sigma_u)
        spec = spec_for(variant, n_firms=n_firms, ext=ext, s=s)
        monkeypatch.setattr(simulate, "_BLOCK_FIRMS", self.BLOCK)
        blocked = draw_panel(spec)
        monkeypatch.setattr(simulate, "_nonlinear_kappa", full_matrix_kappa)
        whole = draw_panel(spec)
        for f in dataclasses.fields(whole):
            want = getattr(whole, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(getattr(blocked, f.name), want), f.name

    @pytest.mark.parametrize("variant,ext", NONLINEAR_CASES,
                             ids=[c[0] for c in NONLINEAR_CASES])
    def test_shocks_own_their_data(self, variant, ext):
        panel = draw_panel(spec_for(variant, n_firms=7, n_periods=5, ext=ext))
        assert panel.u.shape == (7, 5)
        assert panel.u.base is None and panel.u.flags.owndata

    def test_draw_never_holds_the_burn_in_matrix(self):
        # 40,000 x 205 shocks would take 65.6 MB; the panel itself is seven
        # 40,000 x 5 arrays (11.2 MB)
        spec = spec_for("logistic_kappa", n_firms=40_000,
                        ext=VariantParams(theta2=0.5))
        tracemalloc.start()
        try:
            draw_panel(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25e6, peak


class TestFixedEffectsDraw:
    def test_firm_intercepts_are_added_in_place(self):
        # seven 40,000 x 5 arrays and the two intercept vectors take 11.9 MB;
        # one broadcast sum that is not in place adds 1.6 MB
        tracemalloc.start()
        try:
            draw_panel(spec_for("fixed_effects", n_firms=40_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12.7e6, peak


class TestZeroNoise:
    @pytest.mark.parametrize("variant", simulate.VARIANTS)
    def test_benchmark_collapses_to_constants(self, variant):
        # every scale at zero, with the AR(2) and curvature terms switched
        # on: ar2_kappa starts from its zero-variance stationary law
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5,
                             alpha=1.0, pi=0.3,
                             sigma_xi=0.0, sigma_u=0.0, sigma_eta=0.0)
        ext = VariantParams(rho2_x=0.2, theta2=0.5, sigma_eps=0.0,
                            sigma_v=0.0, sigma_alpha_fe=0.0,
                            sigma_pi_fe=0.0)
        panel = draw_panel(spec_for(variant, s=s, ext=ext))
        assert np.all(panel.x == 0.3)
        assert np.all(panel.y == 1.0 + 0.6 * 0.3)
        if panel.z is not None:  # at the default pi_z = 0
            assert np.all(panel.z == 0.0)


class TestMoments:
    def test_omega_lag1_autocorrelation(self):
        panel = draw_panel(spec_for("benchmark", n_firms=40_000, seed=11))
        w = panel.omega
        a, b = w[:, 1:].ravel(), w[:, :-1].ravel()
        r = np.corrcoef(a, b)[0, 1]
        assert r == pytest.approx(0.7, abs=0.01)


def reconstruct(panel):
    """Recompute (x, y) from stored latents with the generating expressions."""
    s, ext = panel.spec.structural, panel.spec.ext
    v = panel.spec.variant
    if v in ("benchmark", "logistic_kappa", "ar2_kappa", "reversed_curvature"):
        x = s.pi + s.theta * panel.omega + panel.kappa
        y = s.alpha + s.beta * x + panel.omega + panel.eta
    elif v == "nonlinear_omega_input":
        x = s.pi + s.theta * panel.omega + ext.theta2 * panel.omega ** 2 \
            + panel.kappa
        y = s.alpha + s.beta * x + panel.omega + panel.eta
    elif v == "arma_x":
        x = s.pi + s.theta * panel.omega + panel.kappa + panel.eps
        y = s.alpha + s.beta * x + panel.omega + panel.eta
    elif v == "fixed_effects":
        x = panel.fe_pi[:, None] + s.theta * panel.omega + panel.kappa
        y = panel.fe_alpha[:, None] + s.beta * x + panel.omega + panel.eta
    elif v == "multi_input":
        x = (s.pi + ext.theta_omega * panel.omega
             + ext.theta_kappa * panel.kappa + ext.theta_wp * panel.wp)
        z = (ext.pi_z + ext.delta_omega * panel.omega
             + ext.delta_kappa * panel.kappa + ext.delta_wp * panel.wp)
        y = s.alpha + s.beta * x + ext.gamma * z + panel.omega + panel.eta
        assert np.array_equal(z, panel.z)
    elif v == "dynamic_input":
        x = s.pi + s.theta * panel.omega + ext.theta_z * panel.z + panel.kappa
        y = s.alpha + s.beta * x + ext.gamma * panel.z + panel.omega + panel.eta
    elif v == "predetermined":
        # defined from lagged latents; first period needs the pre-sample state
        x = s.pi + s.theta * s.rho_omega * panel.omega[:, :-1] \
            + panel.kappa[:, :-1]
        y = s.alpha + s.beta * panel.x + panel.omega + panel.eta
        return x, y, panel.x[:, 1:]
    return x, y, panel.x


FIDELITY_CASES = [
    ("benchmark", VariantParams()),
    ("fixed_effects", VariantParams()),
    ("multi_input", VariantParams()),
    ("dynamic_input", VariantParams()),
    ("nonlinear_omega_input", VariantParams(theta2=0.5)),
    ("logistic_kappa", VariantParams(theta2=0.5)),
    ("ar2_kappa", VariantParams(rho1_x=0.5, rho2_x=0.3)),
    ("arma_x", VariantParams(sigma_eps=0.7)),
    ("reversed_curvature", VariantParams()),
    ("predetermined", VariantParams()),
]


class TestEquationFidelity:
    @pytest.mark.parametrize("variant,ext", FIDELITY_CASES,
                             ids=[c[0] for c in FIDELITY_CASES])
    def test_observables_rebuild_bitwise(self, variant, ext):
        panel = draw_panel(spec_for(variant, ext=ext, n_periods=6))
        x, y, x_stored = reconstruct(panel)
        assert np.array_equal(x, x_stored)
        assert np.array_equal(y, panel.y)

    @pytest.mark.parametrize("variant,ext", FIDELITY_CASES,
                             ids=[c[0] for c in FIDELITY_CASES])
    def test_omega_recursion_exact(self, variant, ext):
        panel = draw_panel(spec_for(variant, ext=ext, n_periods=6))
        s = panel.spec.structural
        lhs = panel.omega[:, 1:]
        rhs = s.rho_omega * panel.omega[:, :-1] + panel.xi[:, 1:]
        assert np.array_equal(lhs, rhs)

    def test_kappa_recursions_exact(self):
        s = BENCH
        p = draw_panel(spec_for("benchmark"))
        assert np.array_equal(p.kappa[:, 1:],
                              s.rho_x * p.kappa[:, :-1] + p.u[:, 1:])
        ext = VariantParams(theta2=0.5)
        p = draw_panel(spec_for("logistic_kappa", ext=ext))
        assert np.array_equal(
            p.kappa[:, 1:],
            logistic_persistence(p.kappa[:, :-1], 0.5) * p.kappa[:, :-1]
            + p.u[:, 1:])
        p = draw_panel(spec_for("reversed_curvature"))
        assert np.array_equal(
            p.kappa[:, 1:],
            reversed_persistence(p.kappa[:, :-1]) * p.kappa[:, :-1]
            + p.u[:, 1:])
        ext = VariantParams(rho1_x=0.5, rho2_x=0.3)
        p = draw_panel(spec_for("ar2_kappa", ext=ext))
        assert np.array_equal(
            p.kappa[:, 2:],
            0.5 * p.kappa[:, 1:-1] + 0.3 * p.kappa[:, :-2] + p.u[:, 2:])

    def test_predetermined_is_time_t_minus_1_measurable(self):
        panel = draw_panel(spec_for("predetermined"))
        s = panel.spec.structural
        rebuilt = s.pi + s.theta * s.rho_omega * panel.omega[:, :-1] \
            + panel.kappa[:, :-1]
        assert np.array_equal(rebuilt, panel.x[:, 1:])

    def test_predetermined_latents_own_their_data(self):
        # the latents carry a leading pre-sample period that the panel drops;
        # each kept array is an owned copy equal to the last n_periods
        # columns of the (n, n_periods + 1) recursion
        spec = spec_for("predetermined", n_firms=7, n_periods=5)
        panel = draw_panel(spec)
        s = spec.structural
        omega, xi = plain_ar1(spec.seed, "xi", "omega_init", s.rho_omega,
                              s.sigma_xi, 7, 6)
        kappa, u = plain_ar1(spec.seed, "u", "kappa_init", s.rho_x,
                             s.sigma_u, 7, 6)
        for name, full in (("omega", omega), ("xi", xi), ("kappa", kappa),
                           ("u", u)):
            arr = getattr(panel, name)
            assert arr.shape == (7, 5), name
            assert arr.base is None and arr.flags.c_contiguous, name
            assert np.array_equal(arr, full[:, 1:]), name


def plain_normal(seed, label, shape, scale=1.0):
    """The (seed, label) stream drawn as one new array, times scale."""
    draw = simulate._stream(seed, label).standard_normal(shape)
    return draw * scale if scale != 1.0 else draw


def plain_ar1(seed, shock, init, rho, sigma, n, t):
    """Stationary AR(1) (states, shocks), one new array per step."""
    shocks = plain_normal(seed, shock, (n, t), sigma)
    states = np.empty((n, t))
    states[:, 0] = stationary_ar1_init(rho, sigma, plain_normal(seed, init, n))
    for j in range(1, t):
        states[:, j] = rho * states[:, j - 1] + shocks[:, j]
    return states, shocks


def plain_ar2(seed, rho1, rho2, sigma, n, t):
    """Stationary AR(2) (states, shocks) for sigma > 0, started from the
    exact joint law of its first two periods."""
    shocks = plain_normal(seed, "u", (n, t), sigma)
    g0 = sigma ** 2 * (1.0 - rho2) / (
        (1.0 + rho2) * ((1.0 - rho2) ** 2 - rho1 ** 2))
    g1 = g0 * rho1 / (1.0 - rho2)
    states = np.empty((n, t))
    states[:, 0] = np.sqrt(g0) * plain_normal(seed, "kappa_init", n)
    states[:, 1] = (g1 / g0) * states[:, 0] + np.sqrt(
        g0 - g1 * g1 / g0) * plain_normal(seed, "kappa_init2", n)
    for j in range(2, t):
        states[:, j] = (rho1 * states[:, j - 1] + rho2 * states[:, j - 2]
                        + shocks[:, j])
    return states, shocks


def old_draw(spec):
    """Every array of the panel by the plain expressions draw_panel used
    before it built them in place: each stream drawn as draw * scale, the
    AR(1) step as a new array assigned to its column, x and y (and z)
    summed in one expression each, every stream read in sequence."""
    s, ext, v = spec.structural, spec.ext, spec.variant
    n, t, seed = spec.n_firms, spec.n_periods, spec.seed

    def normal(label, shape, scale=1.0):
        return plain_normal(seed, label, shape, scale)

    def ar1(shock, init, rho, sigma, t):
        return plain_ar1(seed, shock, init, rho, sigma, n, t)

    out = {"eta": normal("eta", (n, t), s.sigma_eta)}
    eta = out["eta"]
    if v == "predetermined":
        omega_all, xi_all = ar1("xi", "omega_init", s.rho_omega, s.sigma_xi,
                                t + 1)
        kappa_all, u_all = ar1("u", "kappa_init", s.rho_x, s.sigma_u, t + 1)
        x = s.pi + s.theta * s.rho_omega * omega_all[:, :-1] \
            + kappa_all[:, :-1]
        omega = omega_all[:, 1:]
        out.update(omega=omega, xi=xi_all[:, 1:], kappa=kappa_all[:, 1:],
                   u=u_all[:, 1:], x=x, y=s.alpha + s.beta * x + omega + eta)
        return out
    omega, xi = ar1("xi", "omega_init", s.rho_omega, s.sigma_xi, t)
    if v == "logistic_kappa":
        kappa, u = simulate._nonlinear_kappa(
            seed, lambda k: logistic_persistence(k, ext.theta2), s.sigma_u,
            n, t)
    elif v == "reversed_curvature":
        kappa, u = simulate._nonlinear_kappa(seed, reversed_persistence,
                                             s.sigma_u, n, t)
    elif v == "ar2_kappa":
        kappa, u = plain_ar2(seed, ext.rho1_x, ext.rho2_x, s.sigma_u, n, t)
    else:
        kappa, u = ar1("u", "kappa_init", s.rho_x, s.sigma_u, t)
    out.update(omega=omega, xi=xi, kappa=kappa, u=u)
    if v == "multi_input":
        wp, out["v"] = ar1("v", "wp_init", ext.rho_z, ext.sigma_v, t)
        x = (s.pi + ext.theta_omega * omega + ext.theta_kappa * kappa
             + ext.theta_wp * wp)
        z = (ext.pi_z + ext.delta_omega * omega + ext.delta_kappa * kappa
             + ext.delta_wp * wp)
        y = s.alpha + s.beta * x + ext.gamma * z + omega + eta
        out.update(wp=wp, z=z)
    elif v == "dynamic_input":
        z_dev, out["v"] = ar1("v", "z_init", ext.rho_z, ext.sigma_v, t)
        z = ext.pi_z + z_dev
        x = s.pi + s.theta * omega + ext.theta_z * z + kappa
        y = s.alpha + s.beta * x + ext.gamma * z + omega + eta
        out["z"] = z
    elif v == "fixed_effects":
        fe_alpha = s.alpha + normal("fe_alpha", n, ext.sigma_alpha_fe)
        fe_pi = s.pi + normal("fe_pi", n, ext.sigma_pi_fe)
        x = fe_pi[:, None] + s.theta * omega + kappa
        y = fe_alpha[:, None] + s.beta * x + omega + eta
        out.update(fe_alpha=fe_alpha, fe_pi=fe_pi)
    else:
        if v == "nonlinear_omega_input":
            x = s.pi + s.theta * omega + ext.theta2 * omega ** 2 + kappa
        elif v == "arma_x":
            out["eps"] = normal("eps", (n, t), ext.sigma_eps)
            x = s.pi + s.theta * omega + kappa + out["eps"]
        else:
            x = s.pi + s.theta * omega + kappa
        y = s.alpha + s.beta * x + omega + eta
    out.update(x=x, y=y)
    return out


#: Non-unit scales and loadings, so that no term of an expression is exact.
ODD_SCALES = dataclasses.replace(BENCH, pi=0.3, sigma_xi=0.7, sigma_u=1.3,
                                 sigma_eta=0.9)
ODD_EXT = VariantParams(theta2=0.4, rho1_x=0.45, rho2_x=0.25, sigma_eps=0.6,
                        gamma=0.35, theta_omega=1.1, theta_kappa=0.9,
                        theta_wp=0.55, delta_omega=0.8, delta_kappa=0.45,
                        delta_wp=1.2, rho_z=0.35, sigma_v=1.15, theta_z=0.6,
                        pi_z=0.2, sigma_alpha_fe=0.8, sigma_pi_fe=1.25)


class TestInPlaceDraw:
    @pytest.mark.parametrize("variant", simulate.VARIANTS)
    @pytest.mark.parametrize("n_firms", [1, 601])
    def test_matches_plain_expressions(self, variant, n_firms):
        spec = spec_for(variant, n_firms=n_firms, ext=ODD_EXT, s=ODD_SCALES)
        panel = draw_panel(spec)
        want = old_draw(spec)
        for f in dataclasses.fields(panel):
            got = getattr(panel, f.name)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want.pop(f.name)), f.name
        assert not want


#: sha256 of every array of every variant at seed 11; n_firms straddles the
#: _BLOCK_FIRMS edges of the blocked nonlinear-kappa draw.  Recorded with
#: :func:`array_digests`: ``PYTHONPATH=src python tests/test_simulate.py``
#: prints the file.
PINNED = json.loads((pathlib.Path(__file__).parent
                     / "panel_sha256.json").read_text())
PINNED_FIRMS = (1, 2048, 2049, 4097)
#: Extension values that make every extra stream count: the logistic slope,
#: the AR(2) second lag and the i.i.d. input shock.
PINNED_EXT = VariantParams(theta2=0.5, rho2_x=0.2, sigma_eps=0.5)


def pinned_panel(variant, n_firms):
    return draw_panel(spec_for(variant, n_firms=n_firms, seed=11,
                               ext=PINNED_EXT))


def array_digests(panel):
    return {f.name: hashlib.sha256(
                np.ascontiguousarray(getattr(panel, f.name)).tobytes()
            ).hexdigest()
            for f in dataclasses.fields(panel)
            if isinstance(getattr(panel, f.name), np.ndarray)}


class TestPinnedBits:
    @pytest.mark.parametrize("n_firms", PINNED_FIRMS)
    @pytest.mark.parametrize("variant", simulate.VARIANTS)
    def test_every_array_matches_its_recorded_hash(self, variant, n_firms):
        assert (array_digests(pinned_panel(variant, n_firms))
                == PINNED[f"{variant}-{n_firms}"])


def send_digests(spec, conn):
    conn.send(array_digests(draw_panel(spec)))
    conn.close()


class TestConcurrentFills:
    """The sub-streams are filled on a module-level thread pool; no caller
    can tell."""

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method on this platform")
    def test_forked_child_draws_the_same_bytes(self):
        spec = spec_for("multi_input", n_firms=3000, seed=11)
        # the parent's pool has started its workers before the fork
        want = array_digests(draw_panel(spec))
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_digests, args=(spec, send))
        child.start()
        send.close()
        try:
            assert recv.poll(30), "the forked child's draw did not finish"
            got = recv.recv()
            child.join(30)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert got == want

    def test_four_threads_draw_what_sequential_draws_give(self):
        # as the figure command's scans do, each on its own thread; more
        # threads than cores, switching often
        specs = [spec_for(v, n_firms=3000, seed=11, ext=PINNED_EXT)
                 for v in ("benchmark", "multi_input", "predetermined",
                           "logistic_kappa")]
        want = [array_digests(draw_panel(spec)) for spec in specs]
        got = [None] * len(specs)
        start = threading.Barrier(len(specs))

        def draw(i):
            start.wait()
            got[i] = array_digests(draw_panel(specs[i]))

        threads = [threading.Thread(target=draw, args=(i,))
                   for i in range(len(specs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want


class TestValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValidationError, match="variant"):
            draw_panel(spec_for("no_such_model"))

    def test_too_few_periods(self):
        with pytest.raises(ValidationError, match="n_periods"):
            draw_panel(spec_for("benchmark", n_periods=3))
        with pytest.raises(ValidationError, match="n_periods"):
            draw_panel(spec_for("fixed_effects", n_periods=4))

    @pytest.mark.parametrize("field, value, message", [
        ("n_firms", 0, "n_firms must be >= 1"),
        ("seed", -1, "seed must fit in 64 unsigned bits"),
        ("seed", 2 ** 64, "seed must fit in 64 unsigned bits"),
    ])
    def test_firm_count_and_seed_range(self, field, value, message):
        spec = dataclasses.replace(spec_for("benchmark"), **{field: value})
        with pytest.raises(ValidationError) as err:
            spec.validate()
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"

    def test_ar2_stationarity(self):
        with pytest.raises(ValidationError, match="rho1_x"):
            draw_panel(spec_for("ar2_kappa",
                                ext=VariantParams(rho1_x=0.5, rho2_x=0.5)))
        with pytest.raises(ValidationError, match="rho2_x"):
            draw_panel(spec_for("ar2_kappa",
                                ext=VariantParams(rho2_x=-0.1)))

    @pytest.mark.parametrize("rho1, rho2", [(-1.5, 0.0), (-0.6, 0.4)])
    def test_ar2_outside_the_triangle_is_rejected(self, rho1, rho2):
        # rho2_x - rho1_x >= 1: a negative stationary variance at
        # (-1.5, 0), a zero one's denominator at (-0.6, 0.4)
        spec = spec_for("ar2_kappa",
                        ext=VariantParams(rho1_x=rho1, rho2_x=rho2))
        with pytest.raises(ValidationError) as err:
            spec.validate()
        assert err.value.field == "ext.rho1_x"

    def test_every_accepted_ar2_pair_draws_finite_kappa(self):
        accepted = 0
        for rho1 in np.round(np.arange(-1.2, 1.2001, 0.1), 10):
            for rho2 in np.round(np.arange(0.0, 0.9001, 0.1), 10):
                spec = spec_for("ar2_kappa", n_firms=200,
                                ext=VariantParams(rho1_x=rho1, rho2_x=rho2))
                try:
                    spec.validate()
                except ValidationError:
                    continue
                accepted += 1
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    kappa = draw_panel(spec).kappa
                assert np.isfinite(kappa).all(), (rho1, rho2)
        assert accepted == 100

    def test_rho_z_stationarity(self):
        with pytest.raises(ValidationError, match="rho_z"):
            draw_panel(spec_for("multi_input", ext=VariantParams(rho_z=1.0)))

    def test_negative_scale(self):
        with pytest.raises(ValidationError, match="sigma_eps"):
            draw_panel(spec_for("arma_x", ext=VariantParams(sigma_eps=-1.0)))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["beta", "theta", "alpha", "pi",
                                      "sigma_xi", "sigma_eta"])
    def test_non_finite_structural_number(self, name, value):
        s = dataclasses.replace(BENCH, **{name: value})
        with pytest.raises(ValidationError, match="finite") as err:
            draw_panel(spec_for("benchmark", s=s))
        assert err.value.field == name

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["theta2", "gamma", "sigma_v", "pi_z"])
    def test_non_finite_ext_number(self, name, value):
        # every ext field is checked, whichever variant reads it
        ext = VariantParams(**{name: value})
        with pytest.raises(ValidationError, match="finite") as err:
            draw_panel(spec_for("benchmark", ext=ext))
        assert err.value.field == f"ext.{name}"


class TestCsvExport:
    def test_round_trip_and_header(self, tmp_path):
        panel = draw_panel(spec_for("benchmark", n_firms=3, n_periods=4))
        out = tmp_path / "panel.csv"
        write_panel_csv(panel, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["firm", "period", "y", "x", "omega", "kappa",
                           "xi", "u", "eta"]
        assert len(rows) == 1 + 3 * 4
        # full-precision round trip
        for row in rows[1:]:
            i, j = int(row[0]) - 1, int(row[1]) - 1
            assert float(row[2]) == panel.y[i, j]
            assert float(row[3]) == panel.x[i, j]

    def test_z_and_eps_columns_present_when_defined(self, tmp_path):
        panel = draw_panel(spec_for("multi_input", n_firms=2, n_periods=4))
        out = tmp_path / "mi.csv"
        write_panel_csv(panel, out)
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert "z" in header
        panel = draw_panel(spec_for("arma_x", n_firms=2, n_periods=4,
                                    ext=VariantParams(sigma_eps=0.5)))
        write_panel_csv(panel, out)
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header[-1] == "eps"

    def test_bytes_match_per_element_formatting(self, tmp_path):
        # z and eps both present, and more firms than one block of rows
        panel = draw_panel(spec_for("multi_input", n_firms=2100,
                                    n_periods=4))
        panel = dataclasses.replace(panel, eps=-panel.u)
        out = tmp_path / "p.csv"
        write_panel_csv(panel, out)
        want = panel_csv_text(panel)
        assert want.startswith("firm,period,y,x,z,omega,kappa,xi,u,eta,eps\n")
        assert out.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("n_periods", [4, 7])
    def test_values_where_notations_differ_match_repr(self, tmp_path,
                                                      n_periods):
        # repr writes exponent notation below 1e-4 and from 1e16 up, and
        # nan/inf: y and eps carry each such value and its neighbour across
        # the switch, in rows whose other series are ordinary draws.  Every
        # other row holds random finite doubles in every series: random
        # sign and mantissa bits, the binary exponent spanning both switches
        # (2^-17 to 2^56), and one in a hundred any finite bit pattern.
        # 2049 firms make two blocks of rows.
        panel = draw_panel(spec_for("multi_input", n_firms=2049,
                                    n_periods=n_periods))
        panel = dataclasses.replace(panel, eps=-panel.u)
        special = np.array([np.nan, np.inf, 0.0, 5e-324,
                            np.nextafter(1e-4, 0.0), 1e-4,
                            np.nextafter(1e16, 0.0), 1e16,
                            np.finfo(np.float64).max])
        special = np.concatenate([special, -special])
        m = len(special)
        rng = np.random.default_rng(n_periods)
        series = {}
        for name in ("y", "x", "z", "omega", "kappa", "xi", "u", "eta",
                     "eps"):
            bits = rng.integers(0, 2 ** 64, size=panel.y.size - 2 * m,
                                dtype=np.uint64)
            exponent = rng.integers(1023 - 17, 1023 + 57, size=bits.size,
                                    dtype=np.uint64)
            banded = ((bits & ~np.uint64(0x7FF << 52))
                      | (exponent << np.uint64(52)))
            values = np.where(rng.random(bits.size) < 0.01, bits,
                              banded).view(np.float64)
            arr = getattr(panel, name).copy()
            arr.flat[m:-m] = np.where(np.isfinite(values), values, 0.5)
            series[name] = arr
        series["y"].flat[:m] = special
        series["eps"].flat[-m:] = special
        panel = dataclasses.replace(panel, **series)
        out = tmp_path / "p.csv"
        write_panel_csv(panel, out)
        assert out.read_bytes() == panel_csv_text(panel).encode("utf-8")

    def test_lf_line_endings(self, tmp_path):
        panel = draw_panel(spec_for("benchmark", n_firms=2, n_periods=4))
        out = tmp_path / "p.csv"
        write_panel_csv(panel, out)
        data = out.read_bytes()
        assert b"\r" not in data


if __name__ == "__main__":
    print(json.dumps({
        f"{variant}-{n_firms}": array_digests(pinned_panel(variant, n_firms))
        for variant in simulate.VARIANTS for n_firms in PINNED_FIRMS},
        indent=1, sort_keys=True))
