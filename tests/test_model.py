"""Tests for the closed-form structural <-> reduced-form maps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dynpan import model
from dynpan.errors import (
    DegenerateReducedFormError,
    DynpanError,
    InternalConsistencyError,
    NoEndogeneityError,
    ValidationError,
)
from dynpan.model import (
    ROUND_TRIP_TOL,
    ParamPoint,
    ReducedFormParams,
    StructuralParams,
    flat_locus_residual,
    forward_map,
    invert_reduced_form,
    pseudo_point,
)
from oracles import cramer_intercepts

BENCH = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5,
                         alpha=1.0, pi=0.0)

# Hand evaluation of the forward-map formulas at BENCH:
#   d = 0.2; pi_yy = 0.7 + 0.6*0.2 = 0.82; pi_yx = -0.6*1.6*0.2 = -0.192
#   pi_xy = 0.2; pi_xx = 0.5 - 0.12 = 0.38; pi_y0 = 0.3 - 0.12 = 0.18
#   pi_x0 = -0.2
BENCH_RF = (0.18, 0.82, -0.192, -0.2, 0.2, 0.38)


def draw_params(rng, require_gap=True):
    """Random structural parameters with enough separation that the
    inversion is numerically well conditioned."""
    while True:
        s = StructuralParams(
            beta=rng.uniform(-2.0, 3.0),
            theta=rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.5),
            rho_omega=rng.uniform(-0.9, 0.9),
            rho_x=rng.uniform(-0.9, 0.9),
            alpha=rng.uniform(-2.0, 2.0),
            pi=rng.uniform(-2.0, 2.0),
        )
        if not require_gap or abs(s.rho_omega - s.rho_x) >= 0.05:
            return s


class TestForwardMap:
    def test_worked_example(self):
        r = forward_map(BENCH)
        expected = dict(zip(
            ("pi_y0", "pi_yy", "pi_yx", "pi_x0", "pi_xy", "pi_xx"), BENCH_RF))
        for name, want in expected.items():
            assert getattr(r, name) == pytest.approx(want, abs=1e-15)

    def test_equal_persistence_kills_cross_terms(self):
        s = StructuralParams(beta=1.3, theta=-0.7, rho_omega=0.4, rho_x=0.4,
                             alpha=0.2, pi=1.1)
        r = forward_map(s)
        assert r.pi_yx == 0.0
        assert r.pi_xy == 0.0
        assert r.pi_yy == pytest.approx(0.4)
        assert r.pi_xx == pytest.approx(0.4)

    def test_pseudo_branch_is_observationally_equivalent(self):
        # The second solution produces the same six coefficients.
        other = StructuralParams(beta=1.6, theta=-1.0, rho_omega=0.5,
                                 rho_x=0.7, alpha=1.0, pi=0.0)
        a, b = forward_map(BENCH), forward_map(other)
        assert a.as_tuple() == pytest.approx(b.as_tuple(), abs=1e-14)

    def test_denominator_identity(self):
        # 1 - (pi_xx + pi_yy) + (pi_xx pi_yy - pi_yx pi_xy)
        #   == (1 - rho_omega)(1 - rho_x) for any parameters.
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = draw_params(rng, require_gap=False)
            r = forward_map(s)
            lhs = (1.0 - (r.pi_xx + r.pi_yy)
                   + (r.pi_xx * r.pi_yy - r.pi_yx * r.pi_xy))
            rhs = (1.0 - s.rho_omega) * (1.0 - s.rho_x)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestInvertReducedForm:
    def test_worked_example_both_branches(self):
        r = ReducedFormParams(*BENCH_RF)
        plus, minus = invert_reduced_form(r)
        assert plus.branch_sign == "plus"
        p = plus.params
        assert (p.theta, p.beta, p.rho_omega, p.rho_x, p.pi, p.alpha) == \
            pytest.approx((1.0, 0.6, 0.7, 0.5, 0.0, 1.0), abs=1e-10)
        m = minus.params
        assert (m.theta, m.beta, m.rho_omega, m.rho_x, m.pi, m.alpha) == \
            pytest.approx((-1.0, 1.6, 0.5, 0.7, 0.0, 1.0), abs=1e-10)
        # both branches reproduce the input coefficients
        for br in (plus, minus):
            assert forward_map(br.params).as_tuple() == \
                pytest.approx(r.as_tuple(), abs=1e-10)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            s = draw_params(rng)
            plus, minus = invert_reduced_form(forward_map(s))
            match = plus if plus.params.theta * s.theta > 0 else minus
            got = match.params
            for name in ("beta", "theta", "rho_omega", "rho_x", "alpha", "pi"):
                assert getattr(got, name) == pytest.approx(
                    getattr(s, name), abs=1e-10), name

    def test_theta_branches_are_exact_negatives(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = draw_params(rng)
            plus, minus = invert_reduced_form(forward_map(s))
            assert plus.params.theta == -minus.params.theta

    def test_branch_swap_matches_pseudo_point(self):
        # The off-truth branch carries (alpha - pi/theta, beta + 1/theta,
        # rho_x) and swaps the two persistence parameters.
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = draw_params(rng)
            plus, minus = invert_reduced_form(forward_map(s))
            truth = plus if plus.params.theta * s.theta > 0 else minus
            other = minus if truth is plus else plus
            pp = pseudo_point(s)
            assert other.params.beta == pytest.approx(pp.beta, abs=1e-9)
            assert other.params.alpha == pytest.approx(pp.alpha, abs=1e-9)
            assert other.params.rho_omega == pytest.approx(s.rho_x, abs=1e-9)
            assert other.params.rho_x == pytest.approx(s.rho_omega, abs=1e-9)
            assert truth.params.beta == pytest.approx(s.beta, abs=1e-9)

    def test_no_cross_terms_is_degenerate(self):
        r = ReducedFormParams(pi_y0=0.1, pi_yy=0.8, pi_yx=0.0,
                              pi_x0=0.0, pi_xy=0.0, pi_xx=0.5)
        with pytest.raises(DegenerateReducedFormError):
            invert_reduced_form(r)

    def test_zero_pi_xy_raises_no_endogeneity(self):
        r = ReducedFormParams(pi_y0=0.1, pi_yy=0.8, pi_yx=0.3,
                              pi_x0=0.0, pi_xy=0.0, pi_xx=0.5)
        with pytest.raises(NoEndogeneityError):
            invert_reduced_form(r)

    def test_non_stationary_branch_names_itself(self):
        # an estimated reduced form can imply a persistence outside (-1, 1);
        # that is a property of the fit, not a bad configuration
        r = ReducedFormParams(0.1, 1.05, -0.05, 0.0, 0.3, 0.6)
        with pytest.raises(DegenerateReducedFormError,
                           match=r"plus branch is not stationary: its "
                                 r"estimated rho_omega = 1\.01\d* lies "
                                 r"outside \(-1, 1\)"):
            invert_reduced_form(r)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.builds(ReducedFormParams,
                     pi_y0=st.floats(-5.0, 5.0), pi_yy=st.floats(-0.9, 0.9),
                     pi_yx=st.floats(-1.0, 1.0), pi_x0=st.floats(-5.0, 5.0),
                     pi_xy=st.floats(-1.0, 1.0), pi_xx=st.floats(-0.9, 0.9)))
    def test_intercepts_match_the_cramer_solve(self, r):
        # any reduced form that inverts into two stationary branches, kept
        # away from pi_xy = 0, equal persistence and a unit root
        assume(abs(r.pi_xy) >= 0.05 and r.discriminant() >= 0.01)
        half_gap = 0.5 * math.sqrt(r.discriminant())
        assume(abs(0.5 * (r.pi_yy + r.pi_xx)) + half_gap <= 0.95)
        for br in invert_reduced_form(r):
            p = br.params
            pi, alpha, det = cramer_intercepts(r, p.beta, p.rho_x)
            assert abs(det - (1.0 - p.rho_x) * (1.0 - p.rho_omega)) <= 1e-12
            for got, want in ((p.alpha, alpha), (p.pi, pi)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("alpha", [1.0, 100.0])
    def test_round_trip_guard_applies_its_relative_bound(self, monkeypatch,
                                                         alpha):
        # a forward map off by `shift` in pi_yy: the guard raises past
        # ROUND_TRIP_TOL times max(1, max |coefficient|), and not below it
        r = forward_map(dataclasses.replace(BENCH, alpha=alpha))
        scale = max(1.0, max(abs(v) for v in r.as_tuple()))
        assert (scale > 1.0) == (alpha > 1.0)  # 20 = |pi_x0| at alpha 100
        original = model.forward_map
        shift = 0.0

        def shifted(s):
            back = original(s)
            return dataclasses.replace(back, pi_yy=back.pi_yy + shift)

        monkeypatch.setattr(model, "forward_map", shifted)
        shift = 2.0 * ROUND_TRIP_TOL * scale
        with pytest.raises(InternalConsistencyError,
                           match="plus branch fails the round-trip guard"):
            invert_reduced_form(r)
        shift = 0.5 * ROUND_TRIP_TOL * scale
        plus, minus = invert_reduced_form(r)
        assert (plus.branch_sign, minus.branch_sign) == ("plus", "minus")

    def test_negative_discriminant_raises(self):
        r = ReducedFormParams(pi_y0=0.0, pi_yy=0.5, pi_yx=-1.0,
                              pi_x0=0.0, pi_xy=1.0, pi_xx=0.5)
        assert r.discriminant() < 0
        with pytest.raises(DegenerateReducedFormError):
            invert_reduced_form(r)


class TestPseudoPoint:
    def test_benchmark_location(self):
        p = pseudo_point(BENCH)
        assert (p.alpha, p.beta, p.rho) == pytest.approx((1.0, 1.6, 0.5))

    def test_large_theta_limit(self):
        s = StructuralParams(beta=0.6, theta=1e12, rho_omega=0.7, rho_x=0.5,
                             alpha=1.0, pi=0.0)
        assert pseudo_point(s).beta == pytest.approx(0.6, abs=1e-11)

    def test_negative_theta_with_intercept(self):
        # alpha - pi/theta = 1 - 0.3/(-1) = 1.3; beta + 1/theta = -0.4
        s = StructuralParams(beta=0.6, theta=-1.0, rho_omega=0.7, rho_x=0.5,
                             alpha=1.0, pi=0.3)
        p = pseudo_point(s)
        assert (p.alpha, p.beta, p.rho) == pytest.approx((1.3, -0.4, 0.5))

    def test_zero_theta_rejected(self):
        s = StructuralParams(beta=0.6, theta=0.0, rho_omega=0.7, rho_x=0.5)
        with pytest.raises(DynpanError):
            pseudo_point(s)


class TestFlatLocus:
    def test_truth_is_on_locus(self):
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.5, rho_x=0.5,
                             alpha=1.0, pi=0.7)
        p = ParamPoint(alpha=1.0, beta=0.6, rho=0.5)
        assert flat_locus_residual(p, s) == 0.0

    def test_zero_input_intercept_makes_locus_beta_free(self):
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.5, rho_x=0.5,
                             alpha=1.0, pi=0.0)
        p = ParamPoint(alpha=1.0, beta=7.3, rho=0.5)
        assert flat_locus_residual(p, s) == 0.0

    def test_hand_worked_point(self):
        # (1 - 1.6)*(0.5) + (0.6 - 0)*1*(0.5) = 0
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.5, rho_x=0.5,
                             alpha=1.0, pi=1.0)
        p = ParamPoint(alpha=1.6, beta=0.0, rho=0.5)
        assert flat_locus_residual(p, s) == pytest.approx(0.0, abs=1e-15)

    def test_off_locus_is_nonzero(self):
        s = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.5, rho_x=0.5,
                             alpha=1.0, pi=1.0)
        p = ParamPoint(alpha=2.0, beta=0.0, rho=0.5)
        assert abs(flat_locus_residual(p, s)) > 0.01

    def test_precondition_violations(self):
        uneq = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5)
        with pytest.raises(ValidationError):
            flat_locus_residual(ParamPoint(1.0, 0.6, 0.7), uneq)
        eq = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.5, rho_x=0.5)
        with pytest.raises(ValidationError):
            flat_locus_residual(ParamPoint(1.0, 0.6, 0.7), eq)


class TestValidation:
    def test_nonstationary_rho_rejected(self):
        with pytest.raises(ValidationError):
            StructuralParams(beta=0.6, theta=1.0, rho_omega=1.0, rho_x=0.5)
        with pytest.raises(ValidationError):
            StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=-1.2)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValidationError):
            StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5,
                             sigma_eta=-0.1)

    def test_stationary_boundary_message_names_field(self):
        with pytest.raises(ValidationError, match="rho_x"):
            StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=1.5)
