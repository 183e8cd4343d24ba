import numpy as np
import pytest

import biopt.acceptance
from biopt import (AcceptedPoint, InvariantViolation, build_builtin,
                   build_example_1d, build_logbar, build_quadratic,
                   check_lemma_properties, evaluate, exact_sprox_1d,
                   rel_smooth_params, solve_acceptable)
from biopt.acceptance import ACCEPTANCE_ABS, ACCEPTANCE_REL, acceptable

from helpers import fd_grad


def reg_value_grad(inst, anchor, H, p, x):
    ev = evaluate(inst, anchor, H, p, x)
    return ev.reg_value, ev.reg_grad


class TestRegValueGrad:
    def test_frozen_1d(self):
        # f = x^2/2, anchor 1, H = 1, p = 3: at x = 2 value 2 + 1/4, grad 2 + 1
        inst = build_example_1d()
        v, g = reg_value_grad(inst, np.array([1.0]), 1.0, 3, np.array([2.0]))
        assert v == pytest.approx(2.25)
        assert g[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_grad_matches_fd(self, p):
        rng = np.random.default_rng(31)
        G = rng.standard_normal((3, 3))
        inst = build_quadratic(G.T @ G + np.eye(3), rng.standard_normal(3))
        anchor = rng.standard_normal(3)
        x = rng.standard_normal(3)
        _, g = reg_value_grad(inst, anchor, 2.5, p, x)
        want = fd_grad(lambda z: reg_value_grad(inst, anchor, 2.5, p, z)[0], x)
        np.testing.assert_allclose(g, want, rtol=1e-6, atol=1e-7)

    def test_anchor_minimizes_regularizer_part(self):
        # at x = anchor the extra term and its gradient vanish
        inst = build_example_1d()
        anchor = np.array([3.0])
        v, g = reg_value_grad(inst, anchor, 10.0, 3, anchor)
        assert v == pytest.approx(inst.smooth.value(anchor))
        np.testing.assert_allclose(g, inst.smooth.value_grad(anchor)[1])


class TestIsAcceptable:
    """Membership in the acceptance set, as AcceptedPoint decides it."""

    def test_exact_prox_point_always_acceptable(self):
        # T from the exact 1-D oracle is a true prox minimizer: residual zero,
        # so it belongs to the acceptance set even with beta = 0
        inst = build_example_1d()
        for xbar in (2.0, -1.5, 0.7):
            res = exact_sprox_1d(xbar, 0.0)
            ev = evaluate(inst, np.array([xbar]), 1.0, 3, res.x_plus)
            ap = AcceptedPoint(inst, 0.0, ev, np.array([res.g_plus]))
            assert ap.reg_grad_norm <= 1e-12 * (1.0 + ap.grad_F_norm)

    def test_far_point_rejected(self):
        inst = build_example_1d()
        with pytest.raises(InvariantViolation,
                           match="acceptance inequality violated"):
            AcceptedPoint(inst, 0.2, evaluate(inst, np.array([0.0]), 1.0, 3,
                                              np.array([5.0])), np.array([1.0]))

    @pytest.mark.parametrize("beta, rhs", [(0.0, 1.0), (0.25, 3.0), (0.2, 0.0)])
    def test_decision_at_its_boundary(self, beta, rhs):
        # solve_acceptable and AcceptedPoint both decide with acceptable:
        # accepted at beta rhs + slack, rejected one ulp above it
        edge = beta * rhs + (ACCEPTANCE_ABS + ACCEPTANCE_REL * rhs)
        assert acceptable(edge, rhs, beta)
        assert not acceptable(np.nextafter(edge, np.inf), rhs, beta)


class TestAcceptedPoint:
    def build_accepted(self, beta=0.25):
        inst = build_logbar(10, 4, seed=3)
        p = 2
        params = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        y = inst.meta["x0"]
        ap, iters = solve_acceptable(inst, y, params.H, p, beta)
        return inst, ap, iters

    def test_constructive_solver_output_validates(self):
        inst, ap, iters = self.build_accepted()
        assert iters >= 1
        assert ap.reg_grad_norm <= ap.beta_used * ap.grad_F_norm * (1 + 1e-9) + 1e-12
        assert ap.r > 0

    def test_lemma_properties_with_optimum(self):
        inst, ap, _ = self.build_accepted()
        rep = check_lemma_properties(ap, x_star=inst.x_star)
        for key, val in rep.items():
            assert val is True or val is None, (key, val)
        # beta = 1/4 <= 3/8 and <= 1/p: every consequence is active
        assert rep["descent_norm_form"] is not None
        assert rep["contraction_5_4"] is not None

    def test_norm_form_skipped_for_large_beta(self):
        inst, ap, _ = self.build_accepted(beta=0.26)
        rep = check_lemma_properties(ap)
        assert rep["contraction_5_4"] is None  # no x* supplied
        # beta = 0.26 <= 1/p = 1/2: still active for p = 2
        assert rep["descent_norm_form"] is not None

    def test_point_outside_domain_rejected(self):
        inst = build_logbar(10, 5, seed=0)
        with pytest.raises(InvariantViolation, match="outside the domain"):
            AcceptedPoint(inst, 0.2, evaluate(inst, inst.meta["x0"], 1.0, 2,
                                              100.0 * np.ones(5)), np.zeros(5))

    def test_failed_lemma_property_rejected(self, monkeypatch):
        # a point whose report holds one False fails under that name
        inst, ap, _ = self.build_accepted()
        monkeypatch.setattr(
            biopt.acceptance, "check_lemma_properties",
            lambda accepted: {"residual_bracket_lower": True,
                              "descent_inner_product": False,
                              "descent_norm_form": None})
        with pytest.raises(InvariantViolation,
                           match="accepted-point property failed") as err:
            AcceptedPoint(inst, ap.beta_used,
                          evaluate(inst, ap.anchor, ap.H, ap.p, ap.T), ap.g)
        assert err.value.families == ["descent_inner_product"]

    def test_invalid_pair_rejected(self):
        inst = build_example_1d()
        with pytest.raises(InvariantViolation,
                           match="acceptance inequality violated"):
            AcceptedPoint(inst, 0.1, evaluate(inst, np.array([0.0]), 1.0, 3,
                                              np.array([5.0])), np.array([1.0]))

    def test_composite_grad(self):
        inst, ap, _ = self.build_accepted()
        np.testing.assert_allclose(ap.composite_grad(), ap.grad_f + ap.g)
        assert inst.metric.dual_norm(ap.composite_grad()) == pytest.approx(
            ap.grad_F_norm)

    def test_composite_grad_is_read_only(self):
        # it is formed once and handed to every caller: none may change it
        _, ap, _ = self.build_accepted()
        before = ap.composite_grad().copy()
        with pytest.raises(ValueError, match="read-only"):
            ap.composite_grad()[0] = 1.0
        np.testing.assert_array_equal(ap.composite_grad(), before)

    @pytest.mark.parametrize("g", [np.zeros(1), np.float64(0.0), np.zeros((5, 5))],
                             ids=["shape-1", "scalar", "shape-5x5"])
    def test_g_of_another_shape_rejected(self, g):
        # on quad-5 a g of shape (1,) broadcast and was accepted, a scalar
        # raised a bare ValueError and a 5 x 5 g a bare TypeError
        inst = build_builtin("quad-5", seed=0)
        ap, _ = solve_acceptable(inst, inst.meta["x0"], 1.0, 2, 0.1)
        ev = evaluate(inst, ap.anchor, ap.H, ap.p, ap.T)
        AcceptedPoint(inst, 0.1, ev, np.zeros(5))
        with pytest.raises(InvariantViolation, match="g has shape"):
            AcceptedPoint(inst, 0.1, ev, g)


def test_residual_bracket_is_tight_in_beta():
    # shrinking beta squeezes H r^p against the composite gradient norm
    inst = build_logbar(10, 4, seed=3)
    p = 2
    params = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
    y = inst.meta["x0"]
    widths = []
    for beta in (0.3, 0.03, 0.003):
        ap, _ = solve_acceptable(inst, y, params.H, p, beta)
        ratio = params.H * ap.r ** p / ap.grad_F_norm
        widths.append(abs(ratio - 1.0))
        assert 1.0 - beta - 1e-9 <= ratio <= 1.0 + beta + 1e-9
    assert widths[2] <= widths[0] + 1e-12
