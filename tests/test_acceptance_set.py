import numpy as np
import pytest

from biopt import (AcceptedPoint, InvariantViolation, build_example_1d,
                   build_logbar, build_quadratic, check_lemma_properties,
                   evaluate, exact_sprox_1d, rel_smooth_params,
                   solve_acceptable)


def fd_grad(fun, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fun(x + e) - fun(x - e)) / (2 * eps)
    return g


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
            ap = AcceptedPoint(inst, np.array([xbar]), 1.0, 3, 0.0, res.x_plus,
                               np.array([res.g_plus]))
            assert ap.reg_grad_norm <= 1e-12 * (1.0 + ap.grad_F_norm)

    def test_far_point_rejected(self):
        inst = build_example_1d()
        with pytest.raises(InvariantViolation,
                           match="acceptance inequality violated"):
            AcceptedPoint(inst, np.array([0.0]), 1.0, 3, 0.2,
                          np.array([5.0]), np.array([1.0]))


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
        rep = check_lemma_properties(ap, ap.H, ap.p, x_star=inst.x_star)
        for key, val in rep.items():
            assert val is None or val["ok"], (key, val)
        # beta = 1/4 <= 3/8 and <= 1/p: every consequence is active
        assert rep["descent_norm_form"] is not None
        assert rep["contraction_5_4"] is not None

    def test_norm_form_skipped_for_large_beta(self):
        inst, ap, _ = self.build_accepted(beta=0.26)
        rep = check_lemma_properties(ap, ap.H, ap.p, x_star=None)
        assert rep["contraction_5_4"] is None  # no x* supplied
        # beta = 0.26 <= 1/p = 1/2: still active for p = 2
        assert rep["descent_norm_form"] is not None

    def test_invalid_pair_rejected(self):
        inst = build_example_1d()
        with pytest.raises(InvariantViolation,
                           match="acceptance inequality violated"):
            AcceptedPoint(inst, np.array([0.0]), 1.0, 3, 0.1,
                          np.array([5.0]), np.array([1.0]))

    def test_composite_grad(self):
        inst, ap, _ = self.build_accepted()
        np.testing.assert_allclose(ap.composite_grad(), ap.grad_f + ap.g)
        assert inst.metric.dual_norm(ap.composite_grad()) == pytest.approx(
            ap.grad_F_norm)


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
