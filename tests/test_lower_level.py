import math

import numpy as np
import pytest

import biopt.driver
import biopt.segment
from biopt import (AcceptanceFailure, AcceptedPoint, InvariantViolation, Metric,
                   OptimalityReached, ScalingFunction, SimpleOracle, SolveCaps,
                   SubproblemStall, bregman, build_example_1d, build_logbar,
                   build_quadratic, evaluate, reg_bregman, rel_smooth_params, run,
                   solve_acceptable, subproblem_solve)


def fd_grad(fun, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fun(x + e) - fun(x - e)) / (2 * eps)
    return g


class TestRelSmoothParams:
    def test_frozen_constants(self):
        prm = rel_smooth_params(3, 2.0)
        assert prm.H == pytest.approx(6.0 * 2.0 / math.factorial(2))  # = 6
        assert prm.xi == 2.0
        assert prm.mu == 0.5
        assert prm.L == 1.5
        assert prm.kappa == pytest.approx(1.0 / 3.0)

    def test_scaling_with_order(self):
        # H = 6 M / (p-1)!
        assert rel_smooth_params(2, 5.0).H == pytest.approx(30.0)
        assert rel_smooth_params(4, 12.0).H == pytest.approx(12.0)

    def test_condition_number(self):
        prm = rel_smooth_params(2, 1.0)
        assert prm.kappa == pytest.approx(prm.mu / prm.L)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="p must be"):
            rel_smooth_params(1, 1.0)
        with pytest.raises(ValueError, match="M_next must be"):
            rel_smooth_params(3, 0.0)


class TestScalingFunction:
    def test_frozen_1d(self):
        # f = x^2/2, y = 0, H = 1, p = 3 (q = 1): rho(h) = h^2/2 + h^4/4
        inst = build_example_1d()
        sf = ScalingFunction(inst, np.array([0.0]), 1.0, 3)
        v, g = sf.value_grad(np.array([1.0]))
        assert v == pytest.approx(0.75)
        assert g[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_grad_matches_fd(self, p):
        inst = build_logbar(10, 3, seed=6)
        y = inst.meta["x0"]
        sf = ScalingFunction(inst, y, 4.0, p)
        x = y + 0.05 * np.arange(1.0, 4.0)
        _, g = sf.value_grad(x)
        want = fd_grad(lambda z: sf.value_grad(z)[0], x)
        np.testing.assert_allclose(g, want, rtol=1e-5, atol=1e-7)

    def test_truncation_order(self):
        # q = floor(p/2): p = 2 and p = 3 share q = 1
        inst = build_example_1d()
        assert ScalingFunction(inst, np.zeros(1), 1.0, 2).q == 1
        assert ScalingFunction(inst, np.zeros(1), 1.0, 3).q == 1
        assert ScalingFunction(inst, np.zeros(1), 1.0, 4).q == 2

    def test_minimum_at_center(self):
        inst = build_logbar(10, 3, seed=6)
        y = inst.meta["x0"]
        sf = ScalingFunction(inst, y, 4.0, 3)
        v, g = sf.value_grad(y)
        assert v == pytest.approx(0.0)
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-14)


class TestBregman:
    def test_nonnegative_and_zero_on_diagonal(self):
        inst = build_logbar(10, 3, seed=6)
        sf = ScalingFunction(inst, inst.meta["x0"], 4.0, 3)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = inst.meta["x0"] + 0.1 * rng.standard_normal(3)
            z = inst.meta["x0"] + 0.1 * rng.standard_normal(3)
            assert bregman(sf, x, z) >= -1e-12
        x = inst.meta["x0"] + np.array([0.05, -0.02, 0.01])
        assert bregman(sf, x, x) == pytest.approx(0.0, abs=1e-14)

    def test_relative_smoothness_sandwich(self):
        # mu * beta_rho <= beta_{f^p} <= L * beta_rho on the operating region
        inst = build_logbar(10, 3, seed=6)
        p = 2
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        y = inst.x_star
        sf = ScalingFunction(inst, y, prm.H, p)
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = y + 0.02 * rng.standard_normal(3)
            z = y + 0.02 * rng.standard_normal(3)
            br = bregman(sf, x, z)
            bf = reg_bregman(inst, y, prm.H, p, x, z)
            assert prm.mu * br <= bf + 1e-9
            assert bf <= prm.L * br + 1e-9


class TestSubproblemSolve:
    def test_radial_frozen_1d(self):
        # 1-D, psi = 0, q = 1, p = 2, H = 1, L = 3/2, c = -1:
        # stationarity 3h + 3h|h| = 1 -> h = (sqrt(21) - 3)/6
        inst = build_quadratic(np.array([[1.0]]), np.array([0.0]))
        sf = ScalingFunction(inst, np.array([0.0]), 1.0, 2)
        h = subproblem_solve(sf, 1.5, np.array([-1.0]), SimpleOracle("zero"),
                             tol=1e-12)
        assert h[0] == pytest.approx((math.sqrt(21.0) - 3.0) / 6.0, abs=1e-10)

    def test_prox_gradient_agrees_with_radial(self):
        # force the generic path with an l1 oracle of weight 0 (same problem)
        inst = build_quadratic(np.array([[1.0]]), np.array([0.0]))
        sf = ScalingFunction(inst, np.array([0.0]), 1.0, 2)
        c = np.array([-1.0])
        h_rad = subproblem_solve(sf, 1.5, c, SimpleOracle("zero"), tol=1e-12)
        h_pg = subproblem_solve(sf, 1.5, c, SimpleOracle("l1", weight=0.0),
                                tol=1e-12)
        assert h_pg[0] == pytest.approx(h_rad[0], abs=1e-8)

    @pytest.mark.parametrize("metric", ["identity", "spd"])
    def test_multidim_radial_stationarity(self, metric):
        rng = np.random.default_rng(12)
        G = rng.standard_normal((3, 3))
        inst = build_quadratic(G.T @ G + np.eye(3), rng.standard_normal(3))
        if metric == "spd":
            W = rng.standard_normal((3, 3))
            inst.metric = Metric(W @ W.T + 3.0 * np.eye(3))
            assert not inst.metric.is_diagonal
        m = inst.metric
        sf = ScalingFunction(inst, rng.standard_normal(3), 2.0, 2)
        c = rng.standard_normal(3)
        L = 1.5
        h = subproblem_solve(sf, L, c, SimpleOracle("zero"), tol=1e-12)
        # optimality: c + 2L Q h + 2L H ||h||_B B h = 0
        res = c + 2 * L * (inst.smooth.Q @ h) + 2 * L * 2.0 * m.norm(h) * m.apply(h)
        np.testing.assert_allclose(res, np.zeros(3), atol=1e-9)

    def test_invalid_tol(self):
        inst = build_quadratic(np.array([[1.0]]), np.array([0.0]))
        sf = ScalingFunction(inst, np.zeros(1), 1.0, 2)
        with pytest.raises(ValueError, match="tol"):
            subproblem_solve(sf, 1.5, np.array([1.0]), SimpleOracle("zero"), tol=0.0)

    def test_stall_reports_best_iterate(self):
        inst = build_example_1d()
        sf = ScalingFunction(inst, np.array([2.0]), 1.0, 3)
        with pytest.raises(SubproblemStall) as exc:
            subproblem_solve(sf, 1.5, np.array([1.0]), inst.simple,
                             tol=1e-14, cap=1)
        assert exc.value.best is not None


class TestSolveAcceptable:
    def test_logbar_accepted_fast(self):
        inst = build_logbar(10, 4, seed=3)
        p = 3
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        ap, iters = solve_acceptable(inst, inst.meta["x0"], prm.H, p, 0.25)
        assert iters <= 30
        assert inst.smooth.in_domain(ap.T)

    def test_iterations_grow_as_beta_shrinks(self):
        inst = build_logbar(10, 4, seed=3)
        p = 2
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        y = inst.meta["x0"]
        _, it_loose = solve_acceptable(inst, y, prm.H, p, 0.3)
        _, it_tight = solve_acceptable(inst, y, prm.H, p, 1e-4)
        assert it_tight >= it_loose

    def test_l1_instance_produces_valid_subgradient(self):
        inst = build_example_1d()
        prm = rel_smooth_params(3, 1.0)  # any positive M; H comes out 3
        ap, _ = solve_acceptable(inst, np.array([2.0]), prm.H, 3, 0.25)
        assert inst.simple.in_subdifferential(ap.T, ap.g, tol=1e-6)

    def test_anchor_at_optimum_raises(self):
        # z0 = anchor = x*: the composite gradient is at the numerical floor
        inst = build_example_1d()
        prm = rel_smooth_params(3, 1.0)
        with pytest.raises(OptimalityReached, match="already optimal"):
            solve_acceptable(inst, np.array([0.0]), prm.H, 3, 0.25)

    def test_cap_exhaustion(self):
        inst = build_logbar(10, 4, seed=3)
        p = 2
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        caps = SolveCaps(outer_acceptance=1, inner_subproblem=500, bisections=60)
        with pytest.raises(AcceptanceFailure) as exc:
            solve_acceptable(inst, inst.meta["x0"], prm.H, p, 1e-8, caps=caps)
        assert len(exc.value.residual_history) == 1


class TestOneEvaluationPerPoint:
    def test_slack_products_per_acceptance_iteration(self, monkeypatch):
        # every slack product t = A x - b of SeparableOracle goes through
        # _slacks; count them inside solve_acceptable, split by the point:
        # the anchor y (value and gradient, Hessian for the radial solve,
        # even-form weights) or an iterate z_i.  The loop before the fused
        # evaluation made 11.2 products per acceptance iteration at iterates
        # and 18 per call at the anchor on this run.
        inst = build_logbar(10, 5, seed=0)
        sm = inst.smooth
        slacks, counts = sm._slacks, {"anchor": 0, "iterate": 0}
        calls, iters, anchor = [0], [0], []

        def counted_slacks(x, *args, **kwargs):
            if anchor:
                counts["anchor" if np.array_equal(x, anchor[0]) else "iterate"] += 1
            return slacks(x, *args, **kwargs)

        def counted_solve(instance, y, *args, **kwargs):
            anchor.append(np.asarray(y, dtype=float))
            calls[0] += 1
            try:
                ap, i = solve_acceptable(instance, y, *args, **kwargs)
            finally:
                anchor.pop()
            iters[0] += i
            return ap, i

        monkeypatch.setattr(sm, "_slacks", counted_slacks)
        monkeypatch.setattr(biopt.driver, "solve_acceptable", counted_solve)
        monkeypatch.setattr(biopt.segment, "solve_acceptable", counted_solve)
        run(inst, "superfast", p=3, beta=0.2, budget=200)
        assert iters[0] >= 500
        assert counts["iterate"] <= 1.1 * iters[0]
        assert counts["anchor"] <= 3 * calls[0]

    def test_accepted_point_rejects_evaluation_at_another_point(self):
        inst = build_logbar(10, 4, seed=3)
        p = 2
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        y = inst.meta["x0"]
        ap, _ = solve_acceptable(inst, y, prm.H, p, 0.25)
        ev = evaluate(inst, y, prm.H, p, ap.T)
        AcceptedPoint(inst, y, prm.H, p, 0.25, ap.T, ap.g, ev=ev)
        elsewhere = evaluate(inst, y, prm.H, p, ap.T + 1e-9)
        with pytest.raises(InvariantViolation, match="other than T"):
            AcceptedPoint(inst, y, prm.H, p, 0.25, ap.T, ap.g, ev=elsewhere)
