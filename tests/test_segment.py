import numpy as np
import pytest

import biopt.segment as segment
from biopt import (BisectionStall, SolveCaps, bisect_segment,
                   build_builtin, build_example_1d, build_logbar,
                   build_quadratic, exact_sprox_1d, exact_sprox_1d_general,
                   make_sprox_oracle, monotone_root, solve_acceptable,
                   sprox_quadratic, sprox_reference)

BRANCHES = {"interior", "tau0_pos", "tau0_neg", "tau1_pos", "tau1_neg"}


class TestExactSprox1d:
    def test_frozen_case(self):
        res = exact_sprox_1d(2.0, 1.0)
        assert res.branch == "tau0_pos"
        assert res.tau_plus == 0.0
        assert res.x_plus[0] == pytest.approx(0.7865883372377704, abs=1e-9)
        assert res.objective == pytest.approx(1.637915724616833, abs=1e-12)
        # stationarity of the winning root: x + 1 + (x - m)^3 = 0 at m = 2
        x = res.x_plus[0]
        assert x + 1.0 + (x - 2.0) ** 3 == pytest.approx(0.0, abs=1e-8)

    def test_interior_case(self):
        # the segment crosses the global minimizer x = 0
        res = exact_sprox_1d(-1.0, 2.0)
        assert res.branch == "interior"
        assert res.tau_plus == pytest.approx(0.5)
        assert res.x_plus[0] == 0.0
        assert res.objective == 0.0

    def test_odd_symmetry(self):
        a = exact_sprox_1d(2.0, 1.0)
        b = exact_sprox_1d(-2.0, -1.0)
        assert b.branch == "tau0_neg"
        assert b.x_plus[0] == pytest.approx(-a.x_plus[0])
        assert b.objective == pytest.approx(a.objective)

    def test_zero_candidate_subgradient(self):
        # anchor inside [-1, 1]: x = 0 wins with subgradient m^3
        res = exact_sprox_1d(0.5, 0.0)
        assert res.x_plus[0] == 0.0
        assert res.g_plus == pytest.approx(0.125)
        assert abs(res.g_plus) <= 1.0

    def test_far_segment_uses_tau1(self):
        # moving all the way along u brings the anchor closest to the minimizer
        res = exact_sprox_1d(-6.0, 3.0)
        assert res.branch.startswith("tau1")
        assert res.tau_plus == 1.0

    def test_branch_coverage_on_seeded_pairs(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(200):
            xbar, ubar = rng.uniform(-3.0, 3.0, size=2)
            seen.add(exact_sprox_1d(xbar, ubar).branch)
        assert seen == BRANCHES

    @pytest.mark.parametrize("pair", [(2.0, 1.0), (-1.5, 0.3), (0.2, -2.0),
                                      (3.0, -4.0), (-0.4, 0.1)])
    def test_agrees_with_reference(self, pair):
        inst = build_example_1d()
        xbar, ubar = pair
        res = exact_sprox_1d(xbar, ubar)
        _, _, ref_val = sprox_reference(inst, np.array([xbar]),
                                        np.array([ubar]), 1.0, 3)
        assert res.objective == pytest.approx(ref_val, abs=1e-7)


def cubic_case_table(xbar, ubar):
    """Independent reference for exact_sprox_1d (H = 1, p = 3, weight 1): the
    same candidates, with the stationary roots of x +- 1 + (x - m)^3 = 0 taken
    from np.roots; returns the winning (objective, x)."""
    def objective(x, tau):
        return 0.5 * x * x + abs(x) + (x - xbar - tau * ubar) ** 4 / 4.0

    cands = []
    if ubar != 0.0 and 0.0 < -xbar / ubar < 1.0:
        cands.append((0.0, -xbar / ubar))
    for tau in (0.0, 1.0):
        m = xbar + tau * ubar
        for s in (1.0, -1.0):
            roots = np.roots([1.0, -3.0 * m, 3.0 * m * m + 1.0, s - m ** 3])
            cands += [(r.real, tau) for r in roots
                      if abs(r.imag) < 1e-10 and s * r.real > 1e-12]
        if abs(m) ** 3 <= 1.0:
            cands.append((0.0, tau))
    return min((objective(x, tau), x) for x, tau in cands)


class TestExactSproxGeneral:
    def test_matches_cubic_special_case(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            xbar, ubar = rng.uniform(-3.0, 3.0, size=2)
            ref_obj, ref_x = cubic_case_table(xbar, ubar)
            for res in (exact_sprox_1d(xbar, ubar),
                        exact_sprox_1d_general(xbar, ubar, 1.0, 3, weight=1.0)):
                assert res.objective == pytest.approx(ref_obj, abs=1e-9)
                assert res.x_plus[0] == pytest.approx(ref_x, abs=1e-7)

    @pytest.mark.parametrize("H,p", [(2.0, 2), (0.5, 4)])
    def test_agrees_with_reference(self, H, p):
        inst = build_example_1d()
        for xbar, ubar in ((1.7, -0.9), (-2.2, 1.4), (0.3, 0.8)):
            res = exact_sprox_1d_general(xbar, ubar, H, p, weight=1.0)
            _, _, ref_val = sprox_reference(inst, np.array([xbar]),
                                            np.array([ubar]), H, p)
            assert res.objective == pytest.approx(ref_val, abs=1e-7)


class TestSproxQuadratic:
    def make_instance(self):
        rng = np.random.default_rng(21)
        G = rng.standard_normal((2, 2))
        return build_quadratic(G.T @ G + 0.5 * np.eye(2), rng.standard_normal(2))

    def test_stationarity_u_zero(self):
        inst = self.make_instance()
        xbar = np.array([1.0, -2.0])
        x, tau, g = sprox_quadratic(inst, xbar, np.zeros(2), 3.0, 2)
        assert tau == 0.0
        np.testing.assert_allclose(g, np.zeros(2))
        r = np.linalg.norm(x - xbar)
        res = inst.smooth.value_grad(x)[1] + 3.0 * r * (x - xbar)
        np.testing.assert_allclose(res, np.zeros(2), atol=1e-9)

    def test_agrees_with_reference(self):
        inst = self.make_instance()
        xbar = np.array([1.0, 1.0])
        u = np.array([-2.0, 0.5])
        x, tau, _ = sprox_quadratic(inst, xbar, u, 2.0, 2)
        m = xbar + tau * u
        val = inst.F(x) + 2.0 * np.linalg.norm(x - m) ** 3 / 3.0
        _, _, ref_val = sprox_reference(inst, xbar, u, 2.0, 2, grid_tau=150)
        assert val == pytest.approx(ref_val, abs=1e-6)

    def test_tau_first_order_condition(self):
        # V(tau) = min_x f(x) + H d_{p+1}(x - xbar - tau u) is convex with
        # V'(tau) = <grad f(x(tau)), u>: zero inside, >= 0 at 0, <= 0 at 1
        inst = build_builtin("quad-5", seed=1)
        x_star = np.linalg.solve(inst.smooth.Q, inst.smooth.c)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(60):
            xbar, u = rng.standard_normal(5), 2.0 * rng.standard_normal(5)
            if rng.random() < 0.5:  # point u toward x*, so tau = 1 occurs
                u = rng.uniform(0.2, 1.5) * (x_star - xbar) + 0.1 * u
            H, p = rng.choice([0.5, 1.0, 4.0]), int(rng.integers(2, 5))
            x, tau, _ = sprox_quadratic(inst, xbar, u, H, p)
            grad = inst.smooth.value_grad(x)[1]
            slope = float(grad @ u)
            if tau == 0.0:
                assert slope >= 0.0
                seen.add("tau0")
            elif tau == 1.0:
                assert slope <= 0.0
                seen.add("tau1")
            else:
                assert abs(slope) <= 1e-9 * (1.0 + np.linalg.norm(grad) * np.linalg.norm(u))
                seen.add("interior")
        assert seen == {"tau0", "tau1", "interior"}

    def test_newton_in_tau_solve_count(self, monkeypatch):
        # the draws of test_tau_first_order_condition; Newton on the envelope
        # slope needs at most 16 radial solves per call with an interior tau
        # (bisection in tau took 56 to 64)
        solves = []
        radial_solver = segment.radial_solver

        def counting(*args):
            solve = radial_solver(*args)

            def counted(*a):
                solves[-1] += 1
                return solve(*a)
            return counted
        monkeypatch.setattr(segment, "radial_solver", counting)
        inst = build_builtin("quad-5", seed=1)
        x_star = np.linalg.solve(inst.smooth.Q, inst.smooth.c)
        rng = np.random.default_rng(5)
        interior = []
        for _ in range(60):
            xbar, u = rng.standard_normal(5), 2.0 * rng.standard_normal(5)
            if rng.random() < 0.5:
                u = rng.uniform(0.2, 1.5) * (x_star - xbar) + 0.1 * u
            H, p = rng.choice([0.5, 1.0, 4.0]), int(rng.integers(2, 5))
            solves.append(0)
            _, tau, _ = sprox_quadratic(inst, xbar, u, H, p)
            if 0.0 < tau < 1.0:
                interior.append(solves[-1])
        assert len(interior) >= 20
        assert max(interior) <= 16

    @pytest.mark.parametrize("d", [5, 10])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_slope_derivative_matches_fd(self, monkeypatch, d, p):
        # the V'' handed to monotone_root against central differences of V'
        found = []

        def spy(phi, lo, hi, dphi=None):
            found.append((phi, dphi))
            return monotone_root(phi, lo, hi, dphi)
        monkeypatch.setattr(segment, "monotone_root", spy)
        inst = build_builtin(f"quad-{d}", seed=1)
        x_star = np.linalg.solve(inst.smooth.Q, inst.smooth.c)
        rng = np.random.default_rng(10 * d + p)
        while not found:  # draw until tau is interior
            xbar = rng.standard_normal(d)
            u = 1.5 * (x_star - xbar) + 0.1 * rng.standard_normal(d)
            sprox_quadratic(inst, xbar, u, 1.0, p)
        slope, curvature = found[0]
        delta = 1e-5
        for tau in (0.2, 0.5, 0.8):
            fd = (slope(tau + delta) - slope(tau - delta)) / (2.0 * delta)
            assert curvature(tau) > 0.0
            assert curvature(tau) == pytest.approx(fd, rel=1e-6)

    def test_rejects_wrong_structure(self):
        inst = build_example_1d()
        with pytest.raises(ValueError, match="psi = 0"):
            sprox_quadratic(inst, np.zeros(1), np.zeros(1), 1.0, 2)


class TestMakeSproxOracle:
    def test_dispatch_example_1d(self):
        inst = build_example_1d()
        oracle = make_sprox_oracle(inst, 1.0, 3)
        x, tau, g = oracle(np.array([2.0]), np.array([1.0]))
        assert x[0] == pytest.approx(0.7865883372377704)
        assert tau == 0.0
        assert g[0] == 1.0

    def test_dispatch_general_weights(self):
        inst = build_example_1d()
        oracle = make_sprox_oracle(inst, 2.0, 2)
        x, tau, g = oracle(np.array([1.5]), np.array([0.0]))
        # stationarity: x + 1 + 2|x - 1.5|(x - 1.5) = 0 for the x > 0 root
        assert x[0] + 1.0 + 2.0 * abs(x[0] - 1.5) * (x[0] - 1.5) == pytest.approx(
            0.0, abs=1e-9)

    def test_dispatch_quadratic(self):
        inst = build_builtin("quad-3", seed=2)
        oracle = make_sprox_oracle(inst, 1.0, 3)
        x, tau, g = oracle(np.ones(3), np.zeros(3))
        assert x.shape == (3,)

    def test_no_oracle_for_logbar(self):
        inst = build_logbar(10, 3, seed=0)
        with pytest.raises(ValueError, match="no exact segment-search oracle"):
            make_sprox_oracle(inst, 1.0, 3)


class TestSproxReference:
    def test_guardrails(self):
        inst = build_example_1d()
        with pytest.raises(ValueError, match="dim <= 5"):
            sprox_reference(build_builtin("quad-6"), np.zeros(6), np.zeros(6),
                            1.0, 2)
        with pytest.raises(ValueError, match="capped"):
            sprox_reference(inst, np.zeros(1), np.zeros(1), 1.0, 2,
                            grid_tau=20000)

    def test_objective_dominated_by_any_feasible_pair(self):
        inst = build_example_1d()
        _, tau, val = sprox_reference(inst, np.array([1.0]), np.array([1.0]),
                                      1.0, 3)
        assert 0.0 <= tau <= 1.0
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-3, 3)
            t = rng.uniform(0, 1)
            m = 1.0 + t * 1.0
            competitor = inst.F(np.array([x])) + 0.25 * (x - m) ** 4
            assert val <= competitor + 1e-9


class TestBisectSegment:
    def setup_case(self):
        # segment straddling the minimizer: directional products change sign
        inst = build_builtin("quad-2", seed=21)
        p = 2
        H = 1.0
        beta = 0.2
        x_k = inst.x_star - np.array([1.0, 0.5])
        u_k = np.array([2.0, 1.3])
        end0, _ = solve_acceptable(inst, x_k, H, p, beta)
        end1, _ = solve_acceptable(inst, x_k + u_k, H, p, beta)
        return inst, x_k, u_k, end0, end1, H, p, beta

    def test_bracket_invariants(self):
        inst, x_k, u_k, end0, end1, H, p, beta = self.setup_case()
        collected = []
        seg = bisect_segment(inst, x_k, u_k, end0, end1, H, p, beta,
                             collect=collected.append)
        assert seg.beta1 <= 0.0 <= seg.beta2
        assert 0.0 <= seg.tau1 < seg.tau2 <= 1.0
        # every halving cuts the bracket width exactly in two
        assert seg.tau2 - seg.tau1 == pytest.approx(0.5 ** seg.bisections)
        assert 0.0 <= seg.alpha <= 1.0
        lo = min(seg.T1.grad_F_norm, seg.T2.grad_F_norm)
        hi = max(seg.T1.grad_F_norm, seg.T2.grad_F_norm)
        assert lo - 1e-12 <= seg.g_k <= hi + 1e-12
        # termination inequality holds with the returned bracket data
        lhs = seg.alpha * (seg.tau2 - seg.tau1) * (-seg.beta1)
        rhs = 0.5 * ((1 - beta) / H) ** (1 / p) * seg.g_k ** ((p + 1) / p)
        assert lhs <= rhs
        assert len(collected) == seg.bisections
        assert seg.lower_iters >= seg.bisections

    def test_rejects_unbracketed_endpoints(self):
        inst, x_k, u_k, end0, end1, H, p, beta = self.setup_case()
        with pytest.raises(ValueError, match="requires beta1 < 0 < beta2"):
            bisect_segment(inst, x_k, u_k, end1, end0, H, p, beta)

    def test_stall_on_tiny_cap(self):
        inst, x_k, u_k, end0, end1, H, p, beta = self.setup_case()
        # raise H so the termination threshold is far out of reach
        H_big = 1e12
        caps = SolveCaps(outer_acceptance=200, inner_subproblem=500, bisections=0)
        with pytest.raises(BisectionStall):
            bisect_segment(inst, x_k, u_k, end0, end1, H_big, p, beta,
                           caps=caps)
