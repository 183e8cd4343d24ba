import numpy as np
import pytest

import biopt.lower
import biopt.segment as segment
from biopt import (AcceptedPoint, BisectionStall, DegenerateCoefficient, Metric,
                   ProblemInstance, QuadraticOracle, SimpleOracle, bisect_segment,
                   build_builtin, build_example_1d, build_logbar, build_quadratic,
                   build_separable, exact_sprox_1d, exact_sprox_1d_general,
                   make_sprox_oracle, monotone_root, run, solve_acceptable,
                   sprox_quadratic, sprox_reference, verify_trace)
from biopt.numerics import secular_shift
from helpers import recording_root

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

    # in the last three |m| = 1 + 1e-13 at tau = 0 puts that end's root at
    # 7.5e-14, below a cut such as s*x > 1e-12; it wins with objective 0.25
    # (tau = 1 gives 0.251 in the first, and the other two have no other)
    @pytest.mark.parametrize("pair", [(2.0, 1.0), (-1.5, 0.3), (0.2, -2.0),
                                      (3.0, -4.0), (-0.4, 0.1),
                                      (1.0 + 1e-13, 1e-3), (1.0 + 1e-13, 0.0),
                                      (-(1.0 + 1e-13), 0.0)])
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

    @pytest.mark.parametrize("H,p,w", [(1.0, 3, 1.0), (2.0, 2, 0.5),
                                       (0.5, 4, 2.0), (3.0, 5, 1.0)])
    def test_one_root_search_per_endpoint(self, H, p, w, monkeypatch):
        # g0 = H|m|^{p-1}m decides each endpoint: x = 0 when |g0| <= w, else
        # the one root on the side sign(m); the objective picks among them
        calls = []
        root = segment.monotone_root
        monkeypatch.setattr(segment, "monotone_root",
                            lambda *a, **k: calls.append(1) or root(*a, **k))
        rng = np.random.default_rng(31)
        for scale in (1e-3, 1.0, 10.0):
            for _ in range(100):
                xbar, ubar = scale * rng.uniform(-3.0, 3.0, size=2)
                calls.clear()
                exact_sprox_1d_general(xbar, ubar, H, p, weight=w)
                g0 = [H * abs(m) ** (p - 1) * m for m in (xbar, xbar + ubar)]
                assert len(calls) == sum(abs(g) > w for g in g0) <= 2

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
        # the draws of test_tau_first_order_condition: a call makes one
        # secular solve per endpoint it tests, and an interior tau takes one
        # root in the shift, 6 to 15 phi evaluations of O(dim) each on these
        # draws (the search over tau took up to 16 whole secular solves)
        solves, searches = [], []

        def counted_shift(*args):
            solves[-1] += 1
            return secular_shift(*args)
        monkeypatch.setattr(segment, "secular_shift", counted_shift)
        monkeypatch.setattr(segment, "monotone_root", recording_root(searches))
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
            searches.clear()
            _, tau, _ = sprox_quadratic(inst, xbar, u, H, p)
            evals = sum(map(len, searches))
            if 0.0 < tau < 1.0:
                interior.append((solves[-1], evals))
            else:
                assert solves[-1] == (1 if tau == 0.0 else 2)
                assert evals == 0
        assert len(solves) == 60 and min(solves) > 0
        assert len(interior) >= 20
        assert all(n == 2 for n, _ in interior)
        assert max(m for _, m in interior) <= 15

    @pytest.mark.parametrize("d", [5, 10])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_slope_derivative_matches_fd(self, monkeypatch, d, p):
        # the slope half of the (phi, phi') pair handed to monotone_root
        # against central differences of its value half in the shift, on
        # the bracket, where phi is increasing and concave: phi' is positive
        # and does not increase
        found = []

        def spy(pair, lo, hi):
            found.append((pair, lo, hi))
            return monotone_root(pair, lo, hi)
        monkeypatch.setattr(segment, "monotone_root", spy)
        inst = build_builtin(f"quad-{d}", seed=1)
        x_star = np.linalg.solve(inst.smooth.Q, inst.smooth.c)
        rng = np.random.default_rng(10 * d + p)
        while not found:  # draw until tau is interior
            xbar = rng.standard_normal(d)
            u = 1.5 * (x_star - xbar) + 0.1 * rng.standard_normal(d)
            sprox_quadratic(inst, xbar, u, 1.0, p)
        pair, lo, hi = found[0]
        phi, dphi = (lambda s: pair(s)[0]), (lambda s: pair(s)[1])
        assert phi(lo) < 0.0 < phi(hi)
        slopes = []
        for t in (0.2, 0.5, 0.8):
            s = lo + t * (hi - lo)
            delta = 1e-5 * s
            fd = (phi(s + delta) - phi(s - delta)) / (2.0 * delta)
            assert dphi(s) > 0.0
            assert dphi(s) == pytest.approx(fd, rel=1e-6)
            slopes.append(dphi(s))
        assert slopes[0] >= slopes[1] >= slopes[2]

    @pytest.mark.parametrize("d", [5, 10])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_inner_stationarity_at_returned_point(self, d, p):
        # S maps h~ back once, at the returned tau: there x solves the inner
        # problem, Qx - c + H ||x - m||^{p-1} (x - m) = 0 with m = xbar + tau u
        inst = build_builtin(f"quad-{d}", seed=1)
        Q, c = inst.smooth.Q, inst.smooth.c
        x_star = np.linalg.solve(Q, c)
        rng = np.random.default_rng(100 + 10 * d + p)
        taus = set()
        for _ in range(12):
            xbar, u = rng.standard_normal(d), 2.0 * rng.standard_normal(d)
            if rng.random() < 0.5:
                u = rng.uniform(0.2, 1.5) * (x_star - xbar) + 0.1 * u
            H = rng.choice([0.5, 1.0, 4.0])
            x, tau, _ = sprox_quadratic(inst, xbar, u, H, p)
            h = x - (xbar + tau * u)
            reg = H * np.linalg.norm(h) ** (p - 1) * h
            terms = np.linalg.norm(Q @ x) + np.linalg.norm(c) + np.linalg.norm(reg)
            assert np.linalg.norm(Q @ x - c + reg) <= 1e-13 * terms
            taus.add("interior" if 0.0 < tau < 1.0 else tau)
        assert "interior" in taus

    def test_exact_run_makes_one_eigh_and_no_solve(self, monkeypatch):
        # Q's one eigendecomposition is made when the oracle is built and
        # serves the PSD check and the whole run; the run itself solves
        # nothing (the build's solve is x*)
        calls = {"eigh": 0, "eigvalsh": 0, "svd": 0, "solve": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(np.linalg, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        inst = build_builtin("quad-5", seed=1)
        calls["solve"] = 0
        trace = run(inst, "exact", p=3, H=1.0)
        assert len(trace.records) > 2
        assert calls == {"eigh": 1, "eigvalsh": 0, "svd": 0, "solve": 0}

    def test_p1_takes_interior_tau_in_closed_form(self, monkeypatch):
        # p = 1: the shift is H, so an interior tau is tau(H), with no root
        # search; there x solves the inner problem and x - m is orthogonal
        # to u
        calls = []
        monkeypatch.setattr(segment, "monotone_root",
                            lambda *args: calls.append(args))
        inst = build_builtin("quad-5", seed=1)
        Q, c = inst.smooth.Q, inst.smooth.c
        x_star = np.linalg.solve(Q, c)
        rng = np.random.default_rng(11)
        taus = set()
        for _ in range(20):
            xbar, u = rng.standard_normal(5), 2.0 * rng.standard_normal(5)
            if rng.random() < 0.5:
                u = rng.uniform(0.2, 1.5) * (x_star - xbar) + 0.1 * u
            H = rng.choice([0.5, 1.0, 4.0])
            x, tau, _ = sprox_quadratic(inst, xbar, u, H, 1)
            h = x - (xbar + tau * u)
            terms = np.linalg.norm(Q @ x) + np.linalg.norm(c) + H * np.linalg.norm(h)
            assert np.linalg.norm(Q @ x - c + H * h) <= 1e-13 * terms
            if 0.0 < tau < 1.0:
                assert abs(h @ u) <= 1e-13 * np.linalg.norm(h) * np.linalg.norm(u)
            taus.add("interior" if 0.0 < tau < 1.0 else tau)
        assert taus == {0.0, 1.0, "interior"}
        assert not calls

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_u_in_the_kernel_ends_at_an_endpoint(self, monkeypatch, p):
        # Q u = 0 makes V'(tau) = <grad f(xbar), u> constant, so an endpoint
        # test ends the call and the search in the shift never starts
        calls = []
        monkeypatch.setattr(segment, "monotone_root",
                            lambda *args: calls.append(args))
        inst = build_quadratic(np.diag([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        rng = np.random.default_rng(p)
        for _ in range(10):
            xbar = rng.standard_normal(3)
            u = np.array([0.0, 0.0, rng.standard_normal()])
            _, tau, _ = sprox_quadratic(inst, xbar, u, 1.0, p)
            assert tau in (0.0, 1.0)
        assert not calls

    def test_nonpositive_tau_denominator_is_typed(self):
        # <Qu, (Q + sI)^-1 u> > 0 whenever Q u != 0 and S diagonalizes Q;
        # a basis that does not (here a stale one) can drive it negative at
        # an interior tau, which raises DegenerateCoefficient, not a bare
        # arithmetic error
        inst = build_quadratic(np.diag([1.0, 0.0]), np.array([-1.5, 0.0]))
        r = np.sqrt(0.5)
        inst.smooth.eigenbasis = (np.array([0.0, 4.0]),
                                  np.array([[r, r], [r, -r]]))
        with pytest.raises(DegenerateCoefficient, match="interior tau"):
            sprox_quadratic(inst, np.array([-0.5, -1.0]), np.array([1.5, -2.5]),
                            1.0, 2)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_line_through_a_minimizer(self, monkeypatch, p):
        # g^ = grad f at f's minimizer on the line is 0: the segment passes
        # through a minimizer of f, so h = 0 and tau is that minimizer's
        # (dyadic data: tau_f = 0.5 and g^ = 0 hold exactly)
        calls = []
        monkeypatch.setattr(segment, "monotone_root",
                            lambda *args: calls.append(args))
        inst = build_quadratic(np.diag([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        x, tau, _ = sprox_quadratic(inst, np.array([0.0, 0.75, 2.0]),
                                    np.array([1.0, 0.5, 2.0]), 1.0, p)
        assert tau == 0.5
        np.testing.assert_array_equal(x, [0.5, 1.0, 3.0])
        assert not calls

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_zero_eigenvalue_with_zero_gradient_component(self, p):
        # Q = diag(2, 1, 0), c = (1, 1, 0): grad f vanishes exactly at an
        # anchor, secular_shift returns s = 0, and h_i = -w_i/(lam_i + s)
        # was 0/0 on the zero eigenvalue
        Q, c = np.diag([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])
        x_star = np.array([0.5, 1.0, 0.0])
        inst = ProblemInstance(QuadraticOracle(Q, c), SimpleOracle("zero"),
                               Metric(dim=3), 3, optimum=(x_star, -0.75))
        trace = run(inst, "exact", p=p, H=1.0, budget=100, epsilon=1e-8,
                    x0=np.ones(3))
        assert trace.status == "optimal"
        assert all(v["ok"] for v in verify_trace(trace).values())

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

    @pytest.mark.parametrize("inst", [
        build_quadratic(np.eye(1), np.zeros(1)),  # psi = 0
        build_quadratic(np.eye(1), np.zeros(1),
                        psi=SimpleOracle("l1", weight=1.0)),  # F* unknown
        build_separable(np.eye(1), np.zeros(1), "softplus"),
    ], ids=["psi-zero", "no-F-star", "separable"])
    def test_rejects_other_1d_instances(self, inst):
        with pytest.raises(ValueError, match="1-D sprox_reference needs"):
            sprox_reference(inst, np.ones(1), np.ones(1), 1.0, 3)

    def test_reweighted_example_agrees_with_case_table(self):
        # F(x) = x^2/2 + |x|/2: the family q x^2/2 - c x + w|x| with w = 1/2
        inst = ProblemInstance(QuadraticOracle(np.eye(1), np.zeros(1)),
                               SimpleOracle("l1", weight=0.5), Metric(dim=1), 1,
                               optimum=(np.zeros(1), 0.0))
        res = exact_sprox_1d_general(1.7, -0.9, 2.0, 2, weight=0.5)
        _, _, ref_val = sprox_reference(inst, np.array([1.7]), np.array([-0.9]),
                                        2.0, 2)
        assert res.objective == pytest.approx(ref_val, abs=1e-7)

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

    def test_bracket_invariants(self, monkeypatch):
        inst, x_k, u_k, end0, end1, H, p, beta = self.setup_case()
        collected = []  # the point the lower level accepts at each midpoint

        def keep(*args, **kwargs):
            collected.append(AcceptedPoint(*args, **kwargs))
            return collected[-1]

        monkeypatch.setattr(biopt.lower, "AcceptedPoint", keep)
        seg = bisect_segment(inst, x_k, u_k, end0, end1, H, p, beta)
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

    def test_stall_on_tiny_cap(self, monkeypatch):
        inst, x_k, u_k, end0, end1, H, p, beta = self.setup_case()
        # raise H so the termination threshold is far out of reach
        H_big = 1e12
        monkeypatch.setattr(segment, "MAX_BISECTIONS", 0)
        with pytest.raises(BisectionStall):
            bisect_segment(inst, x_k, u_k, end0, end1, H_big, p, beta)
