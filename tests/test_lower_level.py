import math

import numpy as np
import pytest

import biopt.driver
import biopt.segment
from biopt import (AcceptanceFailure, AcceptedPoint, InvariantViolation, Metric,
                   OptimalityReached, ProblemInstance, QuadraticOracle,
                   ScalingFunction, SimpleOracle, SolveCaps,
                   SubproblemStall, bregman, build_builtin, build_example_1d,
                   build_logbar, build_quadratic, evaluate, reg_bregman,
                   rel_smooth_params, run, solve_acceptable, subproblem_solve,
                   verify_trace)


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
        # q = 2 (p = 4): no face step, so one proximal-gradient step stalls
        inst = build_example_1d()
        sf = ScalingFunction(inst, np.array([2.0]), 1.0, 4)
        with pytest.raises(SubproblemStall) as exc:
            subproblem_solve(sf, 1.5, np.array([1.0]), inst.simple,
                             tol=1e-14, cap=1)
        assert exc.value.best is not None

    def test_exhausted_backtracking_is_a_stall(self):
        # a gradient that turns NaN off h = 0 fails every curvature test: the
        # 80 halvings end in SubproblemStall carrying the last iterate, not in
        # a step that failed the test (which later made prox_power raise)
        class NanGradient(QuadraticOracle):
            def expansion_at(self, y, q):
                *head, forms = super().expansion_at(y, q)

                def nan_off_zero(form):
                    def nan_form(h):
                        value, grad = form(h)
                        return value, grad if not h.any() else np.full(h.shape, np.nan)
                    return nan_form
                return (*head, [nan_off_zero(form) for form in forms])

        inst = ProblemInstance(NanGradient(np.eye(2), np.zeros(2)),
                               SimpleOracle("l1", weight=0.5), Metric(dim=2), 2)
        sf = ScalingFunction(inst, np.zeros(2), 1.0, 2)
        with pytest.raises(SubproblemStall, match="backtracking") as exc:
            subproblem_solve(sf, 1.5, np.array([1.0, -2.0]), inst.simple,
                             tol=1e-12)
        np.testing.assert_array_equal(exc.value.best, np.zeros(2))


def composite_case(kind, seed, d=6, diagonal=False):
    """Seeded quadratic with psi = 0.5||x||_1 or the box [-0.5, 0.5]^d, an
    anchor y and a step linear term c; the metric is I or a seeded diagonal."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    psi = (SimpleOracle("l1", weight=0.5) if kind == "l1"
           else SimpleOracle("box", lo=-0.5 * np.ones(d), hi=0.5 * np.ones(d)))
    inst = build_quadratic(G.T @ G / d + 0.5 * np.eye(d), rng.standard_normal(d),
                           psi=psi)
    y = rng.uniform(-1.0, 1.0, d) * (1.0 if kind == "l1" else 0.5)
    c = 2.0 * rng.standard_normal(d)
    if diagonal:
        inst.metric = Metric(np.diag(rng.uniform(0.5, 3.0, d)))
    return inst, y, c


class TestFaceStep:
    L = 1.5

    def solve(self, inst, y, c, p):
        return subproblem_solve(ScalingFunction(inst, y, 1.0, p), self.L, c,
                                inst.simple, tol=1e-12)

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("kind", ["l1", "box"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_prox_gradient(self, kind, p, diagonal, monkeypatch):
        face_step, jumps, proxes = biopt.lower._face_step, [], []

        def counted_face_step(*args):
            h = face_step(*args)
            jumps.append(h is not None)
            return h
        monkeypatch.setattr(biopt.lower, "_face_step", counted_face_step)
        cases = [composite_case(kind, seed, diagonal=diagonal) for seed in range(5)]
        for inst, _, _ in cases:
            prox = inst.simple.scaled_prox
            monkeypatch.setattr(inst.simple, "scaled_prox",
                                lambda *a, prox=prox: proxes.append(1) or prox(*a))
        with_face = [self.solve(inst, y, c, p) for inst, y, c in cases]
        steps_with_face = len(proxes)
        proxes.clear()
        monkeypatch.setattr(biopt.lower, "_face_step", lambda *args: None)
        for (inst, y, c), h in zip(cases, with_face):
            np.testing.assert_allclose(h, self.solve(inst, y, c, p), atol=1e-9)
            self.assert_witness(inst, y, c, h, p)
        assert sum(jumps) >= len(cases)
        assert steps_with_face < len(proxes)

    def assert_witness(self, inst, y, c, h, p):
        # the step's witness -grad s(h) lies in the subdifferential of psi
        m = inst.metric
        reg = m.norm(h) ** (p - 1) * m.apply(h)
        g = -(c + 2 * self.L * (inst.smooth.Q @ h + reg))
        assert inst.simple.in_subdifferential(y + h, g, tol=1e-9)

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("kind", ["l1", "box"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_warm_start_agrees_with_cold(self, kind, p, diagonal):
        # the second call on one anchor starts from the first call's step
        # length and face; that changes the path, not the step it returns
        for seed in range(5):
            inst, y, c = composite_case(kind, seed, diagonal=diagonal)
            c_next = c + 0.3 * np.random.default_rng(seed + 10).standard_normal(c.size)
            sf = ScalingFunction(inst, y, 1.0, p)
            subproblem_solve(sf, self.L, c, inst.simple, tol=1e-12)
            assert sf.warm_start[1] is not None
            h = subproblem_solve(sf, self.L, c_next, inst.simple, tol=1e-12)
            np.testing.assert_allclose(h, self.solve(inst, y, c_next, p), atol=1e-9)
            self.assert_witness(inst, y, c_next, h, p)

    def test_wrong_first_face_still_converges(self, monkeypatch):
        # seed 2: the first face's minimizer lies inside that face but is not
        # the step (its zero set has subgradients beyond the weight), so the
        # residual test rejects it and the loop goes on to the right face
        inst, y, c = composite_case("l1", 2)
        face_step, jumps = biopt.lower._face_step, []

        def recorded_face_step(*args):
            h = face_step(*args)
            jumps.append(h)
            return h
        monkeypatch.setattr(biopt.lower, "_face_step", recorded_face_step)
        h = self.solve(inst, y, c, 2)
        assert jumps[0] is not None
        assert np.max(np.abs(jumps[0] - h)) > 1e-3
        monkeypatch.setattr(biopt.lower, "_face_step", lambda *args: None)
        np.testing.assert_allclose(h, self.solve(inst, y, c, 2), atol=1e-9)


class TestSolveAcceptable:
    def test_logbar_accepted_fast(self):
        inst = build_logbar(10, 4, seed=3)
        p = 3
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        ap, iters = solve_acceptable(inst, inst.meta["x0"], prm.H, p, 0.25)
        assert iters <= 30
        assert inst.smooth.value_grad(ap.T)[1] is not None

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


def probe_instance():
    """quad-10 seed 1 with 0.5||x||_1: the cell whose proximal-gradient loop
    stalled while backtracking accepted on an absolute slack."""
    base = build_builtin("quad-10", 1)
    return build_quadratic(base.smooth.Q, base.smooth.c,
                           psi=SimpleOracle("l1", weight=0.5))


class TestCompositeRegression:
    @pytest.mark.parametrize("p", [2, 3])
    def test_probe_cell_reaches_optimal(self, p):
        tr = run(probe_instance(), "inexact", p=p, beta=0.1, H=1.0,
                 epsilon=1e-4, R=10.0, x0=np.ones(10))
        assert tr.status == "optimal"
        families = verify_trace(tr)
        assert len(families) == 7
        assert all(fam["ok"] for fam in families.values())


class TestSubgradientWitness:
    def accepted(self):
        # T has zero coordinates (2, 5, 9) and free ones of both signs
        inst = probe_instance()
        y = 0.1 * np.ones(10)
        ap, _ = solve_acceptable(inst, y, 1.0, 2, 0.1)
        assert np.count_nonzero(ap.T == 0.0) >= 1 and ap.T[0] < 0.0
        return inst, y, ap

    def test_untampered_witness_is_accepted(self):
        inst, y, ap = self.accepted()
        assert inst.simple.in_subdifferential(ap.T, ap.g, tol=1e-12)
        AcceptedPoint(inst, y, 1.0, 2, 0.1, ap.T, ap.g)

    def test_wrong_sign_at_free_coordinate(self):
        inst, y, ap = self.accepted()
        g = ap.g.copy()
        g[0] = -g[0]
        with pytest.raises(InvariantViolation, match="subdifferential"):
            AcceptedPoint(inst, y, 1.0, 2, 0.1, ap.T, g)

    def test_beyond_weight_at_zero(self):
        inst, y, ap = self.accepted()
        i = int(np.flatnonzero(ap.T == 0.0)[0])
        g = ap.g.copy()
        g[i] = 1.5 * inst.simple.weight
        with pytest.raises(InvariantViolation, match="subdifferential"):
            AcceptedPoint(inst, y, 1.0, 2, 0.1, ap.T, g)


class TestOneEvaluationPerPoint:
    def test_slack_products_per_acceptance_iteration(self, monkeypatch):
        # every slack product t = A x - b of SeparableOracle goes through
        # _slacks; count them inside solve_acceptable, split by the point:
        # the anchor y (value and gradient, Hessian for the radial solve,
        # even-form weights, all from one product) or an iterate z_i.  The
        # loop before the fused evaluation made 11.2 products per acceptance
        # iteration at iterates and 18 per call at the anchor on this run,
        # and 3 per call at the anchor before the shared anchor evaluation.
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
        assert counts["anchor"] == calls[0]

    def test_shifted_grad_evaluations_per_subproblem(self, monkeypatch):
        # the warm start (the last call's step length and face at the same
        # anchor) makes 2.6 _shifted_grad evaluations per subproblem_solve
        # call on this run; starting every call from h = 0, t = 1 made 6.7
        base = build_builtin("quad-5", 2)
        inst = build_quadratic(base.smooth.Q, base.smooth.c,
                               psi=SimpleOracle("l1", weight=0.5))
        shifted_grad, solve = biopt.lower._shifted_grad, biopt.lower.subproblem_solve
        counts = {"grad": 0, "solve": 0}

        def counted_grad(*args):
            counts["grad"] += 1
            return shifted_grad(*args)

        def counted_solve(*args, **kwargs):
            counts["solve"] += 1
            return solve(*args, **kwargs)
        monkeypatch.setattr(biopt.lower, "_shifted_grad", counted_grad)
        monkeypatch.setattr(biopt.lower, "subproblem_solve", counted_solve)
        tr = run(inst, "inexact", p=2, beta=0.1, H=1.0, epsilon=1e-4, R=10.0,
                 x0=np.ones(5))
        assert tr.status == "optimal"
        assert counts["solve"] >= 50
        assert counts["grad"] <= 3.0 * counts["solve"]

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
