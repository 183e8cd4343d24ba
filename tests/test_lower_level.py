import math

import numpy as np
import pytest

import biopt.acceptance
import biopt.driver
import biopt.lower
import biopt.numerics
import biopt.segment
from biopt import (AcceptanceFailure, AcceptedPoint, DomainViolation,
                   InvariantViolation, Metric, OptimalityReached,
                   ProblemInstance, QuadraticOracle, ScalingFunction,
                   SimpleOracle, SubproblemStall, bregman,
                   build_builtin, build_example_1d, build_logbar,
                   build_quadratic, evaluate, exact_sprox_1d_general,
                   prox_power, reg_bregman, rel_smooth_params, run,
                   solve_acceptable, sprox_reference, subproblem_solve,
                   verify_trace)

from biopt.numerics import radial_solver
from helpers import fd_grad, recording_root


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
        v, g = sf.rho(np.array([1.0]))
        assert v == pytest.approx(0.75)
        assert g[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_grad_matches_fd(self, p):
        inst = build_logbar(10, 3, seed=6)
        y = inst.meta["x0"]
        sf = ScalingFunction(inst, y, 4.0, p)
        x = y + 0.05 * np.arange(1.0, 4.0)
        _, g = sf.rho(x - y)
        want = fd_grad(lambda z: sf.rho(z - y)[0], x)
        np.testing.assert_allclose(g, want, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["log_barrier", "quadratic"])
    def test_rho_is_the_definition(self, family, p):
        # rho = sum_{k=1..q} D^{2k} f(y)[h]^{2k} / (2k)! + H d_{p+1}(h), with
        # the forms from even_form: at q = 1 halving is exact, so the folded
        # coefficient changes no bit; at q = 2 the terms add in another order
        inst = (build_logbar(10, 3, seed=6) if family == "log_barrier"
                else build_builtin("quad-3", seed=4))
        o, y, H = inst.smooth, np.ones(3), 4.0
        h = np.array([0.05, -0.1, 0.08])
        dval, dgrad = prox_power(inst.metric, h, p)
        orders = range(2, 2 * (p // 2) + 1, 2)
        want = (H * dval + sum(o.even_form(y, h, n) / math.factorial(n)
                               for n in orders),
                H * dgrad + sum(o.even_form_grad(y, h, n) / math.factorial(n)
                                for n in orders))
        got = ScalingFunction(inst, y, H, p).rho(h)
        if p < 4:
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
        else:
            assert got[0] == pytest.approx(want[0], rel=1e-13)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-13)

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
        v, g = sf.rho(np.zeros(3))
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
        # 1-D, psi = 0, q = 1, p = 2, H = 1, gain 3, c = -1:
        # stationarity 3h + 3h|h| = 1 -> h = (sqrt(21) - 3)/6
        inst = build_quadratic(np.array([[1.0]]), np.array([0.0]))
        sf = ScalingFunction(inst, np.array([0.0]), 1.0, 2)
        h = subproblem_solve(sf, 3.0, np.array([-1.0]), SimpleOracle("zero"))
        assert h[0] == pytest.approx((math.sqrt(21.0) - 3.0) / 6.0, abs=1e-10)

    def test_prox_gradient_agrees_with_radial(self):
        # force the generic path with an l1 oracle of weight 0 (same problem)
        inst = build_quadratic(np.array([[1.0]]), np.array([0.0]))
        sf = ScalingFunction(inst, np.array([0.0]), 1.0, 2)
        c = np.array([-1.0])
        h_rad = subproblem_solve(sf, 3.0, c, SimpleOracle("zero"))
        h_pg = subproblem_solve(sf, 3.0, c, SimpleOracle("l1", weight=0.0))
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
        gain = 3.0
        h = subproblem_solve(sf, gain, c, SimpleOracle("zero"))
        # optimality: c + gain Q h + gain H ||h||_B B h = 0
        res = c + gain * (inst.smooth.Q @ h) + gain * 2.0 * m.norm(h) * m.apply(h)
        np.testing.assert_allclose(res, np.zeros(3), atol=1e-9)

    def test_stall_reports_best_iterate(self, monkeypatch):
        # q = 2 (p = 4): no face step, so one proximal-gradient step stalls
        inst = build_example_1d()
        sf = ScalingFunction(inst, np.array([2.0]), 1.0, 4)
        monkeypatch.setattr(biopt.lower, "MAX_SUBPROBLEM_STEPS", 1)
        with pytest.raises(SubproblemStall) as exc:
            subproblem_solve(sf, 3.0, np.array([1.0]), inst.simple)
        assert exc.value.best is not None

    def test_exhausted_backtracking_is_a_stall(self):
        # a gradient that turns NaN off h = 0 fails every curvature test: the
        # 80 halvings end in SubproblemStall carrying the last iterate, not in
        # a step that failed the test (which later made prox_power raise)
        class NanGradient(QuadraticOracle):
            def expansion_at(self, y, q):
                *head, even = super().expansion_at(y, q)

                def nan_even(h):
                    value, grad = even(h)
                    return value, grad if not h.any() else np.full(h.shape, np.nan)
                return (*head, nan_even)

        inst = ProblemInstance(NanGradient(np.eye(2), np.zeros(2)),
                               SimpleOracle("l1", weight=0.5), Metric(dim=2), 2)
        sf = ScalingFunction(inst, np.zeros(2), 1.0, 2)
        with pytest.raises(SubproblemStall, match="backtracking") as exc:
            subproblem_solve(sf, 3.0, np.array([1.0, -2.0]), inst.simple)
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
    gain = 1.0

    def solve(self, inst, y, c, p):
        return subproblem_solve(ScalingFunction(inst, y, 1.0, p), self.gain, c,
                                inst.simple)

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
        g = -(c + self.gain * (inst.smooth.Q @ h + reg))
        assert inst.simple.in_subdifferential(y + h, g, tol=1e-9)

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("kind", ["l1", "box"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_second_call_matches_fresh_anchor(self, kind, p, diagonal):
        # a second call on one anchor returns, bit for bit, what a call on a
        # fresh ScalingFunction of that anchor does: no call leaves state
        # for the next
        for seed in range(5):
            inst, y, c = composite_case(kind, seed, diagonal=diagonal)
            c_next = c + 0.3 * np.random.default_rng(seed + 10).standard_normal(c.size)
            sf = ScalingFunction(inst, y, 1.0, p)
            subproblem_solve(sf, self.gain, c, inst.simple)
            h = subproblem_solve(sf, self.gain, c_next, inst.simple)
            assert np.array_equal(h, self.solve(inst, y, c_next, p))
            self.assert_witness(inst, y, c_next, h, p)

    def test_wrong_first_face_still_converges(self, monkeypatch):
        # seed 0 at gain 1: the anchor's face holds no minimizer inside it;
        # the next face's minimizer lies inside that face but is not the
        # step (its zero set has subgradients beyond the weight), so the
        # optimality and residual tests reject it and the loop goes on to
        # the right face
        inst, y, c = composite_case("l1", 0)
        face_step, jumps = biopt.lower._face_step, []

        def recorded_face_step(*args):
            h = face_step(*args)
            jumps.append(h)
            return h
        monkeypatch.setattr(biopt.lower, "_face_step", recorded_face_step)
        h = self.solve(inst, y, c, 2)
        inside = [jump for jump in jumps if jump is not None]
        assert jumps[0] is None and len(inside) >= 2
        assert np.max(np.abs(inside[0] - h)) > 1e-3
        monkeypatch.setattr(biopt.lower, "_face_step", lambda *args: None)
        np.testing.assert_allclose(h, self.solve(inst, y, c, 2), atol=1e-9)


def fresh_face_step(sf, gain, c_shift, psi, x):
    """_face_step with the free block decomposed by a fresh radial_solver,
    as every face step did before QuadraticOracle kept its faces' bases."""
    pattern, free, held, slope = psi.face(x)
    h = np.where(free, 0.0, held - sf.y)
    if not free.any():
        return h
    Q = sf.instance.smooth.Q
    g = c_shift[free] / gain + Q[np.ix_(free, ~free)] @ h[~free] + slope / gain
    solve = radial_solver(Q[np.ix_(free, free)], sf.H, sf.p)
    h[free] = solve(g, sf.instance.metric.norm(h))
    return h if np.all(psi.face(sf.y + h)[0][free] == pattern[free]) else None


def quad10(kind="l1"):
    base = build_builtin("quad-10", seed=0)
    d = base.dim
    psi = (SimpleOracle("l1", weight=0.5) if kind == "l1"
           else SimpleOracle("box", lo=-0.5 * np.ones(d), hi=0.5 * np.ones(d)))
    return build_quadratic(base.smooth.Q, base.smooth.c, psi=psi)


def inexact_run(inst, p=2, H=1.0):
    return run(inst, "inexact", p=p, beta=0.1, H=H, budget=200, epsilon=1e-4,
               R=10.0)


def counting_eigh(monkeypatch):
    eigh, calls = np.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestFaceMemo:
    """A quadratic under the identity metric decomposes each face's free
    block once (QuadraticOracle.face_basis), and keeps the last face only."""

    @pytest.mark.parametrize("kind", ["l1", "box"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_face_step_matches_fresh_radial_solver(self, kind, p):
        # the faces of the anchor (all free) and of three prox points, each
        # met again after other faces and right after itself
        inside = []
        for seed in range(5):
            inst, y, c = composite_case(kind, seed)
            psi, rng = inst.simple, np.random.default_rng(seed)
            points = [y] + [psi.scaled_prox(1.0, y + s * rng.standard_normal(y.size),
                                            inst.metric) for s in (0.5, 2.0, 3.0)]
            sf = ScalingFunction(inst, y, 1.0, p)
            for x in points + points[::-1] + [points[1], points[1]]:
                h = biopt.lower._face_step(sf, 1.0, c, psi, x, set())
                expected = fresh_face_step(sf, 1.0, c, psi, x)
                assert (h is None) == (expected is None)
                assert h is None or np.array_equal(h, expected)
                inside.append(h is not None)
        assert sum(inside) >= 8

    def test_memo_holds_one_face(self, monkeypatch):
        smooth = quad10().smooth
        free_a = np.arange(10) % 2 == 0
        free_b = np.arange(10) < 7
        calls = counting_eigh(monkeypatch)
        smooth.face_basis(free_a)
        smooth.face_basis(free_a)
        assert len(calls) == 1
        smooth.face_basis(free_b)
        smooth.face_basis(free_a)  # b evicted a
        assert len(calls) == 3
        # all free is Q's own eigenbasis: no eigh, and a stays kept
        lam, S, Q_FA = smooth.face_basis(np.ones(10, dtype=bool))
        assert lam is smooth.eigenbasis[0] and Q_FA.shape == (10, 0)
        smooth.face_basis(free_a)
        assert len(calls) == 3

    def test_one_eigh_per_face_change(self, monkeypatch):
        inst = quad10()
        faces, face_basis = [], inst.smooth.face_basis

        def recorded(free):
            faces.append(free.tobytes())
            return face_basis(free)
        monkeypatch.setattr(inst.smooth, "face_basis", recorded)
        calls = counting_eigh(monkeypatch)
        trace = inexact_run(inst)
        assert trace.status == "optimal"
        changes = sum(i == 0 or face != faces[i - 1] for i, face in enumerate(faces))
        # one face solve per face step, each an eigh before the memo
        assert len(calls) <= 1 + changes < len(faces)

    @pytest.mark.parametrize("kind", ["l1", "box"])
    def test_warm_memo_rerun_is_byte_identical(self, kind, tmp_path):
        inst = quad10(kind)
        files = []
        for i in range(2):  # the second run starts with the memo warm
            trace = inexact_run(inst)
            trace.write_ndjson(str(tmp_path / f"{i}.ndjson"))
            trace.write_csv(str(tmp_path / f"{i}.csv"))
            files.append([(tmp_path / f"{i}.{ext}").read_bytes()
                          for ext in ("ndjson", "csv")])
        assert inst.smooth._face is not None
        assert files[0] == files[1]

    def test_memo_serves_no_other_metric(self):
        # a diagonal B reassigned after an identity run decomposes its own
        # blocks: the run equals one on a fresh instance with that B
        B = Metric(np.diag(np.linspace(0.5, 2.0, 10)))
        inst = quad10()
        inexact_run(inst)
        inst.metric = B
        fresh = quad10()
        fresh.metric = B
        assert repr(inexact_run(inst).records) == repr(inexact_run(fresh).records)

    def test_other_H_and_p_on_one_instance(self):
        # the memo holds the basis of Q's block, which H and p do not enter:
        # face steps of one face under other (H, p), and whole runs
        inst, y, c = composite_case("l1", 0)
        rng = np.random.default_rng(0)
        x = inst.simple.scaled_prox(1.0, y + 0.5 * rng.standard_normal(y.size),
                                    inst.metric)
        steps = []
        for point in (y, x):
            for H, p in [(1.0, 2), (3.0, 3), (0.5, 2), (1.0, 3)]:
                sf = ScalingFunction(inst, y, H, p)
                h = biopt.lower._face_step(sf, 1.0, c, inst.simple, point, set())
                expected = fresh_face_step(sf, 1.0, c, inst.simple, point)
                assert (h is None) == (expected is None)
                assert h is None or np.array_equal(h, expected)
                steps.append(h is not None)
        assert sum(steps) >= 4
        inst = quad10()
        for H, p in [(1.0, 2), (3.0, 3), (0.5, 2), (1.0, 3)]:
            trace = inexact_run(inst, p=p, H=H)
            assert repr(trace.records) == repr(inexact_run(quad10(), p=p, H=H).records)
            assert all(fam["ok"] for fam in verify_trace(trace).values())


class LeftOf(QuadraticOracle):
    """f(x) = x^2/2 - 10x declared only on x < edge (1-D)."""

    def __init__(self, edge):
        super().__init__(np.eye(1), np.array([10.0]))
        self.edge = edge

    def value_grad(self, x):
        return (math.inf, None) if x[0] >= self.edge else super().value_grad(x)


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

    def test_anchor_outside_domain_raises(self):
        inst = build_logbar(10, 5, seed=0)
        with pytest.raises(DomainViolation, match="anchor outside"):
            solve_acceptable(inst, 100.0 * np.ones(5), 1.0, 2, 0.2)

    def test_cap_exhaustion(self, monkeypatch):
        inst = build_logbar(10, 4, seed=3)
        p = 2
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        monkeypatch.setattr(biopt.lower, "MAX_ACCEPTANCE_STEPS", 1)
        with pytest.raises(AcceptanceFailure) as exc:
            solve_acceptable(inst, inst.meta["x0"], prm.H, p, 1e-8)
        assert len(exc.value.residual_history) == 1

    @pytest.mark.parametrize("H", [1.0, 0.1])
    def test_open_domain_steps_stay_inside_and_descend(self, monkeypatch, H):
        # f(x) = x^2/2 - 10x declared only on x < 1: its minimizer x = 10 is
        # outside, so trial points leave the domain and the gain doubles
        # until one is inside.  The iterates creep toward the edge, phi =
        # f^p never increases, and acceptance never comes (uncapped, the
        # loop spends all 200 steps, reaching gain 2^57 near the edge)
        steps = []
        step = biopt.lower._composite_step

        def recorded(*args):
            out = step(*args)
            steps.append(out)
            return out
        monkeypatch.setattr(biopt.lower, "_composite_step", recorded)
        monkeypatch.setattr(biopt.lower, "MAX_ACCEPTANCE_STEPS", 12)
        inst = ProblemInstance(LeftOf(1.0), SimpleOracle("zero"), Metric(dim=1), 1)
        with pytest.raises(AcceptanceFailure) as exc:
            solve_acceptable(inst, np.zeros(1), H, 2, 0.2)
        assert len(exc.value.residual_history) == len(steps) == 12
        xs = [nxt.x[0] for nxt, _, _ in steps]
        phis = [nxt.reg_value for nxt, _, _ in steps]
        assert all(0.0 < x < 1.0 for x in xs)
        assert all(b <= a for a, b in zip(phis, phis[1:]))
        assert all(gain >= 8.0 for _, _, gain in steps)


class TestCarriedDualPoint:
    """solve_acceptable carries (rho(z_i), grad rho(z_i)) from step to step;
    each kept step takes the pair at z_{i+1} from ScalingFunction.rho at
    the rounded iterate, with the d_{p+1} pair of its PointEval, on the
    radial path as on every other."""

    @pytest.mark.parametrize("name", ["logbar-10-5", "quad-5"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_evaluation_at_every_iterate(self, monkeypatch, name, p):
        steps, step = [], biopt.lower._composite_step

        def recorded(sf, *args):
            nxt, rho, gain = step(sf, *args)
            steps.append((sf, nxt, rho))
            return nxt, rho, gain
        monkeypatch.setattr(biopt.lower, "_composite_step", recorded)
        inst = build_builtin(name, seed=0)
        if name == "quad-5":
            run(inst, "inexact", p=p, beta=0.2, H=1.0, budget=40)
        else:
            run(inst, "superfast", p=p, beta=0.2, budget=40)
        # gain 1 takes 64-65 steps on logbar-10-5 and 7-9 on quad-5, where
        # the gain-1 step is the exact prox step (rho's Bregman distance is
        # f^p's); the fixed gain 2L took at least 80 on each
        assert len(steps) >= (60 if name == "logbar-10-5" else 7)
        for sf, nxt, (value, grad) in steps:
            want_value, want_grad = sf.rho(nxt.x - sf.y, nxt.d)
            assert value == want_value
            np.testing.assert_array_equal(grad, want_grad)


class TestAdaptiveGain:
    """Each step of solve_acceptable starts at gain 1 and doubles it while
    the trial point leaves the domain or the relative descent inequality
    beta_{f^p}(z, z+) <= gain beta_rho(z, z+) fails (_composite_step)."""

    @staticmethod
    def record(monkeypatch):
        """(sf, z, PointEval of z+, gain) per step and the gains of every
        subproblem_solve call, with its step h."""
        steps, solves = [], []
        step, solve = biopt.lower._composite_step, biopt.lower.subproblem_solve

        def recorded_step(sf, psi, z, *args):
            out = step(sf, psi, z, *args)
            steps.append((sf, z, out[0], out[2]))
            return out

        def recorded_solve(sf, gain, *args):
            h = solve(sf, gain, *args)
            solves.append((gain, h))
            return h
        monkeypatch.setattr(biopt.lower, "_composite_step", recorded_step)
        monkeypatch.setattr(biopt.lower, "subproblem_solve", recorded_solve)
        return steps, solves

    @pytest.mark.parametrize("case", ["logbar-10-5", "l1", "box"])
    def test_descent_inequality_at_every_step(self, monkeypatch, case):
        # rho and f^p are evaluated afresh at both points of each step; the
        # slack is ten times the step's own.  Relative smoothness with L =
        # 1.5 passes gain 2 on these runs
        steps, solves = self.record(monkeypatch)
        if case == "logbar-10-5":
            for p in (2, 3):
                run(build_builtin(case, seed=0), "superfast", p=p, beta=0.2,
                    budget=40)
        else:
            for d, seed in ((5, 0), (5, 1), (10, 0), (10, 1)):
                base = build_builtin(f"quad-{d}", seed)
                psi = (SimpleOracle("l1", weight=0.5) if case == "l1" else
                       SimpleOracle("box", lo=[-0.5] * d, hi=[0.5] * d))
                inst = build_quadratic(base.smooth.Q, base.smooth.c, psi=psi)
                # the box case starts at its point nearest ones: check_run
                # refuses an x0 outside dom psi
                x0 = np.ones(d) if case == "l1" else 0.5 * np.ones(d)
                for p in (2, 3):
                    run(inst, "inexact", p=p, beta=0.1, H=1.0, epsilon=1e-4,
                        R=10.0, x0=x0)
        assert len(steps) >= 40
        assert len(solves) >= len(steps)
        for sf, z, nxt, gain in steps:
            assert 1.0 <= gain <= 2.0
            rho_z = sf.rho(z.x - sf.y)[0]
            b_rho = bregman(sf, z.x, nxt.x)
            b_reg = reg_bregman(sf.instance, sf.y, sf.H, sf.p, z.x, nxt.x)
            assert b_reg <= gain * b_rho + 1e-11 * (1.0 + abs(z.reg_value)
                                                    + gain * rho_z)

    @staticmethod
    def step_from_zero(edge):
        """_composite_step on LeftOf(edge) from the anchor 0 (H = 1, p = 2)."""
        inst = ProblemInstance(LeftOf(edge), SimpleOracle("zero"), Metric(dim=1), 1)
        sf = ScalingFunction(inst, np.zeros(1), 1.0, 2)
        z = evaluate(inst, sf.y, 1.0, 2, sf.y)
        return sf, z, biopt.lower._composite_step(sf, inst.simple, z,
                                                  (0.0, np.zeros(1)))

    @pytest.mark.parametrize("edge, gains", [(1.0, [1.0, 2.0, 4.0, 8.0]),
                                             (2.0, [1.0, 2.0])])
    def test_domain_exit_doubles_the_gain(self, monkeypatch, edge, gains):
        # f = x^2/2 - 10x on x < edge, anchor 0, H = 1, p = 2: the step at
        # gain g solves h + h^2 = 10/g, so h = 2.70, 1.79, 1.16 and 0.72 at
        # gains 1, 2, 4 and 8.  The first gain inside (2 for edge 2, 8 for
        # edge 1) passes the test (f is quadratic, so the two Bregman
        # distances agree), and its step is kept as it is
        steps, solves = self.record(monkeypatch)
        sf, z, (nxt, (rho, rho_grad), gain) = self.step_from_zero(edge)
        assert [g for g, _ in solves] == gains and gain == gains[-1]
        h = solves[-1][1]
        assert h[0] == pytest.approx((math.sqrt(1.0 + 40.0 / gain) - 1.0) / 2.0)
        np.testing.assert_array_equal(nxt.x, h)
        assert nxt.reg_value < z.reg_value
        want_rho, want_grad = sf.rho(nxt.x - sf.y)
        assert rho == pytest.approx(want_rho, rel=1e-14)
        np.testing.assert_allclose(rho_grad, want_grad, rtol=1e-12)

    def test_gain_doublings_cap_ends_in_domain_violation(self, monkeypatch):
        # one doubling leaves LeftOf(1) no gain inside the domain (8 is the
        # first, as above)
        _, solves = self.record(monkeypatch)
        monkeypatch.setattr(biopt.lower, "MAX_GAIN_DOUBLINGS", 1)
        with pytest.raises(DomainViolation, match="iterate outside"):
            self.step_from_zero(1.0)
        assert [g for g, _ in solves] == [1.0, 2.0]

    def test_gain_doublings_cap_ends_in_stall(self, monkeypatch):
        # f's value is NaN off the anchor (its gradient is finite), so the
        # descent inequality fails at every gain
        class NanValue(QuadraticOracle):
            def value_grad(self, x):
                return math.nan, super().value_grad(x)[1]

        _, solves = self.record(monkeypatch)
        monkeypatch.setattr(biopt.lower, "MAX_GAIN_DOUBLINGS", 3)
        inst = ProblemInstance(NanValue(np.eye(1), np.array([10.0])),
                               SimpleOracle("zero"), Metric(dim=1), 1)
        with pytest.raises(SubproblemStall, match="descent test"):
            solve_acceptable(inst, np.zeros(1), 1.0, 2, 0.2)
        assert [g for g, _ in solves] == [1.0, 2.0, 4.0, 8.0]

    def test_exact_paths_never_enter_the_lower_level(self, monkeypatch):
        # the exact driver and the 1-D segment prox (perfbench's exact-quad
        # and reference-1d) do not reach the gain, so their runs are unmoved
        def forbidden(*args, **kwargs):
            raise AssertionError("lower level entered")
        for module in (biopt.driver, biopt.segment):
            monkeypatch.setattr(module, "solve_acceptable", forbidden)
        monkeypatch.setattr(biopt.lower, "_composite_step", forbidden)
        for p in (2, 3):
            tr = run(build_builtin("quad-5", 0), "exact", p=p, H=1.0,
                     budget=200, epsilon=1e-5, x0=np.ones(5))
            assert tr.status in ("optimal", "gap_reached")
        inst = build_example_1d()
        for H, p in ((1.0, 3), (2.0, 2), (0.5, 4)):
            exact_sprox_1d_general(0.7, -1.3, H, p)
            sprox_reference(inst, np.array([0.7]), np.array([-1.3]), H, p)


def probe_instance():
    """quad-10 seed 1 with 0.5||x||_1: the cell whose proximal-gradient loop
    stalled while backtracking accepted on an absolute slack."""
    base = build_builtin("quad-10", 1)
    return build_quadratic(base.smooth.Q, base.smooth.c,
                           psi=SimpleOracle("l1", weight=0.5))


class TestCompositeRegression:
    @pytest.mark.parametrize("p", [2, 3])
    def test_probe_cell_reaches_optimal(self, p):
        # at p = 3 the gain-1 run certifies its gap (gap_cert 2.1e-5 <= eps
        # at k = 6) before it reaches the optimality exit
        tr = run(probe_instance(), "inexact", p=p, beta=0.1, H=1.0,
                 epsilon=1e-4, R=10.0, x0=np.ones(10))
        assert tr.status == {2: "optimal", 3: "gap_reached"}[p]
        assert tr.status == "optimal" or tr.records[-1]["gap_cert"] <= 1e-4
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
        AcceptedPoint(inst, 0.1, evaluate(inst, y, 1.0, 2, ap.T), ap.g)

    def test_wrong_sign_at_free_coordinate(self):
        inst, y, ap = self.accepted()
        g = ap.g.copy()
        g[0] = -g[0]
        with pytest.raises(InvariantViolation, match="subdifferential"):
            AcceptedPoint(inst, 0.1, evaluate(inst, y, 1.0, 2, ap.T), g)

    def test_beyond_weight_at_zero(self):
        inst, y, ap = self.accepted()
        i = int(np.flatnonzero(ap.T == 0.0)[0])
        g = ap.g.copy()
        g[i] = 1.5 * inst.simple.weight
        with pytest.raises(InvariantViolation, match="subdifferential"):
            AcceptedPoint(inst, 0.1, evaluate(inst, y, 1.0, 2, ap.T), g)


class TestOneEvaluationPerPoint:
    def test_slack_products_per_acceptance_iteration(self, monkeypatch):
        # every slack product t = A x - b of SeparableOracle goes through
        # _slacks; count them inside solve_acceptable, split by the point:
        # the anchor y (value and gradient, Hessian for the radial solve,
        # even-form weights, all from one product) or an iterate z_i.  The
        # loop before the fused evaluation made 11.2 products per acceptance
        # iteration at iterates and 18 per call at the anchor on this run,
        # and 3 per call at the anchor before the shared anchor evaluation.
        # Steps redone at a doubled gain evaluate their point again, and
        # count as iterate products; iters counts accepted steps only (185
        # on this run at gain 1, 973 at the fixed gain 2L).
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
        assert iters[0] >= 150
        assert counts["iterate"] <= 1.1 * iters[0]
        assert counts["anchor"] == calls[0]

    @pytest.mark.parametrize("seed", [0, 2])
    def test_one_eigh_per_acceptance_solve(self, monkeypatch, seed):
        # each anchor's ScalingFunction builds its radial solver once, from
        # one eigendecomposition of D^2 f(y), however many steps it takes:
        # on seed 2 some anchors take more than one (666 radial solves in
        # 656 calls)
        calls, eighs = [0], [0]
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            eighs[0] += 1
            return eigh(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            calls[0] += 1
            return solve_acceptable(*args, **kwargs)

        inst = build_builtin("logbar-10-5", seed=seed)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(biopt.driver, "solve_acceptable", counted_solve)
        monkeypatch.setattr(biopt.segment, "solve_acceptable", counted_solve)
        run(inst, "superfast", p=3, beta=0.2, budget=200)
        assert calls[0] >= 100
        assert eighs[0] == calls[0]

    def test_shifted_grad_evaluations_per_subproblem(self, monkeypatch):
        # 9 calls make 18 evaluations of grad rho: each starts with a face
        # step on its anchor's face and stops at the face minimizer's
        # optimality test (48 evaluations without the face step).  Only
        # ScalingFunction.rho calls made inside subproblem_solve count; the
        # step's own rho(z+) is outside it
        base = build_builtin("quad-5", 2)
        inst = build_quadratic(base.smooth.Q, base.smooth.c,
                               psi=SimpleOracle("l1", weight=0.5))
        rho, solve = ScalingFunction.rho, biopt.lower.subproblem_solve
        counts = {"grad": 0, "solve": 0}
        inside = []

        def counted_rho(*args):
            counts["grad"] += bool(inside)
            return rho(*args)

        def counted_solve(*args, **kwargs):
            counts["solve"] += 1
            inside.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(ScalingFunction, "rho", counted_rho)
        monkeypatch.setattr(biopt.lower, "subproblem_solve", counted_solve)
        tr = run(inst, "inexact", p=2, beta=0.1, H=1.0, epsilon=1e-4, R=10.0,
                 x0=np.ones(5))
        assert tr.status == "optimal"
        assert counts["solve"] >= 8
        assert counts["grad"] <= 3.0 * counts["solve"]

    def test_secular_evaluations_per_radial_solve(self, monkeypatch):
        # secular evaluations in the whole run: 1359 in 186 radial solves
        # (7.31 per solve), each from its own bracket; starting each at the
        # previous solve's shift saves none on this run
        searches = []
        monkeypatch.setattr(biopt.numerics, "monotone_root", recording_root(searches))
        run(build_logbar(10, 5, seed=0), "superfast", p=3, beta=0.2, budget=200)
        assert len(searches) >= 150
        assert sum(map(len, searches)) <= 1500

    def test_quadratic_radial_solves_share_one_eigh(self, monkeypatch):
        # with the identity metric each anchor's radial solver takes Q's
        # eigenbasis from the oracle (8 eigh calls on this run before)
        eigh, calls = np.linalg.eigh, []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        trace = run(build_builtin("quad-5", seed=1), "inexact", p=3, beta=0.1,
                    H=1.0, budget=200, epsilon=1e-6)
        assert trace.records[-1]["k"] >= 5
        assert len(calls) == 1

    @pytest.mark.parametrize("kind, k", [("l1", 8), ("box", 5)])
    def test_diagonal_metric_run_factors_nothing(self, kind, k, monkeypatch):
        # Metric factors B once, when it is built: a composite run under a
        # diagonal B (face steps, proximal-gradient steps, certificates)
        # makes no linear solve, inverse or Cholesky factorization of its own
        base = build_builtin("quad-10", seed=0)
        d = base.dim
        psi = (SimpleOracle("l1", weight=0.5) if kind == "l1"
               else SimpleOracle("box", lo=-0.5 * np.ones(d), hi=0.5 * np.ones(d)))
        inst = build_quadratic(base.smooth.Q, base.smooth.c, psi=psi)
        inst.metric = Metric(np.diag(np.linspace(0.5, 2.0, d)))
        calls = []
        for name in ("solve", "inv", "cholesky"):
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        trace = run(inst, "inexact", p=2, beta=0.1, H=1.0, budget=200,
                    epsilon=1e-4, R=10.0)
        assert (trace.status, trace.records[-1]["k"]) == ("optimal", k)
        assert calls == []

    def test_accepted_point_makes_no_prox_power_call(self, monkeypatch):
        # the point certifies the step's own PointEval, regularized gradient
        # included, so building it forms no d_{p+1} of its own
        inst = build_logbar(10, 4, seed=3)
        p = 2
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        prox_power = biopt.acceptance.prox_power
        accepted_point = biopt.lower.AcceptedPoint
        calls, building = [], []

        def counted(*args):
            calls.append(bool(building))
            return prox_power(*args)

        def build(*args, **kwargs):
            building.append(True)
            try:
                return accepted_point(*args, **kwargs)
            finally:
                building.pop()
        monkeypatch.setattr(biopt.acceptance, "prox_power", counted)
        monkeypatch.setattr(biopt.lower, "AcceptedPoint", build)
        solve_acceptable(inst, inst.meta["x0"], prm.H, p, 0.25)
        assert calls and not any(calls)
