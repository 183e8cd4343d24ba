import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biopt import (DomainViolation, Metric, ProblemInstance, QuadraticOracle,
                   SeparableOracle, SimpleOracle, build_builtin,
                   build_example_1d, build_logbar, build_quadratic,
                   load_instance, newton_minimize)


def fd_grad(fun, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fun(x + e) - fun(x - e)) / (2 * eps)
    return g


def psi_to_json(psi):
    """The instance-file form of psi that SimpleOracle.from_json reads."""
    out = {"kind": "none" if psi.kind == "zero" else psi.kind}
    if psi.kind == "l1":
        out["weight"] = psi.weight
    if psi.kind == "box":
        out["lo"] = psi.lo.tolist()
        out["hi"] = psi.hi.tolist()
    return out


class TestSimpleOracle:
    def test_l1_value(self):
        psi = SimpleOracle("l1", weight=2.0)
        assert psi.value(np.array([1.0, -3.0])) == pytest.approx(8.0)

    def test_l1_prox_soft_threshold(self):
        psi = SimpleOracle("l1", weight=1.0)
        m = Metric(dim=3)
        w = np.array([2.5, -0.3, -4.0])
        got = psi.scaled_prox(0.5, w, m)
        np.testing.assert_allclose(got, [2.0, 0.0, -3.5])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-5, 5), st.floats(0.01, 3), st.floats(0.01, 3))
    def test_l1_prox_is_argmin(self, w, lam, weight):
        # the closed form must beat a fine grid of competitors
        psi = SimpleOracle("l1", weight=weight)
        m = Metric(dim=1)
        x = psi.scaled_prox(lam, np.array([w]), m)[0]

        def obj(t):
            return 0.5 * (t - w) ** 2 + lam * weight * abs(t)

        grid = np.linspace(w - 2 * lam * weight - 1, w + 2 * lam * weight + 1, 4001)
        assert obj(x) <= np.min(obj(grid)) + 1e-9

    def test_box_prox_clips(self):
        psi = SimpleOracle("box", lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.0]))
        got = psi.scaled_prox(3.0, np.array([5.0, -5.0]), Metric(dim=2))
        np.testing.assert_allclose(got, [1.0, 0.0])
        assert psi.value(np.array([0.5, 1.0])) == 0.0
        assert psi.value(np.array([2.0, 1.0])) == math.inf

    def test_diagonal_metric_prox(self):
        # weighted soft threshold: threshold lam*weight/d_i per coordinate
        psi = SimpleOracle("l1", weight=1.0)
        m = Metric(np.diag([4.0, 1.0]))
        got = psi.scaled_prox(1.0, np.array([1.0, 1.0]), m)
        np.testing.assert_allclose(got, [0.75, 0.0])

    def test_prox_rejects_dense_metric(self):
        B = np.array([[2.0, 0.5], [0.5, 2.0]])
        psi = SimpleOracle("l1")
        with pytest.raises(NotImplementedError):
            psi.scaled_prox(1.0, np.zeros(2), Metric(B))

    def test_in_subdifferential(self):
        psi = SimpleOracle("l1", weight=1.0)
        assert psi.in_subdifferential(np.array([0.0]), np.array([0.7]))
        assert psi.in_subdifferential(np.array([2.0]), np.array([1.0]))
        assert not psi.in_subdifferential(np.array([2.0]), np.array([0.5]))
        box = SimpleOracle("box", lo=0.0, hi=1.0)
        assert box.in_subdifferential(np.array([0.0]), np.array([-3.0]))
        assert not box.in_subdifferential(np.array([0.5]), np.array([1.0]))

    def test_json_roundtrip(self):
        for psi in (SimpleOracle("zero"), SimpleOracle("l1", weight=0.3),
                    SimpleOracle("box", lo=[-1.0], hi=[2.0])):
            back = SimpleOracle.from_json(psi_to_json(psi))
            assert back.kind == psi.kind
            x = np.array([0.7])
            assert back.value(x) == psi.value(x)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown psi kind"):
            SimpleOracle("huber")


class TestScalarFamilies:
    def test_logbar_derivative_formula(self):
        # (-1)^n (n-1)! / t^n at t = 2
        o = SeparableOracle(np.array([[1.0]]), np.array([0.0]), "log_barrier")
        t = np.array([2.0])
        assert o.deriv(t, 0)[0] == pytest.approx(-math.log(2.0))
        assert o.deriv(t, 1)[0] == pytest.approx(-0.5)
        assert o.deriv(t, 2)[0] == pytest.approx(0.25)
        assert o.deriv(t, 3)[0] == pytest.approx(-2.0 / 8.0)
        assert o.deriv(t, 4)[0] == pytest.approx(6.0 / 16.0)

    @pytest.mark.parametrize("family,t0", [("log_barrier", 0.7),
                                           ("power4", -1.3),
                                           ("softplus", 0.4)])
    def test_derivative_ladder_matches_fd(self, family, t0):
        o = SeparableOracle(np.array([[1.0]]), np.array([0.0]), family)
        eps = 1e-6
        for n in range(0, 4):
            lo = o.deriv(np.array([t0 - eps]), n)[0]
            hi = o.deriv(np.array([t0 + eps]), n)[0]
            want = o.deriv(np.array([t0]), n + 1)[0]
            assert (hi - lo) / (2 * eps) == pytest.approx(want, rel=1e-4, abs=1e-6)


class TestSeparableOracle:
    def make(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        return SeparableOracle(A, b, "softplus")

    def test_grad_matches_fd(self):
        o = self.make()
        x = np.array([0.2, -0.4, 0.9])
        np.testing.assert_allclose(o.grad(x), fd_grad(o.value, x), rtol=1e-6,
                                   atol=1e-8)

    def test_hessian_matches_fd(self):
        o = self.make()
        x = np.array([0.2, -0.4, 0.9])
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            col = (o.grad(x + e) - o.grad(x - e)) / (2 * eps)
            np.testing.assert_allclose(o.hessian(x)[:, i], col, rtol=1e-5,
                                       atol=1e-7)

    def test_even_form_order2_is_hessian_form(self):
        o = self.make()
        y = np.array([0.1, 0.3, -0.2])
        h = np.array([1.0, -2.0, 0.5])
        want = float(h @ (o.hessian(y) @ h))
        assert o.even_form(y, h, 2) == pytest.approx(want)

    @pytest.mark.parametrize("order", [2, 4])
    def test_even_form_grad_matches_fd(self, order):
        o = self.make()
        y = np.array([0.1, 0.3, -0.2])
        h = np.array([1.0, -2.0, 0.5])
        got = o.even_form_grad(y, h, order)
        want = fd_grad(lambda hh: o.even_form(y, hh, order), h)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_even_form_rejects_odd_order(self):
        o = self.make()
        with pytest.raises(ValueError, match="even"):
            o.even_form(np.zeros(3), np.ones(3), 3)

    def test_domain_violation(self):
        o = SeparableOracle(np.array([[1.0], [-1.0]]), np.array([0.0, -2.0]),
                            "log_barrier")
        assert o.in_domain(np.array([1.0]))
        assert not o.in_domain(np.array([-0.5]))
        assert o.value(np.array([-0.5])) == math.inf
        with pytest.raises(DomainViolation, match="domain violation at row 0"):
            o.grad(np.array([-0.5]))

    def test_logbar_deriv_bound_dominates_samples(self):
        inst = build_logbar(10, 3, seed=1)
        o = inst.smooth
        M4 = o.deriv_bound(4)
        assert M4 is not None and M4 > 0
        # bound must dominate the actual contracted form on the operating region
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = inst.x_star + 0.01 * rng.standard_normal(3)
            t = o.A @ x - o.b
            if np.min(t) < o.slack_min:
                continue
            h = rng.standard_normal(3)
            h /= np.linalg.norm(h)
            assert abs(o.even_form(x, h, 4)) <= M4 * (1.0 + 1e-12)

    def test_power4_bound_exact(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        o = SeparableOracle(A, np.zeros(2), "power4")
        want = 2.0 * (np.linalg.norm(A, axis=1) ** 4).sum()
        assert o.deriv_bound(4) == pytest.approx(want)
        assert o.deriv_bound(5) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows must match"):
            SeparableOracle(np.ones((3, 2)), np.ones(4), "power4")


class TestQuadraticOracle:
    def test_values_and_gradients(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = np.array([1.0, -1.0])
        o = QuadraticOracle(Q, c)
        x = np.array([0.3, 0.7])
        assert o.value(x) == pytest.approx(0.5 * x @ Q @ x - c @ x)
        np.testing.assert_allclose(o.grad(x), Q @ x - c)
        np.testing.assert_allclose(o.hessian(x), Q)
        assert o.even_form(x, x, 4) == 0.0
        assert o.deriv_bound(3) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticOracle(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))


class TestInstances:
    def test_example_1d(self):
        inst = build_example_1d()
        assert inst.dim == 1
        assert inst.F(np.array([2.0])) == pytest.approx(4.0)
        assert inst.F_star == 0.0
        np.testing.assert_allclose(inst.x_star, [0.0])

    def test_build_quadratic_optimum(self):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((4, 4))
        Q = G.T @ G + np.eye(4)
        c = rng.standard_normal(4)
        inst = build_quadratic(Q, c)
        np.testing.assert_allclose(inst.smooth.grad(inst.x_star), np.zeros(4),
                                   atol=1e-10)
        assert inst.F(inst.x_star) == pytest.approx(inst.F_star)

    def test_newton_on_quadratic_is_exact(self):
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        c = np.array([1.0, 4.0])
        o = QuadraticOracle(Q, c)
        x = newton_minimize(o, np.zeros(2))
        np.testing.assert_allclose(x, np.linalg.solve(Q, c), atol=1e-10)

    def test_build_logbar_properties(self):
        inst = build_logbar(10, 5, seed=0)
        assert inst.name == "logbar-10-5"
        assert inst.smooth.in_domain(inst.meta["x0"])
        # the stationarity residual at the recorded optimum is negligible
        assert np.linalg.norm(inst.smooth.grad(inst.x_star)) <= 1e-10
        # frozen instance constants (seed 0)
        assert inst.smooth.slack_min == pytest.approx(0.15877412625560283)
        assert inst.F_star == pytest.approx(-1.0756070063306515)

    def test_build_logbar_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            build_logbar(7, 3)

    def test_build_builtin(self):
        assert build_builtin("example1d").name == "example1d"
        q = build_builtin("quad-3", seed=4)
        assert q.dim == 3 and q.optimum is not None
        with pytest.raises(ValueError, match="unknown builtin"):
            build_builtin("rosenbrock")

    def test_builtin_seed_determinism(self):
        a = build_builtin("quad-3", seed=11)
        b = build_builtin("quad-3", seed=11)
        c = build_builtin("quad-3", seed=12)
        np.testing.assert_array_equal(a.smooth.Q, b.smooth.Q)
        assert not np.array_equal(a.smooth.Q, c.smooth.Q)

    def test_load_instance_json(self, tmp_path):
        spec = {"family": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]],
                "c": [1.0, 1.0], "psi": {"kind": "l1", "weight": 0.5},
                "name": "tiny"}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(spec))
        inst = load_instance(str(path))
        assert inst.name == "tiny"
        assert inst.simple.kind == "l1"
        assert inst.F(np.array([1.0, 0.0])) == pytest.approx(1.0 - 1.0 + 0.5)

    def test_load_instance_separable(self, tmp_path):
        spec = {"family": "softplus", "A": [[1.0, 0.0], [0.0, 1.0]],
                "b": [0.0, 0.0]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(spec))
        inst = load_instance(str(path))
        assert isinstance(inst.smooth, SeparableOracle)
        assert inst.F(np.zeros(2)) == pytest.approx(2.0 * math.log(2.0))
