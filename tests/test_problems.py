import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biopt.problems
from biopt import (BioptError, Metric, ProblemInstance, QuadraticOracle,
                   SeparableOracle, SimpleOracle, build_builtin,
                   build_example_1d, build_logbar, build_quadratic,
                   build_separable, load_instance, newton_minimize, run,
                   verify_trace)

from helpers import fd_grad


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
    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_l1_rejects_weight(self, weight):
        # an infinite weight once ran to branch "optimal" with F = inf
        with pytest.raises(ValueError, match="finite weight >= 0"):
            SimpleOracle("l1", weight=weight)

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

    @pytest.mark.parametrize("lo, hi, message", [
        ([math.nan, 0.0], [1.0, 1.0], "NaN bound"),
        ([0.0, 0.0], [1.0, math.nan], "NaN bound"),
        ([math.inf, 0.0], [math.inf, 1.0], "empty"),
        ([-math.inf, 0.0], [-math.inf, 1.0], "empty"),
    ])
    def test_box_rejects_nan_or_empty(self, lo, hi, message):
        # lo = hi = +inf was accepted, and a run on it died mid-way on a
        # bare "non-finite point"
        with pytest.raises(ValueError, match=message):
            SimpleOracle("box", lo=lo, hi=hi)

    def test_box_keeps_half_boxes(self):
        psi = SimpleOracle("box", lo=[-math.inf, 0.0], hi=[1.0, math.inf])
        assert psi.value(np.array([-1e300, 1e300])) == 0.0
        np.testing.assert_array_equal(
            psi.scaled_prox(1.0, np.array([5.0, -5.0]), Metric(dim=2)), [1.0, 0.0])

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
        assert psi.in_subdifferential(np.array([0.0]), np.array([0.7]), tol=1e-8)
        assert psi.in_subdifferential(np.array([2.0]), np.array([1.0]), tol=1e-8)
        assert not psi.in_subdifferential(np.array([2.0]), np.array([0.5]), tol=1e-8)
        box = SimpleOracle("box", lo=0.0, hi=1.0)
        assert box.in_subdifferential(np.array([0.0]), np.array([-3.0]), tol=1e-8)
        assert not box.in_subdifferential(np.array([0.5]), np.array([1.0]), tol=1e-8)

    def test_zero_psi_subdifferential_refuses_nan(self):
        # g = 0 is the only subgradient of psi = 0; a NaN entry is not within
        # any tolerance of it
        psi = SimpleOracle("zero")
        assert psi.in_subdifferential(np.zeros(3), np.array([0.0, 1e-9, -1e-9]),
                                      tol=1e-8)
        assert not psi.in_subdifferential(np.zeros(3), np.array([0.0, -2e-8, 0.0]),
                                          tol=1e-8)
        for g in ([np.nan, 0.0, 0.0], [0.0, 0.0, np.nan], [np.nan] * 3):
            assert not psi.in_subdifferential(np.zeros(3), np.array(g), tol=1e-8)

    def test_l1_face(self):
        # the free mask is x != 0, so NaN is free; held coordinates sit at 0
        psi = SimpleOracle("l1", weight=0.5)
        x = np.array([0.0, -2.0, 3.0, -0.0, np.nan])
        pattern, free, held, slope = psi.face(x)
        np.testing.assert_array_equal(pattern, [0.0, -1.0, 1.0, 0.0, np.nan])
        np.testing.assert_array_equal(free, x != 0.0)
        np.testing.assert_array_equal(held[~free], [0.0, 0.0])
        np.testing.assert_array_equal(slope, [-0.5, 0.5, np.nan])

    def test_box_face(self):
        # the free mask is lo < x < hi, so NaN is held, with pattern +1;
        # lo == hi holds every x, at hi when x >= hi and at lo below it
        lo = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, 2.0, 2.0, 2.0, -1.0])
        hi = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0])
        x = np.array([-1.0, 1.0, 0.3, -4.0, 5.0, 2.0, 1.0, 3.0, np.nan])
        psi = SimpleOracle("box", lo=lo, hi=hi)
        pattern, free, held, slope = psi.face(x)
        np.testing.assert_array_equal(pattern, [-1, 1, 0, -1, 1, 1, -1, 1, 1])
        np.testing.assert_array_equal(free, (lo < x) & (x < hi))
        np.testing.assert_array_equal(held[~free], [-1, 1, -1, 1, 2, 2, 2, 1])
        np.testing.assert_array_equal(slope, [0.0])
        # a scalar box broadcasts to x
        pattern, free, held, slope = SimpleOracle("box", lo=0.0, hi=1.0).face(
            np.array([0.0, 0.5, 2.0]))
        np.testing.assert_array_equal(pattern, [-1, 0, 1])
        np.testing.assert_array_equal(held, [0.0, 0.0, 1.0])
        assert free.tolist() == [False, True, False] and slope.shape == (1,)

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
        for n in range(0, 6):
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
        value, grad = o.value_grad(x)
        assert value == o.value(x)
        np.testing.assert_allclose(grad, fd_grad(o.value, x), rtol=1e-6,
                                   atol=1e-8)

    def test_hessian_matches_fd(self):
        o = self.make()
        x = np.array([0.2, -0.4, 0.9])
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            col = (o.value_grad(x + e)[1] - o.value_grad(x - e)[1]) / (2 * eps)
            np.testing.assert_allclose(o.expansion_at(x, 1)[2]()[:, i], col,
                                       rtol=1e-5, atol=1e-7)

    def test_even_form_order2_is_hessian_form(self):
        o = self.make()
        y = np.array([0.1, 0.3, -0.2])
        h = np.array([1.0, -2.0, 0.5])
        hessian = o.expansion_at(y, 1)[2]
        assert o.even_form(y, h, 2) == pytest.approx(float(h @ (hessian() @ h)))

    @pytest.mark.parametrize("order", [2, 4])
    def test_even_form_grad_matches_fd(self, order):
        o = self.make()
        y = np.array([0.1, 0.3, -0.2])
        h = np.array([1.0, -2.0, 0.5])
        want = fd_grad(lambda hh: o.even_form(y, hh, order), h)
        np.testing.assert_allclose(o.even_form_grad(y, h, order), want,
                                   rtol=1e-5, atol=1e-7)

    def test_even_form_rejects_odd_order(self):
        # even_form survives only for the benchmark tracer, which wraps it
        o = self.make()
        with pytest.raises(ValueError, match="even"):
            o.even_form(np.zeros(3), np.ones(3), 3)

    def test_domain_violation(self):
        o = SeparableOracle(np.array([[1.0], [-1.0]]), np.array([0.0, -2.0]),
                            "log_barrier")
        assert o.value_grad(np.array([1.0]))[1] is not None
        assert o.value(np.array([-0.5])) == math.inf
        assert o.value_grad(np.array([-0.5])) == (math.inf, None)
        assert o.expansion_at(np.array([-0.5]), 2) == (math.inf, None, None, None)

    @pytest.mark.parametrize("name, seed", [("logbar-10-5", 0), ("logbar-10-5", 2),
                                            ("logbar-40-20", 0)])
    def test_logbar_bound_takes_the_smaller_term(self, name, seed):
        # M_k = (k-1)!/slack_min^k min(sum_i ||a_i||^k, max_i ||a_i||^{k-2}
        # ||A||_2^2): it bounds (k-1)! sum_i |<a_i, h>|^k / slack_min^k, the
        # largest |D^k f[h]^k| over unit h on the region, is no larger than
        # the sum form, and a rotation of x with shuffled rows (the
        # benchmark's isometry) moves it by roundoff only
        o = build_builtin(name, seed=seed).smooth
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((o.dim, o.dim)))[0]
        rows = rng.permutation(len(o.b))
        turned = SeparableOracle((o.A @ U.T)[rows], o.b[rows], "log_barrier",
                                 slack_min=o.slack_min)
        hs = [np.linalg.svd(o.A)[2][0]] + [h / np.linalg.norm(h) for h in
                                           rng.standard_normal((50, o.dim))]
        norms = np.linalg.norm(o.A, axis=1)
        for k in (3, 4, 5):
            scale = math.factorial(k - 1) / o.slack_min ** k
            M = o.deriv_bound(k)
            assert M <= scale * np.sum(norms ** k)
            assert turned.deriv_bound(k) == pytest.approx(M, rel=1e-12)
            for h in hs:
                assert scale * np.sum(np.abs(o.A @ h) ** k) <= M * (1.0 + 1e-12)
        if (name, seed) == ("logbar-10-5", 0):  # the spectral term is the smaller
            assert o.deriv_bound(4) < 0.7 * 6.0 / o.slack_min ** 4 * np.sum(norms ** 4)

    @pytest.mark.parametrize("slack_min", [0.0, -0.5, math.nan, math.inf, True, "1"])
    def test_slack_min_must_be_positive_and_finite(self, slack_min):
        with pytest.raises(ValueError, match="slack_min must be a positive finite"):
            SeparableOracle(np.ones((2, 1)), np.zeros(2), "log_barrier",
                            slack_min=slack_min)

    def test_domain_test_keeps_the_smallest_slack(self):
        # slacks (x, 2 - x); a point outside the domain does not count
        o = SeparableOracle(np.array([[1.0], [-1.0]]), np.array([0.0, -2.0]),
                            "log_barrier")
        assert o.pop_min_slack() is None
        o.value(np.array([0.5]))
        o.value_grad(np.array([1.75]))
        o.expansion_at(np.array([1.0]), 1)
        o.value(np.array([3.0]))
        assert o.pop_min_slack() == 0.25
        assert o.pop_min_slack() is None
        for smooth in (SeparableOracle(np.ones((2, 1)), np.zeros(2), "power4"),
                       QuadraticOracle(np.eye(1), np.zeros(1))):
            smooth.value(np.array([-1.0]))
            assert smooth.pop_min_slack() is None

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

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_softplus_deriv_bound_dominates_samples(self, order):
        # superfast p = order - 1 reads M_order; f^(order) peaks near |t| < 4
        A = np.array([[1.0, 2.0], [-0.5, 1.0], [0.3, 0.0]])
        o = SeparableOracle(A, np.zeros(3), "softplus")
        t = np.random.default_rng(order).uniform(-6.0, 6.0, 20000)
        row_sum = np.sum(np.linalg.norm(A, axis=1) ** order)
        peak = np.max(np.abs(o.deriv(t, order))) * row_sum
        assert peak <= o.deriv_bound(order) * (1.0 + 1e-12)

    def test_power4_bound_exact(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        o = SeparableOracle(A, np.zeros(2), "power4")
        want = 2.0 * (np.linalg.norm(A, axis=1) ** 4).sum()
        assert o.deriv_bound(4) == pytest.approx(want)
        assert o.deriv_bound(5) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows must match"):
            SeparableOracle(np.ones((3, 2)), np.ones(4), "power4")

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2)])
    def test_rejects_dimension_0(self, shape):
        # a 0-column A once built an instance of dimension 0
        with pytest.raises(ValueError, match="one row and one column"):
            build_separable(np.ones(shape), np.ones(shape[0]), "power4")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["A", "b"])
    def test_rejects_non_finite(self, name, value):
        data = {"A": np.ones((3, 2)), "b": np.zeros(3)}
        data[name][1] = value
        with pytest.raises(ValueError, match=f"^{name} has an entry that is NaN"):
            build_separable(data["A"], data["b"], "softplus")


class TestQuadraticOracle:
    def test_values_and_gradients(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = np.array([1.0, -1.0])
        o = QuadraticOracle(Q, c)
        x = np.array([0.3, 0.7])
        assert o.value(x) == pytest.approx(0.5 * x @ Q @ x - c @ x)
        value, grad, hessian, even = o.expansion_at(x, 2)
        assert value == o.value(x)
        np.testing.assert_allclose(grad, Q @ x - c)
        np.testing.assert_array_equal(o.value_grad(x)[1], grad)
        np.testing.assert_allclose(hessian(), Q)
        assert o.even_form(x, x, 2) == pytest.approx(x @ Q @ x)
        assert o.even_form(x, x, 4) == 0.0
        assert even(x)[0] == pytest.approx(0.5 * x @ Q @ x)
        np.testing.assert_allclose(even(x)[1], Q @ x)
        assert o.deriv_bound(2) == pytest.approx(np.linalg.eigvalsh(Q)[-1], rel=1e-15)
        assert o.deriv_bound(3) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticOracle(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))

    def test_rejects_dimension_0(self):
        # lam[0] of an empty spectrum once raised a bare IndexError
        with pytest.raises(ValueError, match="n >= 1"):
            QuadraticOracle(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["Q", "c"])
    def test_rejects_non_finite(self, name, value):
        # Q = [[inf, 0], [0, 1]] was accepted, and a NaN made x* NaN
        data = {"Q": np.eye(2), "c": np.ones(2)}
        data[name][0] = value
        with pytest.raises(ValueError, match=f"^{name} has an entry that is NaN"):
            build_quadratic(data["Q"], data["c"])

    @pytest.mark.parametrize("lam", [[1.0, -1.0], [1.0, -1e-6]])
    def test_rejects_indefinite(self, lam):
        # Q = diag(1, -1) once ran to an acceptance or invariant failure
        with pytest.raises(ValueError, match="positive semidefinite"):
            QuadraticOracle(np.diag(lam), np.zeros(2))

    def test_keeps_roundoff_below_zero(self):
        # lambda_min = -1e-13 max|lam|, roundoff's size, is accepted and clamped
        U = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        Q = U @ np.diag([2.0, 1.0, -2e-13]) @ U.T
        assert QuadraticOracle(0.5 * (Q + Q.T), np.zeros(3)).eigenbasis[0][0] == 0.0

    def test_owns_read_only_Q(self):
        # the cached eigenbasis cannot go stale: Q is the oracle's own
        # read-only copy, and the caller's array stays writable
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        inst = build_quadratic(Q, np.array([1.0, -1.0]))
        lam, S = inst.smooth.eigenbasis
        with pytest.raises(ValueError, match="read-only"):
            inst.smooth.Q[0, 0] = 3.0
        Q[0, 0] = 3.0
        assert inst.smooth.Q[0, 0] == 2.0
        np.testing.assert_allclose(S @ np.diag(lam) @ S.T, inst.smooth.Q, atol=1e-15)
        again = build_quadratic(inst.smooth.Q, inst.smooth.c)  # from a read-only Q
        np.testing.assert_array_equal(again.smooth.Q, inst.smooth.Q)


def even_cases():
    """(oracle, anchor y, step h) for each family and a quadratic."""
    A = np.array([[1.0, 0.5, -0.2], [-0.3, 1.0, 0.4], [0.2, -0.1, 1.0],
                  [0.6, 0.3, 0.1]])
    lb = build_logbar(10, 3, seed=1)
    Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    h = np.array([0.1, -0.2, 0.05])
    return {"log_barrier": (lb.smooth, lb.meta["x0"], h),
            "power4": (SeparableOracle(A, np.zeros(4), "power4"),
                       np.array([0.3, -0.5, 0.8]), h),
            "softplus": (SeparableOracle(A, np.zeros(4), "softplus"),
                         np.array([0.1, 0.3, -0.2]), h),
            "quadratic": (QuadraticOracle(Q, np.ones(3)), np.array([0.3, 0.7, -0.1]), h)}


class TestEvenPart:
    """expansion_at's even(h) = (sum_{k<=q} D^{2k} f(y)[h]^{2k} / (2k)!,
    its h-gradient)."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("family", ["log_barrier", "power4", "softplus",
                                        "quadratic"])
    def test_grad_matches_fd(self, family, q):
        o, y, h = even_cases()[family]
        even = o.expansion_at(y, q)[3]
        want = fd_grad(lambda hh: even(hh)[0], h)
        np.testing.assert_allclose(even(h)[1], want, rtol=1e-6, atol=1e-9)


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
        np.testing.assert_allclose(inst.smooth.value_grad(inst.x_star)[1], np.zeros(4),
                                   atol=1e-10)
        assert inst.F(inst.x_star) == pytest.approx(inst.F_star)

    def test_build_quadratic_singular_psd(self):
        # a zero eigenvalue with c in Q's range: f has minimizers, and x* is
        # the least-squares solution (numpy's solve refused Q)
        inst = build_quadratic(np.diag([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        np.testing.assert_allclose(inst.x_star, [0.5, 1.0, 0.0], atol=1e-15)
        assert inst.F_star == pytest.approx(-0.75, abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_singular_quadratic_exact_runs_verify(self, p):
        inst = build_quadratic(np.diag([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        trace = run(inst, "exact", p=p, H=1.0, budget=100, epsilon=1e-8,
                    x0=np.ones(3))
        assert trace.status in ("optimal", "gap_reached")
        report = verify_trace(trace)
        assert len(report) == 7 and all(v["ok"] for v in report.values())

    def test_build_quadratic_unbounded_below(self):
        with pytest.raises(ValueError, match="f is unbounded below"):
            build_quadratic(np.diag([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0]))

    def test_newton_on_quadratic_is_exact(self):
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        c = np.array([1.0, 4.0])
        o = QuadraticOracle(Q, c)
        x = newton_minimize(o, np.zeros(2))
        np.testing.assert_allclose(x, np.linalg.solve(Q, c), atol=1e-10)

    def test_newton_reaches_gradient_floor(self):
        # seed 1 once left the Armijo test to rounding from ||grad f|| = 2.7e-10
        # on and ran out its 200 iterations at 1.8e-10
        inst = build_logbar(10, 5, seed=1)
        assert np.linalg.norm(inst.smooth.value_grad(inst.x_star)[1]) <= 1e-13

    def test_newton_stops_on_decrement(self):
        # from N = 200 the absolute tol is below the gradient's roundoff
        inst = build_logbar(200, 50, seed=0)
        assert np.linalg.norm(inst.smooth.value_grad(inst.x_star)[1]) <= 1e-9

    def test_newton_iteration_cap_raises(self, monkeypatch):
        smooth = build_logbar(10, 5, seed=1).smooth
        monkeypatch.setattr(biopt.problems, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(BioptError, match="no convergence in 1 iterations"):
            newton_minimize(smooth, np.ones(5))

    def test_build_logbar_properties(self):
        inst = build_logbar(10, 5, seed=0)
        assert inst.name == "logbar-10-5"
        assert inst.smooth.value_grad(inst.meta["x0"])[1] is not None
        # the stationarity residual at the recorded optimum is negligible
        assert np.linalg.norm(inst.smooth.value_grad(inst.x_star)[1]) <= 1e-10
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

    @pytest.mark.parametrize("name, text", [
        ("Q", '"family": "quadratic", "Q": [[NaN, 0], [0, 1]], "c": [1, 1]'),
        ("c", '"family": "quadratic", "Q": [[1, 0], [0, 1]], "c": [Infinity, 1]'),
        ("A", '"family": "log_barrier", "A": [[1, 0], [0, -Infinity]], "b": [0, 0]'),
        ("b", '"family": "softplus", "A": [[1, 0], [0, 1]], "b": [NaN, 0]')])
    def test_load_instance_refuses_non_finite_literals(self, tmp_path, name, text):
        # json reads NaN and Infinity; such a quadratic once loaded with
        # F* = NaN and was refused only at x0, as outside the domain of f
        path = tmp_path / "inst.json"
        path.write_text("{" + text + "}")
        with pytest.raises(ValueError, match=f"^{name} has an entry that is NaN"):
            load_instance(str(path))

    def test_load_instance_separable(self, tmp_path):
        spec = {"family": "softplus", "A": [[1.0, 0.0], [0.0, 1.0]],
                "b": [0.0, 0.0]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(spec))
        inst = load_instance(str(path))
        assert isinstance(inst.smooth, SeparableOracle)
        assert inst.F(np.zeros(2)) == pytest.approx(2.0 * math.log(2.0))
