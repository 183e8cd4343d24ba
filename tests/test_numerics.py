import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biopt import (BracketFailure, DegenerateCoefficient, Metric, monotone_root,
                   power_mean_norm, prox_power, solve_step_coefficient,
                   uniform_convexity_gap)
from biopt import numerics


def prox_power_hessian(metric, x, p):
    """Hessian ||x||^{p-1} B + (p-1) ||x||^{p-3} (Bx)(Bx)^T of d_{p+1}."""
    r = metric.norm(x)
    if r == 0.0:
        return np.zeros((metric.dim, metric.dim))
    bx = metric.apply(x)
    return (r ** (p - 1)) * metric.B + (p - 1) * (r ** (p - 3)) * np.outer(bx, bx)


def random_spd(dim, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim))
    return G @ G.T + dim * np.eye(dim)


class TestMetric:
    def test_identity_fast_path(self):
        m = Metric(dim=4)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert m.is_identity
        assert m.norm(x) == pytest.approx(np.linalg.norm(x))
        assert np.array_equal(m.apply(x), x)
        assert np.array_equal(m.solve(x), x)

    def test_spd_roundtrip(self):
        B = random_spd(5, 1)
        m = Metric(B)
        g = np.arange(5.0)
        np.testing.assert_allclose(m.apply(m.solve(g)), g, atol=1e-10)

    def test_norm_dual_norm_pairing(self):
        # <g, x> <= ||g||_* ||x|| with equality at g = Bx
        B = random_spd(3, 2)
        m = Metric(B)
        x = np.array([0.3, -1.0, 2.0])
        g = m.apply(x)
        assert float(g @ x) == pytest.approx(m.dual_norm(g) * m.norm(x))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Metric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Metric(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_is_diagonal(self):
        assert Metric(np.diag([2.0, 3.0])).is_diagonal
        assert not Metric(random_spd(3, 3)).is_diagonal


class TestProxPower:
    def test_value_1d(self):
        m = Metric(dim=1)
        v, g = prox_power(m, np.array([2.0]), 3)
        assert v == pytest.approx(2.0 ** 4 / 4.0)
        assert g[0] == pytest.approx(2.0 ** 3)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_grad_matches_fd(self, p):
        B = random_spd(4, p)
        m = Metric(B)
        rng = np.random.default_rng(10 + p)
        x = rng.standard_normal(4)
        _, g = prox_power(m, x, p)
        eps = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            fd = (prox_power(m, x + e, p)[0] - prox_power(m, x - e, p)[0]) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_hessian_matches_fd(self, p):
        B = random_spd(3, 20 + p)
        m = Metric(B)
        x = np.array([0.5, -1.2, 0.8])
        Hm = prox_power_hessian(m, x, p)
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd = (prox_power(m, x + e, p)[1] - prox_power(m, x - e, p)[1]) / (2 * eps)
            np.testing.assert_allclose(Hm[:, i], fd, rtol=1e-5, atol=1e-6)

    def test_zero_point(self):
        m = Metric(dim=2)
        v, g = prox_power(m, np.zeros(2), 3)
        assert v == 0.0
        assert np.all(g == 0.0)

    def test_nonfinite_rejected(self):
        for m in (Metric(dim=2), Metric(random_spd(2, 5))):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="non-finite"):
                    prox_power(m, np.array([1.0, bad]), 2)


class TestStepCoefficient:
    def test_frozen_values(self):
        # a^2 = c(A + a): A=3, c=1 -> (1+sqrt(13))/2; A=1, c=1 -> golden ratio
        assert solve_step_coefficient(3.0, 1.0) == pytest.approx(
            (1.0 + math.sqrt(13.0)) / 2.0)
        assert solve_step_coefficient(1.0, 1.0) == pytest.approx(
            (1.0 + math.sqrt(5.0)) / 2.0)
        assert solve_step_coefficient(0.0, 2.0) == pytest.approx(2.0)

    @given(st.floats(0.0, 1e6), st.floats(1e-8, 1e6))
    def test_solves_equation(self, A, c):
        a = solve_step_coefficient(A, c)
        assert a > 0
        assert a * a / (A + a) == pytest.approx(c, rel=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateCoefficient):
            solve_step_coefficient(1.0, 0.0)
        with pytest.raises(ValueError):
            solve_step_coefficient(-1.0, 1.0)


class TestPowerMeanNorm:
    def test_frozen_value(self):
        # alpha=1/2, n1=1, n2=2, p=3: ((1 + 2^{4/3})/2)^{3/4}
        want = ((1.0 + 2.0 ** (4.0 / 3.0)) / 2.0) ** 0.75
        assert power_mean_norm(0.5, 1.0, 2.0, 3) == pytest.approx(want)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0),
           st.integers(1, 5))
    def test_between_endpoints(self, alpha, n1, n2, p):
        v = power_mean_norm(alpha, n1, n2, p)
        assert min(n1, n2) - 1e-12 <= v <= max(n1, n2) + 1e-12

    def test_endpoints(self):
        assert power_mean_norm(1.0, 3.0, 7.0, 2) == pytest.approx(3.0)
        assert power_mean_norm(0.0, 3.0, 7.0, 2) == pytest.approx(7.0)


class TestMonotoneRoot:
    def test_frozen_root(self):
        # x^3 = 2 from the bracket [0, 1]: widens hi, then bisects to resolution
        x = monotone_root(lambda x: x ** 3 - 2.0, 0.0, 1.0)
        assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_widens_low_side(self):
        x = monotone_root(lambda x: x + 5.0, 0.0, 1.0)
        assert x == pytest.approx(-5.0, abs=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_sign_change_raises_after_bounded_steps(self, sign):
        calls = []

        def phi(x):
            calls.append(x)
            return sign  # never changes sign
        with pytest.raises(BracketFailure):
            monotone_root(phi, 0.0, 1.0)
        assert len(calls) <= 1000

    def test_slope_path_converges_fast(self):
        # x^3 = 2 with its slope: Newton reaches full precision where
        # bisection to resolution takes about 55 evaluations
        calls = []

        def phi(x):
            calls.append(x)
            return x ** 3 - 2.0
        x = monotone_root(phi, 0.0, 1.0, dphi=lambda x: 3.0 * x * x)
        assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        assert len(calls) <= 10

    @pytest.mark.parametrize("slope", [1e-3, -1.0, 0.0])
    def test_slope_out_of_bracket_falls_back_to_bisection(self, slope):
        # each Newton step of a wrong slope leaves [lo, hi] (or is undefined)
        calls = []

        def phi(x):
            calls.append(x)
            return x - 0.3
        x = monotone_root(phi, 0.0, 1.0, dphi=lambda x: slope)
        assert x == pytest.approx(0.3, abs=1e-15)
        assert len(calls) <= 200

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_slope_path_without_sign_change_raises(self, sign):
        calls = []

        def phi(x):
            calls.append(x)
            return sign
        with pytest.raises(BracketFailure):
            monotone_root(phi, 0.0, 1.0, dphi=lambda x: 1.0)
        assert len(calls) <= 1000

    @pytest.mark.parametrize("dphi", [None, lambda x: 1.0])
    @pytest.mark.parametrize("guess, root", [(0.0, 1.0), (3.0, -5.0), (-1e-300, 7.5)])
    def test_zero_width_guess_far_from_root(self, guess, root, dphi):
        # lo == hi is given a width first, or doubling could never move it
        x = monotone_root(lambda x: x - root, guess, guess, dphi)
        assert x == pytest.approx(root, abs=1e-14)

    @pytest.mark.parametrize("dphi", [None, lambda x: 1.0])
    def test_zero_width_guess_at_root(self, dphi):
        calls = []

        def phi(x):
            calls.append(x)
            return x - 0.25
        assert monotone_root(phi, 0.25, 0.25, dphi) == 0.25
        assert len(calls) <= 3

    @pytest.mark.parametrize("dphi", [None, lambda x: 1.0])
    def test_zero_width_guess_without_sign_change_raises(self, dphi):
        with pytest.raises(BracketFailure):
            monotone_root(lambda x: 1.0, 2.0, 2.0, dphi)


    @pytest.mark.parametrize("eta", [1e-12, 1e-10, 1e-8])
    def test_slope_path_with_noise_at_root(self, eta):
        # atan(x - r) with its exact slope plus noise +-eta of alternating
        # sign: the sign of phi is noise where |atan(x - r)| < eta.  The search
        # ends within 3 eta of r (a Newton step below one ulp, or one that
        # gains nothing on |phi| without a sign change, where |phi| <= 2 eta)
        # and in no more evaluations than bisection to resolution takes
        for r in np.linspace(0.05, 1.95, 39):
            bisection = []
            monotone_root(lambda x: bisection.append(x) or math.atan(x - r),
                          0.0, 2.0)
            calls = []

            def phi(x):
                calls.append(x)
                return math.atan(x - r) + eta * (-1.0) ** len(calls)
            x = monotone_root(phi, 0.0, 2.0,
                              dphi=lambda x: 1.0 / (1.0 + (x - r) ** 2))
            assert abs(x - r) <= 3.0 * eta
            assert len(calls) <= len(bisection)


class TestRadialSolverStress:
    """(K + c||h||^{p-1}B) h = -g over p, metric, K's scale and rank, c, ||g||.

    The bisection to resolution that the Newton solve replaced gave, on this
    same sweep (1620 solves), a worst relative residual
    ||Kh + c||h||^{p-1}Bh + g|| / ||g|| of 1.12e-4 (a singular K scaled by
    1e4 with ||g|| = 1e-8: eigendecomposition roundoff), a worst residual of
    10.9 eps relative to ||K|| ||h|| + c||h||^{p-1}||Bh|| + ||g||, and took
    up to 109 evaluations of the secular function per solve (65 on average).
    """
    BISECTION_REL = 1.13e-4
    BISECTION_BACKWARD = 10.9

    def test_residual_no_worse_than_bisection(self, monkeypatch):
        worst_rel, worst_backward, evals = self.sweep(6, monkeypatch)
        assert len(evals) == 1620
        assert worst_rel <= self.BISECTION_REL
        assert worst_backward <= self.BISECTION_BACKWARD
        assert max(evals) <= 20

    @pytest.mark.parametrize("d", [1, 9, 40])
    def test_residual_across_dimensions(self, d, monkeypatch):
        # the same sweep and bounds at other sizes; d = 9 and 40 pass numpy's
        # 8-accumulator threshold for sums, which the secular loop does not
        # follow.  At d = 40 the relative residual is left out: rounding h to
        # doubles alone leaves eps ||K|| ||h|| = 8.4e-5 ||g|| there (singular
        # K scaled by 1e4, ||g|| = 1e-8), and any h reads 1.1e-4 to 1.6e-4
        worst_rel, worst_backward, evals = self.sweep(d, monkeypatch)
        assert len(evals) == 1620
        assert d >= 40 or worst_rel <= self.BISECTION_REL
        assert worst_backward <= self.BISECTION_BACKWARD
        assert max(evals) <= 20

    def sweep(self, d, monkeypatch):
        """Worst relative and backward residual and the secular evaluations
        per solve over the sweep at dimension d."""
        evals = []

        def counting_root(phi, lo, hi, dphi=None):
            n = len(evals)
            evals.append(0)

            def counted(x):
                evals[n] += 1
                return phi(x)
            return monotone_root(counted, lo, hi, dphi)
        monkeypatch.setattr(numerics, "monotone_root", counting_root)

        rng = np.random.default_rng(0)
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spectra = (np.logspace(-2, 1, d), np.r_[0.0, np.logspace(-1, 1, d - 1)])
        G = np.random.default_rng(3).standard_normal((d, d))
        metrics = (Metric(dim=d), Metric(G @ G.T / d + 0.5 * np.eye(d)))
        gs = [np.random.default_rng(100 + j).standard_normal(d) for j in range(3)]
        worst_rel = worst_backward = 0.0
        for p in (2, 3, 4):
            for metric in metrics:
                for spectrum in spectra:
                    for k_scale in (1e-4, 1.0, 1e4):
                        K = k_scale * (V @ np.diag(spectrum) @ V.T)
                        k_norm = np.linalg.norm(K, 2)
                        for c in (1e-3, 1.0, 1e3):
                            solve = numerics.radial_solver(metric, K, c, p)
                            for g_norm in (1e-8, 1e-4, 1.0, 1e3, 1e6):
                                for g0 in gs:
                                    g = g0 * (g_norm / np.linalg.norm(g0))
                                    h = solve(g)
                                    reg = c * metric.norm(h) ** (p - 1) * metric.apply(h)
                                    res = np.linalg.norm(K @ h + reg + g)
                                    scale = (k_norm * np.linalg.norm(h)
                                             + np.linalg.norm(reg) + g_norm)
                                    worst_rel = max(worst_rel, res / g_norm)
                                    worst_backward = max(
                                        worst_backward,
                                        res / (np.finfo(float).eps * scale))
        return worst_rel, worst_backward, evals

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_norm_offset(self, p):
        # (K + c r^{p-1} B) h = -g with r^2 = ||h||^2 + a^2, to roundoff
        d = 5
        rng = np.random.default_rng(7)
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        G = rng.standard_normal((d, d))
        for metric in (Metric(dim=d), Metric(G @ G.T / d + 0.5 * np.eye(d))):
            for spectrum in (np.logspace(-2, 1, d),
                             np.r_[0.0, np.logspace(-1, 1, d - 1)]):
                K = V @ np.diag(spectrum) @ V.T
                for c in (1e-2, 1.0, 1e2):
                    solve = numerics.radial_solver(metric, K, c, p)
                    for a in (1e-6, 0.3, 1.0, 1e3):
                        g = rng.standard_normal(d)
                        h = solve(g, a)
                        r = math.hypot(metric.norm(h), a)
                        reg = c * r ** (p - 1) * metric.apply(h)
                        res = np.linalg.norm(K @ h + reg + g)
                        scale = (np.linalg.norm(K, 2) * np.linalg.norm(h)
                                 + np.linalg.norm(reg) + np.linalg.norm(g))
                        assert res <= 20 * np.finfo(float).eps * scale
                    assert np.array_equal(solve(g, 0.0), solve(g))

    @pytest.mark.parametrize("g_norm", [1e-300, 1e300])
    @pytest.mark.parametrize("spectrum", [[0.0, 1.0, 2.0], [1.0, 1e3, 2.0]])
    def test_extreme_gradient_scales(self, g_norm, spectrum):
        # squares of w and of 1/(lam + s) would under- or overflow here
        K = np.diag(spectrum)
        g = g_norm * np.array([1.0, -2.0, 0.5])
        for p in (2, 3, 4):
            h = numerics.radial_solver(Metric(dim=3), K, 1.0, p)(g)
            big = np.max(np.abs(h))
            r = big * np.linalg.norm(h / big)
            res = K @ h + r ** (p - 1) * h + g
            assert np.max(np.abs(res)) <= 1e-13 * np.max(np.abs(g))

    @pytest.mark.parametrize("d", [1, 9, 40])
    @pytest.mark.parametrize("g_norm", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_zero_coefficients(self, d, g_norm, a):
        # a diagonal K has an exact eigenbasis, so w = g: lam_i = 0 meets
        # w_i = 0 and w_i != 0, and lam_i > 0 meets w_i = 0.  With ||g|| =
        # 1e-300 the offset a = 0.5 fixes r, and the bracket is one float.
        lam = np.where(np.arange(d) % 4 < 2, 0.0, np.arange(d) / 4.0)
        g = g_norm * np.where(np.arange(d) % 2 == 0, 1.0 + np.arange(d), 0.0)
        for p in (2, 3, 4):
            for c in (1e-3, 1.0):
                h = numerics.radial_solver(Metric(dim=d), np.diag(lam), c, p)(g, a)
                assert np.all(h[g == 0.0] == 0.0)
                big = max(np.max(np.abs(h)), a)
                r = big * math.hypot(np.linalg.norm(h / big), a / big)
                res = lam * h + c * r ** (p - 1) * h + g
                assert np.max(np.abs(res)) <= 1e-13 * np.max(np.abs(g))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_uniform_convexity_gap_nonnegative(p):
    rng = np.random.default_rng(42)
    B = random_spd(3, 99)
    for m in (Metric(dim=3), Metric(B)):
        for _ in range(50):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert uniform_convexity_gap(m, x, y, p) >= -1e-10
