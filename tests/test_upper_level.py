import copy
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import biopt.driver
from biopt import (BioptError, CertificateUndefined, InvariantViolation,
                   Metric, ProblemInstance, QuadraticOracle, RegionViolation,
                   RunTrace, SimpleOracle, build_builtin, build_example_1d,
                   build_quadratic, build_separable, estimating_min,
                   gap_certificate, new_state, psi_star, psi_value, rate_fit,
                   rel_smooth_params, run, verify_trace)
from biopt.cli import main


class TestEstimatingSequence:
    def test_initial_minimizer_is_x0(self):
        inst = build_example_1d()
        state = new_state(inst, np.array([2.0]))
        np.testing.assert_allclose(estimating_min(state, inst.simple), [2.0])
        assert psi_star(state, inst.simple) == pytest.approx(0.0)

    def test_affine_shift_psi_zero(self):
        inst = build_builtin("quad-2", seed=1)
        state = new_state(inst, np.zeros(2))
        state.s = np.array([1.0, -2.0])
        np.testing.assert_allclose(estimating_min(state, SimpleOracle("zero")),
                                   [-1.0, 2.0])

    def test_l1_soft_threshold_minimizer(self):
        # 1/2 x^2 - 2x + A|x| with A = 1 is minimized at x = 1
        inst = build_example_1d()
        state = new_state(inst, np.zeros(1))
        state.s = np.array([-2.0])
        state.A = 1.0
        np.testing.assert_allclose(estimating_min(state, inst.simple), [1.0])

    def test_psi_star_is_global_min_on_grid(self):
        inst = build_example_1d()
        state = new_state(inst, np.array([0.5]))
        state.s = np.array([0.7])
        state.const = -0.3
        state.A = 2.0
        star = psi_star(state, inst.simple)
        grid = np.linspace(-5, 5, 20001)
        vals = [psi_value(state, inst.simple, np.array([g])) for g in grid]
        assert star <= min(vals) + 1e-7


class TestGapCertificate:
    def test_undefined_before_mass(self):
        inst = build_example_1d()
        state = new_state(inst, np.zeros(1))
        with pytest.raises(CertificateUndefined):
            gap_certificate(state, inst, 1.0, inst.F(state.x))

    def test_psi_zero_closed_form(self):
        inst = build_builtin("quad-2", seed=5)
        state = new_state(inst, np.zeros(2))
        state.s = np.array([1.0, 1.0])
        state.const = 0.5
        state.A = 2.0
        R = 3.0
        got = gap_certificate(state, inst, R, inst.F(state.x))
        s_hat = state.s / state.A
        lower = -R * np.linalg.norm(s_hat) + state.const / state.A
        assert got == pytest.approx(inst.F(state.x) - lower)

    def test_dual_lower_bound_is_sound(self):
        # the certified lower bound never exceeds the true ball minimum
        inst = build_example_1d()
        state = new_state(inst, np.array([0.3]))
        state.s = np.array([-1.2])
        state.const = 0.4
        state.A = 1.5
        R = 2.0
        gap = gap_certificate(state, inst, R, inst.F(state.x))
        lower = inst.F(state.x) - gap
        grid = np.linspace(0.3 - R, 0.3 + R, 40001)
        model = (state.s[0] * grid + state.const) / state.A + np.abs(grid)
        assert lower <= np.min(model) + 1e-9

    @staticmethod
    def ball_min(state, psi, R, b=None):
        """Brute-force min of (s x + const)/A + psi(x) over ||x - x0||_B <= R,
        B = diag(b) (identity when b is None): the boundary of the ball
        scanned and zoomed, plus the interior candidates (l1: the origin;
        box: the corners) that lie in the ball."""
        x0 = state.x0
        b = np.ones(len(x0)) if b is None else np.asarray(b)

        def model(X):
            val = (X @ state.s + state.const) / state.A
            if psi.kind == "l1":
                return val + psi.weight * np.abs(X).sum(axis=1)
            inside = np.all((X >= psi.lo) & (X <= psi.hi), axis=1)
            return np.where(inside, val, np.inf)

        if psi.kind == "l1":
            cands = np.zeros((1, len(x0)))
        else:
            cands = np.array(np.meshgrid(*zip(psi.lo, psi.hi))).reshape(len(x0), -1).T
        cands = cands[np.sqrt(((cands - x0) ** 2 * b).sum(axis=1)) <= R]
        best = np.min(model(cands), initial=np.inf)
        radius = R / np.sqrt(b)
        if len(x0) == 1:
            return min(best, np.min(model(np.array([x0 - radius, x0 + radius]))))
        theta = np.linspace(0.0, 2.0 * np.pi, 100001)
        for _ in range(4):
            vals = model(x0 + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1))
            j = int(np.argmin(vals))
            best = min(best, vals[j])
            theta = np.linspace(theta[max(j - 1, 0)],
                                theta[min(j + 1, len(theta) - 1)], 1001)
        return best

    @pytest.mark.parametrize("case", ["example1d", "l1-2d", "box-2d"])
    def test_dual_lower_bound_is_tight(self, case):
        # the ball is active in each case: the bound meets the ball minimum
        if case == "example1d":
            inst = build_example_1d()
            x0, s, R = [0.3], [-2.4], 2.0
        elif case == "l1-2d":
            inst = build_quadratic(np.eye(2), np.zeros(2),
                                   psi=SimpleOracle("l1", weight=0.5))
            x0, s, R = [0.2, -0.1], [1.3, -0.2], 1.0
        else:
            inst = build_quadratic(np.eye(2), np.zeros(2),
                                   psi=SimpleOracle("box", lo=[-0.5, -0.5],
                                                    hi=[0.5, 0.5]))
            x0, s, R = [-0.2, 0.3], [2.0, 0.4], 0.6
        state = new_state(inst, np.array(x0))
        state.s, state.const, state.A = np.array(s), 0.4, 2.0
        lower = inst.F(state.x) - gap_certificate(state, inst, R, inst.F(state.x))
        brute = self.ball_min(state, inst.simple, R)
        assert lower <= brute + 1e-12
        assert lower == pytest.approx(brute, abs=1e-9)

    def test_inactive_ball_takes_smallest_multiplier(self, monkeypatch):
        # the ball holds the whole box, so phi(-40) >= 0 decides t = -40 with
        # one prox, which also gives the dual value
        inst = build_quadratic(np.eye(2), np.zeros(2),
                               psi=SimpleOracle("box", lo=[-0.5, -0.5],
                                                hi=[0.5, 0.5]))
        state = new_state(inst, np.array([0.1, -0.2]))
        state.s, state.const, state.A = np.array([1.0, -3.0]), 0.4, 2.0
        calls = []
        prox = inst.simple.scaled_prox
        monkeypatch.setattr(inst.simple, "scaled_prox",
                            lambda *a: calls.append(a) or prox(*a))
        R = 5.0
        lower = inst.F(state.x) - gap_certificate(state, inst, R, inst.F(state.x))
        assert len(calls) == 1
        brute = self.ball_min(state, inst.simple, R)
        assert brute == pytest.approx((-0.5 - 1.5 + 0.4) / 2.0)
        assert lower <= brute + 1e-12
        assert lower == pytest.approx(brute, abs=1e-9)


    @staticmethod
    def ball_dual(state, psi, b, R, lams):
        """The Lagrangian dual of the ball ||x - x0||_B <= R, B = diag(b), at
        each multiplier in lams, minimized in x in closed form."""
        s_hat, col = state.s / state.A, lams[:, None]
        w = state.x0 - s_hat / b / col
        if psi.kind == "l1":
            x = np.sign(w) * np.maximum(np.abs(w) - psi.weight / (b * col), 0.0)
            val = psi.weight * np.abs(x).sum(axis=1)
        else:
            x, val = np.clip(w, psi.lo, psi.hi), 0.0
        excess = ((x - state.x0) ** 2 * b).sum(axis=1) - R * R
        return x @ s_hat + val + state.const / state.A + 0.5 * lams * excess

    @pytest.mark.parametrize("diag", [None, [0.5, 2.0]])
    @pytest.mark.parametrize("kind", ["l1", "box"])
    def test_bound_is_the_dual_maximum(self, kind, diag, monkeypatch):
        # no multiplier on a dense grid of [e^-40, e^40] gives a larger dual
        # value than the certified bound, and the bound is no larger than the
        # ball minimum; also with x0_i on a box bound or at 0 under l1, a
        # zero s_i, and an R small enough to pin the multiplier at e^40
        if kind == "l1":
            psi, x0s = SimpleOracle("l1", weight=0.5), ([0.2, -0.1], [0.0, -0.3])
        else:
            psi = SimpleOracle("box", lo=[-0.5] * 2, hi=[0.5] * 2)
            x0s = ([0.2, -0.1], [-0.5, 0.3])
        metric = Metric(dim=2) if diag is None else Metric(np.diag(diag))
        b = np.ones(2) if diag is None else np.array(diag)
        inst = ProblemInstance(QuadraticOracle(np.eye(2), np.zeros(2)), psi,
                               metric, 2)
        lams = np.exp(np.linspace(-40.0, 40.0, 20001))
        multipliers = []
        prox = psi.scaled_prox
        monkeypatch.setattr(psi, "scaled_prox",
                            lambda *a: multipliers.append(1.0 / a[0]) or prox(*a))
        for x0 in x0s:
            for s in ([1.3, -0.7], [-0.9, 0.0], [0.0, 1.1]):
                for R in (1e-20, 0.05, 0.4, 5.0):
                    state = new_state(inst, np.array(x0))
                    state.s, state.const, state.A = np.array(s), 0.4, 2.0
                    F = inst.F(state.x)
                    lower = F - gap_certificate(state, inst, R, F)
                    duals = self.ball_dual(state, psi, b, R, lams)
                    assert lower >= duals.max() - 1e-12, (x0, s, R)
                    assert lower <= self.ball_min(state, psi, R, b) + 1e-12, (x0, s, R)
                    if R == 1e-20:  # x(e^40) is still outside the ball
                        assert multipliers[-1] == pytest.approx(math.exp(40.0))

    @pytest.mark.parametrize("kind", ["l1", "box"])
    def test_cuts_read_in_batches(self, kind, monkeypatch):
        # above dim 15 the path's cuts are read CUTS_PER_READ at a time: on
        # dim-40 cases any batch size gives the bound that reading all 82
        # cuts at once gives, and no multiplier on a dense grid does better
        d = 40
        psi = (SimpleOracle("l1", weight=0.5) if kind == "l1"
               else SimpleOracle("box", lo=[-0.5] * d, hi=[0.5] * d))
        inst = ProblemInstance(QuadraticOracle(np.eye(d), np.zeros(d)), psi,
                               Metric(dim=d), d)
        rng = np.random.default_rng(3)
        lams = np.exp(np.linspace(-40.0, 40.0, 20001))
        for R in (0.05, 0.5, 2.0):
            state = new_state(inst, rng.uniform(-0.5, 0.5, d))
            state.s, state.const, state.A = rng.standard_normal(d), 0.4, 2.0
            F = inst.F(state.x)
            gaps = set()
            for per_read in (2, 3, 7, 32, 82):
                monkeypatch.setattr(biopt.driver, "CUTS_PER_READ", per_read)
                gaps.add(gap_certificate(state, inst, R, F))
            (gap,) = gaps
            duals = self.ball_dual(state, psi, np.ones(d), R, lams)
            assert F - gap >= duals.max() - 1e-12

    def test_composite_cells_take_few_prox_calls(self, monkeypatch):
        # over the 16 composite cells, a certificate takes one scaled prox
        # when x(e^-40) already lies in the ball (the dual value there), and
        # two otherwise (the face of the crossing piece, the dual value);
        # the ball is active at every certificate of these runs
        counts, prox_calls = [], []
        certificate = biopt.driver.gap_certificate
        prox = SimpleOracle.scaled_prox

        def counted(state, instance, R, F_val):
            lam = math.exp(-40.0)
            far = prox(instance.simple, 1.0 / lam,
                       state.x0 - state.s / state.A / lam, instance.metric)
            before = len(prox_calls)
            gap = certificate(state, instance, R, F_val)
            counts.append((len(prox_calls) - before,
                           1 + (np.linalg.norm(far - state.x0) > R)))
            return gap
        monkeypatch.setattr(biopt.driver, "gap_certificate", counted)
        monkeypatch.setattr(SimpleOracle, "scaled_prox",
                            lambda self, *a: prox_calls.append(a) or prox(self, *a))
        for inst, x0, _, R, p in composite_cells():
            run(inst, "inexact", p=p, beta=0.1, H=1.0, budget=200,
                epsilon=1e-4, R=R, x0=x0)
        taken, expected = zip(*counts)
        assert len(counts) >= 64
        assert taken == expected
        assert set(taken) == {2}

    def test_composite_runs_are_sound(self):
        # on every record of the 16 composite cells the certificate covers
        # the gap to the reference minimum and stays below R^2/(2A)
        for inst, x0, x_ref, R, p in composite_cells():
            F_ref = inst.F(x_ref)
            trace = run(inst, "inexact", p=p, beta=0.1, H=1.0, budget=200,
                        epsilon=1e-4, R=R, x0=x0)
            records = [rec for rec in trace.records if rec["A"] > 0.0]
            assert len(records) >= 1
            for rec in records:
                assert rec["F_val"] - F_ref <= rec["gap_cert"] + 1e-9
                assert rec["gap_cert"] <= rec["gap_bound"] + 1e-9


def composite_cells():
    """The 16 composite cells unrotated: quad-d data (d in 5, 10; seeds 0,
    1) with 0.5||x||_1 or the box [-0.5, 0.5]^d, p in 2, 3, each as
    (instance, x0, the minimizer x_ref, R = 1.01||x0 - x_ref||, p)."""
    for d in (5, 10):
        for seed in (0, 1):
            base = build_builtin(f"quad-{d}", seed=seed)
            Q, c = base.smooth.Q, base.smooth.c
            for kind in ("l1", "box"):
                psi = (SimpleOracle("l1", weight=0.5) if kind == "l1" else
                       SimpleOracle("box", lo=[-0.5] * d, hi=[0.5] * d))
                inst = build_quadratic(Q, c, psi=psi)
                x0 = np.full(d, 1.0 if kind == "l1" else 0.25)
                x_ref = prox_grad_min(inst, x0)
                R = 1.01 * float(np.linalg.norm(x0 - x_ref))
                for p in (2, 3):
                    yield inst, x0, x_ref, R, p


def prox_grad_min(inst, x0):
    """Minimizer of a quadratic plus psi by proximal gradient, to resolution."""
    Q, c = inst.smooth.Q, inst.smooth.c
    step = 1.0 / np.linalg.eigvalsh(Q)[-1]
    x = x0
    for _ in range(100000):
        nxt = inst.simple.scaled_prox(step, x - step * (Q @ x - c), inst.metric)
        if np.max(np.abs(nxt - x)) <= 1e-15:
            return nxt
        x = nxt
    raise AssertionError("proximal gradient did not settle")


class TestRunExact:
    def test_example_1d_reaches_optimum(self):
        inst = build_example_1d()
        trace = run(inst, "exact", p=3, H=1.0, x0=np.array([2.0]), budget=50)
        assert trace.status == "optimal"
        assert trace.records[-1]["F_gap"] <= 1e-12

    def test_quadratic_descent_and_mass_growth(self):
        inst = build_builtin("quad-3", seed=9)
        trace = run(inst, "exact", p=2, H=1.0, budget=40)
        F_vals = [r["F_val"] for r in trace.records]
        assert all(b <= a + 1e-10 for a, b in zip(F_vals, F_vals[1:]))
        A_vals = [r["A"] for r in trace.records]
        assert all(b >= a for a, b in zip(A_vals, A_vals[1:]))

    def test_model_mass_lower_bound(self):
        # A_k >= (1/4)^{(p+1)/2} H^{-1} R0^{-(p-1)} k^{(3p+1)/2}
        inst = build_builtin("quad-3", seed=9)
        p, H = 2, 1.0
        trace = run(inst, "exact", p=p, H=H, budget=40)
        R0 = trace.config["R0"]
        for rec in trace.records[1:]:
            k = rec["k"]
            want = 0.25 ** ((p + 1) / 2) / (H * R0 ** (p - 1)) * k ** ((3 * p + 1) / 2)
            assert rec["A"] >= want * (1.0 - 1e-9)

    @pytest.mark.parametrize("b", [4.0, 0.25])
    def test_1d_case_table_needs_identity_metric(self, b):
        # the case table is the segment prox in the Euclidean norm; under
        # B = [[4]] or [[0.25]] its steps broke the invariants at k = 1
        inst = build_example_1d()
        inst.metric = Metric(np.array([[b]]))
        with pytest.raises(ValueError, match="no exact segment-search oracle"):
            run(inst, "exact", p=3, H=1.0, x0=np.array([2.0]), R=3.0)

    @pytest.mark.parametrize("name, mode, args, x0", [
        ("quad-3", "exact", {"H": 1.0}, [math.nan, 0.0, 0.0]),
        ("logbar-10-5", "superfast", {"beta": 0.2}, [100.0] * 5),
    ])
    def test_rejects_x0_outside_the_domain(self, name, mode, args, x0):
        # these once ran and failed the gap_bound invariant at k = 0
        with pytest.raises(ValueError, match="outside the domain of f"):
            run(build_builtin(name, seed=0), mode, p=2, x0=np.array(x0), **args)

    @pytest.mark.parametrize("mode, args", [("inexact", {"H": 1.0}),
                                            ("superfast", {})])
    def test_lower_level_modes_need_p_2(self, mode, args):
        # q = floor(p/2) = 0 at p = 1: inexact runs ended in AcceptanceFailure
        inst = build_builtin("logbar-10-5", seed=0)
        with pytest.raises(ValueError, match=r"\(>= 2 for inexact and superfast"):
            run(inst, mode, p=1, beta=0.1, **args)
        assert run(inst, mode, p=2, beta=0.1, budget=1, **args).records

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run(build_example_1d(), "fastest")

    def test_exact_needs_H(self):
        with pytest.raises(ValueError, match="needs H"):
            run(build_example_1d(), "exact", p=3)

    @pytest.mark.parametrize("mode", ["exact", "inexact"])
    @pytest.mark.parametrize("p, H", [(0, 1.0), (3, 0.0), (3, -1.0),
                                      (3, math.inf), (3, math.nan)])
    def test_rejects_bad_H_or_p(self, mode, p, H):
        with pytest.raises(ValueError, match="must be"):
            run(build_builtin("quad-3", seed=9), mode, p=p, H=H, budget=5)

    @pytest.mark.parametrize("change, message", [
        ({"epsilon": 0.0}, "epsilon must be positive"),
        ({"epsilon": -1.0}, "epsilon must be positive"),
        ({"R": 0.0}, "R must be positive"),
        ({"R": -1.0}, "R must be positive"),
        ({"p": 2.5}, "p must be an integer"),
        ({"budget": -3}, "budget must be an integer"),
        ({"x0": np.ones(2)}, "x0 has shape"),
    ])
    def test_rejects_malformed_arguments(self, change, message):
        args = dict({"p": 2, "H": 1.0, "budget": 5}, **change)
        with pytest.raises(ValueError, match=message):
            run(build_builtin("quad-3", seed=9), "exact", **args)


class TestRunInexact:
    def test_example_1d(self):
        inst = build_example_1d()
        trace = run(inst, "inexact", p=3, beta=0.2, H=1.0,
                    x0=np.array([2.0]), budget=50)
        assert trace.status in ("optimal", "budget")
        assert trace.records[-1]["F_gap"] <= 1e-8

    def test_beta_range_enforced(self):
        inst = build_example_1d()
        with pytest.raises(ValueError, match=r"beta out of range"):
            run(inst, "inexact", p=3, beta=0.9, H=1.0)

    def test_psi_needs_a_diagonal_metric(self):
        # the l1 prox under a dense B once raised NotImplementedError mid-run
        base = build_builtin("quad-5", seed=0)
        inst = build_quadratic(base.smooth.Q, base.smooth.c,
                               psi=SimpleOracle("l1", weight=0.5))
        args = dict(p=2, beta=0.0, H=1.0, R=10.0, x0=np.ones(5))
        inst.metric = Metric(np.eye(5) + 0.3 * np.ones((5, 5)))
        with pytest.raises(ValueError, match="psi l1 needs a diagonal metric"):
            run(inst, "inexact", **args)
        inst.metric = Metric(np.diag(np.linspace(0.5, 2.0, 5)))
        assert verify_trace(run(inst, "inexact", **args))["gap_bound"]["ok"]

    def test_superfast_needs_derivative_bound(self):
        inst = build_builtin("quad-3", seed=1)  # M_4 = 0 for a quadratic
        with pytest.raises(ValueError, match="positive M"):
            run(inst, "superfast", p=3, beta=0.2)

    def test_superfast_logbar_converges(self):
        inst = build_builtin("logbar-10-3", seed=2)
        trace = run(inst, "superfast", p=2, beta=0.2, budget=60)
        assert trace.records[-1]["F_gap"] <= trace.records[1]["F_gap"]
        rep = verify_trace(trace)
        for name, res in rep.items():
            assert res["ok"], (name, res)

    @pytest.mark.parametrize("s", [0.01, 4.0])
    @pytest.mark.parametrize("p", [2, 3])
    def test_superfast_reads_M_in_the_metric_norm(self, s, p):
        # B = s I in x is the identity in y = sqrt(s) x, where the rows are
        # a_i / sqrt(s): the oracle's bound, scaled to B's norm, gives the
        # H of that identity run, and the two runs take the same steps
        base = build_builtin("logbar-10-5", seed=0)
        o, r = base.smooth, math.sqrt(s)
        scaled = build_separable(o.A / r, o.b, "log_barrier", slack_min=o.slack_min)
        scaled.optimum = (r * base.x_star, base.F_star)
        scaled.meta["x0"] = r * base.meta["x0"]
        base.metric = Metric(s * np.eye(base.dim))
        args = dict(p=p, beta=0.2, epsilon=5e-3, budget=200)
        got, want = run(base, "superfast", **args), run(scaled, "superfast", **args)
        assert got.status == want.status == "gap_reached"
        assert got.records[-1]["k"] == want.records[-1]["k"]
        assert got.config["H"] == pytest.approx(want.config["H"], rel=1e-12)
        for g, w in zip(got.records, want.records):
            assert abs(g["F_val"] - w["F_val"]) <= 1e-12
            if "gap_cert" in w:
                assert g["gap_cert"] == pytest.approx(w["gap_cert"], rel=1e-7)

    @pytest.mark.parametrize("p, F_final", [(4, -1.0694561958087978),
                                            (5, -1.0746407283237847)])
    def test_superfast_logbar_at_q2(self, p, F_final):
        # p >= 4 takes the lower level's q = 2 path: the even part carries
        # D^4 f, and the step subproblem is the proximal-gradient loop
        inst = build_builtin("logbar-10-5", seed=0)
        trace = run(inst, "superfast", p=p, beta=0.1, epsilon=5e-3, budget=40)
        assert (trace.status, trace.records[-1]["k"]) == ("budget", 40)
        rep = verify_trace(trace)
        assert len(rep) == 7
        for name, res in rep.items():
            assert res["ok"], (name, res)
        assert trace.records[-1]["F_val"] == pytest.approx(F_final, rel=1e-12)

    def test_epsilon_stopping(self):
        inst = build_builtin("logbar-10-3", seed=2)
        trace = run(inst, "superfast", p=2, beta=0.2, budget=400, epsilon=1e-3)
        assert trace.status in ("gap_reached", "optimal")
        if trace.status == "gap_reached":
            last = trace.records[-1]
            R, A = trace.config["R"], last["A"]
            assert (last.get("gap_cert") is not None
                    and last["gap_cert"] <= 1e-3) or A >= R * R / (2 * 1e-3)


class TestOperatingRegion:
    """superfast takes H from a bound that holds where every slack is at
    least slack_min; each record reports the smallest slack evaluated."""

    def instance(self, factor):
        # logbar-10-5 seed 0 with slack_min = factor x the smallest slack at x0
        base = build_builtin("logbar-10-5", seed=0)
        o, x0 = base.smooth, base.meta["x0"]
        inst = build_separable(o.A, o.b, "log_barrier",
                               slack_min=factor * float(np.min(o.A @ x0 - o.b)))
        inst.optimum, inst.meta["x0"] = base.optimum, x0
        return inst

    def test_declared_region_holds(self):
        inst = self.instance(0.25)
        trace = run(inst, "superfast", p=3, beta=0.2, budget=30)
        assert len(trace.records) == 31
        assert min(r["min_slack"] for r in trace.records) >= inst.smooth.slack_min

    def test_superfast_raises_below_slack_min(self):
        inst = self.instance(1.5)
        with pytest.raises(RegionViolation, match="below slack_min .* at k=0"):
            run(inst, "superfast", p=3, beta=0.2, budget=30)
        # a given M_next is the caller's claim, not the oracle's: no check
        run(inst, "superfast", p=3, beta=0.2, budget=3, M_next=1e3)

    def test_inexact_records_min_slack(self, tmp_path):
        inst = self.instance(1.5)
        o, x0 = inst.smooth, inst.meta["x0"]
        H = rel_smooth_params(3, o.deriv_bound(4)).H
        trace = run(inst, "inexact", p=3, beta=0.2, H=H, budget=10)
        assert len(trace.records) == 11
        # record 0 has evaluated x0 only
        assert trace.records[0]["min_slack"] == np.min(o.A @ x0 - o.b)
        assert all(0.0 < r["min_slack"] for r in trace.records)
        nd, summary = tmp_path / "t.ndjson", tmp_path / "t.csv"
        trace.write_ndjson(str(nd))
        trace.write_csv(str(summary))
        back = RunTrace.from_ndjson(str(nd))
        assert [r["min_slack"] for r in back.records] == \
            [r["min_slack"] for r in trace.records]
        lines = summary.read_text().splitlines()
        assert lines[0] == "k,F_gap,A,g_k,branch,bisections,lower_iters"
        assert {len(line.split(",")) for line in lines} == {7}

    def test_no_min_slack_without_slacks(self):
        trace = run(build_builtin("quad-3", seed=1), "inexact", p=2, beta=0.1,
                    H=1.0, budget=3)
        assert not any("min_slack" in r for r in trace.records)


class TestTraceIO:
    def make_trace(self):
        return run(build_builtin("quad-2", seed=3), "exact", p=2, H=1.0,
                   budget=15)

    def test_ndjson_roundtrip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "t.ndjson"
        trace.write_ndjson(str(path))
        back = RunTrace.from_ndjson(str(path))
        assert back.status == trace.status
        assert len(back.records) == len(trace.records)
        assert back.config["instance"] == "quad-2"
        assert back.records[-1]["F_val"] == pytest.approx(
            trace.records[-1]["F_val"])

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_trace().write_csv(str(a))
        self.make_trace().write_csv(str(b))
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "k,F_gap,A,g_k,branch,bisections,lower_iters"

    @staticmethod
    def pinned_traces():
        """An exact and an inexact l1 quad-5 run (both end optimal) and a
        superfast logbar-10-5 run (budget); record 0 has null fields."""
        quad = build_builtin("quad-5", seed=0)
        l1 = build_quadratic(quad.smooth.Q, quad.smooth.c, name="quad-5-l1",
                             psi=SimpleOracle("l1", weight=0.5))
        return [run(quad, "exact", p=2, H=1.0, budget=50),
                run(l1, "inexact", p=2, beta=0.1, H=1.0, budget=40,
                    x0=np.ones(5)),
                run(build_builtin("logbar-10-5", seed=0), "superfast", p=3,
                    beta=0.2, budget=10)]

    def test_bytes_are_pinned(self, tmp_path):
        # NDJSON: one json.dumps(..., sort_keys=True) line per object, the
        # status line in insertion order; CSV: %.17g fields, CRLF rows
        def g17(v):
            return "" if v is None else "%.17g" % v

        traces = self.pinned_traces()
        assert [t.status for t in traces] == ["optimal", "optimal", "budget"]
        for trace in traces:
            assert trace.records[0]["g_k"] is None
            nd, summary = tmp_path / "t.ndjson", tmp_path / "t.csv"
            trace.write_ndjson(str(nd))
            trace.write_csv(str(summary))
            objs = [{"type": "config", **trace.config}]
            objs += [{"type": "iter", **rec} for rec in trace.records]
            want = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)
            want += '{"type": "status", "status": "%s"}\n' % trace.status
            assert nd.read_bytes() == want.encode()
            rows = ["k,F_gap,A,g_k,branch,bisections,lower_iters"]
            rows += [f"{r['k']},{g17(r['F_gap'])},{g17(r['A'])},{g17(r['g_k'])},"
                     f"{r['branch'] or ''},{r['bisections']},{r['lower_iters']}"
                     for r in trace.records]
            assert summary.read_bytes() == "".join(row + "\r\n" for row in rows).encode()
            back = RunTrace.from_ndjson(str(nd))
            assert (back.config, back.records, back.status) == \
                (trace.config, trace.records, trace.status)

    def test_braces_in_strings_read_back(self, tmp_path):
        # a string holding { or } is read line by line, to the same trace
        trace = self.make_trace()
        trace.config["instance"] = "quad-2 {x}"
        trace.records[1]["branch"] = "}{"
        path = tmp_path / "t.ndjson"
        trace.write_ndjson(str(path))
        back = RunTrace.from_ndjson(str(path))
        assert (back.config, back.records, back.status) == \
            (trace.config, trace.records, trace.status)

    CONFIG = '{"type": "config", "mode": "exact", "p": 2}'
    RECORD = '{"k": 0, "F_val": 1.0, "A": 0.0, "B_cert": 0.0}'
    STATUS = '{"type": "status", "status": "budget"}'

    @pytest.mark.parametrize("lines, message", [
        ([CONFIG, RECORD + " " + STATUS], "Extra data: line 1 column 49"),
        ([CONFIG, RECORD + ", " + STATUS], "Extra data: line 1 column 48"),
        ([CONFIG, RECORD, "3.5", STATUS], "trace line is not an object: 3.5$"),
        ([CONFIG, "[1, 2]", STATUS], r"trace line is not an object: \[1, 2\]$"),
        ([CONFIG, RECORD, RECORD[:20]], "Expecting ',' delimiter: line 1 column 20"),
        # a string that would run into the next line
        (['{"type": "config", "mode": "x}', '{"}', STATUS],
         "Unterminated string starting at: line 1 column 28"),
        # two objects on a line, the second closed on the next one: as one
        # array the lines hold two objects, but neither line is one
        ([CONFIG + ', {"a": [{}', '{}]}'], "Extra data: line 1 column 44"),
    ], ids=["two-objects", "two-objects-comma", "scalar", "non-object",
            "truncated", "string-across-lines", "object-across-lines"])
    def test_malformed_lines_are_refused(self, tmp_path, lines, message):
        # the messages are the line-by-line reader's, one line at a time
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            RunTrace.from_ndjson(str(path))
        result = CliRunner().invoke(main, ["verify", str(path)])
        assert result.exit_code == 2
        assert result.output.count("trace error:") == 1
        assert len(result.output.splitlines()) == 1

    def test_blank_lines_are_skipped(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "t.ndjson"
        trace.write_ndjson(str(path))
        plain = CliRunner().invoke(main, ["verify", str(path)])
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n  \n".join(lines) + "\n\n\t\n")
        back = RunTrace.from_ndjson(str(path))
        assert (back.config, back.records, back.status) == \
            (trace.config, trace.records, trace.status)
        spaced = CliRunner().invoke(main, ["verify", str(path)])
        assert (spaced.exit_code, spaced.output) == (plain.exit_code, plain.output) \
            == (0, "".join(f"{name}: pass\n" for name in sorted(biopt.driver.FAMILIES)))


class TestRateFit:
    def synthetic_trace(self, slope):
        ks = np.arange(1, 101)
        records = [{"k": int(k), "F_val": float(k ** slope), "A": float(k)}
                   for k in ks]
        return RunTrace(config={"F_star": 0.0}, records=records)

    def test_recovers_synthetic_slope(self):
        trace = self.synthetic_trace(-5.0)
        slope, warnings = rate_fit(trace, 10, 100)
        assert slope == pytest.approx(-5.0, abs=1e-9)
        assert warnings == []

    def test_underflow_warning(self):
        trace = self.synthetic_trace(-5.0)
        for rec in trace.records:
            if rec["k"] > 60:
                rec["F_val"] = 0.0
        slope, warnings = rate_fit(trace, 10, 100)
        assert any("underflow" in w for w in warnings)
        assert slope == pytest.approx(-5.0, abs=1e-9)

    def test_needs_enough_points(self):
        trace = self.synthetic_trace(-2.0)
        with pytest.raises(BioptError, match="at least 10"):
            rate_fit(trace, 95, 100)

    def test_needs_optimum(self):
        trace = RunTrace(config={}, records=[])
        with pytest.raises(BioptError, match="no known optimal value"):
            rate_fit(trace, 1, 10)


def strip_certificates(trace):
    for rec in trace.records:
        for key in ("psi_star", "gap_cert", "gap_bound", "psi_at_xstar",
                    "residual", "a"):
            rec.pop(key, None)
        rec["A"] = 1e9


def drop_psi_star(trace):
    del trace.records[3]["psi_star"]


def halve_B_cert(trace):
    trace.records[3]["B_cert"] *= 0.5


def scale_mass(trace):
    for rec in trace.records:
        rec["A"] *= 4.0
        if rec["a"] is not None:
            rec["a"] *= 4.0


def swap_records(trace):
    trace.records[3], trace.records[4] = trace.records[4], trace.records[3]


def drop_mode(trace):
    del trace.config["mode"]


class TestVerifyTrace:
    def clean_trace(self):
        return run(build_builtin("quad-3", seed=9), "exact", p=2, H=1.0,
                   budget=25)

    def test_clean_trace_passes(self):
        rep = verify_trace(self.clean_trace())
        for name, res in rep.items():
            assert res["ok"], (name, res)

    def test_record_after_final_optimal_record_fails(self):
        trace = run(build_example_1d(), "exact", p=3, H=1.0,
                    x0=np.array([2.0]), budget=50)
        assert trace.status == "optimal"
        trace.records.append(dict(trace.records[-1]))
        rep = verify_trace(trace)
        assert rep["A_nondecreasing"]["violations"] == [trace.records[-1]["k"]]

    def test_detects_broken_descent(self):
        trace = self.clean_trace()
        bad = copy.deepcopy(trace)
        bad.records[5]["F_val"] += 1.0
        rep = verify_trace(bad)
        assert not rep["descent"]["ok"]

    def test_detects_tampered_mass(self):
        trace = self.clean_trace()
        bad = copy.deepcopy(trace)
        bad.records[4]["A"] *= 10.0
        rep = verify_trace(bad)
        assert (not rep["coefficient_equation"]["ok"]
                or not rep["A_nondecreasing"]["ok"])

    def test_detects_inflated_certificate(self):
        trace = run(build_builtin("logbar-10-3", seed=2), "superfast", p=2,
                    beta=0.2, budget=30)
        bad = copy.deepcopy(trace)
        for rec in bad.records:
            if rec.get("gap_cert") is not None:
                rec["gap_cert"] = rec["gap_bound"] + 1.0
        rep = verify_trace(bad)
        assert not rep["gap_bound"]["ok"]

    @pytest.mark.parametrize("tamper, family", [
        (strip_certificates, "estimating_lower"),
        (drop_psi_star, "estimating_lower"),
        (halve_B_cert, "estimating_lower"),
        (scale_mass, "estimating_lower"),
        (swap_records, "A_nondecreasing"),
        (drop_mode, None),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_tampered_inexact_trace_fails(self, tamper, family, tmp_path):
        # family None: a config without a key it needs is a trace error
        trace = run(build_builtin("quad-5", seed=1), "inexact", p=3,
                    beta=0.2, H=1.0, budget=30)
        assert len(trace.records) > 5
        tamper(trace)
        path = tmp_path / "t.ndjson"
        trace.write_ndjson(str(path))
        result = CliRunner().invoke(main, ["verify", str(path)])
        if family is None:
            assert result.exit_code == 2
            assert "trace error" in result.output
        else:
            assert result.exit_code == 1
            assert f"{family}: FAIL" in result.output

    def test_config_rates_are_read_at_the_first_record(self):
        # a trace without records replays nothing, so a mode none of the
        # drivers has raises only once a record needs the rates
        config = {"mode": "bogus", "p": 2, "H": 1.0, "beta": 0.0,
                  "F_star": None, "R": None, "R0": None}
        trace = RunTrace(config=config, records=[])
        assert all(res["ok"] for res in verify_trace(trace).values())
        trace.records.append({"k": 0, "F_val": 1.0, "A": 0.0})
        with pytest.raises(ValueError, match="^trace record 0 lacks B_cert$"):
            verify_trace(trace)
        trace.records[0]["B_cert"] = 0.0
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            verify_trace(trace)

    def test_run_raises_on_broken_invariant(self, monkeypatch):
        monkeypatch.setattr(biopt.driver, "gap_certificate",
                            lambda state, instance, R, F_val: R * R / state.A + 1.0)
        with pytest.raises(InvariantViolation) as err:
            run(build_builtin("quad-3", seed=9), "exact", p=2, H=1.0,
                budget=5)
        assert err.value.families == ["gap_bound"]
        assert err.value.k == 1


def test_run_is_deterministic():
    a = run(build_builtin("quad-3", seed=9), "exact", p=2, H=1.0, budget=20)
    b = run(build_builtin("quad-3", seed=9), "exact", p=2, H=1.0, budget=20)
    assert [r["F_val"] for r in a.records] == [r["F_val"] for r in b.records]
    assert [r["A"] for r in a.records] == [r["A"] for r in b.records]


def test_seeded_exact_sweep():
    # exact runs off the fixed panels, on ROADMAP item 6's generator with
    # psi = 0: Q = G^T G/d + delta I, p in 1..4 and H over four decades
    rng = np.random.default_rng(0)
    statuses = set()
    for _ in range(100):
        d = int(rng.integers(1, 7))
        G = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-2, 2)
        Q = G.T @ G / d + 10.0 ** rng.uniform(-3, 0) * np.eye(d)
        c = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        p, H = int(rng.integers(1, 5)), 10.0 ** rng.uniform(-2, 2)
        x0 = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 1)
        trace = run(build_quadratic(Q, c), "exact", p=p, H=H, budget=60,
                    epsilon=1e-6, x0=x0)
        assert trace.status in ("optimal", "gap_reached", "budget")
        statuses.add(trace.status)
        report = verify_trace(trace)
        assert len(report) == 7 and all(v["ok"] for v in report.values())
        for rec in trace.records:
            if rec.get("F_gap") is not None and rec.get("gap_cert") is not None:
                assert rec["F_gap"] <= rec["gap_cert"] + 1e-9
    assert statuses == {"optimal", "gap_reached", "budget"}
