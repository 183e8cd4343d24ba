"""End-to-end acceptance criteria for the toolkit.

Each test prints one `[criterion N] PASS/FAIL` line summarizing what was
verified; the heavyweight driver runs are shared through module-scoped
fixtures so the whole file stays within a desk-scale budget.
"""

import time

import numpy as np
import pytest

import biopt.lower
from biopt import (AcceptedPoint, Metric, ScalingFunction, bregman,
                   build_builtin, build_example_1d, build_logbar,
                   check_lemma_properties, evaluate, exact_sprox_1d,
                   prox_power, rate_fit, reg_bregman, rel_smooth_params, run,
                   sprox_reference)

from helpers import fd_grad


def report(num, ok, desc):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def exact_runs():
    """Exact-driver traces on the two closed-form oracle families."""
    out = {}
    for p in (2, 3):
        inst = build_example_1d()
        out[("example1d", p)] = (inst, run(inst, "exact", p=p, H=1.0,
                                           x0=np.array([2.0]), budget=200))
        inst = build_builtin("quad-5", seed=0)
        out[("quad-5", p)] = (inst, run(inst, "exact", p=p, H=1.0, budget=200))
    return out


@pytest.fixture(scope="module")
def superfast_runs():
    """Superfast traces on log-barrier benchmarks, with every accepted point
    produced by the lower level captured for later auditing: the lower
    level's AcceptedPoint is wrapped to keep each point it builds."""
    out = []
    for p, seed, budget in ((3, 0, 200), (2, 0, 500), (2, 1, 500)):
        inst = build_logbar(10, 5, seed=seed)
        points = []

        def keep(*args, **kwargs):
            points.append(AcceptedPoint(*args, **kwargs))
            return points[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(biopt.lower, "AcceptedPoint", keep)
            trace = run(inst, "superfast", p=p, beta=0.2, budget=budget)
        out.append({"p": p, "seed": seed, "inst": inst, "trace": trace,
                    "points": points})
    return out


def rate_bound(H, R0, p, k, blowup=1.0):
    return blowup * (2.0 ** p) * H * R0 ** (p + 1) \
        * (1.0 + 2.0 * (k - 1) / (p + 1)) ** (-(3.0 * p + 1.0) / 2.0)


def test_criterion_1_exact_sprox_matches_reference():
    inst = build_example_1d()
    rng = np.random.default_rng(0)
    start = time.monotonic()
    branches = set()
    worst = 0.0
    for _ in range(200):
        xbar, ubar = rng.uniform(-3.0, 3.0, size=2)
        res = exact_sprox_1d(xbar, ubar)
        branches.add(res.branch)
        _, _, ref_val = sprox_reference(inst, np.array([xbar]),
                                        np.array([ubar]), 1.0, 3)
        worst = max(worst, abs(res.objective - ref_val))
    elapsed = time.monotonic() - start
    ok = (worst <= 1e-5 and elapsed < 60.0
          and branches == {"interior", "tau0_pos", "tau0_neg",
                           "tau1_pos", "tau1_neg"})
    report(1, ok, f"closed-form segment prox vs reference on 200 seeded "
                  f"pairs: max objective error {worst:.2e}, "
                  f"{len(branches)}/5 branches, {elapsed:.1f}s")


def test_criterion_2_exact_rate_bound(exact_runs):
    violations = []
    for (name, p), (inst, trace) in exact_runs.items():
        H = trace.config["H"]
        R0 = trace.config["R0"]
        for rec in trace.records:
            k = rec["k"]
            if k < 1 or k > 200:
                continue
            if rec["F_gap"] > rate_bound(H, R0, p, k) + 1e-12:
                violations.append((name, p, k))
    report(2, not violations,
           f"exact-driver worst-case bound on 4 runs, k <= 200: "
           f"{len(violations)} violations")


def test_criterion_3_superfast_rate_and_slope(superfast_runs):
    problems = []
    slopes = {}
    for entry in superfast_runs:
        if entry["seed"] != 0:
            continue
        p, trace = entry["p"], entry["trace"]
        H = trace.config["H"]
        R0 = trace.config["R0"]
        beta = trace.config["beta"]
        blowup = 2.0 ** p / (1.0 - beta)  # 4^p/(1-beta) over the exact 2^p
        for rec in trace.records:
            k = rec["k"]
            if k < 1 or k > 200:
                continue
            if rec["F_gap"] > rate_bound(H, R0, p, k, blowup=blowup) + 1e-12:
                problems.append(("bound", p, k))
        slope, _ = rate_fit(trace, 20, 200)
        slopes[p] = slope
    if slopes.get(3, 0.0) > -4.5:
        problems.append(("slope", 3, slopes[3]))
    if slopes.get(2, 0.0) > -3.0:
        problems.append(("slope", 2, slopes[2]))
    report(3, not problems,
           f"superfast bound + empirical slopes (p=3: {slopes[3]:.2f}, "
           f"p=2: {slopes[2]:.2f}): {len(problems)} problems")


def test_criterion_4_accepted_point_audit(superfast_runs):
    total = 0
    bad = 0
    for entry in superfast_runs:
        x_star = entry["inst"].x_star
        for ap in entry["points"]:
            total += 1
            rep = check_lemma_properties(ap, x_star=x_star)
            if False in rep.values():
                bad += 1
    ok = bad == 0 and total >= 1000
    report(4, ok, f"first-order consequences on {total} accepted points "
                  f"(audited against x*): {bad} failures")


def test_criterion_5_estimating_sequence_invariants(exact_runs, superfast_runs):
    traces = [t for _, t in exact_runs.values()]
    traces += [entry["trace"] for entry in superfast_runs]
    violations = 0
    checked = 0
    for trace in traces:
        F_star, R0 = trace.config["F_star"], trace.config["R0"]
        for rec in trace.records:
            A, ps = rec["A"], rec["psi_star"]
            checked += 1
            if A * rec["F_val"] + rec["B_cert"] > ps + 1e-8 * (1.0 + abs(ps)):
                violations += 1
            ub = A * F_star + 0.5 * R0 * R0
            if rec["psi_at_xstar"] > ub + 1e-8 * (1.0 + abs(ub)):
                violations += 1
    report(5, violations == 0,
           f"estimating-sequence sandwich on {checked} recorded iterations "
           f"across {len(traces)} runs: {violations} violations")


def test_criterion_6_bisection_count_bound(superfast_runs):
    bad = []
    events = 0
    for entry in superfast_runs:
        p, trace = entry["p"], entry["trace"]
        H = trace.config["H"]
        beta = trace.config["beta"]
        D_star = max(max(rec["dist_x"], rec["dist_upsilon"])
                     for rec in trace.records)
        eps = max(trace.records[-1]["F_gap"], 1e-16)
        arg = 5.0 * H * D_star / (4.0 * (1.0 - beta) * eps)
        bound = max(0.0, 2.0 + np.log2(arg) / p)
        for rec in trace.records:
            if rec.get("branch") != "case_iii":
                continue
            events += 1
            if rec["bisections"] > bound + 1.0:
                bad.append((p, rec["k"], rec["bisections"], bound))
    ok = not bad and events >= 1
    report(6, ok, f"bisection count vs logarithmic bound on {events} "
                  f"segment-search events: {len(bad)} violations")


def test_criterion_7_relative_smoothness_sandwich():
    bad = 0
    checked = 0
    inst = build_logbar(10, 5, seed=0)
    for p in (2, 3):
        prm = rel_smooth_params(p, inst.smooth.deriv_bound(p + 1))
        y = inst.x_star
        sf = ScalingFunction(inst, y, prm.H, p)
        rng = np.random.default_rng(100 + p)
        while checked < 1000 * (p - 1):
            x = y + 0.02 * rng.standard_normal(5)
            z = y + 0.02 * rng.standard_normal(5)
            slacks = np.concatenate([inst.smooth.A @ w - inst.smooth.b
                                     for w in (x, z)])
            if np.min(slacks) < inst.smooth.slack_min:
                continue
            checked += 1
            br = bregman(sf, x, z)
            bf = reg_bregman(inst, y, prm.H, p, x, z)
            if not (prm.mu * br <= bf + 1e-9 and bf <= prm.L * br + 1e-9):
                bad += 1
    report(7, bad == 0, f"relative smoothness/strong-convexity sandwich on "
                        f"{checked} sampled pairs: {bad} violations")


def test_criterion_8_gap_certificate_soundness(exact_runs, superfast_runs):
    traces = [t for _, t in exact_runs.values()]
    traces += [entry["trace"] for entry in superfast_runs]
    violations = 0
    checked = 0
    for trace in traces:
        for rec in trace.records:
            if rec.get("gap_cert") is None:
                continue
            checked += 1
            if rec["F_gap"] < -1e-10:
                violations += 1
            if rec["F_gap"] > rec["gap_cert"] + 1e-9:
                violations += 1
            if rec["gap_cert"] > rec["gap_bound"] + 1e-9:
                violations += 1
    report(8, violations == 0,
           f"0 <= F-F* <= certified gap <= R^2/(2A) on {checked} recorded "
           f"iterations: {violations} violations")


def test_criterion_9_gradients_and_determinism(tmp_path):
    worst = 0.0

    def check(fun, grad, x):
        nonlocal worst
        want = fd_grad(fun, x)
        err = np.max(np.abs(grad - want)) / max(np.max(np.abs(want)), 1.0)
        worst = max(worst, err)

    rng = np.random.default_rng(55)
    G = rng.standard_normal((4, 4))
    metric = Metric(G @ G.T + 4.0 * np.eye(4))
    x = rng.standard_normal(4)
    for p in (2, 3):
        _, g = prox_power(metric, x, p)
        check(lambda z: prox_power(metric, z, p)[0], g, x)

    quad = build_builtin("quad-3", seed=7)
    anchor = rng.standard_normal(3)
    xq = rng.standard_normal(3)
    g = evaluate(quad, anchor, 2.0, 3, xq).reg_grad
    check(lambda z: evaluate(quad, anchor, 2.0, 3, z).reg_value, g, xq)

    lb = build_logbar(10, 4, seed=1)
    y = lb.meta["x0"]
    sf = ScalingFunction(lb, y, 3.0, 4)
    xl = y + 0.03 * rng.standard_normal(4)
    _, g = sf.rho(xl - y)
    check(lambda z: sf.rho(z - y)[0], g, xl)
    h = 0.1 * rng.standard_normal(4)
    even = lb.smooth.expansion_at(y, 2)[3]
    check(lambda hh: even(hh)[0], even(h)[1], h)
    for order in (2, 4):
        check(lambda hh: lb.smooth.even_form(y, hh, order),
              lb.smooth.even_form_grad(y, h, order), h)

    grads_ok = worst <= 1e-6

    def csv_bytes(tag):
        path = tmp_path / f"{tag}.csv"
        run(build_builtin("quad-5", seed=0), "exact", p=2, H=1.0,
            budget=30).write_csv(str(path))
        return path.read_bytes()

    def csv_bytes_sf(tag):
        path = tmp_path / f"sf-{tag}.csv"
        run(build_builtin("logbar-10-3", seed=2), "superfast", p=2, beta=0.2,
            budget=25).write_csv(str(path))
        return path.read_bytes()

    det_ok = (csv_bytes("a") == csv_bytes("b")
              and csv_bytes_sf("a") == csv_bytes_sf("b"))
    report(9, grads_ok and det_ok,
           f"finite-difference gradient audit (worst rel err {worst:.2e}) "
           f"and byte-identical rerun summaries "
           f"({'ok' if det_ok else 'mismatch'})")
